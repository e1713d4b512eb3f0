//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation (§VII), run by the `tables` binary.
//!
//! | Experiment | Paper artifact | Driver |
//! |---|---|---|
//! | E1 | Table I — number of functions | [`table1`] |
//! | E2 | Table II — startup overhead | [`table2`] |
//! | E3 | Table III — code size change | [`table3`] |
//! | E4 | §VII-A — effectiveness (953 gadgets; attacks fail) | [`effectiveness`] |
//! | E5 | §V-D — brute-force effort | [`bruteforce`] |
//! | E6 | §VIII-B — entropy | [`entropy`] |
//! | A1 | §VI-B1 — `--no-relax` and `-mno-call-prologues` ablations | [`relax_ablation`], [`call_prologue_ablation`] |
//! | F1 | Fig. 2 — MAVLink packet structure | [`fig2`] |
//! | F2 | Figs. 4–5 — gadget listings | [`gadget_listings`] |
//! | F3 | Fig. 6 — stack progression during the stealthy attack | [`fig6`] |
//!
//! The `bench-*` drivers ([`simulator_throughput`], [`fleet_throughput`],
//! [`campaignd_memory`], [`robust_service`], [`chaos_resilience`],
//! [`telemetry_overhead`], [`world_throughput`]) each return one
//! [`BenchRecord`].

#![forbid(unsafe_code)]

mod record;

pub use record::BenchRecord;

use avr_core::image::FirmwareImage;
use avr_core::Insn;
use mavlink_lite::GroundStation;
use mavr::policy::RandomizationPolicy;
use mavr_board::{MavrBoard, SerialLink};
use rop::attack::AttackContext;
use rop::scanner::{self, ScanOptions};
use synth_firmware::{apps, build, layout as l, AppSpec, BuildOptions, FirmwareBuild};

/// One row of a numeric table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Application name.
    pub app: String,
    /// Values, column order per experiment.
    pub values: Vec<f64>,
}

/// Render rows with a header, paper-style.
pub fn render(title: &str, columns: &[&str], rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "== {title} ==").unwrap();
    write!(out, "{:<14}", "Application").unwrap();
    for c in columns {
        write!(out, "{c:>20}").unwrap();
    }
    out.push('\n');
    for r in rows {
        write!(out, "{:<14}", r.app).unwrap();
        for v in &r.values {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(out, "{:>20}", *v as i64).unwrap();
            } else {
                write!(out, "{v:>20.1}").unwrap();
            }
        }
        out.push('\n');
    }
    out
}

/// Build the calibrated paper apps under a given option set. Building a
/// full app takes ~0.5 s; callers should reuse the results.
pub fn paper_builds(options: &BuildOptions) -> Vec<FirmwareBuild> {
    apps::all_paper_apps()
        .iter()
        .map(|spec| build(spec, options).expect("calibrated app builds"))
        .collect()
}

/// **Table I** — number of randomizable function symbols per application.
/// Paper: ArduPlane 917, ArduCopter 1030, ArduRover 800 (avg 915.67,
/// median 917).
pub fn table1() -> Vec<Row> {
    paper_builds(&BuildOptions::safe_mavr())
        .iter()
        .map(|fw| Row {
            app: fw.spec.name.to_string(),
            values: vec![fw.image.function_count() as f64],
        })
        .collect()
}

/// **Table II** — startup overhead in ms when the application is
/// randomized and reprogrammed at boot. Paper: 19209 / 21206 / 15412
/// (avg 18609, median 19209) at 115200 baud.
pub fn table2() -> Vec<Row> {
    let link = SerialLink::prototype();
    paper_builds(&BuildOptions::safe_mavr())
        .iter()
        .map(|fw| Row {
            app: fw.spec.name.to_string(),
            values: vec![link.transfer_ms(fw.image.code_size()).round()],
        })
        .collect()
}

/// **Table II (production estimate)** — §VII-B1's ~4 s figure on a
/// production PCB where flash page writes are the bottleneck.
pub fn table2_production() -> Vec<Row> {
    let link = SerialLink::production();
    paper_builds(&BuildOptions::safe_mavr())
        .iter()
        .map(|fw| Row {
            app: fw.spec.name.to_string(),
            values: vec![link.programming_ms(fw.image.code_size()).round()],
        })
        .collect()
}

/// **Table III** — code size, stock toolchain vs MAVR custom toolchain.
/// Paper: 221608→221294, 244532→244292, 177870→177556.
pub fn table3() -> Vec<Row> {
    let stock = paper_builds(&BuildOptions::safe_stock());
    let mavr = paper_builds(&BuildOptions::safe_mavr());
    stock
        .iter()
        .zip(&mavr)
        .map(|(s, m)| Row {
            app: s.spec.name.to_string(),
            values: vec![
                f64::from(s.image.code_size()),
                f64::from(m.image.code_size()),
            ],
        })
        .collect()
}

/// Outcome of the §VII-A effectiveness experiment.
#[derive(Debug, Clone)]
pub struct Effectiveness {
    /// Unique gadgets found in the unprotected target (paper: 953).
    pub gadgets_unique: usize,
    /// Total ret-reaching start addresses (no dedup).
    pub gadgets_total: usize,
    /// Attack attempts against the *unprotected* image.
    pub stock_attempts: usize,
    /// … of which succeeded (sensor set, no crash).
    pub stock_successes: usize,
    /// Attack attempts against *randomized* images (fresh permutation each).
    pub randomized_attempts: usize,
    /// … of which succeeded. The paper's result: none.
    pub randomized_successes: usize,
    /// … of which crashed visibly and were detected + reflashed by the
    /// master.
    pub randomized_detected: usize,
    /// Gadget addresses from the unprotected image that still host the same
    /// gadget after one randomization (should be near zero).
    pub gadget_survivors: usize,
}

/// **§VII-A effectiveness**: scan the target for gadgets, run the stealthy
/// V2 attack against the unprotected image (expect success) and against
/// `trials` freshly randomized boards (expect zero successes; majority
/// detected and recovered).
///
/// Pass [`apps::tiny_test_app`] for fast runs, [`apps::synth_plane`] for
/// the paper-scale target.
pub fn effectiveness(spec: &AppSpec, trials: u64) -> Effectiveness {
    let fw = build(spec, &BuildOptions::vulnerable_mavr()).expect("build");
    let scan = scanner::scan(&fw.image, &ScanOptions::default());
    let scan_all = scanner::scan(
        &fw.image,
        &ScanOptions {
            dedup: false,
            ..Default::default()
        },
    );
    let one_shuffle = mavr::randomize(
        &fw.image,
        &mut mavr::seeded_rng(0x5caa),
        &mavr::RandomizeOptions::default(),
    )
    .expect("randomize");
    let gadget_survivors =
        scanner::survivors(&fw.image, &one_shuffle.image, &ScanOptions::default());
    let ctx = AttackContext::discover(&fw.image).expect("attack discovery");
    let payload = ctx
        .v2_payload(&[(l::GYRO + 3, [0xde, 0xad, 0x42])])
        .expect("payload");

    // Against the unprotected binary.
    let mut stock_successes = 0;
    {
        let mut m = avr_sim::Machine::new_atmega2560();
        m.load_flash(0, &fw.image.bytes);
        m.run(200_000);
        let mut gcs = GroundStation::new();
        m.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
        let exit = m.run(2_000_000);
        if exit.is_healthy() && m.peek_range(l::GYRO + 3, 3) == vec![0xde, 0xad, 0x42] {
            stock_successes = 1;
        }
    }

    // Against randomized boards.
    let mut randomized_successes = 0;
    let mut randomized_detected = 0;
    for seed in 0..trials {
        let mut board = MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default())
            .expect("provision");
        board.run(300_000).expect("run");
        let mut gcs = GroundStation::new();
        board.uplink(&gcs.exploit_packet(&payload).unwrap());
        board.run(6_000_000).expect("run");
        if board.app.machine.peek_range(l::GYRO + 3, 3) == vec![0xde, 0xad, 0x42] {
            randomized_successes += 1;
        }
        if board.recoveries() >= 1 {
            randomized_detected += 1;
        }
    }
    Effectiveness {
        gadgets_unique: scan.len(),
        gadgets_total: scan_all.len(),
        stock_attempts: 1,
        stock_successes,
        randomized_attempts: trials as usize,
        randomized_successes,
        randomized_detected,
        gadget_survivors,
    }
}

/// **§V-D brute force**: Monte-Carlo means vs the closed forms for a small
/// function count where simulation is feasible. Trials fan out across the
/// available cores with deterministic per-trial seeds (see
/// [`rop::brute::run_trials`]), so the numbers are reproducible regardless
/// of the host's parallelism. Returns
/// `(sim_fixed, theory_fixed, sim_rerandomized, theory_rerandomized)`.
pub fn bruteforce(n_functions: usize, trials: u64) -> (f64, f64, f64, f64) {
    use rop::brute::BruteModel;
    let mean_fixed = rop::brute::mean_attempts(BruteModel::Fixed, n_functions, trials, 0x5eed);
    let mean_rerand =
        rop::brute::mean_attempts(BruteModel::Rerandomized, n_functions, trials, 0x5eed);
    let n_perms = mavr::math::factorial_f64(n_functions as u64);
    (
        mean_fixed,
        mavr::math::expected_attempts_fixed(n_perms),
        mean_rerand,
        mavr::math::expected_attempts_rerandomized(n_perms),
    )
}

/// **§VIII-B entropy** — bits of permutation entropy per application.
pub fn entropy() -> Vec<Row> {
    apps::all_paper_apps()
        .iter()
        .map(|a| Row {
            app: a.name.to_string(),
            values: vec![mavr::math::entropy_bits(a.functions as u64).round()],
        })
        .collect()
}

/// **§VI-B1 `--no-relax` ablation** on the tiny test app. The randomizer
/// refuses a relax-built (stock) image by default; forced past that check,
/// it breaks the firmware. Returns the refusal message and how many of
/// `trials` force-randomized images faulted or stopped heartbeating within
/// 2M cycles.
pub fn relax_ablation(trials: u64) -> (String, u64) {
    let img = build(&apps::tiny_test_app(), &BuildOptions::safe_stock())
        .expect("build")
        .image;
    let refusal = mavr::randomize(
        &img,
        &mut mavr::seeded_rng(1),
        &mavr::RandomizeOptions::default(),
    )
    .expect_err("a relax-built image is refused")
    .to_string();
    let forced = mavr::RandomizeOptions {
        ignore_relaxed_branches: true,
        ..Default::default()
    };
    let deaths = (0..trials)
        .filter(|&seed| {
            let r = mavr::randomize(&img, &mut mavr::seeded_rng(seed), &forced).expect("randomize");
            let mut m = avr_sim::Machine::new_atmega2560();
            m.load_flash(0, &r.image.bytes);
            let exit = m.run(2_000_000);
            !exit.is_healthy() || m.heartbeat.toggles().len() < 5
        })
        .count();
    (refusal, deaths as u64)
}

/// Outcome of the `-mno-call-prologues` ablation; see
/// [`call_prologue_ablation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPrologueAblation {
    /// Stock call sites (`call`/`jmp`/`rcall`/`rjmp`) that target the
    /// shared prologue/epilogue blobs: every caller leaks their location.
    pub blob_refs: usize,
    /// Gadget start addresses inside the blobs.
    pub blob_gadgets: usize,
    /// Register-restore gadgets (four or more pops) in the stock build.
    pub stock_restore_gadgets: usize,
    /// Register-restore gadgets in the MAVR-toolchain build.
    pub mavr_restore_gadgets: usize,
}

/// **§VI-B1 `-mno-call-prologues` ablation** on the tiny test app. The
/// stock toolchain's `__prologue_saves__`/`__epilogue_restores__` blobs
/// are reached from many call sites and host long pop runs that flow into
/// `ret`; the MAVR toolchain's per-function epilogues scatter the
/// equivalent gadgets across the whole image.
pub fn call_prologue_ablation() -> CallPrologueAblation {
    let spec = apps::tiny_test_app();
    let stock = build(&spec, &BuildOptions::safe_stock())
        .expect("build")
        .image;
    let mavr_img = build(&spec, &BuildOptions::safe_mavr())
        .expect("build")
        .image;
    let blobs: Vec<(u32, u32)> = ["__prologue_saves__", "__epilogue_restores__"]
        .iter()
        .map(|n| {
            let s = stock.symbol(n).expect("stock build has the blob");
            (s.addr, s.end())
        })
        .collect();
    let in_blobs = |byte: u32| blobs.iter().any(|&(a, e)| byte >= a && byte < e);
    let mut blob_refs = 0;
    let mut off = 0u32;
    while off + 1 < stock.text_end {
        let Some((insn, words)) = avr_core::decode::decode_at(&stock.bytes, off as usize) else {
            break;
        };
        let target = match insn {
            Insn::Call { k } | Insn::Jmp { k } => Some(k * 2),
            Insn::Rcall { k } | Insn::Rjmp { k } => {
                Some(off.wrapping_add(2).wrapping_add_signed(i32::from(k) * 2))
            }
            _ => None,
        };
        if target.is_some_and(in_blobs) {
            blob_refs += 1;
        }
        off += words * 2;
    }
    let opts = ScanOptions {
        max_insns: 24,
        dedup: false,
    };
    let restores = |gadgets: &[rop::Gadget]| {
        gadgets
            .iter()
            .filter(|g| {
                g.insns
                    .iter()
                    .filter(|i| matches!(i, Insn::Pop { .. }))
                    .count()
                    >= 4
            })
            .count()
    };
    let stock_gadgets = scanner::scan(&stock, &opts);
    CallPrologueAblation {
        blob_refs,
        blob_gadgets: stock_gadgets.iter().filter(|g| in_blobs(g.addr)).count(),
        stock_restore_gadgets: restores(&stock_gadgets),
        mavr_restore_gadgets: restores(&scanner::scan(&mavr_img, &opts)),
    }
}

/// **Activity counters** — instructions retired, interrupts, UART traffic,
/// and flight-recorder events emitted per application over `cycles`
/// simulated cycles.
///
/// Apps fly on a fully provisioned MAVR board, so each row includes the
/// master's boot/randomize/program lifecycle events. A container that
/// exceeds the prototype's 256 KiB external flash (image + symbol
/// directives — SynthCopter) runs the application processor bare instead;
/// a healthy bare flight emits no events, which is the point: the recorder
/// only speaks on lifecycle and failure paths.
///
/// Telemetry runs through a [`telemetry::NullRecorder`]: every emission is
/// counted but immediately discarded, the configuration whose overhead is
/// measured (and shown to be ~0) by `tables -- bench-telemetry`.
pub fn counters(cycles: u64) -> Vec<Row> {
    use telemetry::{NullRecorder, Telemetry};
    let mut builds = vec![build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap()];
    builds.extend(paper_builds(&BuildOptions::safe_mavr()));
    builds
        .iter()
        .map(|fw| {
            let tele = Telemetry::new(NullRecorder::default());
            let c = match MavrBoard::provision_with(
                &fw.image,
                1,
                RandomizationPolicy::default(),
                tele.clone(),
            ) {
                Ok(mut board) => {
                    board.run(cycles).expect("healthy flight");
                    board.app.machine.counters()
                }
                Err(_) => {
                    // Container too large for the prototype chip: bare run.
                    let mut m = avr_sim::Machine::new_atmega2560();
                    m.telemetry = tele.clone();
                    m.load_flash(0, &fw.image.bytes);
                    m.run(cycles);
                    m.counters()
                }
            };
            Row {
                app: fw.spec.name.to_string(),
                values: vec![
                    c.insns_retired as f64,
                    c.interrupts_taken as f64,
                    c.uart_tx_bytes as f64,
                    tele.events_emitted() as f64,
                ],
            }
        })
        .collect()
}

/// Unit of simulated-cycle throughput metrics.
const CYCLES_PER_S: &str = "cycles/s";

/// Repetitions of each timed point in the drivers whose points are whole
/// campaigns: at least three in a full run, so every timed metric has
/// quartiles; one in a CI-smoke run.
fn campaign_reps(quick: bool) -> usize {
    if quick {
        1
    } else {
        3
    }
}

/// Measure simulator throughput (simulated cycles per second of host time)
/// on `run_1M_cycles/tiny_firmware` across the three-tier engine chain:
/// decode-every-fetch (`uncached`), the predecode cache + fast run loop
/// (`predecoded`), and block-fused superinstruction dispatch
/// (`block_fused`, the default). `quick` = fewer samples, for CI smoke.
///
/// The three legs are interleaved round-robin (one sample of each per
/// round), so slow load drift on a shared machine cannot land on one leg
/// alone, and each round's speedups are taken within the round.
pub fn simulator_throughput(quick: bool) -> BenchRecord {
    const CYCLES: u64 = 1_000_000;
    let mut rec = BenchRecord::new("run_1M_cycles/tiny_firmware", quick);
    let samples = if quick { 3 } else { 11 };
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    let rate = |predecode: bool, fusion: bool| -> f64 {
        let mut m = avr_sim::Machine::new_atmega2560();
        m.set_predecode(predecode);
        m.set_block_fusion(fusion);
        m.load_flash(0, &fw.image.bytes);
        let t0 = std::time::Instant::now();
        m.run(CYCLES);
        let dt = t0.elapsed().as_secs_f64();
        assert!(m.fault().is_none(), "bench firmware crashed");
        CYCLES as f64 / dt
    };
    for _ in 0..samples {
        let [uncached, predecoded, fused] = [(false, false), (true, false), (true, true)]
            .map(|(predecode, fusion)| rate(predecode, fusion));
        rec.sample("uncached", CYCLES_PER_S, uncached);
        rec.sample("predecoded", CYCLES_PER_S, predecoded);
        rec.sample("block_fused", CYCLES_PER_S, fused);
        rec.sample("predecode_speedup", "x", predecoded / uncached);
        rec.sample("fusion_speedup", "x", fused / predecoded);
        rec.sample("total_speedup", "x", fused / uncached);
    }
    rec
}

/// Measure fleet-campaign throughput (simulated board-cycles per second):
/// a benign campaign (no attack, zero loss) at 1, 8 and 32 boards, timed
/// end to end — firmware build, N provisions (container read, randomize,
/// program), and the flight itself over the channel plumbing. `quick`
/// shortens the flight for CI smoke runs.
pub fn fleet_throughput(quick: bool) -> BenchRecord {
    use mavr_fleet::{run_campaign, CampaignConfig, Scenario};
    let mut rec = BenchRecord::new("fleet_campaign/benign", quick);
    let (warmup, flight) = if quick {
        (100_000, 400_000)
    } else {
        (300_000, 1_700_000)
    };
    for _ in 0..campaign_reps(quick) {
        for boards in [1usize, 8, 32] {
            let cfg = CampaignConfig {
                boards,
                scenarios: vec![Scenario::Benign],
                loss_levels: vec![0.0],
                warmup_cycles: warmup,
                attack_cycles: flight,
                ..CampaignConfig::default()
            };
            let t0 = std::time::Instant::now();
            let report = run_campaign(&cfg);
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(report.outcomes.len(), boards, "every board reported");
            let cycles: u64 = report.outcomes.iter().map(|o| o.final_cycle).sum();
            rec.sample(
                &format!("boards_{boards}.cycles_per_s"),
                CYCLES_PER_S,
                cycles as f64 / secs,
            );
        }
    }
    rec
}

/// Process peak resident set (`VmHWM`) in MiB, from `/proc/self/status`;
/// 0.0 where the file does not exist (non-Linux).
pub fn peak_rss_mb() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// A fresh campaign session over `store` with telemetry off.
fn bench_session(store: mavr_campaignd::CampaignStore) -> mavr_campaignd::CampaignSession {
    mavr_campaignd::CampaignSession::new(
        store,
        telemetry::Telemetry::off(),
        std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
    )
    .expect("session")
}

/// An empty scratch directory for one driver's campaign stores.
fn scratch_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir()
        .join(tag)
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");
    root
}

/// Measure the campaign service end to end — shard execution, per-board
/// JSONL streaming, checkpoint flushes, and the two-pass report merge —
/// at campaign sizes spanning two orders of magnitude, recording peak RSS
/// after each size. Because shard outcomes stream to disk and metrics
/// fold through the registry merge, the peak-RSS metrics stay flat as the
/// board count grows 100x: the service's memory is O(shard), not
/// O(campaign); `rss_growth` is largest over smallest. Sizes run
/// smallest-first, each size's repetitions back to back, because `VmHWM`
/// is monotonic — a flat set therefore proves the big campaigns allocated
/// no more than the small ones. `quick` caps the largest campaign for CI
/// smoke runs.
pub fn campaignd_memory(quick: bool) -> BenchRecord {
    use mavr_campaignd::{merge_store, CampaignSpec, CampaignStore};

    let mut rec = BenchRecord::new("campaignd/sharded_benign", quick);
    let sizes: &[usize] = if quick {
        &[100, 1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let root = scratch_root("mavr-campaignd-bench");
    for &boards in sizes {
        for rep in 0..campaign_reps(quick) {
            let mut spec = CampaignSpec::named(&format!("bench-{boards}-{rep}"));
            spec.boards = boards;
            spec.scenarios = vec![mavr_fleet::Scenario::Benign];
            // Short flights: the point is service overhead and memory,
            // not simulated-cycle throughput (`bench-fleet` covers that).
            spec.warmup_cycles = 40_000;
            spec.attack_cycles = 60_000;
            spec.shard_jobs = 256;
            let session = bench_session(CampaignStore::create(&root, spec).expect("create"));
            let t0 = std::time::Instant::now();
            let outcome = session.run(None, None).expect("run campaign");
            assert!(outcome.complete, "bench campaign ran to completion");
            merge_store(&session.store).expect("merge campaign");
            let secs = t0.elapsed().as_secs_f64();
            rec.sample(
                &format!("boards_{boards}.jobs_per_s"),
                "1/s",
                boards as f64 / secs,
            );
            let _ = std::fs::remove_dir_all(&session.store.dir);
        }
        rec.sample(
            &format!("boards_{boards}.peak_rss_mb"),
            "MiB",
            peak_rss_mb(),
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    let rss = |boards: usize| rec.samples(&format!("boards_{boards}.peak_rss_mb"))[0];
    let (first, last) = (rss(sizes[0]), rss(sizes[sizes.len() - 1]));
    rec.sample(
        "rss_growth",
        "x",
        if first > 0.0 { last / first } else { 1.0 },
    );
    rec
}

/// Measure the campaign service's supervision machinery end to end.
///
/// Two sweeps, both fully deterministic (seeded fault draws, seeded
/// sabotage fates), repeated for timing spread:
///
/// - **Recovery** (`fault_<rate>.*`): run half a campaign, drop the
///   session cold (the in-process stand-in for SIGKILL — the on-disk
///   state is identical), then time store reopen + session rebuild + a
///   one-job resume slice. That is the service's MTTR: how long a
///   supervisor waits between "process gone" and "campaign making
///   checkpointed progress again". Swept across injected disk-fault
///   rates; the first repetition drives each campaign to completion to
///   count abandoned checkpoint flushes and resume slices. `worst_mttr_ms`
///   is each repetition's slowest recovery.
/// - **Quarantine** (`panic_<rate>.*`): sweep the seeded sabotage panic
///   rate through an otherwise identical campaign and time run + merge.
///   Poison jobs cost their retries (bounded attempts with millisecond
///   backoff) and a quarantine-ledger rebuild at merge;
///   `quarantine_overhead` is each repetition's top rate over its clean
///   baseline.
///
/// `quick` shrinks the campaigns and drops a sweep point for CI smoke.
pub fn robust_service(quick: bool) -> BenchRecord {
    use mavr_campaignd::{merge_store, CampaignSpec, CampaignStore, FaultFs};
    use mavr_fleet::JobChaos;

    let mut rec = BenchRecord::new("campaignd/robust_service", quick);
    let boards = if quick { 16 } else { 64 };
    let root = scratch_root("mavr-robust-bench");
    let spec_named = |name: &str| {
        let mut spec = CampaignSpec::named(name);
        spec.boards = boards;
        spec.scenarios = vec![mavr_fleet::Scenario::Benign];
        spec.warmup_cycles = 40_000;
        spec.attack_cycles = 60_000;
        spec.shard_jobs = 4;
        spec
    };
    let fault_rates: &[f64] = if quick {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.25, 0.5]
    };
    let panic_rates: &[f64] = if quick {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.05, 0.1]
    };

    for rep in 0..campaign_reps(quick) {
        let mut worst_mttr_ms = 0.0f64;
        for &rate in fault_rates {
            let name = format!("mttr-{}-{rep}", (rate * 100.0) as u32);
            let faults = if rate == 0.0 {
                FaultFs::none()
            } else {
                FaultFs::seeded(0x0DD5_EED0 + (rate * 100.0) as u64, rate)
            };
            let store = CampaignStore::create(&root, spec_named(&name))
                .expect("create campaign")
                .with_faults(faults.clone());
            // The doomed first process: half the campaign, then gone. A
            // dropped session and a SIGKILLed one leave the same disk.
            let doomed = bench_session(store);
            doomed.run(Some(boards / 2), None).expect("partial run");
            drop(doomed);

            let t0 = std::time::Instant::now();
            let store = CampaignStore::open(&root.join(&name))
                .expect("reopen campaign")
                .with_faults(faults);
            let resumed = bench_session(store);
            resumed.run(Some(1), None).expect("one-job resume slice");
            let mttr_ms = t0.elapsed().as_secs_f64() * 1e3;
            rec.sample(&format!("fault_{rate}.mttr_ms"), "ms", mttr_ms);
            worst_mttr_ms = worst_mttr_ms.max(mttr_ms);

            if rep == 0 {
                // Drive to completion under the same fault rate: skipped
                // checkpoints re-run their slices, so this converges.
                let mut slices = 1u64;
                loop {
                    slices += 1;
                    if resumed.run(None, None).expect("resume slice").complete {
                        break;
                    }
                    assert!(slices < 10_000, "campaign failed to converge under faults");
                }
                let skipped = resumed.checkpoints_skipped() as f64;
                rec.sample(
                    &format!("fault_{rate}.checkpoints_skipped"),
                    "count",
                    skipped,
                );
                rec.sample(
                    &format!("fault_{rate}.slices_to_complete"),
                    "count",
                    slices as f64,
                );
            }
        }
        rec.sample("worst_mttr_ms", "ms", worst_mttr_ms);

        // Poison jobs panic on purpose (caught by the supervisor); silence
        // the default hook so the sweep times supervision, not stderr.
        let prior_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut secs_by_rate = Vec::new();
        for &rate in panic_rates {
            let mut spec = spec_named(&format!("poison-{}-{rep}", (rate * 1000.0) as u32));
            spec.sabotage = JobChaos {
                panic_rate: rate,
                hang_rate: 0.0,
                flaky_rate: 0.0,
                seed: 0x0BAD_5EED,
            };
            let sess = bench_session(CampaignStore::create(&root, spec).expect("create"));
            let t0 = std::time::Instant::now();
            let out = sess.run(None, None).expect("poison campaign");
            assert!(out.complete, "a poisoned campaign still completes");
            merge_store(&sess.store).expect("merge campaign");
            let secs = t0.elapsed().as_secs_f64();
            rec.sample(&format!("panic_{rate}.s"), "s", secs);
            secs_by_rate.push(secs);
            if rep == 0 {
                let quarantined = std::fs::read_to_string(sess.store.quarantine_path())
                    .map_or(0, |text| text.lines().count());
                rec.sample(
                    &format!("panic_{rate}.quarantined"),
                    "count",
                    quarantined as f64,
                );
            }
        }
        std::panic::set_hook(prior_hook);
        rec.sample(
            "quarantine_overhead",
            "x",
            secs_by_rate[secs_by_rate.len() - 1] / secs_by_rate[0],
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    rec
}

/// Sweep fault-injection rates through a V1 (loud crash) fleet campaign
/// and record what the hardened recovery pipeline does with them, per
/// fault rate summed over the cell's boards: reflash retries, degraded
/// boots, bricks, recoveries and mean cycles from injection to detection
/// (`mttr_cycles`, absent where no board recovered), plus `mttr_inflation`
/// — the highest rate's MTTR over the clean baseline's. Whether a crashed
/// ROP chain actually silences the heartbeat is layout-dependent (wild
/// execution can keep interrupts alive), so the campaign seed is chosen
/// for a fleet where most baseline boards detect — that keeps the MTTR
/// defined, and the engine seed-matches boards across the fault axis, so
/// the comparison is the *same* fleet under different chaos. Fully
/// deterministic (it is a fleet campaign), so every metric is one sample;
/// `quick` shrinks the fleet for CI smoke runs.
pub fn chaos_resilience(quick: bool) -> BenchRecord {
    use mavr_fleet::{run_campaign, CampaignConfig, Scenario};
    let mut rec = BenchRecord::new("chaos_resilience/v1-crash", quick);
    let cfg = CampaignConfig {
        seed: 6,
        boards: if quick { 2 } else { 8 },
        scenarios: vec![Scenario::V1Crash],
        loss_levels: vec![0.0],
        fault_levels: vec![0.0, 0.00005, 0.0001, 0.0002, 0.0005],
        attack_cycles: if quick { 3_000_000 } else { 6_000_000 },
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    for c in &report.cells {
        let f = c.fault;
        for (name, count) in [
            ("boards", c.boards as u64),
            ("reflash_retries", c.reflash_retries),
            ("degraded_boots", c.degraded_boots),
            ("boards_bricked", c.boards_bricked as u64),
            ("boards_recovered", c.boards_recovered as u64),
        ] {
            rec.sample(&format!("fault_{f}.{name}"), "count", count as f64);
        }
        if let Some(mttr) = c.mean_time_to_recovery() {
            rec.sample(&format!("fault_{f}.mttr_cycles"), "cycles", mttr);
        }
    }
    let base = report.cells.first().and_then(|c| c.mean_time_to_recovery());
    let top = report
        .cells
        .iter()
        .rev()
        .find_map(|c| c.mean_time_to_recovery());
    if let (Some(base), Some(top)) = (base, top) {
        rec.sample("mttr_inflation", "x", top / base);
    }
    rec
}

/// A reference registry shaped like one worker shard of a real campaign:
/// `cells` label combinations, each with the fold's counters, a latency
/// sketch and a packet histogram.
fn reference_registry(cells: usize, seed: u64) -> telemetry::metrics::MetricsRegistry {
    let mut reg = telemetry::metrics::MetricsRegistry::new();
    let mut x = seed;
    let mut next = || {
        // splitmix64, the workspace's standard seed deriver.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for cell in 0..cells {
        let loss = format!("{:.4}", cell as f64 * 0.01);
        let labels = [("scenario", "bench"), ("loss", loss.as_str())];
        reg.add_counter("campaign_boards_total", &labels, 8);
        reg.add_counter("recoveries_total", &labels, next() % 8);
        reg.add_counter("sim_cycles_total", &labels, next() % 1_000_000);
        for _ in 0..64 {
            reg.observe_sketch(
                "campaign_detection_latency_cycles",
                &labels,
                next() % 2_000_000,
            );
            reg.observe_histogram("campaign_packets_per_board", &labels, next() % 4096);
        }
    }
    reg
}

/// Measure the observability plane: (a) simulator throughput with
/// telemetry off vs a `NullRecorder` attached, on the flying tiny
/// firmware, interleaved per round so `null_recorder_overhead_pct` is
/// taken within a round; (b) raw sketch-record and labeled
/// histogram-record rates; (c) shard-merge and exposition rates on a
/// campaign-shaped reference registry of `series` series. `quick`
/// shortens everything for CI smoke.
pub fn telemetry_overhead(quick: bool) -> BenchRecord {
    use std::hint::black_box;
    use telemetry::metrics::{MetricsRegistry, QuantileSketch};
    use telemetry::{NullRecorder, Telemetry};

    let mut rec = BenchRecord::new("telemetry_overhead/tiny_firmware", quick);
    let samples = if quick { 3 } else { 9 };
    let sim_cycles: u64 = if quick { 300_000 } else { 1_000_000 };
    let ops: u64 = if quick { 200_000 } else { 2_000_000 };
    let rounds: u64 = if quick { 200 } else { 2_000 };

    // Seconds one call of `f` takes; `f` returns a value kept live.
    let secs = |f: &mut dyn FnMut() -> u64| -> f64 {
        let t0 = std::time::Instant::now();
        black_box(f());
        t0.elapsed().as_secs_f64()
    };
    // `count` operations per second of `f`, once per sample.
    let rate = |rec: &mut BenchRecord, name: &str, count: u64, f: &mut dyn FnMut() -> u64| {
        for _ in 0..samples {
            rec.sample(name, "1/s", count as f64 / secs(f));
        }
    };

    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).expect("build");
    let fly = |telemetry_on: bool| {
        let mut m = avr_sim::Machine::new_atmega2560();
        if telemetry_on {
            m.telemetry = Telemetry::new(NullRecorder::default());
        }
        m.load_flash(0, &fw.image.bytes);
        m.run(sim_cycles);
        assert!(m.fault().is_none(), "bench firmware crashed");
        m.cycles()
    };
    for _ in 0..samples {
        let off = sim_cycles as f64 / secs(&mut || fly(false));
        let null = sim_cycles as f64 / secs(&mut || fly(true));
        rec.sample("off_cycles_per_s", CYCLES_PER_S, off);
        rec.sample("null_recorder_cycles_per_s", CYCLES_PER_S, null);
        rec.sample(
            "null_recorder_overhead_pct",
            "%",
            100.0 * (off / null - 1.0),
        );
    }

    rate(&mut rec, "sketch_records_per_s", ops, &mut || {
        let mut s = QuantileSketch::new();
        for v in 0..ops {
            // Cheap LCG so the timed loop is the record call, not the RNG.
            s.record(v.wrapping_mul(6364136223846793005).wrapping_add(1) % 4_000_000);
        }
        s.count()
    });
    rate(&mut rec, "histogram_records_per_s", ops, &mut || {
        let mut reg = MetricsRegistry::new();
        let labels = [("scenario", "bench"), ("loss", "0.0000")];
        for v in 0..ops {
            reg.observe_histogram("campaign_packets_per_board", &labels, v % 4096);
        }
        reg.len() as u64
    });

    let shard = reference_registry(12, 0x2015);
    rec.sample("series", "count", shard.len() as f64);
    rate(&mut rec, "merges_per_s", rounds, &mut || {
        let mut acc = MetricsRegistry::new();
        for _ in 0..rounds {
            acc.merge(black_box(&shard));
        }
        acc.len() as u64
    });
    rate(&mut rec, "prometheus_per_s", rounds, &mut || {
        (0..rounds)
            .map(|_| black_box(shard.to_prometheus()).len() as u64)
            .sum()
    });
    rate(&mut rec, "jsonl_per_s", rounds, &mut || {
        (0..rounds)
            .map(|_| black_box(shard.to_jsonl()).len() as u64)
            .sum()
    });
    rec
}

/// **Fig. 2** — encode a minimum packet and describe its structure.
pub fn fig2() -> String {
    let mut gcs = GroundStation::new();
    let wire = gcs.heartbeat();
    let mut out = String::from("MAVLink packet structure (Fig. 2), minimum 17-byte HEARTBEAT:\n");
    let fields = [
        ("magic", 1usize),
        ("payload length", 1),
        ("sequence", 1),
        ("sender system id", 1),
        ("sender component id", 1),
        ("message id", 1),
        ("payload", wire.len() - 8),
        ("checksum", 2),
    ];
    let mut off = 0;
    for (name, len) in fields {
        let bytes: Vec<String> = wire[off..off + len]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        out.push_str(&format!("  {name:<22} {}\n", bytes.join(" ")));
        off += len;
    }
    out
}

/// **Figs. 4–5** — disassemble the classified gadgets from a target image,
/// in the figures' listing format.
pub fn gadget_listings(image: &FirmwareImage) -> String {
    let map = scanner::classify(image).expect("gadgets present");
    let stk = avr_core::disasm::disassemble(&image.bytes, map.stk_move, 14);
    let wm = avr_core::disasm::disassemble(&image.bytes, map.write_mem_std, 40);
    let mut out = String::from("Gadget 1: stk_move (Fig. 4)\n");
    for line in stk.iter().take(7) {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str("Gadget 2: write_mem_gadget (Fig. 5)\n");
    for line in wm.iter().take(20) {
        out.push_str(&format!("  {line}\n"));
    }
    out
}

/// One stack snapshot for Fig. 6.
#[derive(Debug, Clone)]
pub struct StackSnapshot {
    /// Stage label from the figure.
    pub label: &'static str,
    /// SP at snapshot time.
    pub sp: u16,
    /// Bytes from `base` upward.
    pub base: u16,
    /// The raw bytes.
    pub bytes: Vec<u8>,
}

impl StackSnapshot {
    /// Hexdump in the figure's style.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("({}) SP={:#06x}\n", self.label, self.sp);
        for (i, chunk) in self.bytes.chunks(8).enumerate() {
            write!(out, "  {:#06x}:", self.base as usize + i * 8).unwrap();
            for b in chunk {
                write!(out, " 0x{b:02X}").unwrap();
            }
            out.push('\n');
        }
        out
    }
}

/// **Fig. 6** — run the V2 stealthy attack with instrumentation and capture
/// the stack at each stage of the figure.
pub fn fig6(spec: &AppSpec) -> Vec<StackSnapshot> {
    let fw = build(spec, &BuildOptions::vulnerable_mavr()).expect("build");
    let ctx = AttackContext::discover(&fw.image).expect("discover");
    let payload = ctx
        .v2_payload(&[(l::GYRO + 3, [0x11, 0x22, 0x33])])
        .expect("payload");

    let mut m = avr_sim::Machine::new_atmega2560();
    m.load_flash(0, &fw.image.bytes);
    m.run(200_000);

    let frame_base = ctx.y_frame;
    let window = 48usize;
    // Show the top of the frame: locals tail, saved regs, return address.
    let base = frame_base + synth_firmware::layout::HANDLER_FRAME - 24;
    let snap = |m: &avr_sim::Machine, label| StackSnapshot {
        label,
        sp: m.sp(),
        base,
        bytes: m.peek_range(base, window),
    };

    let mut snaps = Vec::new();
    let handler = fw.image.symbol("handle_param_set").unwrap().addr;
    m.add_breakpoint(handler);
    let mut gcs = GroundStation::new();
    m.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
    m.run(4_000_000);
    snaps.push(snap(&m, "i: clean stack at handler entry"));
    m.remove_breakpoint(handler);

    // Ride the attack: breakpoints on the two gadgets.
    m.add_breakpoint(ctx.gadgets.stk_move);
    m.run(4_000_000);
    snaps.push(snap(
        &m,
        "ii: dirty stack after payload injection (at stk_move)",
    ));
    m.remove_breakpoint(ctx.gadgets.stk_move);
    m.add_breakpoint(ctx.gadgets.write_mem_pop);
    m.run(100_000);
    snaps.push(snap(&m, "iii: SP moved into the buffer (gadget 1 done)"));
    m.remove_breakpoint(ctx.gadgets.write_mem_pop);
    m.add_breakpoint(ctx.gadgets.write_mem_std);
    m.run(100_000);
    snaps.push(snap(&m, "iv: payload write about to execute"));
    m.run(100_000);
    snaps.push(snap(&m, "v: stack before frame repair (gadget 2)"));
    m.remove_breakpoint(ctx.gadgets.write_mem_std);
    m.add_breakpoint(ctx.gadgets.stk_move);
    m.run(100_000);
    snaps.push(snap(&m, "vi: moving SP back to the original frame"));
    m.remove_breakpoint(ctx.gadgets.stk_move);
    // Return point: the original return address inside mavlink_rx_poll.
    let ret = (u32::from(ctx.orig_ret[0]) << 16)
        | (u32::from(ctx.orig_ret[1]) << 8)
        | u32::from(ctx.orig_ret[2]);
    m.add_breakpoint(ret * 2);
    m.run(100_000);
    snaps.push(snap(&m, "vii: repaired stack, execution continues"));
    snaps
}

/// Measure what closing the physical loop costs: the same provisioned
/// SynthQuadFlight board flown bare (`bare_fused`: block-fused fast path,
/// ADC floating) versus inside the [`mavr_world::FlightHarness`]
/// (`coupled_fused`: sensors sampled into the ADC and the rigid body
/// stepped every 16 000 cycles). `physics_overhead_pct` is each round's
/// bare over coupled throughput; its budget is <15%. `quick` = fewer
/// samples and steps, for CI smoke.
///
/// Both legs fly the identical provisioned board; only the coupling
/// differs. Legs are interleaved round-robin, so load drift on a shared
/// machine cannot land on one leg alone.
pub fn world_throughput(quick: bool) -> BenchRecord {
    use mavr_world::{FlightHarness, Scenario, World, CYCLES_PER_STEP};

    let mut rec = BenchRecord::new("closed_loop/synth_quad_flight", quick);
    let steps: u64 = if quick { 125 } else { 500 };
    let samples = if quick { 3 } else { 9 };
    let cycles = steps * CYCLES_PER_STEP;
    let fw = build(&apps::synth_quad_flight(), &BuildOptions::safe_mavr()).unwrap();
    let board = || MavrBoard::provision(&fw.image, 0xf17e, RandomizationPolicy::default()).unwrap();

    let time_bare = || {
        let mut b = board();
        let t0 = std::time::Instant::now();
        b.run(cycles).unwrap();
        t0.elapsed().as_secs_f64()
    };
    let time_coupled = || {
        let mut h = FlightHarness::new(board(), World::new(Scenario::Hover, 0x57e9));
        let t0 = std::time::Instant::now();
        h.run_steps(steps).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert!(!h.world.on_ground(), "bench flight must stay airborne");
        dt
    };

    for _ in 0..samples {
        let bare = cycles as f64 / time_bare();
        let coupled_secs = time_coupled();
        let coupled = cycles as f64 / coupled_secs;
        rec.sample("bare_fused", CYCLES_PER_S, bare);
        rec.sample("coupled_fused", CYCLES_PER_S, coupled);
        rec.sample("world_steps_per_s", "1/s", steps as f64 / coupled_secs);
        rec.sample("physics_overhead_pct", "%", (bare / coupled - 1.0) * 100.0);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shows_min_packet() {
        let s = fig2();
        assert!(s.contains("magic"));
        assert!(s.contains("fe"));
        assert!(s.contains("checksum"));
    }

    #[test]
    fn effectiveness_small_scale() {
        let e = effectiveness(&apps::tiny_test_app(), 3);
        assert!(e.gadgets_unique > 50);
        assert_eq!(e.stock_successes, 1, "attack works on unprotected image");
        assert_eq!(
            e.randomized_successes, 0,
            "attack never works when randomized"
        );
    }

    #[test]
    fn call_prologues_leak_and_concentrate_the_blob() {
        let a = call_prologue_ablation();
        assert!(
            a.blob_refs > 10,
            "the blob must be referenced from many call sites: {a:?}"
        );
        assert!(
            a.mavr_restore_gadgets > a.stock_restore_gadgets,
            "per-function epilogues scatter the gadgets: {a:?}"
        );
    }

    #[test]
    fn bruteforce_matches_theory() {
        let (mf, ef, mr, er) = bruteforce(4, 4_000);
        assert!((mf - ef).abs() / ef < 0.1);
        assert!((mr - er).abs() / er < 0.1);
    }

    #[test]
    fn fig6_progression_shows_repair() {
        let snaps = fig6(&apps::tiny_test_app());
        assert_eq!(snaps.len(), 7);
        // Window base is y_frame + FRAME - 24, so the 3-byte return address
        // (at y_frame + FRAME + 4) sits at offsets 28..31.
        let ret = 28..31;
        let i = &snaps[0].bytes[ret.clone()];
        let vii = &snaps[6].bytes[ret.clone()];
        assert_eq!(i, vii, "repaired return address must match the original");
        // Stage ii: the return address is smashed (points at stk_move).
        assert_ne!(&snaps[1].bytes[ret.clone()], i);
        // The saved registers (offsets 25..28) are repaired too: stages v
        // and vii hold the values the prologue pushed (stage ii holds the
        // attacker's pivot bytes instead).
        assert_ne!(&snaps[1].bytes[25..28], &snaps[6].bytes[25..28]);
        for s in &snaps {
            assert!(!s.dump().is_empty());
        }
    }
}
