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

#![forbid(unsafe_code)]

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

/// Measured simulator throughput (simulated cycles per second of host
/// time) on the `run_1M_cycles/tiny_firmware` workload, across the
/// three-tier engine chain: decode-every-fetch (`uncached`), the
/// predecode cache + fast run loop (`predecoded`), and block-fused
/// superinstruction dispatch (`fused` — the default configuration). See
/// [`simulator_throughput`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatorThroughput {
    /// Cycles/sec with `Machine::set_predecode(false)`.
    pub uncached_cycles_per_sec: f64,
    /// Cycles/sec with the predecode cache on but
    /// `Machine::set_block_fusion(false)`.
    pub predecoded_cycles_per_sec: f64,
    /// Cycles/sec with block fusion on (the default).
    pub fused_cycles_per_sec: f64,
    /// Samples per configuration the medians were taken over.
    pub samples: usize,
}

impl SimulatorThroughput {
    /// `predecoded / uncached` — the factor the predecode cache buys.
    pub fn predecode_speedup(&self) -> f64 {
        self.predecoded_cycles_per_sec / self.uncached_cycles_per_sec
    }

    /// `fused / predecoded` — the factor block fusion buys on top.
    pub fn fusion_speedup(&self) -> f64 {
        self.fused_cycles_per_sec / self.predecoded_cycles_per_sec
    }

    /// `fused / uncached` — the whole chain.
    pub fn total_speedup(&self) -> f64 {
        self.fused_cycles_per_sec / self.uncached_cycles_per_sec
    }

    /// The `BENCH_simulator.json` payload (hand-rolled; the workspace has
    /// no JSON dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"run_1M_cycles/tiny_firmware\",\n  \"unit\": \"cycles_per_sec\",\n  \"samples\": {},\n  \"uncached\": {:.0},\n  \"predecoded\": {:.0},\n  \"block_fused\": {:.0},\n  \"predecode_speedup\": {:.2},\n  \"fusion_speedup\": {:.2},\n  \"total_speedup\": {:.2}\n}}\n",
            self.samples,
            self.uncached_cycles_per_sec,
            self.predecoded_cycles_per_sec,
            self.fused_cycles_per_sec,
            self.predecode_speedup(),
            self.fusion_speedup(),
            self.total_speedup()
        )
    }
}

/// Measure simulator throughput across the engine chain — uncached,
/// predecoded, block-fused (`quick` = fewer samples, for CI smoke).
///
/// The three legs are interleaved round-robin (one sample of each per
/// round) so slow load drift on a shared machine cannot land entirely on
/// one leg and skew the ratios, and each leg reports its *fastest*
/// sample: external noise only ever adds time, so the minimum is the
/// robust estimator of the engine's actual speed.
pub fn simulator_throughput(quick: bool) -> SimulatorThroughput {
    const CYCLES: u64 = 1_000_000;
    let samples = if quick { 3 } else { 11 };
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    let time_leg = |predecode: bool, fusion: bool| -> f64 {
        let mut m = avr_sim::Machine::new_atmega2560();
        m.set_predecode(predecode);
        m.set_block_fusion(fusion);
        m.load_flash(0, &fw.image.bytes);
        let t0 = std::time::Instant::now();
        m.run(CYCLES);
        let dt = t0.elapsed().as_secs_f64();
        assert!(m.fault().is_none(), "bench firmware crashed");
        dt
    };
    let mut best = [f64::INFINITY; 3];
    for _ in 0..samples {
        for (i, (predecode, fusion)) in [(false, false), (true, false), (true, true)]
            .iter()
            .enumerate()
        {
            best[i] = best[i].min(time_leg(*predecode, *fusion));
        }
    }
    SimulatorThroughput {
        uncached_cycles_per_sec: CYCLES as f64 / best[0],
        predecoded_cycles_per_sec: CYCLES as f64 / best[1],
        fused_cycles_per_sec: CYCLES as f64 / best[2],
        samples,
    }
}

/// One fleet-size point of the campaign-throughput curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetBenchRow {
    /// Boards in the campaign.
    pub boards: usize,
    /// Simulated application cycles summed over every board.
    pub total_cycles: u64,
    /// Wall-clock seconds for the whole campaign (build + provision + fly).
    pub secs: f64,
}

impl FleetBenchRow {
    /// Aggregate simulated cycles per wall-clock second — the campaign
    /// engine's headline number (`boards · cycles / sec`).
    pub fn cycles_per_sec(&self) -> f64 {
        self.total_cycles as f64 / self.secs
    }
}

/// Measured campaign throughput at several fleet sizes. See
/// [`fleet_throughput`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetThroughput {
    /// One row per fleet size, smallest first.
    pub rows: Vec<FleetBenchRow>,
    /// Cycles each board flies (warmup + attack window).
    pub cycles_per_board: u64,
}

impl FleetThroughput {
    /// The `BENCH_fleet.json` payload (hand-rolled; the workspace has no
    /// JSON dependency).
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"boards\": {}, \"total_cycles\": {}, \"secs\": {:.3}, \
                     \"boards_cycles_per_sec\": {:.0}}}",
                    r.boards,
                    r.total_cycles,
                    r.secs,
                    r.cycles_per_sec()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"bench\": \"fleet_campaign/benign\",\n  \"unit\": \"boards_cycles_per_sec\",\n  \"cycles_per_board\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.cycles_per_board, rows
        )
    }
}

/// Measure fleet-campaign throughput: a benign campaign (no attack, zero
/// loss) at 1, 8 and 32 boards, timed end to end — firmware build, N
/// provisions (container read + randomize + program), and the flight
/// itself over the channel/router plumbing. `quick` shortens the flight
/// for CI smoke runs.
pub fn fleet_throughput(quick: bool) -> FleetThroughput {
    use mavr_fleet::{run_campaign, CampaignConfig, Scenario};
    let (warmup, flight) = if quick {
        (100_000, 400_000)
    } else {
        (300_000, 1_700_000)
    };
    let rows = [1usize, 8, 32]
        .iter()
        .map(|&boards| {
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
            FleetBenchRow {
                boards,
                total_cycles: report.outcomes.iter().map(|o| o.final_cycle).sum(),
                secs,
            }
        })
        .collect();
    FleetThroughput {
        rows,
        cycles_per_board: warmup + flight,
    }
}

/// One campaign-size point of the service's constant-memory curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignBenchRow {
    /// Boards (= jobs; one benign cell) in the campaign.
    pub boards: usize,
    /// Wall-clock seconds to run every shard and merge the report.
    pub secs: f64,
    /// Process peak RSS (`VmHWM`) after this campaign, in MiB. The
    /// constant-memory claim is that this column stays flat while the
    /// boards column grows 100x.
    pub peak_rss_mb: f64,
}

impl CampaignBenchRow {
    /// Jobs completed per wall-clock second, merge included.
    pub fn jobs_per_sec(&self) -> f64 {
        self.boards as f64 / self.secs
    }
}

/// Measured campaign-service cost at several campaign sizes. See
/// [`campaignd_memory`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignServiceBench {
    /// One row per campaign size, smallest first (peak RSS is monotonic,
    /// so a flat column means the big campaigns added nothing).
    pub rows: Vec<CampaignBenchRow>,
    /// Jobs per shard checkpoint.
    pub shard_jobs: u64,
    /// Cycles each board flies.
    pub cycles_per_board: u64,
}

impl CampaignServiceBench {
    /// Largest-over-smallest peak-RSS ratio — ~1.0 is the constant-memory
    /// claim (the job count grows 100x between those rows).
    pub fn rss_growth(&self) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(a), Some(b)) if a.peak_rss_mb > 0.0 => b.peak_rss_mb / a.peak_rss_mb,
            _ => 1.0,
        }
    }

    /// The `BENCH_campaignd.json` payload.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"boards\": {}, \"secs\": {:.3}, \"jobs_per_sec\": {:.1}, \
                     \"peak_rss_mb\": {:.1}}}",
                    r.boards,
                    r.secs,
                    r.jobs_per_sec(),
                    r.peak_rss_mb
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"bench\": \"campaignd/sharded_benign\",\n  \"unit\": \"jobs_per_sec\",\n  \
             \"shard_jobs\": {},\n  \"cycles_per_board\": {},\n  \"rss_growth\": {:.2},\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            self.shard_jobs,
            self.cycles_per_board,
            self.rss_growth(),
            rows
        )
    }
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

/// Measure the campaign service end to end — shard execution, per-board
/// JSONL streaming, checkpoint flushes, and the two-pass report merge —
/// at campaign sizes spanning two orders of magnitude, recording peak RSS
/// after each. Because shard outcomes stream to disk and metrics fold
/// through the registry merge, the peak-RSS column stays flat as the
/// board count grows 100x: the service's memory is O(shard), not
/// O(campaign). `quick` caps the largest campaign for CI smoke runs.
/// Sizes run smallest-first because `VmHWM` is monotonic — a flat column
/// therefore proves the big campaigns allocated no more than the small
/// ones.
pub fn campaignd_memory(quick: bool) -> CampaignServiceBench {
    use mavr_campaignd::{merge_store, CampaignSession, CampaignSpec, CampaignStore};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let sizes: &[usize] = if quick {
        &[100, 1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // Short flights: the point is service overhead and memory, not
    // simulated-cycle throughput (BENCH_fleet.json covers that).
    let (warmup, flight) = (40_000u64, 60_000u64);
    let shard_jobs = 256u64;
    let root = std::env::temp_dir()
        .join("mavr-campaignd-bench")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");

    let rows = sizes
        .iter()
        .map(|&boards| {
            let mut spec = CampaignSpec::named(&format!("bench-{boards}"));
            spec.boards = boards;
            spec.scenarios = vec![mavr_fleet::Scenario::Benign];
            spec.warmup_cycles = warmup;
            spec.attack_cycles = flight;
            spec.shard_jobs = shard_jobs;
            let store = CampaignStore::create(&root, spec).expect("create campaign");
            let session = CampaignSession::new(
                store,
                telemetry::Telemetry::off(),
                Arc::new(AtomicBool::new(false)),
            )
            .expect("session");
            let t0 = std::time::Instant::now();
            let outcome = session.run(None, None).expect("run campaign");
            assert!(outcome.complete, "bench campaign ran to completion");
            merge_store(&session.store).expect("merge campaign");
            let secs = t0.elapsed().as_secs_f64();
            CampaignBenchRow {
                boards,
                secs,
                peak_rss_mb: peak_rss_mb(),
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    CampaignServiceBench {
        rows,
        shard_jobs,
        cycles_per_board: warmup + flight,
    }
}

/// One disk-fault-rate point of the service-recovery sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustRecoveryRow {
    /// Probability each durable-write step (create/write/sync/rename)
    /// misbehaves: EIO, ENOSPC, or a short write.
    pub store_fault_rate: f64,
    /// Milliseconds from "process gone" back to checkpointed progress:
    /// store reopen + session rebuild (firmware relink) + a one-job
    /// resume slice, after a run that stopped mid-campaign.
    pub mttr_ms: f64,
    /// Checkpoint flushes the resumed session abandoned to injected disk
    /// faults while driving the campaign to completion (each one re-runs
    /// its slice — degraded, never lost).
    pub checkpoints_skipped: u64,
    /// Resume slices the session needed to finish under this fault rate.
    pub slices_to_complete: u64,
}

/// One sabotage-rate point of the quarantine-overhead sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustQuarantineRow {
    /// Probability a job is a persistent panicker (seeded, per-job fate).
    pub panic_rate: f64,
    /// Jobs quarantined — the `quarantine.jsonl` line count after merge.
    pub quarantined: u64,
    /// Wall-clock seconds to run every shard and merge the report.
    pub secs: f64,
}

/// Measured cost of the service's supervision machinery. See
/// [`robust_service`].
#[derive(Debug, Clone, PartialEq)]
pub struct RobustServiceBench {
    /// One row per injected disk-fault rate, clean baseline first.
    pub recovery: Vec<RobustRecoveryRow>,
    /// One row per sabotage panic rate, clean baseline first.
    pub quarantine: Vec<RobustQuarantineRow>,
    /// Boards (= jobs; one benign cell) per campaign.
    pub boards: usize,
    /// Cycles each board flies.
    pub cycles_per_board: u64,
}

impl RobustServiceBench {
    /// Slowest recovery across the fault sweep — the MTTR the CI gate
    /// bounds.
    pub fn worst_mttr_ms(&self) -> f64 {
        self.recovery.iter().map(|r| r.mttr_ms).fold(0.0, f64::max)
    }

    /// Wall-clock ratio of the highest sabotage rate over the clean
    /// baseline — what retries + quarantine cost an otherwise identical
    /// campaign.
    pub fn quarantine_overhead(&self) -> f64 {
        match (self.quarantine.first(), self.quarantine.last()) {
            (Some(a), Some(b)) if a.secs > 0.0 => b.secs / a.secs,
            _ => 1.0,
        }
    }

    /// The `BENCH_robust.json` payload.
    pub fn to_json(&self) -> String {
        let base_secs = self.quarantine.first().map_or(0.0, |r| r.secs);
        let recovery = self
            .recovery
            .iter()
            .map(|r| {
                format!(
                    "    {{\"store_fault_rate\": {}, \"mttr_ms\": {:.1}, \
                     \"checkpoints_skipped\": {}, \"slices_to_complete\": {}}}",
                    r.store_fault_rate, r.mttr_ms, r.checkpoints_skipped, r.slices_to_complete
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let quarantine = self
            .quarantine
            .iter()
            .map(|r| {
                let overhead = if base_secs > 0.0 {
                    r.secs / base_secs
                } else {
                    1.0
                };
                format!(
                    "    {{\"panic_rate\": {}, \"quarantined\": {}, \"secs\": {:.3}, \
                     \"overhead\": {overhead:.3}}}",
                    r.panic_rate, r.quarantined, r.secs
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"bench\": \"campaignd/robust_service\",\n  \"boards\": {},\n  \
             \"cycles_per_board\": {},\n  \"worst_mttr_ms\": {:.1},\n  \
             \"quarantine_overhead\": {:.3},\n  \"recovery\": [\n{}\n  ],\n  \
             \"quarantine\": [\n{}\n  ]\n}}\n",
            self.boards,
            self.cycles_per_board,
            self.worst_mttr_ms(),
            self.quarantine_overhead(),
            recovery,
            quarantine
        )
    }
}

/// Measure the campaign service's supervision machinery end to end.
///
/// Two sweeps, both fully deterministic (seeded fault draws, seeded
/// sabotage fates):
///
/// - **Recovery**: run half a campaign, drop the session cold (the
///   in-process stand-in for SIGKILL — the on-disk state is identical),
///   then time store reopen + session rebuild + a one-job resume slice.
///   That is the service's MTTR: how long a supervisor waits between
///   "process gone" and "campaign making checkpointed progress again".
///   Swept across injected disk-fault rates, driving each campaign to
///   completion to count abandoned checkpoint flushes along the way.
/// - **Quarantine**: sweep the seeded sabotage panic rate through an
///   otherwise identical campaign and time run + merge. Poison jobs cost
///   their retries (bounded attempts with millisecond backoff) and a
///   quarantine-ledger rebuild at merge; the overhead column is that cost
///   as a ratio over the clean baseline.
///
/// `quick` shrinks the campaigns and drops a sweep point for CI smoke.
pub fn robust_service(quick: bool) -> RobustServiceBench {
    use mavr_campaignd::{merge_store, CampaignSession, CampaignSpec, CampaignStore, FaultFs};
    use mavr_fleet::JobChaos;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let boards = if quick { 16 } else { 64 };
    let (warmup, flight) = (40_000u64, 60_000u64);
    let shard_jobs = 4u64;
    let root = std::env::temp_dir()
        .join("mavr-robust-bench")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");

    let spec_named = |name: &str| {
        let mut spec = CampaignSpec::named(name);
        spec.boards = boards;
        spec.scenarios = vec![mavr_fleet::Scenario::Benign];
        spec.warmup_cycles = warmup;
        spec.attack_cycles = flight;
        spec.shard_jobs = shard_jobs;
        spec
    };
    let session = |store: CampaignStore| {
        CampaignSession::new(
            store,
            telemetry::Telemetry::off(),
            Arc::new(AtomicBool::new(false)),
        )
        .expect("session")
    };

    let fault_rates: &[f64] = if quick {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.25, 0.5]
    };
    let recovery = fault_rates
        .iter()
        .map(|&rate| {
            let name = format!("mttr-{}", (rate * 100.0) as u32);
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
            let doomed = session(store);
            doomed.run(Some(boards / 2), None).expect("partial run");
            drop(doomed);

            let t0 = std::time::Instant::now();
            let store = CampaignStore::open(&root.join(&name))
                .expect("reopen campaign")
                .with_faults(faults);
            let resumed = session(store);
            resumed.run(Some(1), None).expect("one-job resume slice");
            let mttr_ms = t0.elapsed().as_secs_f64() * 1e3;

            // Drive to completion under the same fault rate: skipped
            // checkpoints re-run their slices, so this always converges.
            let mut slices = 1u64;
            loop {
                let out = resumed.run(None, None).expect("resume slice");
                slices += 1;
                if out.complete {
                    break;
                }
                assert!(slices < 10_000, "campaign failed to converge under faults");
            }
            RobustRecoveryRow {
                store_fault_rate: rate,
                mttr_ms,
                checkpoints_skipped: resumed.checkpoints_skipped(),
                slices_to_complete: slices,
            }
        })
        .collect();

    // Poison jobs panic on purpose (caught by the supervisor); silence
    // the default hook so the sweep times supervision, not stderr.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panic_rates: &[f64] = if quick {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.05, 0.1]
    };
    let quarantine = panic_rates
        .iter()
        .map(|&rate| {
            let name = format!("poison-{}", (rate * 1000.0) as u32);
            let mut spec = spec_named(&name);
            spec.sabotage = JobChaos {
                panic_rate: rate,
                hang_rate: 0.0,
                flaky_rate: 0.0,
                seed: 0x0BAD_5EED,
            };
            let sess = session(CampaignStore::create(&root, spec).expect("create campaign"));
            let t0 = std::time::Instant::now();
            let out = sess.run(None, None).expect("poison campaign");
            assert!(out.complete, "a poisoned campaign still completes");
            merge_store(&sess.store).expect("merge campaign");
            let secs = t0.elapsed().as_secs_f64();
            let quarantined = std::fs::read_to_string(sess.store.quarantine_path())
                .map_or(0, |text| text.lines().count() as u64);
            RobustQuarantineRow {
                panic_rate: rate,
                quarantined,
                secs,
            }
        })
        .collect();
    std::panic::set_hook(prior_hook);

    let _ = std::fs::remove_dir_all(&root);
    RobustServiceBench {
        recovery,
        quarantine,
        boards,
        cycles_per_board: warmup + flight,
    }
}

/// One fault-rate point of the chaos-resilience sweep. All counts are
/// summed over the cell's boards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosBenchRow {
    /// Fault-injection rate of the cell.
    pub fault: f64,
    /// Boards flown at this rate.
    pub boards: usize,
    /// Reflash retries the masters burned (container re-reads, full-stream
    /// retries, page repairs).
    pub reflash_retries: u64,
    /// Boots that fell back to the last-known-good image.
    pub degraded_boots: u64,
    /// Boards that exhausted every retry and the degraded fallback.
    pub boards_bricked: usize,
    /// Boards that detected and recovered from the attack at least once.
    pub boards_recovered: usize,
    /// Mean cycles from injection to detection, over recovered boards.
    pub mttr_cycles: Option<f64>,
}

/// Measured recovery-pipeline resilience under a fault-rate sweep. See
/// [`chaos_resilience`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResilience {
    /// One row per fault rate, clean baseline first.
    pub rows: Vec<ChaosBenchRow>,
    /// Campaign seed the sweep ran under.
    pub seed: u64,
    /// Boards per fault-rate cell.
    pub boards_per_cell: usize,
}

impl ChaosResilience {
    /// `MTTR(rate) / MTTR(0)` for the highest fault rate where both are
    /// defined — how much the injected faults stretch detection-to-reflash
    /// recovery.
    pub fn mttr_inflation(&self) -> Option<f64> {
        let base = self.rows.first()?.mttr_cycles?;
        self.rows
            .iter()
            .rev()
            .find_map(|r| r.mttr_cycles)
            .map(|m| m / base)
    }

    /// The `BENCH_chaos.json` payload (hand-rolled; the workspace has no
    /// JSON dependency).
    pub fn to_json(&self) -> String {
        let base_mttr = self.rows.first().and_then(|r| r.mttr_cycles);
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mttr = r
                    .mttr_cycles
                    .map_or("null".to_string(), |m| format!("{m:.1}"));
                let inflation = match (base_mttr, r.mttr_cycles) {
                    (Some(b), Some(m)) => format!("{:.3}", m / b),
                    _ => "null".to_string(),
                };
                format!(
                    "    {{\"fault\": {}, \"boards\": {}, \"reflash_retries\": {}, \
                     \"retry_rate\": {:.4}, \"degraded_boots\": {}, \
                     \"boards_bricked\": {}, \"brick_rate\": {:.4}, \
                     \"boards_recovered\": {}, \"mttr_cycles\": {}, \
                     \"mttr_inflation\": {}}}",
                    r.fault,
                    r.boards,
                    r.reflash_retries,
                    r.reflash_retries as f64 / r.boards.max(1) as f64,
                    r.degraded_boots,
                    r.boards_bricked,
                    r.boards_bricked as f64 / r.boards.max(1) as f64,
                    r.boards_recovered,
                    mttr,
                    inflation,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"bench\": \"chaos_resilience/v1-crash\",\n  \"seed\": {},\n  \"boards_per_cell\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.seed, self.boards_per_cell, rows
        )
    }
}

/// Sweep fault-injection rates through a V1 (loud crash) fleet campaign
/// and measure what the hardened recovery pipeline does with them: reflash
/// retries, degraded boots, bricks, and MTTR inflation versus the clean
/// baseline. Whether a crashed ROP chain actually silences the heartbeat
/// is layout-dependent (wild execution can keep interrupts alive), so the
/// campaign seed is chosen for a fleet where most baseline boards detect —
/// that keeps the MTTR column defined, and the engine seed-matches boards
/// across the fault axis, so the comparison is the *same* fleet under
/// different chaos. Fully deterministic (it is a fleet campaign); `quick`
/// shrinks the fleet for CI smoke runs.
pub fn chaos_resilience(quick: bool) -> ChaosResilience {
    use mavr_fleet::{run_campaign, CampaignConfig, Scenario};
    let boards = if quick { 2 } else { 8 };
    let cfg = CampaignConfig {
        seed: 6,
        boards,
        scenarios: vec![Scenario::V1Crash],
        loss_levels: vec![0.0],
        fault_levels: vec![0.0, 0.00005, 0.0001, 0.0002, 0.0005],
        attack_cycles: if quick { 3_000_000 } else { 6_000_000 },
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    let rows = report
        .cells
        .iter()
        .map(|c| ChaosBenchRow {
            fault: c.fault,
            boards: c.boards,
            reflash_retries: c.reflash_retries,
            degraded_boots: c.degraded_boots,
            boards_bricked: c.boards_bricked,
            boards_recovered: c.boards_recovered,
            mttr_cycles: c.mean_time_to_recovery(),
        })
        .collect();
    ChaosResilience {
        rows,
        seed: cfg.seed,
        boards_per_cell: boards,
    }
}

/// Measured cost of the observability plane: simulator overhead of an
/// attached (null) recorder, metrics record/merge throughput and
/// exposition cost. See [`telemetry_overhead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryBench {
    /// Simulated cycles/sec with telemetry off — the baseline.
    pub off_cycles_per_sec: f64,
    /// Simulated cycles/sec with a `NullRecorder` attached (events
    /// counted, then discarded).
    pub null_recorder_cycles_per_sec: f64,
    /// Raw `QuantileSketch::record` calls per second.
    pub sketch_records_per_sec: f64,
    /// `MetricsRegistry::observe_histogram` calls per second — the
    /// labeled-lookup path the fleet fold takes per packet count.
    pub histogram_records_per_sec: f64,
    /// Registry shard merges per second on the reference registry.
    pub merges_per_sec: f64,
    /// Prometheus text expositions per second of the reference registry.
    pub prometheus_per_sec: f64,
    /// JSONL expositions per second of the reference registry.
    pub jsonl_per_sec: f64,
    /// Series in the reference registry the merge/exposition rows use.
    pub series: usize,
    /// Samples per measurement the medians were taken over.
    pub samples: usize,
}

impl TelemetryBench {
    /// Percent slowdown of the simulator when a null recorder is
    /// attached (the "instrumentation on, sink off" configuration).
    pub fn null_recorder_overhead_pct(&self) -> f64 {
        100.0 * (self.off_cycles_per_sec / self.null_recorder_cycles_per_sec - 1.0)
    }

    /// The `BENCH_telemetry.json` payload (hand-rolled; the workspace has
    /// no JSON dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"telemetry_overhead/tiny_firmware\",\n  \"samples\": {},\n  \"series\": {},\n  \"off_cycles_per_sec\": {:.0},\n  \"null_recorder_cycles_per_sec\": {:.0},\n  \"null_recorder_overhead_pct\": {:.2},\n  \"sketch_records_per_sec\": {:.0},\n  \"histogram_records_per_sec\": {:.0},\n  \"merges_per_sec\": {:.0},\n  \"prometheus_per_sec\": {:.0},\n  \"jsonl_per_sec\": {:.0}\n}}\n",
            self.samples,
            self.series,
            self.off_cycles_per_sec,
            self.null_recorder_cycles_per_sec,
            self.null_recorder_overhead_pct(),
            self.sketch_records_per_sec,
            self.histogram_records_per_sec,
            self.merges_per_sec,
            self.prometheus_per_sec,
            self.jsonl_per_sec,
        )
    }
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
/// firmware; (b) raw sketch-record and labeled histogram-record rates;
/// (c) shard-merge and exposition rates on a campaign-shaped reference
/// registry. Medians over a few samples each; `quick` shortens everything
/// for CI smoke.
pub fn telemetry_overhead(quick: bool) -> TelemetryBench {
    use std::hint::black_box;
    use telemetry::metrics::{MetricsRegistry, QuantileSketch};
    use telemetry::{NullRecorder, Telemetry};

    let samples = if quick { 3 } else { 9 };
    let sim_cycles: u64 = if quick { 300_000 } else { 1_000_000 };
    let ops: u64 = if quick { 200_000 } else { 2_000_000 };
    let cells = 12;

    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    // Median seconds of `f`, which returns a value kept live via black_box.
    let time_median = |f: &mut dyn FnMut() -> u64| -> f64 {
        let mut times: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = std::time::Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&mut times)
    };

    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).expect("build");
    let sim_secs = |telemetry_on: bool| -> f64 {
        time_median(&mut || {
            let mut m = avr_sim::Machine::new_atmega2560();
            if telemetry_on {
                m.telemetry = Telemetry::new(NullRecorder::default());
            }
            m.load_flash(0, &fw.image.bytes);
            m.run(sim_cycles);
            assert!(m.fault().is_none(), "bench firmware crashed");
            m.cycles()
        })
    };
    let off_secs = sim_secs(false);
    let null_secs = sim_secs(true);

    let sketch_secs = time_median(&mut || {
        let mut s = QuantileSketch::new();
        for v in 0..ops {
            // Cheap LCG so the timed loop is the record call, not the RNG.
            s.record(v.wrapping_mul(6364136223846793005).wrapping_add(1) % 4_000_000);
        }
        s.count()
    });
    let histogram_secs = time_median(&mut || {
        let mut reg = MetricsRegistry::new();
        let labels = [("scenario", "bench"), ("loss", "0.0000")];
        for v in 0..ops {
            reg.observe_histogram("campaign_packets_per_board", &labels, v % 4096);
        }
        reg.len() as u64
    });

    let shard = reference_registry(cells, 0x2015);
    let series = shard.len();
    let merge_rounds: u64 = if quick { 200 } else { 2_000 };
    let merge_secs = time_median(&mut || {
        let mut acc = MetricsRegistry::new();
        for _ in 0..merge_rounds {
            acc.merge(black_box(&shard));
        }
        acc.len() as u64
    });
    let expo_rounds: u64 = if quick { 200 } else { 2_000 };
    let prom_secs = time_median(&mut || {
        let mut bytes = 0u64;
        for _ in 0..expo_rounds {
            bytes += black_box(shard.to_prometheus()).len() as u64;
        }
        bytes
    });
    let jsonl_secs = time_median(&mut || {
        let mut bytes = 0u64;
        for _ in 0..expo_rounds {
            bytes += black_box(shard.to_jsonl()).len() as u64;
        }
        bytes
    });

    TelemetryBench {
        off_cycles_per_sec: sim_cycles as f64 / off_secs,
        null_recorder_cycles_per_sec: sim_cycles as f64 / null_secs,
        sketch_records_per_sec: ops as f64 / sketch_secs,
        histogram_records_per_sec: ops as f64 / histogram_secs,
        merges_per_sec: merge_rounds as f64 / merge_secs,
        prometheus_per_sec: expo_rounds as f64 / prom_secs,
        jsonl_per_sec: expo_rounds as f64 / jsonl_secs,
        series,
        samples,
    }
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

/// Measured cost of closing the physical loop: the same provisioned
/// SynthQuadFlight board flown bare (block-fused fast path, ADC floating)
/// versus inside the [`mavr_world::FlightHarness`] (sensors sampled into
/// the ADC and the rigid body stepped every 16 000 cycles). See
/// [`world_throughput`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldThroughput {
    /// Cycles/sec of the bare board (physics off).
    pub bare_cycles_per_sec: f64,
    /// Cycles/sec of the coupled board (physics on).
    pub coupled_cycles_per_sec: f64,
    /// World steps/sec of the coupled simulation (`coupled / 16000`).
    pub coupled_steps_per_sec: f64,
    /// Samples per leg the minima were taken over.
    pub samples: usize,
}

impl WorldThroughput {
    /// What the physics arena costs on the fused fast path, in percent of
    /// bare throughput. The ISSUE budget is <15%.
    pub fn overhead_pct(&self) -> f64 {
        (self.bare_cycles_per_sec / self.coupled_cycles_per_sec - 1.0) * 100.0
    }

    /// The `BENCH_world.json` payload (hand-rolled; the workspace has no
    /// JSON dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"closed_loop/synth_quad_flight\",\n  \"unit\": \"cycles_per_sec\",\n  \"samples\": {},\n  \"bare_fused\": {:.0},\n  \"coupled_fused\": {:.0},\n  \"world_steps_per_sec\": {:.0},\n  \"physics_overhead_pct\": {:.2}\n}}\n",
            self.samples,
            self.bare_cycles_per_sec,
            self.coupled_cycles_per_sec,
            self.coupled_steps_per_sec,
            self.overhead_pct(),
        )
    }
}

/// Measure the closed-loop physics overhead (`quick` = fewer samples and
/// steps, for CI smoke).
///
/// Both legs fly the identical provisioned board on the block-fused fast
/// path; only the coupling differs. Legs are interleaved round-robin and
/// each reports its fastest sample (noise only ever adds time), so the
/// overhead ratio is robust against load drift on a shared machine.
pub fn world_throughput(quick: bool) -> WorldThroughput {
    use mavr_world::{FlightHarness, Scenario, World, CYCLES_PER_STEP};

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

    let mut best = [f64::INFINITY; 2];
    for _ in 0..samples {
        best[0] = best[0].min(time_bare());
        best[1] = best[1].min(time_coupled());
    }
    WorldThroughput {
        bare_cycles_per_sec: cycles as f64 / best[0],
        coupled_cycles_per_sec: cycles as f64 / best[1],
        coupled_steps_per_sec: steps as f64 / best[1],
        samples,
    }
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
