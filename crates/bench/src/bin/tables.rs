//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p mavr-bench --bin tables --release            # everything
//! cargo run -p mavr-bench --bin tables --release -- table2  # one experiment
//! ```
//!
//! Experiments: `table1 table2 table3 effectiveness bruteforce entropy
//! software-only ablations fig2 gadgets fig6 counters`. The full
//! `effectiveness` run uses the paper-scale SynthPlane target; pass
//! `effectiveness-quick` for the small test app. An unknown name is an
//! error that lists the known ones.
//!
//! `bench-simulator` (or `bench-simulator-quick` for CI smoke) must be
//! named explicitly — it times the interpreter with the predecode cache on
//! and off and rewrites `BENCH_simulator.json` at the repo root, so it is
//! not part of the default `all` run. Likewise `bench-fleet` (or
//! `bench-fleet-quick`) times the campaign engine at 1/8/32 boards and
//! rewrites `BENCH_fleet.json`, `bench-chaos` (or
//! `bench-chaos-quick`) sweeps fault-injection rates through a stealthy
//! fleet campaign and rewrites `BENCH_chaos.json`, and `bench-telemetry`
//! (or `bench-telemetry-quick`) measures the observability plane —
//! null-recorder simulator overhead, metrics record/merge throughput and
//! exposition cost — and rewrites `BENCH_telemetry.json`, and
//! `bench-world` (or `bench-world-quick`) measures what closing the
//! physical loop costs the fused fast path and rewrites
//! `BENCH_world.json`, and `bench-campaignd` (or
//! `bench-campaignd-quick`) runs sharded campaigns spanning two orders
//! of magnitude in size through the campaign service, records peak RSS
//! per size to prove the service's memory is O(shard) rather than
//! O(campaign), and rewrites `BENCH_campaignd.json`, and `bench-robust`
//! (or `bench-robust-quick`) measures the service's supervision
//! machinery — kill-to-checkpointed-progress MTTR under injected disk
//! faults, and quarantine overhead under a seeded poison-job sweep — and
//! rewrites `BENCH_robust.json`.

use mavr::policy::RandomizationPolicy;
use mavr_bench as exp;
use synth_firmware::{apps, build, BuildOptions};

/// Every name `main` answers to.
const EXPERIMENTS: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "effectiveness",
    "effectiveness-quick",
    "bruteforce",
    "software-only",
    "viii-a",
    "entropy",
    "ablations",
    "fig2",
    "gadgets",
    "fig4",
    "fig5",
    "counters",
    "fig6",
    "bench-simulator",
    "bench-simulator-quick",
    "bench-fleet",
    "bench-fleet-quick",
    "bench-campaignd",
    "bench-campaignd-quick",
    "bench-robust",
    "bench-robust-quick",
    "bench-chaos",
    "bench-chaos-quick",
    "bench-telemetry",
    "bench-telemetry-quick",
    "bench-world",
    "bench-world-quick",
];

fn mavr_repro_leak(n: usize) -> f64 {
    rop::brute::expected_incremental_leak(n as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| !EXPERIMENTS.contains(&a.as_str())) {
        eprintln!(
            "tables: unknown experiment `{unknown}`; known: {}",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        println!(
            "{}",
            exp::render(
                "Table I: number of functions (paper: 917 / 1030 / 800)",
                &["Functions"],
                &exp::table1()
            )
        );
        let rows = exp::table1();
        let mut v: Vec<f64> = rows.iter().map(|r| r.values[0]).collect();
        v.sort_by(f64::total_cmp);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "  mean {mean:.0} (paper: avg 915)   median {} (paper: 917)\n",
            v[v.len() / 2]
        );
    }

    if want("table2") {
        println!(
            "{}",
            exp::render(
                "Table II: MAVR startup overhead, ms (paper: 19209 / 21206 / 15412)",
                &["Time (ms)"],
                &exp::table2()
            )
        );
        println!(
            "{}",
            exp::render(
                "Table II production estimate (paper: ~4000 ms)",
                &["Time (ms)"],
                &exp::table2_production()
            )
        );
    }

    if want("table3") {
        println!(
            "{}",
            exp::render(
                "Table III: code size, bytes (paper: 221608/221294, 244532/244292, 177870/177556)",
                &["Stock", "MAVR"],
                &exp::table3()
            )
        );
    }

    if want("effectiveness") || want("effectiveness-quick") {
        let quick = args.iter().any(|a| a == "effectiveness-quick");
        let (spec, trials) = if quick {
            (apps::tiny_test_app(), 10)
        } else {
            (apps::synth_plane(), 10)
        };
        println!("== Effectiveness (§VII-A) on {} ==", spec.name);
        let e = exp::effectiveness(&spec, trials);
        println!("  gadgets found (unique sequences) : {}", e.gadgets_unique);
        println!("  gadgets found (all start addrs)  : {}", e.gadgets_total);
        println!("  paper reports                    : 953");
        println!(
            "  stealthy attack vs unprotected   : {}/{} succeeded",
            e.stock_successes, e.stock_attempts
        );
        println!(
            "  stealthy attack vs randomized    : {}/{} succeeded (paper: none)",
            e.randomized_successes, e.randomized_attempts
        );
        println!(
            "  failed attacks detected+reflashed: {}/{}",
            e.randomized_detected, e.randomized_attempts
        );
        println!(
            "  gadget addresses surviving shuffle: {} of {} start addrs\n",
            e.gadget_survivors, e.gadgets_total
        );
    }

    if want("bruteforce") {
        println!("== Brute force effort (§V-D), n = 4 functions (N = 24 permutations) ==");
        let (mf, ef, mr, er) = exp::bruteforce(4, 50_000);
        println!("  fixed permutation   : simulated {mf:.2}, theory (N+1)/2 = {ef:.2}");
        println!("  with re-randomize   : simulated {mr:.2}, theory N = {er:.2}");
        println!("  -> re-randomization doubles the expected effort; for the real");
        println!("     apps N = n! is astronomically large (see entropy).\n");
    }

    if want("software-only") || want("viii-a") {
        println!(
            "== Software-only ablation (§VIII-A): fixed permutation vs re-randomizing MAVR =="
        );
        println!(
            "{:<14}{:>26}{:>26}",
            "Application", "leak probes (fixed)", "entropy (re-rand), bits"
        );
        for spec in apps::all_paper_apps() {
            println!(
                "{:<14}{:>26.0}{:>26.0}",
                spec.name,
                mavr_repro_leak(spec.functions),
                mavr::math::entropy_bits(spec.functions as u64)
            );
        }
        println!("  -> with crash feedback a fixed layout falls in ~n(n+3)/4 probes;");
        println!("     re-randomization keeps the cost at ~n! — the dual-processor design.\n");
    }

    if want("ablations") {
        println!("== Ablations (§V-C, §VI-B1, §VIII-B) ==");
        let trials = 10;
        let (refusal, deaths) = exp::relax_ablation(trials);
        println!("Ablation --no-relax: relax-built image rejected ({refusal})");
        println!("Ablation --no-relax: force-randomized relax builds died {deaths}/{trials} times");
        let c = exp::call_prologue_ablation();
        println!(
            "Ablation -mcall-prologues: {} call sites reference the shared blobs \
             ({} gadget start addresses inside them); register-restore gadgets: \
             {} (stock, concentrated) vs {} (MAVR toolchain, scattered)",
            c.blob_refs, c.blob_gadgets, c.stock_restore_gadgets, c.mavr_restore_gadgets
        );
        let endurance = avr_core::device::ATMEGA2560.flash_endurance_cycles;
        println!("Ablation randomization frequency vs flash endurance ({endurance} cycles):");
        for n in [1u32, 5, 10, 50, 100] {
            let p = RandomizationPolicy {
                every_n_boots: n,
                on_attack: true,
            };
            println!(
                "  every {n:>3} boots -> lifetime {:>9.0} boots (no attacks), {:>9.0} (1% attack rate)",
                p.lifetime_boots(endurance, 0.0),
                p.lifetime_boots(endurance, 0.01)
            );
        }
        println!("Ablation inter-function padding (§VIII-B):");
        for pad_choices in [1u64, 4, 16, 64] {
            println!(
                "  800 fns, {pad_choices:>2} pad choices -> {:.0} bits (baseline {:.0})",
                mavr::math::entropy_bits_with_padding(800, pad_choices),
                mavr::math::entropy_bits(800)
            );
        }
        println!("  -> the baseline is already computationally secure; padding unnecessary.\n");
    }

    if want("entropy") {
        println!(
            "{}",
            exp::render(
                "Entropy (§VIII-B): log2(n!) bits (paper: 800 fns => 6567 bits)",
                &["Bits"],
                &exp::entropy()
            )
        );
    }

    if want("fig2") {
        println!("{}", exp::fig2());
    }

    if want("gadgets") || want("fig4") || want("fig5") {
        let fw = build(&apps::synth_plane(), &BuildOptions::vulnerable_mavr()).unwrap();
        println!("{}", exp::gadget_listings(&fw.image));
    }

    if want("counters") {
        println!(
            "{}",
            exp::render(
                "Activity counters over 2M cycles on a provisioned board (null recorder)",
                &["Insns retired", "Interrupts", "UART TX bytes", "Events"],
                &exp::counters(2_000_000)
            )
        );
        println!(
            "  events flow through a NullRecorder: counted, then discarded — the\n  \
             configuration `bench-telemetry` shows costs ~0 vs. telemetry off.\n"
        );
    }

    // Explicitly requested only (writes a file; excluded from `all`).
    if args
        .iter()
        .any(|a| a == "bench-simulator" || a == "bench-simulator-quick")
    {
        let quick = args.iter().any(|a| a == "bench-simulator-quick");
        println!("== Simulator throughput (uncached / predecoded / block-fused) ==");
        let t = exp::simulator_throughput(quick);
        println!(
            "  uncached    : {:>12.0} cycles/sec\n  predecoded  : {:>12.0} cycles/sec  ({:.2}x)\n  block-fused : {:>12.0} cycles/sec  ({:.2}x over predecoded)\n  total       : {:.2}x",
            t.uncached_cycles_per_sec,
            t.predecoded_cycles_per_sec,
            t.predecode_speedup(),
            t.fused_cycles_per_sec,
            t.fusion_speedup(),
            t.total_speedup()
        );
        let path = "BENCH_simulator.json";
        std::fs::write(path, t.to_json()).expect("write BENCH_simulator.json");
        println!("  wrote {path}\n");
    }

    // Explicitly requested only (writes a file; excluded from `all`).
    if args
        .iter()
        .any(|a| a == "bench-fleet" || a == "bench-fleet-quick")
    {
        let quick = args.iter().any(|a| a == "bench-fleet-quick");
        println!("== Fleet campaign throughput (benign, zero loss) ==");
        let t = exp::fleet_throughput(quick);
        for r in &t.rows {
            println!(
                "  {:>3} boards : {:>12.0} boards·cycles/sec  ({} cycles in {:.2}s)",
                r.boards,
                r.cycles_per_sec(),
                r.total_cycles,
                r.secs
            );
        }
        let path = "BENCH_fleet.json";
        std::fs::write(path, t.to_json()).expect("write BENCH_fleet.json");
        println!("  wrote {path}\n");
    }

    // Explicitly requested only (writes a file; excluded from `all`).
    if args
        .iter()
        .any(|a| a == "bench-campaignd" || a == "bench-campaignd-quick")
    {
        let quick = args.iter().any(|a| a == "bench-campaignd-quick");
        println!("== Campaign service memory (sharded benign, streaming merge) ==");
        let t = exp::campaignd_memory(quick);
        for r in &t.rows {
            println!(
                "  {:>6} boards : {:>8.1} jobs/sec, peak rss {:>7.1} MiB  ({:.2}s)",
                r.boards,
                r.jobs_per_sec(),
                r.peak_rss_mb,
                r.secs
            );
        }
        println!(
            "  peak-RSS growth across a {}x campaign-size spread: {:.2}x",
            t.rows.last().map_or(1, |r| r.boards) / t.rows.first().map_or(1, |r| r.boards).max(1),
            t.rss_growth()
        );
        let path = "BENCH_campaignd.json";
        std::fs::write(path, t.to_json()).expect("write BENCH_campaignd.json");
        println!("  wrote {path}\n");
    }

    // Explicitly requested only (writes a file; excluded from `all`).
    if args
        .iter()
        .any(|a| a == "bench-robust" || a == "bench-robust-quick")
    {
        let quick = args.iter().any(|a| a == "bench-robust-quick");
        println!("== Campaign service supervision (MTTR + quarantine overhead) ==");
        let t = exp::robust_service(quick);
        for r in &t.recovery {
            println!(
                "  disk-fault rate {:>4} : MTTR {:>7.1} ms, {:>3} checkpoints skipped, \
                 {:>3} slices to finish",
                r.store_fault_rate, r.mttr_ms, r.checkpoints_skipped, r.slices_to_complete
            );
        }
        for r in &t.quarantine {
            println!(
                "  panic rate {:>5} : {:>3} quarantined of {} jobs  ({:.2}s)",
                r.panic_rate, r.quarantined, t.boards, r.secs
            );
        }
        println!(
            "  worst MTTR {:.1} ms; quarantine overhead at the top rate: {:.2}x",
            t.worst_mttr_ms(),
            t.quarantine_overhead()
        );
        let path = "BENCH_robust.json";
        std::fs::write(path, t.to_json()).expect("write BENCH_robust.json");
        println!("  wrote {path}\n");
    }

    // Explicitly requested only (writes a file; excluded from `all`).
    if args
        .iter()
        .any(|a| a == "bench-chaos" || a == "bench-chaos-quick")
    {
        let quick = args.iter().any(|a| a == "bench-chaos-quick");
        println!("== Chaos resilience (fault-rate sweep, V1 crash attack) ==");
        let t = exp::chaos_resilience(quick);
        for r in &t.rows {
            println!(
                "  fault {:>8} : {:>3} retries, {:>2} degraded, {:>2} bricked, {:>2}/{} recovered, mttr {}",
                format!("{}", r.fault),
                r.reflash_retries,
                r.degraded_boots,
                r.boards_bricked,
                r.boards_recovered,
                r.boards,
                r.mttr_cycles
                    .map_or("-".to_string(), |m| format!("{m:.0}")),
            );
        }
        if let Some(inflation) = t.mttr_inflation() {
            println!("  mttr inflation at the top rate: {inflation:.2}x");
        }
        let path = "BENCH_chaos.json";
        std::fs::write(path, t.to_json()).expect("write BENCH_chaos.json");
        println!("  wrote {path}\n");
    }

    // Explicitly requested only (writes a file; excluded from `all`).
    if args
        .iter()
        .any(|a| a == "bench-telemetry" || a == "bench-telemetry-quick")
    {
        let quick = args.iter().any(|a| a == "bench-telemetry-quick");
        println!("== Observability plane cost (recorder, metrics, expositions) ==");
        let t = exp::telemetry_overhead(quick);
        println!(
            "  simulator, telemetry off : {:>12.0} cycles/sec\n  \
             simulator, null recorder : {:>12.0} cycles/sec  ({:+.2}% overhead)\n  \
             sketch record            : {:>12.0} ops/sec\n  \
             histogram record (labeled): {:>11.0} ops/sec\n  \
             registry merge ({} series): {:>11.0} merges/sec\n  \
             prometheus exposition    : {:>12.0} dumps/sec\n  \
             jsonl exposition         : {:>12.0} dumps/sec",
            t.off_cycles_per_sec,
            t.null_recorder_cycles_per_sec,
            t.null_recorder_overhead_pct(),
            t.sketch_records_per_sec,
            t.histogram_records_per_sec,
            t.series,
            t.merges_per_sec,
            t.prometheus_per_sec,
            t.jsonl_per_sec,
        );
        let path = "BENCH_telemetry.json";
        std::fs::write(path, t.to_json()).expect("write BENCH_telemetry.json");
        println!("  wrote {path}\n");
    }

    // Explicitly requested only (writes a file; excluded from `all`).
    if args
        .iter()
        .any(|a| a == "bench-world" || a == "bench-world-quick")
    {
        let quick = args.iter().any(|a| a == "bench-world-quick");
        println!("== Closed-loop physics cost (bare vs coupled, fused fast path) ==");
        let t = exp::world_throughput(quick);
        println!(
            "  bare fused    : {:>12.0} cycles/sec\n  \
             coupled fused : {:>12.0} cycles/sec  ({:+.2}% overhead, budget <15%)\n  \
             world steps   : {:>12.0} steps/sec (1 kHz simulated)",
            t.bare_cycles_per_sec,
            t.coupled_cycles_per_sec,
            t.overhead_pct(),
            t.coupled_steps_per_sec,
        );
        let path = "BENCH_world.json";
        std::fs::write(path, t.to_json()).expect("write BENCH_world.json");
        println!("  wrote {path}\n");
    }

    if want("fig6") {
        println!("== Fig. 6: stack progression during the stealthy attack ==");
        for s in exp::fig6(&apps::tiny_test_app()) {
            println!("{}", s.dump());
        }
    }
}
