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
//! Each `bench-<name>` in [`BENCHES`] (or `bench-<name>-quick` for CI
//! smoke) must be named explicitly: it runs that driver, prints its
//! record and rewrites `BENCH_<name>.json` at the repo root, so it is not
//! part of the default `all` run.

use mavr::policy::RandomizationPolicy;
use mavr_bench as exp;
use mavr_bench::BenchRecord;
use synth_firmware::{apps, build, BuildOptions};

/// A `bench-*` driver; its argument is `quick`.
type Driver = fn(bool) -> BenchRecord;

/// The `bench-*` experiments: `bench-<name>[-quick]` runs the driver
/// (`quick` for the `-quick` name) and writes `BENCH_<name>.json`.
const BENCHES: &[(&str, Driver)] = &[
    ("simulator", exp::simulator_throughput),
    ("fleet", exp::fleet_throughput),
    ("campaignd", exp::campaignd_memory),
    ("robust", exp::robust_service),
    ("chaos", exp::chaos_resilience),
    ("telemetry", exp::telemetry_overhead),
    ("world", exp::world_throughput),
    ("provision", exp::provision_latency),
];

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
    "bench-provision",
    "bench-provision-quick",
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

    for (name, driver) in BENCHES {
        let full = format!("bench-{name}");
        let quick = args.contains(&format!("{full}-quick"));
        if !quick && !args.contains(&full) {
            continue;
        }
        let mut record = driver(quick);
        record.finish();
        print!("{}", record.render());
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, record.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("  wrote {path}\n");
    }

    if want("fig6") {
        println!("== Fig. 6: stack progression during the stealthy attack ==");
        for s in exp::fig6(&apps::tiny_test_app()) {
            println!("{}", s.dump());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bench_dispatches_from_an_accepted_name_and_back() {
        for (name, _) in BENCHES {
            for arg in [format!("bench-{name}"), format!("bench-{name}-quick")] {
                assert!(EXPERIMENTS.contains(&arg.as_str()), "{arg} is not accepted");
            }
        }
        for arg in EXPERIMENTS.iter().filter(|a| a.starts_with("bench-")) {
            let name = arg.trim_start_matches("bench-").trim_end_matches("-quick");
            assert!(
                BENCHES.iter().any(|(n, _)| *n == name),
                "{arg} has no driver"
            );
        }
    }
}
