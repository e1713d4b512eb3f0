//! Why MAVR needs its hardware (§VIII-A): a software-only variant that
//! randomizes once at flash time fails on both counts the paper raises —
//! it cannot recover from a failed attack in flight, and its single fixed
//! permutation leaks to a persistent attacker polynomially fast.
//!
//! ```text
//! cargo run --release --example software_only_pitfall
//! ```

use mavr_repro::mavlink_lite::channel::LossyChannel;
use mavr_repro::mavlink_lite::GroundStation;
use mavr_repro::mavr_board::SoftwareOnlyBoard;
use mavr_repro::rop::attack::AttackContext;
use mavr_repro::rop::brute;
use mavr_repro::synth_firmware::{apps, build, layout, BuildOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    let ctx = AttackContext::discover(&fw.image).unwrap();
    let payload = ctx
        .v2_payload(&[(layout::GYRO + 3, [0xde, 0xad, 0x42])])
        .unwrap();

    // Problem 1 — no fault tolerance: find a layout the failed attack
    // crashes, and watch it stay dead.
    println!("problem 1: a failed attack bricks the board until someone can touch it\n");
    for seed in 0..20u64 {
        let mut board = SoftwareOnlyBoard::flash(&fw.image, seed).unwrap();
        board.run(300_000);
        let mut gcs = GroundStation::new();
        // The attacker's radio link, modeled explicitly (zero loss — the
        // exploit must arrive intact).
        let mut uplink = LossyChannel::perfect();
        board
            .machine
            .uart0
            .inject(&uplink.transmit(&gcs.exploit_packet(&payload).unwrap()));
        assert_eq!(uplink.stats.dropped + uplink.stats.corrupted, 0);
        board.run(6_000_000);
        if board.dead() {
            println!("  layout #{seed}: attack failed AND crashed the autopilot");
            let toggles = board.machine.heartbeat.toggles.len();
            board.run(10_000_000);
            println!(
                "  ten more million cycles: still dead ({} heartbeat toggles, unchanged)",
                board.machine.heartbeat.toggles.len() - toggles
            );
            println!(
                "  -> \"the only way to recover … is cycling its power source, which is\n\
                 \x20    extremely difficult when a UAV is in flight\" (§VIII-A)\n"
            );
            break;
        }
    }

    // Problem 2 — information leak against the fixed permutation.
    println!("problem 2: one permutation forever leaks to a persistent attacker\n");
    let n = fw.image.function_count();
    let mut rng = StdRng::seed_from_u64(1);
    let leak_probes = brute::simulate_incremental_leak(12, &mut rng);
    println!(
        "  incremental-leak attacker vs a FIXED 12-function layout: {} probes (theory ~{:.0})",
        leak_probes,
        brute::expected_incremental_leak(12.0)
    );
    println!(
        "  scaled to this app's {n} functions: ~{:.0} probes — an afternoon of packets",
        brute::expected_incremental_leak(n as f64)
    );
    println!(
        "  the re-randomizing MAVR defense instead costs ~n! tries: {:.0} bits of entropy",
        mavr_repro::mavr::math::entropy_bits(n as u64)
    );
    println!("\nok: both §VIII-A failure modes demonstrated — hence the dual-processor design");
}
