//! Watchdog quality: how fast does the master catch a failed attack, and
//! what does recovery cost? The paper's in-flight-recovery claim (§V-C,
//! §IX) depends on detection latency being a small multiple of the
//! heartbeat period.

use mavr_repro::mavlink_lite::GroundStation;
use mavr_repro::mavr::policy::RandomizationPolicy;
use mavr_repro::mavr_board::{BoardEvent, MavrBoard};
use mavr_repro::rop::attack::AttackContext;
use mavr_repro::synth_firmware::{apps, build, layout, BuildOptions};

#[test]
fn detection_latency_is_bounded_by_the_watchdog_window() {
    let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    let ctx = AttackContext::discover(&fw.image).unwrap();
    let payload = ctx
        .v2_payload(&[(layout::GYRO + 3, [0xde, 0xad, 0x42])])
        .unwrap();

    // Find layouts where the failed attack crashes, and measure how long
    // the app was down before the master reflashed it.
    let mut measured = 0;
    for seed in 0..12u64 {
        let mut board =
            MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default()).unwrap();
        board.run(300_000).unwrap();
        let healthy_until = board.app.machine.cycles();
        let mut gcs = GroundStation::new();
        board.uplink(&gcs.exploit_packet(&payload).unwrap());
        board.run(6_000_000).unwrap();
        if board.recoveries() == 0 {
            continue; // soft landing; nothing to time
        }
        measured += 1;
        // The machine's cycle counter survives recovery, so the first
        // post-recovery heartbeat bounds the outage end.
        let outage_end = board
            .app
            .machine
            .heartbeat
            .toggles
            .first()
            .copied()
            .unwrap_or(board.app.machine.cycles());
        let outage = outage_end - healthy_until;
        // Detection happens within the watchdog window plus one polling
        // chunk; add loop slack for the cycles spent flying before the
        // payload hit.
        let bound = board.heartbeat_timeout * 2 + 500_000;
        assert!(
            outage < bound,
            "seed {seed}: outage {outage} cycles exceeds bound {bound}"
        );
        // The log shows the canonical sequence: recovery then reboot.
        assert!(board
            .events
            .iter()
            .any(|e| matches!(e, BoardEvent::Recovery { .. })));
    }
    assert!(
        measured >= 2,
        "need at least two crashing layouts to measure"
    );
}

#[test]
fn recovery_cost_matches_table2_model() {
    // Every recovery pays one full randomized reprogramming — the Table II
    // startup cost — plus nothing else.
    let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    let mut board = MavrBoard::provision(&fw.image, 9, RandomizationPolicy::default()).unwrap();
    let report = board
        .recover(mavr_repro::mavr_board::RecoveryCause::HeartbeatLost)
        .unwrap();
    assert!(report.randomized);
    let expected_ms = f64::from(report.image_bytes) * 10.0 / 115.2;
    assert!((report.transfer_ms - expected_ms).abs() < 0.5);
    assert!(report.total_ms >= report.transfer_ms);
}
