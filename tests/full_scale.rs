//! Paper-scale validation: the attack/defense story on the full calibrated
//! SynthPlane (917 functions, 221 294 bytes) — not just the small test app.
//!
//! These run in seconds under `--release`; under a debug profile the
//! simulator is ~20× slower, so budget accordingly.

use mavr_repro::avr_sim::Machine;
use mavr_repro::mavlink_lite::GroundStation;
use mavr_repro::mavr::policy::RandomizationPolicy;
use mavr_repro::mavr_board::MavrBoard;
use mavr_repro::rop::attack::AttackContext;
use mavr_repro::rop::scanner::{classify, scan, ScanOptions};
use mavr_repro::synth_firmware::{apps, build, layout, BuildOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn synth_plane_flies_and_talks_mavlink() {
    let fw = build(&apps::synth_plane(), &BuildOptions::safe_mavr()).unwrap();
    assert_eq!(fw.image.function_count(), 917);
    assert_eq!(fw.image.code_size(), 221_294);
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &fw.image.bytes);
    m.run(1_500_000);
    assert!(m.fault().is_none(), "{:?}", m.fault());
    let mut gcs = GroundStation::new();
    gcs.ingest(&m.uart0.take_tx());
    assert!(gcs.heartbeats.len() >= 5);
    assert_eq!(gcs.bad_checksums(), 0);
}

#[test]
fn synth_plane_stealthy_attack_and_defense() {
    let fw = build(&apps::synth_plane(), &BuildOptions::vulnerable_mavr()).unwrap();

    // The attacker's analysis scales to the paper-size binary.
    assert!(classify(&fw.image).is_some());
    let gadgets = scan(&fw.image, &ScanOptions::default());
    assert!(
        gadgets.len() > 400,
        "paper-scale gadget population (paper: 953), got {}",
        gadgets.len()
    );

    let ctx = AttackContext::discover(&fw.image).unwrap();
    let payload = ctx
        .v2_payload(&[(layout::GYRO + 3, [0xde, 0xad, 0x42])])
        .unwrap();

    // Stealthy attack against the unprotected full-size UAV.
    let mut uav = Machine::new_atmega2560();
    uav.load_flash(0, &fw.image.bytes);
    uav.run(400_000);
    let mut gcs = GroundStation::new();
    uav.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
    uav.run(3_000_000);
    assert!(uav.fault().is_none(), "clean return at paper scale");
    assert_eq!(uav.peek_range(layout::GYRO + 3, 3), vec![0xde, 0xad, 0x42]);
    gcs.ingest(&uav.uart0.take_tx());
    assert!(gcs.link_alive(20, 3));

    // Against the randomized board: defeated.
    let mut board = MavrBoard::provision(&fw.image, 0x917, RandomizationPolicy::default()).unwrap();
    board.run(400_000).unwrap();
    let mut mal = GroundStation::new();
    board.uplink(&mal.exploit_packet(&payload).unwrap());
    board.run(4_000_000).unwrap();
    assert_ne!(
        board.app.machine.peek_range(layout::GYRO + 3, 3),
        vec![0xde, 0xad, 0x42]
    );
}

#[test]
fn synth_plane_randomizes_and_still_flies() {
    let fw = build(&apps::synth_plane(), &BuildOptions::safe_mavr()).unwrap();
    let mut rng = StdRng::seed_from_u64(2015);
    let r = mavr_repro::mavr::randomize(
        &fw.image,
        &mut rng,
        &mavr_repro::mavr::RandomizeOptions::default(),
    )
    .unwrap();
    // Patch accounting at paper scale.
    assert!(r.report.calls_patched > 250);
    assert!(r.report.trampolines_patched > 20);
    assert!(r.report.pointers_patched >= 8);
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &r.image.bytes);
    m.run(1_500_000);
    assert!(m.fault().is_none(), "{:?}", m.fault());
    assert!(m.heartbeat.toggles.len() >= 5);
}
