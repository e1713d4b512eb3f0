//! End-to-end integration: the full attack/defense lifecycle across every
//! crate, on a mid-sized application.

use mavr_repro::avr_sim::Machine;
use mavr_repro::mavlink_lite::GroundStation;
use mavr_repro::mavr::policy::RandomizationPolicy;
use mavr_repro::mavr_board::MavrBoard;
use mavr_repro::rop::attack::AttackContext;
use mavr_repro::rop::scanner;
use mavr_repro::synth_firmware::{build, layout, AppSpec, BuildOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn midsize_app() -> AppSpec {
    AppSpec {
        name: "MidSize",
        functions: 150,
        stock_size: None,
        mavr_size: None,
        seed: 0x150,
        vehicle_type: 2,
        flight: false,
    }
}

#[test]
fn full_attack_defense_lifecycle() {
    let fw = build(&midsize_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    assert_eq!(fw.image.function_count(), 150);

    // Phase 1 — attacker: static analysis + dry run on the unprotected
    // binary.
    let gadgets = scanner::scan(&fw.image, &scanner::ScanOptions::default());
    assert!(gadgets.len() > 100, "rich gadget population");
    let ctx = AttackContext::discover(&fw.image).unwrap();
    let payload = ctx
        .v2_payload(&[(layout::GYRO + 3, [0xca, 0xfe, 0x99])])
        .unwrap();

    // Phase 2 — the stealthy attack works on the unprotected UAV.
    let mut uav = Machine::new_atmega2560();
    uav.load_flash(0, &fw.image.bytes);
    uav.run(300_000);
    let mut gcs = GroundStation::new();
    uav.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
    uav.run(4_000_000);
    assert!(uav.fault().is_none(), "clean return on the unprotected UAV");
    assert_eq!(uav.peek_range(layout::GYRO + 3, 3), vec![0xca, 0xfe, 0x99]);
    gcs.ingest(&uav.uart0.take_tx());
    assert!(gcs.link_alive(20, 3), "operator sees nothing");

    // Phase 3 — the same payload against MAVR-protected boards: never
    // succeeds; keep drawing layouts until one attempt crashes visibly and
    // is recovered (roughly half do; 16 draws make a miss astronomically
    // unlikely).
    let mut detected = 0;
    for seed in 0..16u64 {
        let mut board =
            MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default()).unwrap();
        board.run(300_000).unwrap();
        let mut mal = GroundStation::new();
        board.uplink(&mal.exploit_packet(&payload).unwrap());
        board.run(6_000_000).unwrap();
        assert_ne!(
            board.app.machine.peek_range(layout::GYRO + 3, 3),
            vec![0xca, 0xfe, 0x99],
            "seed {seed}: randomization must defeat the attack"
        );
        if board.recoveries() > 0 {
            detected += 1;
            if detected >= 2 {
                break;
            }
        }
    }
    assert!(
        detected >= 1,
        "at least one failed attempt tripped the watchdog"
    );
}

#[test]
fn rebuilt_attack_against_known_permutation_succeeds() {
    // Sanity check on the security argument: randomization (not anything
    // else) is what stops the attack. An attacker who *knew* the permuted
    // image could re-derive a working payload.
    let fw = build(&midsize_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let r = mavr_repro::mavr::randomize(
        &fw.image,
        &mut rng,
        &mavr_repro::mavr::RandomizeOptions::default(),
    )
    .unwrap();

    // The omniscient attacker targets the randomized image directly.
    let ctx = AttackContext::discover(&r.image).unwrap();
    let payload = ctx
        .v2_payload(&[(layout::GYRO + 3, [0x0b, 0xad, 0x01])])
        .unwrap();
    let mut uav = Machine::new_atmega2560();
    uav.load_flash(0, &r.image.bytes);
    uav.run(300_000);
    let mut gcs = GroundStation::new();
    uav.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
    uav.run(4_000_000);
    assert!(uav.fault().is_none());
    assert_eq!(uav.peek_range(layout::GYRO + 3, 3), vec![0x0b, 0xad, 0x01]);
    // Which is why the readout-protection fuse matters: it is what keeps
    // the attacker from ever seeing the randomized image.
}

#[test]
fn container_survives_the_full_pipeline() {
    // firmware -> preprocess -> HEX text -> parse -> randomize -> run.
    let fw = build(&midsize_app(), &BuildOptions::safe_mavr()).unwrap();
    let container = mavr_repro::mavr::preprocess(&fw.image).unwrap();
    let text = container.to_text();
    let parsed = mavr_repro::hexfile::MavrContainer::parse(&text).unwrap();
    assert_eq!(parsed.image, fw.image);

    let mut rng = StdRng::seed_from_u64(3);
    let r = mavr_repro::mavr::randomize(
        &parsed.image,
        &mut rng,
        &mavr_repro::mavr::RandomizeOptions::default(),
    )
    .unwrap();
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &r.image.bytes);
    m.run(2_000_000);
    assert!(m.fault().is_none());
    assert!(m.heartbeat.toggles.len() > 10);
}

#[test]
fn v1_crash_attack_is_noticed_by_ground_station() {
    // The contrast that motivates stealth (§IV-C): after V1 the telemetry
    // stops, which an operator console immediately sees.
    let fw = build(&midsize_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    let ctx = AttackContext::discover(&fw.image).unwrap();
    let mut uav = Machine::new_atmega2560();
    uav.load_flash(0, &fw.image.bytes);
    uav.run(300_000);
    let mut gcs = GroundStation::new();
    gcs.ingest(&uav.uart0.take_tx());
    let packets_before = gcs.received.len();
    assert!(packets_before > 0);

    uav.uart0.inject(
        &gcs.exploit_packet(&ctx.v1_payload(layout::GYRO + 3, [1, 2, 3]))
            .unwrap(),
    );
    uav.run(8_000_000);
    assert!(uav.fault().is_some(), "V1 smashes the stack and crashes");
    assert_eq!(uav.peek_range(layout::GYRO + 3, 3), vec![1, 2, 3]);

    gcs.ingest(&uav.uart0.take_tx());
    let recent_heartbeats = gcs
        .received
        .iter()
        .rev()
        .take(5)
        .filter(|p| p.msgid == mavr_repro::mavlink_lite::msg::HEARTBEAT_ID)
        .count();
    // Telemetry flow ended shortly after the crash; the stream is finite
    // and stale.
    let drained = uav.uart0.take_tx();
    assert!(drained.is_empty(), "no more telemetry after the crash");
    let _ = recent_heartbeats;
}

#[test]
fn sensor_node_profile_gets_the_same_protection() {
    // §X future work: MAVR on other networked embedded systems. Same
    // pipeline, sensor-network profile.
    let spec = mavr_repro::synth_firmware::apps::synth_sensor_node();
    let fw = build(&spec, &BuildOptions::vulnerable_mavr()).unwrap();
    assert_eq!(fw.image.function_count(), 220);

    let ctx = AttackContext::discover(&fw.image).unwrap();
    let payload = ctx
        .v2_payload(&[(layout::GYRO + 3, [0x66, 0x77, 0x88])])
        .unwrap();

    // Works unprotected…
    let mut node = Machine::new_atmega2560();
    node.load_flash(0, &fw.image.bytes);
    node.run(300_000);
    let mut gcs = GroundStation::new();
    node.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
    node.run(4_000_000);
    assert!(node.fault().is_none());
    assert_eq!(node.peek_range(layout::GYRO + 3, 3), vec![0x66, 0x77, 0x88]);

    // …and fails against the MAVR board.
    let mut board = MavrBoard::provision(&fw.image, 3, RandomizationPolicy::default()).unwrap();
    board.run(300_000).unwrap();
    let mut mal = GroundStation::new();
    board.uplink(&mal.exploit_packet(&payload).unwrap());
    board.run(6_000_000).unwrap();
    assert_ne!(
        board.app.machine.peek_range(layout::GYRO + 3, 3),
        vec![0x66, 0x77, 0x88]
    );
}
