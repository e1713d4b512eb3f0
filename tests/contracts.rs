//! Cross-crate contracts: constants and formats that two crates must agree
//! on are pinned here so a drift in either side fails loudly.

use mavr_repro::avr_sim::{Machine, HEARTBEAT_BIT};
use mavr_repro::mavlink_lite::{crc_x25, msg, Parser};
use mavr_repro::synth_firmware::{apps, build, layout, BuildOptions};

#[test]
fn firmware_heartbeat_bit_matches_simulator() {
    // corefn.rs hardcodes the PORTB bit; the simulator watches
    // avr_sim::HEARTBEAT_BIT. If they diverge, the master never sees a
    // heartbeat. Verified behaviourally: the generated firmware's toggles
    // are visible to the simulator's monitor.
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &fw.image.bytes);
    m.run(500_000);
    assert!(
        m.heartbeat.toggles().len() >= 2,
        "firmware heartbeat must toggle PORTB bit {HEARTBEAT_BIT}"
    );
}

#[test]
fn firmware_crc_matches_protocol_crate() {
    // The AVR-assembly X25 implementation inside the firmware must agree
    // byte-for-byte with the Rust implementation in mavlink-lite, in both
    // directions.
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &fw.image.bytes);
    m.run(1_000_000);

    // UAV -> GCS: every transmitted frame parses with a valid checksum.
    let tx = m.uart0.take_tx();
    let mut parser = Parser::new();
    let frames = parser.push_all(&tx);
    assert!(!frames.is_empty());
    assert_eq!(parser.bad_checksums, 0);

    // GCS -> UAV: a frame checksummed by the Rust side is accepted by the
    // firmware's verifier.
    let mut gcs = mavr_repro::mavlink_lite::GroundStation::new();
    m.uart0.inject(&gcs.param_set(b"X", 1.0));
    m.run(1_000_000);
    assert_eq!(m.peek_data(layout::BAD_CRC_COUNT), 0);
    assert_eq!(m.peek_data(layout::PARAM_SET_COUNT), 1);
}

#[test]
fn attack_frame_constant_matches_firmware_layout() {
    // rop::attack hardcodes the handler frame size it reads "off the
    // prologue"; the firmware's layout is the source of truth. A drift
    // would silently break payload geometry, so pin it.
    let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    let ctx = mavr_repro::rop::attack::AttackContext::discover(&fw.image).unwrap();
    assert_eq!(
        ctx.sp_entry - ctx.y_frame,
        layout::HANDLER_FRAME + 3,
        "attack geometry must match the firmware frame"
    );
    assert_eq!(ctx.buffer, ctx.y_frame + 1);
}

#[test]
fn crc_extra_values_match_mavlink_v1() {
    // Both the Rust codec and the generated firmware embed these.
    assert_eq!(msg::crc_extra(msg::HEARTBEAT_ID), 50);
    assert_eq!(msg::crc_extra(msg::PARAM_SET_ID), 168);
    assert_eq!(msg::crc_extra(msg::RAW_IMU_ID), 144);
    assert_eq!(msg::crc_extra(msg::ATTITUDE_ID), 39);
    assert_eq!(msg::crc_extra(msg::COMMAND_LONG_ID), 152);
    // And the CRC primitive is the MCRF4XX variant.
    assert_eq!(crc_x25(b"123456789"), 0x6f91);
}

#[test]
fn memory_map_constants_are_consistent() {
    use mavr_repro::avr_core::device::ATMEGA2560;
    // Fig. 1 quantities.
    assert_eq!(ATMEGA2560.flash_bytes, 256 * 1024);
    assert_eq!(ATMEGA2560.eeprom_bytes, 4 * 1024);
    // Firmware globals live in SRAM, below the stack's working region.
    const { assert!(layout::SRAM_START >= ATMEGA2560.sram_start) };
    assert!(
        layout::FILLER_SCRATCH + 4 * layout::FILLER_SCRATCH_SLOTS < ATMEGA2560.ramend() - 4096,
        "at least 4 KiB of stack headroom"
    );
}

#[test]
fn sensor_addresses_flow_into_telemetry() {
    // layout::GYRO is both the attack target and the RAW_IMU source; poke
    // it from the host and watch it surface in telemetry.
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &fw.image.bytes);
    m.run(200_000);
    m.poke_data(layout::GYRO + 4, 0x5a); // gyro_z low byte
    m.poke_data(layout::GYRO + 5, 0x7f); // gyro_z high byte
    let _ = m.uart0.take_tx();
    m.run(400_000);
    let mut gcs = mavr_repro::mavlink_lite::GroundStation::new();
    gcs.ingest(&m.uart0.take_tx());
    let imu = gcs
        .received
        .iter()
        .rev()
        .find(|p| p.msgid == msg::RAW_IMU_ID)
        .map(|p| msg::RawImu::from_payload(p.msgid, &p.payload).unwrap())
        .expect("RAW_IMU frame");
    assert_eq!(imu.gyro[2], 0x7f5a);
}

#[test]
fn container_text_is_byte_stable_for_every_app() {
    // The container text is what the external flash stores and what the
    // master's footer CRC covers: its encoder may get faster, but its bytes
    // must not move. Length and CRC-32 per app of the vulnerable build,
    // under both toolchains: each has its own calibration size target.
    use mavr_repro::avr_asm::ToolchainOptions;
    use mavr_repro::mavr_board::ext_flash::crc32;
    let expected = [
        ("plane", (638_492, 0x1edd_1f1b), (639_395, 0xc8ed_4b84)),
        ("copter", (705_169, 0xa0b4_e8e8), (706_107, 0x58d7_143a)),
        ("rover", (514_112, 0xeb74_aab4), (515_229, 0x63e7_a293)),
        ("tiny", (14_452, 0x140d_e756), (13_417, 0xdff6_2978)),
        ("quad", (15_100, 0x7cfb_f67c), (14_162, 0xbe17_14f2)),
    ];
    let names: Vec<&str> = apps::APP_NAMES.split(", ").collect();
    assert_eq!(names, expected.map(|(name, _, _)| name));
    for (name, mavr, stock) in expected {
        for (toolchain, pinned) in [
            (ToolchainOptions::mavr(), mavr),
            (ToolchainOptions::stock(), stock),
        ] {
            let options = BuildOptions {
                toolchain,
                ..BuildOptions::vulnerable_mavr()
            };
            let fw = build(&apps::by_name(name).unwrap(), &options).unwrap();
            let text = mavr_repro::mavr::preprocess(&fw.image).unwrap().to_text();
            assert_eq!(
                (text.len(), crc32(text.as_bytes())),
                pinned,
                "{name}, relax = {}",
                toolchain.relax
            );
        }
    }
}
