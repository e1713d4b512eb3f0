//! Cross-crate contracts: constants and formats that two crates must agree
//! on are pinned here so a drift in either side fails loudly.

use std::sync::OnceLock;

use mavr_repro::avr_asm::ToolchainOptions;
use mavr_repro::avr_sim::{Machine, HEARTBEAT_BIT};
use mavr_repro::hexfile::MavrContainer;
use mavr_repro::mavlink_lite::{crc_x25, msg, Parser};
use mavr_repro::mavr::randomize::PatchReport;
use mavr_repro::mavr::{randomize, RandomizeError, RandomizeOptions, RandomizedImage};
use mavr_repro::mavr_board::ext_flash::crc32;
use mavr_repro::synth_firmware::{apps, build, layout, BuildOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        m.heartbeat.toggles.len() >= 2,
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

/// Every app's vulnerable build under MAVR's toolchain and the stock
/// (relaxed) one, preprocessed into the container the external flash
/// stores; built once and shared by the pins below.
struct AppBuilds {
    name: &'static str,
    mavr: MavrContainer,
    stock: MavrContainer,
}

fn app_builds() -> &'static [AppBuilds] {
    static BUILDS: OnceLock<Vec<AppBuilds>> = OnceLock::new();
    BUILDS.get_or_init(|| {
        apps::APP_NAMES
            .split(", ")
            .map(|name| {
                let container = |toolchain| {
                    let options = BuildOptions {
                        toolchain,
                        ..BuildOptions::vulnerable_mavr()
                    };
                    let fw = build(&apps::by_name(name).unwrap(), &options).unwrap();
                    mavr_repro::mavr::preprocess(&fw.image).unwrap()
                };
                AppBuilds {
                    name,
                    mavr: container(ToolchainOptions::mavr()),
                    stock: container(ToolchainOptions::stock()),
                }
            })
            .collect()
    })
}

#[test]
fn container_text_is_byte_stable_for_every_app() {
    // The container text is what the external flash stores and what the
    // master's footer CRC covers: its encoder may get faster, but its bytes
    // must not move. Length and CRC-32 per app of the vulnerable build,
    // under both toolchains: each has its own calibration size target.
    let expected = [
        ("plane", (638_492, 0x1edd_1f1b), (639_395, 0xc8ed_4b84)),
        ("copter", (705_169, 0xa0b4_e8e8), (706_107, 0x58d7_143a)),
        ("rover", (514_112, 0xeb74_aab4), (515_229, 0x63e7_a293)),
        ("tiny", (14_452, 0x140d_e756), (13_417, 0xdff6_2978)),
        ("quad", (15_100, 0x7cfb_f67c), (14_162, 0xbe17_14f2)),
    ];
    let builds = app_builds();
    assert_eq!(
        builds.iter().map(|b| b.name).collect::<Vec<_>>(),
        expected.map(|(name, _, _)| name)
    );
    for (b, (name, mavr, stock)) in builds.iter().zip(expected) {
        for (relax, container, pinned) in [(false, &b.mavr, mavr), (true, &b.stock, stock)] {
            let text = container.to_text();
            assert_eq!(
                (text.len(), crc32(text.as_bytes())),
                pinned,
                "{name}, relax = {relax}"
            );
        }
    }
}

/// CRC-32 over everything a randomization returns: the randomized bytes,
/// the permutation, the patch report and the symbol table.
fn randomized_digest(r: &RandomizedImage) -> u32 {
    let PatchReport {
        calls_patched,
        jumps_patched,
        trampolines_patched,
        pointers_patched,
    } = r.report;
    let mut buf = r.image.bytes.clone();
    let counts = [
        calls_patched,
        jumps_patched,
        trampolines_patched,
        pointers_patched,
    ];
    for n in r.permutation.iter().chain(&counts) {
        buf.extend_from_slice(&(*n as u32).to_le_bytes());
    }
    for s in &r.image.symbols {
        buf.extend_from_slice(s.name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&s.addr.to_le_bytes());
        buf.extend_from_slice(&s.size.to_le_bytes());
        buf.push(s.kind as u8);
    }
    crc32(&buf)
}

#[test]
fn randomizer_output_is_byte_stable_for_every_app() {
    // What the master programs at each boot is a pure function of the
    // stored image, the options and the RNG stream: the randomizer may get
    // faster, but none of its outputs may move. Seeds 1-8 of every app's
    // MAVR build, and what a stock (relaxed) build gets: the refusal by
    // default, and seed 1's broken image under `ignore_relaxed_branches`.
    let expected: [(&str, [u32; 8], u32, u32); 5] = [
        (
            "plane",
            [
                0x0a17_619c,
                0x90bc_3707,
                0xb66f_981e,
                0x2417_609f,
                0xded5_bc5c,
                0x22f3_90c9,
                0x13b5_cc57,
                0x4caf_6e6a,
            ],
            0x198,
            0x1af2_5e21,
        ),
        (
            "copter",
            [
                0x0310_863f,
                0xc88d_ac07,
                0x338d_a23e,
                0xf4ae_d452,
                0x9a56_cbea,
                0x3d59_4409,
                0x63b7_8db8,
                0xee67_5bb8,
            ],
            0x198,
            0x6b9d_c338,
        ),
        (
            "rover",
            [
                0xcfa1_54af,
                0x5b0a_71c5,
                0x29b1_8821,
                0x5f3e_5aad,
                0x715c_8900,
                0x76b9_7c44,
                0x74f8_23c4,
                0xaee5_1773,
            ],
            0x198,
            0x455d_6bc4,
        ),
        (
            "tiny",
            [
                0x0879_79d9,
                0x4679_c6e3,
                0x0ee7_c703,
                0x302d_c5b5,
                0x3c62_0afb,
                0x92d6_c514,
                0xdfce_b2c4,
                0xb0d4_0d7a,
            ],
            0x198,
            0xcf57_7d18,
        ),
        (
            "quad",
            [
                0x556c_99e7,
                0x8d68_90e0,
                0xec50_8b4e,
                0xab99_b554,
                0xc3be_bf3d,
                0x19db_dba8,
                0x2616_dd5d,
                0xfd0c_99de,
            ],
            0x19c,
            0xeb27_aa21,
        ),
    ];
    let default = RandomizeOptions::default();
    let forced = RandomizeOptions {
        ignore_relaxed_branches: true,
        ..default
    };
    let seeded = |container: &MavrContainer, seed, opts: &RandomizeOptions| {
        randomize(&container.image, &mut StdRng::seed_from_u64(seed), opts)
    };
    let builds = app_builds();
    assert_eq!(builds.len(), expected.len());
    for (b, (name, pins, pinned_refusal, pinned_forced)) in builds.iter().zip(expected) {
        assert_eq!(b.name, name);
        let digests: Vec<u32> = (1..=8u64)
            .map(|seed| randomized_digest(&seeded(&b.mavr, seed, &default).unwrap()))
            .collect();
        let refusal = match seeded(&b.stock, 1, &default) {
            Err(RandomizeError::RelaxedBranch { at }) => at,
            other => panic!("{}: stock build gave {other:?}", b.name),
        };
        assert_eq!(digests, pins, "{name}: seeds 1-8");
        assert_eq!(refusal, pinned_refusal, "{name}: relaxed-branch refusal");
        let forced = randomized_digest(&seeded(&b.stock, 1, &forced).unwrap());
        assert_eq!(forced, pinned_forced, "{name}: forced relaxed image");
    }
}
