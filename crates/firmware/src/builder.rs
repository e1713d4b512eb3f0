//! Assemble a complete application: core + fillers + rodata, linked and
//! calibrated to the paper's reported sizes.

use avr_asm::{link, AsmError, DataObject, Program, ToolchainOptions};
use avr_core::device::ATMEGA2560;
use avr_core::image::FirmwareImage;

use crate::{corefn, filler, AppSpec};

/// ATmega2560 interrupt vector count.
const N_VECTORS: usize = 57;

/// Functions that are not fillers: the 19 core functions, `busy_work`,
/// `run_tasks`, and `__bad_interrupt`. Flight builds add `adc_read` and
/// `flight_control` on top.
const NON_FILLER_FUNCTIONS: usize = 22;

fn non_filler_functions(spec: &AppSpec) -> usize {
    NON_FILLER_FUNCTIONS + if spec.flight { 2 } else { 0 }
}

/// Build-time options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Toolchain flags (stock vs MAVR custom toolchain, §VI-B1).
    pub toolchain: ToolchainOptions,
    /// Whether the PARAM_SET length check is disabled (the injected
    /// vulnerability of §IV-B).
    pub vulnerable: bool,
    /// Include a serial bootloader stub pinned at a fixed location. The
    /// paper warns (§VI-B4) that "as the software bootloader must sit at a
    /// fixed location, it provides targets for an ROP attack; in a
    /// production system, the hardware In-System Programming functionality
    /// … would be used instead". Off by default (the production
    /// configuration); turn on for the ablation.
    pub serial_bootloader: bool,
}

impl BuildOptions {
    /// MAVR toolchain with the injected vulnerability — the attack target.
    pub fn vulnerable_mavr() -> Self {
        BuildOptions {
            toolchain: ToolchainOptions::mavr(),
            vulnerable: true,
            serial_bootloader: false,
        }
    }

    /// MAVR toolchain, no vulnerability.
    pub fn safe_mavr() -> Self {
        BuildOptions {
            toolchain: ToolchainOptions::mavr(),
            vulnerable: false,
            serial_bootloader: false,
        }
    }

    /// Stock toolchain, no vulnerability.
    pub fn safe_stock() -> Self {
        BuildOptions {
            toolchain: ToolchainOptions::stock(),
            vulnerable: false,
            serial_bootloader: false,
        }
    }
}

/// A built application.
#[derive(Debug, Clone)]
pub struct FirmwareBuild {
    /// The linked image (with full symbol table — the pre-strip ELF view).
    pub image: FirmwareImage,
    /// The spec it was built from.
    pub spec: AppSpec,
    /// The options used.
    pub options: BuildOptions,
}

/// Build the application described by `spec` under `options`.
///
/// When the spec carries a calibration size target for the selected
/// toolchain, the filler ALU mass is scaled toward it and a
/// `__calibration_pad` rodata object tops the image up to the exact byte
/// count, so the harness regenerates the paper's Table III rows.
pub fn build(spec: &AppSpec, options: &BuildOptions) -> Result<FirmwareBuild, AsmError> {
    let target = if options.toolchain.relax {
        spec.stock_size
    } else {
        spec.mavr_size
    };
    assert!(
        spec.functions > non_filler_functions(spec) + filler::N_LADDER + 4,
        "spec.functions too small"
    );
    let n_fillers = spec.functions - non_filler_functions(spec);

    // First guess for the ALU mass per filler.
    let mut avg_body_words = match target {
        Some(t) => (((t as u64 * 88 / 100) / n_fillers as u64) / 2).clamp(8, 400) as u32,
        None => 16,
    };

    for _attempt in 0..4 {
        let mut program = assemble_program(spec, options, n_fillers, avg_body_words);
        let mut image = link(&program)?;
        if let Some(t) = target {
            let natural = image.code_size();
            if natural > t {
                // Overshot: scale the ALU mass down and retry.
                avg_body_words = ((u64::from(avg_body_words) * u64::from(t) * 85 / 100)
                    / u64::from(natural))
                .max(8) as u32;
                continue;
            }
            if natural < t {
                // 0xa5/0x5a filler, even length handled by the linker.
                let bytes = (0..t - natural)
                    .map(|i| if i % 2 == 0 { 0xa5 } else { 0x5a })
                    .collect();
                program
                    .rodata
                    .push(DataObject::new("__calibration_pad", bytes));
                image = link(&program)?;
                debug_assert_eq!(image.code_size(), t);
            }
        }
        return Ok(FirmwareBuild {
            image,
            spec: spec.clone(),
            options: *options,
        });
    }
    Err(AsmError::ImageTooLarge {
        required: 0,
        available: target.unwrap_or(0),
    })
}

fn assemble_program(
    spec: &AppSpec,
    options: &BuildOptions,
    n_fillers: usize,
    avg_body_words: u32,
) -> Program {
    let mut p = Program::new(ATMEGA2560, N_VECTORS);
    p.toolchain = options.toolchain;
    p.vectors[0] = Some("__init".to_string());
    p.vectors[avr_sim::timer::TIMER0_OVF_VECTOR as usize] = Some("timer0_ovf_isr".to_string());
    for f in corefn::core_functions(spec.vehicle_type, options.vulnerable, spec.flight) {
        p.push_function(f);
    }
    let fillers = filler::generate(n_fillers, spec.seed, options.toolchain, avg_body_words);
    for f in fillers.functions {
        p.push_function(f);
    }
    if options.serial_bootloader {
        // Define __bad_interrupt explicitly so the linker does not append
        // it *after* the pinned bootloader, which would split the movable
        // region.
        p.push_function(
            avr_asm::FnBuilder::new("__bad_interrupt")
                .insn(avr_core::Insn::Jmp { k: 0 })
                .build(),
        );
        p.push_function(corefn::serial_bootloader());
    }
    p.rodata.extend(fillers.rodata);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::layout as l;
    use avr_sim::{Machine, RunExit};
    use mavlink_lite::{msg, GroundStation};

    fn boot(fw: &FirmwareBuild) -> Machine {
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &fw.image.bytes);
        m
    }

    /// One main-loop iteration is comfortably under this budget.
    const LOOP_CYCLES: u64 = 60_000;

    #[test]
    fn tiny_app_links_and_counts_functions() {
        let spec = apps::tiny_test_app();
        let fw = build(&spec, &BuildOptions::vulnerable_mavr()).unwrap();
        fw.image.validate().unwrap();
        assert_eq!(fw.image.function_count(), spec.functions);
        assert!(fw.image.symbol("main_loop").is_some());
        assert!(fw.image.symbol("dispatch_table").is_some());
        assert!(!fw.image.fn_ptr_locs.is_empty());
    }

    #[test]
    fn firmware_runs_and_heartbeats() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let mut m = boot(&fw);
        let exit = m.run(20 * LOOP_CYCLES);
        assert_eq!(exit, RunExit::CyclesExhausted, "fault: {:?}", m.fault());
        assert!(
            m.heartbeat.toggles.len() >= 10,
            "only {} heartbeat toggles",
            m.heartbeat.toggles.len()
        );
    }

    #[test]
    fn telemetry_is_valid_mavlink() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(20 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        let tx = m.uart0.take_tx();
        assert!(!tx.is_empty());
        gcs.ingest(&tx);
        assert_eq!(gcs.bad_checksums(), 0, "firmware CRC must match spec CRC");
        assert!(gcs.heartbeats.len() >= 10);
        // RAW_IMU frames carry the gyro pattern: gyro[0] = lo(tick).
        let imu = gcs
            .received
            .iter()
            .rfind(|p| p.msgid == msg::RAW_IMU_ID)
            .expect("RAW_IMU telemetry");
        let raw = msg::RawImu::from_payload(imu.msgid, &imu.payload).unwrap();
        let tick = raw.time_usec as u16;
        assert_eq!(raw.gyro[0] as u16 & 0xff, u16::from((tick & 0xff) as u8));
    }

    #[test]
    fn benign_param_set_is_processed() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(2 * LOOP_CYCLES); // let it boot
        let mut gcs = GroundStation::new();
        m.uart0.inject(&gcs.param_set(b"RATE_RLL_P", 1.5f32));
        let exit = m.run(20 * LOOP_CYCLES);
        assert_eq!(exit, RunExit::CyclesExhausted, "fault: {:?}", m.fault());
        assert_eq!(m.peek_data(l::PARAM_SET_COUNT), 1, "handler dispatched");
        let v = f32::from_le_bytes([
            m.peek_data(l::PARAM_VALUE),
            m.peek_data(l::PARAM_VALUE + 1),
            m.peek_data(l::PARAM_VALUE + 2),
            m.peek_data(l::PARAM_VALUE + 3),
        ]);
        assert_eq!(v, 1.5);
    }

    #[test]
    fn command_long_dispatches_to_handler() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(2 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        m.uart0
            .inject(&gcs.command_long(400, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        m.uart0.inject(&gcs.command_long(400, [0.0; 7]));
        m.run(20 * LOOP_CYCLES);
        assert_eq!(m.peek_data(l::COMMAND_COUNT), 2, "both commands handled");
        assert_eq!(m.peek_data(l::BAD_CRC_COUNT), 0);
    }

    #[test]
    fn safe_build_survives_oversized_packet() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(2 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        let wire = gcs.exploit_packet(&[0x41; 200]).unwrap();
        m.uart0.inject(&wire);
        let exit = m.run(20 * LOOP_CYCLES);
        assert_eq!(exit, RunExit::CyclesExhausted, "fault: {:?}", m.fault());
        assert_eq!(m.peek_data(l::PARAM_SET_COUNT), 1);
    }

    #[test]
    fn vulnerable_build_crashes_on_naive_overflow() {
        // 0x41-filled payload overwrites the return address with garbage —
        // the pre-stealth failure mode the paper starts from.
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(2 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        let wire = gcs.exploit_packet(&[0x41; 200]).unwrap();
        m.uart0.inject(&wire);
        let exit = m.run(40 * LOOP_CYCLES);
        assert!(
            !exit.is_healthy(),
            "naive overflow must crash the vulnerable build"
        );
    }

    #[test]
    fn stock_toolchain_build_also_runs() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_stock()).unwrap();
        assert!(fw.image.symbol("__prologue_saves__").is_some());
        let mut m = boot(&fw);
        let exit = m.run(20 * LOOP_CYCLES);
        assert_eq!(exit, RunExit::CyclesExhausted, "fault: {:?}", m.fault());
        assert!(m.heartbeat.toggles.len() >= 10);
    }

    #[test]
    fn stock_is_smaller_than_mavr_naturally() {
        // Without calibration targets, relaxation + call-prologues shrink
        // the image — the reason the flags exist.
        let spec = apps::tiny_test_app();
        let stock = build(&spec, &BuildOptions::safe_stock()).unwrap();
        let mavr = build(&spec, &BuildOptions::safe_mavr()).unwrap();
        assert!(
            stock.image.code_size() < mavr.image.code_size(),
            "stock {} vs mavr {}",
            stock.image.code_size(),
            mavr.image.code_size()
        );
    }

    #[test]
    fn lying_length_field_cannot_crash_the_parser() {
        // A frame claiming more payload than it carries makes the state
        // machine consume following bytes; the checksum then fails, the
        // parser resyncs on the next magic byte, and later frames land.
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(2 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        let lying = gcs.malformed_packet(&[0xaa; 8], 200);
        m.uart0.inject(&lying);
        // Filler completes the lying frame's claimed 200-byte payload (the
        // parser consumes these as payload, then fails the checksum).
        m.uart0.inject(&[0x00; 220]);
        m.uart0.inject(&gcs.param_set(b"A", 1.0));
        m.uart0.inject(&gcs.param_set(b"B", 2.0));
        let exit = m.run(40 * LOOP_CYCLES);
        assert_eq!(exit, RunExit::CyclesExhausted, "fault: {:?}", m.fault());
        assert!(m.peek_data(l::BAD_CRC_COUNT) >= 1, "garbage frame dropped");
        assert!(m.peek_data(l::PARAM_SET_COUNT) >= 1, "parser resynced");
    }

    #[test]
    fn rtos_task_table_dispatches_every_round() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        assert!(fw.image.symbol("task_table").is_some());
        let mut m = boot(&fw);
        m.run(20 * LOOP_CYCLES);
        let ticks = m.peek_data(l::TASK_TICK);
        let loops = u16::from_le_bytes([m.peek_data(l::TICK), m.peek_data(l::TICK + 1)]);
        assert!(ticks > 0);
        // One beacon tick per loop; the 8-bit counter wraps, and the run
        // may stop between the tick increment and the scheduler call.
        let expected = (loops % 256) as u8;
        let diff = expected.wrapping_sub(ticks);
        assert!(diff <= 1, "beacon {ticks} vs loops {loops}");
    }

    #[test]
    fn params_persist_in_eeprom_across_reset() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(2 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        m.uart0.inject(&gcs.param_set(b"RATE_RLL_P", 2.25));
        m.run(20 * LOOP_CYCLES);
        assert_eq!(
            f32::from_le_bytes(m.eeprom.bytes[0..4].try_into().unwrap()),
            2.25,
            "handler persisted the parameter"
        );
        // Scrub the SRAM copy, reset, and boot: param_load restores it.
        for i in 0..4 {
            m.poke_data(l::PARAM_VALUE + i, 0);
        }
        m.reset();
        m.run(2 * LOOP_CYCLES);
        let restored = f32::from_le_bytes([
            m.peek_data(l::PARAM_VALUE),
            m.peek_data(l::PARAM_VALUE + 1),
            m.peek_data(l::PARAM_VALUE + 2),
            m.peek_data(l::PARAM_VALUE + 3),
        ]);
        assert_eq!(restored, 2.25, "EEPROM survives reset; SRAM copy restored");
    }

    #[test]
    fn sys_status_reports_the_papers_cpu_load() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(20 * LOOP_CYCLES);
        let mut gcs = GroundStation::new();
        gcs.ingest(&m.uart0.take_tx());
        assert_eq!(gcs.bad_checksums(), 0);
        let s = gcs.sys_status.last().expect("SYS_STATUS telemetry");
        assert_eq!(s.load, 960, "§III: ~96% CPU usage");
        assert_eq!(s.battery_remaining, 80);
        assert_eq!(s.sensors_present, 0x07);
        // Roughly one SYS_STATUS per 8 heartbeats.
        assert!(gcs.sys_status.len() >= gcs.heartbeats.len() / 10);
    }

    #[test]
    fn timer_isr_ticks_the_soft_clock() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = boot(&fw);
        m.run(20 * LOOP_CYCLES); // 1.2M cycles; overflow every 16384
        let clock =
            u16::from_le_bytes([m.peek_data(l::SOFT_CLOCK), m.peek_data(l::SOFT_CLOCK + 1)]);
        let expected = m.cycles() / 16_384;
        assert!(
            (i64::from(clock) - expected as i64).abs() <= 2,
            "soft clock {clock} vs ~{expected} overflows"
        );
    }

    #[test]
    fn serial_bootloader_is_pinned() {
        let mut opts = BuildOptions::safe_mavr();
        opts.serial_bootloader = true;
        let fw = build(&apps::tiny_test_app(), &opts).unwrap();
        let bl = fw.image.symbol("__bootloader").unwrap();
        assert_eq!(bl.kind, avr_core::image::SymbolKind::Fixed);
        // It is not counted among the randomizable functions.
        assert_eq!(fw.image.function_count(), apps::tiny_test_app().functions);
    }

    #[test]
    fn flight_app_drives_pwm_from_adc() {
        let spec = apps::synth_quad_flight();
        let fw = build(&spec, &BuildOptions::safe_mavr()).unwrap();
        assert_eq!(fw.image.function_count(), spec.functions);
        assert!(fw.image.symbol("flight_control").is_some());
        let mut m = boot(&fw);
        // Baro on channel 2: 60 counts after the 8-bit left-adjusted read
        // (40 below the 100-count setpoint); pitch-rate gyro on channel 0:
        // 136 (8 above center).
        m.adc.channels[2] = 60 << 2;
        m.adc.channels[0] = 136 << 2;
        let exit = m.run(20 * LOOP_CYCLES);
        assert_eq!(exit, RunExit::CyclesExhausted, "fault: {:?}", m.fault());
        // thrust = 140 + 2 * (100 - 60) = 220.
        assert_eq!(m.pwm.ocr0a, 220);
        // damping torque = -rate mod 256.
        assert_eq!(m.pwm.ocr0b, 136u8.wrapping_neg());
        // Altitude way above the setpoint rails the thrust to zero.
        m.adc.channels[2] = 250 << 2;
        m.run(20 * LOOP_CYCLES);
        assert_eq!(m.pwm.ocr0a, 0);
        // The trim global shifts the setpoint — the V2 coupling point.
        m.adc.channels[2] = 100 << 2;
        m.poke_data(l::ALT_TRIM, 30);
        m.run(20 * LOOP_CYCLES);
        assert_eq!(m.pwm.ocr0a, 200, "trim walks the thrust command");
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = apps::tiny_test_app();
        let a = build(&spec, &BuildOptions::vulnerable_mavr()).unwrap();
        let b = build(&spec, &BuildOptions::vulnerable_mavr()).unwrap();
        assert_eq!(a.image, b.image);
    }
}
