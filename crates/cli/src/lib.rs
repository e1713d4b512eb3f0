//! Command implementations behind the `mavr-cli` binary.
//!
//! Each subcommand is a function from parsed arguments to an output string,
//! so the whole surface is unit-testable without spawning processes. The
//! thin `src/bin/mavr.rs` wrapper does I/O and exit codes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use avr_core::image::FirmwareImage;
use hexfile::MavrContainer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synth_firmware::{apps, AppSpec, BuildOptions};

/// CLI errors, rendered to stderr by the binary.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage; the string is the message to print along with help.
    Usage(String),
    /// Anything that went wrong running the command.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

fn fail(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// Parsed `--key value` / flag arguments.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: std::collections::HashMap<String, String>,
    /// Bare `--flag`s.
    pub flags: std::collections::HashSet<String>,
}

/// Whether an option consumes the argument after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Takes {
    /// `--key value`, stored in [`Args::options`] under `--key`.
    Value,
    /// A bare `--flag`, stored in [`Args::flags`] without its dashes.
    Nothing,
}

/// Every option any command understands. Anything else that starts with
/// `-` is a usage error, so a misspelt option fails loudly instead of
/// being ignored.
const OPTIONS: &[(&str, Takes)] = &[
    ("-o", Takes::Value),
    ("--out", Takes::Value),
    ("--seed", Takes::Value),
    ("--cycles", Takes::Value),
    ("--max-insns", Takes::Value),
    ("--start", Takes::Value),
    ("--len", Takes::Value),
    ("--target", Takes::Value),
    ("--values", Takes::Value),
    ("--variant", Takes::Value),
    ("--toolchain", Takes::Value),
    ("--scenario", Takes::Value),
    ("--boards", Takes::Value),
    ("--loss", Takes::Value),
    ("--fault", Takes::Value),
    ("--threads", Takes::Value),
    ("--warmup", Takes::Value),
    ("--restore", Takes::Value),
    ("--digest", Takes::Value),
    ("--interval", Takes::Value),
    ("--checkpoint", Takes::Value),
    ("--max-jobs", Takes::Value),
    ("--metrics-out", Takes::Value),
    ("--top", Takes::Value),
    ("--folded", Takes::Value),
    ("--steps", Takes::Value),
    ("--tenant", Takes::Value),
    ("--socket", Takes::Value),
    ("--spec", Takes::Value),
    ("--dir", Takes::Value),
    ("--campaign", Takes::Value),
    ("--shard-jobs", Takes::Value),
    ("--deadline-s", Takes::Value),
    ("--store-fault", Takes::Value),
    ("--store-fault-seed", Takes::Value),
    ("--vulnerable", Takes::Nothing),
    ("--bootloader", Takes::Nothing),
    ("--verify", Takes::Nothing),
    ("--no-dedup", Takes::Nothing),
    ("--listing", Takes::Nothing),
    ("--progress", Takes::Nothing),
    ("--json", Takes::Nothing),
    ("--jsonl", Takes::Nothing),
    ("--no-fusion", Takes::Nothing),
    ("--physics", Takes::Nothing),
    ("--stdio", Takes::Nothing),
];

/// Split raw arguments into positionals, options and flags.
pub fn parse_args(raw: &[String]) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            args.positional.push(a.clone());
            continue;
        }
        match OPTIONS.iter().find(|(name, _)| name == a) {
            Some((_, Takes::Value)) => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{a} needs a value")))?;
                args.options.insert(a.clone(), v.clone());
            }
            Some((_, Takes::Nothing)) => {
                args.flags.insert(a.trim_start_matches('-').to_string());
            }
            None => return Err(CliError::Usage(format!("unknown option `{a}`"))),
        }
    }
    Ok(args)
}

fn app_by_name(name: &str) -> Result<AppSpec, CliError> {
    apps::by_name(name)
        .ok_or_else(|| CliError::Usage(format!("unknown app `{name}` ({})", apps::APP_NAMES)))
}

/// Load a firmware image from a MAVR container or plain Intel HEX file.
pub fn load_image(path: &str) -> Result<FirmwareImage, CliError> {
    let text = std::fs::read_to_string(path).map_err(fail)?;
    if text.lines().any(|l| l.starts_with(";MAVR")) {
        Ok(MavrContainer::parse(&text).map_err(fail)?.image)
    } else {
        let (base, bytes) = hexfile::parse_ihex(&text).map_err(fail)?;
        if base != 0 {
            return Err(CliError::Failed(format!(
                "image must load at 0, found base {base:#x}"
            )));
        }
        let len = bytes.len() as u32;
        Ok(FirmwareImage {
            device: avr_core::device::ATMEGA2560,
            bytes,
            symbols: Vec::new(),
            text_end: len,
            fn_ptr_locs: Vec::new(),
        })
    }
}

/// `mavr build <app> [--toolchain stock|mavr] [--vulnerable] [-o file]`
pub fn cmd_build(args: &Args) -> Result<String, CliError> {
    let name = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("build needs an app name".into()))?;
    let spec = app_by_name(name)?;
    let toolchain = match args.options.get("--toolchain").map(String::as_str) {
        None | Some("mavr") => avr_asm::ToolchainOptions::mavr(),
        Some("stock") => avr_asm::ToolchainOptions::stock(),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown toolchain `{other}` (stock, mavr)"
            )))
        }
    };
    let options = BuildOptions {
        toolchain,
        vulnerable: args.flags.contains("vulnerable"),
        serial_bootloader: args.flags.contains("bootloader"),
    };
    let fw = synth_firmware::build(&spec, &options).map_err(fail)?;
    let container = mavr::preprocess(&fw.image).map_err(fail)?;
    let text = container.to_text();
    let mut out = format!(
        "built {}: {} bytes, {} functions, {} pointer slots{}\n",
        spec.name,
        fw.image.code_size(),
        fw.image.function_count(),
        fw.image.fn_ptr_locs.len(),
        if options.vulnerable {
            " (VULNERABLE build)"
        } else {
            ""
        }
    );
    if let Some(path) = args.options.get("-o").or(args.options.get("--out")) {
        std::fs::write(path, &text).map_err(fail)?;
        out.push_str(&format!("wrote MAVR container to {path}\n"));
    } else {
        out.push_str("(pass -o FILE to write the MAVR container)\n");
    }
    Ok(out)
}

/// `mavr assemble <file.s> [-o FILE]` — assemble the `.s` dialect, link,
/// preprocess, and write a MAVR container.
pub fn cmd_assemble(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("assemble needs a source file".into()))?;
    let src = std::fs::read_to_string(path).map_err(fail)?;
    let program = avr_asm::parse_program(&src).map_err(fail)?;
    let image = avr_asm::link(&program).map_err(fail)?;
    let mut out = format!(
        "assembled {}: {} bytes, {} functions
",
        path,
        image.code_size(),
        image.function_count()
    );
    if let Some(dst) = args.options.get("-o").or(args.options.get("--out")) {
        let container = mavr::preprocess(&image).map_err(fail)?;
        std::fs::write(dst, container.to_text()).map_err(fail)?;
        out.push_str(&format!(
            "wrote MAVR container to {dst}
"
        ));
    }
    Ok(out)
}

/// `mavr info <file>`
pub fn cmd_info(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("info needs a file".into()))?;
    let img = load_image(path)?;
    let mut out = format!(
        "device      {}\ncode size   {} bytes\ntext end    {:#x}\nfunctions   {}\nsymbols     {}\nfn pointers {}\n",
        img.device.name,
        img.code_size(),
        img.text_end,
        img.function_count(),
        img.symbols.len(),
        img.fn_ptr_locs.len(),
    );
    if img.function_count() > 0 {
        out.push_str(&format!(
            "entropy     {:.0} bits (log2 n!)\n",
            mavr::math::entropy_bits(img.function_count() as u64)
        ));
    }
    Ok(out)
}

/// `mavr randomize <file> [--seed N] [-o file]`
pub fn cmd_randomize(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("randomize needs a container file".into()))?;
    let img = load_image(path)?;
    if img.function_count() == 0 {
        return Err(CliError::Failed(
            "no symbols — randomize needs a MAVR container, not plain HEX".into(),
        ));
    }
    let seed = parse_u64(args.options.get("--seed"), 0x2015)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let r = mavr::randomize(&img, &mut rng, &mavr::RandomizeOptions::default()).map_err(fail)?;
    let moved = img
        .functions()
        .filter(|s| r.image.symbol(&s.name).unwrap().addr != s.addr)
        .count();
    let mut out = format!(
        "randomized with seed {seed}: {moved}/{} functions moved\n",
        img.function_count()
    );
    if let Some(dst) = args.options.get("-o").or(args.options.get("--out")) {
        // The application processor receives a plain binary — write ihex.
        std::fs::write(dst, hexfile::write_ihex(&r.image.bytes, 0)).map_err(fail)?;
        out.push_str(&format!("wrote randomized Intel HEX to {dst}\n"));
    }
    if args.flags.contains("verify") {
        let mut m = avr_sim::Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        let exit = m.run(1_500_000);
        out.push_str(&format!(
            "verify: {exit:?}, {} heartbeat toggles\n",
            m.heartbeat.toggles.len()
        ));
        if m.fault().is_some() || m.heartbeat.toggles.len() < 5 {
            return Err(CliError::Failed(
                "verification failed: randomized image does not fly".into(),
            ));
        }
    }
    Ok(out)
}

/// `mavr survivors <original> <randomized>` — how many gadget addresses
/// from the original image still host the same gadget.
pub fn cmd_survivors(args: &Args) -> Result<String, CliError> {
    let (a, b) = match args.positional.as_slice() {
        [a, b, ..] => (a, b),
        _ => return Err(CliError::Usage("survivors needs two files".into())),
    };
    let orig = load_image(a)?;
    let rand = load_image(b)?;
    let opts = rop::ScanOptions::default();
    let total = rop::scan(
        &orig,
        &rop::ScanOptions {
            dedup: false,
            ..opts
        },
    )
    .len();
    let alive = rop::scanner::survivors(&orig, &rand, &opts);
    Ok(format!(
        "gadget start addresses: {total}; still valid after randomization: {alive} ({:.2}%)\n",
        100.0 * alive as f64 / total.max(1) as f64
    ))
}

/// `mavr scan <file> [--max-insns N] [--no-dedup]`
pub fn cmd_scan(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("scan needs a file".into()))?;
    let img = load_image(path)?;
    let opts = rop::ScanOptions {
        max_insns: parse_num(args.options.get("--max-insns"), 6)? as usize,
        dedup: !args.flags.contains("no-dedup"),
    };
    let gadgets = rop::scan(&img, &opts);
    let mut out = format!(
        "{} gadgets (max {} insns, dedup {})\n",
        gadgets.len(),
        opts.max_insns,
        opts.dedup
    );
    match rop::scanner::classify(&img) {
        Some(map) => {
            out.push_str(&format!(
                "stk_move at {:#x}, write_mem_gadget at {:#x} — attack-capable\n",
                map.stk_move, map.write_mem_std
            ));
        }
        None => out.push_str("paper gadget pair not found\n"),
    }
    if args.flags.contains("listing") {
        for g in gadgets.iter().take(25) {
            out.push_str(&g.listing());
            out.push('\n');
        }
    }
    Ok(out)
}

/// `mavr disasm <file> [--start ADDR] [--len BYTES]`
pub fn cmd_disasm(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("disasm needs a file".into()))?;
    let img = load_image(path)?;
    let start = parse_num(args.options.get("--start"), 0)?;
    let len = parse_num(args.options.get("--len"), 64)?;
    let mut out = String::new();
    for line in avr_core::disasm::disassemble(&img.bytes, start, len) {
        if let Some(sym) = img.symbol_containing(line.addr) {
            if sym.addr == line.addr {
                out.push_str(&format!("\n<{}>:\n", sym.name));
            }
        }
        out.push_str(&format!("{line}\n"));
    }
    Ok(out)
}

/// A `u64` option, decimal or `0x` hex, or `default` when absent.
fn parse_u64(v: Option<&String>, default: u64) -> Result<u64, CliError> {
    let Some(s) = v else { return Ok(default) };
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| CliError::Usage(format!("bad number `{s}`")))
}

/// A `u32` option, read like [`parse_u64`].
fn parse_num(v: Option<&String>, default: u32) -> Result<u32, CliError> {
    u32::try_from(parse_u64(v, default.into())?)
        .map_err(|_| CliError::Usage(format!("bad number `{}`", v.map_or("", String::as_str))))
}

/// A `u64` option read like [`parse_u64`], or `None` when absent.
fn opt_u64(args: &Args, name: &str) -> Result<Option<u64>, CliError> {
    args.options
        .get(name)
        .map(|v| parse_u64(Some(v), 0))
        .transpose()
}

/// `--tenant N`: the campaign's seed namespace, when given.
fn tenant(args: &Args) -> Result<Option<u64>, CliError> {
    opt_u64(args, "--tenant")
}

/// `--max-jobs N`: how many jobs one invocation runs, when given.
fn max_jobs(args: &Args) -> Result<Option<usize>, CliError> {
    let bad = |n| CliError::Usage(format!("bad number `{n}`"));
    opt_u64(args, "--max-jobs")?
        .map(|n| usize::try_from(n).map_err(|_| bad(n)))
        .transpose()
}

/// `mavr simulate <file> [--cycles N]`
pub fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("simulate needs a file".into()))?;
    let img = load_image(path)?;
    let cycles = parse_u64(args.options.get("--cycles"), 2_000_000)?;
    let mut m = avr_sim::Machine::new_atmega2560();
    m.load_flash(0, &img.bytes);
    let exit = m.run(cycles);
    let mut gcs = mavlink_lite::GroundStation::new();
    gcs.ingest(&m.uart0.take_tx());
    Ok(format!(
        "ran {} cycles ({:.1} ms at 16 MHz)\nexit        {:?}\nheartbeats  {} toggles on the pin, {} MAVLink heartbeats decoded\npackets     {} total, {} checksum errors\n",
        m.cycles(),
        m.cycles() as f64 / 16_000.0,
        exit,
        m.heartbeat.toggles.len(),
        gcs.heartbeats.len(),
        gcs.received.len(),
        gcs.bad_checksums(),
    ))
}

/// `mavr profile <file> [--cycles N] [--top N] [--folded FILE]`
///
/// Run the image under the cycle-attributed profiler: every simulated
/// cycle is charged to the function whose code executed it, with a shadow
/// call stack tracking inclusive time through calls, returns, interrupts
/// and lateral (tail-jump / ROP-style) transfers. Prints a table of the
/// hottest functions by exclusive cycles; `--folded FILE` writes
/// collapsed call stacks (`frame;frame cycles` lines) ready for any
/// flamegraph renderer.
pub fn cmd_profile(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("profile needs a file".into()))?;
    let img = load_image(path)?;
    if img.function_count() == 0 {
        return Err(CliError::Usage(
            "no symbols — profile needs a MAVR container, not plain HEX".into(),
        ));
    }
    let cycles = parse_u64(args.options.get("--cycles"), 2_000_000)?;
    let top = parse_num(args.options.get("--top"), 10)? as usize;
    let mut m = avr_sim::Machine::new_atmega2560();
    m.load_flash(0, &img.bytes);
    m.enable_cycle_profile(&img);
    let exit = m.run(cycles);
    let profile = m
        .take_cycle_profile()
        .expect("profiler was enabled before run");
    let mut out = format!(
        "profiled {} cycles ({:.1} ms at 16 MHz), exit {:?}\n\n",
        m.cycles(),
        m.cycles() as f64 / 16_000.0,
        exit,
    );
    let total = profile.total_cycles().max(1);
    out.push_str(&format!(
        "{:<28} {:>12} {:>7}  {:>12}\n",
        "FUNCTION", "EXCLUSIVE", "EXCL%", "INCLUSIVE"
    ));
    for f in profile.functions().iter().take(top.max(1)) {
        out.push_str(&format!(
            "{:<28} {:>12} {:>6.1}%  {:>12}\n",
            f.name,
            f.exclusive,
            100.0 * f.exclusive as f64 / total as f64,
            f.inclusive,
        ));
    }
    if profile.folded_dropped_cycles() > 0 {
        out.push_str(&format!(
            "\n({} cycles in call paths beyond the folded-stack cap)\n",
            profile.folded_dropped_cycles()
        ));
    }
    if let Some(folded_path) = args.options.get("--folded") {
        std::fs::write(folded_path, profile.folded()).map_err(fail)?;
        out.push_str(&format!("\nwrote folded stacks to {folded_path}\n"));
    }
    Ok(out)
}

/// `mavr attack <file> --target ADDR --values a,b,c [--variant v1|v2]`
pub fn cmd_attack(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("attack needs a container file".into()))?;
    let img = load_image(path)?;
    let target = parse_num(
        args.options.get("--target"),
        u32::from(synth_firmware::layout::GYRO + 3),
    )? as u16;
    let values: Vec<u8> = args
        .options
        .get("--values")
        .map(String::as_str)
        .unwrap_or("de,ad,42")
        .split(',')
        .map(|s| u8::from_str_radix(s.trim(), 16))
        .collect::<Result<_, _>>()
        .map_err(|_| CliError::Usage("bad --values (hex bytes, comma separated)".into()))?;
    if values.len() != 3 {
        return Err(CliError::Usage("--values needs exactly 3 bytes".into()));
    }
    let vals = [values[0], values[1], values[2]];
    let ctx = rop::attack::AttackContext::discover(&img).map_err(fail)?;
    let payload = match args.options.get("--variant").map(String::as_str) {
        Some("v1") => ctx.v1_payload(target, vals),
        None | Some("v2") => ctx.v2_payload(&[(target, vals)]).map_err(fail)?,
        Some(other) => return Err(CliError::Usage(format!("unknown variant `{other}`"))),
    };
    let mut gcs = mavlink_lite::GroundStation::new();
    let wire = gcs.exploit_packet(&payload).map_err(fail)?;
    let hex: Vec<String> = wire.iter().map(|b| format!("{b:02x}")).collect();
    Ok(format!(
        "gadgets: stk_move {:#x}, write_mem {:#x}\nbuffer {:#06x}, original ret {:02x?}\npayload {} bytes, wire {} bytes\n{}\n",
        ctx.gadgets.stk_move,
        ctx.gadgets.write_mem_std,
        ctx.buffer,
        ctx.orig_ret,
        payload.len(),
        wire.len(),
        hex.join("")
    ))
}

/// `mavr trace [--scenario boot|clean-attack|stealthy-attack] [--seed N]
/// [--cycles N] [--out FILE]`
///
/// Run a canned scenario with the flight recorder attached, dump the event
/// stream as JSON lines (to `--out` when given), and print a per-kind
/// summary table. Attack scenarios end with the post-mortem crash
/// narrative, attributing the dead machine's final PCs to functions and
/// attacker gadgets.
pub fn cmd_trace(args: &Args) -> Result<String, CliError> {
    use mavr::policy::RandomizationPolicy;
    use mavr_board::MavrBoard;
    use telemetry::{Recorder, RingRecorder, Telemetry, Value};

    let scenario = args
        .options
        .get("--scenario")
        .map(String::as_str)
        .unwrap_or("stealthy-attack");
    let seed = parse_u64(args.options.get("--seed"), 0x2015)?;
    let cycles = parse_u64(args.options.get("--cycles"), 3_000_000)?;
    let fw = synth_firmware::build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
        .map_err(fail)?;

    let t = Telemetry::new(RingRecorder::new(4096));
    let mut narrative = String::new();

    match scenario {
        "boot" => {
            // Provision lifecycle: container read -> randomize -> stream ->
            // program -> watchdog arm, then a quiet flight and a reboot.
            let mut board = MavrBoard::provision_with(
                &fw.image,
                seed,
                RandomizationPolicy::default(),
                t.clone(),
            )
            .map_err(fail)?;
            board.run(cycles).map_err(fail)?;
            board.reboot().map_err(fail)?;
            narrative.push_str(&format!(
                "boot scenario: {} boots, {} recoveries, app at cycle {}\n",
                board.master.boot_count(),
                board.recoveries(),
                board.app.machine.cycles()
            ));
        }
        "clean-attack" => {
            // The paper's V2 against an UNPROTECTED machine: injection,
            // clean return, telemetry keeps flowing.
            let ctx = rop::attack::AttackContext::discover_with(&fw.image, &t).map_err(fail)?;
            let target = synth_firmware::layout::GYRO + 3;
            let payload = ctx
                .v2_payload(&[(target, [0xde, 0xad, 0x42])])
                .map_err(fail)?;
            let mut m = avr_sim::Machine::new_atmega2560();
            m.telemetry = t.clone();
            m.enable_trace(64);
            m.load_flash(0, &fw.image.bytes);
            let _ = m.run(300_000);
            let mut gcs = mavlink_lite::GroundStation::new();
            let wire = gcs.exploit_packet(&payload).map_err(fail)?;
            let (len, cycle) = (wire.len(), m.cycles());
            t.emit("attack.injected", Some(cycle), || {
                vec![
                    ("variant", Value::Str("v2".into())),
                    ("wire_bytes", Value::U64(len as u64)),
                    ("target", Value::U64(u64::from(target))),
                ]
            });
            m.uart0.inject(&wire);
            let _ = m.run(cycles);
            let overwritten = m.peek_range(target, 3) == [0xde, 0xad, 0x42];
            let clean = m.fault().is_none();
            t.emit(
                if clean {
                    "attack.clean_return"
                } else {
                    "attack.crash"
                },
                Some(m.cycles()),
                || {
                    vec![
                        ("overwrote_target", Value::Bool(overwritten)),
                        ("heartbeats", Value::U64(m.heartbeat.toggles.len() as u64)),
                    ]
                },
            );
            let report = avr_sim::CrashReport::capture(&m, Some(&fw.image), &ctx.annotations());
            narrative.push_str(&format!(
                "clean-attack scenario: target overwritten = {overwritten}, machine {}\n\n",
                if clean { "still flying" } else { "CRASHED" }
            ));
            narrative.push_str(&report.narrative());
        }
        "stealthy-attack" => {
            // Full defense. The interesting run is one where the chain,
            // landing in re-randomized code, visibly crashes the machine and
            // the master recovers — quietly find a board seed that produces
            // that (the master's RNG is deterministic per seed), then replay
            // it with the recorder attached.
            let ctx = rop::attack::AttackContext::discover(&fw.image).map_err(fail)?;
            let target = synth_firmware::layout::GYRO + 3;
            let payload = ctx
                .v2_payload(&[(target, [0xde, 0xad, 0x42])])
                .map_err(fail)?;
            let mut gcs = mavlink_lite::GroundStation::new();
            let wire = gcs.exploit_packet(&payload).map_err(fail)?;
            let attack_round = |board: &mut MavrBoard| -> Result<(), CliError> {
                board.run(300_000).map_err(fail)?;
                board.uplink(&wire);
                board.run(cycles.max(4_000_000)).map_err(fail)?;
                Ok(())
            };
            let mut chosen = None;
            for probe in 0..32u64 {
                let s = seed.wrapping_add(probe);
                let mut board = MavrBoard::provision(&fw.image, s, RandomizationPolicy::default())
                    .map_err(fail)?;
                attack_round(&mut board)?;
                if board.recoveries() >= 1 {
                    let faulted = board.last_crash.as_ref().is_some_and(|c| c.fault.is_some());
                    if chosen.is_none() || faulted {
                        chosen = Some(s);
                    }
                    if faulted {
                        break;
                    }
                }
            }
            let s = chosen.ok_or_else(|| {
                CliError::Failed("no probed seed produced a detected failed attack".into())
            })?;
            let ctx = rop::attack::AttackContext::discover_with(&fw.image, &t).map_err(fail)?;
            let mut board =
                MavrBoard::provision_with(&fw.image, s, RandomizationPolicy::default(), t.clone())
                    .map_err(fail)?;
            board.forensic_annotations = ctx.annotations();
            board.run(300_000).map_err(fail)?;
            let (len, cycle) = (wire.len(), board.app.machine.cycles());
            t.emit("attack.injected", Some(cycle), || {
                vec![
                    ("variant", Value::Str("v2".into())),
                    ("wire_bytes", Value::U64(len as u64)),
                    ("target", Value::U64(u64::from(target))),
                ]
            });
            board.uplink(&wire);
            board.run(cycles.max(4_000_000)).map_err(fail)?;
            let overwritten = board.app.machine.peek_range(target, 3) == [0xde, 0xad, 0x42];
            narrative.push_str(&format!(
                "stealthy-attack scenario (board seed {s}): attack succeeded = {overwritten}, \
                 recoveries = {}\n\n",
                board.recoveries()
            ));
            match &board.last_crash {
                Some(crash) => narrative.push_str(&crash.narrative()),
                None => narrative.push_str("no recovery occurred (attack soft-landed)\n"),
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown scenario `{other}` (boot, clean-attack, stealthy-attack)"
            )))
        }
    }

    let (jsonl, kinds, total, dropped) = t
        .with_recorder::<RingRecorder, _>(|r| {
            let kinds: Vec<(String, u64)> = r
                .histogram()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            (r.to_jsonl(), kinds, r.events_emitted(), r.dropped())
        })
        .expect("trace recorder is a ring");

    let mut out = String::new();
    if let Some(path) = args.options.get("-o").or(args.options.get("--out")) {
        std::fs::write(path, &jsonl).map_err(fail)?;
        out.push_str(&format!(
            "wrote {total} events to {path} ({dropped} dropped from the ring)\n\n"
        ));
    }
    out.push_str(&format!("{:<24} {:>8}\n", "event kind", "count"));
    for (kind, count) in &kinds {
        out.push_str(&format!("{kind:<24} {count:>8}\n"));
    }
    out.push_str(&format!("{:<24} {total:>8}\n\n", "total"));
    out.push_str(&narrative);
    Ok(out)
}

/// Deterministic one-line JSON digest of a machine's full state — two
/// machines produce the same digest iff they are architecturally identical
/// (SRAM and flash are folded through CRC-32).
fn state_digest(m: &avr_sim::Machine) -> String {
    let state = m.capture_state();
    format!(
        "{{\"pc\":{},\"cycles\":{},\"insns_retired\":{},\"interrupts_taken\":{},\
         \"fault\":\"{:?}\",\"sram_crc\":{},\"flash_crc\":{},\"heartbeat_toggles\":{}}}\n",
        u64::from(state.pc) * 2,
        state.cycles,
        state.insns_retired,
        state.interrupts_taken,
        state.fault,
        mavr_snapshot::crc32(&state.data),
        mavr_snapshot::crc32(&state.flash),
        state.heartbeat.toggles.len(),
    )
}

/// `mavr snapshot <file> [--cycles N] [--restore SNAP] [-o SNAP]
/// [--digest FILE]`
///
/// Run an image on the simulator up to an absolute cycle target
/// (`--cycles`, default 2,000,000), optionally resuming from a snapshot
/// written by an earlier invocation (`--restore`). `-o` writes the final
/// machine state as a CRC-guarded snapshot blob; `--digest` writes a
/// deterministic state digest. Because `--cycles` is an absolute target,
/// splitting a run across a save/restore pair produces the same digest as
/// running uninterrupted.
pub fn cmd_snapshot(args: &Args) -> Result<String, CliError> {
    use mavr_snapshot::{decode_machine, encode_machine};

    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("snapshot needs an image file".into()))?;
    let img = load_image(path)?;
    let target = parse_u64(args.options.get("--cycles"), 2_000_000)?;
    let mut m = avr_sim::Machine::new_atmega2560();
    m.load_flash(0, &img.bytes);
    let resumed = if let Some(snap) = args.options.get("--restore") {
        let blob = std::fs::read(snap).map_err(fail)?;
        let state = decode_machine(&blob).map_err(fail)?;
        // A well-formed blob can still hold another device's memories:
        // refuse it here rather than let `restore_state` panic.
        let have = (state.flash.len(), state.data.len());
        let want = (m.flash().len(), usize::from(m.device().ramend()) + 1);
        if have != want {
            return Err(CliError::Failed(format!(
                "{snap}: snapshot holds {} flash and {} data-space bytes, \
                 this machine has {} and {}",
                have.0, have.1, want.0, want.1
            )));
        }
        m.restore_state(&state);
        true
    } else {
        false
    };
    let exit = m.run(target.saturating_sub(m.cycles()));
    let mut out = format!(
        "{} to cycle {target}: {exit:?} at cycle {}, pc {:#06x}, {} heartbeat toggles\n",
        if resumed { "resumed" } else { "ran" },
        m.cycles(),
        m.pc_bytes(),
        m.heartbeat.toggles.len(),
    );
    if let Some(dst) = args.options.get("-o").or(args.options.get("--out")) {
        let blob = encode_machine(&m.capture_state());
        std::fs::write(dst, &blob).map_err(fail)?;
        out.push_str(&format!(
            "wrote machine snapshot to {dst} ({} bytes)\n",
            blob.len()
        ));
    }
    if let Some(dst) = args.options.get("--digest") {
        std::fs::write(dst, state_digest(&m)).map_err(fail)?;
        out.push_str(&format!("wrote state digest to {dst}\n"));
    }
    Ok(out)
}

/// `mavr replay [--seed N] [--cycles N] [--interval N] [-o SNAP]`
///
/// The paper's §V question, answered by time travel: fly the V2 stealthy
/// exploit (built against the published stock layout) into both a stock
/// build and a MAVR-randomized variant of it, record keyframe timelines of
/// both runs, and bisect to the exact first cycle where the randomized
/// execution departs from the stock one — the moment the attacker's
/// hard-coded gadget addresses stopped matching reality. Prints the
/// divergence, then the randomized machine's post-mortem crash report with
/// the divergence cycle attached; `-o` also writes the last keyframe
/// before the divergence as a reloadable snapshot.
pub fn cmd_replay(args: &Args) -> Result<String, CliError> {
    use mavr_snapshot::{bisect_divergence, Timeline};

    let seed = parse_u64(args.options.get("--seed"), 0x2015)?;
    let cycles = parse_u64(args.options.get("--cycles"), 4_000_000)?;
    let interval = u64::from(parse_num(args.options.get("--interval"), 250_000)?);

    let fw = synth_firmware::build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
        .map_err(fail)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let r =
        mavr::randomize(&fw.image, &mut rng, &mavr::RandomizeOptions::default()).map_err(fail)?;

    // The exploit an attacker holding the published image would send:
    // gadget addresses from the STOCK layout.
    let ctx = rop::attack::AttackContext::discover(&fw.image).map_err(fail)?;
    let target = synth_firmware::layout::GYRO + 3;
    let payload = ctx
        .v2_payload(&[(target, [0xde, 0xad, 0x42])])
        .map_err(fail)?;
    let mut gcs = mavlink_lite::GroundStation::new();
    let wire = gcs.exploit_packet(&payload).map_err(fail)?;

    // Identical flight plans for both layouts: warm up, inject the same
    // wire bytes (with a keyframe marking the injection so it replays),
    // fly on.
    let fly = |bytes: &[u8]| {
        let mut m = avr_sim::Machine::new_atmega2560();
        m.load_flash(0, bytes);
        let mut tl = Timeline::new(interval);
        tl.record(&mut m, 300_000);
        m.uart0.inject(&wire);
        tl.mark(&mut m);
        tl.record(&mut m, cycles);
        (m, tl)
    };
    let (mut stock_m, mut stock_tl) = fly(&fw.image.bytes);
    let (mut rand_m, mut rand_tl) = fly(&r.image.bytes);

    let mut out = format!(
        "stock:      {} keyframes, final cycle {}, fault {:?}\n\
         randomized: {} keyframes, final cycle {}, fault {:?}\n",
        stock_tl.keyframes().len(),
        stock_m.cycles(),
        stock_m.fault(),
        rand_tl.keyframes().len(),
        rand_m.cycles(),
        rand_m.fault(),
    );

    let Some(d) = bisect_divergence(
        &mut stock_tl,
        &mut stock_m,
        &fw.image,
        &mut rand_tl,
        &mut rand_m,
        &r.image,
    ) else {
        out.push_str("no divergence: both layouts executed equivalently\n");
        return Ok(out);
    };
    let name_at = |img: &FirmwareImage, pc: u32| match img.symbol_containing(pc) {
        Some(s) => format!("{}+{:#x}", s.name, pc - s.addr),
        None => "?".into(),
    };
    out.push_str(&format!(
        "first divergence at cycle {}\n  stock      pc {:#06x} in {}\n  randomized pc {:#06x} in {}\n",
        d.cycle,
        d.stock_pc,
        name_at(&fw.image, d.stock_pc),
        d.randomized_pc,
        name_at(&r.image, d.randomized_pc),
    ));

    // Fly the randomized machine on from the divergence point and
    // post-mortem it with the divergence evidence attached.
    let _ = rand_m.run(cycles);
    let mut report = avr_sim::CrashReport::capture(&rand_m, Some(&r.image), &ctx.annotations());
    report.divergence_cycle = Some(d.cycle);
    if let Some(dst) = args.options.get("-o").or(args.options.get("--out")) {
        if let Some(kf) = rand_tl
            .keyframes()
            .iter()
            .rev()
            .find(|k| k.cycles <= d.cycle)
        {
            let blob = mavr_snapshot::encode_machine(kf);
            std::fs::write(dst, &blob).map_err(fail)?;
            report.snapshot_ref = Some(dst.clone());
            out.push_str(&format!(
                "wrote pre-divergence snapshot (cycle {}) to {dst} ({} bytes)\n",
                kf.cycles,
                blob.len()
            ));
        }
    }
    out.push('\n');
    out.push_str(&report.narrative());
    Ok(out)
}

/// `mavr fleet [app] [--boards N] [--scenario LIST|all] [--loss L1,L2,..]
/// [--seed N] [--warmup N] [--cycles N] [--threads N]
/// [--checkpoint FILE] [--max-jobs N] [--json | --jsonl] [-o FILE]`
///
/// Run a many-UAV campaign: `scenarios × loss levels × boards` independent
/// boards over deterministic lossy links, aggregated into a
/// `CampaignReport`. The same arguments always produce byte-identical
/// `--json` output, regardless of `--threads`.
///
/// With `--checkpoint FILE`, completed jobs are persisted to `FILE` and a
/// rerun with the same arguments resumes where the last run stopped
/// (`--max-jobs` caps how many jobs one invocation flies); the stitched
/// report is byte-identical to an uninterrupted run's. `--jsonl -o FILE`
/// streams each outcome line as its board finishes, after the lines the
/// checkpoint already holds, so a resumed run's file is an uninterrupted
/// run's too.
pub fn cmd_fleet(args: &Args) -> Result<String, CliError> {
    run_campaign_cmd(args, vec![0.0])
}

/// The fault-rate sweep `mavr chaos` runs when `--fault` is not given:
/// a clean baseline plus rates spanning "occasional retry" to "degraded
/// boots and the odd brick".
pub const DEFAULT_FAULT_SWEEP: &[f64] = &[0.0, 0.00005, 0.0001, 0.0002, 0.0005];

/// `mavr chaos [app] [--fault F1,F2,..] [... same options as fleet]`
///
/// A fleet campaign with fault injection wired through every board's
/// recovery pipeline: external-flash bit rot and stuck bytes, reflash
/// stream corruption (bit flips, dropped / duplicated / reordered
/// frames, truncation), and power loss mid-reflash. Sweeps the
/// `--fault` rates (default [`DEFAULT_FAULT_SWEEP`]) as an extra matrix
/// axis and reports reflash-retry, degraded-boot and brick rates per
/// cell. `--fault 0` reproduces `fleet` output byte-for-byte.
pub fn cmd_chaos(args: &Args) -> Result<String, CliError> {
    run_campaign_cmd(args, DEFAULT_FAULT_SWEEP.to_vec())
}

/// The `--dir DIR` campaign root every service subcommand operates under.
fn campaign_root(args: &Args) -> Result<std::path::PathBuf, CliError> {
    args.options
        .get("--dir")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| CliError::Usage("needs --dir DIR (the campaign root)".into()))
}

/// Read a campaign spec file and apply the `--shard-jobs` / `--tenant`
/// command-line overrides.
fn load_spec(args: &Args, path: &str) -> Result<mavr_campaignd::CampaignSpec, CliError> {
    let text = std::fs::read_to_string(path).map_err(fail)?;
    let mut spec = mavr_campaignd::CampaignSpec::from_json(&text).map_err(CliError::Usage)?;
    if let Some(n) = opt_u64(args, "--shard-jobs")? {
        // Clamped like the spec key: a 0-job shard plan divides by zero.
        spec.shard_jobs = n.max(1);
    }
    if let Some(t) = tenant(args)? {
        spec.tenant = t;
    }
    Ok(spec)
}

/// `mavr serve --dir DIR (--spec FILE | --socket PATH | --stdio)`
///
/// The campaign service. `--spec FILE` is the one-shot mode: submit the
/// spec (idempotently) and run it to completion — or to the `--max-jobs`
/// budget, or to Ctrl-C, either of which flushes valid shard checkpoints
/// that the next identical invocation resumes. A completed one-shot run
/// auto-merges the report. `--socket PATH` serves the ND-JSON control
/// protocol on a Unix socket and runs pending shards while it answers
/// (it scans the root at start and after each submit, so a campaign
/// written into a live root with `submit --dir` waits for the next submit
/// or restart); `--stdio` serves the same protocol on stdin/stdout (no background
/// work — drive it with explicit `run` requests).
///
/// Supervision knobs (all modes): `--deadline-s N` trips the cooperative
/// interrupt after a wall-clock budget — checkpoints flush, the run
/// reports `interrupted`, and the process exits 0, exactly like Ctrl-C.
/// `--store-fault RATE` (with `--store-fault-seed N`) routes every
/// durable store write through the seeded disk-fault injector — the
/// chaos harness behind the robustness CI job.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use mavr_campaignd::{merge_store, CampaignSession, CampaignStore, FaultFs, Service};
    let root = campaign_root(args)?;
    let interrupt = mavr_campaignd::signal::install();

    let fault_fs = match args.options.get("--store-fault") {
        None => FaultFs::none(),
        Some(v) => {
            let rate: f64 = v
                .parse()
                .ok()
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or_else(|| CliError::Usage("bad --store-fault (probability 0..=1)".into()))?;
            FaultFs::seeded(parse_u64(args.options.get("--store-fault-seed"), 0)?, rate)
        }
    };
    if let Some(secs) = opt_u64(args, "--deadline-s")? {
        let flag = std::sync::Arc::clone(&interrupt);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }

    if let Some(spec_path) = args.options.get("--spec") {
        let spec = load_spec(args, spec_path)?;
        let store = CampaignStore::create(&root, spec)
            .map_err(CliError::Failed)?
            .with_faults(fault_fs.clone());
        let telemetry = if args.flags.contains("progress") {
            telemetry::Telemetry::new(ProgressPrinter::default())
        } else {
            telemetry::Telemetry::off()
        };
        let session =
            CampaignSession::new(store, telemetry, interrupt).map_err(CliError::Failed)?;
        let outcome = session
            .run(max_jobs(args)?, None)
            .map_err(CliError::Failed)?;
        if outcome.complete {
            let (report_path, _metrics) = merge_store(&session.store).map_err(CliError::Failed)?;
            return Ok(format!(
                "campaign {} complete: {} jobs; report merged to {}\n",
                session.store.spec.name,
                outcome.total_jobs,
                report_path.display(),
            ));
        }
        return Ok(format!(
            "campaign {} {}: {}/{} jobs done (+{} this run); \
             rerun the same command to continue\n",
            session.store.spec.name,
            if outcome.interrupted {
                "interrupted"
            } else {
                "paused"
            },
            outcome.done_jobs,
            outcome.total_jobs,
            outcome.jobs_run,
        ));
    }

    if let Some(sock) = args.options.get("--socket") {
        #[cfg(unix)]
        {
            let service = Service::new(root, interrupt).with_store_faults(fault_fs);
            mavr_campaignd::server::serve_socket(
                &service,
                std::path::Path::new(sock),
                std::io::stderr(),
                &mavr_campaignd::server::ServeOptions::default(),
            )
            .map_err(CliError::Failed)?;
            return Ok(String::new());
        }
        #[cfg(not(unix))]
        {
            let _ = sock;
            return Err(CliError::Usage("--socket needs a Unix platform".into()));
        }
    }

    if args.flags.contains("stdio") {
        let service = Service::new(root, interrupt).with_store_faults(fault_fs);
        let stdin = std::io::stdin();
        mavr_campaignd::server::serve_lines(&service, stdin.lock(), std::io::stdout())
            .map_err(CliError::Failed)?;
        return Ok(String::new());
    }

    Err(CliError::Usage(
        "serve needs one of --spec FILE, --socket PATH, or --stdio".into(),
    ))
}

/// `mavr submit SPEC.json (--socket PATH | --dir DIR)`
///
/// Register a campaign: against a running service via its socket, or
/// directly into a campaign root (the directory a later `serve` run will
/// execute from). Resubmitting an identical spec is idempotent; changing
/// a campaign's spec under the same name is refused.
pub fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let spec_path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("submit needs a spec file".into()))?;
    let spec = load_spec(args, spec_path)?;

    if let Some(sock) = args.options.get("--socket") {
        #[cfg(unix)]
        {
            let line = format!(r#"{{"op":"submit","spec":{}}}"#, spec.to_json());
            let resp = mavr_campaignd::server::request(std::path::Path::new(sock), &line)
                .map_err(CliError::Failed)?;
            return Ok(format!("{resp}\n"));
        }
        #[cfg(not(unix))]
        {
            let _ = sock;
            return Err(CliError::Usage("--socket needs a Unix platform".into()));
        }
    }

    let root = campaign_root(args)?;
    let store = mavr_campaignd::CampaignStore::create(&root, spec).map_err(CliError::Failed)?;
    let plan = store.plan();
    Ok(format!(
        "submitted campaign {}: {} jobs in {} shards under {}\n",
        store.spec.name,
        plan.total_jobs,
        plan.shard_count(),
        store.dir.display(),
    ))
}

/// `mavr status (--socket PATH | --dir DIR) [--campaign NAME] [--json]`
///
/// Campaign progress: jobs done, shards complete, whether the report has
/// been merged. Reads shard checkpoints directly with `--dir` (works with
/// no service running); asks a running service with `--socket`.
pub fn cmd_status(args: &Args) -> Result<String, CliError> {
    let campaign = args.options.get("--campaign").map(String::as_str);
    let check_campaign = || campaign.map_or(Ok(()), mavr_campaignd::spec::check_name);

    if let Some(sock) = args.options.get("--socket") {
        #[cfg(unix)]
        {
            use mavr_campaignd::json::Json;
            check_campaign().map_err(CliError::Usage)?;
            let mut request = vec![("op".to_string(), Json::str("status"))];
            if let Some(name) = campaign {
                request.push(("campaign".to_string(), Json::str(name)));
            }
            let line = Json::Obj(request).to_text();
            let resp = mavr_campaignd::server::request(std::path::Path::new(sock), &line)
                .map_err(CliError::Failed)?;
            return Ok(format!("{resp}\n"));
        }
        #[cfg(not(unix))]
        {
            let _ = sock;
            return Err(CliError::Usage("--socket needs a Unix platform".into()));
        }
    }

    let root = campaign_root(args)?;
    check_campaign().map_err(CliError::Usage)?;
    let statuses =
        mavr_campaignd::store::campaign_statuses(&root, campaign).map_err(CliError::Failed)?;
    if statuses.is_empty() {
        return Ok(format!("no campaigns under {}\n", root.display()));
    }
    let mut out = String::new();
    for status in statuses {
        if args.flags.contains("json") {
            out.push_str(&status.to_json().to_text());
            out.push('\n');
        } else {
            out.push_str(&format!(
                "{}: {}/{} jobs, {}/{} shards complete{}\n",
                status.name,
                status.done_jobs,
                status.total_jobs,
                status.shards_complete,
                status.shards_total,
                if status.report_written {
                    ", report merged"
                } else {
                    ""
                },
            ));
        }
    }
    Ok(out)
}

/// `mavr merge --campaign DIR [-o FILE] [--metrics-out FILE]`
///
/// Fold a completed campaign's shard checkpoints into `report.json` —
/// byte-identical to what one uninterrupted, unsharded `fleet --json` run
/// of the same parameters writes — plus the merged metrics registry.
/// Holds one shard in memory at a time, so the report of a million-board
/// campaign streams to disk in constant memory. Refuses incomplete or
/// inconsistent shard sets.
pub fn cmd_campaign_merge(args: &Args) -> Result<String, CliError> {
    use mavr_campaignd::{merge_store, CampaignStore};
    let dir = args.options.get("--campaign").ok_or_else(|| {
        CliError::Usage("merge needs --campaign DIR (one campaign's directory)".into())
    })?;
    let store = CampaignStore::open(std::path::Path::new(dir)).map_err(CliError::Failed)?;
    let (report_path, metrics) = merge_store(&store).map_err(CliError::Failed)?;
    let mut note = String::new();
    if let Some(out) = args.options.get("-o").or(args.options.get("--out")) {
        std::fs::copy(&report_path, out).map_err(fail)?;
        note.push_str(&format!("copied report to {out}\n"));
    }
    if let Some(mpath) = args.options.get("--metrics-out") {
        write_metrics(mpath, &metrics)?;
        note.push_str(&format!("wrote campaign metrics to {mpath}\n"));
    }
    Ok(format!(
        "merged {} shards of {}: report at {}\n{note}",
        store.plan().shard_count(),
        store.spec.name,
        report_path.display(),
    ))
}

/// `mavr fly [--scenario hover|drop|turbulent] [--seed N] [--steps N]
/// [--json] [-o FILE]`
///
/// Fly one closed loop: the SynthQuadFlight firmware on a randomized
/// board, its ADC fed by the physics arena's sensors and its PWM driving
/// the rigid body, in lockstep (16 000 cycles per 1 ms world step).
/// Prints a flight summary; `--json` emits the trajectory (one sample
/// every 100 steps, plus the final state) as JSON lines.
pub fn cmd_fly(args: &Args) -> Result<String, CliError> {
    use mavr::policy::RandomizationPolicy;
    use mavr_board::MavrBoard;
    use mavr_world::{FlightHarness, Scenario, World, CYCLES_PER_STEP, TARGET_ALT_M};

    let scenario = match args.options.get("--scenario") {
        Some(s) => Scenario::parse(s).ok_or_else(|| {
            CliError::Usage(format!("unknown scenario `{s}` (hover, drop, turbulent)"))
        })?,
        None => Scenario::Hover,
    };
    let seed = parse_u64(args.options.get("--seed"), 0x2015)?;
    let steps = u64::from(parse_num(args.options.get("--steps"), 3000)?);

    let fw = synth_firmware::build(&apps::synth_quad_flight(), &BuildOptions::safe_mavr())
        .map_err(fail)?;
    let board = MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default())
        .map_err(|e| CliError::Failed(format!("provisioning failed: {e}")))?;
    // Disjoint world stream from the same seed, so `--seed` alone names
    // the whole flight.
    let mut h = FlightHarness::new(board, World::new(scenario, seed ^ 0x5eed_d1ce));

    let mut samples = Vec::new();
    let mut flown = 0;
    while flown < steps {
        let batch = (steps - flown).min(100);
        h.run_steps(batch)
            .map_err(|e| CliError::Failed(format!("flight aborted: {e}")))?;
        flown += batch;
        samples.push(format!(
            "{{\"t_ms\":{},\"alt_m\":{:.3},\"vz_mps\":{:.3},\"alt_err_peak_m\":{:.3},\
             \"on_ground\":{},\"impacts\":{},\"recoveries\":{}}}",
            h.world.steps(),
            h.world.altitude(),
            h.world.body.vel.z,
            h.world.peak_alt_err(),
            h.world.on_ground(),
            h.world.ground_impacts(),
            h.recoveries_caught(),
        ));
    }

    if args.flags.contains("json") {
        let mut out = samples.join("\n");
        out.push('\n');
        if let Some(path) = args.options.get("-o").or(args.options.get("--out")) {
            std::fs::write(path, &out).map_err(fail)?;
            return Ok(format!(
                "wrote {} trajectory samples to {path}\n",
                samples.len()
            ));
        }
        return Ok(out);
    }

    Ok(format!(
        "flew {} ({} steps, {} cycles): alt {:.2} m (target {TARGET_ALT_M}), \
         peak |err| {:.2} m, impacts {}, recoveries {} (alt lost {:.2} m), {}\n",
        scenario.name(),
        h.world.steps(),
        h.world.steps() * CYCLES_PER_STEP,
        h.world.altitude(),
        h.world.peak_alt_err(),
        h.world.ground_impacts(),
        h.recoveries_caught(),
        h.alt_lost_to_recoveries(),
        if h.world.on_ground() {
            "on the ground"
        } else {
            "airborne"
        },
    ))
}

/// Parse a `--loss` / `--fault` style comma-separated number list (the
/// campaign's [`mavr_fleet::CampaignConfig::validate`] checks the values).
fn parse_prob_list(args: &Args, key: &str, default: Vec<f64>) -> Result<Vec<f64>, CliError> {
    match args.options.get(key) {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| {
                p.parse::<f64>()
                    .map_err(|_| CliError::Usage(format!("bad {key} `{p}` (not a number)")))
            })
            .collect::<Result<_, _>>(),
        None => Ok(default),
    }
}

/// Stderr sink for `--progress`: renders each campaign heartbeat as one
/// status line. Wall-clock numbers are confined to this stream; they never
/// reach the report or the metrics registry.
#[derive(Default)]
struct ProgressPrinter {
    seen: u64,
}

impl telemetry::Recorder for ProgressPrinter {
    fn record(&mut self, event: telemetry::Event) {
        use std::io::Write;
        self.seen += 1;
        if event.kind != telemetry::kinds::CAMPAIGN_PROGRESS {
            return;
        }
        let u = |name: &str| match event.field(name) {
            Some(telemetry::Value::U64(v)) => *v,
            _ => 0,
        };
        let f = |name: &str| match event.field(name) {
            Some(telemetry::Value::F64(v)) => *v,
            _ => 0.0,
        };
        // Best effort: a closed stderr must not take the campaign down.
        let _ = writeln!(
            std::io::stderr(),
            "progress: {}/{} jobs | {:.1} Mcycles at {:.2} Mcyc/s | \
             {} attacks landed, {} recovered, {} bricked | {:.1}s, eta {:.0}s",
            u("jobs_done"),
            u("jobs_total"),
            u("sim_cycles") as f64 / 1e6,
            f("boards_cycles_per_sec") / 1e6,
            u("attack_successes"),
            u("recoveries"),
            u("bricked"),
            f("elapsed_ms") / 1000.0,
            f("eta_s"),
        );
    }
    fn events_emitted(&self) -> u64 {
        self.seen
    }
}

/// Write a metrics registry to `path`: Prometheus text exposition when the
/// file name ends in `.prom`, JSON lines otherwise.
fn write_metrics(
    path: &str,
    metrics: &telemetry::metrics::MetricsRegistry,
) -> Result<(), CliError> {
    let payload = if path.ends_with(".prom") {
        metrics.to_prometheus()
    } else {
        metrics.to_jsonl()
    };
    std::fs::write(path, payload).map_err(fail)
}

/// Shared implementation of `fleet` and `chaos` — the two differ only in
/// the default fault sweep.
fn run_campaign_cmd(args: &Args, default_faults: Vec<f64>) -> Result<String, CliError> {
    use mavr_fleet::{
        merge_shard_checkpoints, parse_scenarios, run_shard_streamed, CampaignConfig,
        PreparedCampaign, ShardCheckpoint,
    };

    let defaults = CampaignConfig::default();
    let app = match args.positional.first() {
        Some(name) => app_by_name(name)?,
        None => defaults.app,
    };
    let scenarios = match args.options.get("--scenario") {
        Some(list) => parse_scenarios(list).map_err(CliError::Usage)?,
        None => defaults.scenarios,
    };
    let loss_levels = parse_prob_list(args, "--loss", defaults.loss_levels.clone())?;
    let fault_levels = parse_prob_list(args, "--fault", default_faults)?;
    let mut cfg = CampaignConfig {
        seed: parse_u64(args.options.get("--seed"), 0x2015)?,
        boards: parse_num(args.options.get("--boards"), defaults.boards as u32)? as usize,
        scenarios,
        loss_levels,
        fault_levels,
        warmup_cycles: parse_u64(args.options.get("--warmup"), defaults.warmup_cycles)?,
        attack_cycles: parse_u64(args.options.get("--cycles"), defaults.attack_cycles)?,
        threads: parse_num(args.options.get("--threads"), 0)? as usize,
        app,
        ..defaults
    };
    cfg.validate().map_err(CliError::Usage)?;
    cfg.tenant = tenant(args)?.unwrap_or(0);
    cfg.block_fusion = !args.flags.contains("no-fusion");
    cfg.physics = args.flags.contains("physics");
    if args.flags.contains("progress") {
        cfg.telemetry = telemetry::Telemetry::new(ProgressPrinter::default());
    }

    // Every mix of flags runs the same way: one shard over the whole job
    // space — loaded from `--checkpoint` when it exists — run, optionally
    // streamed, saved, and merged.
    let file_out = args.options.get("-o").or(args.options.get("--out"));
    let ckpt_path = args.options.get("--checkpoint");
    let mut shard = ShardCheckpoint::whole_campaign(&cfg);
    let mut budget = None;
    if let Some(path) = ckpt_path {
        // Ctrl-C / SIGTERM trip the cooperative flag: workers finish the
        // boards they hold and the checkpoint below is flushed valid.
        cfg.interrupt = mavr_campaignd::signal::install();
        if let Ok(blob) = std::fs::read(path) {
            shard = ShardCheckpoint::from_bytes(&blob).map_err(fail)?;
        }
        budget = max_jobs(args)?;
    }
    // `--jsonl -o FILE` streams outcome lines to the file *as boards
    // finish* (tail -f friendly), after the lines of the jobs the
    // checkpoint already holds; the final bytes are to_jsonl()'s, line for
    // line.
    let stream_to = file_out.filter(|_| args.flags.contains("jsonl"));
    let done_before = shard.outcomes.len();
    let ran = run_shard_streamed(
        &cfg,
        &PreparedCampaign::new(&cfg),
        &mut shard,
        budget,
        done_before,
        stream_to.map(std::path::Path::new),
    )
    .map_err(CliError::Failed)?;
    if let Some(path) = ckpt_path {
        // Write-to-temp + rename: a kill during the flush leaves the
        // previous checkpoint intact, never a torn file.
        mavr_campaignd::write_file_atomic(std::path::Path::new(path), &shard.to_bytes())
            .map_err(CliError::Failed)?;
        if !shard.complete() {
            return Ok(format!(
                "campaign {}checkpointed to {path}: {}/{} jobs done \
                 (+{ran} this run); rerun with the same arguments to continue\n",
                if cfg.interrupted() {
                    "interrupted; "
                } else {
                    ""
                },
                shard.outcomes.len(),
                cfg.total_jobs(),
            ));
        }
    }
    // A resumed campaign's report and metrics are pure folds over its
    // outcomes, so they are byte-identical to an uninterrupted run's.
    let (report, metrics) = merge_shard_checkpoints(&cfg, vec![shard]).map_err(CliError::Failed)?;
    let mut metrics_note = String::new();
    if let Some(mpath) = args.options.get("--metrics-out") {
        write_metrics(mpath, &metrics)?;
        metrics_note = format!("wrote campaign metrics to {mpath}\n");
    }
    if let Some(path) = file_out {
        if stream_to.is_some() {
            return Ok(format!(
                "{}streamed campaign outcomes to {path}\n{metrics_note}",
                report.render()
            ));
        }
        // A file sink defaults to the machine-readable form.
        std::fs::write(path, report.to_json()).map_err(fail)?;
        Ok(format!(
            "{}wrote campaign report to {path}\n{metrics_note}",
            report.render()
        ))
    } else if args.flags.contains("jsonl") {
        // Machine-readable stdout stays pure JSON.
        Ok(report.to_jsonl())
    } else if args.flags.contains("json") {
        Ok(report.to_json())
    } else {
        Ok(format!("{}{metrics_note}", report.render()))
    }
}

/// Help text.
pub const HELP: &str = "mavr-cli — tools for the MAVR (ICDCS 2015) reproduction

USAGE: mavr-cli <command> [args]

COMMANDS:
  build <app> [--toolchain stock|mavr] [--vulnerable] [--bootloader] [-o FILE]
        Build a synthetic autopilot (plane|copter|rover|tiny) and write the
        preprocessed MAVR container.
  assemble <file.s> [-o FILE]
        Assemble the .s dialect into a preprocessed MAVR container.
  info <file>        Summarize a container / HEX image.
  randomize <file> [--seed N] [-o FILE] [--verify]
        Shuffle function blocks and patch the binary (what the master does);
        --verify boots the result on the simulator.
  survivors <original> <randomized>
        Count gadget addresses that survived a randomization.
  scan <file> [--max-insns N] [--no-dedup] [--listing]
        Gadget census and classification (Figs. 4-5).
  disasm <file> [--start ADDR] [--len BYTES]
        Disassemble, annotated with symbols when present.
  simulate <file> [--cycles N]
        Boot the image on the ATmega2560 simulator and report health.
  profile <file> [--cycles N] [--top N] [--folded FILE]
        Run the image under the cycle-attributed profiler: a shadow call
        stack charges every simulated cycle to a function (inclusive and
        exclusive, across calls, interrupts and tail jumps). Prints the
        top-N hottest functions; --folded writes collapsed call stacks
        (`frame;frame cycles`) ready for a flamegraph renderer. Needs a
        MAVR container (symbols).
  attack <file> [--target ADDR] [--values a,b,c] [--variant v1|v2]
        Build the paper's ROP exploit packet against the image.
  trace [--scenario boot|clean-attack|stealthy-attack] [--seed N]
        [--cycles N] [--out FILE]
        Run a scenario with the flight recorder attached: dump the event
        stream as JSON lines, print a per-kind summary, and (for attacks)
        the post-mortem crash narrative with gadget attribution.
  snapshot <file> [--cycles N] [--restore SNAP] [-o SNAP] [--digest FILE]
        Run an image to an absolute cycle target, optionally resuming from
        a saved snapshot; write the CRC-guarded machine snapshot (-o)
        and/or a deterministic state digest (--digest). A save/restore
        split reaches the same digest as an uninterrupted run.
  replay [--seed N] [--cycles N] [--interval N] [-o SNAP]
        Fly the V2 stealthy exploit against a stock build and a
        MAVR-randomized variant, record keyframe timelines of both, and
        bisect the exact first cycle where the randomized execution
        departs from the stock one; prints the divergence and the
        post-mortem crash report (-o writes the pre-divergence snapshot).
  fly [--scenario hover|drop|turbulent] [--seed N] [--steps N] [--json]
        [-o FILE]
        Fly one closed loop: the SynthQuadFlight firmware samples the
        physics arena's sensors through the ADC and drives a rigid body
        through PWM, in lockstep (16000 cycles per 1 ms world step).
        Prints the flight summary (altitude held, peak excursion, ground
        impacts, recovery outages); --json emits the trajectory as JSON
        lines. Same arguments, same flight — bit for bit.
  fleet [app] [--boards N] [--scenario LIST|all] [--loss L1,L2,..] [--seed N]
        [--warmup N] [--cycles N] [--threads N]
        [--checkpoint FILE] [--max-jobs N] [--progress] [--no-fusion]
        [--physics] [--metrics-out FILE] [--json | --jsonl] [-o FILE]
        Fly a many-UAV campaign over deterministic lossy links: every
        (scenario, loss, board) cell gets its own randomized board and
        link pair; prints the attack-success / recovery-rate table (or the
        full report as JSON). Identical arguments give byte-identical
        JSON, whatever --threads is. --checkpoint persists completed jobs
        so an interrupted campaign resumes (budgeted by --max-jobs) to the
        byte-identical report. --jsonl -o FILE streams outcome lines as
        boards finish (a resumed run rewrites the checkpointed lines
        first). --progress streams live status lines to stderr;
        --metrics-out dumps the campaign metrics registry at exit
        (Prometheus text if FILE ends in .prom, JSON lines otherwise) —
        the dump is byte-identical whatever --threads is, and identical
        between checkpointed and uninterrupted runs. --no-fusion turns
        off block-fused simulation (slower, identical report bytes;
        only the sim_block_* metrics change). --physics flies every
        board inside the physics arena (pair with the quad app): cells
        gain altitude-excursion, crash-rate and altitude-lost-per-
        recovery columns, still byte-identical whatever --threads is.
  chaos [app] [--fault F1,F2,..] [... same options as fleet]
        Fleet campaign with fault injection across every board's recovery
        pipeline: ext-flash bit rot, reflash-stream corruption (bit flips,
        dropped/duplicated/reordered frames, truncation) and power loss
        mid-reflash. Sweeps --fault rates (default 0,5e-5,1e-4,2e-4,5e-4)
        as an extra matrix axis and reports reflash-retry, degraded-boot
        and brick rates per cell. --fault 0 reproduces `fleet` output
        byte-for-byte; the sweep is deterministic like fleet's.
  serve --dir DIR (--spec FILE | --socket PATH | --stdio)
        The campaign service. --spec FILE runs one campaign to completion
        (or to --max-jobs / Ctrl-C — either flushes valid shard
        checkpoints that rerunning the same command resumes; a completed
        run auto-merges its report; --shard-jobs and --tenant override
        the spec; --progress streams status with ETA). --socket PATH
        serves the ND-JSON control protocol on a Unix socket, running
        pending shards while it answers (a campaign written into a live
        root with `submit --dir` is picked up at the next submit or
        restart); --stdio serves the protocol on stdin/stdout. --deadline-s N trips the cooperative interrupt
        after N seconds (checkpoints flush, exit 0); --store-fault RATE
        with --store-fault-seed N injects seeded disk faults into every
        durable store write (chaos harness). Campaign results are
        byte-identical however the run was sliced, sharded, interrupted
        or SIGKILLed.
  submit SPEC.json (--socket PATH | --dir DIR) [--shard-jobs N] [--tenant N]
        Register a campaign from a JSON spec: with a running service via
        its socket, or directly into a campaign root directory.
        Resubmitting an identical spec is idempotent; mutating a
        campaign's spec under the same name is refused.
  status (--socket PATH | --dir DIR) [--campaign NAME] [--json]
        Campaign progress: jobs done, shards complete, report merged.
        --dir reads shard checkpoints directly (no service needed);
        --socket asks a running service.
  merge --campaign DIR [-o FILE] [--metrics-out FILE]
        Fold a completed campaign's shard checkpoints into report.json —
        byte-identical to one uninterrupted, unsharded `fleet --json` run
        — streaming one shard at a time (constant memory at any campaign
        size). -o copies the report; --metrics-out writes the merged
        metrics registry.
";

/// A subcommand implementation: parsed arguments in, output text out.
pub type CmdFn = fn(&Args) -> Result<String, CliError>;

/// The dispatch table: every subcommand and its implementation, in help
/// order. `HELP` is tested against this table so the usage text can never
/// silently drift from what actually dispatches.
pub const COMMANDS: &[(&str, CmdFn)] = &[
    ("build", cmd_build),
    ("assemble", cmd_assemble),
    ("info", cmd_info),
    ("randomize", cmd_randomize),
    ("survivors", cmd_survivors),
    ("scan", cmd_scan),
    ("disasm", cmd_disasm),
    ("simulate", cmd_simulate),
    ("profile", cmd_profile),
    ("attack", cmd_attack),
    ("trace", cmd_trace),
    ("snapshot", cmd_snapshot),
    ("replay", cmd_replay),
    ("fly", cmd_fly),
    ("fleet", cmd_fleet),
    ("chaos", cmd_chaos),
    ("serve", cmd_serve),
    ("submit", cmd_submit),
    ("status", cmd_status),
    ("merge", cmd_campaign_merge),
];

/// Dispatch a command line (without the program name).
pub fn run(raw: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = raw.split_first() else {
        return Ok(HELP.to_string());
    };
    let args = parse_args(rest)?;
    if let Some((_, f)) = COMMANDS.iter().find(|(name, _)| *name == cmd.as_str()) {
        return f(&args);
    }
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mavr-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn parse_args_splits_correctly() {
        let a = parse_args(&s(&[
            "file.hex",
            "--seed",
            "9",
            "--vulnerable",
            "-o",
            "out",
        ]))
        .unwrap();
        assert_eq!(a.positional, vec!["file.hex"]);
        assert_eq!(a.options["--seed"], "9");
        assert_eq!(a.options["-o"], "out");
        assert!(a.flags.contains("vulnerable"));
        assert!(parse_args(&s(&["--seed"])).is_err());
    }

    #[test]
    fn build_info_randomize_pipeline() {
        let container = tmp("tiny.mavrhex");
        let out = run(&s(&["build", "tiny", "--vulnerable", "-o", &container])).unwrap();
        assert!(out.contains("VULNERABLE"));
        let info = run(&s(&["info", &container])).unwrap();
        assert!(info.contains("functions   60"));
        let rand_out = tmp("tiny-rand.hex");
        let out = run(&s(&[
            "randomize",
            &container,
            "--seed",
            "5",
            "-o",
            &rand_out,
        ]))
        .unwrap();
        assert!(out.contains("functions moved"));
        // The randomized plain HEX simulates fine but cannot be randomized.
        let sim = run(&s(&["simulate", &rand_out, "--cycles", "500000"])).unwrap();
        assert!(sim.contains("CyclesExhausted"), "{sim}");
        assert!(run(&s(&["randomize", &rand_out])).is_err());
    }

    #[test]
    fn scan_and_disasm() {
        let container = tmp("tiny2.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let scan = run(&s(&["scan", &container])).unwrap();
        assert!(scan.contains("attack-capable"));
        let dis = run(&s(&["disasm", &container, "--start", "0x0", "--len", "16"])).unwrap();
        assert!(dis.contains("jmp"), "{dis}");
        assert!(dis.contains("<__vectors>"));
    }

    #[test]
    fn attack_emits_wire_packet() {
        let container = tmp("tiny3.mavrhex");
        run(&s(&["build", "tiny", "--vulnerable", "-o", &container])).unwrap();
        let out = run(&s(&["attack", &container, "--values", "01,02,03"])).unwrap();
        assert!(out.contains("payload 198 bytes"));
        assert!(out.contains("fe"), "wire dump present");
        // v1 variant too.
        let out = run(&s(&["attack", &container, "--variant", "v1"])).unwrap();
        assert!(out.contains("payload"));
    }

    #[test]
    fn randomize_verify_and_survivors() {
        let container = tmp("tiny4.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let rand_out = tmp("tiny4-rand.hex");
        let out = run(&s(&[
            "randomize",
            &container,
            "--seed",
            "4",
            "-o",
            &rand_out,
            "--verify",
        ]))
        .unwrap();
        assert!(out.contains("verify: CyclesExhausted"), "{out}");
        let surv = run(&s(&["survivors", &container, &rand_out])).unwrap();
        assert!(surv.contains("still valid"), "{surv}");
    }

    #[test]
    fn assemble_pipeline() {
        let src_path = tmp("prog.s");
        std::fs::write(
            &src_path,
            ".device atmega2560
.vectors 2
.vector 0 main
.func main
halt:
    rjmp halt
.endfunc
",
        )
        .unwrap();
        let container = tmp("prog.mavrhex");
        let out = run(&s(&["assemble", &src_path, "-o", &container])).unwrap();
        assert!(out.contains("functions"));
        let info = run(&s(&["info", &container])).unwrap();
        assert!(info.contains("functions   "));
        // A randomize of a 1-function program is a no-move but must work.
        assert!(run(&s(&["randomize", &container])).is_ok());
    }

    #[test]
    fn fleet_runs_a_small_campaign() {
        let out_path = tmp("fleet.json");
        let out = run(&s(&[
            "fleet",
            "--boards",
            "1",
            "--scenario",
            "stealthy",
            "--cycles",
            "4000000",
            "--threads",
            "1",
            "-o",
            &out_path,
        ]))
        .unwrap();
        assert!(out.contains("Fleet campaign"), "{out}");
        assert!(out.contains("stealthy"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"attack_successes\":0"), "{json}");
        // Bad arguments are caught before any board is provisioned.
        assert!(matches!(
            run(&s(&["fleet", "--scenario", "frob"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["fleet", "--loss", "2.0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["fleet", "--boards", "0"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn chaos_is_deterministic_and_fault_zero_matches_fleet() {
        let common = [
            "--boards",
            "1",
            "--scenario",
            "stealthy",
            "--cycles",
            "3000000",
            "--threads",
            "1",
        ];
        // Same seed twice: byte-identical chaos reports.
        let a_path = tmp("chaos-a.json");
        let b_path = tmp("chaos-b.json");
        for path in [&a_path, &b_path] {
            let mut a = vec!["chaos"];
            a.extend(common);
            a.extend(["--fault", "0.0005", "-o", path]);
            run(&s(&a)).unwrap();
        }
        let a_json = std::fs::read_to_string(&a_path).unwrap();
        assert_eq!(a_json, std::fs::read_to_string(&b_path).unwrap());
        assert!(a_json.contains("\"reflash_retry_rate\""), "{a_json}");
        assert!(a_json.contains("\"degraded_rate\""), "{a_json}");
        assert!(a_json.contains("\"brick_rate\""), "{a_json}");

        // `chaos --fault 0` is the chaos-free engine, byte for byte.
        let chaos0 = tmp("chaos-zero.json");
        let mut a = vec!["chaos"];
        a.extend(common);
        a.extend(["--fault", "0", "-o", &chaos0]);
        run(&s(&a)).unwrap();
        let fleet0 = tmp("fleet-zero.json");
        let mut a = vec!["fleet"];
        a.extend(common);
        a.extend(["-o", &fleet0]);
        run(&s(&a)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&chaos0).unwrap(),
            std::fs::read_to_string(&fleet0).unwrap(),
            "chaos at fault rate 0 must match the plain fleet report"
        );

        assert!(matches!(
            run(&s(&["chaos", "--fault", "1.5"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_text_names_every_subcommand() {
        for (name, _) in COMMANDS {
            assert!(
                HELP.contains(&format!("\n  {name} ")),
                "HELP does not document subcommand `{name}`"
            );
        }
        // Every option the parser accepts must be documented too — an
        // entry that HELP never mentions is either dead or a silently
        // undocumented feature.
        for (opt, _) in OPTIONS {
            assert!(HELP.contains(opt), "HELP does not document option `{opt}`");
        }
    }

    #[test]
    fn fly_holds_hover_and_is_deterministic() {
        let base = ["fly", "--steps", "800", "--seed", "42"];
        let a = run(&s(&base)).unwrap();
        assert!(a.contains("airborne"), "hover flight stays up:\n{a}");
        assert!(a.contains("impacts 0"), "hover flight never crashes:\n{a}");
        assert_eq!(a, run(&s(&base)).unwrap(), "same seed, same flight");

        let json = run(&s(&["fly", "--steps", "300", "--json"])).unwrap();
        let last = json.lines().last().unwrap();
        assert!(
            last.contains("\"t_ms\":300"),
            "trajectory ends at --steps:\n{last}"
        );
        assert!(last.contains("\"on_ground\":false"));

        assert!(matches!(
            run(&s(&["fly", "--scenario", "lunar"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fleet_no_fusion_report_is_byte_identical() {
        // Block fusion is an engine knob: the JSON report (outcomes, cells,
        // totals) must not change a byte when it is turned off.
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "1",
            "--scenario",
            "benign",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
            "--threads",
            "1",
            "--json",
        ];
        let fused = run(&s(&base)).unwrap();
        let mut no_fusion: Vec<&str> = base.to_vec();
        no_fusion.push("--no-fusion");
        let unfused = run(&s(&no_fusion)).unwrap();
        assert_eq!(fused, unfused);
    }

    #[test]
    fn profile_attributes_cycles_to_firmware_symbols() {
        let container = tmp("profile.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let folded = tmp("profile.folded");
        let out = run(&s(&[
            "profile", &container, "--cycles", "400000", "--top", "5", "--folded", &folded,
        ]))
        .unwrap();
        assert!(out.contains("FUNCTION"), "missing table header:\n{out}");
        // The tiny app spends its time in the CRC inner loop; the table is
        // sorted by exclusive cycles so the hot leaf leads it.
        assert!(out.contains("crc_update"), "hot leaf not in table:\n{out}");
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(
            stacks.contains("main_loop;"),
            "main loop missing from call paths:\n{stacks}"
        );
        for line in stacks.lines() {
            let (path, cycles) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!path.is_empty());
            cycles.parse::<u64>().expect("folded cycle count");
        }
        // Plain HEX has no symbol table to attribute cycles to.
        let hex = tmp("profile-plain.hex");
        std::fs::write(&hex, ":00000001FF\n").unwrap();
        assert!(matches!(
            run(&s(&["profile", &hex])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fleet_metrics_out_is_thread_invariant() {
        let prom1 = tmp("fleet-metrics-1.prom");
        let prom4 = tmp("fleet-metrics-4.prom");
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "1",
            "--scenario",
            "benign",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
        ];
        let mut one: Vec<&str> = base.to_vec();
        one.extend(["--threads", "1", "--metrics-out", &prom1]);
        let mut four: Vec<&str> = base.to_vec();
        four.extend(["--threads", "4", "--metrics-out", &prom4]);
        let out = run(&s(&one)).unwrap();
        assert!(out.contains(&format!("wrote campaign metrics to {prom1}")));
        run(&s(&four)).unwrap();
        let text = std::fs::read_to_string(&prom1).unwrap();
        assert_eq!(text, std::fs::read_to_string(&prom4).unwrap());
        assert!(text.contains("# TYPE campaign_boards_total counter"));
        // A .jsonl sink switches exposition format.
        let jsonl = tmp("fleet-metrics.jsonl");
        let mut jrun: Vec<&str> = base.to_vec();
        jrun.extend(["--threads", "1", "--metrics-out", &jsonl]);
        run(&s(&jrun)).unwrap();
        let lines = std::fs::read_to_string(&jsonl).unwrap();
        assert!(lines
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn snapshot_save_restore_matches_uninterrupted_digest() {
        let container = tmp("snap.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let full = tmp("snap-full.json");
        run(&s(&[
            "snapshot", &container, "--cycles", "600000", "--digest", &full,
        ]))
        .unwrap();
        let snap = tmp("snap-mid.bin");
        run(&s(&[
            "snapshot", &container, "--cycles", "300000", "-o", &snap,
        ]))
        .unwrap();
        let resumed = tmp("snap-resumed.json");
        let out = run(&s(&[
            "snapshot",
            &container,
            "--restore",
            &snap,
            "--cycles",
            "600000",
            "--digest",
            &resumed,
        ]))
        .unwrap();
        assert!(out.contains("resumed to cycle 600000"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "digest after save/restore differs from the uninterrupted run"
        );
        // A CRC-valid blob of the wrong shape is a typed error, not a panic.
        let mut state = avr_sim::Machine::new_atmega2560().capture_state();
        state.flash.truncate(2);
        let short = tmp("snap-short.bin");
        std::fs::write(&short, mavr_snapshot::encode_machine(&state)).unwrap();
        let err = run(&s(&["snapshot", &container, "--restore", &short])).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err}");
        assert!(
            err.to_string()
                .contains("holds 2 flash and 8704 data-space bytes, this machine has 262144"),
            "{err}"
        );
    }

    #[test]
    fn replay_bisects_v2_divergence() {
        let snap = tmp("prediv.bin");
        let out = run(&s(&[
            "replay",
            "--seed",
            "7",
            "--interval",
            "200000",
            "-o",
            &snap,
        ]))
        .unwrap();
        assert!(out.contains("first divergence at cycle"), "{out}");
        assert!(
            out.contains("diverged from the reference run at cycle"),
            "{out}"
        );
        assert!(out.contains("pre-crash snapshot"), "{out}");
        assert!(!std::fs::read(&snap).unwrap().is_empty());
    }

    #[test]
    fn fleet_checkpoint_resumes_to_identical_report() {
        let ckpt = tmp("fleet-ckpt.bin");
        let _ = std::fs::remove_file(&ckpt);
        let common = [
            "fleet",
            "--boards",
            "1",
            "--scenario",
            "benign,stealthy",
            "--loss",
            "0.05",
            "--cycles",
            "3000000",
            "--threads",
            "1",
        ];
        let direct = tmp("fleet-direct.json");
        let mut a = common.to_vec();
        a.extend(["-o", &direct]);
        run(&s(&a)).unwrap();
        // First budgeted leg: one of two jobs, then stop.
        let mut a = common.to_vec();
        a.extend(["--checkpoint", &ckpt, "--max-jobs", "1"]);
        let out = run(&s(&a)).unwrap();
        assert!(out.contains("1/2 jobs done"), "{out}");
        // Second leg finishes and stitches the full report.
        let resumed = tmp("fleet-resumed.json");
        let mut a = common.to_vec();
        a.extend(["--checkpoint", &ckpt, "-o", &resumed]);
        let out = run(&s(&a)).unwrap();
        assert!(out.contains("Fleet campaign"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&direct).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "checkpointed campaign is not byte-identical to the direct run"
        );
        // A checkpoint from different arguments is refused.
        let mut a = common.to_vec();
        a.extend(["--seed", "9", "--checkpoint", &ckpt]);
        assert!(matches!(run(&s(&a)), Err(CliError::Failed(_))));
        // So is a file of the retired whole-campaign checkpoint kind (tag
        // 4): a typed failure, never a panic or a silent fresh start.
        let mut stale = std::fs::read(&ckpt).unwrap();
        stale[10] = 4;
        std::fs::write(&ckpt, &stale).unwrap();
        let mut a = common.to_vec();
        a.extend(["--checkpoint", &ckpt]);
        match run(&s(&a)) {
            Err(CliError::Failed(e)) => assert!(e.contains("unknown snapshot kind 4"), "{e}"),
            other => panic!("stale checkpoint kind accepted: {other:?}"),
        }
        assert_eq!(std::fs::read(&ckpt).unwrap(), stale, "file left untouched");
    }

    #[test]
    fn bad_usage_is_reported() {
        assert!(matches!(run(&s(&["frobnicate"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["build"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&s(&["build", "x-wing"])),
            Err(CliError::Usage(_))
        ));
        assert!(run(&s(&[])).unwrap().contains("USAGE"));
        assert!(matches!(
            run(&s(&["serve", "--dir", "/tmp/x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&s(&["submit"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["merge"])), Err(CliError::Usage(_))));
        // A misspelt option is refused before anything flies, instead of
        // being ignored (this once flew the default 8 boards).
        assert!(matches!(
            run(&s(&["fleet", "tiny", "--bords", "1", "--json"])),
            Err(CliError::Usage(_))
        ));
        // Matrices whose cells would fold into one report row are refused
        // before anything flies: a repeated level, a scenario and its alias.
        for matrix in [["--loss", "0.01,0.01"], ["--scenario", "stealthy,v2"]] {
            let argv = ["fleet", "tiny", "--boards", "1", matrix[0], matrix[1]];
            assert!(matches!(run(&s(&argv)), Err(CliError::Usage(_))));
        }
    }

    #[test]
    fn fleet_reads_a_u64_seed_like_a_spec_does() {
        // 2^32 + 1: one past what a u32 seed option could carry.
        let root = tmp("serve-u64-root");
        let _ = std::fs::remove_dir_all(&root);
        let spec_path = tmp("serve-u64-spec.json");
        std::fs::write(
            &spec_path,
            r#"{
                "name": "cli-u64",
                "seed": 4294967297,
                "boards": 2,
                "scenarios": ["benign"],
                "warmup_cycles": 200000,
                "attack_cycles": 300000
            }"#,
        )
        .unwrap();
        let out = run(&s(&["serve", "--dir", &root, "--spec", &spec_path])).unwrap();
        assert!(out.contains("complete: 2 jobs"), "{out}");
        let report = std::fs::read_to_string(format!("{root}/cli-u64/report.json")).unwrap();
        for seed in ["4294967297", "0x100000001"] {
            let fleet = run(&s(&[
                "fleet",
                "tiny",
                "--seed",
                seed,
                "--boards",
                "2",
                "--scenario",
                "benign",
                "--cycles",
                "300000",
                "--warmup",
                "200000",
                "--json",
            ]))
            .unwrap();
            assert_eq!(fleet, report, "--seed {seed}");
        }
        // The u32 options still refuse what does not fit.
        let argv = ["fleet", "tiny", "--boards", "4294967297", "--json"];
        assert!(matches!(run(&s(&argv)), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_one_shot_resumes_and_merges_byte_identical_to_fleet_json() {
        let root = tmp("serve-e2e-root");
        let _ = std::fs::remove_dir_all(&root);
        let spec_path = tmp("serve-e2e-spec.json");
        std::fs::write(
            &spec_path,
            r#"{
                "name": "cli-e2e",
                "boards": 2,
                "scenarios": ["benign", "v2"],
                "warmup_cycles": 200000,
                "attack_cycles": 300000,
                "shard_jobs": 3
            }"#,
        )
        .unwrap();

        // Slice 1 stops mid-shard: shards hold 3 jobs, the budget is 2.
        let out = run(&s(&[
            "serve",
            "--dir",
            &root,
            "--spec",
            &spec_path,
            "--max-jobs",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("paused: 2/4 jobs done"), "{out}");

        // Status reads shard checkpoints directly, no service needed.
        let out = run(&s(&["status", "--dir", &root])).unwrap();
        assert!(
            out.contains("cli-e2e: 2/4 jobs, 0/2 shards complete"),
            "{out}"
        );

        // Merging an incomplete campaign is refused.
        let dir = format!("{root}/cli-e2e");
        assert!(matches!(
            run(&s(&["merge", "--campaign", &dir])),
            Err(CliError::Failed(_))
        ));

        // Slice 2 (same command, no budget) completes and auto-merges.
        let out = run(&s(&["serve", "--dir", &root, "--spec", &spec_path])).unwrap();
        assert!(out.contains("complete: 4 jobs"), "{out}");

        // The merged report is byte-identical to one uninterrupted,
        // unsharded fleet run of the same parameters.
        let fleet_json = tmp("serve-e2e-fleet.json");
        let fleet_prom = tmp("serve-e2e-fleet.prom");
        run(&s(&[
            "fleet",
            "tiny",
            "--boards",
            "2",
            "--scenario",
            "benign,v2",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
            "--json",
            "-o",
            &fleet_json,
            "--metrics-out",
            &fleet_prom,
        ]))
        .unwrap();
        let report = std::fs::read_to_string(format!("{dir}/report.json")).unwrap();
        assert_eq!(report, std::fs::read_to_string(&fleet_json).unwrap());

        // An explicit `merge` reproduces the same bytes, metrics included.
        let merged_json = tmp("serve-e2e-merged.json");
        let merged_prom = tmp("serve-e2e-merged.prom");
        let out = run(&s(&[
            "merge",
            "--campaign",
            &dir,
            "-o",
            &merged_json,
            "--metrics-out",
            &merged_prom,
        ]))
        .unwrap();
        assert!(out.contains("merged 2 shards"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&merged_json).unwrap(),
            std::fs::read_to_string(&fleet_json).unwrap()
        );
        assert_eq!(
            std::fs::read_to_string(&merged_prom).unwrap(),
            std::fs::read_to_string(&fleet_prom).unwrap()
        );

        let out = run(&s(&[
            "status",
            "--dir",
            &root,
            "--campaign",
            "cli-e2e",
            "--json",
        ]))
        .unwrap();
        assert!(
            out.contains(r#""complete":true"#) && out.contains(r#""report_written":true"#),
            "{out}"
        );
    }

    #[test]
    fn fleet_jsonl_file_sink_streams_byte_identical_lines() {
        let streamed = tmp("fleet-stream.jsonl");
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "2",
            "--scenario",
            "benign",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
        ];
        let mut stream_run: Vec<&str> = base.to_vec();
        stream_run.extend(["--jsonl", "-o", &streamed]);
        let out = run(&s(&stream_run)).unwrap();
        assert!(
            out.contains(&format!("streamed campaign outcomes to {streamed}")),
            "{out}"
        );
        // The streamed file (written line-by-line as boards finish) is
        // byte-identical to the accumulated to_jsonl() form.
        let mut stdout_run: Vec<&str> = base.to_vec();
        stdout_run.push("--jsonl");
        let expected = run(&s(&stdout_run)).unwrap();
        assert_eq!(std::fs::read_to_string(&streamed).unwrap(), expected);

        // A checkpointed run streams too: a one-job leg leaves one line,
        // and the resumed leg rewrites it before appending the rest.
        let ckpt = tmp("fleet-stream.ckpt");
        let resumed = tmp("fleet-stream-resumed.jsonl");
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&resumed);
        let mut leg: Vec<&str> = base.to_vec();
        leg.extend(["--checkpoint", &ckpt, "--jsonl", "-o", &resumed]);
        let mut first = leg.clone();
        first.extend(["--max-jobs", "1"]);
        run(&s(&first)).unwrap();
        let one = std::fs::read_to_string(&resumed).unwrap();
        assert_eq!(one.lines().count(), 1, "{one}");
        run(&s(&leg)).unwrap();
        assert_eq!(std::fs::read_to_string(&resumed).unwrap(), expected);
        // Another campaign's checkpoint is refused before the file is
        // touched.
        let mut foreign = leg.clone();
        foreign.extend(["--seed", "9"]);
        assert!(matches!(run(&s(&foreign)), Err(CliError::Failed(_))));
        assert_eq!(std::fs::read_to_string(&resumed).unwrap(), expected);
    }

    #[test]
    fn submit_is_idempotent_and_tenant_namespaces_change_results() {
        let root = tmp("submit-root");
        let _ = std::fs::remove_dir_all(&root);
        let spec_path = tmp("submit-spec.json");
        std::fs::write(
            &spec_path,
            r#"{"name": "sub", "boards": 1, "scenarios": ["benign"],
                "warmup_cycles": 200000, "attack_cycles": 300000}"#,
        )
        .unwrap();
        let out = run(&s(&["submit", &spec_path, "--dir", &root])).unwrap();
        assert!(
            out.contains("submitted campaign sub: 1 jobs in 1 shards"),
            "{out}"
        );
        // Identical resubmission is idempotent...
        run(&s(&["submit", &spec_path, "--dir", &root])).unwrap();
        // ...`--shard-jobs 0` reads as 1, like the spec key...
        let zero = run(&s(&[
            "submit",
            &spec_path,
            "--dir",
            &format!("{root}-zero"),
            "--shard-jobs",
            "0",
        ]))
        .unwrap();
        assert!(zero.contains("1 jobs in 1 shards"), "{zero}");
        // ...but a --tenant override mutates the campaign's identity.
        assert!(run(&s(&["submit", &spec_path, "--dir", &root, "--tenant", "7"])).is_err());

        // Tenant namespaces derive disjoint seed streams: the same campaign
        // under a different tenant flies different boards.
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "1",
            "--scenario",
            "v2",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
            "--json",
        ];
        let t0 = run(&s(&base)).unwrap();
        let mut with_tenant: Vec<&str> = base.to_vec();
        with_tenant.extend(["--tenant", "7"]);
        let t7 = run(&s(&with_tenant)).unwrap();
        assert_ne!(t0, t7);

        // `--tenant` reads hex like every integer option.
        let [hex, dec] = ["0x10", "16"].map(|tenant| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--tenant", tenant]);
            run(&s(&argv)).unwrap()
        });
        assert_eq!(hex, dec);
    }
}
