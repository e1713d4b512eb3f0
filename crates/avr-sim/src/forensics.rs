//! Post-mortem crash forensics.
//!
//! When an application machine dies — invalid opcode, PC off the end of
//! flash, watchdog expiry — the interesting question is *how it got there*:
//! which function (or which attacker gadget) the final program counters
//! belonged to, and what return addresses were still sitting on the stack.
//! [`CrashReport::capture`] combines three artifacts into one answer:
//!
//! * the machine's [`Trace`](crate::Trace) ring buffer (recent `(pc, sp)`
//!   pairs),
//! * a window of the stack above the final stack pointer, scanned for
//!   plausible 3-byte big-endian return addresses (the layout
//!   `push_pc` leaves on an ATmega2560), and
//! * the firmware symbol map of the image that was actually running, so raw
//!   addresses become function names.
//!
//! Known attacker addresses (gadget entry points from a
//! [`GadgetMap`](../rop)) can be attached as *annotations*; any trace entry
//! or stack word that hits one is flagged, which is what turns "crashed in
//! `handle_param_set`" into "crashed returning through the attacker's
//! `stk_move` gadget".

use std::fmt::Write as _;

use avr_core::image::FirmwareImage;
use telemetry::{json_escape, Value};

use crate::machine::Machine;

/// How many trace entries the narrative keeps.
const TRAIL_LEN: usize = 24;
/// How many bytes of stack above SP are scanned for return addresses.
const STACK_WINDOW: usize = 96;

/// One attributed program-counter sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Attributed {
    /// Byte address in flash.
    pub addr: u32,
    /// Stack pointer at the time (trace entries) or the stack offset the
    /// candidate was found at (stack scan).
    pub sp: u16,
    /// Name of the containing function symbol, if the symbol map knows it.
    pub symbol: Option<String>,
    /// Offset of `addr` into `symbol`.
    pub offset: u32,
    /// Attacker annotation covering this address, if any.
    pub note: Option<String>,
}

/// A machine-readable post-mortem, with a human-readable rendering.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// The fault that stopped the machine, if it is stopped.
    pub fault: Option<String>,
    /// Cycle count at capture time.
    pub cycle: u64,
    /// Instructions retired at capture time.
    pub insns_retired: u64,
    /// Final program counter (byte address).
    pub final_pc: u32,
    /// Final stack pointer.
    pub sp: u16,
    /// Recent execution trail from the trace ring, oldest first. Empty if
    /// tracing was off.
    pub trail: Vec<Attributed>,
    /// Plausible return addresses found on the stack above SP, in pop
    /// order (nearest to SP first). `sp` holds the stack address scanned.
    pub stack_returns: Vec<Attributed>,
    /// Where a pre-crash machine snapshot was written (a file path or other
    /// locator), if the host saved one. Set by the caller after `capture`;
    /// lets an operator reload the dying machine and single-step into the
    /// fault instead of reading tea leaves from the trail.
    pub snapshot_ref: Option<String>,
    /// First cycle at which this execution diverged from a reference run
    /// (the stock-vs-randomized bisect of the `snapshot` crate's replay
    /// layer). Set by the caller when a divergence analysis was performed.
    pub divergence_cycle: Option<u64>,
}

impl CrashReport {
    /// Capture a post-mortem from `machine`.
    ///
    /// `image` is the firmware that was running (its symbol map attributes
    /// addresses; pass the *randomized* image on a MAVR board, not the
    /// build layout). `annotations` are `(byte_addr, len, label)` ranges of
    /// known attacker interest — gadget entry points, injected buffers.
    pub fn capture(
        machine: &Machine,
        image: Option<&FirmwareImage>,
        annotations: &[(u32, u32, String)],
    ) -> CrashReport {
        let attribute = |addr: u32, sp: u16| -> Attributed {
            let sym = image.and_then(|i| i.symbol_containing(addr));
            let note = annotations
                .iter()
                .find(|(a, len, _)| addr >= *a && addr < *a + (*len).max(1))
                .map(|(_, _, label)| label.clone());
            Attributed {
                addr,
                sp,
                symbol: sym.map(|s| s.name.clone()),
                offset: sym.map(|s| addr - s.addr).unwrap_or(0),
                note,
            }
        };

        let trail: Vec<Attributed> = machine
            .trace()
            .map(|t| {
                t.iter()
                    .skip(t.len().saturating_sub(TRAIL_LEN))
                    .map(|&(pc, sp)| attribute(pc, sp))
                    .collect()
            })
            .unwrap_or_default();

        // Scan the dead stack for 3-byte big-endian return addresses: any
        // word-aligned byte address inside the flashed code is a candidate.
        let sp = machine.sp();
        let ramend = machine.device().ramend();
        let code_end = image
            .map(|i| i.code_size())
            .unwrap_or(machine.device().flash_bytes);
        let mut stack_returns = Vec::new();
        let window = (u32::from(ramend).saturating_sub(u32::from(sp))) as usize;
        for off in 1..=window.min(STACK_WINDOW).saturating_sub(2) {
            let a = sp.wrapping_add(off as u16);
            let hi = machine.peek_data(a);
            let mid = machine.peek_data(a.wrapping_add(1));
            let lo = machine.peek_data(a.wrapping_add(2));
            let word = (u32::from(hi) << 16) | (u32::from(mid) << 8) | u32::from(lo);
            let byte_addr = word * 2;
            if word != 0 && byte_addr < code_end {
                stack_returns.push(attribute(byte_addr, a));
            }
        }

        CrashReport {
            fault: machine.fault().map(|f| f.to_string()),
            cycle: machine.cycles(),
            insns_retired: machine.insns_retired,
            final_pc: machine.pc_bytes(),
            sp,
            trail,
            stack_returns,
            snapshot_ref: None,
            divergence_cycle: None,
        }
    }

    /// The attacker annotations hit anywhere in the report (deduplicated,
    /// in first-seen order) — the "which gadget did it die in" summary.
    pub fn attacker_hits(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for a in self.trail.iter().chain(&self.stack_returns) {
            if let Some(n) = &a.note {
                if !seen.contains(&n.as_str()) {
                    seen.push(n.as_str());
                }
            }
        }
        seen
    }

    /// Render a human-readable crash narrative.
    pub fn narrative(&self) -> String {
        let mut out = String::new();
        match &self.fault {
            Some(f) => {
                let _ = writeln!(
                    out,
                    "machine dead: {f} at pc {:#06x}, sp {:#06x}, cycle {}",
                    self.final_pc, self.sp, self.cycle
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "machine alive at pc {:#06x}, sp {:#06x}, cycle {}",
                    self.final_pc, self.sp, self.cycle
                );
            }
        }
        let _ = writeln!(out, "  instructions retired: {}", self.insns_retired);
        if self.trail.is_empty() {
            let _ = writeln!(out, "  no execution trail (tracing was off)");
        } else {
            let _ = writeln!(out, "  last {} instructions:", self.trail.len());
            for a in &self.trail {
                let _ = writeln!(out, "    {}", describe(a, "pc"));
            }
        }
        if !self.stack_returns.is_empty() {
            let _ = writeln!(out, "  return addresses on the dead stack (nearest first):");
            for a in &self.stack_returns {
                let _ = writeln!(out, "    {}", describe(a, "ret"));
            }
        }
        let hits = self.attacker_hits();
        if !hits.is_empty() {
            let _ = writeln!(out, "  attacker code involved: {}", hits.join(", "));
        }
        if let Some(c) = self.divergence_cycle {
            let _ = writeln!(out, "  diverged from the reference run at cycle {c}");
        }
        if let Some(r) = &self.snapshot_ref {
            let _ = writeln!(out, "  pre-crash snapshot: {r}");
        }
        out
    }

    /// Render the report as one JSON object.
    pub fn to_json(&self) -> String {
        let attributed_json = |a: &Attributed| {
            let mut s = format!("{{\"addr\":{},\"sp\":{}", a.addr, a.sp);
            if let Some(sym) = &a.symbol {
                let _ = write!(
                    s,
                    ",\"symbol\":\"{}\",\"offset\":{}",
                    json_escape(sym),
                    a.offset
                );
            }
            if let Some(n) = &a.note {
                let _ = write!(s, ",\"note\":\"{}\"", json_escape(n));
            }
            s.push('}');
            s
        };
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"fault\":{},",
            self.fault
                .as_ref()
                .map(|f| Value::Str(f.clone()).to_json())
                .unwrap_or_else(|| "null".into())
        );
        let _ = write!(
            out,
            "\"cycle\":{},\"insns_retired\":{},\"final_pc\":{},\"sp\":{},",
            self.cycle, self.insns_retired, self.final_pc, self.sp
        );
        let join = |v: &[Attributed]| v.iter().map(attributed_json).collect::<Vec<_>>().join(",");
        let _ = write!(out, "\"trail\":[{}],", join(&self.trail));
        let _ = write!(out, "\"stack_returns\":[{}],", join(&self.stack_returns));
        let _ = write!(
            out,
            "\"attacker_hits\":[{}]",
            self.attacker_hits()
                .iter()
                .map(|h| format!("\"{}\"", json_escape(h)))
                .collect::<Vec<_>>()
                .join(",")
        );
        if let Some(c) = self.divergence_cycle {
            let _ = write!(out, ",\"divergence_cycle\":{c}");
        }
        if let Some(r) = &self.snapshot_ref {
            let _ = write!(out, ",\"snapshot_ref\":\"{}\"", json_escape(r));
        }
        out.push('}');
        out
    }
}

fn describe(a: &Attributed, what: &str) -> String {
    let mut s = format!("{what} {:#06x}", a.addr);
    match &a.symbol {
        Some(sym) if a.offset > 0 => {
            let _ = write!(s, " in {sym}+{:#x}", a.offset);
        }
        Some(sym) => {
            let _ = write!(s, " in {sym}");
        }
        None => s.push_str(" (no symbol)"),
    }
    if let Some(n) = &a.note {
        let _ = write!(s, "  <== {n}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::encode::encode_to_bytes;
    use avr_core::Insn;

    #[test]
    fn capture_attributes_trace_and_stack() {
        // A program that calls into a function which then jumps off the
        // rails: rcall -> (in callee) jump to unprogrammed flash.
        let prog = encode_to_bytes(&[
            Insn::Rcall { k: 1 },      // 0x0000: call 0x0004
            Insn::Rjmp { k: -2 },      // 0x0002
            Insn::Jmp { k: 0x3_f000 }, // 0x0004: callee jumps into 0xff
        ])
        .unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &prog);
        m.enable_trace(16);
        let exit = m.run(100);
        assert!(!exit.is_healthy());

        let report = CrashReport::capture(&m, None, &[(0x0004, 4, "gadget:test".to_string())]);
        assert!(report.fault.is_some());
        assert!(!report.trail.is_empty());
        // The callee's address is annotated in the trail.
        assert!(report
            .trail
            .iter()
            .any(|a| a.note.as_deref() == Some("gadget:test")));
        // The pushed return address (word 2 -> byte 4... return to 0x0002,
        // word 1) is found on the stack: candidate byte addr 2.
        assert!(
            report.stack_returns.iter().any(|r| r.addr == 2),
            "return to 0x0002 should be on the stack: {:?}",
            report.stack_returns
        );
        assert_eq!(report.attacker_hits(), vec!["gadget:test"]);
        let json = report.to_json();
        assert!(json.contains("\"attacker_hits\":[\"gadget:test\"]"));
        assert!(report.narrative().contains("attacker code involved"));
    }

    #[test]
    fn healthy_machine_reports_alive() {
        let mut m = Machine::new_atmega2560();
        m.load_flash(
            0,
            &encode_to_bytes(&[Insn::Nop, Insn::Rjmp { k: -2 }]).unwrap(),
        );
        m.run(10);
        let r = CrashReport::capture(&m, None, &[]);
        assert!(r.fault.is_none());
        assert!(r.narrative().starts_with("machine alive"));
        assert!(r.trail.is_empty(), "tracing off -> empty trail");
    }
}
