//! Time-travel over a machine run: keyframe timelines, rewind, and
//! divergence bisection between a stock and a randomized execution.
//!
//! A [`Timeline`] records full-state keyframes every `interval` cycles
//! while the machine executes. Because the simulator is deterministic,
//! any intermediate cycle can be revisited by restoring the last keyframe
//! at or before it and re-executing forward ([`Timeline::rewind_to`]) —
//! storage cost is `O(run / interval)` keyframes, access cost is at most
//! one interval of re-execution.
//!
//! [`bisect_divergence`] is the forensic payoff: run the same firmware and
//! the same attack against a stock image and a MAVR-randomized image
//! (paper §V), record both timelines, and find the *exact first cycle*
//! where the randomized execution departs from the stock one. Until the
//! attack's hard-coded gadget addresses take effect the two runs retire
//! identical instruction streams (randomization moves whole functions, so
//! intra-function flow and AVR jump/call timing are unchanged); the first
//! divergent cycle is where the code-reuse payload stopped matching
//! reality.

use avr_core::image::FirmwareImage;
use avr_sim::{Machine, MachineState, RunExit};
use telemetry::{kinds, Value};

/// A recorded sequence of full-state keyframes over one machine run.
#[derive(Debug, Clone)]
pub struct Timeline {
    interval: u64,
    keyframes: Vec<MachineState>,
    /// Keyframe restores so far (rewinds and bisection rewinds); saves
    /// are [`Timeline::keyframes`]' length.
    pub restores: u64,
}

impl Timeline {
    /// An empty timeline taking a keyframe every `interval` cycles
    /// (clamped to at least 1).
    pub fn new(interval: u64) -> Self {
        Timeline {
            interval: interval.max(1),
            keyframes: Vec::new(),
            restores: 0,
        }
    }

    /// The keyframe spacing in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The recorded keyframes, oldest first.
    pub fn keyframes(&self) -> &[MachineState] {
        &self.keyframes
    }

    fn capture(&mut self, m: &mut Machine) {
        let state = m.capture_state();
        m.telemetry
            .emit(kinds::SNAPSHOT_SAVED, Some(state.cycles), || {
                vec![
                    ("keyframe", Value::U64(0)),
                    ("pc", Value::U64(u64::from(state.pc) * 2)),
                ]
            });
        self.keyframes.push(state);
    }

    /// Run `m` for (at most) `cycles` more cycles, capturing a keyframe at
    /// the current point and then at every `interval` boundary. Keyframes
    /// are instruction-aligned, so each may overshoot its boundary by one
    /// instruction's cycles. Returns the final [`RunExit`]; a fault stops
    /// recording after capturing the faulted state as a terminal keyframe.
    pub fn record(&mut self, m: &mut Machine, cycles: u64) -> RunExit {
        if self.keyframes.is_empty() {
            self.capture(m);
        }
        let target = m.cycles().saturating_add(cycles);
        while m.cycles() < target {
            let last = self.keyframes.last().expect("captured above").cycles;
            let boundary = last.saturating_add(self.interval).max(m.cycles() + 1);
            let chunk = boundary.min(target) - m.cycles();
            let exit = m.run(chunk);
            if m.cycles() >= boundary || !matches!(exit, RunExit::CyclesExhausted) {
                self.capture(m);
            }
            if !matches!(exit, RunExit::CyclesExhausted) {
                return exit;
            }
        }
        RunExit::CyclesExhausted
    }

    /// Capture a keyframe right now, regardless of the interval. Call this
    /// after feeding the machine an external input the simulator cannot
    /// re-derive (a UART injection, a flash patch): replays only reproduce
    /// state that some keyframe has seen, so inputs applied between
    /// keyframes would otherwise be lost to any rewind that predates them.
    pub fn mark(&mut self, m: &mut Machine) {
        self.capture(m);
    }

    /// Rewind `m` to `cycle`: restore the last keyframe at or before it,
    /// then re-execute forward until the machine's cycle counter reaches
    /// `cycle` (instruction-aligned, so it may stop just past it). Returns
    /// `None` when `cycle` predates the first keyframe; otherwise the
    /// machine's cycle counter after positioning.
    pub fn rewind_to(&mut self, m: &mut Machine, cycle: u64) -> Option<u64> {
        let kf = self.keyframes.iter().rev().find(|k| k.cycles <= cycle)?;
        m.restore_state(kf);
        m.telemetry
            .emit(kinds::SNAPSHOT_RESTORED, Some(kf.cycles), || {
                vec![("target_cycle", Value::U64(cycle))]
            });
        self.restores += 1;
        while m.cycles() < cycle && m.fault().is_none() {
            if m.step().is_err() {
                break;
            }
        }
        Some(m.cycles())
    }
}

/// The first cycle at which a randomized run departs from the stock run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// First cycle where the two executions disagree.
    pub cycle: u64,
    /// Stock machine's PC (byte address) at that cycle.
    pub stock_pc: u32,
    /// Randomized machine's PC (byte address) at that cycle — *not*
    /// normalized, i.e. where the randomized layout actually was.
    pub randomized_pc: u32,
}

/// Map a byte PC in the randomized layout back to the stock layout via
/// symbols: same function, same intra-function offset. Addresses outside
/// any known symbol (vectors, attacker-injected SRAM gadget chains) pass
/// through unchanged.
fn normalize_pc(pc_bytes: u32, from: &FirmwareImage, to: &FirmwareImage) -> u32 {
    match from.symbol_containing(pc_bytes) {
        Some(sym) => match to.symbol(&sym.name) {
            Some(dst) => dst.addr + (pc_bytes - sym.addr),
            None => pc_bytes,
        },
        None => pc_bytes,
    }
}

/// Whether two machines are at equivalent points: same cycle count, same
/// fault status, and the randomized PC maps onto the stock PC under symbol
/// normalization.
#[allow(clippy::too_many_arguments)]
fn aligned(
    stock_cycles: u64,
    stock_pc_bytes: u32,
    stock_fault: bool,
    rand_cycles: u64,
    rand_pc_bytes: u32,
    rand_fault: bool,
    rand_img: &FirmwareImage,
    stock_img: &FirmwareImage,
) -> bool {
    stock_cycles == rand_cycles
        && stock_fault == rand_fault
        && normalize_pc(rand_pc_bytes, rand_img, stock_img) == stock_pc_bytes
}

/// Find the exact first cycle where `randomized`'s execution departs from
/// `stock`'s.
///
/// Both timelines must have been recorded over the same firmware, inputs,
/// and attack — `stock_m`/`rand_m` are the machines they recorded (their
/// current state is clobbered by the bisection). The coarse phase scans the
/// keyframe pairs for the first misaligned pair; the fine phase restores
/// both machines at the last aligned keyframe and locksteps them one
/// instruction at a time until they split. Returns `None` when the runs
/// never diverge (e.g. the attack works identically on both layouts).
#[allow(clippy::too_many_arguments)]
pub fn bisect_divergence(
    stock: &mut Timeline,
    stock_m: &mut Machine,
    stock_img: &FirmwareImage,
    randomized: &mut Timeline,
    rand_m: &mut Machine,
    rand_img: &FirmwareImage,
) -> Option<Divergence> {
    let pairs = stock.keyframes.len().min(randomized.keyframes.len());
    if pairs == 0 {
        return None;
    }
    let kf_aligned = |i: usize| {
        let (s, r) = (&stock.keyframes[i], &randomized.keyframes[i]);
        aligned(
            s.cycles,
            s.pc * 2,
            s.fault.is_some(),
            r.cycles,
            r.pc * 2,
            r.fault.is_some(),
            rand_img,
            stock_img,
        )
    };
    // Coarse: first keyframe pair that is out of alignment. A length
    // mismatch with all shared pairs aligned means one run faulted inside
    // the window after the last shared keyframe — treat that window as
    // divergent too.
    let first_bad = (0..pairs)
        .find(|&i| !kf_aligned(i))
        .or_else(|| (stock.keyframes.len() != randomized.keyframes.len()).then_some(pairs))?;
    if first_bad == 0 {
        // Diverged before the first keyframe — the recording started too
        // late to pinpoint it; report the earliest evidence we have.
        let (s, r) = (&stock.keyframes[0], &randomized.keyframes[0]);
        return Some(Divergence {
            cycle: s.cycles.min(r.cycles),
            stock_pc: s.pc * 2,
            randomized_pc: r.pc * 2,
        });
    }
    // Fine: rewind both to the last aligned keyframe and lockstep.
    stock_m.restore_state(&stock.keyframes[first_bad - 1]);
    rand_m.restore_state(&randomized.keyframes[first_bad - 1]);
    stock.restores += 1;
    randomized.restores += 1;
    let budget = stock.keyframes[first_bad - 1]
        .cycles
        .saturating_add(stock.interval * 2 + 64);
    loop {
        let split = !aligned(
            stock_m.cycles(),
            stock_m.pc_bytes(),
            stock_m.fault().is_some(),
            rand_m.cycles(),
            rand_m.pc_bytes(),
            rand_m.fault().is_some(),
            rand_img,
            stock_img,
        );
        if split {
            return Some(Divergence {
                cycle: stock_m.cycles().min(rand_m.cycles()),
                stock_pc: stock_m.pc_bytes(),
                randomized_pc: rand_m.pc_bytes(),
            });
        }
        if stock_m.cycles() > budget || (stock_m.fault().is_some() && rand_m.fault().is_some()) {
            // Aligned all the way through the suspect window (or both
            // faulted identically): the keyframe mismatch was transient
            // peripheral state, not a control-flow split.
            return None;
        }
        let a = stock_m.step();
        let b = rand_m.step();
        if a.is_err() && b.is_err() {
            // Both just faulted; loop once more to compare alignment.
            continue;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::encode::encode_to_bytes;
    use avr_core::{Insn, Reg};

    fn counter_machine() -> Machine {
        let mut m = Machine::new_atmega2560();
        m.load_flash(
            0,
            &encode_to_bytes(&[
                Insn::Ldi { d: Reg::R24, k: 0 },
                Insn::Inc { d: Reg::R24 },
                Insn::Sts {
                    k: 0x0400,
                    r: Reg::R24,
                },
                Insn::Rjmp { k: -4 },
            ])
            .unwrap(),
        );
        m
    }

    #[test]
    fn record_spaces_keyframes_by_interval() {
        let mut m = counter_machine();
        let mut tl = Timeline::new(1_000);
        let exit = tl.record(&mut m, 10_000);
        assert!(matches!(exit, RunExit::CyclesExhausted));
        let kfs = tl.keyframes();
        assert!(kfs.len() >= 10, "got {} keyframes", kfs.len());
        for pair in kfs.windows(2) {
            let gap = pair[1].cycles - pair[0].cycles;
            assert!(
                (1_000..1_010).contains(&gap),
                "keyframe gap {gap} should be interval-aligned"
            );
        }
    }

    #[test]
    fn rewind_revisits_exact_intermediate_state() {
        let mut m = counter_machine();
        let mut tl = Timeline::new(500);
        tl.record(&mut m, 8_000);
        // Independently run a fresh machine to cycle ~3100 for ground truth.
        let mut truth = counter_machine();
        truth.run(3_100);
        let reached = tl.rewind_to(&mut m, 3_100).unwrap();
        assert_eq!(reached, truth.cycles());
        assert_eq!(m.capture_state(), truth.capture_state());
        assert!(tl.restores >= 1);
        // Rewinding before the first keyframe is refused.
        let mut m2 = counter_machine();
        m2.run(100); // move past 0 so keyframe 0 (cycle 0) still qualifies
        assert!(tl.rewind_to(&mut m2, 0).is_some());
    }

    #[test]
    fn identical_runs_do_not_diverge() {
        let img = FirmwareImage::new(avr_core::device::ATMEGA2560);
        let mut a = counter_machine();
        let mut b = counter_machine();
        let mut ta = Timeline::new(1_000);
        let mut tb = Timeline::new(1_000);
        ta.record(&mut a, 10_000);
        tb.record(&mut b, 10_000);
        assert_eq!(
            bisect_divergence(&mut ta, &mut a, &img, &mut tb, &mut b, &img),
            None
        );
    }

    /// A loop that executes identically for ~4100 cycles (a 10-bit counter
    /// built from r24/r25), then falls through to a tail instruction at
    /// word 8 that differs between the two variants.
    fn late_tail_machine(tail: Insn) -> Machine {
        let mut m = Machine::new_atmega2560();
        m.load_flash(
            0,
            &encode_to_bytes(&[
                Insn::Ldi { d: Reg::R24, k: 0 },
                Insn::Ldi { d: Reg::R25, k: 0 },
                // loop:
                Insn::Inc { d: Reg::R24 },
                Insn::Cpse {
                    d: Reg::R24,
                    r: Reg::R0, // r0 stays 0: skip when r24 wraps
                },
                Insn::Rjmp { k: -3 },
                Insn::Inc { d: Reg::R25 }, // every 256 iterations
                Insn::Sbrs { r: Reg::R25, b: 2 },
                Insn::Rjmp { k: -6 },
                tail, // word 8: first reached once r25 hits 4
            ])
            .unwrap(),
        );
        m
    }

    #[test]
    fn late_divergence_is_pinpointed_to_the_exact_cycle() {
        let img = FirmwareImage::new(avr_core::device::ATMEGA2560);
        // Stock keeps looping from the tail; the variant wedges into a
        // self-loop there. Until word 8 is reached the runs are
        // instruction-for-instruction identical.
        let mut a = late_tail_machine(Insn::Rjmp { k: -7 });
        let mut b = late_tail_machine(Insn::Rjmp { k: -1 });
        let mut ta = Timeline::new(1_000);
        let mut tb = Timeline::new(1_000);
        ta.record(&mut a, 10_000);
        tb.record(&mut b, 10_000);
        // Ground truth: step a fresh variant until it first fetches word 8;
        // the runs split when that tail rjmp retires (2 cycles later).
        let mut truth = late_tail_machine(Insn::Rjmp { k: -1 });
        while truth.pc_bytes() != 16 {
            truth.step().unwrap();
        }
        let expected = truth.cycles() + 2;
        let d = bisect_divergence(&mut ta, &mut a, &img, &mut tb, &mut b, &img)
            .expect("variant run must diverge");
        assert_eq!(d.cycle, expected, "divergence cycle must be exact");
        assert_eq!(d.stock_pc, 4, "stock loops back to word 2");
        assert_eq!(d.randomized_pc, 16, "variant self-loops at word 8");
    }

    #[test]
    fn normalize_pc_maps_function_offsets_across_layouts() {
        use avr_core::image::{Symbol, SymbolKind};
        let mk = |addr| {
            let mut img = FirmwareImage::new(avr_core::device::ATMEGA2560);
            img.bytes = vec![0; 0x2000];
            img.symbols = vec![Symbol {
                name: "loop_main".into(),
                addr,
                size: 0x40,
                kind: SymbolKind::Function,
            }];
            img
        };
        let stock = mk(0x100);
        let rand = mk(0x900);
        assert_eq!(normalize_pc(0x912, &rand, &stock), 0x112);
        // Outside any symbol: identity.
        assert_eq!(normalize_pc(0x2a, &rand, &stock), 0x2a);
    }
}
