//! Differential properties of the block-fused execution engine: a machine
//! dispatching fused blocks (with compiled micro-op streams, folded flag
//! computation and terminator tail-stepping) must be architecturally
//! indistinguishable from one stepping the predecode cache per instruction
//! *and* from one decoding flash on every fetch — a three-way oracle, run
//! through interrupts, a live watchdog, timer rewrites, heartbeat I/O and
//! mid-run reflashes. The predecode table covers only the programmed
//! extent and decodes 256-byte pages on first use, so the layouts below
//! also enter undecoded pages every way control can arrive, straddle page
//! edges, resize the image, and run off its end.

use avr_core::encode::encode_to_bytes;
use avr_core::{io, Insn, PtrReg, Reg, YZ};
use avr_sim::timer::{TCCR0B_ADDR, TCNT0_ADDR, TOV0};
use avr_sim::{Fault, Machine};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Word address the structured programs run from, clear of the vector table.
const PROG_WORD: u32 = 64;

/// Words per lazily decoded predecode page (256 bytes).
const PAGE: u32 = 128;

/// Program `insns` at word address `word`.
fn place(m: &mut Machine, word: u32, insns: &[Insn]) {
    m.load_flash(word * 2, &encode_to_bytes(insns).unwrap());
}

/// Push a 3-byte return address so that `ret` lands on word `k`.
fn ret_to(k: u32) -> Vec<Insn> {
    let mut seq = Vec::new();
    for byte in [k & 0xff, (k >> 8) & 0xff, k >> 16] {
        seq.push(Insn::Ldi {
            d: Reg::R24,
            k: byte as u8,
        });
        seq.push(Insn::Push { r: Reg::R24 });
    }
    seq.push(Insn::Ret);
    seq
}

fn arch(m: &Machine) -> (u32, u8, u16, u64, Option<Fault>, u64, u64) {
    (
        m.pc(),
        m.sreg(),
        m.sp(),
        m.cycles(),
        m.fault(),
        m.insns_retired,
        m.interrupts_taken,
    )
}

/// The three engines under test, built by the same setup closure:
/// block-fused, predecoded-stepping, and uncached-decoding.
fn triple(setup: impl Fn(&mut Machine)) -> [Machine; 3] {
    let mut fused = Machine::new_atmega2560();
    let mut predecoded = Machine::new_atmega2560();
    predecoded.set_block_fusion(false);
    let mut uncached = Machine::new_atmega2560();
    uncached.set_predecode(false);
    setup(&mut fused);
    setup(&mut predecoded);
    setup(&mut uncached);
    [fused, predecoded, uncached]
}

/// Drive all three machines through the same batch schedule and assert
/// identical architectural state at every batch boundary, then full state
/// equality (data space, peripherals, timer residuals) at the end. Batches
/// larger than a block's cycle cost are what let fused dispatch engage;
/// 1-cycle batches squeeze every block out through the horizon check, so a
/// mixed schedule exercises both dispatch regimes and the transitions.
fn lockstep_batched(ms: &mut [Machine; 3], batches: &[u64]) {
    for (i, &budget) in batches.iter().enumerate() {
        let exits: Vec<_> = ms.iter_mut().map(|m| m.run(budget)).collect();
        assert_eq!(
            exits[0], exits[1],
            "fused/predecoded exit diverged at batch {i}"
        );
        assert_eq!(
            exits[1], exits[2],
            "predecoded/uncached exit diverged at batch {i}"
        );
        assert_eq!(
            arch(&ms[0]),
            arch(&ms[1]),
            "fused/predecoded state diverged at batch {i}"
        );
        assert_eq!(
            arch(&ms[1]),
            arch(&ms[2]),
            "predecoded/uncached state diverged at batch {i}"
        );
        if ms[0].fault().is_some() {
            break;
        }
    }
    let s0 = ms[0].capture_state();
    assert_eq!(s0, ms[1].capture_state(), "fused/predecoded full state");
    assert_eq!(s0, ms[2].capture_state(), "predecoded/uncached full state");
}

/// Instruction soup rich in fusable bodies: straight-line ALU runs, stack
/// traffic, pointer loads/stores, timer reads and writes, heartbeat port
/// I/O, and the control flow that terminates blocks.
fn insn_strategy() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R24, k }),
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R25, k }),
        Just(Insn::Add {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Adc {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Sub {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Cp {
            d: Reg::R24,
            r: Reg::R25
        }),
        (any::<u8>()).prop_map(|k| Insn::Subi { d: Reg::R24, k }),
        Just(Insn::Mul {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Inc { d: Reg::R24 }),
        Just(Insn::Lsr { d: Reg::R24 }),
        Just(Insn::Push { r: Reg::R24 }),
        Just(Insn::Pop { d: Reg::R25 }),
        Just(Insn::Nop),
        Just(Insn::Wdr),
        Just(Insn::Bset { s: 7 }), // sei
        Just(Insn::Bclr { s: 7 }), // cli
        // X -> scratch SRAM, then indirect traffic through it.
        Just(Insn::Ldi { d: Reg::R26, k: 0 }),
        Just(Insn::Ldi { d: Reg::R27, k: 3 }),
        Just(Insn::St {
            ptr: PtrReg::XPostInc,
            r: Reg::R24
        }),
        Just(Insn::Ld {
            d: Reg::R25,
            ptr: PtrReg::XPostInc
        }),
        Just(Insn::Ldd {
            d: Reg::R24,
            idx: YZ::Z,
            q: 2
        }),
        Just(Insn::Adiw { d: Reg::R26, k: 1 }),
        // Timer reads (sync-offset micro-ops) and rewrites underneath the
        // fused engine's overflow fit check.
        Just(Insn::Lds {
            d: Reg::R24,
            k: TCNT0_ADDR
        }),
        Just(Insn::Sts {
            k: TCCR0B_ADDR,
            r: Reg::R24
        }),
        Just(Insn::Sts {
            k: TCNT0_ADDR,
            r: Reg::R25
        }),
        // Heartbeat port traffic: cycle-stamped observer micro-ops.
        Just(Insn::Out {
            a: 0x05,
            r: Reg::R24
        }), // PORTB
        Just(Insn::Sbi { a: 0x05, b: 5 }),
        Just(Insn::Cbi { a: 0x05, b: 5 }),
        Just(Insn::In {
            d: Reg::R25,
            a: 0x05
        }),
        // Block terminators.
        Just(Insn::Cpse {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Sbrs { r: Reg::R24, b: 0 }),
        Just(Insn::Brbs { s: 1, k: 2 }),
        Just(Insn::Rjmp { k: 1 }),
        Just(Insn::Call { k: PROG_WORD }),
        Just(Insn::Ret),
    ]
}

/// A batch schedule mixing 1-cycle crawls with block-sized strides.
fn batch_strategy() -> impl Strategy<Value = Vec<u64>> {
    pvec(prop_oneof![Just(1u64), 2u64..40, 40u64..400], 1..24)
}

proptest! {
    /// Raw random words: most decode to garbage and fault quickly — the
    /// fused engine must fault at the identical instruction and cycle.
    #[test]
    fn raw_words_execute_identically(
        words in pvec(any::<u16>(), 1..256),
        batches in batch_strategy(),
    ) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut ms = triple(|m| m.load_flash(0, &bytes));
        lockstep_batched(&mut ms, &batches);
    }

    /// Structured programs with the Timer0 overflow interrupt live, a
    /// `reti` handler at the vector, and an armed watchdog: block dispatch
    /// must respect every event horizon — IRQ delivery points, watchdog
    /// deadlines, timer overflow — exactly as per-instruction stepping
    /// does, even while the program rewrites the timer underneath it.
    #[test]
    fn programs_with_irqs_and_watchdog_execute_identically(
        prog in pvec(insn_strategy(), 1..48),
        prescale in 1u8..=3,
        wd_timeout in 200u64..4000,
        batches in batch_strategy(),
    ) {
        let bytes = encode_to_bytes(&prog).unwrap();
        let mut ms = triple(|m| {
            m.load_flash(avr_sim::timer::TIMER0_OVF_VECTOR * 4,
                         &encode_to_bytes(&[Insn::Reti]).unwrap());
            m.load_flash(PROG_WORD * 2, &bytes);
            m.set_pc_bytes(PROG_WORD * 2);
            m.set_sreg(1 << 7); // I
            m.timer0.tccr_b = prescale;
            m.timer0.timsk = TOV0;
            m.watchdog.enable(wd_timeout, 0);
        });
        lockstep_batched(&mut ms, &batches);
    }

    /// One big fused batch against the same fused engine crawling 1 cycle
    /// at a time: the horizon check squeezes every block out of the crawl,
    /// so this pins the fused/stepped boundary inside a single engine.
    #[test]
    fn batched_run_matches_crawled_run(
        prog in pvec(insn_strategy(), 1..48),
        budget in 1u64..20_000,
    ) {
        let bytes = encode_to_bytes(&prog).unwrap();
        let setup = |m: &mut Machine| {
            m.load_flash(PROG_WORD * 2, &bytes);
            m.set_pc_bytes(PROG_WORD * 2);
            m.watchdog.enable(5_000, 0);
        };
        let mut batched = Machine::new_atmega2560();
        let mut crawled = Machine::new_atmega2560();
        setup(&mut batched);
        setup(&mut crawled);
        let a = batched.run(budget);
        let mut b = crawled.run(1);
        while crawled.cycles() < budget && crawled.fault().is_none() {
            b = crawled.run(1);
        }
        prop_assert_eq!(a, b);
        prop_assert_eq!(batched.capture_state(), crawled.capture_state());
    }

    /// Reflash coherence: after blocks have been discovered and dispatched,
    /// erase the chip and load a different program — stale fused blocks
    /// must not survive the MAVR-style recovery reflash.
    #[test]
    fn reflash_invalidates_stale_blocks(
        prog_a in pvec(insn_strategy(), 1..32),
        prog_b in pvec(insn_strategy(), 1..32),
        batches in batch_strategy(),
    ) {
        let bytes_a = encode_to_bytes(&prog_a).unwrap();
        let bytes_b = encode_to_bytes(&prog_b).unwrap();
        let mut ms = triple(|m| {
            m.load_flash(PROG_WORD * 2, &bytes_a);
            m.set_pc_bytes(PROG_WORD * 2);
        });
        lockstep_batched(&mut ms, &batches);
        // MAVR-style recovery: wipe, flash the re-randomized image, reset.
        for m in ms.iter_mut() {
            m.erase_flash();
            m.load_flash(PROG_WORD * 2, &bytes_b);
            m.reset();
            m.set_pc_bytes(PROG_WORD * 2);
        }
        lockstep_batched(&mut ms, &batches);
    }

    /// In-place patching (no erase): overwrite part of the live program —
    /// per-page invalidation must drop exactly the overlapping blocks.
    #[test]
    fn patch_invalidates_overlapping_blocks(
        prog_a in pvec(insn_strategy(), 8..32),
        prog_b in pvec(insn_strategy(), 1..8),
        patch_at in 0u32..16,
        batches in batch_strategy(),
    ) {
        let bytes_a = encode_to_bytes(&prog_a).unwrap();
        let bytes_b = encode_to_bytes(&prog_b).unwrap();
        let mut ms = triple(|m| {
            m.load_flash(PROG_WORD * 2, &bytes_a);
            m.set_pc_bytes(PROG_WORD * 2);
        });
        lockstep_batched(&mut ms, &batches);
        for m in ms.iter_mut() {
            m.load_flash((PROG_WORD + patch_at) * 2, &bytes_b);
            m.reset();
            m.set_pc_bytes(PROG_WORD * 2);
        }
        lockstep_batched(&mut ms, &batches);
    }
}

/// Straight-line filler that neither branches nor faults.
fn filler_strategy() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R24, k }),
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R25, k }),
        Just(Insn::Add {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Inc { d: Reg::R25 }),
        Just(Insn::Nop),
        Just(Insn::Lds {
            d: Reg::R25,
            k: 0x300
        }),
    ]
}

proptest! {
    /// Segments on separate pages, each linked to the next by `jmp`,
    /// `call`, a pushed-address `ret` or `rjmp`, with the Timer0 vector
    /// (page 0) jumping to a handler on a page of its own: every page is
    /// first entered through one of those transfers, never by falling
    /// into it, and segments may straddle their page's end.
    #[test]
    fn first_entry_into_undecoded_pages_executes_identically(
        segs in pvec((pvec(insn_strategy(), 0..12), 0u8..4, 0u32..PAGE), 2..5),
        prescale in 1u8..=3,
        batches in batch_strategy(),
    ) {
        let bases: Vec<u32> = segs
            .iter()
            .enumerate()
            .map(|(i, (_, _, off))| PAGE * (2 + 3 * i as u32) + off)
            .collect();
        const ISR_WORD: u32 = PAGE * 40 + 3;
        let mut ms = triple(|m| {
            place(m, avr_sim::timer::TIMER0_OVF_VECTOR * 2, &[Insn::Jmp { k: ISR_WORD }]);
            place(m, ISR_WORD, &[Insn::Inc { d: Reg::R25 }, Insn::Reti]);
            for (i, (body, link, _)) in segs.iter().enumerate() {
                let next = bases[(i + 1) % bases.len()];
                let mut code = body.clone();
                match link {
                    0 => code.push(Insn::Jmp { k: next }),
                    1 => code.push(Insn::Call { k: next }),
                    2 => code.extend(ret_to(next)),
                    _ => {
                        let here = bases[i] + encode_to_bytes(&code).unwrap().len() as u32 / 2;
                        code.push(Insn::Rjmp { k: (next as i32 - here as i32 - 1) as i16 });
                    }
                }
                place(m, bases[i], &code);
            }
            m.set_pc_bytes(bases[0] * 2);
            m.set_sreg(1 << 7); // I
            m.timer0.tccr_b = prescale;
            m.timer0.timsk = TOV0;
        });
        lockstep_batched(&mut ms, &batches);
    }

    /// A skip as the last word of a page whose successor — a two-word
    /// instruction, so the skip's width matters — opens the next,
    /// still-undecoded page.
    #[test]
    fn skip_over_an_undecoded_successor_executes_identically(
        r24 in any::<u8>(),
        r25 in any::<u8>(),
        bit in 0u8..8,
        kind in 0u8..3,
        successor in 0u8..3,
        batches in batch_strategy(),
    ) {
        let skip_word = 5 * PAGE - 1;
        let back = 5 * PAGE - 4;
        let skip = match kind {
            0 => Insn::Sbrs { r: Reg::R24, b: bit },
            1 => Insn::Sbrc { r: Reg::R24, b: bit },
            _ => Insn::Cpse { d: Reg::R24, r: Reg::R25 },
        };
        let two_word = match successor {
            0 => Insn::Lds { d: Reg::R25, k: 0x300 },
            1 => Insn::Jmp { k: 9 * PAGE },
            _ => Insn::Call { k: 9 * PAGE },
        };
        let mut ms = triple(|m| {
            m.set_reg(Reg::R24, r24);
            m.set_reg(Reg::R25, r25);
            place(m, back, &[Insn::Inc { d: Reg::R24 }, Insn::Nop, Insn::Nop, skip]);
            place(m, skip_word + 1, &[two_word, Insn::Rjmp { k: -(PAGE as i16) - 2 }]);
            place(m, 9 * PAGE, &[Insn::Inc { d: Reg::R25 }, Insn::Jmp { k: back }]);
            m.set_pc_bytes(back * 2);
        });
        lockstep_batched(&mut ms, &batches);
    }

    /// A two-word `jmp` at the last word of page 6 takes its operand from
    /// page 7. With only one of the two pages decoded, page 7 is
    /// rewritten: the jump must follow the new operand.
    #[test]
    fn straddler_follows_a_rewrite_of_its_second_page(
        operand_page_first in any::<bool>(),
        body in pvec(filler_strategy(), 0..20),
        batches in batch_strategy(),
    ) {
        let straddle = 7 * PAGE - 1;
        let (old_target, new_target) = (20 * PAGE, 21 * PAGE);
        let page7_loop = 7 * PAGE + 1;
        let start = straddle - encode_to_bytes(&body).unwrap().len() as u32 / 2;
        let mut ms = triple(|m| {
            place(m, start, &body);
            place(m, straddle, &[Insn::Jmp { k: old_target }]);
            place(m, page7_loop, &[Insn::Inc { d: Reg::R25 }, Insn::Rjmp { k: -2 }]);
            place(m, old_target, &[Insn::Ldi { d: Reg::R24, k: 1 }, Insn::Rjmp { k: -1 }]);
            place(m, new_target, &[Insn::Ldi { d: Reg::R24, k: 2 }, Insn::Rjmp { k: -1 }]);
            // Run on one side of the edge only: page 6 through the jump, or
            // page 7's loop.
            m.set_pc_bytes(if operand_page_first { page7_loop } else { start } * 2);
        });
        lockstep_batched(&mut ms, &batches);
        for m in ms.iter_mut() {
            // Rewrite page 7 whole: the operand now names the new target.
            let mut page = encode_to_bytes(&[Insn::Jmp { k: new_target }]).unwrap()[2..].to_vec();
            page.extend(encode_to_bytes(&[Insn::Inc { d: Reg::R25 }, Insn::Rjmp { k: -2 }]).unwrap());
            page.resize(2 * PAGE as usize, 0xff);
            m.load_flash(7 * PAGE * 2, &page);
            m.set_pc_bytes(start * 2);
        }
        lockstep_batched(&mut ms, &[4096]);
        for m in &ms {
            prop_assert_eq!(m.reg(Reg::R24), 2, "the jump took the rewritten operand");
        }
    }

    /// Reflash to a larger image, then to a smaller one whose code runs
    /// off its end into the larger image's erased pages.
    #[test]
    fn reflash_to_larger_then_smaller_image_executes_identically(
        small in pvec(filler_strategy(), 1..40),
        large_pages in 2u32..6,
        fill in pvec(filler_strategy(), 1..16),
        batches in batch_strategy(),
    ) {
        let small_bytes = encode_to_bytes(&small).unwrap();
        let mut large: Vec<Insn> = fill.iter().cycle().take((large_pages * PAGE) as usize).copied().collect();
        large.push(Insn::Jmp { k: PROG_WORD });
        let large_bytes = encode_to_bytes(&large).unwrap();
        let mut ms = triple(|m| {
            m.load_flash(PROG_WORD * 2, &small_bytes);
            m.set_pc_bytes(PROG_WORD * 2);
        });
        lockstep_batched(&mut ms, &batches);
        for bytes in [&large_bytes, &small_bytes] {
            for m in ms.iter_mut() {
                m.erase_flash();
                m.load_flash(PROG_WORD * 2, bytes);
                m.reset();
                m.set_pc_bytes(PROG_WORD * 2);
            }
            lockstep_batched(&mut ms, &batches);
        }
        // The small image falls through into erased flash and faults there
        // (given the cycles to get that far).
        lockstep_batched(&mut ms, &[1_000_000]);
        let off_the_end = PROG_WORD * 2 + small_bytes.len() as u32;
        for m in &ms {
            prop_assert_eq!(
                m.fault(),
                Some(Fault::InvalidOpcode { addr: off_the_end, word: 0xffff })
            );
        }
    }

    /// A jump into erased flash past the programmed extent faults exactly
    /// as the uncached decoder does: an erased word inside flash is an
    /// invalid opcode, a PC past the end of flash is out of bounds.
    #[test]
    fn pc_past_the_image_faults_like_the_uncached_path(
        body in pvec(filler_strategy(), 0..20),
        far in prop_oneof![3 * PAGE..0x2_0000, 0x2_0000u32..0x40_0000],
        batches in batch_strategy(),
    ) {
        let mut code = body.clone();
        code.push(Insn::Jmp { k: far });
        let mut ms = triple(|m| {
            place(m, PROG_WORD, &code);
            m.set_pc_bytes(PROG_WORD * 2);
        });
        let mut schedule = batches.clone();
        schedule.push(10_000);
        lockstep_batched(&mut ms, &schedule);
        let expected = if far < 0x2_0000 {
            Fault::InvalidOpcode { addr: far * 2, word: 0xffff }
        } else {
            Fault::PcOutOfBounds { pc: far }
        };
        for m in &ms {
            prop_assert_eq!(m.fault(), Some(expected));
        }
    }
}

/// The two ways real firmware reaches a block that runs stepped rather
/// than compiled, swept over every Timer0 phase at prescales 1 and 2 with
/// the watchdog armed, so the timer overflows and the watchdog fires at
/// every offset inside the stepped blocks:
///
/// * the paper's `stk_move` pivot epilogue (Fig. 4): `out SPL` then the
///   `pop`s in one block, which the SP write demotes, then `ret` through a
///   frame that loops back — plus a `TCNT0` read the stepped block must
///   see at its exact cycle;
/// * an `out SPH` that moves SP past the data space, a terminator, then a
///   block of `push`es whose SP-margin check fails: it must fault at the
///   same instruction and cycle as stepping.
///
/// I stays clear: the stepped blocks themselves are under test here, not
/// interrupt admission around them.
#[test]
fn blocks_that_do_not_compile_step_exactly() {
    const SP0: u16 = 0x2000;
    let [lo, hi] = SP0.to_le_bytes();
    let (r0, r28, r29) = (Reg::R0, Reg::R28, Reg::R29);
    let read_tcnt0 = Insn::In {
        d: Reg::R24,
        a: 0x26,
    };
    let stk_move = [
        Insn::Ldi { d: r28, k: lo },
        Insn::Ldi { d: r29, k: hi },
        Insn::Out { a: io::SPH, r: r29 },
        Insn::Out { a: io::SREG, r: r0 },
        Insn::Out { a: io::SPL, r: r28 },
        Insn::Pop { d: r28 },
        Insn::Pop { d: r29 },
        Insn::Pop { d: Reg::R16 },
        read_tcnt0,
        Insn::Ret,
    ];
    let sp_past_data = [
        Insn::Ldi { d: r29, k: 0x30 },
        Insn::Out { a: io::SPH, r: r29 },
        Insn::Rjmp { k: 0 },
        Insn::Inc { d: Reg::R25 },
        read_tcnt0,
        Insn::Push { r: Reg::R24 },
        Insn::Push { r: Reg::R25 },
        Insn::Rjmp { k: -8 },
    ];
    let batches: Vec<u64> = [1, 3, 17, 60, 250]
        .repeat(8)
        .into_iter()
        .chain([10_000])
        .collect();
    for (prog, fault) in [
        (&stk_move[..], Fault::WatchdogTimeout),
        (&sp_past_data[..], Fault::StackOutOfBounds { sp: 0x30ff }),
    ] {
        for prescale in [1, 2] {
            for tcnt in 0..=255 {
                let mut ms = triple(|m| {
                    place(m, PROG_WORD, prog);
                    m.set_pc_bytes(PROG_WORD * 2);
                    // The frame `ret` pops after the three `pop`s: word
                    // PROG_WORD, high byte first.
                    for (i, b) in [0, 0, PROG_WORD as u8].into_iter().enumerate() {
                        m.poke_data(SP0 + 4 + i as u16, b);
                    }
                    m.timer0.tccr_b = prescale;
                    m.timer0.tcnt = tcnt;
                    m.watchdog.enable(4_000, 0);
                });
                lockstep_batched(&mut ms, &batches);
                assert_eq!(ms[0].fault(), Some(fault));
            }
        }
    }
}

/// The cycle profiler needs per-instruction attribution, so enabling it
/// must force the engine off the fused path entirely — and the folded
/// profile it emits must be byte-identical whether fusion is configured on
/// or off.
#[test]
fn cycle_profiler_output_is_identical_under_fusion() {
    use avr_core::device::ATMEGA2560;
    use avr_core::image::{FirmwareImage, Symbol, SymbolKind};

    // main: ldi/ldi, call helper, loop; helper: add, inc, ret.
    let main = [
        Insn::Ldi { d: Reg::R24, k: 1 },
        Insn::Ldi { d: Reg::R25, k: 2 },
        Insn::Call { k: PROG_WORD + 8 },
        Insn::Rjmp { k: -5 },
    ];
    let helper = [
        Insn::Add {
            d: Reg::R24,
            r: Reg::R25,
        },
        Insn::Inc { d: Reg::R24 },
        Insn::Ret,
    ];
    let mut image = FirmwareImage::new(ATMEGA2560);
    image.symbols = vec![
        Symbol {
            name: "main".into(),
            addr: PROG_WORD * 2,
            size: 10,
            kind: SymbolKind::Function,
        },
        Symbol {
            name: "helper".into(),
            addr: (PROG_WORD + 8) * 2,
            size: 6,
            kind: SymbolKind::Function,
        },
    ];

    let run_one = |fusion: bool| {
        let mut m = Machine::new_atmega2560();
        m.set_block_fusion(fusion);
        m.load_flash(PROG_WORD * 2, &encode_to_bytes(&main).unwrap());
        m.load_flash((PROG_WORD + 8) * 2, &encode_to_bytes(&helper).unwrap());
        m.set_pc_bytes(PROG_WORD * 2);
        m.enable_cycle_profile(&image);
        m.run(10_000);
        let folded = m.cycle_profile().unwrap().folded();
        let hits = m.block_stats().hits;
        (folded, m.capture_state(), hits)
    };
    let (folded_on, state_on, hits_on) = run_one(true);
    let (folded_off, state_off, hits_off) = run_one(false);
    assert_eq!(
        folded_on, folded_off,
        "folded profile must not depend on fusion"
    );
    assert_eq!(state_on, state_off);
    assert_eq!(hits_on, 0, "profiling forces the per-instruction path");
    assert_eq!(hits_off, 0);
    assert!(!folded_on.is_empty() && folded_on.contains("helper"));
}

/// Fusion is an engine optimization, not an observable: a machine with
/// fusion disabled mid-fleet must produce the same counters.
#[test]
fn block_stats_are_observable_but_inert() {
    let prog = [
        Insn::Ldi { d: Reg::R24, k: 1 },
        Insn::Ldi { d: Reg::R25, k: 2 },
        Insn::Add {
            d: Reg::R24,
            r: Reg::R25,
        },
        Insn::Rjmp { k: -4 },
    ];
    let bytes = encode_to_bytes(&prog).unwrap();
    let mut fused = Machine::new_atmega2560();
    let mut plain = Machine::new_atmega2560();
    plain.set_block_fusion(false);
    for m in [&mut fused, &mut plain] {
        m.load_flash(0, &bytes);
        m.run(1000);
    }
    assert_eq!(fused.capture_state(), plain.capture_state());
    let fs = fused.block_stats();
    assert!(fs.hits > 0, "fused engine dispatched blocks");
    assert_eq!(
        plain.block_stats().hits,
        0,
        "disabled engine dispatched none"
    );
}
