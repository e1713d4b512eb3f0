//! Basic-block discovery and cycle folding over a [`Predecoded`] table.
//!
//! A *block* is a maximal straight-line run of instructions: execution that
//! enters at its first word always falls through every instruction in order,
//! so a simulator can charge the folded cycle total once and hoist its
//! per-instruction event checks (interrupt delivery, watchdog margin) to the
//! block boundary. What may end a block splits into two layers:
//!
//! * **structural** terminators — anything that redirects or conditions the
//!   program counter (branches, calls, returns, skips), halts (`break`,
//!   `sleep`, invalid words) or writes flash (`spm`). These are decided here,
//!   from the instruction alone: [`structural_end`].
//! * **policy** terminators — instructions whose *memory effects* interact
//!   with device state the walker cannot see (interrupt masks, timers,
//!   I/O-space registers that can raise IRQs). Those addresses belong to the
//!   simulator, so [`scan_block`] takes the policy as a closure.
//!
//! The walker never follows control flow: a block always ends *before* its
//! terminator, which the simulator steps on its own after the block.

use crate::decode::Predecoded;
use crate::Insn;

/// Largest number of instructions folded into one block. Bounds the work a
/// single fused dispatch can do between event checks.
pub const MAX_BLOCK_INSNS: u16 = 64;

/// Largest word span of one block. Invalidating a flash range only needs to
/// look this many words left of the patch for block starts that reach it.
pub const MAX_BLOCK_WORDS: u16 = 128;

/// Policy verdict for one instruction during a block walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseStep {
    /// The instruction is straight-line and may join the block.
    Fuse,
    /// Block boundary; the instruction is *not* included.
    End,
}

/// A discovered block: instruction count, word span, and the folded cycle
/// total.
///
/// `insns == 0` means the very first word was a terminator; such addresses
/// are not worth fusing and execute on the per-instruction path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Instructions in the block.
    pub insns: u16,
    /// Word span of the block (the sum of the instruction widths).
    pub words: u16,
    /// Folded base-cycle total. Exact, not an estimate: straight-line
    /// instructions have no dynamic cycle component (only taken branches and
    /// skips do, and those are terminators).
    pub cycles: u32,
}

/// Whether `insn` ends a block for structural reasons, independent of any
/// device policy: control flow (including conditional branches and skips),
/// halting (`break`, `sleep`, reserved words), and flash self-programming.
pub fn structural_end(insn: &Insn) -> bool {
    insn.is_unconditional_branch()
        || insn.is_call()
        || insn.is_skip()
        || matches!(
            insn,
            Insn::Brbs { .. }
                | Insn::Brbc { .. }
                | Insn::Break
                | Insn::Sleep
                | Insn::Spm
                | Insn::SpmZPostInc
                | Insn::Invalid(_)
        )
}

/// Walk the predecoded `table` from word address `start`, folding straight-
/// line instructions into a [`Block`] until a structural terminator, a
/// [`FuseStep::End`] from `policy`, the end of the table, or the
/// [`MAX_BLOCK_INSNS`]/[`MAX_BLOCK_WORDS`] caps.
///
/// The policy closure is consulted *after* [`structural_end`], so it only
/// ever sees straight-line instructions.
pub fn scan_block(table: &[Predecoded], start: usize, policy: impl Fn(&Insn) -> FuseStep) -> Block {
    let mut b = Block {
        insns: 0,
        words: 0,
        cycles: 0,
    };
    let mut w = start;
    while b.insns < MAX_BLOCK_INSNS {
        let Some(entry) = table.get(w) else { break };
        if structural_end(&entry.insn) || policy(&entry.insn) == FuseStep::End {
            break;
        }
        let width = u16::from(entry.width);
        if b.words + width > MAX_BLOCK_WORDS {
            break;
        }
        b.insns += 1;
        b.words += width;
        b.cycles += u32::from(entry.cycles);
        w += usize::from(entry.width);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{predecode_pages, UNDECODED};
    use crate::encode::encode;
    use crate::Reg;

    fn image(insns: &[Insn]) -> Vec<Predecoded> {
        let bytes: Vec<u8> = insns
            .iter()
            .flat_map(|i| encode(i).unwrap())
            .flat_map(|w| w.to_le_bytes())
            .collect();
        decoded(&bytes)
    }

    fn decoded(bytes: &[u8]) -> Vec<Predecoded> {
        let mut table = vec![UNDECODED; bytes.len() / 2];
        predecode_pages(&mut table, bytes, 0, usize::MAX);
        table
    }

    fn fuse_all(_: &Insn) -> FuseStep {
        FuseStep::Fuse
    }

    #[test]
    fn folds_cycles_and_stops_at_terminator() {
        // ldi(1) + lds(2) + add(1) + ret(terminator)
        let table = image(&[
            Insn::Ldi { d: Reg::R16, k: 1 },
            Insn::Lds {
                d: Reg::R0,
                k: 0x200,
            },
            Insn::Add {
                d: Reg::R0,
                r: Reg::R16,
            },
            Insn::Ret,
        ]);
        let b = scan_block(&table, 0, fuse_all);
        assert_eq!(b.insns, 3);
        assert_eq!(b.words, 4, "lds is two words");
        assert_eq!(b.cycles, 1 + 2 + 1);
    }

    #[test]
    fn policy_end_is_excluded() {
        let table = image(&[
            Insn::Ld {
                d: Reg::R0,
                ptr: crate::PtrReg::X,
            },
            Insn::Push { r: Reg::R0 },
            Insn::Out {
                a: 0x3f,
                r: Reg::R0,
            },
            Insn::Nop,
        ]);
        let policy = |i: &Insn| match i {
            Insn::Out { .. } => FuseStep::End,
            _ => fuse_all(i),
        };
        let b = scan_block(&table, 0, policy);
        assert_eq!(b.insns, 2, "policy End excludes the out");
        assert_eq!(b.cycles, 2 + 2, "ld and push fold, the out does not");
    }

    #[test]
    fn terminator_at_start_yields_empty_block() {
        let table = image(&[Insn::Rjmp { k: -1 }]);
        let b = scan_block(&table, 0, fuse_all);
        assert_eq!(b.insns, 0);
        assert_eq!(b.cycles, 0);
    }

    #[test]
    fn erased_flash_ends_immediately() {
        let table = decoded(&[0xff; 64]);
        let b = scan_block(&table, 3, fuse_all);
        assert_eq!(b.insns, 0, "0xffff decodes Invalid, a structural end");
    }

    #[test]
    fn every_structural_end_is_a_non_fused_boundary() {
        // Exhaustive over the one-word opcode space: anything that can move
        // the PC, halt, or program flash must be structural.
        for w in 0..=u16::MAX {
            let (insn, _) = crate::decode::decode(&[w, 0]);
            let structural = structural_end(&insn);
            let redirects = insn.is_unconditional_branch()
                || insn.is_call()
                || insn.is_skip()
                || matches!(
                    insn,
                    Insn::Brbs { .. } | Insn::Brbc { .. } | Insn::Invalid(_)
                );
            if redirects {
                assert!(structural, "{insn:?} must end a block");
            }
        }
        assert!(structural_end(&Insn::Jmp { k: 0 }));
        assert!(structural_end(&Insn::Call { k: 0 }));
    }

    #[test]
    fn caps_bound_runaway_blocks() {
        let table = image(&vec![Insn::Nop; 200]);
        let b = scan_block(&table, 0, fuse_all);
        assert_eq!(b.insns, MAX_BLOCK_INSNS);
        assert_eq!(b.words, MAX_BLOCK_INSNS);
        // All two-word instructions: the word cap binds first.
        let table = image(&vec![Insn::Lds { d: Reg::R0, k: 0 }; 200]);
        let b = scan_block(&table, 0, fuse_all);
        assert_eq!(b.words, MAX_BLOCK_WORDS);
        assert_eq!(b.insns, MAX_BLOCK_WORDS / 2);
    }

    #[test]
    fn scan_past_table_end_is_safe() {
        let table = image(&[Insn::Nop, Insn::Nop]);
        let b = scan_block(&table, 0, fuse_all);
        assert_eq!(b.insns, 2);
        let b = scan_block(&table, 5, fuse_all);
        assert_eq!(b.insns, 0);
    }
}
