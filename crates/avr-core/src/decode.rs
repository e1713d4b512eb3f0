//! Binary decoding of program-memory words back into [`Insn`].
//!
//! [`decode`] is the exact inverse of [`crate::encode::encode`] for every
//! valid instruction and maps every reserved encoding to [`Insn::Invalid`];
//! the simulator treats executing an `Invalid` word as the crash the paper's
//! master processor watches for, and the gadget scanner relies on decoding at
//! arbitrary (possibly misaligned-by-intent) word offsets.

use crate::cycles::base_cycles;
use crate::{Insn, PtrReg, Reg, YZ};

/// One entry of a predecoded program image: the instruction that starts at
/// a given word address, its width in words, and its base cycle cost.
///
/// Predecoding pays the [`decode`] cost once per flash word instead of once
/// per executed instruction. Entries exist for *every* word address —
/// including addresses in the middle of two-word instructions — because the
/// AVR program counter (and the paper's ROP chains) can land anywhere.
///
/// Tables are filled lazily, a page at a time ([`predecode_pages`]); a slot
/// not decoded yet holds [`UNDECODED`], the one entry of width 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predecoded {
    /// The decoded instruction.
    pub insn: Insn,
    /// Width in words (1 or 2; 0 only in [`UNDECODED`]).
    pub width: u8,
    /// Base (not-taken / fall-through) cycles; dynamic extras are added by
    /// the simulator.
    pub cycles: u8,
}

/// Placeholder for a table slot that has not been decoded yet. Its width of
/// 0 is what [`Predecoded::is_decoded`] tests; it is never executed.
pub const UNDECODED: Predecoded = Predecoded {
    insn: Insn::Invalid(0xffff),
    width: 0,
    cycles: 0,
};

/// Words per lazily decoded page: 256 bytes, the ATmega2560's flash page.
pub const PREDECODE_PAGE_WORDS: usize = 128;

impl Predecoded {
    /// Whether this slot holds a decoded instruction (not [`UNDECODED`]).
    #[inline]
    pub fn is_decoded(&self) -> bool {
        self.width != 0
    }
}

/// Decode the single instruction starting at word address `word_addr` of a
/// little-endian byte image, with the same edge semantics as the hardware
/// fetch: a two-word opcode whose second word lies past the end of the image
/// decodes as [`Insn::Invalid`] with width 1.
pub fn predecode_at(bytes: &[u8], word_addr: usize) -> Predecoded {
    let (insn, width) = decode_at(bytes, word_addr * 2).unwrap_or((Insn::Invalid(0xffff), 1));
    let cycles = base_cycles(&insn);
    debug_assert!(cycles <= crate::cycles::MAX_BASE_CYCLES);
    Predecoded {
        insn,
        width: width as u8,
        cycles: cycles as u8,
    }
}

/// Decode every still-[`UNDECODED`] slot of the [`PREDECODE_PAGE_WORDS`]
/// pages of `table` that overlap word addresses `lo..hi` (clamped to the
/// table). `bytes` is the whole image the table shadows, so an instruction
/// whose second word sits on the next page decodes exactly.
pub fn predecode_pages(table: &mut [Predecoded], bytes: &[u8], lo: usize, hi: usize) {
    let hi = hi.min(table.len());
    if lo >= hi {
        return;
    }
    // Erased flash reads 0xffff, which decodes to a one-word Invalid no
    // matter what follows it; deriving the entry from the decoder once and
    // reusing it skips the full decode for erased words.
    let erased = predecode_at(&[0xff; 4], 0);
    let first = lo / PREDECODE_PAGE_WORDS * PREDECODE_PAGE_WORDS;
    let last = hi.div_ceil(PREDECODE_PAGE_WORDS) * PREDECODE_PAGE_WORDS;
    for (w, entry) in table.iter_mut().enumerate().take(last).skip(first) {
        if entry.is_decoded() {
            continue;
        }
        *entry = if bytes.get(w * 2..w * 2 + 2) == Some(&[0xff, 0xff]) {
            erased
        } else {
            predecode_at(bytes, w)
        };
    }
}

/// Re-decode the entries affected by a write of `len` bytes at byte address
/// `byte_addr`. A changed byte at word `w` invalidates the entry at `w`
/// *and* at `w - 1` (whose second word it may be), so the patched range is
/// widened by one word on the left. Slots not decoded yet stay that way:
/// they will decode the new bytes on first use.
pub fn predecode_patch(table: &mut [Predecoded], bytes: &[u8], byte_addr: usize, len: usize) {
    if len == 0 {
        return;
    }
    let lo = (byte_addr / 2).saturating_sub(1);
    let hi = ((byte_addr + len - 1) / 2 + 1).min(table.len());
    for (w, entry) in table.iter_mut().enumerate().take(hi).skip(lo) {
        if entry.is_decoded() {
            *entry = predecode_at(bytes, w);
        }
    }
}

fn d5(w: u16) -> Reg {
    Reg::new(((w >> 4) & 0x1f) as u8)
}

fn r5(w: u16) -> Reg {
    Reg::new((((w >> 5) & 0x10) | (w & 0x0f)) as u8)
}

fn imm8(w: u16) -> u8 {
    (((w >> 4) & 0xf0) | (w & 0x0f)) as u8
}

fn upper_d(w: u16) -> Reg {
    Reg::new((((w >> 4) & 0x0f) + 16) as u8)
}

fn sign_extend(v: u16, bits: u32) -> i16 {
    let shift = 16 - bits;
    ((v << shift) as i16) >> shift
}

/// Decode the instruction at the start of `words`.
///
/// Returns the instruction and its width in words (1 or 2). A two-word
/// instruction whose second word is missing from the slice decodes as
/// [`Insn::Invalid`] with width 1 — at the edge of flash the hardware would
/// fetch garbage there too.
///
/// # Panics
///
/// Panics if `words` is empty.
pub fn decode(words: &[u16]) -> (Insn, u32) {
    let w = words[0];
    let second = words.get(1).copied();
    let invalid = (Insn::Invalid(w), 1);

    match w >> 12 {
        0x0 => match (w >> 8) & 0x0f {
            0x0 => {
                if w == 0 {
                    (Insn::Nop, 1)
                } else {
                    invalid
                }
            }
            0x1 => (
                Insn::Movw {
                    d: Reg::new((((w >> 4) & 0x0f) * 2) as u8),
                    r: Reg::new(((w & 0x0f) * 2) as u8),
                },
                1,
            ),
            0x2 => (
                Insn::Muls {
                    d: upper_d(w),
                    r: Reg::new(((w & 0x0f) + 16) as u8),
                },
                1,
            ),
            0x3 => {
                let d = Reg::new((((w >> 4) & 0x07) + 16) as u8);
                let r = Reg::new(((w & 0x07) + 16) as u8);
                match ((w >> 7) & 1, (w >> 3) & 1) {
                    (0, 0) => (Insn::Mulsu { d, r }, 1),
                    (0, 1) => (Insn::Fmul { d, r }, 1),
                    (1, 0) => (Insn::Fmuls { d, r }, 1),
                    _ => (Insn::Fmulsu { d, r }, 1),
                }
            }
            0x4..=0x7 => (Insn::Cpc { d: d5(w), r: r5(w) }, 1),
            0x8..=0xb => (Insn::Sbc { d: d5(w), r: r5(w) }, 1),
            _ => (Insn::Add { d: d5(w), r: r5(w) }, 1),
        },
        0x1 => match (w >> 10) & 0x3 {
            0 => (Insn::Cpse { d: d5(w), r: r5(w) }, 1),
            1 => (Insn::Cp { d: d5(w), r: r5(w) }, 1),
            2 => (Insn::Sub { d: d5(w), r: r5(w) }, 1),
            _ => (Insn::Adc { d: d5(w), r: r5(w) }, 1),
        },
        0x2 => match (w >> 10) & 0x3 {
            0 => (Insn::And { d: d5(w), r: r5(w) }, 1),
            1 => (Insn::Eor { d: d5(w), r: r5(w) }, 1),
            2 => (Insn::Or { d: d5(w), r: r5(w) }, 1),
            _ => (Insn::Mov { d: d5(w), r: r5(w) }, 1),
        },
        0x3 => (
            Insn::Cpi {
                d: upper_d(w),
                k: imm8(w),
            },
            1,
        ),
        0x4 => (
            Insn::Sbci {
                d: upper_d(w),
                k: imm8(w),
            },
            1,
        ),
        0x5 => (
            Insn::Subi {
                d: upper_d(w),
                k: imm8(w),
            },
            1,
        ),
        0x6 => (
            Insn::Ori {
                d: upper_d(w),
                k: imm8(w),
            },
            1,
        ),
        0x7 => (
            Insn::Andi {
                d: upper_d(w),
                k: imm8(w),
            },
            1,
        ),
        0x8 | 0xa => decode_displaced(w),
        0x9 => decode_misc(w, second, invalid),
        0xb => {
            let a = (((w >> 5) & 0x30) | (w & 0x0f)) as u8;
            if w & 0x0800 == 0 {
                (Insn::In { d: d5(w), a }, 1)
            } else {
                (Insn::Out { a, r: d5(w) }, 1)
            }
        }
        0xc => (
            Insn::Rjmp {
                k: sign_extend(w & 0x0fff, 12),
            },
            1,
        ),
        0xd => (
            Insn::Rcall {
                k: sign_extend(w & 0x0fff, 12),
            },
            1,
        ),
        0xe => (
            Insn::Ldi {
                d: upper_d(w),
                k: imm8(w),
            },
            1,
        ),
        _ => decode_f_group(w, invalid),
    }
}

fn decode_displaced(w: u16) -> (Insn, u32) {
    let q = (((w >> 8) & 0x20) | ((w >> 7) & 0x18) | (w & 0x07)) as u8;
    let idx = if w & 0x0008 != 0 { YZ::Y } else { YZ::Z };
    let reg = d5(w);
    if w & 0x0200 != 0 {
        (Insn::Std { idx, q, r: reg }, 1)
    } else {
        (Insn::Ldd { d: reg, idx, q }, 1)
    }
}

fn decode_misc(w: u16, second: Option<u16>, invalid: (Insn, u32)) -> (Insn, u32) {
    match (w >> 8) & 0x0f {
        0x0 | 0x1 => {
            // ld Rd, ... / lds
            let d = d5(w);
            match w & 0x0f {
                0x0 => match second {
                    Some(k) => (Insn::Lds { d, k }, 2),
                    None => invalid,
                },
                0x1 => (
                    Insn::Ld {
                        d,
                        ptr: PtrReg::ZPostInc,
                    },
                    1,
                ),
                0x2 => (
                    Insn::Ld {
                        d,
                        ptr: PtrReg::ZPreDec,
                    },
                    1,
                ),
                0x4 => (Insn::Lpm { d, post_inc: false }, 1),
                0x5 => (Insn::Lpm { d, post_inc: true }, 1),
                0x6 => (Insn::Elpm { d, post_inc: false }, 1),
                0x7 => (Insn::Elpm { d, post_inc: true }, 1),
                0x9 => (
                    Insn::Ld {
                        d,
                        ptr: PtrReg::YPostInc,
                    },
                    1,
                ),
                0xa => (
                    Insn::Ld {
                        d,
                        ptr: PtrReg::YPreDec,
                    },
                    1,
                ),
                0xc => (Insn::Ld { d, ptr: PtrReg::X }, 1),
                0xd => (
                    Insn::Ld {
                        d,
                        ptr: PtrReg::XPostInc,
                    },
                    1,
                ),
                0xe => (
                    Insn::Ld {
                        d,
                        ptr: PtrReg::XPreDec,
                    },
                    1,
                ),
                0xf => (Insn::Pop { d }, 1),
                _ => invalid,
            }
        }
        0x2 | 0x3 => {
            let r = d5(w);
            match w & 0x0f {
                0x0 => match second {
                    Some(k) => (Insn::Sts { k, r }, 2),
                    None => invalid,
                },
                0x1 => (
                    Insn::St {
                        ptr: PtrReg::ZPostInc,
                        r,
                    },
                    1,
                ),
                0x2 => (
                    Insn::St {
                        ptr: PtrReg::ZPreDec,
                        r,
                    },
                    1,
                ),
                0x9 => (
                    Insn::St {
                        ptr: PtrReg::YPostInc,
                        r,
                    },
                    1,
                ),
                0xa => (
                    Insn::St {
                        ptr: PtrReg::YPreDec,
                        r,
                    },
                    1,
                ),
                0xc => (Insn::St { ptr: PtrReg::X, r }, 1),
                0xd => (
                    Insn::St {
                        ptr: PtrReg::XPostInc,
                        r,
                    },
                    1,
                ),
                0xe => (
                    Insn::St {
                        ptr: PtrReg::XPreDec,
                        r,
                    },
                    1,
                ),
                0xf => (Insn::Push { r }, 1),
                _ => invalid,
            }
        }
        0x4 | 0x5 => decode_94_95(w, second, invalid),
        0x6 => (
            Insn::Adiw {
                d: adiw_reg(w),
                k: adiw_k(w),
            },
            1,
        ),
        0x7 => (
            Insn::Sbiw {
                d: adiw_reg(w),
                k: adiw_k(w),
            },
            1,
        ),
        0x8 => (
            Insn::Cbi {
                a: bit_a(w),
                b: bit_b(w),
            },
            1,
        ),
        0x9 => (
            Insn::Sbic {
                a: bit_a(w),
                b: bit_b(w),
            },
            1,
        ),
        0xa => (
            Insn::Sbi {
                a: bit_a(w),
                b: bit_b(w),
            },
            1,
        ),
        0xb => (
            Insn::Sbis {
                a: bit_a(w),
                b: bit_b(w),
            },
            1,
        ),
        _ => (Insn::Mul { d: d5(w), r: r5(w) }, 1),
    }
}

fn adiw_reg(w: u16) -> Reg {
    Reg::new((24 + ((w >> 4) & 0x3) * 2) as u8)
}

fn adiw_k(w: u16) -> u8 {
    (((w >> 2) & 0x30) | (w & 0x0f)) as u8
}

fn bit_a(w: u16) -> u8 {
    ((w >> 3) & 0x1f) as u8
}

fn bit_b(w: u16) -> u8 {
    (w & 0x07) as u8
}

fn decode_94_95(w: u16, second: Option<u16>, invalid: (Insn, u32)) -> (Insn, u32) {
    // Exact-match specials first.
    match w {
        0x9409 => return (Insn::Ijmp, 1),
        0x9419 => return (Insn::Eijmp, 1),
        0x9508 => return (Insn::Ret, 1),
        0x9509 => return (Insn::Icall, 1),
        0x9518 => return (Insn::Reti, 1),
        0x9519 => return (Insn::Eicall, 1),
        0x9588 => return (Insn::Sleep, 1),
        0x9598 => return (Insn::Break, 1),
        0x95a8 => return (Insn::Wdr, 1),
        0x95c8 => return (Insn::Lpm0, 1),
        0x95d8 => return (Insn::Elpm0, 1),
        0x95e8 => return (Insn::Spm, 1),
        0x95f8 => return (Insn::SpmZPostInc, 1),
        _ => {}
    }
    if w & 0xff8f == 0x9408 {
        return (
            Insn::Bset {
                s: ((w >> 4) & 0x7) as u8,
            },
            1,
        );
    }
    if w & 0xff8f == 0x9488 {
        return (
            Insn::Bclr {
                s: ((w >> 4) & 0x7) as u8,
            },
            1,
        );
    }
    if w & 0xfe0e == 0x940c {
        return match second {
            Some(k) => (Insn::Jmp { k: long_addr(w, k) }, 2),
            None => invalid,
        };
    }
    if w & 0xfe0e == 0x940e {
        return match second {
            Some(k) => (Insn::Call { k: long_addr(w, k) }, 2),
            None => invalid,
        };
    }
    let d = d5(w);
    match w & 0x0f {
        0x0 => (Insn::Com { d }, 1),
        0x1 => (Insn::Neg { d }, 1),
        0x2 => (Insn::Swap { d }, 1),
        0x3 => (Insn::Inc { d }, 1),
        0x5 => (Insn::Asr { d }, 1),
        0x6 => (Insn::Lsr { d }, 1),
        0x7 => (Insn::Ror { d }, 1),
        0xa => (Insn::Dec { d }, 1),
        _ => invalid,
    }
}

fn long_addr(w: u16, k_low: u16) -> u32 {
    let hi = u32::from((w >> 4) & 0x1f);
    let bit16 = u32::from(w & 1);
    (hi << 17) | (bit16 << 16) | u32::from(k_low)
}

fn decode_f_group(w: u16, invalid: (Insn, u32)) -> (Insn, u32) {
    match (w >> 9) & 0x7 {
        0..=1 => (
            Insn::Brbs {
                s: (w & 0x7) as u8,
                k: sign_extend((w >> 3) & 0x7f, 7) as i8,
            },
            1,
        ),
        2..=3 => (
            Insn::Brbc {
                s: (w & 0x7) as u8,
                k: sign_extend((w >> 3) & 0x7f, 7) as i8,
            },
            1,
        ),
        _ => {
            if w & 0x08 != 0 {
                return invalid;
            }
            let reg = d5(w);
            let b = (w & 0x7) as u8;
            match (w >> 9) & 0x7 {
                4 => (Insn::Bld { d: reg, b }, 1),
                5 => (Insn::Bst { d: reg, b }, 1),
                6 => (Insn::Sbrc { r: reg, b }, 1),
                _ => (Insn::Sbrs { r: reg, b }, 1),
            }
        }
    }
}

/// Decode a little-endian byte image starting at `byte_offset` into one
/// instruction. Returns `None` if fewer than two bytes remain.
pub fn decode_at(bytes: &[u8], byte_offset: usize) -> Option<(Insn, u32)> {
    let w0 = word_at(bytes, byte_offset)?;
    match word_at(bytes, byte_offset + 2) {
        Some(w1) => Some(decode(&[w0, w1])),
        None => Some(decode(&[w0])),
    }
}

/// Width in words of the instruction starting at `byte_offset`, exactly as
/// [`decode_at`] reports it, read from the opcode bits alone: only `lds`,
/// `sts`, `jmp` and `call` take a second word (when one is present).
/// Returns `None` if fewer than two bytes remain.
pub fn width_at(bytes: &[u8], byte_offset: usize) -> Option<u32> {
    let w = word_at(bytes, byte_offset)?;
    // lds/sts: 1001 00sd dddd 0000; jmp/call: 1001 010k kkkk 11ck.
    let two_word = w & 0xfc0f == 0x9000 || w & 0xfe0c == 0x940c;
    Some(if two_word && word_at(bytes, byte_offset + 2).is_some() {
        2
    } else {
        1
    })
}

fn word_at(bytes: &[u8], off: usize) -> Option<u16> {
    let hi = *bytes.get(off + 1)?;
    let lo = bytes[off];
    Some(u16::from_le_bytes([lo, hi]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    #[test]
    fn decodes_known_words() {
        assert_eq!(decode(&[0x9508]), (Insn::Ret, 1));
        assert_eq!(
            decode(&[0xbfde]),
            (
                Insn::Out {
                    a: 0x3e,
                    r: Reg::R29
                },
                1
            )
        );
        assert_eq!(decode(&[0x91cf]), (Insn::Pop { d: Reg::R28 }, 1));
        assert_eq!(
            decode(&[0x8259]),
            (
                Insn::Std {
                    idx: YZ::Y,
                    q: 1,
                    r: Reg::R5
                },
                1
            )
        );
        assert_eq!(decode(&[0x940c, 0x0200]), (Insn::Jmp { k: 0x200 }, 2));
        assert_eq!(decode(&[0x940f, 0x0002]), (Insn::Call { k: 0x1_0002 }, 2));
        assert_eq!(decode(&[0xcfff]), (Insn::Rjmp { k: -1 }, 1));
        assert_eq!(decode(&[0xf011]), (Insn::Brbs { s: 1, k: 2 }, 1));
    }

    #[test]
    fn truncated_long_form_is_invalid() {
        assert_eq!(decode(&[0x940c]), (Insn::Invalid(0x940c), 1));
        assert_eq!(decode(&[0x9180]), (Insn::Invalid(0x9180), 1));
    }

    #[test]
    fn reserved_words_are_invalid() {
        for w in [0x0001u16, 0x9003, 0x9204, 0x9404, 0xf808, 0x95b8] {
            let (insn, width) = decode(&[w, 0]);
            assert_eq!(insn, Insn::Invalid(w), "word {w:#06x}");
            assert_eq!(width, 1);
        }
    }

    #[test]
    fn every_single_word_encoding_round_trips() {
        // Exhaustive: decode every possible 16-bit word; re-encoding the
        // decoded instruction must reproduce the word bit for bit.
        for w in 0..=u16::MAX {
            let (insn, width) = decode(&[w, 0x0000]);
            if insn == Insn::Invalid(w) {
                continue;
            }
            let enc = encode(&insn)
                .unwrap_or_else(|e| panic!("word {w:#06x} -> {insn:?} failed to re-encode: {e}"));
            assert_eq!(enc[0], w, "word {w:#06x} decoded to {insn:?}");
            assert_eq!(width, insn.words());
        }
    }

    #[test]
    fn width_at_agrees_with_the_decoder_on_every_word() {
        for w in 0..=u16::MAX {
            let [lo, hi] = w.to_le_bytes();
            let pair = [lo, hi, 0x34, 0x12];
            assert_eq!(
                width_at(&pair, 0),
                decode_at(&pair, 0).map(|d| d.1),
                "{w:#06x}"
            );
            assert_eq!(
                width_at(&pair[..2], 0),
                Some(1),
                "{w:#06x} at the image end"
            );
        }
        assert_eq!(width_at(&[0x0c], 0), None);
    }

    #[test]
    fn decode_at_handles_bounds() {
        let bytes = [0x08, 0x95, 0x0c];
        assert_eq!(decode_at(&bytes, 0), Some((Insn::Ret, 1)));
        assert_eq!(decode_at(&bytes, 2), None);
        assert_eq!(decode_at(&[], 0), None);
    }

    /// A fully decoded table over `bytes`.
    fn decoded(bytes: &[u8]) -> Vec<Predecoded> {
        let mut table = vec![UNDECODED; bytes.len() / 2];
        predecode_pages(&mut table, bytes, 0, usize::MAX);
        table
    }

    #[test]
    fn predecode_matches_decode_at_everywhere() {
        // ret; call 6; nop; jmp truncated at the image edge.
        let words: [u16; 5] = [0x9508, 0x940e, 0x0006, 0x0000, 0x940c];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let table = decoded(&bytes);
        assert_eq!(table.len(), 5);
        for (w, entry) in table.iter().enumerate() {
            let (insn, width) = decode_at(&bytes, w * 2).unwrap();
            assert_eq!(entry.insn, insn, "word {w}");
            assert_eq!(entry.width as u32, width);
            assert_eq!(entry.cycles as u64, base_cycles(&insn));
        }
        // The truncated call at the edge decodes as Invalid, width 1.
        assert_eq!(table[4].insn, Insn::Invalid(0x940c));
        assert_eq!(table[4].width, 1);
    }

    #[test]
    fn pages_decode_on_demand_and_straddlers_read_the_next_page() {
        // A call whose operand word is the first word of page 1.
        let mut bytes = vec![0u8; 4 * PREDECODE_PAGE_WORDS * 2];
        let last = PREDECODE_PAGE_WORDS - 1;
        bytes[last * 2..last * 2 + 4].copy_from_slice(&[0x0e, 0x94, 0x42, 0x00]);
        let mut table = vec![UNDECODED; bytes.len() / 2];
        predecode_pages(&mut table, &bytes, last, last + 1);
        assert!(table[..PREDECODE_PAGE_WORDS]
            .iter()
            .all(Predecoded::is_decoded));
        assert!(!table[PREDECODE_PAGE_WORDS..]
            .iter()
            .any(Predecoded::is_decoded));
        assert_eq!(table[last].insn, Insn::Call { k: 0x42 });
        // A range spanning a page edge decodes both pages, and no more.
        predecode_pages(
            &mut table,
            &bytes,
            2 * PREDECODE_PAGE_WORDS - 1,
            2 * PREDECODE_PAGE_WORDS + 1,
        );
        assert!(table[..3 * PREDECODE_PAGE_WORDS]
            .iter()
            .all(Predecoded::is_decoded));
        assert!(!table[3 * PREDECODE_PAGE_WORDS..]
            .iter()
            .any(Predecoded::is_decoded));
        assert_eq!(table, {
            let mut full = decoded(&bytes);
            full[3 * PREDECODE_PAGE_WORDS..].fill(UNDECODED);
            full
        });
    }

    #[test]
    fn predecode_patch_redecodes_neighbouring_word() {
        // call 6 at word 0 spans words 0..2; patching word 1 must re-decode
        // word 0 too, because word 1 is its second word.
        let mut bytes: Vec<u8> = [0x940eu16, 0x0006, 0x9508]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let mut table = decoded(&bytes);
        assert_eq!(table[0].insn, Insn::Call { k: 6 });

        bytes[2..4].copy_from_slice(&0x0042u16.to_le_bytes());
        predecode_patch(&mut table, &bytes, 2, 2);
        assert_eq!(table[0].insn, Insn::Call { k: 0x42 });
        assert_eq!(table[2].insn, Insn::Ret, "untouched word must survive");
        assert_eq!(table, decoded(&bytes));
    }

    #[test]
    fn predecode_patch_leaves_undecoded_slots_for_later() {
        let mut bytes = vec![0u8; 8];
        let mut table = vec![UNDECODED; 4];
        bytes[0..2].copy_from_slice(&0x9508u16.to_le_bytes());
        predecode_patch(&mut table, &bytes, 0, 2);
        assert_eq!(table, vec![UNDECODED; 4]);
        predecode_pages(&mut table, &bytes, 0, 1);
        assert_eq!(table[0].insn, Insn::Ret);
    }
}
