//! Gadget scanner: enumerate `ret`-terminated sequences and classify the
//! paper's two workhorse gadgets.

use avr_core::decode::decode_at;
use avr_core::image::FirmwareImage;
use avr_core::{Insn, Reg, YZ};

/// Scanner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Maximum gadget length in instructions, including the final `ret`.
    /// ROP toolchains typically use 5–8; the paper's `write_mem_gadget` is
    /// 20 instructions, so classification scans use a larger window.
    pub max_insns: usize,
    /// Deduplicate gadgets with identical instruction sequences (epilogues
    /// repeat heavily across functions).
    pub dedup: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            max_insns: 6,
            dedup: true,
        }
    }
}

/// One discovered gadget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gadget {
    /// Byte address of the first instruction.
    pub addr: u32,
    /// The instruction sequence, ending in `ret`/`reti`.
    pub insns: Vec<Insn>,
}

impl Gadget {
    /// Render as a listing in the style of the paper's Figs. 4–5.
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut addr = self.addr;
        for i in &self.insns {
            writeln!(out, "{addr:6x}\t{i}").unwrap();
            addr += i.bytes();
        }
        out
    }
}

/// Scan the executable portion (`0..text_end`) of `image` for gadgets.
///
/// Every word-aligned offset is a candidate start (AVR instructions are
/// word-aligned, so unlike x86 there are no "unintended" byte-offset
/// gadgets, but sequences may begin mid-function and even mid-instruction
/// stream of the original assembly). A candidate becomes a gadget if
/// straight-line decoding reaches `ret`/`reti` within `max_insns`
/// instructions without crossing an invalid opcode or a control-flow
/// instruction.
pub fn scan(image: &FirmwareImage, opts: &ScanOptions) -> Vec<Gadget> {
    let text = &image.bytes[..image.text_end as usize];
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut addr = 0u32;
    while (addr as usize) + 2 <= text.len() {
        if let Some(g) = gadget_at(text, addr, opts.max_insns) {
            if !opts.dedup || seen.insert(g.insns.clone()) {
                out.push(g);
            }
        }
        addr += 2;
    }
    out
}

fn gadget_at(text: &[u8], addr: u32, max_insns: usize) -> Option<Gadget> {
    let mut insns = Vec::new();
    let mut a = addr;
    for _ in 0..max_insns {
        let (insn, words) = decode_at(text, a as usize)?;
        match insn {
            Insn::Ret | Insn::Reti => {
                insns.push(insn);
                return Some(Gadget { addr, insns });
            }
            Insn::Invalid(_) => return None,
            // Control flow other than the final ret ends the straight-line
            // window (skips too: their effect depends on data).
            i if i.is_unconditional_branch()
                || i.is_call()
                || i.is_skip()
                || matches!(i, Insn::Brbs { .. } | Insn::Brbc { .. }) =>
            {
                return None
            }
            i => insns.push(i),
        }
        a += words * 2;
    }
    None
}

/// Population statistics over a gadget scan, for the evaluation harness
/// and the `-mcall-prologues` concentration ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct GadgetStats {
    /// Number of gadgets.
    pub count: usize,
    /// Histogram of gadget lengths in instructions (index = length,
    /// `histogram[0]` unused).
    pub length_histogram: Vec<usize>,
    /// Gadgets containing at least one `pop`.
    pub with_pops: usize,
    /// Gadgets containing at least one store (`st`/`std`/`sts`).
    pub with_stores: usize,
    /// Gadgets containing an `out` to SPL/SPH (stack-pivot capable).
    pub with_sp_writes: usize,
}

/// Compute statistics over scanned gadgets.
pub fn stats(gadgets: &[Gadget]) -> GadgetStats {
    let max_len = gadgets.iter().map(|g| g.insns.len()).max().unwrap_or(0);
    let mut s = GadgetStats {
        count: gadgets.len(),
        length_histogram: vec![0; max_len + 1],
        with_pops: 0,
        with_stores: 0,
        with_sp_writes: 0,
    };
    for g in gadgets {
        s.length_histogram[g.insns.len()] += 1;
        if g.insns.iter().any(|i| matches!(i, Insn::Pop { .. })) {
            s.with_pops += 1;
        }
        if g.insns
            .iter()
            .any(|i| matches!(i, Insn::St { .. } | Insn::Std { .. } | Insn::Sts { .. }))
        {
            s.with_stores += 1;
        }
        if g.insns
            .iter()
            .any(|i| matches!(i, Insn::Out { a: 0x3d | 0x3e, .. }))
        {
            s.with_sp_writes += 1;
        }
    }
    s
}

/// Count "surviving" gadgets: addresses where the *same* instruction
/// sequence forms a gadget in both the original and the randomized image.
/// An attacker aiming payloads derived from the original binary can only
/// use survivors; MAVR's security quality is how close this gets to zero
/// (fixed code such as a serial bootloader shows up here — §VI-B4).
pub fn survivors(
    original: &FirmwareImage,
    randomized: &FirmwareImage,
    opts: &ScanOptions,
) -> usize {
    let old = scan(
        original,
        &ScanOptions {
            dedup: false,
            ..*opts
        },
    );
    let new_text = &randomized.bytes[..randomized.text_end as usize];
    old.iter()
        .filter(|g| {
            gadget_at(new_text, g.addr, opts.max_insns)
                .map(|h| h.insns == g.insns)
                .unwrap_or(false)
        })
        .count()
}

/// The two classified gadgets an attack needs (paper Figs. 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GadgetMap {
    /// Byte address of `out 0x3e, r29` — entering here sets SP = r29:r28,
    /// then pops r28, r29, r16 and returns *from the new stack*.
    pub stk_move: u32,
    /// Byte address of `std Y+1, r5` — entering here stores r5/r6/r7 at
    /// Y+1..Y+3, then pops r29, r28, r17..r4 and returns.
    pub write_mem_std: u32,
    /// Byte address of the `pop r29` inside the same gadget — the paper's
    /// "second half of the combination gadget", used first to load Y and
    /// r17..r4 from attacker-controlled stack.
    pub write_mem_pop: u32,
}

/// Classify the image's gadgets: locate one `stk_move` and one
/// `write_mem_gadget`. Returns `None` if either shape is absent.
///
/// The match is purely structural (instruction shapes, not symbol names) —
/// this is what an attacker does to the unprotected binary.
pub fn classify(image: &FirmwareImage) -> Option<GadgetMap> {
    let text = &image.bytes[..image.text_end as usize];
    let mut stk_move = None;
    let mut write_mem = None;
    let mut addr = 0u32;
    while (addr as usize) + 2 <= text.len() {
        if stk_move.is_none() && is_stk_move(text, addr) {
            stk_move = Some(addr);
        }
        if write_mem.is_none() && is_write_mem(text, addr) {
            write_mem = Some(addr);
        }
        if let (Some(s), Some(w)) = (stk_move, write_mem) {
            return Some(GadgetMap {
                stk_move: s,
                write_mem_std: w,
                write_mem_pop: w + 6, // after the three 1-word std's
            });
        }
        addr += 2;
    }
    None
}

fn insn_seq(text: &[u8], mut addr: u32, n: usize) -> Option<Vec<Insn>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (insn, words) = decode_at(text, addr as usize)?;
        out.push(insn);
        addr += words * 2;
    }
    Some(out)
}

/// `out 0x3e,r29 ; out 0x3f,r0 ; out 0x3d,r28 ; pop r28 ; pop r29 ;
/// pop r16 ; ret` — Fig. 4.
fn is_stk_move(text: &[u8], addr: u32) -> bool {
    let Some(seq) = insn_seq(text, addr, 7) else {
        return false;
    };
    seq == [
        Insn::Out {
            a: 0x3e,
            r: Reg::R29,
        },
        Insn::Out {
            a: 0x3f,
            r: Reg::R0,
        },
        Insn::Out {
            a: 0x3d,
            r: Reg::R28,
        },
        Insn::Pop { d: Reg::R28 },
        Insn::Pop { d: Reg::R29 },
        Insn::Pop { d: Reg::R16 },
        Insn::Ret,
    ]
}

/// `std Y+1,r5 ; std Y+2,r6 ; std Y+3,r7 ; pop r29 ; pop r28 ;
/// pop r17 … pop r4 ; ret` — Fig. 5.
fn is_write_mem(text: &[u8], addr: u32) -> bool {
    let Some(seq) = insn_seq(text, addr, 20) else {
        return false;
    };
    if seq[0..3]
        != [
            Insn::Std {
                idx: YZ::Y,
                q: 1,
                r: Reg::R5,
            },
            Insn::Std {
                idx: YZ::Y,
                q: 2,
                r: Reg::R6,
            },
            Insn::Std {
                idx: YZ::Y,
                q: 3,
                r: Reg::R7,
            },
        ]
    {
        return false;
    }
    if seq[3] != (Insn::Pop { d: Reg::R29 }) || seq[4] != (Insn::Pop { d: Reg::R28 }) {
        return false;
    }
    for (i, r) in (4..=17u8).rev().enumerate() {
        if seq[5 + i] != (Insn::Pop { d: Reg::new(r) }) {
            return false;
        }
    }
    seq[19] == Insn::Ret
}

/// How many bytes each pop of the `write_mem` pop-run consumes, and where
/// r5/r6/r7 sit in it. Pop order after r29, r28 is r17, r16, …, r4 — so in
/// the attacker's stack image the value for r17 comes first and r4 last.
pub fn write_mem_pop_index(reg: u8) -> usize {
    assert!((4..=17).contains(&reg));
    (17 - reg) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use synth_firmware::{apps, build, BuildOptions};

    fn tiny_image() -> FirmwareImage {
        build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
            .unwrap()
            .image
    }

    #[test]
    fn finds_gadgets_in_tiny_app() {
        let img = tiny_image();
        let gadgets = scan(&img, &ScanOptions::default());
        assert!(
            gadgets.len() > 50,
            "expected a healthy gadget population, got {}",
            gadgets.len()
        );
        assert!(gadgets.iter().all(|g| g.insns.last().unwrap().is_return()));
        // Every gadget within the text section.
        assert!(gadgets.iter().all(|g| g.addr < img.text_end));
    }

    #[test]
    fn dedup_reduces_population() {
        let img = tiny_image();
        let unique = scan(
            &img,
            &ScanOptions {
                max_insns: 6,
                dedup: true,
            },
        );
        let all = scan(
            &img,
            &ScanOptions {
                max_insns: 6,
                dedup: false,
            },
        );
        assert!(unique.len() < all.len());
    }

    #[test]
    fn classifies_paper_gadgets() {
        let img = tiny_image();
        let map = classify(&img).expect("both gadget shapes must exist");
        assert!(is_stk_move(&img.bytes, map.stk_move));
        assert!(is_write_mem(&img.bytes, map.write_mem_std));
        assert_eq!(map.write_mem_pop, map.write_mem_std + 6);
        // The carriers are where the generator placed them.
        let nav = img.symbol("nav_update").unwrap();
        let imu = img.symbol("imu_commit_sample").unwrap();
        assert!(nav.contains(map.stk_move) || img.symbol_containing(map.stk_move).is_some());
        assert!(imu.contains(map.write_mem_std));
    }

    #[test]
    fn gadget_listing_matches_fig4_style() {
        let img = tiny_image();
        let map = classify(&img).unwrap();
        let g = scan(
            &img,
            &ScanOptions {
                max_insns: 8,
                dedup: false,
            },
        )
        .into_iter()
        .find(|g| g.addr == map.stk_move)
        .expect("stk_move must be a scanned gadget too");
        let listing = g.listing();
        assert!(listing.contains("out 0x3e, r29"));
        assert!(listing.contains("out 0x3d, r28"));
        assert!(listing.contains("pop r16"));
        assert!(listing.trim_end().ends_with("ret"));
    }

    #[test]
    fn randomization_leaves_almost_no_survivors() {
        let img = tiny_image();
        let total = scan(
            &img,
            &ScanOptions {
                max_insns: 6,
                dedup: false,
            },
        )
        .len();
        // Survival is a property of the shuffle draw, so judge the average
        // over a handful of seeds instead of betting on one draw; a single
        // unlucky permutation can legitimately leave ~5% alive.
        let seeds = [0u64, 1, 2, 3];
        let alive: usize = seeds
            .iter()
            .map(|&s| {
                let r = mavr::randomize(
                    &img,
                    &mut StdRng::seed_from_u64(s),
                    &mavr::RandomizeOptions::default(),
                )
                .unwrap();
                survivors(&img, &r.image, &ScanOptions::default())
            })
            .sum();
        assert!(
            alive * 20 < total * seeds.len(),
            "only a sliver may survive on average: {alive}/{} over {} seeds",
            total * seeds.len(),
            seeds.len()
        );
        // Identity "randomization" keeps everything.
        assert_eq!(survivors(&img, &img, &ScanOptions::default()), total);
    }

    #[test]
    fn stats_summarize_population() {
        let img = tiny_image();
        let gadgets = scan(
            &img,
            &ScanOptions {
                max_insns: 8,
                dedup: true,
            },
        );
        let st = stats(&gadgets);
        assert_eq!(st.count, gadgets.len());
        assert_eq!(st.length_histogram.iter().sum::<usize>(), st.count);
        assert!(st.with_pops > 0, "epilogues produce pop gadgets");
        assert!(st.with_sp_writes > 0, "stk_move-family gadgets present");
        assert!(st.with_stores > 0);
        assert_eq!(stats(&[]).count, 0);
    }

    #[test]
    fn pop_index_mapping() {
        assert_eq!(write_mem_pop_index(17), 0);
        assert_eq!(write_mem_pop_index(7), 10);
        assert_eq!(write_mem_pop_index(6), 11);
        assert_eq!(write_mem_pop_index(5), 12);
        assert_eq!(write_mem_pop_index(4), 13);
    }
}
