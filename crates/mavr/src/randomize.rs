//! The randomization engine and streaming patcher (§V-B2, §V-B3, §VI-B3).

use avr_core::decode::{decode_at, width_at};
use avr_core::encode::encode;
use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
use avr_core::Insn;
use rand::seq::SliceRandom;
use rand::Rng;

/// `icall`/`ijmp` and 16-bit function pointers reach only the low 128 KiB
/// of flash (a 16-bit word address). Functions referenced from
/// function-pointer tables must stay below this after shuffling — a
/// constraint the paper does not spell out but any ATmega2560
/// implementation must honor.
pub const ICALL_REACH_BYTES: u32 = 128 * 1024;

/// Options for the randomizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizeOptions {
    /// Keep functions that are targets of data-section function pointers
    /// within `icall` reach (see [`ICALL_REACH_BYTES`]). Disabling this on
    /// a large image produces indirect calls that jump to the wrong place.
    pub constrain_icall_targets: bool,
    /// Continue when a relative branch escapes its function block instead
    /// of failing. The resulting image is **broken by construction** —
    /// this exists for the ablation that shows why the paper needs
    /// `--no-relax` (§VI-B1).
    pub ignore_relaxed_branches: bool,
}

impl Default for RandomizeOptions {
    fn default() -> Self {
        RandomizeOptions {
            constrain_icall_targets: true,
            ignore_relaxed_branches: false,
        }
    }
}

/// Errors from randomization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RandomizeError {
    /// The movable function region is not contiguous (unsupported layout).
    NonContiguousText {
        /// First address where a gap or interleaving was found.
        addr: u32,
    },
    /// An absolute call/jump targets an address outside every symbol.
    UnmappableTarget {
        /// Address of the instruction.
        at: u32,
        /// The unmappable target (byte address).
        target: u32,
    },
    /// A relative call/jump crosses function blocks — the image was built
    /// with linker relaxation, which randomization cannot survive. This is
    /// the paper's motivation for `--no-relax` (§VI-B1).
    RelaxedBranch {
        /// Address of the offending instruction.
        at: u32,
    },
    /// A function-pointer slot holds a word address outside every function.
    BadFunctionPointer {
        /// Flash byte offset of the slot.
        loc: u32,
    },
    /// The icall-reach constraint cannot be satisfied (too much constrained
    /// code).
    ConstraintUnsatisfiable,
}

impl std::fmt::Display for RandomizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RandomizeError::NonContiguousText { addr } => {
                write!(f, "movable text is not contiguous at {addr:#x}")
            }
            RandomizeError::UnmappableTarget { at, target } => {
                write!(f, "call/jmp at {at:#x} targets unmapped {target:#x}")
            }
            RandomizeError::RelaxedBranch { at } => write!(
                f,
                "relative branch at {at:#x} crosses function blocks (build with --no-relax)"
            ),
            RandomizeError::BadFunctionPointer { loc } => {
                write!(
                    f,
                    "function pointer at {loc:#x} points outside all functions"
                )
            }
            RandomizeError::ConstraintUnsatisfiable => {
                write!(f, "cannot keep all pointer-called functions in icall reach")
            }
        }
    }
}

impl std::error::Error for RandomizeError {}

/// Result of one randomization pass.
#[derive(Debug, Clone)]
pub struct RandomizedImage {
    /// The randomized, patched image (same size, same `text_end`, same
    /// symbol *names* at new addresses).
    pub image: FirmwareImage,
    /// `permutation[i] = j`: the movable function originally at rank `i`
    /// (address order) now sits at rank `j`.
    pub permutation: Vec<usize>,
    /// Patch statistics (what the paper's master processor does per boot).
    pub report: PatchReport,
}

/// Counters from the streaming patch pass (§V-B3, §VI-B3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// Absolute `call` instructions retargeted.
    pub calls_patched: usize,
    /// Absolute `jmp` instructions retargeted (including the vector table
    /// and switch-statement trampolines).
    pub jumps_patched: usize,
    /// Of those, jumps whose target was *inside* a block (trampolines,
    /// resolved by binary search).
    pub trampolines_patched: usize,
    /// Function pointers rewritten in the data section.
    pub pointers_patched: usize,
}

/// Shuffle the function blocks of `image` and patch every reference:
/// [`PatchPlan::new`], then [`PatchPlan::apply`].
pub fn randomize(
    image: &FirmwareImage,
    rng: &mut impl Rng,
    opts: &RandomizeOptions,
) -> Result<RandomizedImage, RandomizeError> {
    PatchPlan::new(image).apply(image, rng, opts)
}

/// Address and size of one movable function block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    addr: u32,
    size: u32,
}

/// Where an address of the original image lands after a shuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// `offset` bytes into the movable block of rank `rank`.
    Moved { rank: usize, offset: u32 },
    /// Outside every movable block: the address stays put.
    Fixed(u32),
}

impl Place {
    fn resolve(self, new_addr: &[u32]) -> u32 {
        match self {
            Place::Moved { rank, offset } => new_addr[rank] + offset,
            Place::Fixed(addr) => addr,
        }
    }
}

/// One absolute `call`/`jmp` whose target maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    at: Place,
    target: Place,
    call: bool,
}

/// Everything the randomizer learns from an image before it draws a
/// permutation. The paper's master rescans the binary as it streams it
/// (§VI-B3); nothing found by that scan depends on the permutation, so a
/// plan is built once per image and each boot only [applies](Self::apply)
/// it: shuffle, relocate, and patch the sites and slots listed here.
#[derive(Debug, Clone)]
pub struct PatchPlan {
    /// Length of the image the plan was built from.
    image_len: usize,
    /// The movable functions, by rank (address order).
    blocks: Vec<Block>,
    /// First address where the movable region is not contiguous.
    non_contiguous: Option<u32>,
    /// Ranks a data-section function pointer targets.
    constrained: Vec<bool>,
    /// Every absolute call/jmp with a mappable target, in address order.
    sites: Vec<Site>,
    /// The walk's first error by address: an unmappable call/jmp target
    /// or a relative branch that leaves its block.
    walk_error: Option<RandomizeError>,
    /// The walk's first unmappable target, its error when relaxed
    /// branches are ignored.
    unmappable: Option<RandomizeError>,
    /// Each function-pointer slot and where its target lies (`None`:
    /// outside every symbol).
    pointers: Vec<(u32, Option<Place>)>,
    /// Movable rank at each symbol's address.
    symbol_ranks: Vec<Option<usize>>,
    /// What every successful application reports.
    report: PatchReport,
}

impl PatchPlan {
    /// Scan `image` once: its movable blocks and their contiguity, the
    /// icall-constrained blocks, every call/jmp site and pointer slot, and
    /// the errors any application would meet.
    pub fn new(image: &FirmwareImage) -> PatchPlan {
        let movable: Vec<&Symbol> = image
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Function)
            .collect();
        let mut plan = PatchPlan {
            image_len: image.bytes.len(),
            blocks: movable
                .iter()
                .map(|s| Block {
                    addr: s.addr,
                    size: s.size,
                })
                .collect(),
            non_contiguous: None,
            constrained: vec![false; movable.len()],
            sites: Vec::new(),
            walk_error: None,
            unmappable: None,
            pointers: Vec::new(),
            symbol_ranks: Vec::new(),
            report: PatchReport::default(),
        };
        if movable.is_empty() {
            return plan;
        }

        // The movable region must be one contiguous span with nothing fixed
        // inside it.
        let region_start = movable[0].addr;
        let region_end = movable.last().unwrap().end();
        let mut cursor = region_start;
        for s in &movable {
            if s.addr != cursor {
                plan.non_contiguous = Some(cursor);
                return plan;
            }
            cursor = s.end();
        }
        plan.non_contiguous = image
            .symbols
            .iter()
            .find(|s| {
                s.kind != SymbolKind::Function && s.addr >= region_start && s.addr < region_end
            })
            .map(|s| s.addr);
        if plan.non_contiguous.is_some() {
            return plan;
        }

        // Where an original address lands: in a movable block, in fixed
        // code (the vector table), or nowhere.
        let moved = |byte: u32| {
            rank_of(&movable, byte).map(|rank| Place::Moved {
                rank,
                offset: byte - movable[rank].addr,
            })
        };
        let place = |byte: u32| {
            moved(byte).or_else(|| image.symbol_containing(byte).map(|_| Place::Fixed(byte)))
        };

        // The streaming patch pass's scan of the executable region: every
        // absolute call/jmp is a site; relative branches must stay inside
        // their block.
        let mut next = 0u32;
        while next + 1 < image.text_end {
            let off = next;
            let Some(words) = width_at(&image.bytes, off as usize) else {
                break;
            };
            next += words * 2;
            // Only calls and jumps need decoding; everything else is stepped
            // over by its width.
            if !is_call_or_jump(image.read_word(off)) {
                continue;
            }
            let (insn, _) = decode_at(&image.bytes, off as usize).expect("width_at read this word");
            match insn {
                Insn::Call { k } | Insn::Jmp { k } => {
                    let call = matches!(insn, Insn::Call { .. });
                    let Some(target) = place(k * 2) else {
                        let e = RandomizeError::UnmappableTarget {
                            at: off,
                            target: k * 2,
                        };
                        plan.unmappable.get_or_insert(e.clone());
                        plan.walk_error.get_or_insert(e);
                        continue;
                    };
                    if call {
                        plan.report.calls_patched += 1;
                    } else {
                        plan.report.jumps_patched += 1;
                        if matches!(target, Place::Moved { offset, .. } if offset != 0) {
                            plan.report.trampolines_patched += 1;
                        }
                    }
                    let at = moved(off).unwrap_or(Place::Fixed(off));
                    plan.sites.push(Site { at, target, call });
                }
                Insn::Rcall { k } | Insn::Rjmp { k } => {
                    // Target must stay inside the same function block.
                    let target = off.wrapping_add(2).wrapping_add_signed(i32::from(k) * 2);
                    let same_block = match (rank_of(&movable, off), rank_of(&movable, target)) {
                        (Some(a), Some(b)) => a == b,
                        // Fixed-region code may branch within itself.
                        (None, None) => true,
                        _ => false,
                    };
                    if !same_block {
                        plan.walk_error
                            .get_or_insert(RandomizeError::RelaxedBranch { at: off });
                    }
                }
                _ => {}
            }
        }

        // Data-section function pointers (16-bit word addresses); the
        // movable functions they target must stay within icall reach.
        for &loc in &image.fn_ptr_locs {
            let target = place(u32::from(image.read_word(loc)) * 2);
            if let Some(Place::Moved { rank, .. }) = target {
                plan.constrained[rank] = true;
            }
            plan.pointers.push((loc, target));
        }
        plan.report.pointers_patched = plan.pointers.len();
        plan.symbol_ranks = image
            .symbols
            .iter()
            .map(|s| rank_of(&movable, s.addr))
            .collect();
        plan
    }

    /// One boot's randomization of `image`, the image this plan was built
    /// from: draw a permutation, repair it for icall reach, relocate the
    /// blocks, and patch every listed site and pointer slot.
    ///
    /// Errors come in a fixed order: a non-contiguous region before any
    /// draw, then the repair, then the scan's first error by address, then
    /// the pointer slots in order.
    pub fn apply(
        &self,
        image: &FirmwareImage,
        rng: &mut impl Rng,
        opts: &RandomizeOptions,
    ) -> Result<RandomizedImage, RandomizeError> {
        assert_eq!(
            image.bytes.len(),
            self.image_len,
            "a patch plan applies only to the image it was built from"
        );
        if self.blocks.is_empty() {
            return Ok(RandomizedImage {
                image: image.clone(),
                permutation: Vec::new(),
                report: PatchReport::default(),
            });
        }
        if let Some(addr) = self.non_contiguous {
            return Err(RandomizeError::NonContiguousText { addr });
        }

        // Draw the permutation: a uniform shuffle of placement order, then
        // repair icall-reach violations by swapping violators with
        // unconstrained blocks placed low.
        let region_start = self.blocks[0].addr;
        let n = self.blocks.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        if opts.constrain_icall_targets {
            repair_constraints(
                &mut order,
                &self.blocks,
                &self.constrained,
                region_start,
                rng,
            )?;
        }
        let walk_error = if opts.ignore_relaxed_branches {
            &self.unmappable
        } else {
            &self.walk_error
        };
        if let Some(e) = walk_error {
            return Err(e.clone());
        }

        // New address of each movable rank.
        let mut new_addr = vec![0u32; n];
        let mut cursor = region_start;
        for &rank in &order {
            new_addr[rank] = cursor;
            cursor += self.blocks[rank].size;
        }

        // Relocate the blocks.
        let mut bytes = image.bytes.clone();
        for (b, &dst) in self.blocks.iter().zip(&new_addr) {
            let src = b.addr as usize..(b.addr + b.size) as usize;
            bytes[dst as usize..(dst + b.size) as usize].copy_from_slice(&image.bytes[src]);
        }

        // Retarget every absolute call/jmp at its relocated address.
        for site in &self.sites {
            let k = site.target.resolve(&new_addr) / 2;
            let patched = if site.call {
                Insn::Call { k }
            } else {
                Insn::Jmp { k }
            };
            let ws = encode(&patched).expect("patched long branch re-encodes");
            let base = site.at.resolve(&new_addr) as usize;
            bytes[base..base + 2].copy_from_slice(&ws[0].to_le_bytes());
            bytes[base + 2..base + 4].copy_from_slice(&ws[1].to_le_bytes());
        }

        // Rewrite the data-section function pointers.
        for &(loc, target) in &self.pointers {
            let new_byte = target
                .ok_or(RandomizeError::BadFunctionPointer { loc })?
                .resolve(&new_addr);
            if new_byte >= ICALL_REACH_BYTES && opts.constrain_icall_targets {
                // Cannot happen when repair_constraints succeeded; a loud check
                // beats a silently truncated pointer.
                return Err(RandomizeError::ConstraintUnsatisfiable);
            }
            let new_word = (new_byte / 2) as u16;
            bytes[loc as usize..loc as usize + 2].copy_from_slice(&new_word.to_le_bytes());
        }

        // Rebuild the symbol table at the new addresses.
        let mut symbols: Vec<Symbol> = image
            .symbols
            .iter()
            .zip(&self.symbol_ranks)
            .map(|(s, rank)| {
                let mut s = s.clone();
                if s.kind == SymbolKind::Function {
                    s.addr = new_addr[rank.expect("movable symbol")];
                }
                s
            })
            .collect();
        symbols.sort_by_key(|s| s.addr);

        // permutation[i] = new rank of old rank i.
        let mut order_index = vec![0usize; n];
        for (pos, &rank) in order.iter().enumerate() {
            order_index[rank] = pos;
        }

        let out = FirmwareImage {
            device: image.device,
            bytes,
            symbols,
            text_end: image.text_end,
            fn_ptr_locs: image.fn_ptr_locs.clone(),
        };
        debug_assert!(out.validate().is_ok(), "{:?}", out.validate());
        Ok(RandomizedImage {
            image: out,
            permutation: order_index,
            report: self.report,
        })
    }
}

/// Whether `word` opens an absolute (`jmp`, `call`: `1001 010k kkkk 11ck`)
/// or relative (`rjmp`, `rcall`: `110x kkkk kkkk kkkk`) call or jump — the
/// only instructions the patch pass must decode.
fn is_call_or_jump(word: u16) -> bool {
    word & 0xfe0c == 0x940c || word >> 13 == 0b110
}

/// Rank (index in address order) of the movable symbol containing
/// `byte_addr`, by binary search — the paper's §VI-B3 lookup.
fn rank_of(movable: &[&Symbol], byte_addr: u32) -> Option<usize> {
    let idx = movable.partition_point(|s| s.addr <= byte_addr);
    let rank = idx.checked_sub(1)?;
    movable[rank].contains(byte_addr).then_some(rank)
}

/// Move constrained blocks early enough in the placement order that they
/// stay within icall reach.
fn repair_constraints(
    order: &mut [usize],
    blocks: &[Block],
    constrained: &[bool],
    region_start: u32,
    rng: &mut impl Rng,
) -> Result<(), RandomizeError> {
    let limit = ICALL_REACH_BYTES;
    let total_constrained: u32 = constrained
        .iter()
        .zip(blocks)
        .filter(|(c, _)| **c)
        .map(|(_, b)| b.size)
        .sum();
    if region_start + total_constrained > limit {
        return Err(RandomizeError::ConstraintUnsatisfiable);
    }
    // Iteratively swap violators with unconstrained blocks placed low.
    for _ in 0..order.len() * 4 {
        // Compute placement and find the first violator.
        let mut cursor = region_start;
        let mut violator_pos = None;
        let mut low_positions = Vec::new();
        for (pos, &rank) in order.iter().enumerate() {
            let end = cursor + blocks[rank].size;
            if constrained[rank] && end > limit && violator_pos.is_none() {
                violator_pos = Some(pos);
            }
            if !constrained[rank] && end <= limit {
                low_positions.push(pos);
            }
            cursor = end;
        }
        let Some(vp) = violator_pos else {
            return Ok(());
        };
        if low_positions.is_empty() {
            return Err(RandomizeError::ConstraintUnsatisfiable);
        }
        let lp = low_positions[rng.random_range(0..low_positions.len())];
        order.swap(vp, lp);
    }
    Err(RandomizeError::ConstraintUnsatisfiable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_sim::{Machine, RunExit};
    use rand::{rngs::StdRng, SeedableRng};
    use synth_firmware::{apps, build, BuildOptions};

    fn tiny() -> FirmwareImage {
        build(&apps::tiny_test_app(), &BuildOptions::safe_mavr())
            .unwrap()
            .image
    }

    #[test]
    fn call_or_jump_prefilter_matches_the_decoder_on_every_word() {
        use avr_core::decode::decode;
        for w in 0..=u16::MAX {
            let branch = matches!(
                decode(&[w, 0x0100]).0,
                Insn::Call { .. } | Insn::Jmp { .. } | Insn::Rcall { .. } | Insn::Rjmp { .. }
            );
            assert_eq!(is_call_or_jump(w), branch, "{w:#06x}");
        }
    }

    #[test]
    fn randomized_image_is_well_formed() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(1),
            &RandomizeOptions::default(),
        )
        .unwrap();
        r.image.validate().unwrap();
        assert_eq!(r.image.code_size(), img.code_size());
        assert_eq!(r.image.text_end, img.text_end);
        assert_eq!(r.image.function_count(), img.function_count());
        assert_ne!(r.image.bytes, img.bytes, "layout must actually change");
        // Same set of names, different addresses for most.
        let moved = img
            .functions()
            .filter(|s| r.image.symbol(&s.name).unwrap().addr != s.addr)
            .count();
        assert!(moved > img.function_count() / 2);
        // Rodata untouched except at the patched function-pointer slots.
        for off in img.text_end..img.code_size() {
            if img.fn_ptr_locs.iter().any(|&l| off == l || off == l + 1) {
                continue;
            }
            assert_eq!(
                r.image.bytes[off as usize], img.bytes[off as usize],
                "non-pointer rodata byte at {off:#x} changed"
            );
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(2),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let n = r.permutation.len();
        assert_eq!(n, img.function_count());
        let mut seen = vec![false; n];
        for &p in &r.permutation {
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn randomized_firmware_still_runs() {
        // The acid test: shuffle, then boot and verify full behaviour.
        let img = tiny();
        for seed in 0..5 {
            let r = randomize(
                &img,
                &mut StdRng::seed_from_u64(seed),
                &RandomizeOptions::default(),
            )
            .unwrap();
            let mut m = Machine::new_atmega2560();
            m.load_flash(0, &r.image.bytes);
            let exit = m.run(1_200_000);
            assert_eq!(
                exit,
                RunExit::CyclesExhausted,
                "seed {seed}: {:?}",
                m.fault()
            );
            assert!(
                m.heartbeat.toggles.len() >= 10,
                "seed {seed}: heartbeats stopped"
            );
        }
    }

    #[test]
    fn randomized_firmware_telemetry_still_valid() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(9),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let mut m = avr_sim::Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        m.run(1_200_000);
        let mut gcs = mavlink_lite::GroundStation::new();
        gcs.ingest(&m.uart0.take_tx());
        assert_eq!(gcs.bad_checksums(), 0);
        assert!(gcs.heartbeats.len() >= 10);
        // And it still processes commands.
        m.uart0.inject(&gcs.param_set(b"KP", 3.0));
        m.run(1_200_000);
        assert_eq!(m.peek_data(synth_firmware::layout::PARAM_SET_COUNT), 1);
    }

    #[test]
    fn randomized_isr_still_ticks() {
        // The ISR is a movable function reached only through interrupt
        // vector 23 — this exercises MAVR's vector-table patching.
        let img = tiny();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(11),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_ne!(
            r.image.symbol("timer0_ovf_isr").unwrap().addr,
            img.symbol("timer0_ovf_isr").unwrap().addr,
            "seed 11 moves the ISR"
        );
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        m.run(1_200_000);
        assert!(m.fault().is_none());
        let clock = u16::from_le_bytes([
            m.peek_data(synth_firmware::layout::SOFT_CLOCK),
            m.peek_data(synth_firmware::layout::SOFT_CLOCK + 1),
        ]);
        assert!(
            clock > 50,
            "soft clock advanced under the new layout: {clock}"
        );
    }

    #[test]
    fn different_seeds_different_layouts() {
        let img = tiny();
        let a = randomize(
            &img,
            &mut StdRng::seed_from_u64(1),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let b = randomize(
            &img,
            &mut StdRng::seed_from_u64(2),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_ne!(a.permutation, b.permutation);
        assert_ne!(a.image.bytes, b.image.bytes);
    }

    #[test]
    fn same_seed_same_layout() {
        let img = tiny();
        let a = randomize(
            &img,
            &mut StdRng::seed_from_u64(3),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let b = randomize(
            &img,
            &mut StdRng::seed_from_u64(3),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn relaxed_image_is_rejected() {
        // A stock-toolchain build has cross-function rcall/rjmp.
        let img = build(&apps::tiny_test_app(), &BuildOptions::safe_stock())
            .unwrap()
            .image;
        let err = randomize(
            &img,
            &mut StdRng::seed_from_u64(1),
            &RandomizeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RandomizeError::RelaxedBranch { .. }));
    }

    #[test]
    fn relaxed_image_forced_through_breaks() {
        // The ablation: ignore the relaxed branches and watch the image die.
        let img = build(&apps::tiny_test_app(), &BuildOptions::safe_stock())
            .unwrap()
            .image;
        let opts = RandomizeOptions {
            ignore_relaxed_branches: true,
            ..Default::default()
        };
        let r = randomize(&img, &mut StdRng::seed_from_u64(1), &opts).unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        let exit = m.run(2_000_000);
        assert!(
            !exit.is_healthy() || m.heartbeat.toggles.len() < 5,
            "a relax-built image should not survive randomization"
        );
    }

    #[test]
    fn fn_pointer_tables_are_patched() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(4),
            &RandomizeOptions::default(),
        )
        .unwrap();
        for &loc in &img.fn_ptr_locs {
            let old_word = img.read_word(loc);
            let new_word = r.image.read_word(loc);
            let old_sym = img.symbol_containing(u32::from(old_word) * 2).unwrap();
            let new_sym = r.image.symbol_containing(u32::from(new_word) * 2).unwrap();
            assert_eq!(old_sym.name, new_sym.name, "pointer follows its function");
        }
    }

    #[test]
    fn icall_targets_stay_reachable() {
        // Build a big app (full SynthRover) and check the constraint holds
        // across several shuffles.
        let img = build(&apps::synth_rover(), &BuildOptions::safe_mavr())
            .unwrap()
            .image;
        assert!(img.code_size() > ICALL_REACH_BYTES);
        for seed in 0..3 {
            let r = randomize(
                &img,
                &mut StdRng::seed_from_u64(seed),
                &RandomizeOptions::default(),
            )
            .unwrap();
            for &loc in &r.image.fn_ptr_locs {
                let word = r.image.read_word(loc);
                assert!(
                    u32::from(word) * 2 + 2 <= ICALL_REACH_BYTES,
                    "seed {seed}: pointer target escaped icall reach"
                );
            }
        }
    }

    #[test]
    fn patch_report_accounts_for_everything() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(6),
            &RandomizeOptions::default(),
        )
        .unwrap();
        // Every recorded pointer slot was rewritten.
        assert_eq!(r.report.pointers_patched, img.fn_ptr_locs.len());
        // All 57 vectors are jmp instructions, plus the fillers' jumps.
        assert!(r.report.jumps_patched >= 57);
        // The generated app has switch trampolines.
        assert!(r.report.trampolines_patched > 0);
        // Call-heavy firmware: many absolute calls patched.
        assert!(r.report.calls_patched > 20);
    }

    #[test]
    fn gadgets_move_but_do_not_vanish() {
        // The paper's point exactly: randomization does not remove gadgets
        // — the same epilogues exist — it makes their *addresses* useless
        // to an attacker who only holds the unprotected binary.
        let img = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
            .unwrap()
            .image;
        let before = rop_classify(&img).expect("gadgets in the original");
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(33),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let after = rop_classify(&r.image).expect("gadgets still present after shuffle");
        assert_ne!(
            (before.0, before.1),
            (after.0, after.1),
            "the gadget addresses must change"
        );
    }

    /// Minimal structural re-scan (kept local so `mavr` does not depend on
    /// the attack crate): find the stk_move and write_mem byte patterns.
    fn rop_classify(img: &FirmwareImage) -> Option<(u32, u32)> {
        use avr_core::{Insn, Reg, YZ};
        let mut stk = None;
        let mut wm = None;
        let mut addr = 0u32;
        while addr + 2 <= img.text_end {
            let (i0, w) = avr_core::decode::decode_at(&img.bytes, addr as usize)?;
            if i0
                == (Insn::Out {
                    a: 0x3e,
                    r: Reg::R29,
                })
                && stk.is_none()
            {
                stk = Some(addr);
            }
            if i0
                == (Insn::Std {
                    idx: YZ::Y,
                    q: 1,
                    r: Reg::R5,
                })
                && wm.is_none()
            {
                wm = Some(addr);
            }
            if let (Some(s), Some(m)) = (stk, wm) {
                return Some((s, m));
            }
            addr += w * 2;
        }
        None
    }

    #[test]
    fn permutations_are_statistically_uniform() {
        // The §V-D/§VIII-B security argument assumes a uniform draw over
        // the n! permutations. Chi-square the position of the first three
        // movable functions across many seeds: each should be uniform over
        // the n ranks.
        let img = tiny();
        let n = img.function_count();
        let trials = 1200usize;
        let mut counts = vec![vec![0u32; n]; 3];
        for seed in 0..trials as u64 {
            let r = randomize(
                &img,
                &mut StdRng::seed_from_u64(seed),
                &RandomizeOptions::default(),
            )
            .unwrap();
            for f in 0..3 {
                counts[f][r.permutation[f]] += 1;
            }
        }
        let expected = trials as f64 / n as f64; // 20 per cell
        for (f, row) in counts.iter().enumerate() {
            let chi2: f64 = row
                .iter()
                .map(|&c| {
                    let d = f64::from(c) - expected;
                    d * d / expected
                })
                .sum();
            // df = n - 1 = 59; the 99.9% quantile is ~99. Allow margin.
            assert!(
                chi2 < 110.0,
                "function {f}: chi-square {chi2:.1} over {n} positions — not uniform"
            );
        }
    }

    #[test]
    fn randomization_has_zero_runtime_overhead() {
        // §IX: "MAVR does not use any runtime data structures or
        // monitoring, thus making it very efficient with minimal overhead."
        // Stronger: zero — the randomized binary executes the same
        // instruction mix (absolute branches keep their width and cycle
        // cost), so the control loop runs at an identical rate.
        let img = tiny();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(21),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let rate = |bytes: &[u8]| {
            let mut m = Machine::new_atmega2560();
            m.load_flash(0, bytes);
            m.run(2_000_000);
            assert!(m.fault().is_none());
            m.heartbeat.toggles.len()
        };
        let original = rate(&img.bytes);
        let randomized = rate(&r.image.bytes);
        assert_eq!(
            original, randomized,
            "identical heartbeat rate: randomization costs zero runtime cycles"
        );
    }

    #[test]
    fn fixed_bootloader_survives_randomization_verbatim() {
        // §VI-B4's warning, demonstrated: pinned code keeps its address and
        // bytes across randomization, so its gadgets stay aim-able.
        let mut opts = BuildOptions::safe_mavr();
        opts.serial_bootloader = true;
        let img = build(&apps::tiny_test_app(), &opts).unwrap().image;
        let bl = img.symbol("__bootloader").unwrap().clone();
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(5),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let bl2 = r.image.symbol("__bootloader").unwrap();
        assert_eq!(bl2.addr, bl.addr, "fixed code must not move");
        assert_eq!(
            &r.image.bytes[bl.addr as usize..bl.end() as usize],
            &img.bytes[bl.addr as usize..bl.end() as usize],
            "fixed code must be byte-identical"
        );
        // And the whole thing still runs.
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        m.run(1_000_000);
        assert!(m.fault().is_none());
    }

    #[test]
    fn unconstrained_shuffle_breaks_icall_reach() {
        // Why the constraint exists: without it, some shuffle of a >128 KiB
        // image strands a pointer-called function beyond the 16-bit word
        // address a function-pointer slot can express.
        let img = build(&apps::synth_rover(), &BuildOptions::safe_mavr())
            .unwrap()
            .image;
        let opts = RandomizeOptions {
            constrain_icall_targets: false,
            ..Default::default()
        };
        // A function beyond the reach limit cannot be represented in the
        // 16-bit pointer slot: the stored word address silently truncates,
        // so detect the breakage by comparing each slot against the actual
        // address of the function it is supposed to reference.
        let broken = (0..10u64).any(|seed| {
            let r = randomize(&img, &mut StdRng::seed_from_u64(seed), &opts).unwrap();
            r.image.fn_ptr_locs.iter().any(|&loc| {
                let slot_byte = u32::from(r.image.read_word(loc)) * 2;
                // The slot should point at the *start* of some function.
                r.image
                    .symbol_containing(slot_byte)
                    .map(|s| s.addr != slot_byte)
                    .unwrap_or(true)
            })
        });
        assert!(
            broken,
            "within a few seeds an unconstrained shuffle should corrupt a pointer slot"
        );
    }

    #[test]
    fn empty_movable_set_is_identity() {
        let mut img = tiny();
        for s in &mut img.symbols {
            s.kind = SymbolKind::Fixed;
        }
        let r = randomize(
            &img,
            &mut StdRng::seed_from_u64(0),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_eq!(r.image.bytes, img.bytes);
        assert!(r.permutation.is_empty());
    }
}
