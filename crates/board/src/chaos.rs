//! Deterministic fault injection for the recovery pipeline.
//!
//! The paper's defense rests entirely on the master's recovery loop —
//! detect, re-randomize, reflash over the serial bootloader — so that loop
//! must survive the faults real hardware throws at it: bit flips and lost
//! frames on the serial link, bit rot in the external SPI flash, and power
//! loss halfway through programming the app processor. This module models
//! those faults as a seeded [`FaultPlan`] that the master consults at each
//! stage of [`crate::MasterProcessor::boot`]. Every draw comes from a
//! dedicated xoshiro256++ stream, so a fault campaign is exactly
//! reproducible from `(seed, config)`.
//!
//! A plan whose every rate is zero is *inert*: it never touches the RNG and
//! never copies data, so chaos-free boots behave byte-for-byte like the
//! pre-chaos pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-surface fault probabilities. All values are probabilities in
/// `[0, 1]`; the unit each applies to is documented per field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Per-byte probability of a single-bit flip in the bootloader serial
    /// stream.
    pub stream_bit_flip: f64,
    /// Per-frame probability that a protocol frame is dropped in transit.
    pub stream_drop_frame: f64,
    /// Per-frame probability that a frame arrives twice.
    pub stream_dup_frame: f64,
    /// Per-frame probability that a frame is swapped with its successor
    /// (reordered delivery).
    pub stream_reorder_frame: f64,
    /// Per-stream probability that the transfer is cut short at a random
    /// byte (cable yanked, UART reset).
    pub stream_truncate: f64,
    /// Per-byte probability of a bit-rot flip observed on each external
    /// flash read. Rot is transient per read — a retry re-rolls it — which
    /// models marginal cells read near the sense threshold.
    pub flash_bit_rot: f64,
    /// Per-read probability that one byte of the container reads back stuck
    /// at `0x00` or `0xff`.
    pub flash_stuck_byte: f64,
    /// Per-commit probability that power is lost mid-reflash: a random
    /// suffix of the staged pages never reaches app flash and the lock fuse
    /// is left clear.
    pub power_loss: f64,
    /// Per-page probability that a page write is partial: a tail of the
    /// page keeps its erased `0xff` state.
    pub partial_page: f64,
}

impl ChaosConfig {
    /// A configuration that injects nothing.
    pub const fn off() -> Self {
        ChaosConfig {
            stream_bit_flip: 0.0,
            stream_drop_frame: 0.0,
            stream_dup_frame: 0.0,
            stream_reorder_frame: 0.0,
            stream_truncate: 0.0,
            flash_bit_rot: 0.0,
            flash_stuck_byte: 0.0,
            power_loss: 0.0,
            partial_page: 0.0,
        }
    }

    /// Map a single campaign-level fault rate onto every surface.
    ///
    /// `rate` is the per-byte corruption probability; event-level faults
    /// (frame drops, power loss, …) scale up from it so that a sweep over
    /// one scalar exercises every failure path. `uniform(0.0)` equals
    /// [`ChaosConfig::off`].
    pub fn uniform(rate: f64) -> Self {
        let p = |x: f64| x.clamp(0.0, 1.0);
        ChaosConfig {
            stream_bit_flip: p(rate),
            stream_drop_frame: p(rate * 16.0),
            stream_dup_frame: p(rate * 16.0),
            stream_reorder_frame: p(rate * 16.0),
            stream_truncate: p(rate * 32.0),
            flash_bit_rot: p(rate / 4.0),
            flash_stuck_byte: p(rate * 16.0),
            power_loss: p(rate * 32.0),
            partial_page: p(rate * 16.0),
        }
    }

    /// Whether any fault can ever fire under this configuration.
    pub fn is_active(&self) -> bool {
        self.stream_bit_flip > 0.0
            || self.stream_drop_frame > 0.0
            || self.stream_dup_frame > 0.0
            || self.stream_reorder_frame > 0.0
            || self.stream_truncate > 0.0
            || self.flash_bit_rot > 0.0
            || self.flash_stuck_byte > 0.0
            || self.power_loss > 0.0
            || self.partial_page > 0.0
    }
}

/// Lifetime counters of faults the master's recovery pipeline survived.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Reflash retries: failed transfers, page-repair rounds, and
    /// container re-reads.
    pub reflash_retries: u64,
    /// Boots that fell back to degraded safe mode (last-known-good image,
    /// no fresh randomization).
    pub degraded_boots: u64,
}

/// A [`FaultPlan`]'s mutable state: its stream position and injection
/// count, which determinism tests compare (the configuration is
/// construction-time input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosState {
    /// Raw xoshiro256++ state words of the fault stream.
    pub rng: [u64; 4],
    /// Total faults injected so far.
    pub injected: u64,
}

/// A seeded source of faults for one board's recovery pipeline.
///
/// The plan owns its own RNG stream, separate from the master's
/// randomization entropy, so injecting (or not injecting) faults never
/// perturbs which permutations the defense picks.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: ChaosConfig,
    rng: StdRng,
    injected: u64,
}

impl FaultPlan {
    /// An inert plan: no fault ever fires and the RNG is never consumed.
    pub fn none() -> Self {
        FaultPlan::new(0, ChaosConfig::off())
    }

    /// A plan drawing faults from the given seed at the given rates.
    pub fn new(seed: u64, config: ChaosConfig) -> Self {
        FaultPlan {
            config,
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// The configured fault rates.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// Total faults injected so far (all surfaces).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The plan's mutable state.
    pub fn state(&self) -> ChaosState {
        ChaosState {
            rng: self.rng.state(),
            injected: self.injected,
        }
    }

    /// Flip one random bit in each byte selected at probability `p`.
    fn rot_bytes(&mut self, bytes: &mut [u8], p: f64) {
        if p <= 0.0 {
            return;
        }
        for b in bytes.iter_mut() {
            if self.rng.random_bool(p) {
                *b ^= 1 << self.rng.random_range(0..8u32);
                self.injected += 1;
            }
        }
    }

    /// Corrupt one external-flash read. Applied to a transient copy of the
    /// chip contents: the stored container is not rewritten, so a retry
    /// observes freshly rolled rot.
    pub fn mangle_flash_read(&mut self, bytes: &mut [u8]) {
        if !self.is_active() || bytes.is_empty() {
            return;
        }
        self.rot_bytes(bytes, self.config.flash_bit_rot);
        if self.config.flash_stuck_byte > 0.0 && self.rng.random_bool(self.config.flash_stuck_byte)
        {
            let at = self.rng.random_range(0..bytes.len());
            bytes[at] = if self.rng.random_bool(0.5) {
                0x00
            } else {
                0xff
            };
            self.injected += 1;
        }
    }

    /// Corrupt one bootloader transfer. The input is the master's
    /// well-formed frame stream; the output is what the app-side decoder
    /// actually receives: frames may be dropped, duplicated or swapped,
    /// bytes may take bit flips, and the whole stream may be cut short.
    pub fn mangle_stream(&mut self, stream: &[u8]) -> Vec<u8> {
        if !self.is_active() {
            return stream.to_vec();
        }
        let frames = split_frames(stream);
        let mut kept: Vec<&[u8]> = Vec::with_capacity(frames.len() + 2);
        for f in &frames {
            if self.config.stream_drop_frame > 0.0
                && self.rng.random_bool(self.config.stream_drop_frame)
            {
                self.injected += 1;
                continue;
            }
            kept.push(f);
            if self.config.stream_dup_frame > 0.0
                && self.rng.random_bool(self.config.stream_dup_frame)
            {
                kept.push(f);
                self.injected += 1;
            }
        }
        if self.config.stream_reorder_frame > 0.0 {
            let mut i = 0;
            while i + 1 < kept.len() {
                if self.rng.random_bool(self.config.stream_reorder_frame) {
                    kept.swap(i, i + 1);
                    self.injected += 1;
                    i += 2; // a swapped pair is delivered; move past it
                } else {
                    i += 1;
                }
            }
        }
        let mut out: Vec<u8> = kept.concat();
        self.rot_bytes(&mut out, self.config.stream_bit_flip);
        if self.config.stream_truncate > 0.0
            && !out.is_empty()
            && self.rng.random_bool(self.config.stream_truncate)
        {
            out.truncate(self.rng.random_range(0..out.len()));
            self.injected += 1;
        }
        out
    }

    /// Power-loss decision for one flash commit of `pages` staged pages:
    /// `Some(k)` means the supply dropped after `k` pages were written and
    /// nothing after them (including the lock fuse) took effect.
    pub fn power_loss_cut(&mut self, pages: usize) -> Option<usize> {
        if self.config.power_loss > 0.0 && pages > 0 && self.rng.random_bool(self.config.power_loss)
        {
            self.injected += 1;
            Some(self.rng.random_range(0..pages))
        } else {
            None
        }
    }

    /// Partial-write decision for one page of `len` bytes: `Some(k)` means
    /// only the first `k` bytes latched and the tail kept its erased state.
    pub fn partial_page_len(&mut self, len: usize) -> Option<usize> {
        if self.config.partial_page > 0.0
            && len > 0
            && self.rng.random_bool(self.config.partial_page)
        {
            self.injected += 1;
            Some(self.rng.random_range(0..len))
        } else {
            None
        }
    }
}

/// Split a well-formed bootloader stream into frames on the wire framing
/// (start byte, sequence, big-endian length). Trailing bytes that do not
/// form a whole frame are kept as a final pseudo-frame so mangling never
/// silently discards input.
fn split_frames(stream: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    let mut i = 0;
    while i < stream.len() {
        if stream.len() - i >= 6 && stream[i] == crate::bootloader::MESSAGE_START {
            let len = u16::from_be_bytes([stream[i + 2], stream[i + 3]]) as usize;
            let total = 6 + len;
            if stream.len() - i >= total {
                frames.push(&stream[i..i + total]);
                i += total;
                continue;
            }
        }
        frames.push(&stream[i..]);
        break;
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy() -> ChaosConfig {
        ChaosConfig::uniform(0.002)
    }

    #[test]
    fn inert_plan_changes_nothing_and_holds_rng_still() {
        let mut plan = FaultPlan::none();
        let before = plan.state();
        let stream = crate::bootloader::programming_stream(&[0xab; 1024], 256);
        assert_eq!(plan.mangle_stream(&stream), stream);
        let mut bytes = vec![0x55u8; 4096];
        plan.mangle_flash_read(&mut bytes);
        assert!(bytes.iter().all(|&b| b == 0x55));
        assert_eq!(plan.power_loss_cut(16), None);
        assert_eq!(plan.partial_page_len(256), None);
        assert_eq!(plan.state(), before);
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn same_seed_same_faults() {
        let stream = crate::bootloader::programming_stream(&[0x5a; 4096], 256);
        let mut a = FaultPlan::new(99, noisy());
        let mut b = FaultPlan::new(99, noisy());
        for _ in 0..8 {
            assert_eq!(a.mangle_stream(&stream), b.mangle_stream(&stream));
        }
        assert_eq!(a.state(), b.state());

        let mut c = FaultPlan::new(100, noisy());
        let differs = (0..8).any(|_| {
            let x = a.mangle_stream(&stream);
            let y = c.mangle_stream(&stream);
            x != y
        });
        assert!(differs, "different seeds should mangle differently");
    }

    #[test]
    fn frame_splitter_round_trips_a_real_stream() {
        let stream = crate::bootloader::programming_stream(&[0x77; 2048], 256);
        let frames = split_frames(&stream);
        assert!(frames.len() > 8, "expected one frame per page plus control");
        let rejoined: Vec<u8> = frames.concat();
        assert_eq!(rejoined, stream);
    }

    #[test]
    fn heavy_chaos_eventually_hits_every_surface() {
        let cfg = ChaosConfig::uniform(0.02);
        let mut plan = FaultPlan::new(3, cfg);
        let stream = crate::bootloader::programming_stream(&[0xc3; 4096], 256);
        let mut mangled = 0;
        let mut cuts = 0;
        let mut partials = 0;
        for _ in 0..64 {
            if plan.mangle_stream(&stream) != stream {
                mangled += 1;
            }
            if plan.power_loss_cut(16).is_some() {
                cuts += 1;
            }
            if plan.partial_page_len(256).is_some() {
                partials += 1;
            }
        }
        assert!(mangled > 0 && cuts > 0 && partials > 0);
        assert!(plan.injected() > 0);
    }
}
