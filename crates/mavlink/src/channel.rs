//! Deterministic lossy-link channel model.
//!
//! The paper evaluates MAVR over a perfect serial cable; real UAV radios
//! (3DR telemetry, XBee) drop, corrupt, duplicate and delay bytes. A
//! [`LossyChannel`] sits between an encoder and a [`crate::Parser`] and
//! applies per-byte impairments drawn from a **seeded** RNG, so an entire
//! fleet campaign is reproducible from its seed: the same
//! `(LossConfig, input byte stream)` pair always yields the same output
//! byte stream, independent of how the input is chunked across
//! [`LossyChannel::transmit`] calls.
//!
//! Impairments, applied per input byte in a fixed order:
//!
//! 1. **drop** — the byte vanishes;
//! 2. **corrupt** — the byte is XORed with a random non-zero mask (so a
//!    corrupted byte never equals the original);
//! 3. **duplicate** — the byte is emitted twice back-to-back;
//! 4. **delay** — the byte slips up to `max_delay` positions later in the
//!    stream, reordering it behind subsequent bytes.
//!
//! A config with all probabilities at zero is recognized and bypasses the
//! RNG entirely: the channel is then a transparent, allocation-only move
//! of the input — the property `examples/ground_station.rs` relies on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Impairment probabilities and the campaign seed for one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Per-byte probability the byte is dropped.
    pub drop: f64,
    /// Per-byte probability the byte is corrupted (XOR non-zero mask).
    pub corrupt: f64,
    /// Per-byte probability the byte is duplicated.
    pub duplicate: f64,
    /// Per-byte probability the byte is delayed behind later bytes.
    pub delay: f64,
    /// Maximum positions a delayed byte can slip (≥ 1 when `delay > 0`).
    pub max_delay: usize,
    /// RNG seed; every impairment decision derives from it.
    pub seed: u64,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig::lossless()
    }
}

impl LossConfig {
    /// A perfect link: the channel passes bytes through untouched.
    pub fn lossless() -> Self {
        LossConfig {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: 0,
            seed: 0,
        }
    }

    /// A symmetric impairment: drop, corrupt and duplicate each with
    /// probability `p` (no reordering), seeded with `seed`.
    pub fn uniform(p: f64, seed: u64) -> Self {
        LossConfig {
            drop: p,
            corrupt: p,
            duplicate: p,
            delay: 0.0,
            max_delay: 0,
            seed,
        }
    }

    /// Replace the seed (campaigns derive a distinct per-board,
    /// per-direction seed from the campaign seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether every impairment probability is zero.
    pub fn is_lossless(&self) -> bool {
        self.drop <= 0.0 && self.corrupt <= 0.0 && self.duplicate <= 0.0 && self.delay <= 0.0
    }
}

/// Byte-level accounting for one channel instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Bytes offered to the channel.
    pub bytes_in: u64,
    /// Bytes the channel emitted (after drops and duplicates).
    pub bytes_out: u64,
    /// Bytes dropped.
    pub dropped: u64,
    /// Bytes corrupted.
    pub corrupted: u64,
    /// Bytes duplicated.
    pub duplicated: u64,
    /// Bytes delayed past their slot.
    pub delayed: u64,
}

/// One direction of a lossy serial link.
#[derive(Debug, Clone)]
pub struct LossyChannel {
    cfg: LossConfig,
    rng: StdRng,
    /// Delayed bytes keyed by `(release_index, insertion_seq)`, so bytes
    /// scheduled for the same slot come out in insertion order.
    pending: BTreeMap<(u64, u64), u8>,
    index: u64,
    insertions: u64,
    /// Running byte accounting.
    pub stats: ChannelStats,
}

impl LossyChannel {
    /// A channel applying `cfg`, with its RNG seeded from `cfg.seed`.
    pub fn new(cfg: LossConfig) -> Self {
        LossyChannel {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            pending: BTreeMap::new(),
            index: 0,
            insertions: 0,
            stats: ChannelStats::default(),
        }
    }

    /// A transparent channel (zero loss).
    pub fn perfect() -> Self {
        LossyChannel::new(LossConfig::lossless())
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &LossConfig {
        &self.cfg
    }

    /// Push `bytes` through the channel, returning what the far end sees.
    ///
    /// Chunking is irrelevant: transmitting a stream one byte at a time or
    /// all at once yields the same concatenated output (delayed bytes are
    /// released once enough later bytes have passed; call
    /// [`LossyChannel::flush`] to drain stragglers at end of stream).
    pub fn transmit(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.stats.bytes_in += bytes.len() as u64;
        if self.cfg.is_lossless() && self.pending.is_empty() {
            self.index += bytes.len() as u64;
            self.stats.bytes_out += bytes.len() as u64;
            return bytes.to_vec();
        }
        let mut out = Vec::with_capacity(bytes.len());
        for &b in bytes {
            self.release_due(&mut out);
            self.index += 1;
            if self.cfg.drop > 0.0 && self.rng.random_bool(self.cfg.drop) {
                self.stats.dropped += 1;
                continue;
            }
            let mut b = b;
            if self.cfg.corrupt > 0.0 && self.rng.random_bool(self.cfg.corrupt) {
                b ^= self.rng.random_range(1..=255u8);
                self.stats.corrupted += 1;
            }
            let copies = if self.cfg.duplicate > 0.0 && self.rng.random_bool(self.cfg.duplicate) {
                self.stats.duplicated += 1;
                2
            } else {
                1
            };
            for _ in 0..copies {
                if self.cfg.delay > 0.0 && self.rng.random_bool(self.cfg.delay) {
                    let slip = self.rng.random_range(1..=self.cfg.max_delay.max(1)) as u64;
                    self.pending.insert((self.index + slip, self.insertions), b);
                    self.insertions += 1;
                    self.stats.delayed += 1;
                } else {
                    out.push(b);
                }
            }
        }
        self.release_due(&mut out);
        self.stats.bytes_out += out.len() as u64;
        out
    }

    /// Emit every still-pending delayed byte (end of stream / link idle).
    pub fn flush(&mut self) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::with_capacity(self.pending.len());
        for (_, b) in std::mem::take(&mut self.pending) {
            out.push(b);
        }
        self.stats.bytes_out += out.len() as u64;
        out
    }

    fn release_due(&mut self, out: &mut Vec<u8>) {
        while let Some((&key @ (release, _), _)) = self.pending.iter().next() {
            if release > self.index {
                break;
            }
            out.push(self.pending.remove(&key).expect("key just observed"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Parser};

    fn frames(n: u8) -> Vec<u8> {
        let mut wire = Vec::new();
        for i in 0..n {
            wire.extend(Packet::new(i, 1, 1, 0, vec![i; 9]).unwrap().encode());
        }
        wire
    }

    #[test]
    fn lossless_channel_is_transparent() {
        let wire = frames(8);
        let mut ch = LossyChannel::perfect();
        assert_eq!(ch.transmit(&wire), wire);
        assert_eq!(ch.flush(), vec![]);
        assert_eq!(ch.stats.bytes_in, wire.len() as u64);
        assert_eq!(ch.stats.bytes_out, wire.len() as u64);
        assert_eq!(
            ch.stats.dropped + ch.stats.corrupted + ch.stats.duplicated,
            0
        );
    }

    #[test]
    fn deterministic_per_seed_and_chunking_invariant() {
        let wire = frames(20);
        let cfg = LossConfig {
            drop: 0.02,
            corrupt: 0.02,
            duplicate: 0.02,
            delay: 0.05,
            max_delay: 9,
            seed: 77,
        };
        let whole = {
            let mut ch = LossyChannel::new(cfg);
            let mut out = ch.transmit(&wire);
            out.extend(ch.flush());
            out
        };
        let byte_at_a_time = {
            let mut ch = LossyChannel::new(cfg);
            let mut out = Vec::new();
            for &b in &wire {
                out.extend(ch.transmit(&[b]));
            }
            out.extend(ch.flush());
            out
        };
        assert_eq!(whole, byte_at_a_time, "chunking must not change the stream");
        let again = {
            let mut ch = LossyChannel::new(cfg);
            let mut out = ch.transmit(&wire);
            out.extend(ch.flush());
            out
        };
        assert_eq!(whole, again, "same seed, same stream");
        let other_seed = {
            let mut ch = LossyChannel::new(cfg.with_seed(78));
            let mut out = ch.transmit(&wire);
            out.extend(ch.flush());
            out
        };
        assert_ne!(whole, other_seed, "different seed, different stream");
    }

    #[test]
    fn parser_survives_heavy_loss_and_stays_synchronized() {
        // Brutal link: ~19% of bytes impaired, so virtually every 17-byte
        // frame is touched. The parser must neither fabricate packets nor
        // lose sync permanently.
        let wire = frames(60);
        let mut ch = LossyChannel::new(LossConfig {
            drop: 0.05,
            corrupt: 0.05,
            duplicate: 0.05,
            delay: 0.05,
            max_delay: 17,
            seed: 3,
        });
        let mut lossy = ch.transmit(&wire);
        lossy.extend(ch.flush());
        let mut parser = Parser::new();
        let got = parser.push_all(&lossy);
        // Every parsed packet is one the sender framed — loss never
        // fabricates traffic (the CRC catches mangled frames).
        for p in &got {
            assert_eq!(p.payload, vec![p.seq; 9], "packet {} mangled", p.seq);
        }
        // After the lossy burst the parser still accepts clean traffic: a
        // quiet gap long enough to drain any half-open bogus frame
        // (255-byte max payload + CRC), then one clean packet.
        let clean = Packet::new(99, 1, 1, 0, vec![9; 9]).unwrap();
        let mut tail = vec![0u8; 263];
        tail.extend(clean.encode());
        let after = parser.push_all(&tail);
        assert_eq!(after, vec![clean], "parser resynchronized");
    }

    #[test]
    fn moderate_loss_lets_most_frames_through() {
        // The acceptance-point config (1% per impairment): roughly half of
        // all 17-byte frames traverse untouched.
        let wire = frames(60);
        let mut ch = LossyChannel::new(LossConfig {
            drop: 0.01,
            corrupt: 0.01,
            duplicate: 0.01,
            delay: 0.01,
            max_delay: 9,
            seed: 3,
        });
        let mut lossy = ch.transmit(&wire);
        lossy.extend(ch.flush());
        let mut parser = Parser::new();
        let got = parser.push_all(&lossy);
        assert!(
            got.len() > 15,
            "only {} of 60 frames survived 1% loss",
            got.len()
        );
        assert!(got.len() < 60, "a 1%-lossy link cannot be perfect");
    }

    #[test]
    fn corruption_is_never_identity_and_stats_add_up() {
        let wire = frames(40);
        let mut ch = LossyChannel::new(LossConfig {
            drop: 0.1,
            corrupt: 0.0,
            duplicate: 0.1,
            delay: 0.0,
            max_delay: 0,
            seed: 5,
        });
        let mut out = ch.transmit(&wire);
        out.extend(ch.flush());
        assert_eq!(
            out.len() as u64,
            ch.stats.bytes_in - ch.stats.dropped + ch.stats.duplicated
        );
        assert!(ch.stats.dropped > 0 && ch.stats.duplicated > 0);
    }
}
