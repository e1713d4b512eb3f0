//! Seeded disk-fault injection for the campaign store.
//!
//! The same discipline the board crate applies to the master's reflash
//! pipeline (`chaos.rs`: seeded draws, uniform rates, an inert plan at
//! rate 0) aimed at the service's own I/O: every store write first asks
//! the [`FaultFs`] whether this operation fails, and a scheduled fault
//! surfaces as the error a real disk would return — EIO, ENOSPC, or a
//! short write that leaves a torn `.tmp` sibling behind. Because draws
//! are keyed by `(seed, op counter)`, a given schedule is reproducible:
//! the ENOSPC soak in CI fails the *same* writes every run.
//!
//! The injector sits below the store's bounded retry loop
//! ([`crate::store::CampaignStore`]), so soaking it proves the whole
//! degradation ladder: retry with backoff, then skip the checkpoint and
//! keep the campaign alive, never abort or corrupt.

use mavr_fleet::{derive_seed, unit_f64};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a scheduled fault does to the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FsFault {
    /// The write fails outright (I/O error).
    Eio,
    /// The filesystem reports no space.
    Enospc,
    /// Half the bytes land in the temp sibling, then the write fails —
    /// the torn `.tmp` must never be mistaken for the real file.
    ShortWrite,
}

/// Injectable I/O layer for [`crate::store::CampaignStore`] writes. The
/// inert injector (`rate == 0`) performs no draws and delegates straight
/// to [`crate::store::write_file_atomic`]. Cloning shares the op counter,
/// so every handle of one store draws from one schedule.
#[derive(Debug, Clone)]
pub struct FaultFs {
    rate: f64,
    seed: u64,
    ops: Arc<AtomicU64>,
}

impl FaultFs {
    /// The pass-through injector: never faults, draws nothing.
    pub fn none() -> Self {
        FaultFs::seeded(0, 0.0)
    }

    /// An injector that fails roughly `rate` of all write operations on a
    /// schedule derived from `seed`.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        FaultFs {
            rate: rate.clamp(0.0, 1.0),
            seed,
            ops: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Whether this injector can ever fault.
    pub fn is_none(&self) -> bool {
        self.rate == 0.0
    }

    fn draw(&self) -> Option<FsFault> {
        if self.rate <= 0.0 {
            return None;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let x = derive_seed(self.seed, op);
        if unit_f64(x) >= self.rate {
            return None;
        }
        Some(match x % 3 {
            0 => FsFault::Eio,
            1 => FsFault::Enospc,
            _ => FsFault::ShortWrite,
        })
    }

    /// Atomically write `bytes` to `path` — unless a fault is scheduled
    /// for this operation, in which case the error a real failing disk
    /// would produce is returned (and a short write leaves the torn
    /// `.tmp` sibling a crash would leave).
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), String> {
        match self.draw() {
            None => crate::store::write_file_atomic(path, bytes),
            Some(FsFault::Eio) => Err(format!("injected EIO writing {} (FaultFs)", path.display())),
            Some(FsFault::Enospc) => Err(format!(
                "injected ENOSPC writing {} (FaultFs)",
                path.display()
            )),
            Some(FsFault::ShortWrite) => {
                let torn = crate::store::tmp_sibling(path);
                let _ = std::fs::write(&torn, &bytes[..bytes.len() / 2]);
                Err(format!(
                    "injected short write to {} (FaultFs)",
                    torn.display()
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_injector_never_faults_and_never_draws() {
        let fs = FaultFs::none();
        assert!(fs.is_none());
        for _ in 0..1000 {
            assert_eq!(fs.draw(), None);
        }
        assert_eq!(fs.ops.load(Ordering::Relaxed), 0, "rate 0 burns no ops");
    }

    #[test]
    fn schedule_is_seed_deterministic_and_rate_proportional() {
        let a = FaultFs::seeded(42, 0.3);
        let b = FaultFs::seeded(42, 0.3);
        let draws_a: Vec<_> = (0..500).map(|_| a.draw()).collect();
        let draws_b: Vec<_> = (0..500).map(|_| b.draw()).collect();
        assert_eq!(draws_a, draws_b, "same seed, same schedule");
        let faults = draws_a.iter().filter(|d| d.is_some()).count();
        assert!(
            (80..220).contains(&faults),
            "~30% of 500 ops should fault, got {faults}"
        );
        let kinds: std::collections::BTreeSet<_> = draws_a.iter().flatten().copied().collect();
        assert_eq!(kinds.len(), 3, "all three fault kinds appear");
    }

    #[test]
    fn short_write_leaves_only_a_torn_tmp() {
        let dir = std::env::temp_dir()
            .join("mavr-campaignd-tests")
            .join(format!("faultfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // rate 1.0: every op faults; find a short-write op.
        let fs = FaultFs::seeded(7, 1.0);
        let target = dir.join("shard-0000.ckpt");
        let mut saw_short = false;
        for _ in 0..32 {
            if let Err(e) = fs.write_atomic(&target, b"0123456789abcdef") {
                if e.contains("short write") {
                    saw_short = true;
                    break;
                }
            }
        }
        assert!(saw_short);
        assert!(!target.exists(), "the real file never appears");
        let torn = dir.join("shard-0000.ckpt.tmp");
        assert_eq!(std::fs::read(&torn).unwrap().len(), 8, "half the bytes");
    }
}
