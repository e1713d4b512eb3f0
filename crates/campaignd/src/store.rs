//! On-disk layout of one campaign and the crash-safe write discipline.
//!
//! A campaign directory holds:
//!
//! ```text
//! <root>/<name>/
//!   spec.json            the canonical spec (identity; written once)
//!   shard-0000.ckpt      one CRC-guarded ShardCheckpoint per shard
//!   outcomes-0000.jsonl  the shard's outcome stream, one JSON line per
//!                        board in job order, rebuilt from the checkpoint
//!                        whenever the shard resumes
//!   report.json          the merged campaign report (byte-identical to
//!                        an unsharded run), written by `merge`
//!   quarantine.jsonl     jobs the supervisor quarantined, one line each
//!                        (written by `merge`, only when there are any)
//! ```
//!
//! Every durable file lands via [`write_file_atomic`]: write to a `.tmp`
//! sibling, fsync, rename. A kill at any instant leaves either the old
//! file or the new one — never a torn checkpoint. The outcome stream is
//! the one deliberately non-atomic file: the runner appends to it as jobs
//! finish (live tailing) and syncs it before the checkpoint that claims
//! its lines, so a complete checkpoint always has a complete stream, and
//! a torn or overlong stream is simply rewritten from the checkpoint on
//! resume.
//!
//! Durable writes go through [`CampaignStore::write_durable`]: the
//! injectable [`FaultFs`] below (inert in production), wrapped in a
//! bounded retry loop with exponential backoff — the first rung of the
//! service's disk-fault degradation ladder. The second rung (skip the
//! checkpoint, keep the campaign alive) lives in the runner.

use crate::faultfs::FaultFs;
use crate::spec::{check_name, CampaignSpec};
use mavr_fleet::{ShardCheckpoint, ShardPlan};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Attempts a durable write gets before its error escapes to the caller.
pub(crate) const STORE_WRITE_ATTEMPTS: u32 = 4;

/// First retry backoff for durable writes; doubles per attempt.
const STORE_BACKOFF_BASE_MS: u64 = 1;

/// Write `bytes` to `path` atomically: temp sibling, fsync, rename. The
/// rename is atomic on POSIX filesystems, so readers (and a resuming
/// service) see the old bytes or the new bytes, never a prefix.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = tmp_sibling(path);
    let fail = |what: &str, e: std::io::Error| format!("{what} {}: {e}", tmp.display());
    let mut f = std::fs::File::create(&tmp).map_err(|e| fail("create", e))?;
    f.write_all(bytes).map_err(|e| fail("write", e))?;
    f.sync_all().map_err(|e| fail("sync", e))?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// The directory of campaign `name` under `root`, for any name
/// [`check_name`] accepts; every campaign name becomes a path here.
pub fn campaign_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    check_name(name)?;
    Ok(root.join(name))
}

/// The `.tmp` sibling a write to `path` goes through: the one name a torn
/// write can leave, which [`CampaignStore::fold_saved`] never counts.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// One campaign's directory: spec plus shard files.
#[derive(Debug, Clone)]
pub struct CampaignStore {
    /// The campaign directory (`<root>/<name>`).
    pub dir: PathBuf,
    /// The campaign's identity.
    pub spec: CampaignSpec,
    /// Fault injector every durable write funnels through. Inert unless
    /// a chaos harness attached one via [`CampaignStore::with_faults`].
    fault_fs: FaultFs,
}

impl CampaignStore {
    /// Create a campaign directory under `root` (or adopt an existing one
    /// whose persisted spec is identical — resubmitting the same spec is
    /// idempotent; resubmitting a *different* spec under the same name is
    /// refused).
    /// `shard_jobs` is clamped to at least 1 first, as
    /// [`CampaignSpec::from_json`] clamps it on every later open.
    pub fn create(root: &Path, mut spec: CampaignSpec) -> Result<Self, String> {
        spec.shard_jobs = spec.shard_jobs.max(1);
        let dir = campaign_dir(root, &spec.name)?;
        let spec_path = dir.join("spec.json");
        if spec_path.exists() {
            let existing = Self::open(&dir)?;
            if existing.spec != spec {
                return Err(format!(
                    "campaign `{}` already exists with a different spec — \
                     pick a new name instead of mutating a campaign's identity",
                    spec.name
                ));
            }
            return Ok(existing);
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        write_file_atomic(&spec_path, spec.to_json().as_bytes())?;
        Ok(CampaignStore {
            dir,
            spec,
            fault_fs: FaultFs::none(),
        })
    }

    /// Open an existing campaign directory (one containing `spec.json`).
    pub fn open(dir: &Path) -> Result<Self, String> {
        let spec_path = dir.join("spec.json");
        let text = std::fs::read_to_string(&spec_path)
            .map_err(|e| format!("read {}: {e}", spec_path.display()))?;
        Ok(CampaignStore {
            dir: dir.to_path_buf(),
            spec: CampaignSpec::from_json(&text)?,
            fault_fs: FaultFs::none(),
        })
    }

    /// Route this store's durable writes through a fault injector (chaos
    /// harnesses only; the default store never faults).
    #[must_use]
    pub fn with_faults(mut self, fault_fs: FaultFs) -> Self {
        self.fault_fs = fault_fs;
        self
    }

    /// Write `bytes` durably to `path`: atomic replace via the fault
    /// injector, retried with exponential backoff. A disk that faults
    /// transiently costs milliseconds; one that faults persistently
    /// surfaces a typed error the caller can degrade on.
    pub fn write_durable(&self, path: &Path, bytes: &[u8]) -> Result<(), String> {
        let mut last = String::new();
        for attempt in 0..STORE_WRITE_ATTEMPTS {
            match self.fault_fs.write_atomic(path, bytes) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
            if attempt + 1 < STORE_WRITE_ATTEMPTS {
                std::thread::sleep(Duration::from_millis(STORE_BACKOFF_BASE_MS << attempt));
            }
        }
        Err(format!(
            "durable write failed after {STORE_WRITE_ATTEMPTS} attempts: {last}"
        ))
    }

    /// Every campaign directory under `root`, sorted by name.
    pub fn list(root: &Path) -> Result<Vec<CampaignStore>, String> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(_) => return Ok(out), // no root yet = no campaigns
        };
        for entry in entries.flatten() {
            let dir = entry.path();
            if dir.join("spec.json").is_file() {
                out.push(Self::open(&dir)?);
            }
        }
        out.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
        Ok(out)
    }

    /// The campaign's shard plan.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan {
            total_jobs: self.spec.total_jobs(),
            shard_jobs: self.spec.shard_jobs,
        }
    }

    /// Path of shard `index`'s checkpoint.
    pub fn shard_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("shard-{index:04}.ckpt"))
    }

    /// Path of shard `index`'s outcome stream.
    pub fn outcomes_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("outcomes-{index:04}.jsonl"))
    }

    /// Path of the merged report.
    pub fn report_path(&self) -> PathBuf {
        self.dir.join("report.json")
    }

    /// Path of the quarantine ledger: one JSON line per job the
    /// supervisor quarantined, written by `merge` (absent when none).
    pub fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.jsonl")
    }

    /// Load shard `index` from disk, or a fresh empty checkpoint if it has
    /// never been flushed. A checkpoint that is not this campaign's shard
    /// `index` (another campaign's, another shard's, or one whose outcomes
    /// are not a prefix of its range) is refused with an error naming its
    /// file, so it is never counted or flown again.
    pub fn load_shard(
        &self,
        cfg: &mavr_fleet::CampaignConfig,
        index: u64,
    ) -> Result<ShardCheckpoint, String> {
        let path = self.shard_path(index);
        let Ok(blob) = std::fs::read(&path) else {
            return Ok(ShardCheckpoint::new(cfg, &self.plan(), index));
        };
        let shard = ShardCheckpoint::from_bytes(&blob)
            .map_err(|e| format!("corrupt shard checkpoint {}: {e}", path.display()))?;
        shard
            .check(cfg)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (held, range) = (shard.job_lo..shard.job_hi, self.plan().range(index));
        if (shard.shard_index, &held) != (index, &range) {
            let (path, held_index) = (path.display(), shard.shard_index);
            return Err(format!(
                "{path} holds shard {held_index} (jobs {held:?}), not shard {index} (jobs {range:?})"
            ));
        }
        Ok(shard)
    }

    /// Persist a shard checkpoint durably (atomic replace, bounded
    /// retries through the fault injector).
    pub fn save_shard(&self, ckpt: &ShardCheckpoint) -> Result<(), String> {
        self.write_durable(&self.shard_path(ckpt.shard_index), &ckpt.to_bytes())
    }

    /// Hand `visit` the checkpoint of every shard of the plan from `from`
    /// on that has one, in index order, from one listing of the directory:
    /// a shard with no file has no outcomes, so progress costs the saved
    /// checkpoints, never the plan. Only the paths
    /// [`CampaignStore::shard_path`] gives count (a torn `.tmp`, a
    /// `shard-1.ckpt` or a shard past the plan is no checkpoint), and each
    /// is read as [`CampaignStore::load_shard`] reads it.
    pub(crate) fn fold_saved(
        &self,
        cfg: &mavr_fleet::CampaignConfig,
        from: u64,
        mut visit: impl FnMut(ShardCheckpoint),
    ) -> Result<(), String> {
        let shards = from..self.plan().shard_count();
        let mut saved: Vec<u64> = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("list {}: {e}", self.dir.display()))?
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                let index = name
                    .strip_prefix("shard-")?
                    .strip_suffix(".ckpt")?
                    .parse()
                    .ok()?;
                (shards.contains(&index) && entry.path() == self.shard_path(index)).then_some(index)
            })
            .collect();
        saved.sort_unstable();
        for index in saved {
            visit(self.load_shard(cfg, index)?);
        }
        Ok(())
    }

    /// Summarize progress from the saved checkpoints, each loaded, counted
    /// and dropped.
    pub fn status(&self) -> Result<CampaignStatus, String> {
        let cfg = self.spec.to_config()?;
        let plan = self.plan();
        let mut status = CampaignStatus {
            name: self.spec.name.clone(),
            total_jobs: plan.total_jobs,
            done_jobs: 0,
            shards_total: plan.shard_count(),
            shards_complete: 0,
            jobs_quarantined: 0,
            report_written: self.report_path().is_file(),
        };
        self.fold_saved(&cfg, 0, |shard| {
            status.done_jobs += shard.outcomes.len() as u64;
            status.jobs_quarantined += shard
                .outcomes
                .values()
                .filter(|o| o.failure.is_some())
                .count() as u64;
            if shard.jobs() > 0 && shard.complete() {
                status.shards_complete += 1;
            }
        })?;
        Ok(status)
    }
}

/// The status of campaign `name` under `root`, or of every campaign there
/// in name order: what the `status` op and `mavr-cli status --dir` report.
pub fn campaign_statuses(root: &Path, name: Option<&str>) -> Result<Vec<CampaignStatus>, String> {
    let stores = match name {
        Some(name) => vec![CampaignStore::open(&campaign_dir(root, name)?)?],
        None => CampaignStore::list(root)?,
    };
    stores.iter().map(CampaignStore::status).collect()
}

/// Progress summary of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Campaign name.
    pub name: String,
    /// Jobs in the matrix.
    pub total_jobs: u64,
    /// Jobs with a checkpointed outcome.
    pub done_jobs: u64,
    /// Shards in the plan.
    pub shards_total: u64,
    /// Shards fully complete.
    pub shards_complete: u64,
    /// Checkpointed jobs the supervisor quarantined (explicit, so a
    /// degraded campaign can never pass for a clean one).
    pub jobs_quarantined: u64,
    /// Whether `report.json` exists.
    pub report_written: bool,
}

impl CampaignStatus {
    /// Whether every job is done.
    pub fn complete(&self) -> bool {
        self.done_jobs == self.total_jobs
    }

    /// One status line of JSON.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("done_jobs".into(), Json::num(self.done_jobs)),
            ("total_jobs".into(), Json::num(self.total_jobs)),
            ("shards_complete".into(), Json::num(self.shards_complete)),
            ("shards_total".into(), Json::num(self.shards_total)),
            ("jobs_quarantined".into(), Json::num(self.jobs_quarantined)),
            ("complete".into(), Json::Bool(self.complete())),
            ("report_written".into(), Json::Bool(self.report_written)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mavr-campaignd-tests")
            .join(format!("store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let root = tmp_root("atomic");
        let path = root.join("report.json");
        write_file_atomic(&path, b"old bytes").unwrap();
        write_file_atomic(&path, b"new bytes entirely").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes entirely");
        // No .tmp residue.
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 1);
    }

    #[test]
    fn create_is_idempotent_but_refuses_identity_changes() {
        let root = tmp_root("create");
        let mut spec = CampaignSpec::named("alpha");
        spec.boards = 2;
        let store = CampaignStore::create(&root, spec.clone()).unwrap();
        assert_eq!(store.spec, spec);
        // Same spec again: fine.
        CampaignStore::create(&root, spec.clone()).unwrap();
        // Same name, different seed: refused.
        let mut other = spec.clone();
        other.seed ^= 1;
        assert!(CampaignStore::create(&root, other).is_err());
        // Reopen from disk sees the identical spec.
        assert_eq!(CampaignStore::open(&store.dir).unwrap().spec, spec);
        assert_eq!(CampaignStore::list(&root).unwrap().len(), 1);
    }

    #[test]
    fn create_persists_at_least_one_job_per_shard() {
        let root = tmp_root("zero-shard-jobs");
        let mut spec = CampaignSpec::named("zero");
        spec.boards = 2;
        spec.scenarios = vec![mavr_fleet::Scenario::Benign];
        spec.warmup_cycles = 20_000;
        spec.attack_cycles = 40_000;
        spec.shard_jobs = 0;
        let store = CampaignStore::create(&root, spec.clone()).unwrap();
        assert_eq!(store.spec.shard_jobs, 1);
        assert_eq!(store.status().unwrap().shards_total, 2);
        let session = crate::CampaignSession::new(
            store,
            telemetry::Telemetry::off(),
            std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
        )
        .unwrap();
        assert_eq!(session.run(Some(1), None).unwrap().jobs_run, 1);
        // The same spec again is the same campaign, not a different one.
        CampaignStore::create(&root, spec).unwrap();
    }
}
