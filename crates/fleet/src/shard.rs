//! Sharded campaigns: split the job space into contiguous, independently
//! checkpointed segments, run them in any order (or on any machine), and
//! merge the shards back into the byte-identical [`CampaignReport`] an
//! unsharded run would have produced.
//!
//! Why this is sound: the campaign is a pure function of its config, each
//! job is independent, and every aggregate the report carries — cell
//! matrix, fleet totals, metrics registry, latency sketches — is one fold
//! over the outcome list in job order ([`CampaignAggregate::fold_shard`]).
//! A partition of `[0, total)` into contiguous ranges concatenates back
//! into exactly that list, so merge determinism is inherited, not
//! engineered. The proptests in `tests/shard_props.rs` enforce it for
//! arbitrary partitions and mid-shard resumes.
//!
//! Memory model: running one shard holds O(shard jobs + cells); merging
//! streams shard-by-shard and holds O(largest shard + cells). Neither
//! ever holds the whole campaign, which is what lets a million-board
//! campaign run in the same RAM as an 8-board one.

use crate::checkpoint::{get_outcome, put_outcome};
use crate::report::BoardOutcome;
use crate::{
    config_fingerprint, summarize, CampaignAggregate, CampaignConfig, CampaignReport,
    PreparedCampaign, ProgressMeter,
};
use mavr_snapshot::{Kind, Reader, SnapshotError, Writer};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use telemetry::metrics::MetricsRegistry;
use telemetry::{kinds, Value};

/// How a campaign's job space is cut into shards: contiguous ranges of at
/// most `shard_jobs` jobs, in job order. The plan is *not* part of the
/// config fingerprint — re-sharding a campaign never changes its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total jobs in the campaign matrix.
    pub total_jobs: u64,
    /// Jobs per shard (the last shard may be shorter).
    pub shard_jobs: u64,
}

impl ShardPlan {
    /// The plan for `cfg` with `shard_jobs` jobs per shard (clamped to at
    /// least 1).
    pub fn new(cfg: &CampaignConfig, shard_jobs: u64) -> Self {
        ShardPlan {
            total_jobs: cfg.total_jobs() as u64,
            shard_jobs: shard_jobs.max(1),
        }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> u64 {
        self.total_jobs.div_ceil(self.shard_jobs)
    }

    /// The job range `[lo, hi)` of shard `index`.
    pub fn range(&self, index: u64) -> std::ops::Range<u64> {
        let lo = (index * self.shard_jobs).min(self.total_jobs);
        let hi = ((index + 1) * self.shard_jobs).min(self.total_jobs);
        lo..hi
    }
}

/// Persistent progress of one shard: its identity (campaign fingerprint,
/// position in its plan, job range) and the outcomes of the range's
/// completed jobs. The fleet engine's only unit of work and only
/// checkpoint: an unsharded campaign is one shard over the whole job space
/// ([`ShardCheckpoint::whole_campaign`]). Serialized as
/// [`Kind::ShardCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// [`config_fingerprint`] of the campaign this shard belongs to.
    pub fingerprint: u64,
    /// Position of this shard in its plan.
    pub shard_index: u64,
    /// First job index of the shard's range.
    pub job_lo: u64,
    /// One past the last job index of the shard's range.
    pub job_hi: u64,
    /// Completed jobs, always the range's prefix `job_lo..next_job()`:
    /// job index → outcome.
    pub outcomes: BTreeMap<u64, BoardOutcome>,
}

impl ShardCheckpoint {
    /// An empty shard checkpoint for shard `index` of `plan`.
    pub fn new(cfg: &CampaignConfig, plan: &ShardPlan, index: u64) -> Self {
        let range = plan.range(index);
        ShardCheckpoint {
            fingerprint: config_fingerprint(cfg),
            shard_index: index,
            job_lo: range.start,
            job_hi: range.end,
            outcomes: BTreeMap::new(),
        }
    }

    /// The one shard covering `cfg`'s whole job space `[0, total_jobs)`:
    /// what [`crate::run_campaign`] runs in memory and `fleet --checkpoint`
    /// persists.
    pub fn whole_campaign(cfg: &CampaignConfig) -> Self {
        ShardCheckpoint::new(cfg, &ShardPlan::new(cfg, cfg.total_jobs() as u64), 0)
    }

    /// Refuse a shard that does not belong to `cfg` (another campaign's
    /// fingerprint, or a range past the end of `cfg`'s job space), or whose
    /// outcomes are not a prefix of its range.
    pub fn check(&self, cfg: &CampaignConfig) -> Result<(), String> {
        if self.fingerprint != config_fingerprint(cfg) {
            return Err(format!(
                "shard fingerprint {:#018x} does not match this campaign ({:#018x}) — \
                 refusing to mix results from different configurations",
                self.fingerprint,
                config_fingerprint(cfg)
            ));
        }
        if self.job_hi > cfg.total_jobs() as u64 {
            return Err(format!(
                "shard range {}..{} exceeds the campaign's {} jobs",
                self.job_lo,
                self.job_hi,
                cfg.total_jobs()
            ));
        }
        self.check_prefix()
    }

    /// Refuse outcomes that are not exactly the range's prefix
    /// `job_lo..next_job()`: distinct sorted keys that start at `job_lo`
    /// and end `len - 1` later, below `job_hi`. O(1).
    fn check_prefix(&self) -> Result<(), String> {
        let n = self.outcomes.len() as u64;
        if let Some(((&first, _), (&last, _))) = self
            .outcomes
            .first_key_value()
            .zip(self.outcomes.last_key_value())
        {
            if first != self.job_lo || last - first != n - 1 || last >= self.job_hi {
                return Err(format!(
                    "shard {} holds {n} outcomes for jobs {first}..={last}, not a prefix \
                     of its range {}..{}",
                    self.shard_index, self.job_lo, self.job_hi
                ));
            }
        }
        Ok(())
    }

    /// Jobs in the shard's range.
    pub fn jobs(&self) -> u64 {
        self.job_hi - self.job_lo
    }

    /// Whether every job in the range has an outcome.
    pub fn complete(&self) -> bool {
        self.outcomes.len() as u64 == self.jobs()
    }

    /// The first job of the range without an outcome: the outcomes are
    /// always the prefix `job_lo..next_job()`, so a run resumes here.
    pub fn next_job(&self) -> u64 {
        self.job_lo + self.outcomes.len() as u64
    }

    /// Record the outcome of the shard's next job. Panics on any other
    /// index — a duplicate, a gap or a job past the range is a caller bug
    /// that would corrupt the merge.
    pub fn insert_outcome(&mut self, job: u64, outcome: BoardOutcome) {
        assert!(
            job == self.next_job() && job < self.job_hi,
            "job {job} is not the next job ({}) of shard range {}..{}",
            self.next_job(),
            self.job_lo,
            self.job_hi
        );
        self.outcomes.insert(job, outcome);
    }

    /// Serialize as a CRC-guarded snapshot blob ([`Kind::ShardCheckpoint`]):
    /// the header, then the outcomes in job order without their indices
    /// (the `i`-th is job `job_lo + i`). Panics, as `insert_outcome` does,
    /// on outcomes that are not a prefix: a gap would be relabelled.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.check_prefix().unwrap_or_else(|e| panic!("{e}"));
        let mut w = Writer::new();
        w.put_u64(self.fingerprint);
        w.put_u64(self.shard_index);
        w.put_u64(self.job_lo);
        w.put_u64(self.job_hi);
        w.put_u64(self.outcomes.len() as u64);
        for outcome in self.outcomes.values() {
            put_outcome(&mut w, outcome);
        }
        w.finish(Kind::ShardCheckpoint)
    }

    /// Deserialize a blob written by [`ShardCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::open_expecting(bytes, Kind::ShardCheckpoint)?;
        let fingerprint = r.u64()?;
        let shard_index = r.u64()?;
        let job_lo = r.u64()?;
        let job_hi = r.u64()?;
        if job_hi < job_lo {
            return Err(SnapshotError::Malformed(format!(
                "shard range {job_lo}..{job_hi}"
            )));
        }
        let n = r.u64()?;
        if n > job_hi - job_lo {
            return Err(SnapshotError::Malformed(format!(
                "{n} outcomes in a {}-job shard",
                job_hi - job_lo
            )));
        }
        // The outcomes are the range's prefix, in job order.
        let mut outcomes = BTreeMap::new();
        for job in job_lo..job_lo + n {
            outcomes.insert(job, get_outcome(&mut r)?);
        }
        r.done()?;
        Ok(ShardCheckpoint {
            fingerprint,
            shard_index,
            job_lo,
            job_hi,
            outcomes,
        })
    }
}

/// Run (or resume) one shard: fly the jobs of `ckpt`'s range from its
/// first missing job ([`ShardCheckpoint::next_job`]) on — at most
/// `budget_jobs` of them — folding each outcome into the checkpoint as its
/// prefix completes and handing it to `on_outcome` in job order.
/// `progress_done_offset` seeds the heartbeat counter with the jobs
/// completed before this call, campaign-wide, so a service's progress
/// stream counts monotonically across shards and restarts. Resuming a
/// shard that already holds outcomes emits one
/// `campaign.checkpoint_resumed` event.
///
/// When `cfg.interrupt` trips, workers stop claiming jobs but finish the
/// ones they hold, so the checkpoint still holds a prefix of its range —
/// a valid checkpoint to persist and resume.
///
/// Jobs are constructed lazily from their indices — a shard run allocates
/// O(shard jobs), never O(campaign jobs).
///
/// Returns the number of jobs that ran; [`ShardCheckpoint::complete`] and
/// [`CampaignConfig::interrupted`] tell whether the run finished or stopped.
pub fn run_shard_resume(
    cfg: &CampaignConfig,
    prepared: &PreparedCampaign,
    ckpt: &mut ShardCheckpoint,
    budget_jobs: Option<usize>,
    progress_done_offset: usize,
    mut on_outcome: impl FnMut(u64, &BoardOutcome),
) -> Result<usize, String> {
    cfg.validate()?;
    ckpt.check(cfg)?;
    let start = ckpt.next_job();
    let pending = ckpt.job_hi - start;
    if !ckpt.outcomes.is_empty() {
        cfg.telemetry.emit(kinds::CHECKPOINT_RESUMED, None, || {
            vec![
                ("jobs_done", Value::U64(ckpt.outcomes.len() as u64)),
                ("jobs_pending", Value::U64(pending)),
            ]
        });
    }
    let end = start + budget_jobs.map_or(pending, |b| pending.min(b as u64));
    let meter = ProgressMeter::new(cfg, progress_done_offset, cfg.total_jobs());
    let ran = crate::execute_jobs_streaming(cfg, prepared, start..end, &meter, |job, outcome| {
        on_outcome(job, &outcome);
        ckpt.insert_outcome(job, outcome);
    });
    Ok(ran)
}

/// [`run_shard_resume`], writing the shard's outcome stream (one JSON line
/// per outcome, in job order) to `stream` when one is given. The stream is
/// rebuilt from the checkpoint, never repaired: once the shard passes its
/// check, the file is truncated, refilled with the checkpoint's lines and
/// appended to as jobs finish, then flushed and synced before this
/// returns, so the checkpoint the caller saves next never claims a line
/// that is not on disk. Returns the number of jobs that ran.
pub fn run_shard_streamed(
    cfg: &CampaignConfig,
    prepared: &PreparedCampaign,
    ckpt: &mut ShardCheckpoint,
    budget_jobs: Option<usize>,
    progress_done_offset: usize,
    stream: Option<&Path>,
) -> Result<usize, String> {
    let Some(path) = stream else {
        return run_shard_resume(
            cfg,
            prepared,
            ckpt,
            budget_jobs,
            progress_done_offset,
            |_, _| {},
        );
    };
    // A foreign or gapped shard is refused before the file is touched.
    ckpt.check(cfg)?;
    let fail = |e: std::io::Error| format!("stream {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(fail)?);
    for outcome in ckpt.outcomes.values() {
        writeln!(out, "{}", outcome.to_json_line()).map_err(fail)?;
    }
    let mut written = Ok(());
    let ran = run_shard_resume(
        cfg,
        prepared,
        ckpt,
        budget_jobs,
        progress_done_offset,
        |_, o| {
            if written.is_ok() {
                written = writeln!(out, "{}", o.to_json_line());
            }
        },
    )?;
    written.map_err(fail)?;
    out.flush().map_err(fail)?;
    out.get_ref().sync_data().map_err(fail)?;
    Ok(ran)
}

/// Fold complete shards back into the campaign's report and metrics —
/// byte-identical (`to_json`, `to_prometheus`, `to_jsonl`) however the job
/// space was cut, and at any thread count.
///
/// Accepts the shards in any order, from any contiguous partition of the
/// job space (they need not share a [`ShardPlan`]): sorted by `job_lo`,
/// each goes through [`CampaignAggregate::fold_shard`], which refuses a
/// foreign, incomplete or misplaced shard, and [`CampaignAggregate::finish`]
/// refuses a partition that stops short of `total_jobs`.
pub fn merge_shard_checkpoints(
    cfg: &CampaignConfig,
    mut shards: Vec<ShardCheckpoint>,
) -> Result<(CampaignReport, MetricsRegistry), String> {
    shards.sort_by_key(|s| s.job_lo);
    let mut agg = CampaignAggregate::new(cfg);
    for s in &shards {
        agg.fold_shard(s)?;
    }
    let (cells, fleet, metrics) = agg.finish()?;
    // Shards are contiguous and sorted, so per-shard job order concatenates
    // into the campaign's job order.
    let outcomes = shards
        .into_iter()
        .flat_map(|s| s.outcomes.into_values())
        .collect();
    let report = CampaignReport {
        config: summarize(cfg),
        cells,
        fleet,
        outcomes,
    };
    Ok((report, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            boards: 3,
            scenarios: vec![crate::Scenario::Benign, crate::Scenario::V2Stealthy],
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn plan_partitions_the_job_space() {
        let plan = ShardPlan::new(&cfg(), 4); // 6 jobs, shards of 4
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..6);
        assert_eq!(plan.range(2), 6..6, "past-the-end shards are empty");
        // Degenerate request still makes progress.
        assert_eq!(ShardPlan::new(&cfg(), 0).shard_jobs, 1);
    }

    #[test]
    fn shard_checkpoint_round_trips_and_rejects_corruption() {
        let cfg = cfg();
        let plan = ShardPlan::new(&cfg, 4);
        let mut s = ShardCheckpoint::new(&cfg, &plan, 1);
        assert_eq!((s.job_lo, s.job_hi), (4, 6));
        s.insert_outcome(4, crate::checkpoint::tests::sample_outcome(4));
        let blob = s.to_bytes();
        assert_eq!(ShardCheckpoint::from_bytes(&blob).unwrap(), s);
        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 1;
        assert!(matches!(
            ShardCheckpoint::from_bytes(&bad),
            Err(SnapshotError::CrcMismatch { .. })
        ));
        // Files of the retired whole-campaign checkpoint kind (tag 4) and
        // of the shard layout that stored every outcome's index (tag 6)
        // are refused at the header.
        for tag in [4, 6] {
            let mut stale = blob.clone();
            stale[10] = tag;
            assert_eq!(
                ShardCheckpoint::from_bytes(&stale),
                Err(SnapshotError::BadKind(tag))
            );
        }
    }

    /// Pins the shard wire, as `machine_wire_is_pinned` pins the machine
    /// wire: round trips alone would pass an encoder and decoder that
    /// moved fields together. A blob is 23 bytes of framing, a 40-byte
    /// header and 276 bytes per outcome; changing the layout takes a new
    /// kind tag. The fingerprint is fixed, so only the layout is pinned.
    /// The CRC is taken without the blob's trailer: over a frame that ends
    /// in its own CRC, it would depend on the length alone.
    #[test]
    fn shard_wire_is_pinned() {
        let cfg = cfg();
        let plan = ShardPlan::new(&cfg, 2);
        let mut s = ShardCheckpoint::new(&cfg, &plan, 2);
        s.fingerprint = 0x0123_4567_89ab_cdef;
        assert_eq!(s.to_bytes().len(), 63);
        for job in 4..6 {
            s.insert_outcome(job, crate::checkpoint::tests::sample_outcome(job as usize));
            assert_eq!(s.to_bytes().len(), 63 + 276 * s.outcomes.len());
        }
        let blob = s.to_bytes();
        let body = &blob[..blob.len() - 4];
        assert_eq!((blob.len(), mavr_snapshot::crc32(body)), (615, 0xd434_2204));
        assert_eq!(ShardCheckpoint::from_bytes(&blob).unwrap(), s);
    }

    #[test]
    #[should_panic(expected = "is not the next job (5)")]
    fn insert_outcome_takes_only_the_next_job() {
        let cfg = cfg();
        let mut s = ShardCheckpoint::new(&cfg, &ShardPlan::new(&cfg, 4), 1);
        s.insert_outcome(4, crate::checkpoint::tests::sample_outcome(4));
        s.insert_outcome(6, crate::checkpoint::tests::sample_outcome(6));
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_foreign_shards() {
        let cfg = cfg();
        let plan = ShardPlan::new(&cfg, 3); // 6 jobs → 2 shards of 3

        // Each job's outcome sits on its own cell of the matrix.
        let on_matrix = |j: u64| {
            let job = crate::job_at(&cfg, j as usize);
            BoardOutcome {
                scenario: job.scenario,
                loss: job.loss,
                fault: job.fault,
                ..crate::checkpoint::tests::sample_outcome(j as usize)
            }
        };
        let fill = |s: &mut ShardCheckpoint| {
            for j in s.job_lo..s.job_hi {
                s.insert_outcome(j, on_matrix(j));
            }
        };
        let mut a = ShardCheckpoint::new(&cfg, &plan, 0);
        let mut b = ShardCheckpoint::new(&cfg, &plan, 1);
        fill(&mut a);
        // Incomplete shard refused.
        assert!(merge_shard_checkpoints(&cfg, vec![a.clone(), b.clone()])
            .unwrap_err()
            .contains("incomplete"));
        fill(&mut b);
        // Missing shard refused.
        assert!(
            merge_shard_checkpoints(&cfg, vec![a.clone()])
                .unwrap_err()
                .contains("partition")
                || merge_shard_checkpoints(&cfg, vec![a.clone()])
                    .unwrap_err()
                    .contains("missing")
        );
        // Duplicate shard refused (overlap).
        assert!(merge_shard_checkpoints(&cfg, vec![a.clone(), a.clone(), b.clone()]).is_err());
        // The on-matrix fixture merges, every job counted in a cell.
        let (report, _) = merge_shard_checkpoints(&cfg, vec![b.clone(), a.clone()]).unwrap();
        assert_eq!(report.cells.iter().map(|c| c.boards).sum::<usize>(), 6);
        assert_eq!(report.fleet.links, 6);
        // An outcome off its job's cell is refused: it would count in the
        // fleet totals but in no cell.
        let mut stray = b.clone();
        stray
            .outcomes
            .insert(4, crate::checkpoint::tests::sample_outcome(4));
        assert!(merge_shard_checkpoints(&cfg, vec![a.clone(), stray])
            .unwrap_err()
            .contains("campaign matrix"));
        // Foreign fingerprint refused.
        let other = CampaignConfig {
            seed: 0x9999,
            ..cfg.clone()
        };
        assert!(merge_shard_checkpoints(&other, vec![a, b])
            .unwrap_err()
            .contains("different campaign"));
    }
}
