//! The shard execution loop and the streaming merge.
//!
//! The runner is what makes a million-board campaign cost the same RAM as
//! an 8-board one: it holds exactly one shard's outcomes at a time
//! (plus the fixed-size cell matrix), streams each board's result to the
//! shard's one JSONL file the moment its prefix completes (rebuilt from
//! the shard's checkpoint whenever the shard resumes, never repaired),
//! and folds shards through the fleet's one merge law
//! (`CampaignAggregate::fold_shard`) instead of accumulating outcome
//! vectors. A slice's time goes to the shards it runs and the checkpoints
//! on disk, never to the length of the plan: it walks the plan only up to
//! where it stops and counts the rest from the saved checkpoints. The merge step is two O(largest-shard) passes that write the
//! report **byte-identical** to an unsharded `run_campaign().to_json()` —
//! the laws behind that identity are proptested in
//! `mavr-fleet/tests/shard_props.rs`.

use crate::store::CampaignStore;
use mavr_fleet::{
    json_prelude, run_shard_streamed, summarize, CampaignAggregate, CampaignConfig,
    PreparedCampaign, JSON_EPILOGUE,
};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::metrics::MetricsRegistry;
use telemetry::{kinds, Telemetry, Value};

/// One campaign, ready to run: its store, the engine config (with the
/// service's telemetry and interrupt flag wired in), and the prepared
/// firmware. Building the firmware is the expensive part, so one session
/// runs a whole slice; the service opens one from the campaign's
/// directory for each slice, and its executor runs each campaign in one.
pub struct CampaignSession {
    /// The campaign's directory and spec.
    pub store: CampaignStore,
    /// Engine config derived from the spec.
    pub cfg: CampaignConfig,
    prepared: PreparedCampaign,
    /// Checkpoint flushes abandoned after the store's bounded retries —
    /// the `campaignd_checkpoint_skipped` metric, cumulative per session.
    checkpoints_skipped: AtomicU64,
}

/// What one work slice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Jobs executed in this slice.
    pub jobs_run: usize,
    /// Jobs checkpointed campaign-wide (including previous slices).
    pub done_jobs: u64,
    /// Jobs in the matrix.
    pub total_jobs: u64,
    /// Whether the whole campaign is now complete.
    pub complete: bool,
    /// Whether the slice stopped on the interrupt flag.
    pub interrupted: bool,
    /// Checkpoint flushes this slice abandoned (disk faults that survived
    /// every retry). Nonzero means some executed work is not yet durable
    /// and will re-run — degraded, never lost or corrupted.
    pub checkpoints_skipped: u64,
}

impl CampaignSession {
    /// Build a session: derive the engine config, wire in telemetry and
    /// the shared interrupt flag, link the firmware once.
    pub fn new(
        store: CampaignStore,
        telemetry: Telemetry,
        interrupt: Arc<AtomicBool>,
    ) -> Result<Self, String> {
        let mut cfg = store.spec.to_config()?;
        cfg.telemetry = telemetry;
        cfg.interrupt = interrupt;
        let prepared = PreparedCampaign::new(&cfg);
        Ok(CampaignSession {
            store,
            cfg,
            prepared,
            checkpoints_skipped: AtomicU64::new(0),
        })
    }

    /// Checkpoint flushes this session has abandoned to disk faults,
    /// across all slices.
    pub fn checkpoints_skipped(&self) -> u64 {
        self.checkpoints_skipped.load(Ordering::Relaxed)
    }

    /// Run a work slice: up to `budget_jobs` jobs across up to
    /// `max_shards` shards, in shard order, resuming wherever the last
    /// slice (or process) stopped. Each shard's slice rewrites its
    /// `outcomes-NNNN.jsonl` stream from the checkpoint, appends each new
    /// outcome as it completes, syncs the stream and then flushes the
    /// checkpoint atomically, so a kill between slices loses nothing and a
    /// kill *during* a slice loses only that slice's work. The walk over
    /// the plan ends where the slice stops (budget, `max_shards` or
    /// interrupt), and the shards past that point count what their saved
    /// checkpoints hold, so each checkpoint is read at most once and a
    /// slice never costs the plan's length.
    pub fn run(
        &self,
        budget_jobs: Option<usize>,
        max_shards: Option<usize>,
    ) -> Result<RunOutcome, String> {
        let plan = self.store.plan();
        let mut budget = budget_jobs;
        let mut jobs_run = 0usize;
        let mut done_jobs = 0u64;
        let mut shards_touched = 0usize;
        let mut slice_skips = 0u64;

        // Walk the plan only as far as the slice goes: `next` is the first
        // shard it did not reach.
        let mut next = 0;
        while next < plan.shard_count()
            && budget != Some(0)
            && max_shards.is_none_or(|m| shards_touched < m)
            && !self.cfg.interrupted()
        {
            let index = next;
            next += 1;
            let mut shard = self.store.load_shard(&self.cfg, index)?;
            if shard.complete() {
                done_jobs += shard.outcomes.len() as u64;
                continue;
            }

            // The stream is rebuilt from the checkpoint and synced before
            // the checkpoint that claims its lines is saved below.
            let done_before = shard.outcomes.len() as u64;
            let ran = run_shard_streamed(
                &self.cfg,
                &self.prepared,
                &mut shard,
                budget,
                (done_jobs + done_before) as usize,
                Some(&self.store.outcomes_path(index)),
            )?;

            // The checkpoint is the authority; flush it atomically before
            // declaring any progress durable. If the disk refuses even
            // after the store's bounded retries, degrade instead of
            // aborting: skip this checkpoint — the slice's work stays in
            // the matrix and re-runs after a restart — and keep the
            // campaign moving.
            match self.store.save_shard(&shard) {
                Ok(()) => {
                    self.cfg.telemetry.emit(kinds::SHARD_FLUSHED, None, || {
                        vec![
                            ("shard", Value::U64(shard.shard_index)),
                            ("jobs_done", Value::U64(shard.outcomes.len() as u64)),
                            ("jobs_total", Value::U64(shard.jobs())),
                            ("complete", Value::Bool(shard.complete())),
                        ]
                    });
                    done_jobs += done_before + ran as u64;
                }
                Err(e) => {
                    slice_skips += 1;
                    self.checkpoints_skipped.fetch_add(1, Ordering::Relaxed);
                    self.cfg
                        .telemetry
                        .emit(kinds::CHECKPOINT_SKIPPED, None, || {
                            vec![("shard", Value::U64(index)), ("error", Value::Str(e))]
                        });
                    // Only previously checkpointed jobs count as done.
                    done_jobs += done_before;
                }
            }

            jobs_run += ran;
            shards_touched += 1;
            if let Some(b) = budget.as_mut() {
                *b = b.saturating_sub(ran);
            }
        }
        // The shards the slice did not reach count what their checkpoints
        // hold.
        self.store.fold_saved(&self.cfg, next, |shard| {
            done_jobs += shard.outcomes.len() as u64;
        })?;

        // A tripped flag stays tripped, so it is an interruption wherever
        // the stop was detected: mid-shard or between shards.
        let complete = done_jobs == plan.total_jobs;
        let interrupted = !complete && self.cfg.interrupted();
        if interrupted {
            self.cfg
                .telemetry
                .emit(kinds::CAMPAIGN_INTERRUPTED, None, || {
                    vec![
                        ("jobs_done", Value::U64(done_jobs)),
                        ("jobs_total", Value::U64(plan.total_jobs)),
                    ]
                });
        }
        Ok(RunOutcome {
            jobs_run,
            done_jobs,
            total_jobs: plan.total_jobs,
            complete,
            interrupted,
            checkpoints_skipped: slice_skips,
        })
    }
}

/// Merge a complete campaign's shards into `report.json` — byte-identical
/// to the unsharded `CampaignReport::to_json()` — and return the folded
/// metrics registry. Two passes, each holding one shard at a time:
/// aggregate (cells, fleet totals, metrics), then stream the report text
/// straight to disk. Refuses incomplete or inconsistent shard sets.
pub fn merge_store(store: &CampaignStore) -> Result<(PathBuf, MetricsRegistry), String> {
    let cfg = store.spec.to_config()?;
    let plan = store.plan();

    // Pass 1: fold every shard through the merge law, which refuses a
    // foreign, misplaced or incomplete one. Quarantined jobs are
    // collected for the explicit ledger — they are *also* folded into the
    // report like any other outcome, so totals never silently shrink.
    let mut agg = CampaignAggregate::new(&cfg);
    let mut quarantine = String::new();
    let mut quarantined = 0u64;
    for index in 0..plan.shard_count() {
        let shard = store.load_shard(&cfg, index)?;
        agg.fold_shard(&shard)?;
        for (job, outcome) in &shard.outcomes {
            if outcome.failure.is_some() {
                let line = outcome.to_json_line();
                quarantine.push_str(&format!("{{\"job\":{job},{}\n", &line[1..]));
                quarantined += 1;
            }
        }
    }
    let (cells, fleet, metrics) = agg.finish()?;

    // Pass 2: stream the report to disk; no full-campaign string exists.
    let report_path = store.report_path();
    let tmp = report_path.with_extension("json.tmp");
    let fail = |e: std::io::Error| format!("write {}: {e}", tmp.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp).map_err(fail)?);
    out.write_all(json_prelude(&summarize(&cfg), &cells, &fleet).as_bytes())
        .map_err(fail)?;
    let mut first = true;
    for index in 0..plan.shard_count() {
        let shard = store.load_shard(&cfg, index)?;
        for outcome in shard.outcomes.values() {
            if !first {
                out.write_all(b",\n").map_err(fail)?;
            }
            first = false;
            out.write_all(b"    ").map_err(fail)?;
            out.write_all(outcome.to_json_line().as_bytes())
                .map_err(fail)?;
        }
    }
    out.write_all(JSON_EPILOGUE.as_bytes()).map_err(fail)?;
    let f = out
        .into_inner()
        .map_err(|e| format!("flush {}: {e}", tmp.display()))?;
    f.sync_all().map_err(fail)?;
    drop(f);
    std::fs::rename(&tmp, &report_path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), report_path.display()))?;

    // The quarantine ledger is rebuilt wholesale from the checkpoints on
    // every merge, so each quarantined job appears exactly once no matter
    // how many times the campaign is merged. No failures → no file.
    let quarantine_path = store.quarantine_path();
    if quarantined == 0 {
        let _ = std::fs::remove_file(&quarantine_path);
    } else {
        store.write_durable(&quarantine_path, quarantine.as_bytes())?;
    }
    Ok((report_path, metrics))
}
