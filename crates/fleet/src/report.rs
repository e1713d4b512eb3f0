//! Campaign outcomes and the `CampaignReport`.
//!
//! Everything here is **deterministic**: a report assembled from the same
//! outcome list renders byte-identical JSON, and the engine guarantees the
//! outcome list itself depends only on the campaign configuration — never
//! on worker-thread count or wall-clock time. That is why no timing or
//! host information appears anywhere in this module.

use crate::scenario::Scenario;
use crate::{config_fingerprint, CampaignConfig, ShardCheckpoint};
use mavlink_lite::channel::ChannelStats;
use mavlink_lite::RouterTotals;
use telemetry::metrics::{MetricsRegistry, QuantileSketch};

/// Physical-impact numbers from one board's flight in the world arena
/// (`mavr-world`). Present only when the campaign ran with physics on;
/// physics-off outcomes carry `None` and render byte-identical JSON to
/// the engine before the physics axis existed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorldMetrics {
    /// Peak `|altitude − setpoint|` in meters during the observation
    /// window (reset at attack injection, so it isolates the excursion
    /// the attack — or its failed attempt — caused).
    pub peak_alt_err_m: f64,
    /// Hard ground impacts (descent faster than
    /// [`mavr_world::CRASH_IMPACT_MPS`] at touchdown).
    pub ground_impacts: u32,
    /// Meters of altitude lost across master recoveries (motors dead
    /// while the reflash runs).
    pub alt_lost_m: f64,
    /// Recoveries replayed into the world as dead-motor time.
    pub recoveries_caught: u32,
}

/// Why a supervised job never produced a real flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFailureKind {
    /// The firmware (or the harness around it) panicked on every attempt.
    Panic,
    /// The cycle-budget watchdog expired: the job ran past the worst-case
    /// cycle count its configuration allows, i.e. it was not terminating.
    Timeout,
}

impl JobFailureKind {
    /// Stable lower-case name used on the JSONL wire.
    pub fn name(self) -> &'static str {
        match self {
            JobFailureKind::Panic => "panic",
            JobFailureKind::Timeout => "timeout",
        }
    }
}

/// Typed record of a job that exhausted its supervised retries and was
/// quarantined. Carried *inside* the outcome so the checkpoint wire, the
/// JSONL stream and the merged report all agree on exactly which jobs
/// failed — a quarantined job is counted, never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobFailure {
    /// Terminal failure mode of the final attempt.
    pub kind: JobFailureKind,
    /// Attempts burned before quarantine (== the supervisor's retry cap).
    pub attempts: u32,
}

/// Everything observed about one board's run in the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardOutcome {
    /// Scenario this board was subjected to.
    pub scenario: Scenario,
    /// Per-byte impairment probability of its link (both directions).
    pub loss: f64,
    /// Fault-injection rate of its recovery pipeline (0 = no chaos).
    pub fault: f64,
    /// Board ordinal within its `(scenario, loss, fault)` cell.
    pub board_index: usize,
    /// Randomization seed the board was provisioned with.
    pub board_seed: u64,
    /// Attack packets sent (0 for benign).
    pub attack_packets: usize,
    /// Whether the attacker's 3-byte write landed in the victim's SRAM.
    pub attack_succeeded: bool,
    /// Recoveries (detect + re-randomize + reflash) the master performed.
    pub recoveries: usize,
    /// Reflash retries (container re-reads, stream retries, page repairs)
    /// the master's recovery pipeline burned across the run.
    pub reflash_retries: u64,
    /// Boots that fell back to the last-known-good image without fresh
    /// randomization.
    pub degraded_boots: u64,
    /// The board exhausted every retry and the degraded fallback — it
    /// ended the run requiring manual service.
    pub bricked: bool,
    /// Cycles from attack injection to the master's first detection.
    pub time_to_recovery: Option<u64>,
    /// Application-processor cycle count when the run ended.
    pub final_cycle: u64,
    /// Heartbeats the ground station decoded (lifetime total).
    pub heartbeats: u64,
    /// Checksum-valid packets the ground station parsed.
    pub packets: u64,
    /// Sequence-number discontinuities the ground station observed.
    pub seq_gaps: u64,
    /// Packets the sequence deltas say the downlink lost.
    pub packets_lost: u64,
    /// Bytes that failed the ground station's checksum.
    pub bad_checksums: u64,
    /// Frames the *UAV's* parser rejected on checksum (uplink corruption;
    /// an 8-bit firmware counter, wraps at 256).
    pub uav_bad_crc: u8,
    /// Fused blocks the app processor's engine dispatched. Engine
    /// observability, not a flight result: it feeds the metrics registry
    /// but never the report JSON, which must be identical with fusion
    /// on or off.
    pub sim_block_hits: u64,
    /// Fused blocks invalidated by reflashes (engine observability).
    pub sim_block_invalidations: u64,
    /// Live fused blocks when the run ended (engine observability).
    pub sim_block_count: u64,
    /// Uplink (ground → UAV) channel accounting.
    pub up_stats: ChannelStats,
    /// Downlink (UAV → ground) channel accounting.
    pub down_stats: ChannelStats,
    /// Physical-impact numbers; `Some` only for physics campaigns.
    pub world: Option<WorldMetrics>,
    /// `Some` when the supervisor quarantined this job after exhausting
    /// retries; every other counter in the outcome is then zero. `None`
    /// outcomes render byte-identical JSON to the engine before job
    /// supervision existed.
    pub failure: Option<JobFailure>,
}

impl BoardOutcome {
    /// One JSONL record (a single line, no trailing newline).
    pub fn to_json_line(&self) -> String {
        let world = self.world.map_or_else(String::new, |w| {
            format!(
                ",\"peak_alt_err_m\":{:.3},\"ground_impacts\":{},\
                 \"alt_lost_m\":{:.3},\"recoveries_caught\":{}",
                w.peak_alt_err_m, w.ground_impacts, w.alt_lost_m, w.recoveries_caught
            )
        });
        let failure = self.failure.map_or_else(String::new, |f| {
            format!(
                ",\"failure\":\"{}\",\"attempts\":{}",
                f.kind.name(),
                f.attempts
            )
        });
        format!(
            "{{\"scenario\":\"{}\",\"loss\":{:.4},\"fault\":{},\"board\":{},\"seed\":{},\
             \"attack_packets\":{},\"attack_succeeded\":{},\"recoveries\":{},\
             \"reflash_retries\":{},\"degraded_boots\":{},\"bricked\":{},\
             \"time_to_recovery\":{},\"final_cycle\":{},\"heartbeats\":{},\
             \"packets\":{},\"seq_gaps\":{},\"packets_lost\":{},\
             \"bad_checksums\":{},\"uav_bad_crc\":{},\
             \"up_dropped\":{},\"up_corrupted\":{},\"up_duplicated\":{},\
             \"down_dropped\":{},\"down_corrupted\":{},\"down_duplicated\":{}{}{}}}",
            self.scenario.name(),
            self.loss,
            self.fault,
            self.board_index,
            self.board_seed,
            self.attack_packets,
            self.attack_succeeded,
            self.recoveries,
            self.reflash_retries,
            self.degraded_boots,
            self.bricked,
            self.time_to_recovery
                .map_or("null".to_string(), |t| t.to_string()),
            self.final_cycle,
            self.heartbeats,
            self.packets,
            self.seq_gaps,
            self.packets_lost,
            self.bad_checksums,
            self.uav_bad_crc,
            self.up_stats.dropped,
            self.up_stats.corrupted,
            self.up_stats.duplicated,
            self.down_stats.dropped,
            self.down_stats.corrupted,
            self.down_stats.duplicated,
            world,
            failure,
        )
    }
}

/// Aggregate over one `(scenario, loss, fault)` cell of the campaign
/// matrix — one point on a link-loss or fault-rate sensitivity curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The scenario of this cell.
    pub scenario: Scenario,
    /// The loss level of this cell.
    pub loss: f64,
    /// The fault-injection rate of this cell.
    pub fault: f64,
    /// Boards in the cell.
    pub boards: usize,
    /// Boards whose attack write landed (the paper's headline: 0 when
    /// randomized).
    pub attack_successes: usize,
    /// Boards the master detected and recovered at least once.
    pub boards_recovered: usize,
    /// Total recoveries across the cell.
    pub recoveries_total: u64,
    /// Detection-latency distribution (cycles from injection to
    /// detection), held as a mergeable quantile sketch: O(1) RAM in the
    /// number of boards, exact mean/min/max, quantiles within
    /// [`telemetry::metrics::RELATIVE_ERROR`] (~3.2%).
    pub latency_sketch: QuantileSketch,
    /// Ground-station heartbeats decoded across the cell.
    pub heartbeats: u64,
    /// Sequence gaps across the cell.
    pub seq_gaps: u64,
    /// Estimated packets lost across the cell.
    pub packets_lost: u64,
    /// Ground-station checksum failures across the cell.
    pub bad_checksums: u64,
    /// Channel bytes dropped, both directions summed.
    pub bytes_dropped: u64,
    /// Channel bytes corrupted, both directions summed.
    pub bytes_corrupted: u64,
    /// Reflash retries across the cell.
    pub reflash_retries: u64,
    /// Degraded (last-known-good, no fresh randomization) boots across
    /// the cell.
    pub degraded_boots: u64,
    /// Boards that booted degraded at least once.
    pub boards_degraded: usize,
    /// Boards that ended the run bricked (fail-stop after every retry).
    pub boards_bricked: usize,
    /// Jobs the supervisor quarantined after exhausting retries. Rendered
    /// (and counted in metrics) only when nonzero, so fault-free reports
    /// stay byte-identical to the engine before job supervision existed.
    pub jobs_quarantined: usize,
    /// Physical-impact aggregate; `Some` only for physics campaigns.
    pub world: Option<WorldCellMetrics>,
}

/// Control-aware impact aggregate over one campaign cell — what the
/// attacks *did to the aircraft*, not just to its memory.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorldCellMetrics {
    /// Worst per-board peak altitude error in the cell, meters.
    pub peak_alt_err_m: f64,
    /// Boards that hit the ground hard at least once.
    pub boards_crashed: usize,
    /// Total hard ground impacts across the cell.
    pub ground_impacts: u64,
    /// Total meters of altitude lost to master recoveries.
    pub alt_lost_m: f64,
    /// Total recoveries replayed as dead-motor time.
    pub recoveries_caught: u64,
}

impl WorldCellMetrics {
    /// Fraction of the cell's boards that crashed into the ground.
    pub fn crash_rate(&self, boards: usize) -> f64 {
        self.boards_crashed as f64 / boards.max(1) as f64
    }

    /// Mean meters of altitude lost per recovery — the physical price of
    /// one master reflash (a recovery-MTTR expressed in altitude).
    pub fn alt_lost_per_recovery_m(&self) -> Option<f64> {
        (self.recoveries_caught > 0).then(|| self.alt_lost_m / self.recoveries_caught as f64)
    }
}

impl CellReport {
    /// A zero-board cell at the given matrix coordinates — the identity
    /// of the [`CellReport::fold`] accumulation.
    fn empty(scenario: Scenario, loss: f64, fault: f64) -> Self {
        CellReport {
            scenario,
            loss,
            fault,
            boards: 0,
            attack_successes: 0,
            boards_recovered: 0,
            recoveries_total: 0,
            latency_sketch: QuantileSketch::new(),
            heartbeats: 0,
            seq_gaps: 0,
            packets_lost: 0,
            bad_checksums: 0,
            bytes_dropped: 0,
            bytes_corrupted: 0,
            reflash_retries: 0,
            degraded_boots: 0,
            boards_degraded: 0,
            boards_bricked: 0,
            jobs_quarantined: 0,
            world: None,
        }
    }

    /// Fold one outcome (which must belong to this cell's coordinates)
    /// into the aggregate. Every field is a sum, count, max or sketch
    /// insert, so folding outcome-by-outcome is exactly the batch
    /// aggregation — this incrementality is what lets sharded campaigns
    /// build their cells without ever holding the outcome list. `None`
    /// when a sum would overflow `u64` (a checkpoint can claim counts no
    /// run reaches).
    fn fold(&mut self, o: &BoardOutcome) -> Option<()> {
        if let Some(l) = o.time_to_recovery {
            // The sketch saturates its exact sum; the fold refuses instead.
            self.latency_sketch.sum().checked_add(l)?;
            self.latency_sketch.record(l);
        }
        self.boards += 1;
        self.attack_successes += usize::from(o.attack_succeeded);
        self.boards_recovered += usize::from(o.recoveries > 0);
        add(&mut self.recoveries_total, o.recoveries as u64)?;
        add(&mut self.heartbeats, o.heartbeats)?;
        add(&mut self.seq_gaps, o.seq_gaps)?;
        add(&mut self.packets_lost, o.packets_lost)?;
        add(&mut self.bad_checksums, o.bad_checksums)?;
        let dropped = o.up_stats.dropped.checked_add(o.down_stats.dropped)?;
        add(&mut self.bytes_dropped, dropped)?;
        let corrupted = o.up_stats.corrupted.checked_add(o.down_stats.corrupted)?;
        add(&mut self.bytes_corrupted, corrupted)?;
        add(&mut self.reflash_retries, o.reflash_retries)?;
        add(&mut self.degraded_boots, o.degraded_boots)?;
        self.boards_degraded += usize::from(o.degraded_boots > 0);
        self.boards_bricked += usize::from(o.bricked);
        self.jobs_quarantined += usize::from(o.failure.is_some());
        if let Some(w) = o.world {
            let cell = self.world.get_or_insert_with(WorldCellMetrics::default);
            cell.peak_alt_err_m = cell.peak_alt_err_m.max(w.peak_alt_err_m);
            cell.boards_crashed += usize::from(w.ground_impacts > 0);
            add(&mut cell.ground_impacts, u64::from(w.ground_impacts))?;
            cell.alt_lost_m += w.alt_lost_m;
            add(&mut cell.recoveries_caught, u64::from(w.recoveries_caught))?;
        }
        Some(())
    }

    /// Mean reflash retries per board — the cell's retry-rate point on
    /// the fault-sensitivity curve.
    pub fn reflash_retry_rate(&self) -> f64 {
        self.reflash_retries as f64 / self.boards.max(1) as f64
    }

    /// Fraction of boards that booted degraded at least once.
    pub fn degraded_rate(&self) -> f64 {
        self.boards_degraded as f64 / self.boards.max(1) as f64
    }

    /// Fraction of boards that ended the run bricked.
    pub fn brick_rate(&self) -> f64 {
        self.boards_bricked as f64 / self.boards.max(1) as f64
    }

    /// Fraction of the cell's boards whose attack write landed.
    pub fn attack_success_rate(&self) -> f64 {
        self.attack_successes as f64 / self.boards.max(1) as f64
    }

    /// Fraction of the cell's boards the master recovered at least once.
    pub fn recovery_rate(&self) -> f64 {
        self.boards_recovered as f64 / self.boards.max(1) as f64
    }

    /// Mean cycles from injection to detection, over detected boards.
    /// **Exact**: the sketch keeps the true sum and count alongside its
    /// buckets, so MTTR never suffers sketch error.
    pub fn mean_time_to_recovery(&self) -> Option<f64> {
        self.latency_sketch.mean()
    }

    /// `(min, median, max)` of the detection-latency distribution, from
    /// the sketch. Min and max are exact; the median is the sketch's
    /// rank-based estimate: the lower bound of the bucket holding the
    /// median rank, so it is `<=` the true median and within
    /// [`telemetry::metrics::RELATIVE_ERROR`] (one log2-sub-bucket width,
    /// 1/32 ≈ 3.2%) of it.
    pub fn latency_spread(&self) -> Option<(u64, u64, u64)> {
        let s = &self.latency_sketch;
        Some((s.min()?, s.quantile(0.5)?, s.max()?))
    }

    fn to_json(&self) -> String {
        let (mttr, lat) = match (self.mean_time_to_recovery(), self.latency_spread()) {
            (Some(m), Some((lo, p50, hi))) => (
                format!("{m:.1}"),
                format!("{{\"min\":{lo},\"p50\":{p50},\"max\":{hi}}}"),
            ),
            _ => ("null".to_string(), "null".to_string()),
        };
        let world = self.world.map_or_else(String::new, |w| {
            format!(
                ",\"peak_alt_err_m\":{:.3},\"boards_crashed\":{},\"crash_rate\":{:.4},\
                 \"ground_impacts\":{},\"alt_lost_m\":{:.3},\"alt_lost_per_recovery_m\":{}",
                w.peak_alt_err_m,
                w.boards_crashed,
                w.crash_rate(self.boards),
                w.ground_impacts,
                w.alt_lost_m,
                w.alt_lost_per_recovery_m()
                    .map_or("null".to_string(), |m| format!("{m:.3}")),
            )
        });
        let quarantined = if self.jobs_quarantined > 0 {
            format!(",\"jobs_quarantined\":{}", self.jobs_quarantined)
        } else {
            String::new()
        };
        format!(
            "{{\"scenario\":\"{}\",\"loss\":{:.4},\"fault\":{},\"boards\":{},\
             \"attack_successes\":{},\"attack_success_rate\":{:.4},\
             \"boards_recovered\":{},\"recovery_rate\":{:.4},\
             \"recoveries_total\":{},\"mean_time_to_recovery_cycles\":{},\
             \"detection_latency_cycles\":{},\"reflash_retries\":{},\
             \"reflash_retry_rate\":{:.4},\"degraded_boots\":{},\
             \"degraded_rate\":{:.4},\"boards_bricked\":{},\"brick_rate\":{:.4},\
             \"heartbeats\":{},\
             \"seq_gaps\":{},\"packets_lost\":{},\"bad_checksums\":{},\
             \"bytes_dropped\":{},\"bytes_corrupted\":{}{}{}}}",
            self.scenario.name(),
            self.loss,
            self.fault,
            self.boards,
            self.attack_successes,
            self.attack_success_rate(),
            self.boards_recovered,
            self.recovery_rate(),
            self.recoveries_total,
            mttr,
            lat,
            self.reflash_retries,
            self.reflash_retry_rate(),
            self.degraded_boots,
            self.degraded_rate(),
            self.boards_bricked,
            self.brick_rate(),
            self.heartbeats,
            self.seq_gaps,
            self.packets_lost,
            self.bad_checksums,
            self.bytes_dropped,
            self.bytes_corrupted,
            quarantined,
            world,
        )
    }
}

/// `total += v`, or `None` (leaving `total` unchanged) past `u64::MAX`.
fn add(total: &mut u64, v: u64) -> Option<()> {
    *total = total.checked_add(v)?;
    Some(())
}

/// Fold one board's outcome into a metrics registry; `None` when a
/// counter would overflow `u64`.
///
/// This is the **single** aggregation function behind campaign metrics:
/// [`CampaignAggregate`] calls it one outcome at a time as shards fold
/// in, and [`CampaignReport::metrics`] over a report's outcome list. Both
/// produce byte-identical expositions — which is also what makes
/// resumed-from-checkpoint metrics byte-identical to uninterrupted runs
/// (outcomes are outcomes, however they were scheduled). Labels are the
/// cell coordinates; values are counters, one latency sketch, and one
/// packets histogram per cell, so memory is O(cells), not O(boards).
#[must_use]
pub fn fold_outcome_metrics(reg: &mut MetricsRegistry, o: &BoardOutcome) -> Option<()> {
    let loss = format!("{:.4}", o.loss);
    let fault = format!("{}", o.fault);
    let labels: &[(&str, &str)] = &[
        ("scenario", o.scenario.name()),
        ("loss", &loss),
        ("fault", &fault),
    ];
    for (name, v) in [
        ("campaign_boards_total", 1),
        (
            "campaign_attack_successes_total",
            u64::from(o.attack_succeeded),
        ),
        (
            "campaign_boards_recovered_total",
            u64::from(o.recoveries > 0),
        ),
        ("campaign_recoveries_total", o.recoveries as u64),
        ("campaign_reflash_retries_total", o.reflash_retries),
        ("campaign_degraded_boots_total", o.degraded_boots),
        ("campaign_boards_bricked_total", u64::from(o.bricked)),
        ("campaign_heartbeats_total", o.heartbeats),
        ("campaign_seq_gaps_total", o.seq_gaps),
        ("campaign_sim_cycles_total", o.final_cycle),
        ("campaign_sim_block_hits_total", o.sim_block_hits),
        (
            "campaign_sim_block_invalidations_total",
            o.sim_block_invalidations,
        ),
        ("campaign_sim_block_count", o.sim_block_count),
    ] {
        reg.add_counter(name, labels, v)?;
    }
    if let Some(latency) = o.time_to_recovery {
        reg.observe_sketch("campaign_detection_latency_cycles", labels, latency);
    }
    // Quarantine counters appear only when a job actually failed, so
    // fault-free expositions stay byte-identical to pre-supervision runs.
    if let Some(f) = o.failure {
        reg.add_counter("campaign_jobs_quarantined_total", labels, 1)?;
        reg.add_counter("campaign_job_attempts_total", labels, u64::from(f.attempts))?;
    }
    reg.observe_histogram("campaign_packets_per_board", labels, o.packets);
    // Physics counters appear only when the campaign flew in the world
    // arena, so physics-off expositions stay byte-identical.
    if let Some(w) = o.world {
        reg.add_counter(
            "campaign_ground_impacts_total",
            labels,
            u64::from(w.ground_impacts),
        )?;
        reg.add_counter(
            "campaign_world_recoveries_total",
            labels,
            u64::from(w.recoveries_caught),
        )?;
    }
    Some(())
}

/// Build the complete campaign registry from an outcome list: every
/// outcome folded via [`fold_outcome_metrics`] plus the job-count gauge —
/// what [`CampaignAggregate::finish`] returns for the same outcomes.
///
/// Panics if a counter would overflow `u64`. A merged report's outcomes
/// cannot: [`CampaignAggregate`] made the same fold and refused them.
pub fn registry_from_outcomes(outcomes: &[BoardOutcome]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for o in outcomes {
        fold_outcome_metrics(&mut reg, o).expect("a merged report's counters fit in u64");
    }
    reg.set_gauge("campaign_jobs_total", &[], outcomes.len() as f64);
    reg
}

/// The campaign merge law: the cell matrix, fleet totals and metrics
/// registry folded shard by shard, in job order, in O(cells) memory —
/// never O(boards). It is the only path from shard checkpoints to those
/// aggregates: [`crate::merge_shard_checkpoints`] (behind `run_campaign`
/// and `fleet`) and the campaign service's streaming merge both fold
/// through it, so sharded, resumed and unsharded runs differ only in how
/// the job space was cut, never in how it was summed.
#[derive(Debug)]
pub struct CampaignAggregate {
    fingerprint: u64,
    boards: u64,
    total_jobs: u64,
    /// Where the next shard must start: one past the last folded job.
    next_job: u64,
    cells: Vec<CellReport>,
    fleet: RouterTotals,
    metrics: MetricsRegistry,
}

impl CampaignAggregate {
    /// An empty aggregate over `cfg`'s matrix, cells pre-created in
    /// matrix (scenario-major) order.
    pub fn new(cfg: &CampaignConfig) -> Self {
        let mut cells = Vec::with_capacity(
            cfg.scenarios.len() * cfg.loss_levels.len() * cfg.fault_levels.len(),
        );
        for &s in &cfg.scenarios {
            for &l in &cfg.loss_levels {
                for &fr in &cfg.fault_levels {
                    cells.push(CellReport::empty(s, l, fr));
                }
            }
        }
        CampaignAggregate {
            fingerprint: config_fingerprint(cfg),
            boards: cfg.boards as u64,
            total_jobs: cfg.total_jobs() as u64,
            next_job: 0,
            cells,
            fleet: RouterTotals::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Fold the next shard in job order. Refuses a shard of a different
    /// campaign, one that does not start where the previous shard ended,
    /// an incomplete one, an outcome that is not its job's cell, and an
    /// outcome that takes a sum past `u64::MAX`.
    pub fn fold_shard(&mut self, shard: &ShardCheckpoint) -> Result<(), String> {
        if shard.fingerprint != self.fingerprint {
            return Err(format!(
                "shard {} fingerprints a different campaign ({:#018x} != {:#018x})",
                shard.shard_index, shard.fingerprint, self.fingerprint
            ));
        }
        if shard.job_lo != self.next_job {
            return Err(format!(
                "shard ranges do not partition the job space: expected a shard starting \
                 at {}, found {}..{}",
                self.next_job, shard.job_lo, shard.job_hi
            ));
        }
        if !shard.complete() {
            return Err(format!(
                "shard {} is incomplete ({}/{} jobs) — finish or resume it before merging",
                shard.shard_index,
                shard.outcomes.len(),
                shard.jobs()
            ));
        }
        for (&job, o) in &shard.outcomes {
            self.fold(job, o)?;
        }
        self.next_job = shard.job_hi;
        Ok(())
    }

    /// Fold job `job`'s outcome into its cell (job order is matrix order,
    /// `boards` jobs per cell), the fleet totals and the metrics registry.
    fn fold(&mut self, job: u64, o: &BoardOutcome) -> Result<(), String> {
        let cell = job
            .checked_div(self.boards)
            .and_then(|i| self.cells.get_mut(i as usize))
            .filter(|c| c.scenario == o.scenario && c.loss == o.loss && c.fault == o.fault)
            .ok_or_else(|| {
                format!(
                    "job {job} holds a {} outcome at loss {}, fault {}: not that job's cell \
                     of the campaign matrix",
                    o.scenario.name(),
                    o.loss,
                    o.fault
                )
            })?;
        let overflow = || format!("job {job}'s outcome takes a campaign total past u64::MAX");
        cell.fold(o).ok_or_else(overflow)?;
        let f = &mut self.fleet;
        f.links += 1;
        for (total, v) in [
            (&mut f.packets, o.packets),
            (&mut f.heartbeats, o.heartbeats),
            (&mut f.bad_checksums, o.bad_checksums),
            (&mut f.seq_gaps, o.seq_gaps),
            (&mut f.packets_lost, o.packets_lost),
        ] {
            add(total, v).ok_or_else(overflow)?;
        }
        fold_outcome_metrics(&mut self.metrics, o).ok_or_else(overflow)
    }

    /// Finish the aggregation: the cell matrix, fleet totals, and the
    /// complete metrics registry (job-count gauge included). Refuses a
    /// partition that stops short of the campaign's last job.
    pub fn finish(mut self) -> Result<(Vec<CellReport>, RouterTotals, MetricsRegistry), String> {
        if self.next_job != self.total_jobs {
            return Err(format!(
                "shard ranges cover {} of {} jobs — missing the tail",
                self.next_job, self.total_jobs
            ));
        }
        let jobs = self.fleet.links;
        self.metrics
            .set_gauge("campaign_jobs_total", &[], jobs as f64);
        Ok((self.cells, self.fleet, self.metrics))
    }
}

/// The configuration echo embedded in a report. Deliberately excludes
/// anything that may legally vary between identical campaigns (worker
/// thread count, host, wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign master seed.
    pub seed: u64,
    /// Boards per `(scenario, loss)` cell.
    pub boards: usize,
    /// Scenario names, in matrix order.
    pub scenarios: Vec<&'static str>,
    /// Loss levels, in matrix order.
    pub loss_levels: Vec<f64>,
    /// Fault-injection rates, in matrix order (`[0.0]` when chaos is off).
    pub fault_levels: Vec<f64>,
    /// Pre-injection cycles per board.
    pub warmup_cycles: u64,
    /// Post-injection cycles per board.
    pub attack_cycles: u64,
    /// Application the fleet flies.
    pub app: String,
    /// Whether the fleet flew in the physical world arena.
    pub physics: bool,
}

/// Everything of a [`CampaignReport::to_json`] document that precedes the
/// board outcome lines: the campaign header, the cell matrix and the fleet
/// totals, ending just after `"boards": [` and its newline. A writer that
/// emits this, then each outcome as `"    " + to_json_line()` joined by
/// `",\n"`, then [`JSON_EPILOGUE`], reproduces `to_json` byte for byte —
/// without ever holding the outcome list.
pub fn json_prelude(
    config: &CampaignSummary,
    cells: &[CellReport],
    fleet: &RouterTotals,
) -> String {
    let scenarios = config
        .scenarios
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(",");
    let losses = config
        .loss_levels
        .iter()
        .map(|l| format!("{l:.4}"))
        .collect::<Vec<_>>()
        .join(",");
    // Plain `Display` rather than `{:.4}`: fault rates sweep down to
    // 1e-5 and below, which a fixed 4-decimal format would flatten
    // to 0.0000.
    let faults = config
        .fault_levels
        .iter()
        .map(|fr| format!("{fr}"))
        .collect::<Vec<_>>()
        .join(",");
    let cells = cells
        .iter()
        .map(|c| format!("    {}", c.to_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"campaign\": {{\"seed\":{},\"boards_per_cell\":{},\
         \"scenarios\":[{}],\"loss_levels\":[{}],\"fault_levels\":[{}],\
         \"warmup_cycles\":{},\
         \"attack_cycles\":{},\"app\":\"{}\"{}}},\n  \"cells\": [\n{}\n  ],\n  \
         \"fleet\": {{\"links\":{},\"packets\":{},\"heartbeats\":{},\
         \"bad_checksums\":{},\"seq_gaps\":{},\"packets_lost\":{}}},\n  \
         \"boards\": [\n",
        config.seed,
        config.boards,
        scenarios,
        losses,
        faults,
        config.warmup_cycles,
        config.attack_cycles,
        config.app,
        if config.physics {
            ",\"physics\":true"
        } else {
            ""
        },
        cells,
        fleet.links,
        fleet.packets,
        fleet.heartbeats,
        fleet.bad_checksums,
        fleet.seq_gaps,
        fleet.packets_lost,
    )
}

/// What closes a [`CampaignReport::to_json`] document after the last board
/// line (see [`json_prelude`]).
pub const JSON_EPILOGUE: &str = "\n  ]\n}\n";

/// The complete result of a fleet campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// What was run.
    pub config: CampaignSummary,
    /// One aggregate per `(scenario, loss, fault)` cell, in matrix order
    /// (scenario-major: each scenario's cells trace its loss- and
    /// fault-sensitivity curves).
    pub cells: Vec<CellReport>,
    /// Fleet-wide ground-station totals (all links, via the router).
    pub fleet: RouterTotals,
    /// Raw per-board outcomes, in job order.
    pub outcomes: Vec<BoardOutcome>,
}

impl CampaignReport {
    /// The full report as pretty-stable JSON. Byte-identical for identical
    /// `(seed, boards, scenarios, loss)` campaigns, regardless of worker
    /// thread count.
    ///
    /// Structured as [`json_prelude`] + board lines + [`JSON_EPILOGUE`] so
    /// the campaign service's shard merge can stream the board section to
    /// disk one shard at a time and still produce these exact bytes.
    pub fn to_json(&self) -> String {
        let mut out = json_prelude(&self.config, &self.cells, &self.fleet);
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("    ");
            out.push_str(&o.to_json_line());
        }
        out.push_str(JSON_EPILOGUE);
        out
    }

    /// The campaign's metrics registry, rebuilt from the outcome list.
    /// Byte-identical (`to_prometheus`/`to_jsonl`) to the shard-merged
    /// registry the worker pool accumulates, at any thread count, and for
    /// resumed-from-checkpoint campaigns.
    pub fn metrics(&self) -> MetricsRegistry {
        registry_from_outcomes(&self.outcomes)
    }

    /// One JSON line per board outcome, in job order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "== Fleet campaign: {} boards/cell, seed {:#x}, app {} ==\n",
            self.config.boards, self.config.seed, self.config.app
        );
        writeln!(
            out,
            "{:<14}{:>7}{:>9}{:>8}{:>10}{:>11}{:>9}{:>15}{:>9}{:>10}{:>9}",
            "scenario",
            "loss",
            "fault",
            "boards",
            "success",
            "recovered",
            "rate",
            "mttr (cycles)",
            "retries",
            "degraded",
            "bricked"
        )
        .unwrap();
        for c in &self.cells {
            let world = c.world.map_or_else(String::new, |w| {
                format!(
                    "  alt_err {:.1}m  crashed {}/{}  alt_lost {:.1}m",
                    w.peak_alt_err_m, w.boards_crashed, c.boards, w.alt_lost_m
                )
            });
            writeln!(
                out,
                "{:<14}{:>7.4}{:>9}{:>8}{:>7}/{:<2}{:>8}/{:<2}{:>9.2}{:>15}{:>9}{:>10}{:>9}{}",
                c.scenario.name(),
                c.loss,
                format!("{}", c.fault),
                c.boards,
                c.attack_successes,
                c.boards,
                c.boards_recovered,
                c.boards,
                c.recovery_rate(),
                c.mean_time_to_recovery()
                    .map_or("-".to_string(), |m| format!("{m:.0}")),
                c.reflash_retries,
                c.degraded_boots,
                c.boards_bricked,
                world,
            )
            .unwrap();
        }
        writeln!(
            out,
            "fleet totals: {} links, {} packets, {} heartbeats, {} seq gaps, {} packets lost",
            self.fleet.links,
            self.fleet.packets,
            self.fleet.heartbeats,
            self.fleet.seq_gaps,
            self.fleet.packets_lost
        )
        .unwrap();
        out
    }
}
