//! Fleet campaign engine: many-UAV simulation over lossy MAVLink links.
//!
//! The paper (§VII-A) evaluates MAVR on a single APM board over a perfect
//! serial cable. Its recovery-rate and re-randomization claims only become
//! statistically meaningful across many boards, many randomization seeds,
//! and realistic link conditions. This crate is that evaluation harness:
//!
//! * **N independent [`MavrBoard`]s**, each provisioned with its own
//!   randomization seed (and thus its own firmware permutation);
//! * each connected to the ground station through a pair of deterministic
//!   [`LossyChannel`]s (uplink and downlink, independently seeded);
//! * driven concurrently on a pool of worker threads that pull jobs from a
//!   shared queue (boards run on whichever worker is free — results are
//!   stitched back in job order, so the outcome is thread-count
//!   invariant, like `rop::brute`);
//! * subjected to the attack matrix: `scenarios × loss levels × fault
//!   rates × boards`,
//!   where each attack payload is crafted once against the *unprotected*
//!   image (the paper's threat model — the attacker has the shipped
//!   binary, not the board's current permutation);
//! * aggregated into a [`CampaignReport`]: per-cell attack success rate,
//!   recovery rate, time-to-recovery distribution, and link statistics
//!   (sequence gaps, estimated packet loss, checksum garbage), with every
//!   per-board [`GroundStation`] session's counters summed into the
//!   fleet-wide [`RouterTotals`].
//!
//! **One unit of work.** Every campaign runs as [`ShardCheckpoint`]s
//! through [`run_shard_resume`] and is folded by
//! [`merge_shard_checkpoints`]: [`run_campaign`] is one in-memory shard
//! over the whole job space, `fleet --checkpoint` persists that same
//! shard, and the campaign service runs many.
//!
//! **Determinism.** A campaign is a pure function of its
//! [`CampaignConfig`]: board seeds and both channel seeds derive from the
//! campaign seed via a splitmix64 mix of the job index, the simulator is
//! cycle-deterministic, and the report embeds no timing or host
//! information. The same config yields byte-identical
//! [`CampaignReport::to_json`] output across runs and across
//! `threads` values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod report;
pub mod scenario;
pub mod shard;

pub use checkpoint::config_fingerprint;
pub use mavlink_lite::RouterTotals;
/// The stream deriver and unit map every per-job seed and draw goes
/// through; re-exported so the campaign service derives its own streams
/// from the same function.
pub use rand::{derive_seed, unit_f64};
/// The seeded generator and its seeding call, for crates that seed a
/// randomization without a `rand` dependency of their own.
pub use rand::{rngs::StdRng, SeedableRng};
pub use report::{
    fold_outcome_metrics, json_prelude, registry_from_outcomes, BoardOutcome, CampaignAggregate,
    CampaignReport, CampaignSummary, CellReport, JobFailure, JobFailureKind, WorldCellMetrics,
    WorldMetrics, JSON_EPILOGUE,
};
pub use scenario::{parse_scenarios, Scenario};
pub use shard::{
    merge_shard_checkpoints, run_shard_resume, run_shard_streamed, ShardCheckpoint, ShardPlan,
};

use mavlink_lite::channel::{ChannelStats, LossConfig, LossyChannel};
use mavlink_lite::GroundStation;
use mavr::policy::RandomizationPolicy;
use mavr_board::{ChaosConfig, ExternalFlash, FaultPlan, MasterError, MavrBoard};
use mavr_world::{FlightHarness, World, CYCLES_PER_STEP};
use rop::attack::AttackContext;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use synth_firmware::{apps, build, layout, AppSpec, BuildOptions};
use telemetry::{kinds, Telemetry, Value};

/// The 3-byte sensor write every attack scenario attempts (gyro state, as
/// in the paper's running example).
pub const ATTACK_TARGET: u16 = layout::GYRO + 3;
/// The attacker's marker bytes.
pub const ATTACK_VALUES: [u8; 3] = [0xde, 0xad, 0x42];

/// Full description of a fleet campaign. A campaign's result is a pure
/// function of this struct (`threads` excepted — it only changes how fast
/// the answer arrives).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: board seeds and channel seeds all derive from it.
    pub seed: u64,
    /// Boards per `(scenario, loss, fault)` cell.
    pub boards: usize,
    /// Attack scenarios to schedule against the fleet.
    pub scenarios: Vec<Scenario>,
    /// Per-byte impairment probabilities to sweep (applied equally to
    /// drop, corrupt and duplicate on both link directions). `0.0` is a
    /// perfect link.
    pub loss_levels: Vec<f64>,
    /// Fault-injection rates to sweep through each board's recovery
    /// pipeline ([`mavr_board::ChaosConfig::uniform`]). `0.0` injects
    /// nothing and leaves the board bit-for-bit identical to a
    /// chaos-free run.
    pub fault_levels: Vec<f64>,
    /// Cycles each board flies before the attack is injected.
    pub warmup_cycles: u64,
    /// Cycles each board flies after the last attack packet.
    pub attack_cycles: u64,
    /// Cycles between successive V3 carrier packets.
    pub packet_gap_cycles: u64,
    /// Ground-station scroll-back depth per board. Every total stays exact,
    /// so it changes no result and is not in the checkpoint fingerprint.
    pub gcs_capacity: usize,
    /// Worker threads; `0` means one per available core. Never affects
    /// results, only wall-clock time.
    pub threads: usize,
    /// The application the fleet flies (built vulnerable, as the paper's
    /// target is).
    pub app: AppSpec,
    /// Block-fused execution on each board's app processor. An engine
    /// knob like `threads`: flipping it never changes any outcome (the
    /// fused engine is differentially verified against the stepping one),
    /// so it is excluded from the checkpoint fingerprint. Off is only
    /// useful for performance triage.
    pub block_fusion: bool,
    /// Fly each board inside the `mavr-world` physics arena: sensors
    /// feed the ADC, PWM drives a rigid body, and outcomes gain
    /// physical-impact columns (altitude excursion, ground impacts,
    /// altitude lost to recoveries). Off (the default) keeps the report
    /// byte-identical to the engine before the physics axis existed.
    /// Unlike `block_fusion`, this **changes results** — boards run to
    /// world-step boundaries and their ADC inputs are live — so it is
    /// part of the checkpoint fingerprint. Pair it with a flight app
    /// ([`synth_firmware::apps::synth_quad_flight`]) for a closed loop.
    pub physics: bool,
    /// Flight-recorder handle for engine-level events (checkpoint resume,
    /// progress heartbeats, …). Never affects results and is excluded
    /// from the checkpoint fingerprint.
    pub telemetry: Telemetry,
    /// Minimum wall-clock milliseconds between `campaign.progress`
    /// heartbeats (plus one final beat when the run ends). Only matters
    /// when `telemetry` is attached; never affects results or the
    /// checkpoint fingerprint.
    pub progress_interval_ms: u64,
    /// Tenant namespace for multi-tenant campaign services. Tenant `0`
    /// (the default) leaves every derived stream — board, channel, fault,
    /// world — exactly where the single-tenant engine put it, so existing
    /// campaigns and their checkpoints are untouched. A nonzero tenant id
    /// is splitmix64-mixed into the stream base ([`CampaignConfig::
    /// stream_base`]), giving each tenant a disjoint seed namespace even
    /// when two tenants submit the same campaign seed. Part of the
    /// checkpoint fingerprint (it changes every outcome).
    pub tenant: u64,
    /// Cooperative shutdown flag. When set, workers stop *claiming* new
    /// jobs but finish the ones they hold, so the completed set remains a
    /// contiguous prefix of the job order and any checkpoint flushed
    /// afterwards is valid. Shared (`Arc`) so a signal handler or service
    /// thread can trip it from outside. Never affects results of the jobs
    /// that do run; excluded from the checkpoint fingerprint.
    pub interrupt: Arc<AtomicBool>,
    /// Seeded job sabotage for exercising the supervisor: makes chosen
    /// jobs panic, hang (non-terminating until the cycle-budget watchdog
    /// trips) or fail transiently. A chaos-test knob like the `FaultPlan`
    /// on a board's recovery pipeline, but aimed at the campaign engine
    /// itself, so it is **excluded from the checkpoint fingerprint**:
    /// quarantined outcomes are an artifact of the harness, not a
    /// different experiment. [`JobChaos::none`] (the default) draws
    /// nothing and leaves every job byte-identical to the unsupervised
    /// engine.
    pub sabotage: JobChaos,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x2015,
            boards: 8,
            scenarios: vec![Scenario::Benign, Scenario::V2Stealthy],
            loss_levels: vec![0.0],
            fault_levels: vec![0.0],
            warmup_cycles: 300_000,
            attack_cycles: 6_000_000,
            packet_gap_cycles: 1_500_000,
            gcs_capacity: 256,
            threads: 0,
            app: apps::tiny_test_app(),
            block_fusion: true,
            physics: false,
            telemetry: Telemetry::off(),
            progress_interval_ms: 500,
            tenant: 0,
            interrupt: Arc::new(AtomicBool::new(false)),
            sabotage: JobChaos::none(),
        }
    }
}

impl CampaignConfig {
    /// The seed every per-job stream derives from. Tenant 0 uses the
    /// campaign seed directly — byte-compatible with the pre-tenant
    /// engine. A nonzero tenant xors in a splitmix64 mix of the tenant id
    /// (on its own reserved stream), so tenants sharing a service — even
    /// sharing a campaign seed — draw disjoint board/channel/fault/world
    /// streams.
    pub fn stream_base(&self) -> u64 {
        if self.tenant == 0 {
            self.seed
        } else {
            self.seed ^ derive_seed(self.tenant, TENANT_STREAM)
        }
    }

    /// Total jobs in the campaign matrix.
    pub fn total_jobs(&self) -> usize {
        self.scenarios.len() * self.loss_levels.len() * self.fault_levels.len() * self.boards
    }

    /// Whether the cooperative shutdown flag has been tripped.
    pub fn interrupted(&self) -> bool {
        self.interrupt.load(Ordering::Relaxed)
    }

    /// The one check of a campaign matrix, shared by the CLI, campaign
    /// specs and every shard run: at least one board, no empty axis, a job
    /// count that fits in a u64, every rate a probability, and no two
    /// matrix cells that would fold into one report row or metrics
    /// series — a repeated scenario (aliases parse to the same one), a
    /// repeated loss or fault level (compared with `==`, so `-0` repeats
    /// `0`), or two loss levels that print alike at the report's 4
    /// decimals.
    pub fn validate(&self) -> Result<(), String> {
        let probability = |p: &f64| (0.0..=1.0).contains(p);
        if self.boards == 0 {
            return Err("boards must be at least 1".into());
        }
        if self.scenarios.is_empty() || self.loss_levels.is_empty() || self.fault_levels.is_empty()
        {
            return Err("the scenario, loss and fault lists must not be empty".into());
        }
        let axes = [
            self.scenarios.len(),
            self.loss_levels.len(),
            self.fault_levels.len(),
            self.boards,
        ];
        if axes
            .iter()
            .try_fold(1u64, |n, &a| n.checked_mul(a as u64))
            .is_none()
        {
            return Err(format!(
                "the campaign matrix ({} scenarios x {} loss x {} fault levels x {} boards) \
                 has more jobs than fit in a u64",
                axes[0], axes[1], axes[2], axes[3]
            ));
        }
        if let Some(s) = first_repeat(&self.scenarios, |a, b| a == b) {
            return Err(format!("scenario `{}` is listed twice", s.name()));
        }
        for (axis, levels) in [("loss", &self.loss_levels), ("fault", &self.fault_levels)] {
            if let Some(p) = levels.iter().find(|p| !probability(p)) {
                return Err(format!("{axis} level {p} is not a probability in 0..=1"));
            }
            if let Some(p) = first_repeat(levels, |a, b| a == b) {
                return Err(format!("{axis} level {p} is listed twice"));
            }
        }
        if let Some(l) = first_repeat(&self.loss_levels, |a, b| {
            format!("{a:.4}") == format!("{b:.4}")
        }) {
            return Err(format!(
                "loss level {l} prints as {l:.4} like an earlier level — \
                 their report rows and metrics series would merge"
            ));
        }
        let chaos = &self.sabotage;
        let rates = [chaos.panic_rate, chaos.hang_rate, chaos.flaky_rate];
        if let Some(p) = rates.iter().find(|p| !probability(p)) {
            return Err(format!("sabotage rate {p} is not a probability in 0..=1"));
        }
        Ok(())
    }
}

/// The first item of `items` that `same` pairs with an earlier one.
fn first_repeat<T>(items: &[T], same: impl Fn(&T, &T) -> bool) -> Option<&T> {
    items
        .iter()
        .enumerate()
        .find(|&(i, x)| items[..i].iter().any(|y| same(x, y)))
        .map(|(_, x)| x)
}

/// Stream index reserved for the tenant mix — disjoint from the board/
/// channel streams at `3b..`, the fault streams at `(1 << 63) | job` and
/// the world streams at `(1 << 62) | base` (bit 61, and too large for any
/// realistic `3b + 2`).
const TENANT_STREAM: u64 = 1 << 61;

/// Stream region reserved for job-sabotage draws — bit 60, disjoint from
/// every engine stream above. Each job owns eight slots (`job << 3 ..`):
/// slots `0..=5` are per-attempt transient draws, slot 6 the backoff
/// jitter, slot 7 the persistent panic/hang draw. Sabotage draws are also
/// keyed off [`JobChaos::seed`], not the campaign seed, so they can never
/// perturb a board even on a stream collision.
const SABOTAGE_STREAM: u64 = 1 << 60;

/// Seeded sabotage of campaign jobs — the supervisor's own chaos plan.
/// Modeled on [`mavr_board::ChaosConfig`]: rates are per-job (or
/// per-attempt) probabilities, draws are splitmix64 streams, and the
/// all-zero plan performs no draws at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobChaos {
    /// Probability a job is a poison job: it panics on **every** attempt
    /// and ends up quarantined with [`JobFailureKind::Panic`].
    pub panic_rate: f64,
    /// Probability a job never terminates: it flies past its cycle budget
    /// until the watchdog quarantines it with [`JobFailureKind::Timeout`].
    pub hang_rate: f64,
    /// Per-attempt probability of a transient panic. Independent draws
    /// per attempt, so a flaky job usually succeeds within the retry cap
    /// — this is what exercises retry-then-recover.
    pub flaky_rate: f64,
    /// Seed of the sabotage streams (independent of the campaign seed).
    pub seed: u64,
}

impl JobChaos {
    /// The inert plan: no draws, no sabotage, byte-identical engine
    /// behavior to a build without job supervision.
    pub fn none() -> Self {
        JobChaos {
            panic_rate: 0.0,
            hang_rate: 0.0,
            flaky_rate: 0.0,
            seed: 0,
        }
    }

    /// Whether this plan can never sabotage anything.
    pub fn is_none(&self) -> bool {
        self.panic_rate == 0.0 && self.hang_rate == 0.0 && self.flaky_rate == 0.0
    }
}

/// One entry of the campaign matrix, in job order.
#[derive(Debug, Clone, Copy)]
struct Job {
    scenario: Scenario,
    scenario_idx: usize,
    loss: f64,
    fault: f64,
    board_index: usize,
    job_index: usize,
    /// Fault-independent identity: jobs differing only in fault rate share
    /// it, so board and channel seeds (derived from it) are matched across
    /// the fault axis — a fault-rate sweep compares the *same* fleet under
    /// different chaos, not different fleets. Equals `job_index` when
    /// `fault_levels == [0.0]`, which keeps chaos-free campaigns
    /// byte-identical to the engine before the fault axis existed.
    base_index: usize,
}

/// Drain the board's downlink through its lossy channel into the
/// ground-station session.
fn pump(board: &mut MavrBoard, down: &mut LossyChannel, gcs: &mut GroundStation) {
    let bytes = board.downlink();
    if !bytes.is_empty() {
        let delivered = down.transmit(&bytes);
        gcs.ingest(&delivered);
    }
}

/// How a job's board advances: bare, or coupled to the physics arena.
/// The plain arm is exactly the pre-physics engine — physics-off
/// campaigns stay byte-identical to it.
enum Flyer {
    Plain(Box<MavrBoard>),
    Physics(Box<FlightHarness>),
}

impl Flyer {
    fn board(&self) -> &MavrBoard {
        match self {
            Flyer::Plain(b) => b,
            Flyer::Physics(h) => &h.board,
        }
    }

    fn board_mut(&mut self) -> &mut MavrBoard {
        match self {
            Flyer::Plain(b) => b,
            Flyer::Physics(h) => &mut h.board,
        }
    }

    /// Advance the flight: exactly `cycles` bare, or the enclosing whole
    /// number of world steps with physics on (boundary-aligned, so the
    /// rounding is identical however the campaign partitions the run).
    fn run(&mut self, cycles: u64) -> Result<(), MasterError> {
        match self {
            Flyer::Plain(b) => b.run(cycles),
            Flyer::Physics(h) => h.run_steps(cycles.div_ceil(CYCLES_PER_STEP)),
        }
    }
}

/// The fault plan a job flies under: inert (and entropy-free) at rate 0,
/// seeded otherwise from a stream (top bit set, keyed by the full job
/// index) disjoint from the board/channel streams (which sit at `3b`,
/// `3b+1`, `3b+2` of the fault-independent base index).
fn job_fault_plan(cfg: &CampaignConfig, job: Job) -> FaultPlan {
    if job.fault > 0.0 {
        FaultPlan::new(
            derive_seed(cfg.stream_base(), (1u64 << 63) | job.job_index as u64),
            ChaosConfig::uniform(job.fault),
        )
    } else {
        FaultPlan::none()
    }
}

/// Run one board through its scenario. Fully deterministic given the
/// config and job description.
///
/// A board whose recovery pipeline fails terminally (typed
/// [`mavr_board::MasterError`] after every retry and the degraded
/// fallback) does **not** abort the campaign: its flight ends where it
/// bricked and the outcome records the fact.
fn run_board(
    cfg: &CampaignConfig,
    flash: &ExternalFlash,
    payloads: Option<&[Vec<u8>]>,
    job: Job,
) -> BoardOutcome {
    let board = MavrBoard::from_uploaded(
        flash.clone(),
        job_board_seed(cfg, job),
        RandomizationPolicy::default(),
        Telemetry::off(),
        job_fault_plan(cfg, job),
    );
    fly_board(cfg, board, payloads, job)
}

/// The job's board (randomization) seed.
fn job_board_seed(cfg: &CampaignConfig, job: Job) -> u64 {
    derive_seed(cfg.stream_base(), job.base_index as u64 * 3)
}

/// Fly a provisioned board — seeded by [`job_board_seed`], under
/// [`job_fault_plan`] — through the job's scenario; a provisioning error
/// is a board bricked on the bench.
fn fly_board(
    cfg: &CampaignConfig,
    provisioned: Result<MavrBoard, MasterError>,
    payloads: Option<&[Vec<u8>]>,
    job: Job,
) -> BoardOutcome {
    let Ok(mut board) = provisioned else {
        // The very first boot exhausted its retries (there is no
        // last-known-good image yet): dead on the bench.
        return BoardOutcome {
            bricked: true,
            ..unflown_outcome(cfg, job)
        };
    };
    let stream_base = cfg.stream_base();
    let loss_cfg = LossConfig {
        drop: job.loss,
        corrupt: job.loss,
        duplicate: job.loss,
        delay: 0.0,
        max_delay: 0,
        seed: 0,
    };
    let mut up = LossyChannel::new(
        loss_cfg.with_seed(derive_seed(stream_base, job.base_index as u64 * 3 + 1)),
    );
    let mut down = LossyChannel::new(
        loss_cfg.with_seed(derive_seed(stream_base, job.base_index as u64 * 3 + 2)),
    );
    let mut gcs = GroundStation::with_capacity(cfg.gcs_capacity);
    board.app.machine.set_block_fusion(cfg.block_fusion);

    // The world's RNG stream lives at `(1 << 62) | base_index`: keyed by
    // the fault-independent base index (same physics draw whatever the
    // fault rate) and disjoint from the board/channel streams at `3b..`
    // and the fault streams at `(1 << 63) | job_index`.
    let mut flyer = if cfg.physics {
        let world_seed = derive_seed(stream_base, (1u64 << 62) | job.base_index as u64);
        Flyer::Physics(Box::new(FlightHarness::new(
            board,
            World::new(mavr_world::Scenario::Hover, world_seed),
        )))
    } else {
        Flyer::Plain(Box::new(board))
    };

    let mut bricked = false;
    let mut injected_at = None;
    let mut attack_packets = 0;
    'flight: {
        if flyer.run(cfg.warmup_cycles).is_err() {
            bricked = true;
            break 'flight;
        }
        pump(flyer.board_mut(), &mut down, &mut gcs);

        injected_at = Some(flyer.board().app.machine.cycles());
        // The altitude-excursion window opens at injection time: anything
        // the hover accumulated during warmup is the board's own business,
        // the attack window's peak isolates what the scenario cost it.
        if let Flyer::Physics(h) = &mut flyer {
            let _ = h.world.take_peak_alt_err();
        }
        attack_packets = payloads.map_or(0, <[Vec<u8>]>::len);
        if let Some(packets) = payloads {
            for (i, payload) in packets.iter().enumerate() {
                let wire = gcs.exploit_packet(payload).expect("payload fits a frame");
                flyer.board_mut().uplink(&up.transmit(&wire));
                if i + 1 < packets.len() {
                    if flyer.run(cfg.packet_gap_cycles).is_err() {
                        bricked = true;
                        break 'flight;
                    }
                    pump(flyer.board_mut(), &mut down, &mut gcs);
                }
            }
            flyer.board_mut().uplink(&up.flush());
        }
        if flyer.run(cfg.attack_cycles).is_err() {
            bricked = true;
        }
    }
    pump(flyer.board_mut(), &mut down, &mut gcs);
    gcs.ingest(&down.flush());

    let world = match &flyer {
        Flyer::Plain(_) => None,
        Flyer::Physics(h) => Some(WorldMetrics {
            peak_alt_err_m: h.world.peak_alt_err(),
            ground_impacts: h.world.ground_impacts(),
            alt_lost_m: h.alt_lost_to_recoveries(),
            recoveries_caught: h.recoveries_caught(),
        }),
    };
    let board = flyer.board();
    let block_stats = board.app.machine.block_stats();
    let attack_succeeded = attack_packets > 0
        && board.app.machine.peek_range(ATTACK_TARGET, 3) == ATTACK_VALUES.to_vec();
    let time_to_recovery = injected_at.and_then(|at| {
        board
            .recovery_cycles()
            .into_iter()
            .find(|&c| c >= at)
            .map(|c| c - at)
    });
    BoardOutcome {
        scenario: job.scenario,
        loss: job.loss,
        fault: job.fault,
        board_index: job.board_index,
        board_seed: job_board_seed(cfg, job),
        attack_packets,
        attack_succeeded,
        recoveries: board.recoveries(),
        reflash_retries: board.master.resilience.reflash_retries,
        degraded_boots: board.master.resilience.degraded_boots,
        bricked,
        time_to_recovery,
        final_cycle: board.app.machine.cycles(),
        heartbeats: gcs.heartbeats.total(),
        packets: gcs.packets_parsed(),
        seq_gaps: gcs.seq_gaps_total(),
        packets_lost: gcs.packets_lost(),
        bad_checksums: gcs.bad_checksums(),
        uav_bad_crc: board.app.machine.peek_data(layout::BAD_CRC_COUNT),
        sim_block_hits: block_stats.hits,
        sim_block_invalidations: block_stats.invalidations,
        sim_block_count: block_stats.blocks,
        up_stats: up.stats,
        down_stats: down.stats,
        world,
        failure: None,
    }
}

/// Supervised retry cap: attempts a job gets before quarantine. The cap
/// is part of the quarantine record on the wire (`attempts`), so changing
/// it changes sabotaged reports — but never fault-free ones.
pub(crate) const JOB_RETRY_CAP: u32 = 3;

/// First-retry backoff; doubles per attempt, plus seeded jitter.
const JOB_BACKOFF_BASE_MS: u64 = 1;

/// Hard upper bound on the cycles a well-behaved job may consume — the
/// supervisor's watchdog. Deliberately loose: the worst-case flight
/// (warmup, every packet gap an attack scenario can schedule, the attack
/// window) plus world-step rounding slack per segment. The simulator is
/// cycle-bounded by construction, so only a sabotaged (or genuinely
/// non-terminating) firmware can ever reach it.
fn job_cycle_budget(cfg: &CampaignConfig) -> u64 {
    cfg.warmup_cycles
        .saturating_add(cfg.attack_cycles)
        .saturating_add(cfg.packet_gap_cycles.saturating_mul(14))
        .saturating_add(CYCLES_PER_STEP * 16)
}

/// What the sabotage plan does to one attempt at one job.
enum Sabotage {
    Pass,
    Panic,
    Hang,
}

fn sabotage_mode(cfg: &CampaignConfig, job: Job, attempt: u32) -> Sabotage {
    let sb = &cfg.sabotage;
    if sb.is_none() {
        return Sabotage::Pass;
    }
    let slots = SABOTAGE_STREAM | ((job.job_index as u64) << 3);
    // Slot 7: the job's persistent fate — the same draw on every attempt,
    // which is what makes a poison job *persistently* failing and its
    // quarantine deterministic.
    let fate = unit_f64(derive_seed(sb.seed, slots | 7));
    if fate < sb.panic_rate {
        return Sabotage::Panic;
    }
    if fate < sb.panic_rate + sb.hang_rate {
        return Sabotage::Hang;
    }
    // Slots 0..=5: independent per-attempt transient draws.
    if sb.flaky_rate > 0.0 {
        let transient = unit_f64(derive_seed(sb.seed, slots | u64::from(attempt.min(5))));
        if transient < sb.flaky_rate {
            return Sabotage::Panic;
        }
    }
    Sabotage::Pass
}

/// A sabotaged non-terminating flight: the board keeps flying until the
/// cycle-budget watchdog trips. This is the watchdog's proof that it
/// actually bounds a runaway job — the loop's only exit is the budget.
fn fly_until_watchdog(cfg: &CampaignConfig, flash: &ExternalFlash, job: Job) -> JobFailureKind {
    let budget = job_cycle_budget(cfg);
    let Ok(mut board) = MavrBoard::from_uploaded(
        flash.clone(),
        job_board_seed(cfg, job),
        RandomizationPolicy::default(),
        Telemetry::off(),
        FaultPlan::none(),
    ) else {
        return JobFailureKind::Timeout;
    };
    board.app.machine.set_block_fusion(cfg.block_fusion);
    let chunk = (budget / 8).max(4096);
    while board.app.machine.cycles() <= budget {
        if board.run(chunk).is_err() {
            // Bricked mid-hang: it is still never going to finish.
            break;
        }
    }
    JobFailureKind::Timeout
}

/// One supervised attempt at a job: apply the sabotage plan, fly, and
/// check the watchdog. Panics (sabotaged or genuine) are caught one level
/// up in [`run_board_supervised`].
fn run_board_attempt(
    cfg: &CampaignConfig,
    flash: &ExternalFlash,
    payloads: Option<&[Vec<u8>]>,
    job: Job,
    attempt: u32,
) -> Result<BoardOutcome, JobFailureKind> {
    match sabotage_mode(cfg, job, attempt) {
        Sabotage::Pass => {}
        Sabotage::Panic => panic!(
            "sabotage: poison job {} panicking on attempt {attempt}",
            job.job_index
        ),
        Sabotage::Hang => return Err(fly_until_watchdog(cfg, flash, job)),
    }
    let outcome = run_board(cfg, flash, payloads, job);
    if outcome.final_cycle > job_cycle_budget(cfg) {
        return Err(JobFailureKind::Timeout);
    }
    Ok(outcome)
}

/// Deterministic exponential backoff before retry `attempt + 1`: base
/// doubles per attempt, jitter is a seeded draw (slot 6 of the job's
/// sabotage stream) — wall-clock only, never on the wire, so reports stay
/// byte-identical however long the retries actually slept.
fn job_backoff(cfg: &CampaignConfig, job: Job, attempt: u32) -> Duration {
    let base = JOB_BACKOFF_BASE_MS << attempt;
    let jitter = derive_seed(
        cfg.sabotage.seed,
        SABOTAGE_STREAM | ((job.job_index as u64) << 3) | 6,
    ) % base.max(1);
    Duration::from_millis(base + jitter)
}

/// Run one job inside its fault domain: `catch_unwind` so a panicking
/// board kills the attempt and not the worker, the cycle-budget watchdog
/// so a non-terminating board becomes a typed `Timeout`, bounded retries
/// with deterministic backoff, and — when every attempt fails — a
/// quarantined outcome that flows through the JSONL/checkpoint wire like
/// any other result. A failing job therefore *never* aborts a shard and
/// is never silently dropped.
fn run_board_supervised(
    cfg: &CampaignConfig,
    flash: &ExternalFlash,
    payloads: Option<&[Vec<u8>]>,
    job: Job,
) -> BoardOutcome {
    let mut last = JobFailureKind::Panic;
    for attempt in 0..JOB_RETRY_CAP {
        match catch_unwind(AssertUnwindSafe(|| {
            run_board_attempt(cfg, flash, payloads, job, attempt)
        })) {
            Ok(Ok(outcome)) => return outcome,
            Ok(Err(kind)) => last = kind,
            Err(_panic_payload) => last = JobFailureKind::Panic,
        }
        cfg.telemetry.emit(kinds::JOB_RETRIED, None, || {
            vec![
                ("job", Value::U64(job.job_index as u64)),
                ("attempt", Value::U64(u64::from(attempt))),
                ("kind", Value::Str(last.name().to_string())),
            ]
        });
        if attempt + 1 < JOB_RETRY_CAP {
            std::thread::sleep(job_backoff(cfg, job, attempt));
        }
    }
    cfg.telemetry.emit(kinds::JOB_QUARANTINED, None, || {
        vec![
            ("job", Value::U64(job.job_index as u64)),
            ("kind", Value::Str(last.name().to_string())),
            ("attempts", Value::U64(u64::from(JOB_RETRY_CAP))),
        ]
    });
    let failure = JobFailure {
        kind: last,
        attempts: JOB_RETRY_CAP,
    };
    BoardOutcome {
        failure: Some(failure),
        ..unflown_outcome(cfg, job)
    }
}

/// The outcome of a job that never flew: real matrix coordinates (so cell
/// accounting and checkpoint contiguity hold) and zeroed observations.
fn unflown_outcome(cfg: &CampaignConfig, job: Job) -> BoardOutcome {
    BoardOutcome {
        scenario: job.scenario,
        loss: job.loss,
        fault: job.fault,
        board_index: job.board_index,
        board_seed: job_board_seed(cfg, job),
        attack_packets: 0,
        attack_succeeded: false,
        recoveries: 0,
        reflash_retries: 0,
        degraded_boots: 0,
        bricked: false,
        time_to_recovery: None,
        final_cycle: 0,
        heartbeats: 0,
        packets: 0,
        seq_gaps: 0,
        packets_lost: 0,
        bad_checksums: 0,
        uav_bad_crc: 0,
        sim_block_hits: 0,
        sim_block_invalidations: 0,
        sim_block_count: 0,
        up_stats: ChannelStats::default(),
        down_stats: ChannelStats::default(),
        world: None,
        failure: None,
    }
}

/// Per-campaign artifacts every job shares — the external flash chip
/// holding the (unprotected) firmware's container, and one canned payload
/// set per scenario — prepared once and shared across shard runs, so a
/// service running thousands of shards doesn't rebuild the firmware,
/// re-upload its container or re-craft the payload set per shard.
pub struct PreparedCampaign {
    flash: ExternalFlash,
    payloads: Vec<Option<Vec<Vec<u8>>>>,
}

impl PreparedCampaign {
    /// Build the campaign's firmware image, preprocess it and upload the
    /// container once, and craft the per-scenario payload set.
    ///
    /// Every job's board is built on a clone of that one chip (clones
    /// share the stored cells). When the container cannot be made or does
    /// not fit, the chip stays erased, and every board fails its first
    /// boot reading it — exactly where a per-board upload would have
    /// failed its provisioning.
    pub fn new(cfg: &CampaignConfig) -> Self {
        let fw = build(&cfg.app, &BuildOptions::vulnerable_mavr()).expect("campaign app builds");
        let mut flash = ExternalFlash::new();
        if let Ok(container) = mavr::preprocess(&fw.image) {
            // A refused upload leaves the chip erased (see above).
            let _ = flash.upload(&container);
        }
        let ctx = AttackContext::discover(&fw.image).expect("attack discovery on campaign app");
        // One payload set per scenario, crafted against the unprotected image.
        let payloads = cfg
            .scenarios
            .iter()
            .map(|s| {
                s.attack_kind().map(|k| {
                    ctx.packets(k, &[(ATTACK_TARGET, ATTACK_VALUES)])
                        .expect("payload builds")
                })
            })
            .collect();
        PreparedCampaign { flash, payloads }
    }
}

/// The job at position `index` of the campaign matrix, computed directly
/// from the index arithmetic (matrix order is scenario-major: scenario,
/// then loss, then fault, then board). This is the *definition* of the job
/// order; shard runners evaluate it lazily so a million-job campaign never
/// allocates a million-entry list.
fn job_at(cfg: &CampaignConfig, index: usize) -> Job {
    let per_fault = cfg.boards;
    let per_loss = cfg.fault_levels.len() * per_fault;
    let per_scenario = cfg.loss_levels.len() * per_loss;
    let scenario_idx = index / per_scenario;
    let loss_idx = (index % per_scenario) / per_loss;
    let fault_idx = (index % per_loss) / per_fault;
    let board_index = index % per_fault;
    Job {
        scenario: cfg.scenarios[scenario_idx],
        scenario_idx,
        loss: cfg.loss_levels[loss_idx],
        fault: cfg.fault_levels[fault_idx],
        board_index,
        job_index: index,
        base_index: (scenario_idx * cfg.loss_levels.len() + loss_idx) * cfg.boards + board_index,
    }
}

/// Wall-clock-throttled `campaign.progress` heartbeat emitter, shared by
/// every worker thread. Heartbeats are the **only** place wall-clock
/// numbers (elapsed time, boards·cycles/sec) appear — they ride the
/// telemetry bus, never the report or the metrics registry, so results
/// stay byte-identical across machines and runs.
struct ProgressMeter<'a> {
    telemetry: &'a Telemetry,
    /// Jobs completed before this call (resume picks up mid-campaign).
    done_offset: usize,
    /// Full campaign matrix size, not just this call's batch.
    grand_total: usize,
    interval: Duration,
    started: Instant,
    done: AtomicUsize,
    cycles: AtomicU64,
    attacks: AtomicUsize,
    recoveries: AtomicUsize,
    bricked: AtomicUsize,
    last_emit: Mutex<Instant>,
}

impl<'a> ProgressMeter<'a> {
    fn new(cfg: &'a CampaignConfig, done_offset: usize, grand_total: usize) -> Self {
        let now = Instant::now();
        ProgressMeter {
            telemetry: &cfg.telemetry,
            done_offset,
            grand_total,
            interval: Duration::from_millis(cfg.progress_interval_ms),
            started: now,
            done: AtomicUsize::new(0),
            cycles: AtomicU64::new(0),
            attacks: AtomicUsize::new(0),
            recoveries: AtomicUsize::new(0),
            bricked: AtomicUsize::new(0),
            last_emit: Mutex::new(now),
        }
    }

    /// Account one finished job and emit a heartbeat if the throttle
    /// window has elapsed.
    fn observe(&self, o: &BoardOutcome) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.cycles.fetch_add(o.final_cycle, Ordering::Relaxed);
        if o.attack_succeeded {
            self.attacks.fetch_add(1, Ordering::Relaxed);
        }
        self.recoveries.fetch_add(o.recoveries, Ordering::Relaxed);
        if o.bricked {
            self.bricked.fetch_add(1, Ordering::Relaxed);
        }
        self.emit(false);
    }

    fn emit(&self, force: bool) {
        if !self.telemetry.is_active() {
            return;
        }
        let now = Instant::now();
        {
            let mut last = self.last_emit.lock().expect("no poisoned meter");
            if !force && now.duration_since(*last) < self.interval {
                return;
            }
            *last = now;
        }
        let cycles = self.cycles.load(Ordering::Relaxed);
        let elapsed = now.duration_since(self.started).as_secs_f64();
        let rate = if elapsed > 0.0 {
            cycles as f64 / elapsed
        } else {
            0.0
        };
        let done_here = self.done.load(Ordering::Relaxed);
        let done = (self.done_offset + done_here) as u64;
        // Jobs/sec and the ETA derive from *this run's* throughput: a
        // resume that already holds half the campaign shouldn't claim the
        // historical average of a machine it may not be running on.
        let jobs_per_sec = if elapsed > 0.0 {
            done_here as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.grand_total.saturating_sub(done as usize);
        let eta_s = if jobs_per_sec > 0.0 {
            remaining as f64 / jobs_per_sec
        } else {
            0.0
        };
        let (attacks, recoveries, bricked) = (
            self.attacks.load(Ordering::Relaxed) as u64,
            self.recoveries.load(Ordering::Relaxed) as u64,
            self.bricked.load(Ordering::Relaxed) as u64,
        );
        self.telemetry.emit(kinds::CAMPAIGN_PROGRESS, None, || {
            vec![
                ("jobs_done", Value::U64(done)),
                ("jobs_total", Value::U64(self.grand_total as u64)),
                ("sim_cycles", Value::U64(cycles)),
                ("attack_successes", Value::U64(attacks)),
                ("recoveries", Value::U64(recoveries)),
                ("bricked", Value::U64(bricked)),
                ("elapsed_ms", Value::F64(elapsed * 1000.0)),
                ("boards_cycles_per_sec", Value::F64(rate)),
                ("jobs_per_sec", Value::F64(jobs_per_sec)),
                ("eta_s", Value::F64(eta_s)),
            ]
        });
    }
}

/// Run the campaign matrix's jobs whose indices lie in `jobs` over the
/// worker pool, **streaming** each outcome to `sink` in job order as soon
/// as its prefix is complete — the campaign never holds more finished
/// boards in memory than the workers are ahead of the slowest job.
///
/// Each worker claims the next index from a shared counter, builds its
/// job with [`job_at`] and sends `(index, outcome)` over one channel; the
/// caller's thread drains the channel in index order until the last
/// worker hangs up. The claimed set is always a prefix of `jobs`: when
/// `cfg.interrupt` trips, workers stop claiming but finish what they hold,
/// which is exactly what makes a post-interrupt checkpoint valid. A
/// worker that panics outside the job's fault domain hangs up too, so the
/// drain ends and the panic propagates out of the scope; a panicking
/// `sink` drops the receiver, which stops every worker at its next send.
///
/// Returns the number of jobs that ran (fewer than `jobs` spans only when
/// interrupted).
fn execute_jobs_streaming(
    cfg: &CampaignConfig,
    prepared: &PreparedCampaign,
    jobs: std::ops::Range<u64>,
    meter: &ProgressMeter<'_>,
    mut sink: impl FnMut(u64, BoardOutcome),
) -> usize {
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.threads
    }
    .clamp(1, (jobs.end - jobs.start).max(1) as usize);

    let next = &AtomicU64::new(jobs.start);
    let (done, outcomes) = mpsc::channel();
    let mut emitted = jobs.start;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let done = done.clone();
            s.spawn(move || {
                while !cfg.interrupted() {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= jobs.end {
                        break;
                    }
                    let job = job_at(cfg, index as usize);
                    // The job's fault domain: panics, hangs and retries
                    // all stay inside this call — a poison job yields a
                    // quarantined outcome, never a dead worker.
                    let outcome = run_board_supervised(
                        cfg,
                        &prepared.flash,
                        prepared.payloads[job.scenario_idx].as_deref(),
                        job,
                    );
                    meter.observe(&outcome);
                    if done.send((index, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done);
        // In-order drain, on the caller's thread: emit job `k` only after
        // every earlier job. The channel is unbounded, so a slow sink
        // (disk writes) never blocks the workers.
        let mut ready = BTreeMap::new();
        for (index, outcome) in outcomes {
            ready.insert(index, outcome);
            while let Some(outcome) = ready.remove(&emitted) {
                sink(emitted, outcome);
                emitted += 1;
            }
        }
    });
    meter.emit(true);
    (emitted - jobs.start) as usize
}

/// The report-header echo of a config — what `"config"` serializes to in
/// the report JSON. Public so external mergers (the campaign service) can
/// stream [`json_prelude`] without assembling a whole report.
pub fn summarize(cfg: &CampaignConfig) -> CampaignSummary {
    CampaignSummary {
        seed: cfg.seed,
        boards: cfg.boards,
        scenarios: cfg.scenarios.iter().map(Scenario::name).collect(),
        loss_levels: cfg.loss_levels.clone(),
        fault_levels: cfg.fault_levels.clone(),
        warmup_cycles: cfg.warmup_cycles,
        attack_cycles: cfg.attack_cycles,
        app: cfg.app.name.to_string(),
        physics: cfg.physics,
    }
}

/// Run the full campaign matrix: `scenarios × loss_levels × fault_levels
/// × boards` jobs, distributed over a worker pool, stitched back in job
/// order. One in-memory [`ShardCheckpoint`] over the whole job space, run
/// by [`run_shard_resume`] and folded by [`merge_shard_checkpoints`]; the
/// campaign's metrics are [`CampaignReport::metrics`].
///
/// # Panics
///
/// If `cfg` fails [`CampaignConfig::validate`].
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut shard = ShardCheckpoint::whole_campaign(cfg);
    run_shard_resume(
        cfg,
        &PreparedCampaign::new(cfg),
        &mut shard,
        None,
        0,
        |_, _| {},
    )
    .unwrap_or_else(|e| panic!("run_campaign: {e}"));
    merge_shard_checkpoints(cfg, vec![shard])
        .expect("only a tripped cfg.interrupt leaves run_campaign's shard incomplete")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            boards: 2,
            scenarios: vec![Scenario::Benign, Scenario::V2Stealthy],
            loss_levels: vec![0.0],
            attack_cycles: 4_000_000,
            ..CampaignConfig::default()
        }
    }

    /// Resume a whole-campaign shard the way `fleet --checkpoint` does:
    /// fly at most `budget` pending jobs, and merge the report once the
    /// shard is complete.
    fn resume(
        cfg: &CampaignConfig,
        shard: &mut ShardCheckpoint,
        budget: Option<usize>,
    ) -> Result<Option<CampaignReport>, String> {
        let done = shard.outcomes.len();
        let prepared = PreparedCampaign::new(cfg);
        run_shard_resume(cfg, &prepared, shard, budget, done, |_, _| {})?;
        Ok(shard
            .complete()
            .then(|| merge_shard_checkpoints(cfg, vec![shard.clone()]).unwrap().0))
    }

    #[test]
    fn shared_chip_flies_exactly_like_a_private_upload() {
        // The oracle for uploading once per campaign: every job flown on a
        // clone of the campaign's chip must match the same job flown on a
        // board that preprocessed and uploaded the image itself — fault
        // free, and at a bit-rot rate that forces container re-reads and
        // reflash retries — and the chaos reads must leave the shared
        // cells as uploaded.
        let cfg = CampaignConfig {
            boards: 3,
            scenarios: vec![Scenario::V1Crash, Scenario::V2Stealthy],
            loss_levels: vec![0.0],
            fault_levels: vec![0.0, 2e-4],
            attack_cycles: 1_000_000,
            ..CampaignConfig::default()
        };
        let prepared = PreparedCampaign::new(&cfg);
        let cells =
            |chip: &ExternalFlash| -> Vec<u8> { (0..).map_while(|i| chip.read_byte(i)).collect() };
        let uploaded = cells(&prepared.flash);
        assert!(
            !uploaded.is_empty(),
            "the campaign chip holds the container"
        );
        let image = build(&cfg.app, &BuildOptions::vulnerable_mavr())
            .unwrap()
            .image;
        let mut retries = 0;
        for index in 0..cfg.total_jobs() {
            let job = job_at(&cfg, index);
            let payloads = prepared.payloads[job.scenario_idx].as_deref();
            let shared = run_board(&cfg, &prepared.flash, payloads, job);
            let private = MavrBoard::provision_chaos(
                &image,
                job_board_seed(&cfg, job),
                RandomizationPolicy::default(),
                Telemetry::off(),
                job_fault_plan(&cfg, job),
            );
            assert_eq!(
                shared,
                fly_board(&cfg, private, payloads, job),
                "job {index}"
            );
            retries += shared.reflash_retries;
        }
        assert!(
            retries > 0,
            "the faulted cells must exercise the retry path"
        );
        assert_eq!(
            cells(&prepared.flash),
            uploaded,
            "chaos reads left the chip as uploaded"
        );
    }

    #[test]
    fn benign_cell_is_quiet_and_attack_cell_never_succeeds() {
        let report = run_campaign(&small_cfg());
        assert_eq!(report.cells.len(), 2);
        let benign = &report.cells[0];
        assert_eq!(benign.scenario, Scenario::Benign);
        assert_eq!(benign.boards_recovered, 0, "benign boards never recover");
        assert_eq!(benign.attack_successes, 0);
        assert!(benign.heartbeats > 0, "telemetry flows");
        assert_eq!(benign.seq_gaps, 0, "perfect link drops nothing");
        let attacked = &report.cells[1];
        assert_eq!(
            attacked.attack_successes, 0,
            "randomized fleet defeats the canned exploit"
        );
        assert_eq!(report.fleet.links, 4);
        assert_eq!(report.outcomes.len(), 4);
        // Distinct boards draw distinct randomization seeds.
        assert_ne!(report.outcomes[0].board_seed, report.outcomes[1].board_seed);
    }

    #[test]
    fn seed_changes_the_fleet() {
        let a = run_campaign(&small_cfg());
        let b = run_campaign(&CampaignConfig {
            seed: 0x2016,
            ..small_cfg()
        });
        assert_ne!(
            a.outcomes[0].board_seed, b.outcomes[0].board_seed,
            "campaign seed drives board seeds"
        );
    }

    #[test]
    fn derive_seed_streams_are_distinct() {
        let s: std::collections::BTreeSet<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn chaos_campaign_is_deterministic_and_faults_bite() {
        let cfg = CampaignConfig {
            boards: 2,
            scenarios: vec![Scenario::V2Stealthy],
            fault_levels: vec![0.0, 0.0005],
            attack_cycles: 3_000_000,
            threads: 1,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&CampaignConfig {
            threads: 8,
            ..cfg.clone()
        });
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "chaos campaigns are thread-count invariant"
        );

        assert_eq!(a.cells.len(), 2);
        // The clean cell never touches the chaos machinery…
        let clean = &a.cells[0];
        assert_eq!(clean.fault, 0.0);
        assert_eq!(clean.reflash_retries, 0);
        assert_eq!(clean.degraded_boots, 0);
        assert_eq!(clean.boards_bricked, 0);
        // …while the faulted cell visibly exercises the recovery pipeline
        // (bit flips on the reflash stream force retries).
        let noisy = &a.cells[1];
        assert!(noisy.fault > 0.0);
        assert!(
            noisy.reflash_retries > 0,
            "fault injection never tripped a retry: {noisy:?}"
        );
        // Whatever chaos did, the canned exploit still never lands.
        assert_eq!(noisy.attack_successes, 0);
    }

    #[test]
    fn fault_zero_matches_the_chaos_free_engine() {
        // `fault_levels: [0.0]` must not merely be *close* to the
        // pre-chaos engine — the inert fault plan consumes no entropy, so
        // the report must be byte-identical to the default config's.
        let a = run_campaign(&small_cfg());
        let b = run_campaign(&CampaignConfig {
            fault_levels: vec![0.0],
            ..small_cfg()
        });
        assert_eq!(a.to_json(), b.to_json());
        assert!(a
            .outcomes
            .iter()
            .all(|o| !o.bricked && o.reflash_retries == 0 && o.degraded_boots == 0));
    }

    #[test]
    fn poison_jobs_are_quarantined_not_fatal() {
        // Every job is a poison job, yet the campaign completes with a
        // full outcome list and explicit quarantine accounting — and the
        // result is thread-count invariant like any other campaign.
        let cfg = CampaignConfig {
            sabotage: JobChaos {
                panic_rate: 1.0,
                ..JobChaos::none()
            },
            threads: 1,
            ..small_cfg()
        };
        let report = run_campaign(&cfg);
        let wide = run_campaign(&CampaignConfig {
            threads: 4,
            ..cfg.clone()
        });
        let metrics = report.metrics();
        assert_eq!(report.to_json(), wide.to_json());
        assert_eq!(metrics.to_prometheus(), wide.metrics().to_prometheus());

        assert_eq!(report.outcomes.len(), cfg.total_jobs());
        for o in &report.outcomes {
            let f = o.failure.expect("poison job carries a failure record");
            assert_eq!(f.kind, JobFailureKind::Panic);
            assert_eq!(f.attempts, JOB_RETRY_CAP);
            assert_eq!(o.final_cycle, 0);
            assert!(o.to_json_line().contains("\"failure\":\"panic\""));
        }
        for cell in &report.cells {
            assert_eq!(cell.jobs_quarantined, cell.boards);
        }
        assert!(report.to_json().contains("\"jobs_quarantined\":2"));
        assert!(metrics
            .to_prometheus()
            .contains("campaign_jobs_quarantined_total"));
        // The harness knob is invisible to the checkpoint identity.
        assert_eq!(
            config_fingerprint(&cfg),
            config_fingerprint(&small_cfg()),
            "sabotage must not change the checkpoint fingerprint"
        );
    }

    #[test]
    fn flaky_jobs_retry_transparently() {
        // Transient failures burn retries, never results: every job that
        // eventually succeeded must be byte-identical to the clean run's,
        // and the quarantined remainder (if any) is explicitly typed.
        let clean = run_campaign(&small_cfg());
        let flaky = run_campaign(&CampaignConfig {
            sabotage: JobChaos {
                flaky_rate: 0.5,
                seed: 0xf1a5,
                ..JobChaos::none()
            },
            ..small_cfg()
        });
        assert_eq!(clean.outcomes.len(), flaky.outcomes.len());
        let mut survived = 0;
        for (c, f) in clean.outcomes.iter().zip(&flaky.outcomes) {
            if let Some(failure) = f.failure {
                assert_eq!(failure.attempts, JOB_RETRY_CAP);
            } else {
                assert_eq!(c, f, "a retried-then-successful job must be untouched");
                survived += 1;
            }
        }
        assert!(survived > 0, "flaky rate 0.5 should let some jobs through");
        // Determinism: the same sabotage seed reproduces the same report.
        let again = run_campaign(&CampaignConfig {
            sabotage: JobChaos {
                flaky_rate: 0.5,
                seed: 0xf1a5,
                ..JobChaos::none()
            },
            ..small_cfg()
        });
        assert_eq!(flaky.to_json(), again.to_json());
    }

    #[test]
    fn hanging_jobs_trip_the_cycle_watchdog() {
        // A non-terminating board must come back as a typed Timeout once
        // its cycle budget expires — tiny cycle counts keep the sabotaged
        // overrun cheap.
        let report = run_campaign(&CampaignConfig {
            boards: 1,
            scenarios: vec![Scenario::Benign],
            warmup_cycles: 40_000,
            attack_cycles: 80_000,
            packet_gap_cycles: 10_000,
            sabotage: JobChaos {
                hang_rate: 1.0,
                ..JobChaos::none()
            },
            ..CampaignConfig::default()
        });
        assert_eq!(report.outcomes.len(), 1);
        let f = report.outcomes[0].failure.expect("hung job is quarantined");
        assert_eq!(f.kind, JobFailureKind::Timeout);
        assert!(report.outcomes[0]
            .to_json_line()
            .contains("\"failure\":\"timeout\""));
    }

    #[test]
    fn fusion_toggle_is_invisible_in_reports_but_visible_in_metrics() {
        let fused = run_campaign(&small_cfg());
        let plain = run_campaign(&CampaignConfig {
            block_fusion: false,
            ..small_cfg()
        });
        let (fused_metrics, plain_metrics) = (fused.metrics(), plain.metrics());
        // The engine toggle must be architecturally invisible: identical
        // report JSON and JSONL, byte for byte.
        assert_eq!(fused.to_json(), plain.to_json());
        assert_eq!(fused.to_jsonl(), plain.to_jsonl());
        // But the engine counters tell the two runs apart in the metrics
        // plane: fused boards dispatch blocks, unfused boards dispatch none.
        assert!(
            fused.outcomes.iter().all(|o| o.sim_block_hits > 0),
            "every fused board dispatches blocks"
        );
        assert!(plain.outcomes.iter().all(|o| o.sim_block_hits == 0));
        assert!(fused_metrics
            .to_prometheus()
            .contains("campaign_sim_block_hits_total"));
        assert_ne!(fused_metrics.to_prometheus(), plain_metrics.to_prometheus());
    }

    #[test]
    fn checkpointed_campaign_is_byte_identical_to_uninterrupted() {
        let cfg = small_cfg();
        let uninterrupted = run_campaign(&cfg);
        let uninterrupted_metrics = uninterrupted.metrics();

        // Kill after one job, serialize the checkpoint, resume in a second
        // "process" (fresh checkpoint from bytes) with a different thread
        // count and telemetry attached.
        let mut ckpt = ShardCheckpoint::whole_campaign(&cfg);
        assert!(resume(&cfg, &mut ckpt, Some(1)).unwrap().is_none());
        assert_eq!(ckpt.outcomes.len(), 1);
        let blob = ckpt.to_bytes();

        let resumed_cfg = CampaignConfig {
            threads: 3,
            telemetry: Telemetry::new(telemetry::RingRecorder::new(8)),
            ..small_cfg()
        };
        let mut ckpt2 = ShardCheckpoint::from_bytes(&blob).unwrap();
        let report = resume(&resumed_cfg, &mut ckpt2, None)
            .unwrap()
            .expect("all remaining jobs fit in an unbounded budget");
        assert_eq!(report.to_json(), uninterrupted.to_json());
        // Metrics survive the kill/serialize/resume cycle byte-identically
        // too: the registry is a pure fold over outcomes.
        assert_eq!(
            report.metrics().to_prometheus(),
            uninterrupted_metrics.to_prometheus()
        );
        assert_eq!(
            report.metrics().to_jsonl(),
            uninterrupted_metrics.to_jsonl()
        );
        resumed_cfg
            .telemetry
            .with_recorder::<telemetry::RingRecorder, _>(|r| {
                assert_eq!(r.histogram()[kinds::CHECKPOINT_RESUMED], 1);
            })
            .unwrap();

        // A checkpoint from a different campaign is refused.
        let other = CampaignConfig {
            seed: 0x9999,
            ..small_cfg()
        };
        assert!(resume(
            &other,
            &mut ShardCheckpoint::from_bytes(&blob).unwrap(),
            None
        )
        .is_err());
    }

    fn physics_cfg() -> CampaignConfig {
        CampaignConfig {
            boards: 2,
            scenarios: vec![Scenario::Benign, Scenario::V1Crash],
            attack_cycles: 3_000_000,
            app: apps::synth_quad_flight(),
            physics: true,
            threads: 1,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn physics_campaign_reports_impact_and_is_thread_invariant() {
        let cfg = physics_cfg();
        let a = run_campaign(&cfg);
        let b = run_campaign(&CampaignConfig {
            threads: 8,
            ..cfg.clone()
        });
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "physics campaigns are thread-count invariant"
        );
        assert!(a.to_json().contains("\"physics\":true"));

        let benign = a.cells[0].world.expect("physics cells carry world metrics");
        assert_eq!(
            benign.boards_crashed, 0,
            "a benign hover never hits the ground"
        );
        assert!(
            benign.peak_alt_err_m < 5.0,
            "hover stays near setpoint, saw {benign:?}"
        );

        let v1_cell = &a.cells[1];
        let v1 = v1_cell.world.expect("physics cells carry world metrics");
        assert!(
            v1_cell.boards_recovered > 0,
            "the crash attack trips recoveries: {v1_cell:?}"
        );
        assert!(
            v1.recoveries_caught > 0,
            "the harness replays every recovery outage: {v1:?}"
        );
        assert!(
            v1.alt_lost_m > 0.0,
            "thrust-cut outages cost altitude: {v1:?}"
        );
        assert!(v1.alt_lost_per_recovery_m().unwrap() > 0.0);
    }

    #[test]
    fn physics_off_report_carries_no_world_keys() {
        // The physics axis must be invisible when off: no impact columns
        // on outcome lines, cells, the summary header, or the metrics
        // plane — the report is the pre-physics engine's, byte for byte.
        let report = run_campaign(&small_cfg());
        let metrics = report.metrics();
        for text in [report.to_json(), report.to_jsonl(), report.render()] {
            assert!(!text.contains("peak_alt_err_m"));
            assert!(!text.contains("physics"));
        }
        assert!(!metrics.to_prometheus().contains("campaign_ground_impacts"));
        assert!(report.outcomes.iter().all(|o| o.world.is_none()));
    }

    #[test]
    fn physics_checkpoint_resume_is_byte_identical() {
        let cfg = physics_cfg();
        let uninterrupted = run_campaign(&cfg);

        let mut ckpt = ShardCheckpoint::whole_campaign(&cfg);
        assert!(resume(&cfg, &mut ckpt, Some(1)).unwrap().is_none());
        let blob = ckpt.to_bytes();
        let mut ckpt2 = ShardCheckpoint::from_bytes(&blob).unwrap();
        let report = resume(
            &CampaignConfig {
                threads: 4,
                ..cfg.clone()
            },
            &mut ckpt2,
            None,
        )
        .unwrap()
        .expect("all remaining jobs fit in an unbounded budget");
        assert_eq!(report.to_json(), uninterrupted.to_json());

        // A bare (physics-off) config must refuse a physics checkpoint:
        // the two result families never mix.
        let bare = CampaignConfig {
            physics: false,
            ..cfg.clone()
        };
        assert!(resume(
            &bare,
            &mut ShardCheckpoint::from_bytes(&blob).unwrap(),
            None
        )
        .is_err());
    }

    #[test]
    fn tenants_partition_the_seed_space_without_collisions() {
        // Tenant 0 is the identity: `stream_base` must be the raw seed, so
        // every pre-tenant campaign result survives unchanged.
        let cfg = small_cfg();
        assert_eq!(cfg.stream_base(), cfg.seed);

        // Distinct tenants on the same seed get fully disjoint derived
        // stream spaces: collect every stream this campaign would draw for
        // 16 tenants and demand zero collisions.
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0usize;
        for tenant in 0..16u64 {
            let base = CampaignConfig {
                tenant,
                ..small_cfg()
            }
            .stream_base();
            for job in 0..4u64 {
                for stream in [
                    3 * job,
                    3 * job + 1,
                    3 * job + 2,
                    (1 << 63) | job,
                    (1 << 62) | job,
                ] {
                    seen.insert(derive_seed(base, stream));
                    count += 1;
                }
            }
        }
        assert_eq!(seen.len(), count, "tenant stream derivation collided");

        // And a tenant actually changes the fleet it flies.
        let t0 = run_campaign(&cfg);
        let t7 = run_campaign(&CampaignConfig {
            tenant: 7,
            ..small_cfg()
        });
        assert_ne!(t0.outcomes[0].board_seed, t7.outcomes[0].board_seed);
        assert_ne!(t0.to_json(), t7.to_json());
    }

    /// Flips the campaign's interrupt flag the first time a progress
    /// heartbeat crosses the bus — a deterministic stand-in for SIGINT
    /// arriving mid-run.
    struct Tripwire {
        interrupt: Arc<AtomicBool>,
        seen: u64,
    }

    impl telemetry::Recorder for Tripwire {
        fn record(&mut self, event: telemetry::Event) {
            if event.kind == kinds::CAMPAIGN_PROGRESS {
                self.interrupt.store(true, Ordering::Relaxed);
            }
            self.seen += 1;
        }
        fn events_emitted(&self) -> u64 {
            self.seen
        }
    }

    #[test]
    fn interrupt_mid_run_leaves_a_valid_checkpoint_and_resume_is_byte_identical() {
        let uninterrupted = run_campaign(&small_cfg());

        // Trip the flag from inside the run: with a zero heartbeat
        // throttle, the first finished job interrupts the campaign.
        let cfg = small_cfg();
        let icfg = CampaignConfig {
            progress_interval_ms: 0,
            ..cfg.clone()
        };
        let icfg = CampaignConfig {
            telemetry: Telemetry::new(Tripwire {
                interrupt: Arc::clone(&icfg.interrupt),
                seen: 0,
            }),
            ..icfg
        };
        let mut ckpt = ShardCheckpoint::whole_campaign(&icfg);
        let ran = run_shard_resume(
            &icfg,
            &PreparedCampaign::new(&icfg),
            &mut ckpt,
            None,
            0,
            |_, _| {},
        )
        .unwrap();
        assert!(
            icfg.interrupted() && !ckpt.complete(),
            "an interrupted campaign reports incomplete, never a partial report"
        );
        assert_eq!(ckpt.outcomes.len(), ran);
        assert!(
            (1..4).contains(&ran),
            "the tripwire stops the campaign mid-flight, saw {ran}/4"
        );
        // Workers claim batch positions from a shared counter and finish
        // what they claimed, so the checkpoint holds a contiguous prefix —
        // exactly the shape a resume expects.
        let keys: Vec<u64> = ckpt.outcomes.keys().copied().collect();
        assert_eq!(keys, (0..ran as u64).collect::<Vec<_>>());

        // Round-trip through bytes (what the SIGINT handler persists) and
        // resume in a fresh "process" — `small_cfg()` carries a fresh,
        // untripped interrupt flag (`cfg`'s Arc is shared with the
        // tripwire and stays set).
        let mut ckpt2 = ShardCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        let report = resume(&small_cfg(), &mut ckpt2, None)
            .unwrap()
            .expect("resume completes the matrix");
        assert_eq!(report.to_json(), uninterrupted.to_json());

        // A flag already set at entry stops the run before any job starts,
        // and the (empty) checkpoint is still resumable.
        let pre = small_cfg();
        pre.interrupt.store(true, Ordering::Relaxed);
        let mut empty = ShardCheckpoint::whole_campaign(&pre);
        assert!(resume(&pre, &mut empty, None).unwrap().is_none());
        assert_eq!(empty.outcomes.len(), 0);
    }

    /// Panics on every progress heartbeat: a fault on a worker thread
    /// outside the job's fault domain.
    struct PanicOnProgress;

    impl telemetry::Recorder for PanicOnProgress {
        fn record(&mut self, event: telemetry::Event) {
            assert_ne!(event.kind, kinds::CAMPAIGN_PROGRESS, "recorder fault");
        }
        fn events_emitted(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_worker_panic_propagates_out_of_the_run_instead_of_hanging_it() {
        let cfg = CampaignConfig {
            scenarios: vec![Scenario::Benign],
            warmup_cycles: 100_000,
            attack_cycles: 100_000,
            threads: 2,
            progress_interval_ms: 0,
            telemetry: Telemetry::new(PanicOnProgress),
            ..small_cfg()
        };
        let (done, result) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut shard = ShardCheckpoint::whole_campaign(&cfg);
                let prepared = PreparedCampaign::new(&cfg);
                run_shard_resume(&cfg, &prepared, &mut shard, None, 0, |_, _| {})
            }));
            done.send(run.is_err()).unwrap();
        });
        let panicked = result
            .recv_timeout(Duration::from_secs(60))
            .expect("the run returns instead of deadlocking its drain");
        assert!(panicked, "the worker's panic reaches the caller");
        runner.join().unwrap();
    }

    #[test]
    fn a_panicking_sink_stops_the_workers_at_their_next_send() {
        let cfg = CampaignConfig {
            boards: 16,
            scenarios: vec![Scenario::Benign],
            warmup_cycles: 50_000,
            attack_cycles: 50_000,
            threads: 2,
            progress_interval_ms: 0,
            telemetry: Telemetry::new(telemetry::RingRecorder::new(64)),
            ..small_cfg()
        };
        let mut shard = ShardCheckpoint::whole_campaign(&cfg);
        let prepared = PreparedCampaign::new(&cfg);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_shard_resume(&cfg, &prepared, &mut shard, None, 0, |_, _| {
                panic!("sink fault")
            })
        }));
        assert!(run.is_err(), "the sink's panic reaches the caller");
        // Each flown job emits one heartbeat at a zero throttle.
        let flown = cfg
            .telemetry
            .with_recorder::<telemetry::RingRecorder, _>(|r| {
                r.events()
                    .filter(|e| e.kind == kinds::CAMPAIGN_PROGRESS)
                    .count()
            })
            .unwrap();
        assert!(flown < 16, "{flown} of 16 jobs flew after the sink failed");
    }

    #[test]
    fn resumed_progress_heartbeats_count_from_the_checkpoint_and_carry_eta() {
        // Regression guard: a resumed campaign's first heartbeat must
        // report `done_before + 1` jobs done, not restart from 1 — and
        // every heartbeat carries this-run throughput and an ETA.
        let cfg = small_cfg();
        let mut ckpt = ShardCheckpoint::whole_campaign(&cfg);
        assert!(resume(&cfg, &mut ckpt, Some(2)).unwrap().is_none());

        let resumed = CampaignConfig {
            telemetry: Telemetry::new(telemetry::RingRecorder::new(64)),
            progress_interval_ms: 0,
            threads: 1,
            ..small_cfg()
        };
        resume(&resumed, &mut ckpt, None)
            .unwrap()
            .expect("resume completes the matrix");
        resumed
            .telemetry
            .with_recorder::<telemetry::RingRecorder, _>(|r| {
                let beats: Vec<_> = r
                    .events()
                    .filter(|e| e.kind == kinds::CAMPAIGN_PROGRESS)
                    .collect();
                assert!(!beats.is_empty());
                let done_of = |e: &telemetry::Event| match e.field("jobs_done") {
                    Some(Value::U64(n)) => *n,
                    other => panic!("heartbeat without jobs_done: {other:?}"),
                };
                assert_eq!(
                    done_of(beats[0]),
                    3,
                    "first resumed heartbeat counts from the checkpoint's 2 jobs"
                );
                for pair in beats.windows(2) {
                    assert!(done_of(pair[0]) <= done_of(pair[1]));
                }
                for beat in &beats {
                    assert!(matches!(beat.field("jobs_per_sec"), Some(Value::F64(_))));
                    match beat.field("eta_s") {
                        Some(Value::F64(eta)) => assert!(*eta >= 0.0),
                        other => panic!("heartbeat without eta_s: {other:?}"),
                    }
                }
            })
            .unwrap();
    }
}
