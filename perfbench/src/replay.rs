//! Traced replay of campaign jobs, one public call per span.
//!
//! A job is re-flown from its streamed outcome's `board_seed` with the
//! campaign's image, payloads and cycle counts, but instead of the fleet
//! engine's private job runner it calls each layer's public functions in
//! the same order the engine does:
//!
//! * provisioning — `mavr::preprocess`, `ExternalFlash::upload`/`read`,
//!   `mavr::randomize`, `bootloader::programming_stream`/`apply_stream`,
//!   `AppProcessor::mismatched_pages` (the steps of
//!   `MavrBoard::provision_chaos`, whose master the replay then rebuilds
//!   at the same entropy position);
//! * flight — `Machine::run` in the watchdog's chunking, `MavrBoard::
//!   recover` on detection, the 1 ms `World` step, `LossyChannel` and
//!   `GroundStation` pumps;
//! * encode — `BoardOutcome::to_json_line`, `fold_outcome_metrics`.
//!
//! The replayed outcome must equal the streamed one field for field; that
//! is what makes the per-layer numbers describe the same work as the
//! end-to-end run.

use crate::trace::Tracer;
use avr_core::image::FirmwareImage;
use mavlink_lite::channel::{LossConfig, LossyChannel};
use mavlink_lite::GroundStation;
use mavr::policy::RandomizationPolicy;
use mavr::RandomizeOptions;
use mavr_board::bootloader::{apply_stream, programming_stream};
use mavr_board::{
    AppProcessor, BoardEvent, ExternalFlash, FaultPlan, MasterError, MasterProcessor, MavrBoard,
    RecoveryCause,
};
use mavr_fleet::{
    fold_outcome_metrics, BoardOutcome, CampaignConfig, WorldMetrics, ATTACK_TARGET, ATTACK_VALUES,
};
use mavr_world::{World, CYCLES_PER_STEP};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use synth_firmware::layout;
use telemetry::metrics::MetricsRegistry;
use telemetry::Telemetry;

/// The engine's per-job stream derivation (splitmix64 of the stream index
/// over the campaign's stream base).
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One campaign job's coordinates, in the engine's scenario-major matrix
/// order (scenario, loss, fault, board).
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub index: u64,
    pub scenario_idx: usize,
    pub loss: f64,
    pub base_index: u64,
}

pub fn job_at(cfg: &CampaignConfig, index: u64) -> Job {
    let i = index as usize;
    let per_loss = cfg.fault_levels.len() * cfg.boards;
    let per_scenario = cfg.loss_levels.len() * per_loss;
    let scenario_idx = i / per_scenario;
    let loss_idx = (i % per_scenario) / per_loss;
    let board_index = i % cfg.boards;
    Job {
        index,
        scenario_idx,
        loss: cfg.loss_levels[loss_idx],
        base_index: ((scenario_idx * cfg.loss_levels.len() + loss_idx) * cfg.boards + board_index)
            as u64,
    }
}

/// Per-scenario attack packets (`None` for benign scenarios).
pub type Payloads = Vec<Option<Vec<Vec<u8>>>>;

/// What every replayed job shares: the campaign, its unprotected image and
/// payload set, and a provisioned board whose non-job state (watchdog
/// window, boot log entry) a replayed board starts from.
pub struct Shared<'a> {
    pub cfg: &'a CampaignConfig,
    pub image: &'a FirmwareImage,
    pub payloads: &'a Payloads,
    shell: MavrBoard,
}

impl<'a> Shared<'a> {
    pub fn new(
        cfg: &'a CampaignConfig,
        image: &'a FirmwareImage,
        payloads: &'a Payloads,
    ) -> Result<Self, String> {
        if cfg.fault_levels.iter().any(|&f| f != 0.0) || !cfg.sabotage.is_none() {
            return Err("replay covers fault-free, unsabotaged campaigns only".into());
        }
        let mut shell = MavrBoard::provision_chaos(
            image,
            0,
            RandomizationPolicy::default(),
            Telemetry::off(),
            FaultPlan::none(),
        )
        .map_err(|e| format!("provision replay shell: {e}"))?;
        shell.ext_flash = ExternalFlash::new();
        shell.master = MasterProcessor::new(0, RandomizationPolicy::default());
        Ok(Shared {
            cfg,
            image,
            payloads,
            shell,
        })
    }
}

/// The master's watchdog decision, as `MavrBoard::run` makes it after
/// every chunk.
fn detect(board: &MavrBoard, watch_since: u64) -> Option<RecoveryCause> {
    let m = &board.app.machine;
    if let Some(f) = m.fault() {
        return Some(RecoveryCause::Fault(f));
    }
    let now = m.cycles();
    match m.heartbeat.last_toggle().filter(|&t| t >= watch_since) {
        Some(last) if now.saturating_sub(last) <= board.heartbeat_timeout => None,
        Some(_) => Some(RecoveryCause::HeartbeatLost),
        None if now.saturating_sub(watch_since) > board.heartbeat_timeout => {
            Some(RecoveryCause::HeartbeatLost)
        }
        None => None,
    }
}

/// The physics arena's lockstep state (what `FlightHarness` keeps).
struct Arena {
    world: World,
    events_seen: usize,
    next_boundary: u64,
    recovery_pending: bool,
    alt_lost: f64,
    caught: u32,
}

/// A board in flight plus the watchdog window the replay tracks for it.
struct Flight<'t> {
    board: MavrBoard,
    watch_since: u64,
    /// The next engine chunk runs on freshly flashed code.
    cold: bool,
    arena: Option<Arena>,
    job: u64,
    t: &'t mut Tracer,
}

impl Flight<'_> {
    /// `MavrBoard::run`: watchdog-sized engine chunks, recovery on
    /// detection.
    fn board_run(&mut self, cycles: u64) -> Result<(), MasterError> {
        let span = self.t.enter("flight.board_run", self.job);
        let target = self.board.app.machine.cycles().saturating_add(cycles);
        let mut result = Ok(());
        while self.board.app.machine.cycles() < target {
            let before = self.board.app.machine.cycles();
            let chunk = (self.board.heartbeat_timeout / 4)
                .min(target - before)
                .max(1);
            let layer = if self.cold {
                "machine.first_run"
            } else {
                "flight.engine"
            };
            let s = self.t.enter(layer, self.job);
            let _ = self.board.app.machine.run(chunk);
            self.t.exit(s, self.board.app.machine.cycles() - before);
            self.cold = false;
            if let Some(cause) = detect(&self.board, self.watch_since) {
                let board = &mut self.board;
                let recovered = self
                    .t
                    .time("flight.recover", self.job, || board.recover(cause));
                if let Err(e) = recovered {
                    result = Err(e);
                    break;
                }
                self.watch_since = self.board.app.machine.cycles();
                self.cold = true;
            }
        }
        self.t.exit(span, 0);
        result
    }

    /// One `FlightHarness::step_once`: sample sensors, run the board to the
    /// next absolute step boundary, replay recoveries as dead-motor time,
    /// step the world.
    fn world_step(&mut self) -> Result<(), MasterError> {
        let arena = self.arena.as_mut().expect("physics flight");
        let s = self.t.enter("world.step", self.job);
        let sample = arena.world.sample();
        self.board.app.machine.adc.channels[..3].copy_from_slice(&sample);
        self.t.exit(s, 0);
        let now = self.board.app.machine.cycles();
        let boundary = arena.next_boundary;
        if now < boundary {
            self.board_run(boundary - now)?;
        }
        let arena = self.arena.as_mut().expect("physics flight");
        arena.next_boundary += CYCLES_PER_STEP;
        let s = self.t.enter("world.step", self.job);
        while arena.events_seen < self.board.events.len() {
            match &self.board.events[arena.events_seen] {
                BoardEvent::Recovery { .. } => arena.recovery_pending = true,
                BoardEvent::Boot { report, .. } if arena.recovery_pending => {
                    arena.recovery_pending = false;
                    let alt_before = arena.world.altitude();
                    for _ in 0..report.total_ms.ceil() as u64 {
                        arena.world.step(0.0, 0.0);
                    }
                    let lost = alt_before - arena.world.altitude();
                    if lost > 0.0 {
                        arena.alt_lost += lost;
                    }
                    arena.caught += 1;
                }
                BoardEvent::Boot { .. } => {}
            }
            arena.events_seen += 1;
        }
        let pwm = self.board.app.machine.pwm;
        arena.world.step(pwm.thrust_duty(), pwm.pitch_duty());
        self.t.exit(s, 1);
        Ok(())
    }

    /// The engine's `Flyer::run`: exact cycles bare, whole world steps
    /// with physics on.
    fn fly(&mut self, cycles: u64) -> Result<(), MasterError> {
        if self.arena.is_none() {
            return self.board_run(cycles);
        }
        for _ in 0..cycles.div_ceil(CYCLES_PER_STEP) {
            self.world_step()?;
        }
        Ok(())
    }

    fn pump(&mut self, down: &mut LossyChannel, gcs: &mut GroundStation) {
        let s = self.t.enter("channel.pump", self.job);
        let bytes = self.board.downlink();
        if !bytes.is_empty() {
            gcs.ingest(&down.transmit(&bytes));
        }
        self.t.exit(s, bytes.len() as u64);
    }
}

/// Replay one job. `spare` recycles a previous job's board shell on this
/// thread (only boards that never recovered, whose watchdog window is
/// still the provisioning one).
pub fn replay_job(
    sh: &Shared<'_>,
    spare: &mut Option<MavrBoard>,
    t: &mut Tracer,
    registry: &mut MetricsRegistry,
    job: Job,
    board_seed: u64,
) -> Result<(BoardOutcome, u64), String> {
    let cfg = sh.cfg;
    let id = job.index;
    let base = cfg.stream_base();
    let root = t.enter("job", id);
    if derive_seed(base, job.base_index * 3) != board_seed {
        return Err(format!(
            "job {id}: streamed board_seed does not match its matrix slot"
        ));
    }
    let loss_cfg = LossConfig {
        drop: job.loss,
        corrupt: job.loss,
        duplicate: job.loss,
        delay: 0.0,
        max_delay: 0,
        seed: 0,
    };
    let mut up = LossyChannel::new(loss_cfg.with_seed(derive_seed(base, job.base_index * 3 + 1)));
    let mut down = LossyChannel::new(loss_cfg.with_seed(derive_seed(base, job.base_index * 3 + 2)));
    let mut gcs = GroundStation::with_capacity(cfg.gcs_capacity);
    let fail = |what: &str, e: String| format!("job {id}: {what}: {e}");

    // Provisioning, step by step.
    let container = t
        .time("provision.preprocess", id, || mavr::preprocess(sh.image))
        .map_err(|e| fail("preprocess", e.to_string()))?;
    let mut flash = ExternalFlash::new();
    t.time("provision.upload", id, || flash.upload(&container))
        .map_err(|e| fail("upload", e.to_string()))?;
    let read = t
        .time("provision.container_read", id, || flash.read())
        .map_err(|e| fail("container read", e.to_string()))?;
    let mut rng = StdRng::seed_from_u64(board_seed);
    let randomized = t
        .time("provision.randomize", id, || {
            mavr::randomize(&read.image, &mut rng, &RandomizeOptions::default())
        })
        .map_err(|e| fail("randomize", e.to_string()))?;
    let mut app = t.time("machine.new", id, AppProcessor::new);
    let page = app.machine.device().flash_page_bytes as usize;
    let stream = t.time("provision.stream", id, || {
        programming_stream(&randomized.image.bytes, page)
    });
    t.time("provision.page_write", id, || {
        apply_stream(&mut app, &stream)
    })
    .map_err(|e| fail("page write", format!("{e:?}")))?;
    let bad = t.time("provision.verify", id, || {
        app.mismatched_pages(&randomized.image.bytes, page)
    });
    if !bad.is_empty() || !app.locked() {
        return Err(fail("verify", format!("{} bad pages", bad.len())));
    }
    let board = t.time("trace.assemble", id, || {
        let mut board = spare.take().unwrap_or_else(|| sh.shell.clone());
        let mut master = MasterProcessor::new(board_seed, RandomizationPolicy::default());
        master.restore_entropy(rng.state(), 1);
        master.wear.program();
        master.last_permutation = Some(randomized.permutation);
        master.last_image = Some(randomized.image);
        board.master = master;
        board.app = app;
        board.ext_flash = flash;
        board.events.clone_from(&sh.shell.events);
        board.last_crash = None;
        board.app.machine.set_block_fusion(cfg.block_fusion);
        board
    });

    let arena = cfg.physics.then(|| {
        let now = board.app.machine.cycles();
        Arena {
            world: World::new(
                mavr_world::Scenario::Hover,
                derive_seed(base, (1u64 << 62) | job.base_index),
            ),
            events_seen: board.events.len(),
            next_boundary: (now / CYCLES_PER_STEP + 1) * CYCLES_PER_STEP,
            recovery_pending: false,
            alt_lost: 0.0,
            caught: 0,
        }
    });
    let mut fl = Flight {
        watch_since: board.app.machine.cycles(),
        board,
        cold: true,
        arena,
        job: id,
        t,
    };

    // Flight, in the engine's order.
    let payloads = sh.payloads[job.scenario_idx].as_deref();
    let mut bricked = false;
    let mut injected_at = None;
    let mut attack_packets = 0;
    'flight: {
        if fl.fly(cfg.warmup_cycles).is_err() {
            bricked = true;
            break 'flight;
        }
        fl.pump(&mut down, &mut gcs);
        injected_at = Some(fl.board.app.machine.cycles());
        if let Some(a) = fl.arena.as_mut() {
            let _ = a.world.take_peak_alt_err();
        }
        attack_packets = payloads.map_or(0, <[Vec<u8>]>::len);
        if let Some(packets) = payloads {
            for (i, payload) in packets.iter().enumerate() {
                let s = fl.t.enter("channel.pump", id);
                let wire = gcs
                    .exploit_packet(payload)
                    .map_err(|e| fail("exploit packet", format!("{e:?}")))?;
                fl.board.uplink(&up.transmit(&wire));
                fl.t.exit(s, wire.len() as u64);
                if i + 1 < packets.len() {
                    if fl.fly(cfg.packet_gap_cycles).is_err() {
                        bricked = true;
                        break 'flight;
                    }
                    fl.pump(&mut down, &mut gcs);
                }
            }
            let board = &mut fl.board;
            fl.t.time("channel.pump", id, || board.uplink(&up.flush()));
        }
        if fl.fly(cfg.attack_cycles).is_err() {
            bricked = true;
        }
    }
    fl.pump(&mut down, &mut gcs);
    fl.t.time("channel.pump", id, || gcs.ingest(&down.flush()));

    let Flight {
        board, arena, t, ..
    } = fl;
    let world = arena.map(|a| WorldMetrics {
        peak_alt_err_m: a.world.peak_alt_err(),
        ground_impacts: a.world.ground_impacts(),
        alt_lost_m: a.alt_lost,
        recoveries_caught: a.caught,
    });
    let block_stats = board.app.machine.block_stats();
    let outcome = BoardOutcome {
        scenario: cfg.scenarios[job.scenario_idx],
        loss: job.loss,
        fault: 0.0,
        board_index: (job.index % cfg.boards as u64) as usize,
        board_seed,
        attack_packets,
        attack_succeeded: attack_packets > 0
            && board.app.machine.peek_range(ATTACK_TARGET, 3) == ATTACK_VALUES.to_vec(),
        recoveries: board.recoveries(),
        reflash_retries: board.master.resilience.reflash_retries,
        degraded_boots: board.master.resilience.degraded_boots,
        bricked,
        time_to_recovery: injected_at.and_then(|at| {
            board
                .recovery_cycles()
                .into_iter()
                .find(|&c| c >= at)
                .map(|c| c - at)
        }),
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
    };
    if board.recoveries() == 0 {
        *spare = Some(board);
    }

    // Encode.
    let s = t.enter("encode.outcome_line", id);
    let line = outcome.to_json_line();
    t.exit(s, line.len() as u64 + 1);
    t.time("encode.metrics_fold", id, || {
        fold_outcome_metrics(registry, &outcome)
    });
    t.exit(root, 0);
    Ok((outcome, line.len() as u64 + 1))
}

/// Everything the parallel replay produced.
pub struct Replayed {
    pub tracers: Vec<Tracer>,
    /// `(job index, replayed outcome)`, in job order.
    pub outcomes: Vec<(u64, BoardOutcome)>,
    /// Jobs whose replay differs from the streamed outcome.
    pub mismatches: Vec<String>,
    pub wall_ns: u64,
    pub threads: usize,
}

/// Run `work` over `jobs` (in the order to claim them) on `threads`
/// workers claiming from a shared counter, as the engine's pool does. Each
/// worker starts from `init(thread)`; the workers' final states are
/// returned in thread order.
fn pool<S: Send>(
    jobs: &[(u64, BoardOutcome)],
    threads: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, u64, &BoardOutcome) -> Result<(), String> + Sync,
) -> Result<Vec<S>, String> {
    let next = AtomicUsize::new(0);
    let results: Vec<Result<S, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|thread| {
                let (next, init, work) = (&next, &init, &work);
                s.spawn(move || {
                    let mut state = init(thread);
                    while let Some((index, streamed)) =
                        jobs.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        work(&mut state, *index, streamed)?;
                    }
                    Ok(state)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("replay worker panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect()
}

/// A replay worker's own state.
struct Worker {
    t: Tracer,
    spare: Option<MavrBoard>,
    registry: MetricsRegistry,
    done: Vec<(u64, BoardOutcome)>,
    mismatches: Vec<String>,
}

impl Worker {
    fn new(t: Tracer) -> Self {
        Worker {
            t,
            spare: None,
            registry: MetricsRegistry::new(),
            done: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    /// Replay one job and compare it with the streamed outcome.
    fn replay(
        &mut self,
        sh: &Shared<'_>,
        index: u64,
        streamed: &BoardOutcome,
    ) -> Result<BoardOutcome, String> {
        let job = job_at(sh.cfg, index);
        let (outcome, _) = replay_job(
            sh,
            &mut self.spare,
            &mut self.t,
            &mut self.registry,
            job,
            streamed.board_seed,
        )?;
        if outcome != *streamed {
            self.mismatches
                .push(describe_mismatch(index, streamed, &outcome));
        }
        Ok(outcome)
    }
}

/// Replay `jobs` (streamed outcomes, in the order to claim them) with a
/// span around every layer call.
pub fn replay_all(
    sh: &Shared<'_>,
    jobs: &[(u64, BoardOutcome)],
    threads: usize,
    epoch: Instant,
) -> Result<Replayed, String> {
    let started = Instant::now();
    let workers = pool(
        jobs,
        threads,
        |thread| Worker::new(Tracer::new(epoch, "replay", thread)),
        |w, index, streamed| {
            let outcome = w.replay(sh, index, streamed)?;
            w.done.push((index, outcome));
            Ok(())
        },
    )?;
    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut out = Replayed {
        tracers: Vec::new(),
        outcomes: Vec::new(),
        mismatches: Vec::new(),
        wall_ns,
        threads,
    };
    for w in workers {
        out.tracers.push(w.t);
        out.outcomes.extend(w.done);
        out.mismatches.extend(w.mismatches);
    }
    out.outcomes.sort_by_key(|(i, _)| *i);
    Ok(out)
}

/// What tracing costs on like work: every job is replayed twice in a row,
/// once with spans and once without (alternating which goes first), so
/// both kinds see the same host speed. Returns the summed untraced and
/// traced job times in nanoseconds, and the jobs whose replays differ from
/// the streamed outcome.
pub fn tracing_cost(
    sh: &Shared<'_>,
    jobs: &[(u64, BoardOutcome)],
    threads: usize,
    epoch: Instant,
) -> Result<(f64, f64, Vec<String>), String> {
    struct Pair {
        on: Worker,
        off: Worker,
        ns: [f64; 2],
        flip: bool,
    }
    let workers = pool(
        jobs,
        threads,
        |thread| Pair {
            on: Worker::new(Tracer::new(epoch, "cost", thread)),
            off: Worker::new(Tracer::off(epoch, "cost", thread)),
            ns: [0.0; 2],
            flip: false,
        },
        |p, index, streamed| {
            p.flip = !p.flip;
            for traced in [p.flip, !p.flip] {
                let w = if traced { &mut p.on } else { &mut p.off };
                let t = Instant::now();
                w.replay(sh, index, streamed)?;
                p.ns[usize::from(traced)] += t.elapsed().as_nanos() as f64;
            }
            Ok(())
        },
    )?;
    let mut out = (0.0, 0.0, Vec::new());
    for p in workers {
        out.0 += p.ns[0];
        out.1 += p.ns[1];
        out.2.extend(p.off.mismatches);
        out.2.extend(p.on.mismatches);
    }
    Ok(out)
}

fn describe_mismatch(index: u64, streamed: &BoardOutcome, replayed: &BoardOutcome) -> String {
    let (a, b) = (streamed, replayed);
    let fields = [
        ("attack_succeeded", a.attack_succeeded == b.attack_succeeded),
        ("recoveries", a.recoveries == b.recoveries),
        ("bricked", a.bricked == b.bricked),
        ("time_to_recovery", a.time_to_recovery == b.time_to_recovery),
        ("final_cycle", a.final_cycle == b.final_cycle),
        ("heartbeats", a.heartbeats == b.heartbeats),
        ("packets", a.packets == b.packets),
        ("seq_gaps", a.seq_gaps == b.seq_gaps),
        ("uav_bad_crc", a.uav_bad_crc == b.uav_bad_crc),
        ("sim_block_hits", a.sim_block_hits == b.sim_block_hits),
        (
            "sim_block_invalidations",
            a.sim_block_invalidations == b.sim_block_invalidations,
        ),
        ("sim_block_count", a.sim_block_count == b.sim_block_count),
        (
            "link stats",
            a.up_stats == b.up_stats && a.down_stats == b.down_stats,
        ),
        ("world", a.world == b.world),
    ];
    let differ: Vec<&str> = fields
        .iter()
        .filter(|(_, same)| !same)
        .map(|(n, _)| *n)
        .collect();
    format!("job {index}: replay differs in {}", differ.join(", "))
}
