//! One campaign benchmark, from socket to engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svc-tiny-short|svc-plane-crash|fleet-quad-physics|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives the workload through the system's public entry
//! points (the campaign service's Unix socket, or the in-process fleet
//! engine) for `--seconds`, checks every result, and prints the
//! end-to-end metrics. `--trace 1` runs one untraced campaign, then
//! re-drives it with a span around each call into a layer's public
//! functions and prints the per-layer metrics, including how well the
//! layers' self times add up to the traced wall clock.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (each `{"value", "unit"}`). The
//! line before it records the run context: core count, commit, compiler,
//! seed, sample counts, and every metric's median with its quartiles.

mod affinity;
mod replay;
mod stats;
mod trace;

use affinity::Cores;
use mavr_campaignd::json::Json;
use mavr_campaignd::server::{request, serve_socket};
use mavr_campaignd::{
    merge_store, CampaignSession, CampaignSpec, CampaignStore, ServeOptions, Service,
};
use mavr_fleet::{
    run_campaign, run_shard_resume, BoardOutcome, CampaignConfig, PreparedCampaign,
    ShardCheckpoint, ShardPlan, ATTACK_TARGET, ATTACK_VALUES,
};
use rop::attack::AttackContext;
use stats::{mean, percentile, summarize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};
use synth_firmware::{build, BuildOptions};
use telemetry::Telemetry;
use trace::{layer_totals, Tracer};

/// Recorded results per workload and seed (the default seed and a
/// held-out one); see `expected.json`.
const EXPECTED: &str = include_str!("../expected.json");

/// Work directory (campaign stores, sockets), relative to the directory
/// the benchmark runs in; removed when the run ends.
const WORK_DIR: &str = ".perfbench_work";
/// Span dumps of traced runs.
const OUT_DIR: &str = ".perfbench_out";

/// Closed-loop status poll period of the service client: the next poll
/// goes out this long after the previous one was sent (or as soon as its
/// reply arrives, if that is later). The server polls `accept` every
/// 25 ms; a 100 ms client would phase-lock to that cycle and see one fixed
/// wait for a whole run. 100 ms less 0.382 of the cycle advances the phase
/// by the golden ratio of the cycle per poll, so successive polls sample
/// the accept wait evenly.
const STATUS_PERIOD: Duration = Duration::from_micros(90_451);
/// Set-up repetitions (`setup_s` is their median): a burst before the
/// first campaign and more between campaigns, so the median samples the
/// whole run, as the throughput metrics do. Each burst runs at least
/// `min_reps` set-ups and continues until its time budget is spent.
const SETUP_FIRST_BURST: (usize, f64) = (3, 0.3);
const SETUP_BURST: (usize, f64) = (1, 0.1);
/// World steps timed on their own when the campaign flies without physics.
const WORLD_PROBE_STEPS: usize = 2000;
/// Traced-run acceptance bounds: the named layers' self times must sum to
/// the traced wall clock within this share, and tracing may slow the same
/// replay by at most this factor.
const RECONCILE_BOUND: f64 = 0.05;
const OVERHEAD_BOUND: f64 = 1.10;
/// Spans that belong to no layer of the system: the replay's per-job root
/// (whatever a job does outside the layer calls — channel set-up, watchdog
/// decisions, building the outcome) and the replay's own board assembly.
/// Their self time is unattributed.
const UNATTRIBUTED: [&str; 2] = ["job", "trace.assemble"];
/// Share of the fleet workload's window spent flying its campaign through
/// the service (status round trips, sharded-vs-unsharded oracle); the rest
/// measures the in-process engine.
const FLEET_SERVICE_SHARE: f64 = 0.5;

struct Workload {
    name: &'static str,
    /// Through the campaign service's socket (else the in-process fleet
    /// engine).
    service: bool,
    app: &'static str,
    scenarios: &'static [&'static str],
    loss_levels: &'static [f64],
    physics: bool,
    warmup_cycles: u64,
    attack_cycles: u64,
    shard_jobs: u64,
    /// Boards per matrix cell of one measured campaign.
    boards: usize,
    /// Boards per cell of the reduced twin checked against the unsharded
    /// engine (service workloads).
    twin_boards: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "svc-tiny-short",
        service: true,
        app: "tiny",
        scenarios: &["benign", "stealthy"],
        loss_levels: &[0.0],
        physics: false,
        warmup_cycles: 40_000,
        attack_cycles: 60_000,
        shard_jobs: 64,
        boards: 1200,
        twin_boards: 16,
    },
    Workload {
        name: "svc-plane-crash",
        service: true,
        app: "plane",
        scenarios: &["crash", "stealthy"],
        loss_levels: &[0.0],
        physics: false,
        warmup_cycles: 300_000,
        attack_cycles: 1_500_000,
        shard_jobs: 16,
        boards: 48,
        twin_boards: 1,
    },
    Workload {
        name: "fleet-quad-physics",
        service: false,
        app: "quad",
        scenarios: &["benign", "stealthy"],
        loss_levels: &[0.0, 0.001],
        physics: true,
        warmup_cycles: 300_000,
        attack_cycles: 6_000_000,
        shard_jobs: 16,
        boards: 16,
        twin_boards: 0,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spec(w: &Workload, seed: u64, name: &str, boards: usize) -> Result<CampaignSpec, String> {
    let mut s = CampaignSpec::named(name);
    s.seed = seed;
    s.boards = boards;
    s.scenarios = w
        .scenarios
        .iter()
        .map(|n| n.parse())
        .collect::<Result<_, _>>()?;
    s.loss_levels = w.loss_levels.to_vec();
    s.fault_levels = vec![0.0];
    s.warmup_cycles = w.warmup_cycles;
    s.attack_cycles = w.attack_cycles;
    s.app = w.app.to_string();
    s.physics = w.physics;
    s.threads = nproc();
    s.shard_jobs = w.shard_jobs;
    Ok(s)
}

/// FNV-1a 64 of a report's bytes.
fn digest(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// What a campaign computed, reduced to the values the correctness gate
/// compares.
#[derive(Debug, Clone, PartialEq)]
struct Totals {
    digest: String,
    jobs: u64,
    sim_cycles: u64,
    recoveries: u64,
    attack_successes: u64,
}

impl Totals {
    fn of(report: &[u8], outcomes: &[BoardOutcome]) -> Self {
        Totals {
            digest: digest(report),
            jobs: outcomes.len() as u64,
            sim_cycles: outcomes.iter().map(|o| o.final_cycle).sum(),
            recoveries: outcomes.iter().map(|o| o.recoveries as u64).sum(),
            attack_successes: outcomes.iter().filter(|o| o.attack_succeeded).count() as u64,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"digest\":\"{}\",\"jobs\":{},\"sim_cycles\":{},\"recoveries\":{},\"attack_successes\":{}}}",
            self.digest, self.jobs, self.sim_cycles, self.recoveries, self.attack_successes
        )
    }
}

/// The recorded totals for `(workload, seed)`, if that pair is recorded.
fn expected(workload: &str, seed: u64) -> Result<Option<Totals>, String> {
    let doc = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let Some(v) = doc
        .get("results")
        .and_then(|r| r.get(workload))
        .and_then(|r| r.get(&seed.to_string()))
    else {
        return Ok(None);
    };
    let n = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("expected.json: {k}"))
    };
    Ok(Some(Totals {
        digest: v
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("expected.json: digest")?
            .to_string(),
        jobs: n("jobs")?,
        sim_cycles: n("sim_cycles")?,
        recoveries: n("recoveries")?,
        attack_successes: n("attack_successes")?,
    }))
}

/// One finished campaign.
struct Campaign {
    campaign_s: f64,
    /// Wall time of the execution phase: submit to the last durable shard
    /// checkpoint (service), or the engine call (fleet).
    exec_s: f64,
    report: Vec<u8>,
    outcomes: Vec<BoardOutcome>,
    status_rtt_ms: Vec<f64>,
    /// `Service::handle_line` on the same status line, timed right after
    /// each socket round trip (traced runs only).
    handler_ms: Vec<f64>,
    requests: u64,
}

impl Campaign {
    fn sim_cycles(&self) -> u64 {
        self.outcomes.iter().map(|o| o.final_cycle).sum()
    }
}

/// A campaign service serving its socket from a background thread.
struct Svc<'a> {
    service: &'a Service,
    sock: &'a Path,
    root: &'a Path,
}

fn with_service<T>(
    root: &Path,
    f: impl FnOnce(&Svc<'_>) -> Result<T, String>,
) -> Result<T, String> {
    std::fs::create_dir_all(root).map_err(|e| format!("mkdir {}: {e}", root.display()))?;
    let interrupt = Arc::new(AtomicBool::new(false));
    let service = Service::new(root.to_path_buf(), Arc::clone(&interrupt));
    let sock = root.join("campaignd.sock");
    let opts = ServeOptions::default();
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_socket(&service, &sock, std::io::sink(), &opts));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !sock.exists() && Instant::now() < deadline && !server.is_finished() {
            std::thread::sleep(Duration::from_millis(2));
        }
        let out = if sock.exists() {
            f(&Svc {
                service: &service,
                sock: &sock,
                root,
            })
        } else {
            Err("campaign service never bound its socket".into())
        };
        if request(&sock, r#"{"op":"shutdown"}"#).is_err() {
            interrupt.store(true, Ordering::Relaxed);
        }
        let served = server
            .join()
            .unwrap_or_else(|_| Err("service thread panicked".into()));
        let out = out?;
        served?;
        Ok(out)
    })
}

fn ok_response(line: &str, what: &str) -> Result<Json, String> {
    let v = Json::parse(line).map_err(|e| format!("{what}: bad response {line}: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{what} refused: {line}"));
    }
    Ok(v)
}

/// Outcomes of a finished campaign, read back from its shard checkpoints.
fn stored_outcomes(store: &CampaignStore) -> Result<Vec<BoardOutcome>, String> {
    let cfg = store.spec.to_config()?;
    let mut out = Vec::new();
    for index in 0..store.plan().shard_count() {
        out.extend(store.load_shard(&cfg, index)?.outcomes.into_values());
    }
    Ok(out)
}

/// Submit `spec`, poll `status` every `STATUS_PERIOD` until complete,
/// `merge`.
fn service_campaign(
    svc: &Svc<'_>,
    spec: &CampaignSpec,
    pair_handler: bool,
) -> Result<Campaign, String> {
    let submit = format!("{{\"op\":\"submit\",\"spec\":{}}}", spec.to_json());
    let status = format!("{{\"op\":\"status\",\"campaign\":\"{}\"}}", spec.name);
    let merge = format!("{{\"op\":\"merge\",\"campaign\":\"{}\"}}", spec.name);
    let mut c = Campaign {
        campaign_s: 0.0,
        exec_s: 0.0,
        report: Vec::new(),
        outcomes: Vec::new(),
        status_rtt_ms: Vec::new(),
        handler_ms: Vec::new(),
        requests: 0,
    };
    let submitted_at = SystemTime::now();
    let t0 = Instant::now();
    ok_response(&request(svc.sock, &submit)?, "submit")?;
    c.requests += 1;
    let mut next = t0 + STATUS_PERIOD;
    loop {
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let line = request(svc.sock, &status)?;
        c.status_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        c.requests += 1;
        next = sent + STATUS_PERIOD;
        if pair_handler {
            let h = Instant::now();
            let _ = svc.service.handle_line(&status);
            c.handler_ms.push(h.elapsed().as_secs_f64() * 1e3);
        }
        let v = ok_response(&line, "status")?;
        let row = v
            .get("campaigns")
            .and_then(Json::as_arr)
            .and_then(|rows| rows.first())
            .ok_or(format!("status without a campaign row: {line}"))?;
        if row.get("jobs_quarantined").and_then(Json::as_u64) != Some(0) {
            return Err(format!("jobs quarantined: {line}"));
        }
        if row.get("complete").and_then(Json::as_bool) == Some(true) {
            break;
        }
        if t0.elapsed() > Duration::from_secs(150) {
            return Err(format!("campaign {} did not finish in time", spec.name));
        }
    }
    ok_response(&request(svc.sock, &merge)?, "merge")?;
    c.requests += 1;
    c.campaign_s = t0.elapsed().as_secs_f64();

    let store = CampaignStore::open(&svc.root.join(&spec.name))?;
    let mut last = submitted_at;
    for index in 0..store.plan().shard_count() {
        let path = store.shard_path(index);
        let modified = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .map_err(|e| format!("stat {}: {e}", path.display()))?;
        last = last.max(modified);
    }
    c.exec_s = last
        .duration_since(submitted_at)
        .map_err(|e| e.to_string())?
        .as_secs_f64();
    c.report = std::fs::read(store.report_path()).map_err(|e| format!("read report: {e}"))?;
    c.outcomes = stored_outcomes(&store)?;
    Ok(c)
}

fn fleet_campaign(cfg: &CampaignConfig) -> Campaign {
    let t0 = Instant::now();
    let report = run_campaign(cfg);
    let campaign_s = t0.elapsed().as_secs_f64();
    Campaign {
        campaign_s,
        exec_s: campaign_s,
        report: report.to_json().into_bytes(),
        outcomes: report.outcomes,
        status_rtt_ms: Vec::new(),
        handler_ms: Vec::new(),
        requests: 0,
    }
}

/// Service supervision counters via the `stats` op.
fn service_stats(svc: &Svc<'_>) -> Result<(u64, u64, u64), String> {
    let v = ok_response(&request(svc.sock, r#"{"op":"stats"}"#)?, "stats")?;
    let n = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("stats without {k}"))
    };
    Ok((
        n("campaignd_errors")?,
        n("campaignd_busy_rejected")?,
        n("campaignd_checkpoint_skipped")?,
    ))
}

/// Checks one campaign against the run's first campaign, the recorded
/// values, and its own job count.
struct Gate {
    first: Option<Totals>,
    expected: Option<Totals>,
    expected_checked: bool,
}

impl Gate {
    fn check(&mut self, spec: &CampaignSpec, c: &Campaign) -> Result<(), String> {
        let totals = Totals::of(&c.report, &c.outcomes);
        if totals.jobs != spec.total_jobs() {
            return Err(format!(
                "{} of {} jobs reported",
                totals.jobs,
                spec.total_jobs()
            ));
        }
        if c.outcomes.iter().any(|o| o.failure.is_some()) {
            return Err("quarantined jobs in the report".into());
        }
        match &self.first {
            Some(first) if *first != totals => {
                return Err(format!(
                    "campaign differs from the run's first one: {} vs {}",
                    totals.to_json(),
                    first.to_json()
                ))
            }
            Some(_) => {}
            None => self.first = Some(totals.clone()),
        }
        if let Some(expected) = &self.expected {
            if *expected != totals {
                return Err(format!(
                    "campaign differs from expected.json: {} vs {}",
                    totals.to_json(),
                    expected.to_json()
                ));
            }
            self.expected_checked = true;
        }
        Ok(())
    }
}

/// A run's result: metric samples (with units) and context values (JSON
/// literals) for the context line.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, Vec<f64>)>,
    context: Vec<(&'static str, String)>,
}

/// Restart the process's resident-memory high-water mark from its current
/// resident size, so the next `peak_rss_mb` covers only what follows.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Repeated timings of a campaign's set-up, in seconds. Set-up is
/// single-threaded, so each sample is the mean of one set-up on each core:
/// which core the scheduler happens to keep it on does not decide it.
struct SetupSampler<'a> {
    /// Runs set-up number `i`.
    set_up: Box<dyn FnMut(usize) -> Result<(), String> + 'a>,
    cores: Cores,
    runs: usize,
    samples: Vec<f64>,
}

impl SetupSampler<'_> {
    fn burst(&mut self, (min_reps, min_seconds): (usize, f64)) -> Result<(), String> {
        let started = Instant::now();
        let mut reps = 0;
        while reps < min_reps || started.elapsed().as_secs_f64() < min_seconds {
            let (set_up, runs) = (&mut self.set_up, &mut self.runs);
            let sample = self.cores.mean_over_each(|| {
                *runs += 1;
                set_up(*runs)
            })?;
            self.samples.push(sample);
            reps += 1;
        }
        Ok(())
    }
}

/// What the end-to-end run accumulates across its campaigns.
struct Measured<'a> {
    gate: Gate,
    setup: SetupSampler<'a>,
    status_rtt: Vec<f64>,
    /// Peak resident memory of the first measured campaign alone: the
    /// high-water mark restarts after the twin check and the set-up burst.
    peak_rss: Option<f64>,
    attempted: u64,
    failed: u64,
}

impl Measured<'_> {
    /// One measured campaign after a set-up burst, checked by the gate.
    fn campaign(
        &mut self,
        spec: &CampaignSpec,
        run: impl FnOnce() -> Result<Campaign, String>,
    ) -> Result<Campaign, String> {
        self.setup.burst(SETUP_BURST)?;
        if self.peak_rss.is_none() {
            reset_peak_rss()?;
        }
        let c = run()?;
        self.peak_rss.get_or_insert_with(peak_rss_mb);
        self.attempted += c.outcomes.len() as u64 + c.requests;
        self.gate.check(spec, &c)?;
        self.status_rtt.extend(&c.status_rtt_ms);
        Ok(c)
    }

    /// One measured campaign through the service; its store is removed
    /// once read back.
    fn through_service(&mut self, svc: &Svc<'_>, spec: &CampaignSpec) -> Result<Campaign, String> {
        let c = self.campaign(spec, || service_campaign(svc, spec, false))?;
        let _ = std::fs::remove_dir_all(svc.root.join(&spec.name));
        Ok(c)
    }

    fn count_service_errors(&mut self, svc: &Svc<'_>) -> Result<(), String> {
        let (errors, busy, _) = service_stats(svc)?;
        self.attempted += 1;
        self.failed += errors + busy;
        Ok(())
    }
}

fn run_end_to_end(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<RunResult, String> {
    let main_spec = spec(w, seed, &format!("{}-{seed}", w.name), w.boards)?;
    let cfg = main_spec.to_config()?;
    // Set-up: what a submit costs before the first job can start.
    let interrupt = Arc::new(AtomicBool::new(false));
    let setup_root = work.join("setup");
    let mut m = Measured {
        gate: Gate {
            first: None,
            expected: expected(w.name, seed)?,
            expected_checked: false,
        },
        setup: SetupSampler {
            set_up: if w.service {
                Box::new(|i| {
                    let store =
                        CampaignStore::create(&setup_root.join(i.to_string()), main_spec.clone())?;
                    CampaignSession::new(store, Telemetry::off(), Arc::clone(&interrupt)).map(drop)
                })
            } else {
                Box::new(|_| {
                    drop(PreparedCampaign::new(&cfg));
                    Ok(())
                })
            },
            cores: Cores::of_this_thread(),
            runs: 0,
            samples: Vec::new(),
        },
        status_rtt: Vec::new(),
        peak_rss: None,
        attempted: 0,
        failed: 0,
    };
    m.setup.burst(SETUP_FIRST_BURST)?;

    let mut campaigns: Vec<Campaign> = Vec::new();
    let measured = Instant::now();
    if w.service {
        with_service(&work.join("svc"), |svc| {
            // Reduced twin: sharded service report == unsharded engine.
            let twin = spec(w, seed, &format!("twin-{seed}"), w.twin_boards)?;
            let c = service_campaign(svc, &twin, false)?;
            m.attempted += c.outcomes.len() as u64 + c.requests;
            if c.report != run_campaign(&twin.to_config()?).to_json().into_bytes() {
                return Err("twin: service report differs from run_campaign".into());
            }
            let _ = std::fs::remove_dir_all(svc.root.join(&twin.name));
            let started = Instant::now();
            while campaigns.len() < 2 || started.elapsed().as_secs_f64() < seconds {
                let name = format!("{}-{seed}-{}", w.name, campaigns.len());
                campaigns.push(m.through_service(svc, &spec(w, seed, &name, w.boards)?)?);
            }
            m.count_service_errors(svc)
        })?;
    } else {
        let started = Instant::now();
        let engine_seconds = seconds * (1.0 - FLEET_SERVICE_SHARE);
        while campaigns.len() < 2 || started.elapsed().as_secs_f64() < engine_seconds {
            campaigns.push(m.campaign(&main_spec, || Ok(fleet_campaign(&cfg)))?);
        }
        // The same campaign through the service for the rest of the
        // window: its status round trips, and its report is the sharded
        // half of the oracle (checked by the gate's digest comparison).
        with_service(&work.join("svc"), |svc| {
            let started = Instant::now();
            let mut served = 0;
            while served == 0 || started.elapsed().as_secs_f64() < seconds * FLEET_SERVICE_SHARE {
                let name = format!("{}-{seed}-svc{served}", w.name);
                m.through_service(svc, &spec(w, seed, &name, w.boards)?)?;
                served += 1;
            }
            m.count_service_errors(svc)
        })?;
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let Measured {
        gate,
        setup,
        status_rtt,
        peak_rss,
        attempted,
        failed,
    } = m;
    let setup = setup.samples;
    let _ = std::fs::remove_dir_all(&setup_root);

    let first = gate.first.clone().expect("at least one campaign");
    let per = |f: &dyn Fn(&Campaign) -> f64| campaigns.iter().map(f).collect::<Vec<f64>>();
    let metrics = vec![
        ("setup_s", "s", setup),
        ("campaign_s", "s", per(&|c| c.campaign_s)),
        (
            "jobs_per_s",
            "1/s",
            per(&|c| c.outcomes.len() as f64 / c.exec_s),
        ),
        (
            "sim_cycles_per_s",
            "1/s",
            per(&|c| c.sim_cycles() as f64 / c.exec_s),
        ),
        ("status_p50_ms", "ms", vec![percentile(&status_rtt, 0.5)]),
        ("status_p90_ms", "ms", vec![percentile(&status_rtt, 0.9)]),
        ("peak_rss_mb", "MB", vec![peak_rss.unwrap_or(f64::NAN)]),
    ];
    let context = vec![
        ("campaigns", campaigns.len().to_string()),
        ("jobs_per_campaign", main_spec.total_jobs().to_string()),
        ("status_samples", status_rtt.len().to_string()),
        ("measured_s", measured_s.to_string()),
        ("totals", first.to_json()),
        ("expected_checked", gate.expected_checked.to_string()),
        (
            "failed_ratio",
            (failed as f64 / attempted.max(1) as f64).to_string(),
        ),
    ];
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        context,
    })
}

/// Build the campaign firmware and payload set the way the engine's
/// preparation does, with each step in its own span.
fn traced_prepare(
    t: &mut Tracer,
    cfg: &CampaignConfig,
) -> Result<(avr_core::image::FirmwareImage, replay::Payloads), String> {
    let fw = t
        .time("setup.build", u64::MAX, || {
            build(&cfg.app, &BuildOptions::vulnerable_mavr())
        })
        .map_err(|e| format!("build: {e:?}"))?;
    let payloads = t.time("setup.attack", u64::MAX, || {
        let ctx = AttackContext::discover(&fw.image).map_err(|e| format!("discover: {e:?}"))?;
        cfg.scenarios
            .iter()
            .map(|s| {
                s.attack_kind()
                    .map(|k| {
                        ctx.packets(k, &[(ATTACK_TARGET, ATTACK_VALUES)])
                            .map_err(|e| format!("payload: {e:?}"))
                    })
                    .transpose()
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((fw.image, payloads))
}

fn run_traced(w: &Workload, seed: u64, work: &Path) -> Result<RunResult, String> {
    let main_spec = spec(w, seed, &format!("{}-{seed}", w.name), w.boards)?;
    let cfg = main_spec.to_config()?;
    let threads = nproc();
    let epoch = Instant::now();
    let mut gate = Gate {
        first: None,
        expected: expected(w.name, seed)?,
        expected_checked: false,
    };
    let interrupt = Arc::new(AtomicBool::new(false));

    // Set-up probes.
    let mut setup = Tracer::new(epoch, "setup", 0);
    let mut prepared = None;
    for _ in 0..3 {
        prepared = Some(traced_prepare(&mut setup, &cfg)?);
    }
    let (image, payloads) = prepared.expect("three preparations");
    for i in 0..3 {
        let store = setup.time("store.create", u64::MAX, || {
            CampaignStore::create(&work.join(format!("setup-{i}")), main_spec.clone())
        })?;
        setup.time("setup.session", u64::MAX, || {
            CampaignSession::new(store, Telemetry::off(), Arc::clone(&interrupt))
        })?;
    }
    for k in 0..5u64 {
        setup
            .time("provision.total", u64::MAX, || {
                mavr_board::MavrBoard::provision_chaos(
                    &image,
                    replay::derive_seed(cfg.stream_base(), k * 3),
                    mavr::policy::RandomizationPolicy::default(),
                    Telemetry::off(),
                    mavr_board::FaultPlan::none(),
                )
            })
            .map_err(|e| format!("provision: {e}"))?;
    }

    // Without physics no world flies in the campaign: time the world
    // model's step on its own, so the layer still reads a measurement.
    if !cfg.physics {
        let mut world = mavr_world::World::new(
            mavr_world::Scenario::Hover,
            replay::derive_seed(cfg.stream_base(), 1 << 62),
        );
        for _ in 0..WORLD_PROBE_STEPS {
            let s = setup.enter("world.step", u64::MAX);
            let _ = world.sample();
            world.step(0.5, 0.5);
            setup.exit(s, 1);
        }
    }

    // Untraced baseline campaign through the workload's own entry point.
    let mut attempted = 0u64;
    let (mut errors, mut busy, mut skipped) = (0u64, 0u64, 0u64);
    let mut rtt_handler: Vec<(f64, f64)> = Vec::new();
    let baseline = if w.service {
        with_service(&work.join("svc"), |svc| {
            let c = service_campaign(svc, &main_spec, true)?;
            let (e, b, skips) = service_stats(svc)?;
            attempted += c.outcomes.len() as u64 + c.requests + 1;
            (errors, busy) = (errors + e, busy + b);
            skipped += skips;
            Ok(c)
        })?
    } else {
        let c = fleet_campaign(&cfg);
        attempted += c.outcomes.len() as u64;
        c
    };
    gate.check(&main_spec, &baseline)?;
    rtt_handler.extend(
        baseline
            .status_rtt_ms
            .iter()
            .copied()
            .zip(baseline.handler_ms.iter().copied()),
    );

    // Traced replay of every job, longest first so the pool drains evenly.
    let shared = replay::Shared::new(&cfg, &image, &payloads)?;
    let provision_ms = mean(&setup_durations(&setup, "provision.total"));
    let mut jobs: Vec<(u64, BoardOutcome)> = baseline
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| (i as u64, o.clone()))
        .collect();
    // Rough job cost in ms: flight at ~200M cycles/s plus one
    // provisioning per boot.
    let cost =
        |o: &BoardOutcome| o.final_cycle as f64 / 2e5 + (1 + o.recoveries) as f64 * provision_ms;
    jobs.sort_by(|a, b| cost(&b.1).total_cmp(&cost(&a.1)));
    let replayed = replay::replay_all(&shared, &jobs, threads, epoch)?;
    let (untraced_ns, traced_ns, cost_mismatches) =
        replay::tracing_cost(&shared, &jobs, threads, epoch)?;
    for mismatches in [&replayed.mismatches, &cost_mismatches] {
        if let Some(first) = mismatches.first() {
            return Err(format!(
                "replay fidelity: {} of {} jobs differ; first: {first}",
                mismatches.len(),
                jobs.len(),
            ));
        }
    }

    // Store and merge, serially, on the replayed outcomes.
    let store_started = Instant::now();
    let mut st = Tracer::new(epoch, "store", 0);
    let plan = ShardPlan::new(&cfg, main_spec.shard_jobs);
    let mut shards: Vec<ShardCheckpoint> = (0..plan.shard_count())
        .map(|i| ShardCheckpoint::new(&cfg, &plan, i))
        .collect();
    for (job, outcome) in &replayed.outcomes {
        shards[(job / plan.shard_jobs) as usize].insert_outcome(*job, outcome.clone());
    }
    for shard in &shards {
        let s = st.enter("encode.checkpoint", u64::MAX);
        let bytes = shard.to_bytes();
        st.exit(s, bytes.len() as u64);
    }
    let trace_root = work.join("trace");
    let store = st.time("store.create", u64::MAX, || {
        CampaignStore::create(&trace_root, main_spec.clone())
    })?;
    for shard in &shards {
        st.time("store.save_shard", u64::MAX, || store.save_shard(shard))?;
    }
    for i in 0..plan.shard_count() {
        st.time("store.load_shard", u64::MAX, || store.load_shard(&cfg, i))?;
    }
    for _ in 0..3 {
        st.time("store.status", u64::MAX, || store.status())?;
    }
    let (report_path, _) = st.time("merge", u64::MAX, || merge_store(&store))?;
    let store_wall_ns = store_started.elapsed().as_nanos() as u64;
    let merged = std::fs::read(&report_path).map_err(|e| format!("read merged report: {e}"))?;
    if merged != baseline.report {
        return Err("traced store/merge report differs from the campaign's report".into());
    }
    let mut store_bytes = merged.len() as u64;
    for i in 0..plan.shard_count() {
        store_bytes += std::fs::metadata(store.shard_path(i)).map_or(0, |m| m.len());
    }

    // Runner probe: one-shard slices of a fresh store of the same
    // campaign, the executor's scan between them, and the sink cadence of
    // one in-order shard run.
    let mut rt = Tracer::new(epoch, "runner", 0);
    let runner_root = work.join("runner");
    let store2 = CampaignStore::create(&runner_root, main_spec.clone())?;
    let session = CampaignSession::new(store2, Telemetry::off(), Arc::clone(&interrupt))?;
    let scanner = Service::new(runner_root.clone(), Arc::clone(&interrupt));
    let slices = plan.shard_count().min(2);
    for _ in 0..slices {
        rt.time("runner.slice", u64::MAX, || session.run(None, Some(1)))?;
        rt.time("runner.scan", u64::MAX, || -> Result<(), String> {
            for i in 0..plan.shard_count() {
                let shard = session.store.load_shard(&cfg, i)?;
                if !shard.complete() {
                    break;
                }
            }
            scanner.pending_campaign().map(drop)
        })?;
    }
    skipped += session.checkpoints_skipped();
    let prepared_campaign = rt.time("setup.prepare", u64::MAX, || PreparedCampaign::new(&cfg));
    let probe_shard = (plan.shard_count() - 1).min(2);
    let mut ckpt = ShardCheckpoint::new(&cfg, &plan, probe_shard);
    let mut deliveries = Vec::new();
    rt.time("runner.shard_resume", u64::MAX, || {
        run_shard_resume(&cfg, &prepared_campaign, &mut ckpt, None, 0, |_, _| {
            deliveries.push(Instant::now())
        })
    })?;
    let sink_gaps_ms: Vec<f64> = deliveries
        .windows(2)
        .map(|p| (p[1] - p[0]).as_secs_f64() * 1e3)
        .collect();

    // The fleet path has no socket of its own: probe the service holding
    // the traced campaign's store instead.
    if !w.service {
        let status = format!("{{\"op\":\"status\",\"campaign\":\"{}\"}}", main_spec.name);
        with_service(&trace_root, |svc| {
            for _ in 0..20 {
                let sent = Instant::now();
                ok_response(&request(svc.sock, &status)?, "status")?;
                let rtt = sent.elapsed().as_secs_f64() * 1e3;
                let h = Instant::now();
                let _ = svc.service.handle_line(&status);
                rtt_handler.push((rtt, h.elapsed().as_secs_f64() * 1e3));
                std::thread::sleep(STATUS_PERIOD);
            }
            let (e, b, skips) = service_stats(svc)?;
            attempted += 21;
            (errors, busy) = (errors + e, busy + b);
            skipped += skips;
            Ok(())
        })?;
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("mkdir {OUT_DIR}: {e}"))?;
    let mut all: Vec<&Tracer> = vec![&setup];
    all.extend(replayed.tracers.iter());
    all.push(&st);
    all.push(&rt);
    trace::write_spans(
        &Path::new(OUT_DIR).join(format!("spans-{}-{seed}.jsonl", w.name)),
        all,
    )?;
    let replay_threads = replayed.threads;

    // Per-layer numbers.
    let replay_totals = layer_totals(replayed.tracers.iter());
    let store_totals = layer_totals([&st]);
    let runner_totals = layer_totals([&rt]);
    let get = |m: &BTreeMap<&'static str, trace::LayerTotal>, k: &str| {
        m.get(k).copied().unwrap_or_default()
    };
    let mean_ms = |m: &BTreeMap<&'static str, trace::LayerTotal>, k: &str| {
        let l = get(m, k);
        if l.calls == 0 {
            0.0
        } else {
            l.total_ns as f64 / l.calls as f64 / 1e6
        }
    };
    let jobs_n = replayed.outcomes.len() as f64;
    let outcomes: Vec<&BoardOutcome> = replayed.outcomes.iter().map(|(_, o)| o).collect();
    let per_job =
        |f: &dyn Fn(&BoardOutcome) -> f64| outcomes.iter().map(|o| f(o)).sum::<f64>() / jobs_n;

    let warm = get(&replay_totals, "flight.engine");
    let cycles_per_ns = warm.work as f64 / warm.total_ns.max(1) as f64;
    let cold = get(&replay_totals, "machine.first_run");
    let first_run_ms = if cold.calls == 0 {
        0.0
    } else {
        (cold.total_ns as f64 - cold.work as f64 / cycles_per_ns) / cold.calls as f64 / 1e6
    };
    let world = match get(&replay_totals, "world.step") {
        w if w.work > 0 => w,
        _ => get(&layer_totals([&setup]), "world.step"),
    };
    let job_span = get(&replay_totals, "job");
    // Reconciliation: only the named layers' self time counts as covered.
    // Everything else in the traced wall clock — unattributed spans, idle
    // workers, code between spans — is the gap.
    let layer_self = |m: &BTreeMap<&'static str, trace::LayerTotal>| -> f64 {
        m.iter()
            .filter(|(k, _)| !UNATTRIBUTED.contains(k))
            .map(|(_, l)| l.self_ns as f64)
            .sum()
    };
    let unattributed_ns: f64 = UNATTRIBUTED
        .iter()
        .map(|k| get(&replay_totals, k).self_ns as f64)
        .sum::<f64>()
        / replay_threads as f64;
    let idle_ns = replayed.wall_ns as f64 - job_span.total_ns as f64 / replay_threads as f64;
    let traced_wall = replayed.wall_ns as f64 + store_wall_ns as f64;
    let layered = layer_self(&replay_totals) / replay_threads as f64 + layer_self(&store_totals);
    let reconcile_gap = (layered - traced_wall).abs() / traced_wall;
    // The same sum against the untraced campaign's execution phase.
    let exec_gap = (layered / 1e9 - baseline.exec_s).abs() / baseline.exec_s;
    let overhead = traced_ns / untraced_ns;
    if reconcile_gap > RECONCILE_BOUND {
        return Err(format!(
            "trace.reconcile_gap {reconcile_gap:.4} exceeds its bound {RECONCILE_BOUND}"
        ));
    }
    if !(overhead > 0.0 && overhead <= OVERHEAD_BOUND) {
        return Err(format!(
            "trace.overhead {overhead:.3} outside (0, {OVERHEAD_BOUND}]"
        ));
    }
    let handler: Vec<f64> = rtt_handler.iter().map(|&(_, h)| h).collect();
    let transport: Vec<f64> = rtt_handler.iter().map(|&(r, h)| r - h).collect();
    let recoveries: f64 = outcomes.iter().map(|o| o.recoveries as f64).sum();
    let m = |v: f64| vec![v];
    let metrics: Vec<(&'static str, &'static str, Vec<f64>)> = vec![
        ("server.status_handler_ms", "ms", handler),
        ("server.transport_ms", "ms", transport),
        ("server.errors", "count", m(errors as f64)),
        ("server.busy_rejected", "count", m(busy as f64)),
        (
            "runner.slice_ms",
            "ms",
            m(mean_ms(&runner_totals, "runner.slice")),
        ),
        (
            "runner.scan_ms",
            "ms",
            m(mean_ms(&runner_totals, "runner.scan")),
        ),
        (
            "fleet.worker_busy_frac",
            "ratio",
            m(job_span.total_ns as f64 / (replay_threads as f64 * replayed.wall_ns as f64)),
        ),
        (
            "fleet.sink_gap_p90_ms",
            "ms",
            m(percentile(&sink_gaps_ms, 0.9)),
        ),
        (
            "provision.preprocess_ms",
            "ms",
            m(mean_ms(&replay_totals, "provision.preprocess")),
        ),
        (
            "provision.upload_ms",
            "ms",
            m(mean_ms(&replay_totals, "provision.upload")),
        ),
        (
            "provision.container_read_ms",
            "ms",
            m(mean_ms(&replay_totals, "provision.container_read")),
        ),
        (
            "provision.randomize_ms",
            "ms",
            m(mean_ms(&replay_totals, "provision.randomize")),
        ),
        (
            "provision.stream_ms",
            "ms",
            m(mean_ms(&replay_totals, "provision.stream")),
        ),
        (
            "provision.page_write_ms",
            "ms",
            m(mean_ms(&replay_totals, "provision.page_write")),
        ),
        (
            "provision.verify_ms",
            "ms",
            m(mean_ms(&replay_totals, "provision.verify")),
        ),
        (
            "provision.total_ms",
            "ms",
            setup_durations(&setup, "provision.total"),
        ),
        (
            "provision.boots_per_job",
            "count",
            m((jobs_n + recoveries) / jobs_n),
        ),
        (
            "machine.new_ms",
            "ms",
            m(mean_ms(&replay_totals, "machine.new")),
        ),
        ("machine.first_run_ms", "ms", m(first_run_ms)),
        (
            "machine.blocks_per_job",
            "count",
            m(per_job(&|o| o.sim_block_count as f64)),
        ),
        (
            "machine.block_invalidations_per_job",
            "count",
            m(per_job(&|o| o.sim_block_invalidations as f64)),
        ),
        (
            "flight.engine_mcycles_per_s",
            "Mcycles/s",
            m(cycles_per_ns * 1e3),
        ),
        (
            "flight.board_run_ms",
            "ms",
            m(mean_ms(&replay_totals, "flight.board_run")),
        ),
        (
            "flight.recover_ms",
            "ms",
            m(mean_ms(&replay_totals, "flight.recover")),
        ),
        (
            "world.step_us",
            "us",
            m(if world.work == 0 {
                0.0
            } else {
                world.total_ns as f64 / world.work as f64 / 1e3
            }),
        ),
        (
            "channel.pump_us",
            "us",
            m(mean_ms(&replay_totals, "channel.pump") * 1e3),
        ),
        (
            "flight.sim_cycles_per_job",
            "count",
            m(per_job(&|o| o.final_cycle as f64)),
        ),
        (
            "encode.outcome_line_us",
            "us",
            m(mean_ms(&replay_totals, "encode.outcome_line") * 1e3),
        ),
        (
            "encode.metrics_fold_us",
            "us",
            m(mean_ms(&replay_totals, "encode.metrics_fold") * 1e3),
        ),
        (
            "encode.checkpoint_us_per_job",
            "us",
            m(get(&store_totals, "encode.checkpoint").total_ns as f64 / jobs_n / 1e3),
        ),
        (
            "encode.bytes_per_job",
            "bytes",
            m(get(&replay_totals, "encode.outcome_line").work as f64 / jobs_n),
        ),
        (
            "store.save_shard_ms",
            "ms",
            m(mean_ms(&store_totals, "store.save_shard")),
        ),
        (
            "store.load_shard_ms",
            "ms",
            m(mean_ms(&store_totals, "store.load_shard")),
        ),
        (
            "store.status_ms",
            "ms",
            m(mean_ms(&store_totals, "store.status")),
        ),
        (
            "store.bytes_written_per_job",
            "bytes",
            m(store_bytes as f64 / jobs_n),
        ),
        ("store.checkpoints_skipped", "count", m(skipped as f64)),
        ("merge.ms", "ms", m(mean_ms(&store_totals, "merge"))),
        (
            "merge.us_per_job",
            "us",
            m(mean_ms(&store_totals, "merge") * 1e3 / jobs_n),
        ),
        (
            "setup.build_ms",
            "ms",
            setup_durations(&setup, "setup.build"),
        ),
        (
            "setup.attack_ms",
            "ms",
            setup_durations(&setup, "setup.attack"),
        ),
        (
            "setup.session_ms",
            "ms",
            setup_durations(&setup, "setup.session"),
        ),
        ("trace.reconcile_gap", "ratio", m(reconcile_gap)),
        ("trace.exec_gap", "ratio", m(exec_gap)),
        ("trace.overhead", "ratio", m(overhead)),
    ];
    let context = vec![
        ("jobs_replayed", replayed.outcomes.len().to_string()),
        ("replay_threads", replay_threads.to_string()),
        ("replay_wall_s", (replayed.wall_ns as f64 / 1e9).to_string()),
        ("store_wall_s", (store_wall_ns as f64 / 1e9).to_string()),
        ("untraced_job_s", (untraced_ns / 1e9).to_string()),
        ("traced_job_s", (traced_ns / 1e9).to_string()),
        ("campaign_exec_s", baseline.exec_s.to_string()),
        (
            "replay_vs_campaign",
            (replayed.wall_ns as f64 / 1e9 / baseline.exec_s).to_string(),
        ),
        ("layered_s", (layered / 1e9).to_string()),
        ("unattributed_s", (unattributed_ns / 1e9).to_string()),
        ("idle_s", (idle_ns / 1e9).to_string()),
        ("status_pairs", rtt_handler.len().to_string()),
        ("sink_gaps", sink_gaps_ms.len().to_string()),
        (
            "totals",
            gate.first.clone().expect("baseline checked").to_json(),
        ),
        ("expected_checked", gate.expected_checked.to_string()),
        ("reconcile_bound", RECONCILE_BOUND.to_string()),
        ("overhead_bound", OVERHEAD_BOUND.to_string()),
    ];
    Ok(RunResult {
        attempted,
        failed: errors + busy,
        metrics,
        context,
    })
}

/// Durations (ms) of every span of `layer` in `t`.
fn setup_durations(t: &Tracer, layer: &str) -> Vec<f64> {
    t.spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect()
}

/// The HEAD commit of the repository the benchmark runs in, if it is a
/// git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
                    .ok_or(std::io::ErrorKind::NotFound.into())
            })
            .unwrap_or_else(|_: std::io::Error| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    Json::str(s).to_text()
}

fn report(w: &str, args: &Args, result: &Result<RunResult, String>) -> String {
    let (correct, attempted, failed) = match result {
        Ok(r) => (r.failed == 0, r.attempted.max(1), r.failed),
        Err(_) => (false, 1, 1),
    };
    let mut context = vec![
        format!("\"workload\":{}", json_str(w)),
        format!("\"seed\":{}", args.seed),
        format!("\"trace\":{}", u8::from(args.trace)),
        format!("\"seconds\":{}", args.seconds),
        format!("\"nproc\":{}", nproc()),
        format!("\"commit\":{}", json_str(&commit())),
        format!("\"rustc\":{}", json_str(env!("PERFBENCH_RUSTC"))),
    ];
    if let Ok(doc) = Json::parse(EXPECTED) {
        for key in ["default_seed", "held_out_seed"] {
            if let Some(seed) = doc.get(key).and_then(Json::as_u64) {
                context.push(format!("\"{key}\":{seed}"));
            }
        }
    }
    let mut metrics = Vec::new();
    match result {
        Ok(r) => {
            context.extend(r.context.iter().map(|(k, v)| format!("\"{k}\":{v}")));
            let mut summaries = Vec::new();
            for (name, unit, samples) in &r.metrics {
                let s = summarize(samples);
                summaries.push(format!(
                    "\"{name}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                    num(s.median),
                    num(s.q1),
                    num(s.q3),
                    s.n
                ));
                metrics.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(s.median)
                ));
            }
            context.push(format!("\"samples\":{{{}}}", summaries.join(",")));
        }
        Err(e) => context.push(format!("\"error\":{}", json_str(e))),
    }
    println!("{{\"context\":{{{}}}}}", context.join(","));
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    result
}

/// A JSON number, or 0 for a value no sample produced.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn run_one(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let result = if args.trace {
        run_traced(w, args.seed, &work)
    } else {
        run_end_to_end(w, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    result
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        match WORKLOADS.iter().find(|w| w.name == args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload {}", args.workload);
                std::process::exit(2);
            }
        }
    };
    let mut all_correct = true;
    for w in chosen {
        let result = run_one(w, &args);
        if let Err(e) = &result {
            eprintln!("perfbench: {}: {e}", w.name);
        }
        all_correct &= result.as_ref().is_ok_and(|r| r.failed == 0);
        println!("{}", report(w.name, &args, &result));
    }
    if !all_correct {
        std::process::exit(1);
    }
}
