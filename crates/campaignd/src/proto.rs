//! The service's newline-delimited JSON control protocol.
//!
//! One request per line, one response line per request — the same framing
//! over a Unix socket or stdio, so the protocol is testable with plain
//! strings. Requests are `{"op": ...}` objects:
//!
//! ```text
//! {"op":"submit","spec":{...}}        create/adopt a campaign
//! {"op":"status"}                     all campaigns
//! {"op":"status","campaign":"name"}   one campaign
//! {"op":"run","campaign":"name","max_jobs":N,"max_shards":K}
//!                                     execute a bounded work slice
//! {"op":"merge","campaign":"name"}    fold shards into report.json
//! {"op":"stats"}                      service supervision counters
//! {"op":"shutdown"}                   stop the server loop
//! ```
//!
//! Every response carries `"ok"`; failures are `{"ok":false,"error":...}`
//! — a malformed line never kills the service.
//!
//! [`Service`] takes `&self` everywhere: the socket server shares one
//! instance across its connection threads and the background executor
//! thread.
//! Sessions sit behind a mutex, slice execution is serialized by a
//! dedicated `exec` lock, and `status`/`submit`/`stats` never touch that
//! lock — so the service answers `status` while a shard is mid-run.

use crate::faultfs::FaultFs;
use crate::json::Json;
use crate::runner::{merge_store, CampaignSession};
use crate::spec::CampaignSpec;
use crate::store::{campaign_dir, CampaignStore};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::Telemetry;

/// What the transport loop should do after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Stop the server loop (a `shutdown` request).
    Shutdown,
}

/// Monotonic supervision counters, exposed by the `stats` op. All relaxed
/// atomics — they order nothing, they only count.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Protocol requests handled (including ones answered `"ok":false`).
    pub requests: AtomicU64,
    /// Requests answered `"ok":false`.
    pub errors: AtomicU64,
    /// Connections rejected with the typed `busy` response because the
    /// socket server was already serving
    /// [`crate::ServeOptions::max_connections`] connections.
    pub busy_rejected: AtomicU64,
    /// Requests rejected for exceeding the line-size cap.
    pub oversized: AtomicU64,
    /// Durable writes the degradation ladder skipped (checkpoint or
    /// finalized stream) — work re-ran instead of aborting.
    pub checkpoint_skipped: AtomicU64,
    /// Work slices executed.
    pub slices: AtomicU64,
    /// Jobs executed across all slices (re-runs included).
    pub jobs_run: AtomicU64,
}

/// Service state: the campaign root plus the sessions of unfinished
/// campaigns (firmware is linked once per campaign, not once per work
/// slice).
pub struct Service {
    root: PathBuf,
    interrupt: Arc<AtomicBool>,
    sessions: Mutex<HashMap<String, Arc<CampaignSession>>>,
    /// Serializes slice execution: one shard runs at a time no matter how
    /// many connections ask, while read-only ops bypass it.
    exec: Mutex<()>,
    fault_fs: FaultFs,
    stats: ServiceStats,
}

impl Service {
    /// A service over `root`, stopping cooperatively on `interrupt`.
    pub fn new(root: PathBuf, interrupt: Arc<AtomicBool>) -> Self {
        Service {
            root,
            interrupt,
            sessions: Mutex::new(HashMap::new()),
            exec: Mutex::new(()),
            fault_fs: FaultFs::none(),
            stats: ServiceStats::default(),
        }
    }

    /// Route every store this service opens through a disk-fault injector
    /// (chaos harnesses only; the default service never faults).
    #[must_use]
    pub fn with_store_faults(mut self, fault_fs: FaultFs) -> Self {
        self.fault_fs = fault_fs;
        self
    }

    /// The service's supervision counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Handle one request line; returns the response line (no trailing
    /// newline) and what the transport should do next.
    pub fn handle_line(&self, line: &str) -> (String, Control) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        match self.dispatch(line) {
            Ok((json, control)) => (json.to_text(), control),
            Err(error) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                (
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(false)),
                        ("error".into(), Json::str(error)),
                    ])
                    .to_text(),
                    Control::Continue,
                )
            }
        }
    }

    fn dispatch(&self, line: &str) -> Result<(Json, Control), String> {
        let req = Json::parse(line)?;
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string `op`")?;
        match op {
            "submit" => self.op_submit(&req),
            "status" => self.op_status(&req),
            "run" => self.op_run(&req),
            "merge" => self.op_merge(&req),
            "stats" => self.op_stats(),
            "shutdown" => Ok((
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("shutdown".into(), Json::Bool(true)),
                ]),
                Control::Shutdown,
            )),
            other => Err(format!(
                "unknown op `{other}` (submit, status, run, merge, stats, shutdown)"
            )),
        }
    }

    fn op_submit(&self, req: &Json) -> Result<(Json, Control), String> {
        let spec_json = req.get("spec").ok_or("submit needs a `spec` object")?;
        let spec = CampaignSpec::from_json(&spec_json.to_text())?;
        let store = CampaignStore::create(&self.root, spec)?.with_faults(self.fault_fs.clone());
        let plan = store.plan();
        let response = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("campaign".into(), Json::str(&store.spec.name)),
            ("total_jobs".into(), Json::num(plan.total_jobs)),
            ("shards".into(), Json::num(plan.shard_count())),
        ]);
        Ok((response, Control::Continue))
    }

    fn op_status(&self, req: &Json) -> Result<(Json, Control), String> {
        let stores = match req.get("campaign").and_then(Json::as_str) {
            Some(name) => vec![CampaignStore::open(&campaign_dir(&self.root, name)?)?],
            None => CampaignStore::list(&self.root)?,
        };
        let mut rows = Vec::new();
        for store in stores {
            rows.push(store.status()?.to_json());
        }
        Ok((
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("campaigns".into(), Json::Arr(rows)),
            ]),
            Control::Continue,
        ))
    }

    fn op_run(&self, req: &Json) -> Result<(Json, Control), String> {
        let name = req
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or("run needs a `campaign` name")?
            .to_string();
        let budget = match req.get("max_jobs") {
            None => None,
            Some(j) => Some(j.as_u64().ok_or("`max_jobs` must be a u64")? as usize),
        };
        let max_shards = match req.get("max_shards") {
            None => None,
            Some(j) => Some(j.as_u64().ok_or("`max_shards` must be a u64")? as usize),
        };
        let outcome = self.run_slice(&name, budget, max_shards)?;
        let mut fields = vec![
            ("ok".into(), Json::Bool(true)),
            ("campaign".into(), Json::str(name)),
            ("jobs_run".into(), Json::num(outcome.jobs_run as u64)),
            ("done_jobs".into(), Json::num(outcome.done_jobs)),
            ("total_jobs".into(), Json::num(outcome.total_jobs)),
            ("complete".into(), Json::Bool(outcome.complete)),
            ("interrupted".into(), Json::Bool(outcome.interrupted)),
        ];
        if outcome.checkpoints_skipped > 0 {
            fields.push((
                "checkpoints_skipped".into(),
                Json::num(outcome.checkpoints_skipped),
            ));
        }
        Ok((Json::Obj(fields), Control::Continue))
    }

    fn op_merge(&self, req: &Json) -> Result<(Json, Control), String> {
        let name = req
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or("merge needs a `campaign` name")?;
        let store = CampaignStore::open(&campaign_dir(&self.root, name)?)?
            .with_faults(self.fault_fs.clone());
        let (report_path, _metrics) = merge_store(&store)?;
        let mut fields = vec![
            ("ok".into(), Json::Bool(true)),
            ("campaign".into(), Json::str(name)),
            (
                "report".into(),
                Json::str(report_path.to_string_lossy().into_owned()),
            ),
        ];
        let quarantined = store.status()?.jobs_quarantined;
        if quarantined > 0 {
            fields.push(("quarantined".into(), Json::num(quarantined)));
        }
        Ok((Json::Obj(fields), Control::Continue))
    }

    fn op_stats(&self) -> Result<(Json, Control), String> {
        let n = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed));
        Ok((
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("campaignd_requests".into(), n(&self.stats.requests)),
                ("campaignd_errors".into(), n(&self.stats.errors)),
                (
                    "campaignd_busy_rejected".into(),
                    n(&self.stats.busy_rejected),
                ),
                ("campaignd_oversized".into(), n(&self.stats.oversized)),
                (
                    "campaignd_checkpoint_skipped".into(),
                    n(&self.stats.checkpoint_skipped),
                ),
                ("campaignd_slices".into(), n(&self.stats.slices)),
                ("campaignd_jobs_run".into(), n(&self.stats.jobs_run)),
            ]),
            Control::Continue,
        ))
    }

    /// Run one bounded work slice of `name`. Its session is cached while
    /// the campaign is unfinished and its spec on disk is unchanged (a
    /// campaign deleted and resubmitted under the same name gets a new
    /// one), and dropped once the campaign completes, so the cache holds
    /// only campaigns in progress. Slices from concurrent callers
    /// serialize on the `exec` lock; everything else in the protocol stays
    /// responsive while one runs.
    pub fn run_slice(
        &self,
        name: &str,
        budget_jobs: Option<usize>,
        max_shards: Option<usize>,
    ) -> Result<crate::runner::RunOutcome, String> {
        let store = CampaignStore::open(&campaign_dir(&self.root, name)?)?
            .with_faults(self.fault_fs.clone());
        let session = {
            let mut sessions = lock(&self.sessions);
            match sessions.get(name) {
                Some(session) if session.store.spec == store.spec => Arc::clone(session),
                _ => {
                    let session = Arc::new(CampaignSession::new(
                        store,
                        Telemetry::off(),
                        Arc::clone(&self.interrupt),
                    )?);
                    sessions.insert(name.to_string(), Arc::clone(&session));
                    session
                }
            }
        };
        let _exec = lock(&self.exec);
        let outcome = session.run(budget_jobs, max_shards)?;
        if outcome.complete {
            let mut sessions = lock(&self.sessions);
            if sessions.get(name).is_some_and(|s| Arc::ptr_eq(s, &session)) {
                sessions.remove(name);
            }
        }
        self.stats.slices.fetch_add(1, Ordering::Relaxed);
        self.stats
            .jobs_run
            .fetch_add(outcome.jobs_run as u64, Ordering::Relaxed);
        self.stats
            .checkpoint_skipped
            .fetch_add(outcome.checkpoints_skipped, Ordering::Relaxed);
        Ok(outcome)
    }

    /// The first campaign with unfinished jobs (service work queue, in
    /// name order), or None when everything is complete.
    pub fn pending_campaign(&self) -> Result<Option<String>, String> {
        for store in CampaignStore::list(&self.root)? {
            let status = store.status()?;
            if !status.complete() {
                return Ok(Some(store.spec.name));
            }
        }
        Ok(None)
    }

    /// Whether the shared interrupt flag has tripped.
    pub fn interrupted(&self) -> bool {
        self.interrupt.load(Ordering::Relaxed)
    }

    /// Trip the shared interrupt flag: a running slice stops at its next
    /// job boundary, flushing its checkpoint.
    pub(crate) fn interrupt(&self) {
        self.interrupt.store(true, Ordering::Relaxed);
    }
}

/// Lock a mutex, shrugging off poisoning: a panicked worker must not
/// brick the whole service (the data under every service mutex is valid
/// at all times — each session map update is one insert or remove, `exec`
/// guards nothing).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
