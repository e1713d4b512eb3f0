//! Flight-recorder telemetry: a zero-dependency, allocation-light event bus
//! for the MAVR reproduction.
//!
//! Every layer of the stack — the AVR simulator, the dual-processor board,
//! the attack pipeline, the protocol codecs — emits structured [`Event`]s
//! through a shared [`Telemetry`] handle. The handle is an `Option` around a
//! reference-counted [`Recorder`]; when no recorder is attached (the
//! default), emitting costs **one branch** and allocates nothing, because
//! event fields are built inside a closure that never runs. This keeps the
//! simulator's hot loop unaffected by instrumentation that is off.
//!
//! Two sinks ship with the crate:
//!
//! * [`NullRecorder`] — counts events and drops them (for overhead tests),
//! * [`RingRecorder`] — a bounded in-memory ring, the post-mortem "flight
//!   recorder" proper; [`RingRecorder::to_jsonl`] writes its events as
//!   JSON lines for offline analysis (`mavr-cli trace --out events.jsonl`).
//!
//! The ring is a [`History`], the one bounded history of the workspace:
//! the simulator's instruction trail and the ground station's scroll-back
//! are histories too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Well-known event kinds shared across crates.
///
/// Most emitters name their kinds inline (`"sim.fault"`, `"board.recovery"`
/// — grep finds them next to the `emit` call). The snapshot/replay layer is
/// different: the *producer* (the `snapshot` crate) and the *consumers*
/// (fleet resume, CLI, flight-recorder analysis) live in different crates,
/// so its kinds are named here once and imported everywhere.
pub mod kinds {
    /// A machine snapshot was written.
    pub const SNAPSHOT_SAVED: &str = "snapshot.saved";
    /// Execution state was replaced from a snapshot.
    pub const SNAPSHOT_RESTORED: &str = "snapshot.restored";
    /// A fleet campaign resumed from a checkpoint instead of starting cold.
    pub const CHECKPOINT_RESUMED: &str = "campaign.checkpoint_resumed";
    /// The master retried part of the reflash pipeline: a container
    /// re-read, a full-stream re-send, or a page-repair round. Produced by
    /// the board crate for flight-recorder analysis; fleet chaos reporting
    /// reads the master's `resilience` counters instead.
    pub const REFLASH_RETRY: &str = "master.reflash_retry";
    /// The master fell back to degraded safe mode: the last-known-good
    /// image was re-streamed without fresh randomization.
    pub const DEGRADED_BOOT: &str = "master.degraded_boot";
    /// A boot failed terminally after retries and the degraded fallback;
    /// the board is bricked pending manual service.
    pub const BOOT_FAILED: &str = "master.boot_failed";
    /// Periodic campaign progress heartbeat: jobs done/total, running
    /// tallies, and boards·cycles/sec throughput. Produced by the fleet
    /// worker pool, rendered live by `mavr-cli fleet --progress`. The only
    /// place wall-clock numbers are allowed — metrics snapshots stay
    /// wall-clock-free so same-seed runs diff byte-identical.
    pub const CAMPAIGN_PROGRESS: &str = "campaign.progress";
    /// A campaign run stopped early on a shutdown request (SIGINT/SIGTERM
    /// or a service stop): the worker pool drained in-flight jobs and the
    /// completed prefix was flushed to its checkpoint. Produced by the
    /// campaign service runner at the end of an interrupted slice, for a
    /// recorder attached to its session; nothing in the workspace
    /// consumes it.
    pub const CAMPAIGN_INTERRUPTED: &str = "campaign.interrupted";
    /// A campaign shard's checkpoint was persisted (complete or partial).
    /// Produced by the campaign service runner.
    pub const SHARD_FLUSHED: &str = "campaign.shard_flushed";
    /// A supervised job attempt failed (panic or watchdog timeout) and
    /// will be retried with backoff. Produced by the fleet worker pool.
    pub const JOB_RETRIED: &str = "campaign.job_retried";
    /// A job exhausted its supervised retries and was quarantined: its
    /// outcome carries a typed failure record instead of a flight.
    pub const JOB_QUARANTINED: &str = "campaign.job_quarantined";
    /// A shard checkpoint could not be persisted even after bounded
    /// retries; the campaign continued and the shard's unpersisted slice
    /// will re-run. Produced by the campaign service runner.
    pub const CHECKPOINT_SKIPPED: &str = "campaign.checkpoint_skipped";
}

pub mod history;
pub mod metrics;

pub use history::History;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (cycle counts, addresses, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (milliseconds, rates).
    F64(f64),
    /// Text (fault descriptions, symbol names).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Value {
    /// Render as a JSON value.
    pub fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) if v.is_finite() => v.to_string(),
            Value::F64(_) => "null".to_string(),
            Value::Str(v) => format!("\"{}\"", json_escape(v)),
            Value::Bool(v) => v.to_string(),
        }
    }
}

/// One structured event on the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number assigned by the [`Telemetry`] handle.
    pub seq: u64,
    /// Dotted event kind, e.g. `sim.fault` or `board.recovery`.
    pub kind: &'static str,
    /// Simulated-time stamp in CPU cycles, when the emitter has one.
    pub cycle: Option<u64>,
    /// Typed fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Fetch a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"kind\":\"{}\"",
            self.seq,
            json_escape(self.kind)
        );
        if let Some(c) = self.cycle {
            out.push_str(&format!(",\"cycle\":{c}"));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!(",\"{}\":{}", json_escape(k), v.to_json()));
        }
        out.push('}');
        out
    }
}

/// An event sink.
pub trait Recorder {
    /// Consume one event.
    fn record(&mut self, event: Event);
    /// Events seen so far (including any later dropped by a bounded sink).
    fn events_emitted(&self) -> u64;
}

/// Counts events and discards them — the "instrumentation on, sink off"
/// configuration used to measure recorder overhead.
#[derive(Debug, Default)]
pub struct NullRecorder {
    seen: u64,
}

impl Recorder for NullRecorder {
    fn record(&mut self, _event: Event) {
        self.seen += 1;
    }
    fn events_emitted(&self) -> u64 {
        self.seen
    }
}

/// Bounded in-memory ring of the most recent events.
#[derive(Debug)]
pub struct RingRecorder {
    events: History<Event>,
}

impl RingRecorder {
    /// Ring holding the latest `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            events: History::with_capacity(capacity),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Events that fell off the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.events.evicted()
    }

    /// Count of retained events per kind, sorted by kind.
    pub fn histogram(&self) -> BTreeMap<&'static str, u64> {
        let mut h = BTreeMap::new();
        for e in &self.events {
            *h.entry(e.kind).or_insert(0) += 1;
        }
        h
    }

    /// Serialize every retained event as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
    fn events_emitted(&self) -> u64 {
        self.events.total()
    }
}

/// Internal object-safe union of `Recorder` and `Any`, so [`Telemetry`] can
/// both dispatch events and hand the concrete sink back out via
/// [`Telemetry::with_recorder`].
trait AnyRecorder: Recorder + Send {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<R: Recorder + Send + 'static> AnyRecorder for R {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Bus {
    recorder: Mutex<Box<dyn AnyRecorder>>,
    next_seq: AtomicU64,
}

impl Bus {
    /// Lock the recorder, shrugging off poisoning: a sink that panicked on
    /// one worker thread must not take the rest of a fleet campaign down.
    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn AnyRecorder>> {
        self.recorder
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The cloneable handle every instrumented component holds.
///
/// `Telemetry::off()` (also `Default`) is the null handle: emitting through
/// it is a single `Option` check and the field-building closure never runs.
/// Clones share the underlying recorder, so a board, its master, and its
/// application machine all append to one stream. The handle is `Send +
/// Sync` (the recorder sits behind a mutex), so a fleet campaign can carry
/// per-board instrumented components across worker threads.
#[derive(Clone, Default)]
pub struct Telemetry {
    bus: Option<Arc<Bus>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.bus {
            Some(_) => write!(f, "Telemetry(on)"),
            None => write!(f, "Telemetry(off)"),
        }
    }
}

impl Telemetry {
    /// The inert handle: no recorder, near-zero cost.
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// A handle backed by `recorder`.
    pub fn new(recorder: impl Recorder + Send + 'static) -> Self {
        Telemetry {
            bus: Some(Arc::new(Bus {
                recorder: Mutex::new(Box::new(recorder)),
                next_seq: AtomicU64::new(0),
            })),
        }
    }

    /// Whether a recorder is attached.
    pub fn is_active(&self) -> bool {
        self.bus.is_some()
    }

    /// Emit an event. `fields` is only invoked when a recorder is attached,
    /// so building the field vector costs nothing on the null handle.
    pub fn emit<F>(&self, kind: &'static str, cycle: Option<u64>, fields: F)
    where
        F: FnOnce() -> Vec<(&'static str, Value)>,
    {
        if let Some(bus) = &self.bus {
            let seq = bus.next_seq.fetch_add(1, Ordering::Relaxed);
            bus.lock().record(Event {
                seq,
                kind,
                cycle,
                fields: fields(),
            });
        }
    }

    /// Total events emitted through this handle (0 when off).
    pub fn events_emitted(&self) -> u64 {
        self.bus
            .as_ref()
            .map(|b| b.lock().events_emitted())
            .unwrap_or(0)
    }

    /// Run `f` with the concrete recorder, if it is a `R`. Lets callers get
    /// their `RingRecorder` back out of the handle without keeping a second
    /// reference around.
    pub fn with_recorder<R: Recorder + 'static, T>(
        &self,
        f: impl FnOnce(&mut R) -> T,
    ) -> Option<T> {
        let bus = self.bus.as_ref()?;
        let mut rec = bus.lock();
        rec.as_any_mut().downcast_mut::<R>().map(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert_and_skips_field_building() {
        let t = Telemetry::off();
        assert!(!t.is_active());
        let mut built = false;
        t.emit("x", None, || {
            built = true;
            vec![]
        });
        assert!(!built, "null handle must never build fields");
        assert_eq!(t.events_emitted(), 0);
    }

    #[test]
    fn ring_retains_latest_and_counts_drops() {
        let t = Telemetry::new(RingRecorder::new(3));
        for i in 0..5u64 {
            t.emit("tick", Some(i), move || vec![("i", Value::U64(i))]);
        }
        assert_eq!(t.events_emitted(), 5);
        t.with_recorder::<RingRecorder, _>(|r| {
            assert_eq!(r.dropped(), 2);
            let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![2, 3, 4], "oldest-first, latest retained");
            assert_eq!(r.histogram()["tick"], 3);
        })
        .unwrap();
    }

    #[test]
    fn clones_share_one_stream() {
        let t = Telemetry::new(RingRecorder::new(8));
        let t2 = t.clone();
        t.emit("a", None, Vec::new);
        t2.emit("b", None, Vec::new);
        t.with_recorder::<RingRecorder, _>(|r| {
            let kinds: Vec<_> = r.events().map(|e| e.kind).collect();
            assert_eq!(kinds, vec!["a", "b"]);
            let seqs: Vec<_> = r.events().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1], "one monotonic sequence across clones");
        })
        .unwrap();
    }

    #[test]
    fn ring_recorder_writes_one_json_line_per_event() {
        let t = Telemetry::new(RingRecorder::new(8));
        t.emit("sim.fault", Some(123), || {
            vec![
                ("fault", Value::Str("invalid \"opcode\"".into())),
                ("pc", Value::U64(0x1a2c)),
                ("clean", Value::Bool(false)),
                ("ms", Value::F64(1.5)),
            ]
        });
        let text = t
            .with_recorder::<RingRecorder, _>(|r| r.to_jsonl())
            .unwrap();
        assert_eq!(
            text,
            "{\"seq\":0,\"kind\":\"sim.fault\",\"cycle\":123,\
             \"fault\":\"invalid \\\"opcode\\\"\",\"pc\":6700,\"clean\":false,\"ms\":1.5}\n"
        );
    }

    #[test]
    fn event_field_lookup_and_json_escaping() {
        let e = Event {
            seq: 1,
            kind: "k",
            cycle: None,
            fields: vec![("s", Value::Str("a\nb\\c".into()))],
        };
        assert_eq!(e.field("s"), Some(&Value::Str("a\nb\\c".into())));
        assert!(e.field("missing").is_none());
        assert!(e.to_json().contains("\"a\\nb\\\\c\""));
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
