//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around a call into one layer's
//! public functions; nothing inside the program is instrumented. Spans
//! live in per-thread vectors and are written out once, when the run ends.
//! A span's self time is its duration minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    /// Campaign job index the span belongs to (`u64::MAX` for spans that
    /// serve the whole campaign, like a shard save).
    pub job: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Work done inside the span, in the layer's own unit (simulated
    /// cycles for the engine, bytes for encoders, 0 when not counted).
    pub work: u64,
}

/// One thread's spans.
pub struct Tracer {
    epoch: Instant,
    /// The traced run's phase these spans belong to (setup, replay, ...).
    pub phase: &'static str,
    pub thread: usize,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// A disabled tracer records nothing and reads no clock, so the same
    /// code runs untraced to measure what tracing costs.
    enabled: bool,
}

impl Tracer {
    pub fn new(epoch: Instant, phase: &'static str, thread: usize) -> Self {
        Tracer {
            epoch,
            phase,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer whose spans cost nothing and are not kept.
    pub fn off(epoch: Instant, phase: &'static str, thread: usize) -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(epoch, phase, thread)
        }
    }

    /// Open a span; close it with [`Tracer::exit`]. Spans opened while it
    /// is open become its children.
    pub fn enter(&mut self, layer: &'static str, job: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            job,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            work: 0,
        });
        self.open.push(index);
        index
    }

    pub fn exit(&mut self, index: u32, work: u64) {
        if !self.enabled {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        let span = &mut self.spans[index as usize];
        span.dur_ns = end.saturating_sub(span.start_ns);
        span.work = work;
    }

    /// Time `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(layer, job);
        let out = f();
        self.exit(span, 0);
        out
    }
}

/// Per-layer totals over a set of threads' spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

pub fn layer_totals<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns;
            }
        }
        for (s, children) in t.spans.iter().zip(child_ns) {
            let e = out.entry(s.layer).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns;
            e.self_ns += s.dur_ns.saturating_sub(children);
            e.work += s.work;
        }
    }
    out
}

/// Write every span as one JSON line.
pub fn write_spans<'a>(
    path: &std::path::Path,
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for t in tracers {
        let phase = t.phase;
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let job = if s.job == u64::MAX {
                "null".to_string()
            } else {
                s.job.to_string()
            };
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"thread\":{},\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"job\":{job},\"start_ns\":{},\"dur_ns\":{},\"work\":{}}}",
                t.thread, s.layer, s.start_ns, s.dur_ns, s.work
            )
            .map_err(fail)?;
        }
    }
    out.flush().map_err(fail)
}
