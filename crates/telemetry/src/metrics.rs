//! Mergeable campaign metrics: labeled counters, gauges, fixed-bucket log2
//! histograms, and a rank-based quantile sketch.
//!
//! Everything here obeys the same contract as the fleet engine itself:
//! **aggregation is a deterministic, order-insensitive merge**. A campaign
//! sharded across N worker threads must produce byte-identical expositions
//! to the same campaign on one thread, so every structure merges by
//! element-wise addition (counters, histogram slots, sketch buckets) or an
//! explicitly commutative rule (gauges keep the max). No wall-clock data
//! belongs in a registry — throughput numbers ride progress *events*, never
//! the snapshot, so two same-seed runs diff clean.
//!
//! The sketch is the piece ROADMAP item 2 asked for: `CellReport` used to
//! hold one `Vec<u64>` of detection latencies per cell, which is O(boards)
//! RAM; a [`QuantileSketch`] is O(1) in the number of observations (bounded
//! by its ~1.9k possible buckets, sparse in practice) and merges exactly.

use std::collections::BTreeMap;

use crate::json_escape;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 5;
const SUBS: u64 = 1 << SUB_BITS; // 32

/// Values below this are stored exactly (one bucket per integer).
const EXACT_LIMIT: u64 = SUBS * 2; // 64

/// A mergeable rank-based quantile sketch over `u64` observations.
///
/// Storage is a sparse map from bucket index to count. Values below 64 get
/// one bucket each (exact); larger values land in log2 octaves split into
/// 32 linear sub-buckets, so a bucket spanning `[lo, lo + w)` always has
/// `w/lo <= 1/32`. Alongside the buckets the sketch keeps exact `count`,
/// `sum`, `min`, and `max`.
///
/// Guarantees:
/// - [`merge`](Self::merge) is element-wise addition: associative,
///   commutative, and independent of observation order, so any sharding of
///   the same observations yields a byte-identical sketch.
/// - [`mean`](Self::mean) is **exact** (`sum / count`).
/// - [`quantile`](Self::quantile) returns the lower bound of the bucket
///   holding the requested rank, clamped to `[min, max]`: the true value at
///   that rank lies in `[q, q * (1 + RELATIVE_ERROR))`, i.e. relative error
///   at most [`RELATIVE_ERROR`] ≈ 3.2% (and zero below 64).
/// - `quantile(0.0)` and `quantile(1.0)` are the exact min and max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u16, u64>,
}

/// Worst-case relative error of [`QuantileSketch::quantile`]: one part in
/// 32 (`2^-SUB_BITS`), the width of a sub-bucket relative to its floor.
pub const RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

/// Map a value to its sketch bucket index (monotone in `v`).
fn bucket_index(v: u64) -> u16 {
    if v < EXACT_LIMIT {
        return v as u16;
    }
    let k = 63 - v.leading_zeros(); // floor(log2 v), >= 6
    let m = ((v >> (k - SUB_BITS)) & (SUBS - 1)) as u16;
    EXACT_LIMIT as u16 + ((k as u16 - 6) << SUB_BITS) + m
}

/// Smallest value mapping to bucket `i` (inverse of [`bucket_index`]).
fn bucket_floor(i: u16) -> u64 {
    if u64::from(i) < EXACT_LIMIT {
        return u64::from(i);
    }
    let j = u64::from(i) - EXACT_LIMIT;
    let k = 6 + (j >> SUB_BITS) as u32;
    let m = j & (SUBS - 1);
    (1u64 << k) + (m << (k - SUB_BITS))
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    /// Fold another sketch in. Element-wise, so the result is independent
    /// of how observations were sharded or in which order shards merge.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean (`sum / count`), if any observations exist.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at rank `floor(q * (count - 1))` of the sorted
    /// observations, to within [`RELATIVE_ERROR`]; `q` is clamped to
    /// `[0, 1]`. Returns the bucket floor of the rank's bucket, clamped to
    /// `[min, max]` so the extremes are exact.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen > rank {
                return Some(bucket_floor(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable if counts are consistent
    }
}

/// Number of slots in a [`Histogram`]: one for zero plus one per power of
/// two up to `2^63`.
pub const HISTOGRAM_SLOTS: usize = 65;

/// A fixed-size log2 histogram: slot 0 counts zeros, slot `i >= 1` counts
/// values in `[2^(i-1), 2^i)`. Cheaper and coarser than a
/// [`QuantileSketch`]; merge is element-wise addition over a fixed array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    slots: [u64; HISTOGRAM_SLOTS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            slots: [0; HISTOGRAM_SLOTS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slot index for a value: 0 for 0, else `1 + floor(log2 v)`.
    pub fn slot(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.slots[Self::slot(v)] += 1;
    }

    /// Element-wise merge; order-insensitive.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (s, o) in self.slots.iter_mut().zip(other.slots.iter()) {
            *s += o;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Raw slot counts.
    pub fn slots(&self) -> &[u64; HISTOGRAM_SLOTS] {
        &self.slots
    }

    /// Inclusive upper bound of slot `i` (`2^i - 1`; slot 0 covers only 0).
    /// `None` for the last slot, whose bound is effectively +Inf.
    pub fn slot_upper_bound(i: usize) -> Option<u64> {
        if i >= HISTOGRAM_SLOTS - 1 {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }
}

/// One metric value in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count.
    Counter(u64),
    /// Point-in-time level. Merge keeps the **max** (the only commutative
    /// choice that is still useful for high-water marks); gauges carrying
    /// wall-clock or per-run data must stay out of merged registries.
    Gauge(f64),
    /// Log2 histogram (boxed: its 65 fixed slots dwarf the other
    /// variants, and registries hold metrics behind this enum by value).
    Histogram(Box<Histogram>),
    /// Quantile sketch.
    Sketch(QuantileSketch),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Sketch(_) => "sketch",
        }
    }
}

/// Registry key: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    MetricKey {
        name: name.to_string(),
        labels,
    }
}

/// A set of labeled metrics with a deterministic merge and two text
/// expositions (Prometheus and JSONL). Iteration order is the `BTreeMap`
/// order of `(name, sorted labels)`, so expositions are stable regardless
/// of registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (name, labels) series.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no series are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Add `delta` to a counter, creating it at zero first. `None`, with
    /// the counter unchanged, when the sum would overflow `u64`.
    ///
    /// Panics if the series already exists with a different type — mixing
    /// types under one series is a programming error, not a data error.
    #[must_use]
    pub fn add_counter(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) -> Option<()> {
        match self
            .metrics
            .entry(key(name, labels))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => {
                *c = c.checked_add(delta)?;
                Some(())
            }
            other => panic!("{name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Set a gauge to `value` (overwrites; merge keeps the max).
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        match self
            .metrics
            .entry(key(name, labels))
            .or_insert(Metric::Gauge(value))
        {
            Metric::Gauge(g) => *g = value,
            other => panic!("{name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Record an observation into a histogram series.
    pub fn observe_histogram(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        match self
            .metrics
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Box::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.record(v),
            other => panic!("{name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Record an observation into a sketch series.
    pub fn observe_sketch(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        match self
            .metrics
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Sketch(QuantileSketch::new()))
        {
            Metric::Sketch(s) => s.record(v),
            other => panic!("{name} is a {}, not a sketch", other.type_name()),
        }
    }

    /// Current value of a counter series (0 if absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.metrics.get(&key(name, labels)) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Look up a sketch series.
    pub fn sketch(&self, name: &str, labels: &[(&str, &str)]) -> Option<&QuantileSketch> {
        match self.metrics.get(&key(name, labels)) {
            Some(Metric::Sketch(s)) => Some(s),
            _ => None,
        }
    }

    /// Look up a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.metrics.get(&key(name, labels)) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Fold another registry (a worker shard, typically) into this one.
    /// Counters, histograms, and sketches add element-wise; gauges keep
    /// the max. Associative and commutative, so any shard partition and
    /// merge order produce byte-identical expositions.
    ///
    /// Panics if a series exists in both with different types.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, m) in &other.metrics {
            match self.metrics.entry(k.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(m.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), m) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Gauge(a), Metric::Gauge(b)) => *a = a.max(*b),
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
                    (Metric::Sketch(a), Metric::Sketch(b)) => a.merge(b),
                    (a, b) => panic!(
                        "metric {} merged as {} into {}",
                        k.name,
                        b.type_name(),
                        a.type_name()
                    ),
                },
            }
        }
    }

    /// Prometheus-style text exposition. Sketches render as summaries
    /// (quantiles 0 / 0.5 / 0.9 / 0.99 / 1 plus `_sum`/`_count`),
    /// histograms as cumulative `_bucket{le=...}` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (k, m) in &self.metrics {
            if last_name != Some(k.name.as_str()) {
                let t = match m {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                    Metric::Sketch(_) => "summary",
                };
                out.push_str(&format!("# TYPE {} {}\n", k.name, t));
                last_name = Some(k.name.as_str());
            }
            match m {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        k.name,
                        prom_labels(&k.labels, &[]),
                        c
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        k.name,
                        prom_labels(&k.labels, &[]),
                        g
                    ));
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &n) in h.slots().iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum += n;
                        let le = match Histogram::slot_upper_bound(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            k.name,
                            prom_labels(&k.labels, &[("le", &le)]),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        k.name,
                        prom_labels(&k.labels, &[("le", "+Inf")]),
                        h.count()
                    ));
                    let l = prom_labels(&k.labels, &[]);
                    out.push_str(&format!("{}_sum{} {}\n", k.name, l, h.sum()));
                    out.push_str(&format!("{}_count{} {}\n", k.name, l, h.count()));
                }
                Metric::Sketch(s) => {
                    if s.count() > 0 {
                        for (q, label) in [
                            (0.0, "0"),
                            (0.5, "0.5"),
                            (0.9, "0.9"),
                            (0.99, "0.99"),
                            (1.0, "1"),
                        ] {
                            out.push_str(&format!(
                                "{}{} {}\n",
                                k.name,
                                prom_labels(&k.labels, &[("quantile", label)]),
                                s.quantile(q).unwrap()
                            ));
                        }
                    }
                    let l = prom_labels(&k.labels, &[]);
                    out.push_str(&format!("{}_sum{} {}\n", k.name, l, s.sum()));
                    out.push_str(&format!("{}_count{} {}\n", k.name, l, s.count()));
                }
            }
        }
        out
    }

    /// JSONL exposition: one self-describing object per series, in
    /// registry order. Sketch lines carry exact min/max/sum/count, the
    /// three headline quantiles, and the raw sparse buckets.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, m) in &self.metrics {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"labels\":{{",
                json_escape(&k.name)
            ));
            for (i, (lk, lv)) in k.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(lk), json_escape(lv)));
            }
            out.push_str("},");
            match m {
                Metric::Counter(c) => {
                    out.push_str(&format!("\"type\":\"counter\",\"value\":{c}"));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("\"type\":\"gauge\",\"value\":{g}"));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"slots\":[",
                        h.count(),
                        h.sum()
                    ));
                    let mut first = true;
                    for (i, &n) in h.slots().iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("[{i},{n}]"));
                    }
                    out.push(']');
                }
                Metric::Sketch(s) => {
                    out.push_str(&format!(
                        "\"type\":\"sketch\",\"count\":{},\"sum\":{}",
                        s.count(),
                        s.sum()
                    ));
                    if s.count() > 0 {
                        out.push_str(&format!(
                            ",\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}",
                            s.min().unwrap(),
                            s.quantile(0.5).unwrap(),
                            s.quantile(0.9).unwrap(),
                            s.quantile(0.99).unwrap(),
                            s.max().unwrap()
                        ));
                    }
                    out.push_str(",\"buckets\":[");
                    for (i, (&idx, &n)) in s.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{idx},{n}]"));
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Render a Prometheus label set: sorted base labels plus trailing extras
/// (`le` / `quantile`), or the empty string when there are none.
fn prom_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}=\"{}\"", k, json_escape(v)));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_floor_inverts() {
        let mut prev = 0u16;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            let lo = bucket_floor(i);
            assert!(lo <= v, "floor {lo} above value {v}");
            if v >= EXACT_LIMIT {
                // Relative bucket width bound.
                assert!((v - lo) as f64 <= RELATIVE_ERROR * lo as f64 + 1.0);
            } else {
                assert_eq!(lo, v, "small values must be exact");
            }
        }
        for shift in 6..63 {
            let v = 1u64 << shift;
            assert_eq!(bucket_floor(bucket_index(v)), v);
        }
    }

    #[test]
    fn sketch_quantiles_hit_error_bound() {
        let mut s = QuantileSketch::new();
        for v in 1..=10_000u64 {
            s.record(v);
        }
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(10_000));
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(10_000));
        assert_eq!(s.mean(), Some(5000.5));
        for q in [0.1f64, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let exact = (q * 9999.0).floor() as u64 + 1;
            let est = s.quantile(q).unwrap();
            assert!(est <= exact, "q{q}: est {est} above exact {exact}");
            assert!(
                exact as f64 <= est as f64 * (1.0 + RELATIVE_ERROR),
                "q{q}: est {est} too far below exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_merge_equals_single_stream() {
        let values: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(2654435761) >> 20)
            .collect();
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.record(v);
        }
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn histogram_slots_and_merge() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.slots()[0], 1); // 0
        assert_eq!(h.slots()[1], 1); // 1
        assert_eq!(h.slots()[2], 2); // 2..3
        assert_eq!(h.slots()[3], 1); // 4..7
        assert_eq!(h.slots()[10], 1); // 512..1023
        assert_eq!(h.slots()[11], 1); // 1024..2047
        let mut other = Histogram::new();
        other.record(5);
        let mut merged = h.clone();
        merged.merge(&other);
        assert_eq!(merged.count(), 8);
        assert_eq!(merged.slots()[3], 2);
        assert_eq!(Histogram::slot_upper_bound(0), Some(0));
        assert_eq!(Histogram::slot_upper_bound(3), Some(7));
        assert_eq!(Histogram::slot_upper_bound(HISTOGRAM_SLOTS - 1), None);
    }

    #[test]
    fn registry_merge_is_order_insensitive_and_expositions_stable() {
        let build = |vals: &[(u64, u64)]| {
            let mut r = MetricsRegistry::new();
            for &(packets, latency) in vals {
                r.add_counter("boards_total", &[("scenario", "v2")], 1)
                    .unwrap();
                r.observe_histogram("packets", &[("scenario", "v2")], packets);
                r.observe_sketch("latency", &[("scenario", "v2")], latency);
            }
            r.set_gauge("jobs_total", &[], vals.len() as f64);
            r
        };
        let all = build(&[(10, 100), (20, 5000), (7, 40_000), (3, 123)]);
        let mut left = build(&[(10, 100), (20, 5000)]);
        let right = build(&[(7, 40_000), (3, 123)]);
        let mut right2 = right.clone();
        left.merge(&right);
        right2.merge(&build(&[(10, 100), (20, 5000)]));
        // Gauges keep the max, so set both shards to the full total first.
        left.set_gauge("jobs_total", &[], 4.0);
        right2.set_gauge("jobs_total", &[], 4.0);
        assert_eq!(left.to_prometheus(), all.to_prometheus());
        assert_eq!(left.to_jsonl(), all.to_jsonl());
        assert_eq!(right2.to_jsonl(), all.to_jsonl());
        assert!(all.to_prometheus().contains("# TYPE latency summary"));
        assert!(all
            .to_prometheus()
            .contains("latency{scenario=\"v2\",quantile=\"0.5\"}"));
        assert!(all.to_jsonl().contains("\"type\":\"histogram\""));
        assert_eq!(all.counter_value("boards_total", &[("scenario", "v2")]), 4);
        assert!(all.sketch("latency", &[("scenario", "v2")]).is_some());
        assert!(all.histogram("packets", &[("scenario", "v2")]).is_some());
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut a = MetricsRegistry::new();
        a.add_counter("x", &[("b", "2"), ("a", "1")], 3).unwrap();
        let mut b = MetricsRegistry::new();
        b.add_counter("x", &[("a", "1"), ("b", "2")], 3).unwrap();
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.counter_value("x", &[("b", "2"), ("a", "1")]), 3);
    }
}
