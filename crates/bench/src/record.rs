//! The one record every `tables -- bench-*` experiment returns and writes.
//!
//! A record holds the run's context, captured once when the record is
//! made (core count, commit, compiler, `quick`, and the hypervisor steal
//! ticks over the run), and named metrics that keep every sample. It is
//! written in the shape of perfbench's context line:
//!
//! ```text
//! {"bench": "...",
//!  "context": {"nproc": 2, "commit": "...", "rustc": "...", "steal_ticks": 3, "quick": false},
//!  "metrics": {"name": {"unit": "...", "n": 3, "median": ..., "q1": ..., "q3": ..., "samples": [...]}}}
//! ```

use std::fmt::Write;

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    /// Middle quartile.
    pub median: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Finite samples the quartiles were taken over.
    pub n: usize,
}

/// Quartiles computed like Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method). This is a copy of perfbench's
/// `stats::summarize`, so both harnesses report the same numbers for the
/// same samples; perfbench is a separate package, and the tests below pin
/// this copy to Python's values.
pub(crate) fn summarize(samples: &[f64]) -> Summary {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => Summary {
            median: f64::NAN,
            q1: f64::NAN,
            q3: f64::NAN,
            n,
        },
        1 => Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n,
        },
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                median: q(2),
                q1: q(1),
                q3: q(3),
                n,
            }
        }
    }
}

/// The host and run a record was measured on.
#[derive(Debug, Clone, PartialEq)]
struct Context {
    /// Cores available to the process.
    nproc: usize,
    /// `git describe --always --dirty` of the working tree, or `unknown`.
    commit: String,
    /// `rustc --version`, or `unknown`.
    rustc: String,
    /// Hypervisor steal ticks (`/proc/stat`, in USER_HZ) between the
    /// record's creation and [`BenchRecord::finish`]; `None` before
    /// `finish` or where `/proc/stat` is unreadable.
    steal_ticks: Option<u64>,
    /// Whether this is the shortened CI-smoke run.
    quick: bool,
}

/// One named metric and every sample taken of it.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
}

/// A benchmark's context and named metrics, in the order first sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// What was measured, e.g. `run_1M_cycles/tiny_firmware`.
    bench: &'static str,
    /// Host and run facts, captured once by [`BenchRecord::new`].
    context: Context,
    metrics: Vec<Metric>,
    steal_at_start: Option<u64>,
}

impl BenchRecord {
    /// An empty record for `bench`, capturing the run context now.
    pub fn new(bench: &'static str, quick: bool) -> Self {
        BenchRecord {
            bench,
            context: Context {
                nproc: std::thread::available_parallelism().map_or(1, usize::from),
                commit: command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
                rustc: command_line("rustc", &["--version"]),
                steal_ticks: None,
                quick,
            },
            metrics: Vec::new(),
            steal_at_start: steal_ticks(),
        }
    }

    /// Add one sample to metric `name`, creating it on first use.
    /// Deterministic values are metrics with a single sample.
    pub fn sample(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "{}: {name} sampled {value}", self.bench);
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.samples.push(value),
            None => self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                samples: vec![value],
            }),
        }
    }

    /// Every sample of metric `name`, in the order taken (empty if it was
    /// never sampled).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(&[], |m| &m.samples)
    }

    /// Record the hypervisor steal ticks since [`BenchRecord::new`].
    pub fn finish(&mut self) {
        self.context.steal_ticks = self
            .steal_at_start
            .zip(steal_ticks())
            .map(|(start, end)| end.saturating_sub(start));
    }

    /// The record as a JSON document (one metric per line).
    pub fn to_json(&self) -> String {
        let c = &self.context;
        let mut out = format!(
            "{{\n  \"bench\": {},\n  \"context\": {{\"nproc\": {}, \"commit\": {}, \
             \"rustc\": {}, \"steal_ticks\": {}, \"quick\": {}}},\n  \"metrics\": {{",
            json_str(self.bench),
            c.nproc,
            json_str(&c.commit),
            json_str(&c.rustc),
            c.steal_ticks.map_or("null".into(), |t| t.to_string()),
            c.quick,
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let s = summarize(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(f64::to_string).collect();
            write!(
                out,
                "{}\n    {}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \
                 \"q3\": {}, \"samples\": [{}]}}",
                if i == 0 { "" } else { "," },
                json_str(&m.name),
                json_str(m.unit),
                s.n,
                s.median,
                s.q1,
                s.q3,
                samples.join(", "),
            )
            .expect("write to String");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// The record as the table `tables` prints: every metric's median,
    /// quartiles and sample count, under the context.
    pub fn render(&self) -> String {
        let c = &self.context;
        let mut out = format!(
            "== {} ({}) ==\n  nproc {}, commit {}, {}, steal {} ticks\n",
            self.bench,
            if c.quick { "quick" } else { "full" },
            c.nproc,
            c.commit,
            c.rustc,
            c.steal_ticks.map_or("?".into(), |t| t.to_string()),
        );
        for m in &self.metrics {
            let s = summarize(&m.samples);
            writeln!(
                out,
                "  {:<36} {:>14} {:<10} [{} .. {}]  n={}",
                m.name,
                short(s.median),
                m.unit,
                short(s.q1),
                short(s.q3),
                s.n
            )
            .expect("write to String");
        }
        out
    }
}

/// A number for the printed table: integral if whole or above 1000, else
/// 4 decimals.
fn short(x: f64) -> String {
    if x.abs() >= 1000.0 || x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

fn json_str(s: &str) -> String {
    mavr_campaignd::json::Json::str(s).to_text()
}

/// The first line `program args` prints, or `unknown` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            text.lines().next().map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Cumulative steal ticks of all CPUs: the eighth value of `/proc/stat`'s
/// `cpu` line. `None` where the file is missing or malformed.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavr_campaignd::json::Json;

    /// Each expected triple is `statistics.quantiles(v, n=4)` as
    /// `[q1, median, q3]`; n = 1 follows Python 3.13 and later, which
    /// return the one point for every cut.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[7.0], [7.0, 7.0, 7.0]),
            (&[20.0, 10.0], [7.5, 15.0, 22.5]),
            (&[4.0, 1.0, 3.0, 2.0], [1.25, 2.5, 3.75]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        ];
        for (samples, [q1, median, q3]) in cases {
            let s = summarize(samples);
            assert_eq!((s.q1, s.median, s.q3), (q1, median, q3), "{samples:?}");
            assert_eq!(s.n, samples.len());
        }
    }

    #[test]
    fn record_json_carries_context_and_every_metric_summary() {
        let mut rec = BenchRecord::new("unit/test", true);
        for v in [3.0, 1.0, 2.0, 5.0] {
            rec.sample("rate", "1/s", v);
        }
        rec.sample("count", "count", 7.0);
        rec.sample("tiny \"quoted\" ratio", "x", 0.125);
        rec.finish();

        let doc = Json::parse(&rec.to_json()).expect("the record is valid JSON");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("unit/test"));
        let context = doc.get("context").expect("context object");
        assert!(context.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        for key in ["commit", "rustc"] {
            assert!(context.get(key).and_then(Json::as_str).is_some(), "{key}");
        }
        assert!(context.get("steal_ticks").is_some());
        assert_eq!(context.get("quick").and_then(Json::as_bool), Some(true));

        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["rate", "count", "tiny \"quoted\" ratio"]);
        for (name, m) in metrics {
            let num = |k: &str| m.get(k).and_then(Json::as_f64).expect(k);
            let samples = m.get("samples").and_then(Json::as_arr).expect("samples");
            assert_eq!(num("n") as usize, samples.len(), "{name}");
            assert!(
                num("q1") <= num("median") && num("median") <= num("q3"),
                "{name}"
            );
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
        let rate = metrics[0].1.get("median").and_then(Json::as_f64);
        assert_eq!(rate, Some(2.5));
        assert_eq!(rec.samples("rate"), [3.0, 1.0, 2.0, 5.0]);
    }
}
