//! Order statistics over timing samples.

/// Median and quartiles of a sample set, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// numbers printed here match what a reader recomputes from raw samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
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

/// The `p`-th percentile (0..=1) by linear interpolation between closest
/// ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}
