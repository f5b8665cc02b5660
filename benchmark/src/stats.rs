//! Percentiles, quartiles and the window summary every metric is reported
//! through.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p));
    sorted[rank_of(sorted.len(), p) - 1]
}

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples. The
/// small slack keeps `99.9 % of 10 000` at 9 990 when the product comes
/// out as 9990.000000000002.
fn rank_of(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p)
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it — a tail estimate resting on fewer is noise. `None` below 20
/// samples, where not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// The tail of an ascending sample set: p99, or the highest percentile the
/// sample count supports if that is lower. `None` below 20 samples.
pub fn tail(sorted: &[f64]) -> Option<f64> {
    tail_percentile(sorted.len()).map(|p| percentile(sorted, p.min(99.0)))
}

/// Sort a sample set ascending (latencies never hold NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// A metric's timed windows in one line: the value the run reports, and
/// median, quartiles and count of the windows beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the run reports. For windows of a single set-up this is their
    /// median; see [`Summary::of_setups`] for several.
    pub reported: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the exclusive method (`statistics.quantiles(v, n=4)` in
    /// Python), so the spread printed here is the one the acceptance rule
    /// computes from ten runs.
    ///
    /// No windows at all gives `n == 0` and zeros, which the reporter
    /// treats as a failed measurement.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                reported: 0.0,
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n: 0,
            };
        }
        let s = sorted(values.to_vec());
        let n = s.len();
        let q = |k: usize| -> f64 {
            if n == 1 {
                return s[0];
            }
            // Position k*(n+1)/4 on a 1-based axis, linear between ranks.
            let pos = k as f64 * (n as f64 + 1.0) / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = (pos - j as f64).clamp(0.0, 1.0);
            s[j - 1] + (s[j] - s[j - 1]) * frac
        };
        Summary {
            reported: q(2),
            median: q(2),
            q1: q(1),
            q3: q(3),
            n,
        }
    }

    /// Windows measured in several set-ups (worlds, pools, solves): the
    /// value is the **mean over the set-ups of each set-up's median
    /// window**; median, quartiles and count are of all windows together.
    ///
    /// A set-up can settle into a regime of its own for as long as it lives
    /// (where its stacks land in the cache, which PE runs ahead), and the
    /// host has speed plateaus longer than a set-up. Over such a mixture
    /// the median of all windows jumps from one level to the other as the
    /// shares pass one half — with two levels 30 % apart, ten runs of the
    /// same code spread by 30 % — while the mean over set-ups moves by the
    /// change in the shares. Within a set-up the median still keeps a
    /// stalled window out.
    pub fn of_setups(setups: &[Vec<f64>]) -> Summary {
        let medians: Vec<f64> = setups
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| Summary::of(w).median)
            .collect();
        let mut s = Summary::of(&setups.concat());
        if !medians.is_empty() {
            s.reported = medians.iter().sum::<f64>() / medians.len() as f64;
        }
        s
    }

    /// A value measured once per run (RSS, a count): no spread to show.
    pub fn single(v: f64) -> Summary {
        Summary {
            reported: v,
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

/// Split `samples` into `windows` equal consecutive chunks and reduce
/// each with `f` (a per-window median, say); a remainder shorter than a
/// chunk is dropped.
pub fn windowed(samples: &[f64], windows: usize, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let chunk = samples.len() / windows;
    if chunk == 0 {
        return Vec::new();
    }
    samples.chunks_exact(chunk).map(f).collect()
}

/// Median of an unsorted slice (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Best-of-N reduction used by the ladder: the extremes, the median and
/// (max-min)/median.
#[derive(Debug, Clone, Copy)]
pub struct BestOf {
    pub min: f64,
    pub max: f64,
    pub median: f64,
    pub spread: f64,
}

impl BestOf {
    pub fn of(v: &[f64]) -> BestOf {
        let s = sorted(v.to_vec());
        let median = percentile(&s, 50.0);
        BestOf {
            min: s[0],
            max: s[s.len() - 1],
            median,
            spread: if median == 0.0 {
                0.0
            } else {
                (s[s.len() - 1] - s[0]) / median
            },
        }
    }
}
