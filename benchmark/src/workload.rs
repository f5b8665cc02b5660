//! What every workload takes and gives back.

use crate::stats::Summary;

/// One leg of one workload: how long to measure, from which seed.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// Wall seconds of timed windows (set-up and verification come on top).
    pub seconds: f64,
    /// Every generated input derives from this.
    pub seed: u64,
    /// How many times to bring the workload up; each bring-up is one
    /// `setup_s` sample and is measured for its share of `seconds`.
    pub setups: usize,
}

/// A named value beside the five common ones: the workload's own name for
/// a common metric (`req_per_s`), a demoted candidate, or a per-layer
/// number stamped inside the workload.
#[derive(Debug, Clone)]
pub struct Extra {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Summary,
}

/// The timed windows of one metric, kept apart by the set-up (world, set
/// of pools, solve) they were measured in: [`Summary::of_setups`] says why.
#[derive(Debug, Default, Clone)]
pub struct Windows(Vec<Vec<f64>>);

impl Windows {
    /// The windows of one more set-up (none at all is not a set-up).
    pub fn push_setup(&mut self, windows: Vec<f64>) {
        if !windows.is_empty() {
            self.0.push(windows);
        }
    }

    pub fn setups(&self) -> &[Vec<f64>] {
        &self.0
    }

    pub fn summary(&self) -> Summary {
        Summary::of_setups(&self.0)
    }

    /// The same windows in another unit.
    pub fn scaled(&self, by: f64) -> Windows {
        Windows(
            self.0
                .iter()
                .map(|w| w.iter().map(|v| v * by).collect())
                .collect(),
        )
    }
}

/// What one leg measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted / failed verification, refused or unfinished.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the human reading the log.
    pub notes: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Primary operations per second, per window.
    pub ops_per_s: Windows,
    /// Median latency of the workload's latency-critical operation, per
    /// window, in microseconds.
    pub lat_p50_us: Windows,
    /// Payload MiB moved per second, per window.
    pub mb_per_s: Windows,
    /// Primary operations and CPU seconds (whole process tree) over the
    /// timed windows — `cpu_us_per_op`'s numerator and denominator.
    pub ops: u64,
    pub cpu_s: f64,
    /// Peak RSS of processes other than this one (xproc's child), MiB.
    pub child_rss_mb: f64,
    pub extras: Vec<Extra>,
}

impl Outcome {
    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: Summary) {
        self.extras.push(Extra { name, unit, value });
    }

    pub fn extra1(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.extra(name, unit, Summary::single(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.extras.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// Record a failed check: `n` operations count as failed.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.notes.push(why);
    }
}

/// Per-window rates from `(time_ns, running count)` marks grouped into
/// about `windows` windows; each count is worth `scale` units.
pub fn rates_from_marks(marks: &[(u64, u64)], windows: usize, scale: f64) -> Vec<f64> {
    if marks.len() < 2 {
        return Vec::new();
    }
    let step = ((marks.len() - 1) / windows).max(1);
    marks
        .iter()
        .step_by(step)
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) as f64 * scale / ((w[1].0 - w[0].0) as f64 / 1e9))
        .collect()
}
