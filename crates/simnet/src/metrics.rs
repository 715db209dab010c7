//! Counters and histograms for experiment harnesses.

use std::collections::BTreeMap;

/// A sample-recording histogram with summary statistics.
///
/// Stores raw samples (experiments here record at most a few hundred
/// thousand points), which keeps percentiles exact.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        finite_or_zero(self.samples.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        finite_or_zero(
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Exact percentile (`q` in `[0, 1]`), or 0.0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Sample standard deviation, or 0.0 with fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// Read-only view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Maps the infinities produced by empty folds back to zero.
fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// A wall-clock phase timer for per-phase cost accounting (`plan_ns`,
/// `land_ns`, ...).
///
/// Wall time is host-dependent by nature, so these samples land in
/// histograms only — determinism comparisons (store dumps, traces,
/// counters) must never include them.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], as an `f64`
    /// histogram sample.
    pub fn elapsed_ns(&self) -> f64 {
        self.started.elapsed().as_nanos() as f64
    }
}

/// A named collection of counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments a counter by `n`.
    ///
    /// The steady-state path (counter already exists) borrows the key and
    /// allocates nothing; only the first increment of a name pays for the
    /// `String`.
    pub fn count(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Returns a counter's value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a histogram sample. Like [`Metrics::count`], only the first
    /// sample of a name allocates its key.
    pub fn record(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let h = self.histograms.entry(name.to_string()).or_default();
            h.record(value);
        }
    }

    /// Records the wall time elapsed on `sw` as a nanosecond sample.
    pub fn record_elapsed(&mut self, name: &str, sw: Stopwatch) {
        self.record(name, sw.elapsed_ns());
    }

    /// Returns a histogram by name, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all counters.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all histograms.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.median(), 3.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(1.0), 5.0);
        assert!((h.std_dev() - 1.5811).abs() < 1e-3);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.std_dev(), 0.0);
    }

    #[test]
    fn stopwatch_records_nonnegative_nanos() {
        let mut m = Metrics::new();
        let sw = Stopwatch::start();
        assert!(sw.elapsed_ns() >= 0.0);
        m.record_elapsed("plan_ns", sw);
        assert_eq!(m.histogram("plan_ns").unwrap().count(), 1);
        assert!(m.histogram("plan_ns").unwrap().min() >= 0.0);
    }

    #[test]
    fn metrics_counters_and_histograms() {
        let mut m = Metrics::new();
        m.count("requests", 1);
        m.count("requests", 2);
        assert_eq!(m.counter("requests"), 3);
        assert_eq!(m.counter("missing"), 0);
        m.record("latency", 10.0);
        m.record("latency", 20.0);
        assert_eq!(m.histogram("latency").unwrap().mean(), 15.0);
        assert_eq!(m.counters().count(), 1);
        assert_eq!(m.histograms().count(), 1);
        m.reset();
        assert_eq!(m.counter("requests"), 0);
        assert!(m.histogram("latency").is_none());
    }
}
