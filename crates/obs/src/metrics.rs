//! The histogram registry.
//!
//! Counts live in the typed stats of the layer that owns them
//! (`KvStats`, `CacheStats`, `TaskMetrics`, `RecoveryReport`, …) and are
//! rendered from there; what this registry holds is the one kind of
//! measurement a typed counter cannot carry — a *distribution*. A
//! [`Histogram`] handle is a cheap `Arc` registered once by name; the
//! hot path never touches the registry lock again, and recording is
//! three relaxed atomic adds.
//!
//! Histograms registered through [`Registry::histogram_wall`] are
//! flagged as wall-clock-derived (latencies): [`Registry::report`] shows
//! them in `Full` mode and leaves them out of `Deterministic` reports,
//! which must be byte-identical across two executions of the same
//! seeded run.

use crate::report::{Report, Value};
use crate::ReportMode;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` counts values in
/// `[2^(i-1), 2^i)` (bucket 0 holds zero), which covers the full `u64`
/// range with a fixed-size array and a branch-free index.
const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram over `u64` samples: bucket 0
/// counts zeros, bucket `i ≥ 1` counts `[2^(i-1), 2^i)`. Recording is
/// three relaxed atomic adds (bucket, sum, count) with a branch-free
/// bucket index.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A detached histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index of `v`: 0 for 0, else `65 − leading_zeros(v)`
    /// clamped into range — i.e. one bucket per power of two.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, 0.0 when empty (the workspace ratio convention).
    pub fn mean(&self) -> f64 {
        crate::safe_ratio(self.sum() as f64, self.count() as f64)
    }

    /// The non-empty buckets as `(upper_bound_exclusive, count)` pairs;
    /// the last bucket's bound saturates at `u64::MAX`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let bound = if i == 0 {
                        1
                    } else {
                        1u64.checked_shl(i as u32).unwrap_or(u64::MAX)
                    };
                    (bound, n)
                })
            })
            .collect()
    }
}

/// The named-histogram registry. Registration takes the lock once per
/// (name, handle); recording through the returned handles is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    /// Name → (handle, wall-derived).
    histograms: Mutex<BTreeMap<String, (Arc<Histogram>, bool)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The histogram named `name`, created on first use. Deterministic
    /// (included in deterministic reports).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, false)
    }

    /// A wall-clock-derived histogram (excluded from deterministic
    /// reports).
    pub fn histogram_wall(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, true)
    }

    fn histogram_with(&self, name: &str, wall: bool) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("registry poisoned");
        Arc::clone(
            &histograms
                .entry(name.to_string())
                .or_insert_with(|| (Arc::new(Histogram::new()), wall))
                .0,
        )
    }

    /// Every registered histogram as a [`Report`] subtree: one
    /// `{count, sum, mean, buckets}` entry each, name-sorted.
    /// [`ReportMode::Deterministic`] leaves the wall-derived ones out —
    /// the view that must be byte-identical across two executions of the
    /// same seeded run.
    pub fn report(&self, mode: ReportMode) -> Report {
        let mut report = Report::new();
        let histograms = self.histograms.lock().expect("registry poisoned");
        for (name, (hist, wall)) in histograms.iter() {
            if *wall && mode == ReportMode::Deterministic {
                continue;
            }
            let mut h = Report::new();
            h.set("count", hist.count());
            h.set("sum", hist.sum());
            h.set("mean", hist.mean());
            h.set(
                "buckets",
                Value::List(
                    hist.nonzero_buckets()
                        .into_iter()
                        .map(|(bound, n)| Value::List(vec![Value::UInt(bound), Value::UInt(n)]))
                        .collect(),
                ),
            );
            report.set_tree(name, h);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(7);
        h.record(8);
        h.record(1 << 40);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16 + (1 << 40));
        let buckets = h.nonzero_buckets();
        // 0 → bound 1; 1 → bound 2; 7 → bound 8; 8 → bound 16; 2^40 → bound 2^41.
        assert_eq!(buckets, vec![(1, 1), (2, 1), (8, 1), (16, 1), (1 << 41, 1)]);
        assert!((h.mean() - (h.sum() as f64 / 5.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_mean_is_zero_not_nan() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn registry_reuses_handles_by_name() {
        let r = Registry::new();
        r.histogram("a").record(2);
        r.histogram("a").record(3);
        r.histogram("b").record(1);
        let report = r.report(ReportMode::Full);
        assert_eq!(report.get_u64("a/count"), Some(2));
        assert_eq!(report.get_u64("a/sum"), Some(5));
        assert_eq!(report.get_u64("b/count"), Some(1));
    }

    #[test]
    fn deterministic_report_excludes_wall_histograms() {
        let r = Registry::new();
        r.histogram("det").record(1);
        r.histogram_wall("lat_nanos").record(123);
        assert!(r.report(ReportMode::Full).get("lat_nanos").is_some());
        let det = r.report(ReportMode::Deterministic);
        assert!(det.get("det").is_some());
        assert!(det.get("lat_nanos").is_none());
    }

    #[test]
    fn report_is_name_sorted() {
        let r = Registry::new();
        r.histogram("zz").record(1);
        r.histogram("aa").record(1);
        r.histogram("hh").record(3);
        let report = r.report(ReportMode::Full);
        let keys: Vec<&str> = report.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["aa", "hh", "zz"]);
    }
}
