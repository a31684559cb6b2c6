//! The lock-light metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s
//! registered once by name; the hot path never touches the registry lock
//! again. Counters are sharded across cache-padded atomic cells indexed
//! by a per-thread slot, so a busy increment is one `Relaxed` atomic add
//! with no cross-thread cache-line ping-pong; aggregation sums the shards
//! on demand at snapshot time.
//!
//! Metrics registered through the `*_wall` constructors are flagged as
//! wall-clock-derived (latencies, busy times): they are reported in full
//! snapshots but excluded from *deterministic* snapshots, which must be
//! byte-identical across two executions of the same seeded run.

use crate::report::{Report, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of per-thread counter shards. A power of two; more shards trade
/// memory for less false sharing under high thread counts.
const COUNTER_SHARDS: usize = 16;

/// Number of histogram buckets: bucket `i` counts values in
/// `[2^(i-1), 2^i)` (bucket 0 holds zero), which covers the full `u64`
/// range with a fixed-size array and a branch-free index.
const HISTOGRAM_BUCKETS: usize = 65;

/// One cache-line-padded atomic cell (avoids false sharing between
/// shards that land in the same line).
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

#[cfg_attr(feature = "noop", allow(dead_code))]
static NEXT_THREAD_SLOT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's counter shard, assigned round-robin at first use.
    static THREAD_SLOT: usize =
        NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) as usize % COUNTER_SHARDS;
}

/// A monotonic counter, sharded per thread. Increments are one relaxed
/// atomic add; reads aggregate the shards.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A detached counter (not in any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "noop"))]
        THREAD_SLOT.with(|&slot| {
            self.shards[slot].0.fetch_add(n, Ordering::Relaxed);
        });
        #[cfg(feature = "noop")]
        let _ = n;
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The aggregated count across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A detached gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        #[cfg(not(feature = "noop"))]
        self.0.store(v, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = v;
    }

    /// Adds to the gauge.
    #[inline]
    pub fn add(&self, v: i64) {
        #[cfg(not(feature = "noop"))]
        self.0.fetch_add(v, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = v;
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

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
    #[cfg_attr(feature = "noop", allow(dead_code))]
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(feature = "noop")]
        let _ = v;
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

/// The value of one metric in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An aggregated counter.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram: sample count, sample sum, and the non-empty
    /// `(upper_bound, count)` buckets.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Non-empty buckets as `(upper_bound_exclusive, count)`.
        buckets: Vec<(u64, u64)>,
    },
}

/// A point-in-time, name-sorted view of every registered metric.
pub type MetricsSnapshot = BTreeMap<String, MetricValue>;

/// Converts a snapshot into a [`Report`] subtree (one entry per metric,
/// name-sorted, histograms as `{count, sum, mean, buckets}`).
pub fn snapshot_report(snapshot: &MetricsSnapshot) -> Report {
    let mut report = Report::new();
    for (name, value) in snapshot {
        match value {
            MetricValue::Counter(n) => report.set(name, *n),
            MetricValue::Gauge(v) => report.set(name, *v),
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                let mut h = Report::new();
                h.set("count", *count);
                h.set("sum", *sum);
                h.set("mean", crate::safe_ratio(*sum as f64, *count as f64));
                h.set(
                    "buckets",
                    Value::List(
                        buckets
                            .iter()
                            .map(|&(bound, n)| {
                                Value::List(vec![Value::UInt(bound), Value::UInt(n)])
                            })
                            .collect(),
                    ),
                );
                report.set_tree(name, h);
            }
        }
    }
    report
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, (Arc<Counter>, bool)>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, (Arc<Histogram>, bool)>,
}

/// The named-metric registry. Registration takes the lock once per
/// (name, handle); recording through the returned handles is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use. Deterministic
    /// (included in deterministic snapshots).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, false)
    }

    /// A wall-clock-derived counter (excluded from deterministic
    /// snapshots).
    pub fn counter_wall(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, true)
    }

    fn counter_with(&self, name: &str, wall: bool) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(
            &inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| (Arc::new(Counter::new()), wall))
                .0,
        )
    }

    /// The gauge named `name`, created on first use. Gauges are levels,
    /// never timings, so there is no wall-clock variant.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, false)
    }

    /// A wall-clock-derived histogram (excluded from deterministic
    /// snapshots).
    pub fn histogram_wall(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, true)
    }

    fn histogram_with(&self, name: &str, wall: bool) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(
            &inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| (Arc::new(Histogram::new()), wall))
                .0,
        )
    }

    /// A full snapshot of every metric, including wall-derived ones.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_inner(true)
    }

    /// A snapshot containing only deterministic metrics — the view that
    /// must be byte-identical across two executions of the same seeded
    /// run.
    pub fn snapshot_deterministic(&self) -> MetricsSnapshot {
        self.snapshot_inner(false)
    }

    fn snapshot_inner(&self, include_wall: bool) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = MetricsSnapshot::new();
        for (name, (c, wall)) in &inner.counters {
            if include_wall || !wall {
                out.insert(name.clone(), MetricValue::Counter(c.get()));
            }
        }
        for (name, g) in &inner.gauges {
            out.insert(name.clone(), MetricValue::Gauge(g.get()));
        }
        for (name, (h, wall)) in &inner.histograms {
            if include_wall || !wall {
                out.insert(
                    name.clone(),
                    MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.nonzero_buckets(),
                    },
                );
            }
        }
        out
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn counter_aggregates_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

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
        r.counter("a").add(2);
        r.counter("a").add(3);
        r.counter("b").inc();
        let snap = r.snapshot();
        assert_eq!(snap.get("a"), Some(&MetricValue::Counter(5)));
        assert_eq!(snap.get("b"), Some(&MetricValue::Counter(1)));
    }

    #[test]
    fn deterministic_snapshot_excludes_wall_metrics() {
        let r = Registry::new();
        r.counter("det").inc();
        r.counter_wall("wall").inc();
        r.histogram_wall("lat_nanos").record(123);
        r.gauge("g").set(-4);
        let full = r.snapshot();
        assert!(full.contains_key("wall"));
        assert!(full.contains_key("lat_nanos"));
        let det = r.snapshot_deterministic();
        assert!(det.contains_key("det"));
        assert!(det.contains_key("g"));
        assert!(!det.contains_key("wall"));
        assert!(!det.contains_key("lat_nanos"));
    }

    #[test]
    fn snapshot_report_is_name_sorted() {
        let r = Registry::new();
        r.counter("zz").inc();
        r.counter("aa").inc();
        r.histogram("hh").record(3);
        let report = snapshot_report(&r.snapshot());
        let keys: Vec<&str> = report.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["aa", "hh", "zz"]);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }
}
