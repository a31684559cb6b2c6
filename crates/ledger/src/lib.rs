//! The performance ledger: one benchmark, seven named workloads,
//! end-to-end and per-layer metrics. See `README.md` beside this crate
//! for what each workload and metric is for.
//!
//! Two halves, kept apart on purpose:
//!
//! * [`e2e`] — the untraced pass. It calls only `PlanBuilder`,
//!   `Cluster::{new, run, run_collect, clear_caches}` and
//!   `QueryService::{new, submit, wait}` and sets only the configuration
//!   fields a workload names, so it keeps compiling (and keeps meaning
//!   the same thing) while the layers underneath are consolidated.
//! * [`traced`] — the traced pass. It drives the same inputs through a
//!   staged single-threaded pipeline assembled from the layers' public
//!   pieces, records spans around every call into a layer, and replays
//!   the recorded key trace against each lower layer in isolation. An
//!   API change in a layer can break this half only.

pub mod alloc;
pub mod compare;
pub mod e2e;
pub mod inputs;
pub mod json;
pub mod oracle;
pub mod traced;

use json::Value;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Spread of the samples `value` summarises (information only).
    pub spread: Option<Spread>,
}

/// Five-number summary of a sample set.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The outcome of one pass (untraced or traced) over one workload.
#[derive(Clone, Debug, Default)]
pub struct PassResult {
    /// Operations (batch repetitions, served queries) and cross-checks
    /// performed.
    pub attempted: u64,
    /// Those that errored, did not complete, or returned a wrong count.
    pub failed: u64,
    /// Matches of one operation (0 where the notion does not apply).
    pub matches: u64,
    pub metrics: Vec<Metric>,
}

impl PassResult {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            spread: None,
        });
    }

    /// Records the median of `samples`, keeping their spread.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let spread = summarize(samples);
        self.metrics.push(Metric {
            name,
            value: spread.median,
            unit,
            spread: Some(spread),
        });
    }

    /// Records [`fast`] of `samples`, keeping their spread.
    pub fn put_fast(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: fast(samples),
            unit,
            spread: Some(summarize(samples)),
        });
    }

    /// Counts one operation or cross-check, and says which if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[ledger] CHECK FAILED: {}", what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `{"name": {"value": .., "unit": ..}, ..}` — the driver's shape.
    pub fn metrics_json(&self, with_spread: bool) -> Value {
        json::obj(self.metrics.iter().map(|m| {
            let mut members = vec![
                ("value".to_string(), Value::Num(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            if let (true, Some(s)) = (with_spread, m.spread) {
                for (k, v) in [
                    ("n", s.n as f64),
                    ("min", s.min),
                    ("q1", s.q1),
                    ("median", s.median),
                    ("q3", s.q3),
                    ("max", s.max),
                ] {
                    members.push((k.to_string(), Value::Num(v)));
                }
            }
            (m.name, Value::Obj(members))
        }))
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn summarize(samples: &[f64]) -> Spread {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Spread {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The 5th percentile of repetition times: what a timing of the untraced
/// pass reports. The host's interference comes and goes over minutes and
/// only ever adds time, so across runs of one program a low percentile
/// repeats where the median does not; unlike the minimum it takes more
/// than a few odd repetitions to move it.
pub fn fast(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.05)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work has no rate).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host parallelism, recorded with every result that depends on threads.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
