//! Structured observability for the BENU runtime.
//!
//! The paper's evaluation (§VII) is entirely metric-driven — communication
//! cost, cache hit rates, task and straggler behaviour, per-phase timing —
//! and adaptive-runtime systems in the same space (HUGE, arXiv:2103.14294;
//! GNN-PE, arXiv:2511.09052) *drive* scheduling and memory decisions from
//! live counters: one number, one decision. Here each of those numbers is
//! counted once, in the typed stats of the layer that owns it (`KvStats`,
//! `CacheStats`, `TaskMetrics`, `RecoveryReport`, `WorkerReport`, the
//! service's lifecycle counters), and reported once, through the
//! [`report::Report`] tree those structs render themselves into. This
//! crate holds that tree and what no typed struct can carry.
//!
//! Three pieces:
//!
//! * [`report`] — the insertion-ordered key/value tree every layer's
//!   measurements are rendered into; `benu-bench` emits it with one
//!   canonical JSON encoding.
//! * [`trace`] — span-based phase tracing (store load, plan compile, task
//!   generation, enumeration and recovery passes) stamped with a
//!   [`trace::VirtualClock`] instead of the wall clock, so a faulted run
//!   replayed from the same `benu-fault` seed produces a byte-identical
//!   trace.
//! * [`metrics`] — a registry of named fixed-bucket
//!   [`metrics::Histogram`]s for distributions (the store's value sizes
//!   and request latencies). Histograms registered as *wall* (timing-
//!   derived) are excluded from deterministic snapshots.
//!
//! An [`ObsHub`] is optional everywhere it is accepted, and attaching one
//! changes nothing in a run's deterministic report (the `faults`
//! experiment of `benu-bench` checks it).

pub mod alloc;
pub mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Histogram, Registry};
pub use report::{Report, Value};
pub use trace::{SpanGuard, TraceEvent, Tracer, VirtualClock};

/// One observability hub for a run: what has no typed twin in a
/// `RunOutcome` or a service report — the phase tracer and the store's
/// histograms. Shared by `Arc` between the front, its deployment and the
/// bench harness.
#[derive(Debug, Default)]
pub struct ObsHub {
    /// Named histograms.
    pub registry: Registry,
    /// Phase spans on the virtual clock.
    pub tracer: Tracer,
}

/// Which metrics a report includes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReportMode {
    /// Everything, including wall-clock-derived metrics (latencies,
    /// busy times, elapsed). The default for human-facing output.
    #[default]
    Full,
    /// Only metrics that are pure functions of (input, seed, config) —
    /// the view that must be byte-identical across two executions of
    /// the same seeded run. Wall-flagged metrics and wall durations are
    /// excluded; *virtual* durations (fault penalties) stay, because
    /// they are deterministic.
    Deterministic,
}

impl ObsHub {
    /// A fresh hub with an empty registry and an empty trace.
    pub fn new() -> Self {
        ObsHub::default()
    }

    /// The hub's measurements as one report: a `metrics` subtree
    /// (the registry's histograms, wall ones filtered per `mode`)
    /// and a `trace` subtree (the span events, always deterministic).
    pub fn report(&self, mode: ReportMode) -> Report {
        let mut report = Report::new();
        report.set_tree("metrics", self.registry.report(mode));
        report.set_tree("trace", self.tracer.to_report());
        report
    }
}

/// The one ratio convention of the whole workspace: `num / den` with the
/// zero-work guard every report helper shares — returns `0.0` (never NaN
/// or ∞) when the denominator is zero or the quotient is non-finite.
/// Downstream JSON and table writers rely on every reported ratio being
/// finite.
#[inline]
pub fn safe_ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        return 0.0;
    }
    let ratio = num / den;
    if ratio.is_finite() {
        ratio
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_ratio_guards_zero_and_nonfinite() {
        assert_eq!(safe_ratio(1.0, 2.0), 0.5);
        assert_eq!(safe_ratio(0.0, 0.0), 0.0);
        assert_eq!(safe_ratio(5.0, 0.0), 0.0);
        assert_eq!(safe_ratio(f64::INFINITY, 2.0), 0.0);
        assert_eq!(safe_ratio(1.0, f64::NAN), 0.0);
        assert!(safe_ratio(f64::MAX, f64::MIN_POSITIVE).is_finite());
    }

    #[test]
    fn hub_is_shareable() {
        let hub = std::sync::Arc::new(ObsHub::new());
        hub.registry.histogram("x").record(3);
        assert_eq!(hub.registry.histogram("x").sum(), 3);
    }
}
