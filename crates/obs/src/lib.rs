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
//! Two pieces:
//!
//! * [`report`] — the insertion-ordered key/value tree every layer's
//!   measurements are rendered into; `benu-bench` emits it with one
//!   canonical JSON encoding.
//! * [`alloc`] — a counting global allocator, the one measurement no
//!   layer can keep for itself (allocations per task, live and peak
//!   heap), installed by the tests and bench binaries that read it.
//!
//! No second instrument sits beside the typed stats: a count lives in
//! the struct of the layer that makes it, and a distribution or a span
//! is added together with the code that reads it.

pub mod alloc;
pub mod report;

pub use report::{Report, Value};

/// Which metrics a report includes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReportMode {
    /// Everything, including wall-clock-derived metrics (busy times,
    /// elapsed seconds). The default for human-facing output.
    #[default]
    Full,
    /// Only metrics that are pure functions of (input, seed, config) —
    /// the view that must be byte-identical across two executions of
    /// the same seeded run. Wall durations are excluded; *virtual*
    /// durations (fault penalties) stay, because they are deterministic.
    Deterministic,
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
}
