//! Match consumers — where RES instructions deliver their results.

use crate::matches::MatchSet;
use benu_graph::VertexId;

/// Receives matches from the engine.
///
/// For VCBC-compressed plans the engine always counts embeddings; it only
/// pays the expansion cost (materialising each full embedding) when
/// [`MatchConsumer::needs_matches`] returns true.
pub trait MatchConsumer {
    /// Called once per (expanded) match; `f[i]` is the data vertex mapped
    /// to pattern vertex `i`.
    fn on_match(&mut self, f: &[VertexId]);

    /// Whether full embeddings must be materialised. Counting-only
    /// consumers return false and rely on the engine's metrics.
    fn needs_matches(&self) -> bool {
        true
    }
}

/// Counts matches without materialising them (the engine's metrics carry
/// the counts; this consumer simply opts out of expansion).
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingConsumer {
    /// Number of `on_match` calls received (zero for compressed plans —
    /// read the engine metrics instead).
    pub direct_calls: u64,
}

impl MatchConsumer for CountingConsumer {
    fn on_match(&mut self, _f: &[VertexId]) {
        self.direct_calls += 1;
    }

    fn needs_matches(&self) -> bool {
        false
    }
}

/// Collects every match into one [`MatchSet`], in emission order.
#[derive(Clone, Debug, Default)]
pub struct CollectingConsumer {
    matches: MatchSet,
}

impl CollectingConsumer {
    /// The collected matches.
    pub fn matches(&self) -> &MatchSet {
        &self.matches
    }

    /// Consumes the collector.
    pub fn into_matches(self) -> MatchSet {
        self.matches
    }
}

impl MatchConsumer for CollectingConsumer {
    fn on_match(&mut self, f: &[VertexId]) {
        self.matches.push(f);
    }
}

/// Adapts a closure into a consumer.
pub struct FnConsumer<F: FnMut(&[VertexId])>(pub F);

impl<F: FnMut(&[VertexId])> MatchConsumer for FnConsumer<F> {
    fn on_match(&mut self, f: &[VertexId]) {
        (self.0)(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_consumer_stores_matches() {
        let mut c = CollectingConsumer::default();
        c.on_match(&[1, 2, 3]);
        c.on_match(&[4, 5, 6]);
        assert_eq!(c.matches().len(), 2);
        assert!(c.needs_matches());
    }

    #[test]
    fn counting_consumer_skips_expansion() {
        let c = CountingConsumer::default();
        assert!(!c.needs_matches());
    }

    #[test]
    fn fn_consumer_invokes_closure() {
        let mut seen = 0;
        {
            let mut c = FnConsumer(|f: &[VertexId]| seen += f.len());
            c.on_match(&[9, 9]);
        }
        assert_eq!(seen, 2);
    }
}
