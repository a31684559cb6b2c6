//! Match consumers — where RES instructions deliver their results.

use crate::compile::{CompiledPlan, ExpansionInfo};
use crate::expand;
use crate::matches::MatchSet;
use benu_graph::{TotalOrder, VertexId};

/// One VCBC code as RES reports it: the cover vertices' mapping and the
/// (label-filtered) image set of every non-cover vertex.
pub struct Code<'c> {
    /// The plan's expansion data.
    pub info: &'c ExpansionInfo,
    /// The order the symmetry constraints between non-cover vertices
    /// compare under.
    pub order: &'c TotalOrder,
    /// `images[t]` — the image set of `info.non_cover[t]`.
    pub images: &'c [&'c [VertexId]],
    /// Embeddings the code encodes (at least one).
    pub count: u64,
    /// The mapping indexed by pattern vertex: cover vertices set, the
    /// non-cover positions scratch that expansion writes.
    pub f: &'c mut [VertexId],
}

/// Receives matches from the engine.
///
/// For VCBC-compressed plans the engine always counts embeddings; it only
/// hands a code over when [`MatchConsumer::needs_matches`] returns true.
pub trait MatchConsumer {
    /// Called once per (expanded) match; `f[i]` is the data vertex mapped
    /// to pattern vertex `i`.
    fn on_match(&mut self, f: &[VertexId]);

    /// Called once per code of a compressed plan. The default expands it
    /// into [`MatchConsumer::on_match`] calls.
    fn on_code(&mut self, code: Code<'_>) {
        expand::expand_code(code.info, code.images, code.order, code.f, self);
    }

    /// Whether matches must be reported at all. Counting-only consumers
    /// return false and rely on the engine's metrics.
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

/// Collects what one plan's engine reports, in emission order: the rows
/// of an uncompressed plan, or the codes of a compressed one, kept as
/// codes until [`CollectingConsumer::take_matches`] expands them into a
/// buffer of exactly their embeddings' size.
#[derive(Clone, Debug)]
pub struct CollectingConsumer<'a> {
    plan: &'a CompiledPlan,
    order: &'a TotalOrder,
    rows: MatchSet,
    /// Per code: its mapping row (`plan.num_pattern_vertices` entries),
    /// then per image set its length and its members.
    codes: Vec<VertexId>,
    /// Embeddings the held codes encode.
    encoded: u64,
}

impl<'a> CollectingConsumer<'a> {
    /// A collector for the engine running `plan` under `order`.
    pub fn new(plan: &'a CompiledPlan, order: &'a TotalOrder) -> Self {
        CollectingConsumer {
            plan,
            order,
            rows: MatchSet::default(),
            codes: Vec::new(),
            encoded: 0,
        }
    }

    /// Embeddings held: the rows plus what the codes encode.
    pub fn embeddings(&self) -> u64 {
        self.rows.len() as u64 + self.encoded
    }

    /// Forgets everything held, unexpanded, and frees its buffers.
    pub fn clear(&mut self) {
        self.rows = MatchSet::default();
        self.codes = Vec::new();
        self.encoded = 0;
    }

    /// Hands over every embedding held, in emission order, and starts
    /// over empty: a compressed plan's codes expanded into a buffer whose
    /// capacity is its length, an uncompressed plan's rows as they were
    /// collected.
    ///
    /// # Panics
    ///
    /// Panics if the embeddings' bytes exceed the address space.
    pub fn take_matches(&mut self) -> MatchSet {
        let codes = std::mem::take(&mut self.codes);
        let encoded = std::mem::take(&mut self.encoded);
        let (Some(info), false) = (&self.plan.expansion, codes.is_empty()) else {
            return std::mem::take(&mut self.rows);
        };
        let arity = self.plan.num_pattern_vertices;
        let rows = usize::try_from(encoded).expect("collected embeddings fit in memory");
        let mut out = MatchSet::with_capacity(arity, rows);
        let mut f = vec![VertexId::MAX; arity];
        let mut images: Vec<&[VertexId]> = Vec::with_capacity(info.non_cover.len());
        let mut at = 0;
        while at < codes.len() {
            f.copy_from_slice(&codes[at..at + arity]);
            at += arity;
            images.clear();
            for _ in &info.non_cover {
                let len = codes[at] as usize;
                images.push(&codes[at + 1..at + 1 + len]);
                at += 1 + len;
            }
            let mut sink = FnConsumer(|row: &[VertexId]| out.push(row));
            expand::expand_code(info, &images, self.order, &mut f, &mut sink);
        }
        debug_assert_eq!(out.len(), rows, "the codes expand to their counts");
        out
    }
}

impl MatchConsumer for CollectingConsumer<'_> {
    fn on_match(&mut self, f: &[VertexId]) {
        self.rows.push(f);
    }

    fn on_code(&mut self, code: Code<'_>) {
        self.codes.extend_from_slice(code.f);
        for image in code.images {
            self.codes.push(image.len() as VertexId);
            self.codes.extend_from_slice(image);
        }
        self.encoded += code.count;
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
    use benu_graph::gen;
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;

    #[test]
    fn collecting_consumer_stores_matches() {
        let plan = CompiledPlan::compile(&PlanBuilder::new(&queries::triangle()).build());
        let order = TotalOrder::new(&gen::complete(7));
        let mut c = CollectingConsumer::new(&plan, &order);
        c.on_match(&[1, 2, 3]);
        c.on_match(&[4, 5, 6]);
        assert_eq!(c.embeddings(), 2);
        assert!(c.needs_matches());
        let rows = c.take_matches();
        assert_eq!(rows.to_vecs(), [[1, 2, 3], [4, 5, 6]]);
        assert_eq!(c.embeddings(), 0, "taking starts over");
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
