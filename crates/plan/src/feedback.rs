//! Feedback-driven cardinality estimation.
//!
//! The static estimators in [`crate::cost`] are priors: they never see the
//! data graph beyond a handful of scalar statistics, so on skewed inputs
//! they can mis-rank candidate plans. This module closes the loop. The
//! engine records, per instruction slot of the compiled plan, how many
//! *candidates* each instruction produced and how many *survived* its
//! filters ([`PlanObs`]); a [`FeedbackEstimator`] then turns those
//! observed per-instruction selectivities into cardinality estimates that
//! are exact on the prefixes the plan actually enumerated and
//! prior-times-correction everywhere else.
//!
//! Everything here is a pure function of the recorded counters — no
//! clocks, no randomness — so re-planning from feedback is byte-
//! deterministic given the same observation, which the chaos/replay
//! suites rely on.

use crate::cost::{CardinalityEstimator, ChungLuEstimator};
use crate::ir::{ExecutionPlan, Instruction};
use benu_pattern::pattern::BitIter;
use benu_pattern::{Pattern, PatternVertex};

/// Number of instruction slots tracked per plan. Plans for ≤ 10-vertex
/// patterns compile to well under this many instructions; recording
/// silently ignores slots beyond the cap.
pub const MAX_OBS_SLOTS: usize = 48;

/// Observed cardinalities of one instruction slot: how many elements the
/// instruction considered (`candidates`) and how many passed its filters
/// into the slot's output (`survivors`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotObs {
    /// Elements considered: loop-range length for ENU, produced-set size
    /// inputs for DBQ/INT/TRC (one execution each).
    pub candidates: u64,
    /// Elements that survived: label-filter passes for ENU, output-set
    /// sizes for DBQ/INT/TRC.
    pub survivors: u64,
}

/// Per-instruction observed cardinalities for one compiled plan, indexed
/// by instruction slot (`plan.instructions[pc]` ↔ `slots[pc]`).
///
/// Recording is deterministic and independent of caching or pooling:
/// cache hits record the same output sizes a cold execution would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanObs {
    /// One entry per instruction slot.
    pub slots: [SlotObs; MAX_OBS_SLOTS],
}

impl Default for PlanObs {
    fn default() -> Self {
        PlanObs {
            slots: [SlotObs::default(); MAX_OBS_SLOTS],
        }
    }
}

impl PlanObs {
    /// Adds one observation of the instruction at `pc` — `candidates`
    /// considered, `survivors` kept — and ignores slots beyond the cap,
    /// so recording in the hot loop is a branch plus two adds.
    #[inline]
    pub fn record(&mut self, pc: usize, candidates: u64, survivors: u64) {
        if let Some(slot) = self.slots.get_mut(pc) {
            slot.candidates += candidates;
            slot.survivors += survivors;
        }
    }

    /// True if no slot recorded anything.
    pub fn is_empty(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.candidates == 0 && s.survivors == 0)
    }

    /// Iterates `(pc, slot)` pairs with non-zero counters.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, SlotObs)> + '_ {
        self.slots
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| s.candidates != 0 || s.survivors != 0)
    }

    /// Total candidates and survivors across every slot.
    pub fn totals(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(c, s), slot| {
            (c + slot.candidates, s + slot.survivors)
        })
    }
}

impl core::ops::AddAssign for PlanObs {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.slots.iter_mut().zip(rhs.slots.iter()) {
            a.candidates += b.candidates;
            a.survivors += b.survivors;
        }
    }
}

/// Counts the linear extensions of the symmetry-breaking partial order
/// restricted to the vertices of `mask`, via the standard subset DP.
/// Returns `None` when the restriction has more than 20 vertices (2^20
/// DP states is the sanity bound; patterns are ≤ 10 vertices in
/// practice).
fn linear_extensions(constraints: &[(PatternVertex, PatternVertex)], mask: u64) -> Option<f64> {
    let verts: Vec<usize> = BitIter(mask).collect();
    let k = verts.len();
    if k > 20 {
        return None;
    }
    let mut pos = [usize::MAX; 64];
    for (i, &v) in verts.iter().enumerate() {
        pos[v] = i;
    }
    // pred[i] = compact mask of vertices required to precede verts[i].
    let mut pred = vec![0u64; k];
    for &(a, b) in constraints {
        if a < 64 && b < 64 && mask & (1 << a) != 0 && mask & (1 << b) != 0 {
            pred[pos[b]] |= 1 << pos[a];
        }
    }
    let full = (1u64 << k) - 1;
    let mut dp = vec![0.0f64; 1 << k];
    dp[0] = 1.0;
    for m in 0..full {
        if dp[m as usize] == 0.0 {
            continue;
        }
        for (i, &p) in pred.iter().enumerate() {
            if m & (1 << i) == 0 && p & m == p {
                dp[(m | (1 << i)) as usize] += dp[m as usize];
            }
        }
    }
    Some(dp[full as usize])
}

/// `|S|!` as a float (exact for `|S| ≤ 20`).
fn factorial(k: usize) -> f64 {
    (1..=k).fold(1.0f64, |acc, i| acc * i as f64)
}

/// A [`CardinalityEstimator`] that blends a static Chung-Lu prior with
/// cardinalities observed while executing a plan for the same pattern.
///
/// Construction walks the observed plan's instruction list. At each ENU
/// the prefix mask `S` grows by the enumerated vertex and the slot's
/// `survivors` counter equals the number of *symmetry-constrained*
/// partial matches of `P[S]` the run enumerated. Multiplying by
/// `|S|! / e(C|S)` — `e` being the number of linear extensions of the
/// symmetry-breaking constraints restricted to `S` — converts that to an
/// estimate of the *ordered* (unconstrained) match count the cost model
/// is defined over. At the full mask the conversion is exact: on a
/// complete data graph every injective map embeds, so the orbit property
/// of symmetry breaking forces `e(C) = |S|! / |Aut(P)|`, and
/// `survivors · |Aut(P)|` is the ordered match count by the same orbit
/// property on the real graph. On proper prefixes `C|S` need not break
/// `Aut(P[S])` exactly, so the conversion is a (deterministic)
/// approximation there.
///
/// Masks never observed (other matching orders visit different prefixes)
/// are estimated as `prior(S) · ρ^{edges(S)}`, where `ρ` is the geometric
/// mean per-edge correction `(observed / prior)^{1/edges}` over the
/// observed masks — the observation's average selectivity surprise,
/// propagated to unseen subpatterns.
///
/// The estimator is a pure function of `(prior, plan, obs)`; queries must
/// use the same pattern (or a relabeling-identical one) the plan was
/// compiled for.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedbackEstimator {
    prior: ChungLuEstimator,
    /// `(prefix mask, ordered match estimate)`, ascending by mask (prefix
    /// masks only ever gain bits, so plan order is sorted order).
    observed: Vec<(u64, f64)>,
    /// Geometric-mean per-edge correction factor.
    rho: f64,
}

impl FeedbackEstimator {
    /// Builds the estimator from a prior, the executed plan, and the
    /// observation recorded while running it.
    pub fn new(prior: ChungLuEstimator, plan: &ExecutionPlan, obs: &PlanObs) -> Self {
        let mut mask: u64 = 1 << plan.start_vertex();
        let constraints = plan.symmetry.constraints();
        let mut observed: Vec<(u64, f64)> = Vec::new();
        for (pc, instr) in plan.instructions.iter().enumerate() {
            if let Instruction::Foreach { vertex, .. } = instr {
                mask |= 1 << vertex;
                if pc >= MAX_OBS_SLOTS {
                    continue;
                }
                let survivors = obs.slots[pc].survivors as f64;
                let k = mask.count_ones() as usize;
                if let Some(e) = linear_extensions(constraints, mask) {
                    if e >= 1.0 {
                        observed.push((mask, survivors * factorial(k) / e));
                    }
                }
            }
        }
        // Per-edge correction: geometric mean of (observed / prior)^(1/m)
        // over observed masks with at least one induced edge.
        let mut log_sum = 0.0f64;
        let mut n_terms = 0usize;
        for &(m, value) in &observed {
            let edges = plan.pattern.induced_mask_edges(m);
            if edges == 0 || value <= 0.0 {
                continue;
            }
            let p = prior.estimate_pattern_subset(&plan.pattern, m);
            if p > 0.0 {
                log_sum += (value / p).ln() / edges as f64;
                n_terms += 1;
            }
        }
        let rho = if n_terms > 0 {
            (log_sum / n_terms as f64).exp()
        } else {
            1.0
        };
        FeedbackEstimator {
            prior,
            observed,
            rho,
        }
    }

    /// The geometric-mean per-edge correction factor ρ.
    pub fn correction(&self) -> f64 {
        self.rho
    }

    /// The underlying static prior.
    pub fn prior(&self) -> &ChungLuEstimator {
        &self.prior
    }
}

impl CardinalityEstimator for FeedbackEstimator {
    fn estimate_component(&self, n_vertices: usize, n_edges: usize) -> f64 {
        self.prior.estimate_component(n_vertices, n_edges) * self.rho.powi(n_edges as i32)
    }

    fn estimate_component_degrees(&self, degrees: &[usize], n_edges: usize) -> f64 {
        self.prior.estimate_component_degrees(degrees, n_edges) * self.rho.powi(n_edges as i32)
    }

    fn estimate_pattern_subset(&self, pattern: &Pattern, vertex_mask: u64) -> f64 {
        if vertex_mask == 0 {
            return 1.0;
        }
        if let Ok(i) = self
            .observed
            .binary_search_by(|&(m, _)| m.cmp(&vertex_mask))
        {
            return self.observed[i].1;
        }
        let prior = self.prior.estimate_pattern_subset(pattern, vertex_mask);
        let edges = pattern.induced_mask_edges(vertex_mask);
        prior * self.rho.powi(edges as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use benu_pattern::automorphism::automorphism_count;
    use benu_pattern::queries;

    fn uncompressed_plan(p: &Pattern) -> ExecutionPlan {
        PlanBuilder::new(p).compressed(false).best_plan()
    }

    #[test]
    fn plan_obs_defaults_merge_and_iterate() {
        let mut a = PlanObs::default();
        assert!(a.is_empty());
        a.record(3, 5, 2);
        let mut b = PlanObs::default();
        b.record(3, 1, 0);
        b.record(7, 0, 4);
        a += b;
        let nz: Vec<_> = a.iter_nonzero().collect();
        assert_eq!(
            nz,
            vec![
                (
                    3,
                    SlotObs {
                        candidates: 6,
                        survivors: 2
                    }
                ),
                (
                    7,
                    SlotObs {
                        candidates: 0,
                        survivors: 4
                    }
                ),
            ]
        );
        assert_eq!(a.totals(), (6, 6));
        // Out-of-range slots are ignored, not panicked on.
        let before = a;
        a.record(MAX_OBS_SLOTS, 1, 1);
        assert_eq!(a, before);
    }

    #[test]
    fn linear_extensions_match_hand_counts() {
        // Chain 0<1<2: one extension of the full set.
        let chain = [(0, 1), (1, 2)];
        assert_eq!(linear_extensions(&chain, 0b111), Some(1.0));
        // Antichain of 3: 3! extensions.
        assert_eq!(linear_extensions(&[], 0b111), Some(6.0));
        // One relation among three: half the orders.
        assert_eq!(linear_extensions(&[(0, 2)], 0b111), Some(3.0));
        // Restriction drops relations with an endpoint outside the mask:
        // 0<1<2 restricted to {0, 2} is an antichain of two.
        assert_eq!(linear_extensions(&chain, 0b101), Some(2.0));
    }

    #[test]
    fn full_mask_scale_equals_automorphism_count() {
        // The construction converts constrained counts to ordered counts
        // with |S|!/e; at the full mask that factor must equal |Aut(P)|.
        for (name, p) in queries::evaluation_queries() {
            let sb = benu_pattern::SymmetryBreaking::compute(&p);
            let n = p.num_vertices();
            let full = (1u64 << n) - 1;
            let e = linear_extensions(sb.constraints(), full).unwrap();
            let aut = automorphism_count(&p) as f64;
            let scale = factorial(n) / e;
            assert!(
                (scale - aut).abs() < 1e-6,
                "{name}: |S|!/e = {scale}, |Aut| = {aut}"
            );
        }
    }

    #[test]
    fn feedback_is_exact_on_observed_full_mask() {
        // Run the triangle plan "by hand": the data graph K4 has 4
        // triangles, i.e. 24 ordered matches and 4 constrained ones.
        let p = queries::triangle();
        let plan = uncompressed_plan(&p);
        let mut obs = PlanObs::default();
        // Fill every ENU slot with consistent constrained counts:
        // level 1 (edge prefix): 6 constrained edge matches of K4,
        // level 2 (triangle): 4 constrained triangle matches.
        let mut level = 0;
        for (pc, instr) in plan.instructions.iter().enumerate() {
            if matches!(instr, Instruction::Foreach { .. }) {
                let survivors = if level == 0 { 6 } else { 4 };
                obs.slots[pc] = SlotObs {
                    candidates: survivors,
                    survivors,
                };
                level += 1;
            }
        }
        let prior = ChungLuEstimator::from_degree_histogram(&[0, 0, 0, 4]);
        let fb = FeedbackEstimator::new(prior, &plan, &obs);
        let full = 0b111;
        let got = fb.estimate_pattern_subset(&p, full);
        assert!(
            (got - 24.0).abs() < 1e-9,
            "full-mask estimate must be the exact ordered count, got {got}"
        );
    }

    #[test]
    fn feedback_is_deterministic_and_blends_unseen_masks() {
        let p = queries::demo_pattern();
        let plan = uncompressed_plan(&p);
        let mut obs = PlanObs::default();
        for (pc, instr) in plan.instructions.iter().enumerate() {
            if matches!(instr, Instruction::Foreach { .. }) {
                obs.slots[pc] = SlotObs {
                    candidates: 100 + pc as u64,
                    survivors: 10 + pc as u64,
                };
            }
        }
        let prior = ChungLuEstimator::from_degree_histogram(&[0, 10, 40, 20, 5]);
        let a = FeedbackEstimator::new(prior.clone(), &plan, &obs);
        let b = FeedbackEstimator::new(prior.clone(), &plan, &obs);
        assert_eq!(a, b, "construction must be a pure function of inputs");
        let full = (1u64 << p.num_vertices()) - 1;
        for mask in 1..=full {
            let ea = a.estimate_pattern_subset(&p, mask);
            let eb = b.estimate_pattern_subset(&p, mask);
            assert_eq!(ea.to_bits(), eb.to_bits(), "mask {mask:b}");
        }
        // An unseen single-edge mask is prior ·ρ, not the raw prior
        // (unless ρ happens to be exactly 1).
        let rho = a.correction();
        assert!(rho > 0.0 && rho.is_finite());
        let edge_mask = {
            let (u, v) = p.edges().next().unwrap();
            (1u64 << u) | (1u64 << v)
        };
        if !a.observed.iter().any(|&(m, _)| m == edge_mask) {
            let got = a.estimate_pattern_subset(&p, edge_mask);
            let want = prior.estimate_pattern_subset(&p, edge_mask) * rho;
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
    }

    #[test]
    fn empty_observation_reduces_to_prior() {
        let p = queries::triangle();
        let plan = uncompressed_plan(&p);
        let prior = ChungLuEstimator::from_degree_histogram(&[0, 5, 10, 3]);
        let fb = FeedbackEstimator::new(prior.clone(), &plan, &PlanObs::default());
        // survivors = 0 everywhere → observed masks estimate 0 (a run that
        // found nothing), ρ stays 1 and unseen masks equal the prior.
        assert_eq!(fb.correction(), 1.0);
        let unseen = 0b101; // not a prefix of any matching order of K3? may
                            // be observed for some plans; only check ρ
                            // behaviour on component estimates.
        let _ = unseen;
        assert_eq!(fb.estimate_component(2, 1), prior.estimate_component(2, 1));
    }
}
