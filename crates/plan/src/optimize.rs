//! Execution-plan optimizations (paper §IV-B).
//!
//! Three semantics-preserving rewrites are applied to a raw plan, in a
//! fixed order; [`OptLevel`] names how far up that ladder a plan goes:
//!
//! * **Optimization 1 — common-subexpression elimination**
//!   ([`OptLevel::Opt1`]): operand combinations shared by several INT
//!   instructions are hoisted into fresh temporaries (largest first, then
//!   most frequent, then first appearing), Apriori-style.
//! * **Optimization 2 — instruction reordering** ([`OptLevel::Opt2`]):
//!   INT instructions are flattened to at most two operands, a dependency
//!   graph is built, and a ranked topological sort
//!   (`INI < INT < TRC < DBQ < ENU < RES`, ties by original position)
//!   hoists cheap instructions out of as many enumeration loops as
//!   dependencies allow.
//! * **Optimization 3 — triangle caching** ([`OptLevel::Opt3`]): a
//!   two-operand intersection `Intersect(A_i, A_j)` where one endpoint is
//!   the start vertex and the other is its pattern neighbour enumerates
//!   triangles around the start vertex; it is rewritten into a TRC
//!   instruction backed by the per-thread triangle cache.

use crate::generate::uni_operand_elimination;
use crate::ir::{ExecutionPlan, InstrKind, Instruction, SetVar};
use std::collections::HashMap;

/// How many of the paper's optimizations to apply. The levels are
/// cumulative, as in the paper's ablation (Exp-2 / Fig. 7): each one
/// applies every pass of the levels below it first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd)]
pub enum OptLevel {
    /// The raw plan of §IV-A, no rewriting.
    Raw,
    /// Optimization 1: common-subexpression elimination.
    Opt1,
    /// Optimizations 1–2: plus flatten + dependency-ranked reordering.
    Opt2,
    /// Optimizations 1–3: plus triangle-cache rewriting (the paper's
    /// configuration).
    #[default]
    Opt3,
}

impl OptLevel {
    /// Every level, lowest first.
    pub const LADDER: [OptLevel; 4] = [
        OptLevel::Raw,
        OptLevel::Opt1,
        OptLevel::Opt2,
        OptLevel::Opt3,
    ];

    /// The stage name Fig. 7 uses for this level.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Raw => "raw",
            OptLevel::Opt1 => "+opt1",
            OptLevel::Opt2 => "+opt2",
            OptLevel::Opt3 => "+opt3",
        }
    }
}

/// Applies every optimization up to `level` in the paper's order
/// (Opt1 → Opt2 → Opt3). Debug builds validate the plan after each pass,
/// so a pass that breaks define-before-use is the one the assertion names.
pub fn optimize(plan: &mut ExecutionPlan, level: OptLevel) {
    type Pass = fn(&mut ExecutionPlan);
    const PASSES: [(OptLevel, &str, Pass); 4] = [
        (OptLevel::Opt1, "cse", eliminate_common_subexpressions),
        (OptLevel::Opt2, "flatten", flatten_intersections),
        (OptLevel::Opt2, "reorder", reorder_instructions),
        (OptLevel::Opt3, "triangle cache", apply_triangle_cache),
    ];
    for (rung, name, pass) in PASSES {
        if rung <= level {
            pass(plan);
            debug_assert_eq!(plan.validate(), Ok(()), "after the {name} pass");
        }
    }
}

/// Optimization 1. Repeatedly finds the best common operand combination
/// (size ≥ 2, appearing in ≥ 2 INT instructions) and hoists it into a
/// fresh temporary, then runs uni-operand elimination.
pub fn eliminate_common_subexpressions(plan: &mut ExecutionPlan) {
    let mut next_tmp = fresh_tmp_index(plan);
    loop {
        // Canonical (sorted) subset -> (frequency, first instruction idx).
        let mut stats: HashMap<Vec<SetVar>, (usize, usize)> = HashMap::new();
        for (idx, instr) in plan.instructions.iter().enumerate() {
            let Instruction::Intersect { operands, .. } = instr else {
                continue;
            };
            if operands.len() < 2 {
                continue;
            }
            for subset in subsets_of_size_at_least_two(operands) {
                let entry = stats.entry(subset).or_insert((0, idx));
                entry.0 += 1;
            }
        }
        // Pick: most operands, then most frequent, then first appearing.
        let best = stats
            .into_iter()
            .filter(|(_, (freq, _))| *freq >= 2)
            .max_by(|(sa, (fa, ia)), (sb, (fb, ib))| {
                sa.len().cmp(&sb.len()).then(fa.cmp(fb)).then(ib.cmp(ia)) // smaller first index wins
            });
        let Some((subset, (_, first_idx))) = best else {
            break;
        };

        // Emit the hoisted temporary with operands in the order they
        // appear in the first containing instruction.
        let ordered_operands = match &plan.instructions[first_idx] {
            Instruction::Intersect { operands, .. } => operands
                .iter()
                .copied()
                .filter(|op| subset.contains(op))
                .collect::<Vec<_>>(),
            _ => unreachable!("subset recorded on a non-INT instruction"),
        };
        let tmp = SetVar::Tmp(next_tmp);
        next_tmp += 1;

        // Replace the subset in every INT instruction containing it.
        for instr in plan.instructions.iter_mut() {
            let Instruction::Intersect { operands, .. } = instr else {
                continue;
            };
            if subset.iter().all(|s| operands.contains(s)) && operands.len() >= subset.len() {
                let first_pos = operands.iter().position(|op| subset.contains(op)).unwrap();
                operands.retain(|op| !subset.contains(op));
                operands.insert(first_pos.min(operands.len()), tmp);
            }
        }
        plan.instructions.insert(
            first_idx,
            Instruction::Intersect {
                target: tmp,
                operands: ordered_operands,
                filters: vec![],
            },
        );
    }
    uni_operand_elimination(plan);
}

/// All sorted operand subsets of size ≥ 2 (operand lists are tiny).
fn subsets_of_size_at_least_two(operands: &[SetVar]) -> Vec<Vec<SetVar>> {
    let n = operands.len();
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        if mask.count_ones() >= 2 {
            let mut subset: Vec<SetVar> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| operands[i])
                .collect();
            subset.sort_unstable();
            out.push(subset);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Smallest temporary index not used by the plan; raw generation names raw
/// candidates `Tmp(u)` for pattern vertices `u`, so fresh temporaries start
/// at `n`.
fn fresh_tmp_index(plan: &ExecutionPlan) -> usize {
    let mut next = plan.pattern.num_vertices();
    for instr in &plan.instructions {
        if let Some(SetVar::Tmp(t)) = instr.defined_set() {
            next = next.max(t + 1);
        }
    }
    next
}

/// Step 1 of Optimization 2: INT instructions with more than two operands
/// are flattened into chains of two-operand INTs, operands ordered by
/// definition position (earlier-defined first) so later reordering can
/// hoist prefixes independently.
pub fn flatten_intersections(plan: &mut ExecutionPlan) {
    let mut next_tmp = fresh_tmp_index(plan);
    let mut out: Vec<Instruction> = Vec::with_capacity(plan.instructions.len());
    for instr in plan.instructions.drain(..) {
        match instr {
            Instruction::Intersect {
                target,
                mut operands,
                filters,
            } if operands.len() > 2 => {
                // Definition position of each operand in the output so far
                // (AllVertices counts as always-defined).
                let def_pos = |s: SetVar, out: &[Instruction]| -> isize {
                    if s == SetVar::AllVertices {
                        return -1;
                    }
                    out.iter()
                        .position(|i| i.defined_set() == Some(s))
                        .map(|p| p as isize)
                        .unwrap_or(isize::MAX)
                };
                operands.sort_by_key(|&s| def_pos(s, &out));
                let mut acc = operands[0];
                for (i, &op) in operands.iter().enumerate().skip(1) {
                    let is_last = i + 1 == operands.len();
                    let (tgt, flt) = if is_last {
                        (target, filters.clone())
                    } else {
                        let t = SetVar::Tmp(next_tmp);
                        next_tmp += 1;
                        (t, vec![])
                    };
                    out.push(Instruction::Intersect {
                        target: tgt,
                        operands: vec![acc, op],
                        filters: flt,
                    });
                    acc = tgt;
                }
            }
            other => out.push(other),
        }
    }
    plan.instructions = out;
}

/// Rank used to break ties in the topological sort: cheap, failure-
/// detecting instructions first; loop-opening instructions last.
fn rank(kind: InstrKind) -> u8 {
    match kind {
        InstrKind::Ini => 0,
        InstrKind::Int => 1,
        InstrKind::Trc => 2,
        InstrKind::Dbq => 3,
        InstrKind::Enu => 4,
        InstrKind::Res => 5,
    }
}

/// Steps 2–3 of Optimization 2: builds the dependency graph (an edge
/// `I1 → I2` whenever `I2` reads `I1`'s target variable) and emits a
/// topological order choosing, among ready instructions, the one with the
/// lowest `(rank, original position)`.
pub fn reorder_instructions(plan: &mut ExecutionPlan) {
    let n = plan.instructions.len();
    // defs
    let mut set_def: HashMap<SetVar, usize> = HashMap::new();
    let mut vertex_def: HashMap<usize, usize> = HashMap::new();
    for (idx, instr) in plan.instructions.iter().enumerate() {
        if let Some(s) = instr.defined_set() {
            set_def.insert(s, idx);
        }
        if let Some(v) = instr.defined_vertex() {
            vertex_def.insert(v, idx);
        }
    }
    // dependency edges: deps[i] = set of instruction indices i reads from
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, instr) in plan.instructions.iter().enumerate() {
        let mut deps: Vec<usize> = Vec::new();
        for s in instr.used_sets() {
            if let Some(&d) = set_def.get(&s) {
                deps.push(d);
            }
        }
        for v in instr.used_vertices() {
            if let Some(&d) = vertex_def.get(&v) {
                deps.push(d);
            }
        }
        deps.sort_unstable();
        deps.dedup();
        for d in deps {
            debug_assert!(d != idx, "self-dependency");
            dependents[d].push(idx);
            indegree[idx] += 1;
        }
    }
    // ranked topological sort (plans are tiny: linear scan per step)
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while let Some(pos) = ready
        .iter()
        .enumerate()
        .min_by_key(|(_, &i)| (rank(plan.instructions[i].kind()), i))
        .map(|(p, _)| p)
    {
        let i = ready.swap_remove(pos);
        order.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push(j);
            }
        }
    }
    assert_eq!(order.len(), n, "dependency cycle in execution plan");
    let mut instructions = Vec::with_capacity(n);
    for &i in &order {
        instructions.push(plan.instructions[i].clone());
    }
    plan.instructions = instructions;
}

/// Optimization 3: rewrites `X := Intersect(A_i, A_j)` into
/// `X := TCache(f_i, f_j, A_i, A_j)` whenever one of `u_i, u_j` is the
/// start vertex and the other is a pattern neighbour of it (the guarantee
/// that `f_i` and `f_j` are adjacent in `G`, i.e. the result is the
/// triangle set of a data edge).
pub fn apply_triangle_cache(plan: &mut ExecutionPlan) {
    let start = plan.start_vertex();
    let pattern = plan.pattern.clone();
    for instr in plan.instructions.iter_mut() {
        let Instruction::Intersect {
            target,
            operands,
            filters,
        } = instr
        else {
            continue;
        };
        if operands.len() != 2 {
            continue;
        }
        let (SetVar::Adj(i), SetVar::Adj(j)) = (operands[0], operands[1]) else {
            continue;
        };
        let qualifies = (i == start && pattern.has_edge(start, j))
            || (j == start && pattern.has_edge(start, i));
        if qualifies {
            *instr = Instruction::TCache {
                target: *target,
                a: i,
                b: j,
                filters: std::mem::take(filters),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::raw_plan;
    use crate::ir::{FilterCond, ResultItem};
    use benu_pattern::{queries, SymmetryBreaking};

    fn demo_plan(level: OptLevel) -> ExecutionPlan {
        let p = queries::demo_pattern();
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 2, 4, 1, 5, 3], &sb);
        optimize(&mut plan, level);
        plan
    }

    #[test]
    fn cse_reproduces_fig_3c() {
        let plan = demo_plan(OptLevel::Opt1);
        // The common subexpression {A1, A3} (0-based {A0, A2}) is hoisted
        // into the fresh temporary T7 = Tmp(6)...
        let tmp6 = plan
            .instructions
            .iter()
            .find(|i| i.defined_set() == Some(SetVar::Tmp(6)))
            .expect("hoisted temporary exists");
        assert_eq!(
            tmp6,
            &Instruction::Intersect {
                target: SetVar::Tmp(6),
                operands: vec![SetVar::Adj(0), SetVar::Adj(2)],
                filters: vec![]
            }
        );
        // ...u2's candidate now reads the temporary directly (T2 was
        // removed by uni-operand elimination)...
        assert!(plan.instructions.iter().any(|i| matches!(
            i,
            Instruction::Intersect { target: SetVar::Cand(1), operands, .. }
                if operands == &vec![SetVar::Tmp(6)]
        )));
        // ...and u4's raw candidate becomes Intersect(T7, A5).
        assert!(plan.instructions.iter().any(|i| matches!(
            i,
            Instruction::Intersect { target: SetVar::Tmp(3), operands, .. }
                if operands == &vec![SetVar::Tmp(6), SetVar::Adj(4)]
        )));
        // No common subexpression remains: {A1, A5} now appears only once.
        let int_count = plan.count_kind(InstrKind::Int);
        assert_eq!(int_count, 8); // C3, C5, T7, C2, T6, C6, T4, C4
    }

    #[test]
    fn reorder_reproduces_fig_3d() {
        let plan = demo_plan(OptLevel::Opt2);
        // Expected instruction sequence derived in the paper's Fig. 3d
        // (0-based variable names; T7→Tmp6, T6→Tmp5, T4→Tmp3).
        use Instruction as I;
        let kinds: Vec<_> = plan
            .instructions
            .iter()
            .map(|i| match i {
                I::Init { vertex } => format!("f{vertex}"),
                I::GetAdj { vertex } => format!("A{vertex}"),
                I::Intersect { target, .. } => format!("{target:?}"),
                I::Foreach { vertex, .. } => format!("f{vertex}"),
                I::TCache { target, .. } => format!("TC{target:?}"),
                I::ReportMatch { .. } => "RES".into(),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "f0", "A0", "Cand(2)", "f2", "Cand(4)", "A2", "Tmp(6)", "f4", "Cand(1)", "A4",
                "Tmp(5)", "Tmp(3)", "f1", "Cand(5)", "f5", "Cand(3)", "f3", "RES"
            ]
        );
        // T4 (Tmp(3)) was hoisted before the ENUs of f2 and f6
        // ("moved forward crossing the ENU instructions of f2 and f6").
        let pos_t4 = kinds.iter().position(|k| k == "Tmp(3)").unwrap();
        let pos_f1 = kinds.iter().position(|k| k == "f1").unwrap();
        let pos_f5 = kinds.iter().position(|k| k == "f5").unwrap();
        assert!(pos_t4 < pos_f1 && pos_t4 < pos_f5);
    }

    #[test]
    fn triangle_cache_reproduces_fig_3e() {
        let plan = demo_plan(OptLevel::Opt3);
        // Exactly the two triangle-enumerating intersections become TRC.
        let trcs: Vec<_> = plan
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::TCache { a, b, .. } => Some((*a, *b)),
                _ => None,
            })
            .collect();
        assert_eq!(trcs, vec![(0, 2), (0, 4)]);
        assert_eq!(plan.count_kind(InstrKind::Trc), 2);
        plan.validate().unwrap();
    }

    #[test]
    fn ladder_adds_trc_only_at_the_top_rung() {
        let trcs = OptLevel::LADDER.map(|level| demo_plan(level).count_kind(InstrKind::Trc));
        assert_eq!(trcs, [0, 0, 0, 2]);
    }

    #[test]
    fn triangle_cache_requires_pattern_adjacency() {
        // 5-cycle has no triangles: no INT may become TRC.
        let p = queries::q5();
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 1, 2, 3, 4], &sb);
        optimize(&mut plan, OptLevel::Opt3);
        assert_eq!(plan.count_kind(InstrKind::Trc), 0);
    }

    #[test]
    fn triangle_pattern_candidate_becomes_cached_with_filters() {
        let p = queries::triangle();
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 1, 2], &sb);
        optimize(&mut plan, OptLevel::Opt3);
        // T2 := Intersect(A0, A1) qualifies (u0 is the start, u1 its
        // neighbour); the symmetry filters stay on the separate refined
        // candidate C2 := Intersect(T2)[≻f0, ≻f1].
        let trc = plan
            .instructions
            .iter()
            .find_map(|i| match i {
                Instruction::TCache { a, b, target, .. } => Some((*a, *b, *target)),
                _ => None,
            })
            .expect("triangle candidate cached");
        assert_eq!((trc.0, trc.1), (0, 1));
        let cand_filters = plan
            .instructions
            .iter()
            .find_map(|i| match i {
                Instruction::Intersect {
                    target: SetVar::Cand(2),
                    operands,
                    filters,
                } => {
                    assert_eq!(operands, &vec![trc.2]);
                    Some(filters.clone())
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(
            cand_filters,
            vec![FilterCond::greater(0), FilterCond::greater(1)]
        );
    }

    #[test]
    fn flatten_limits_operands_to_two() {
        let p = queries::clique(5);
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 1, 2, 3, 4], &sb);
        flatten_intersections(&mut plan);
        for instr in &plan.instructions {
            if let Instruction::Intersect { operands, .. } = instr {
                assert!(operands.len() <= 2);
            }
        }
        plan.validate().unwrap();
    }

    #[test]
    fn reorder_preserves_dbq_enu_relative_order() {
        for (name, p) in queries::catalogue() {
            let sb = SymmetryBreaking::compute(&p);
            let order: Vec<_> = (0..p.num_vertices()).collect();
            let raw = raw_plan(&p, &order, &sb);
            let raw_seq: Vec<_> = raw
                .instructions
                .iter()
                .filter(|i| matches!(i.kind(), InstrKind::Dbq | InstrKind::Enu))
                .cloned()
                .collect();
            let mut opt = raw.clone();
            optimize(&mut opt, OptLevel::Opt2);
            let opt_seq: Vec<_> = opt
                .instructions
                .iter()
                .filter(|i| matches!(i.kind(), InstrKind::Dbq | InstrKind::Enu))
                .cloned()
                .collect();
            assert_eq!(raw_seq, opt_seq, "{name}: DBQ/ENU order changed");
        }
    }

    #[test]
    fn optimized_plans_validate_for_catalogue() {
        for (name, p) in queries::catalogue() {
            let sb = SymmetryBreaking::compute(&p);
            let order: Vec<_> = (0..p.num_vertices()).collect();
            let mut plan = raw_plan(&p, &order, &sb);
            optimize(&mut plan, OptLevel::Opt3);
            plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            // RES still reports every pattern vertex.
            if let Some(Instruction::ReportMatch { items }) = plan.instructions.last() {
                assert_eq!(items.len(), p.num_vertices());
                assert!(items.iter().all(|it| matches!(it, ResultItem::Vertex(_))));
            } else {
                panic!("{name}: plan does not end with RES");
            }
        }
    }

    #[test]
    fn cse_terminates_on_cliques() {
        // K7 raw plans have many overlapping subexpressions; elimination
        // must converge and stay valid.
        let p = queries::clique(7);
        let sb = SymmetryBreaking::compute(&p);
        let order: Vec<_> = (0..7).collect();
        let mut plan = raw_plan(&p, &order, &sb);
        eliminate_common_subexpressions(&mut plan);
        plan.validate().unwrap();
        // After CSE, no operand combination appears in two instructions.
        let mut seen = std::collections::HashSet::new();
        for instr in &plan.instructions {
            if let Instruction::Intersect { operands, .. } = instr {
                if operands.len() >= 2 {
                    let mut key = operands.clone();
                    key.sort_unstable();
                    assert!(seen.insert(key), "duplicate operand set remains");
                }
            }
        }
    }

    #[test]
    fn filters_survive_cse_and_reorder() {
        let plan = demo_plan(OptLevel::Opt3);
        // C5 keeps the symmetry-breaking condition ≻ f3 (u3 < u5).
        let c4 = plan
            .instructions
            .iter()
            .find_map(|i| match i {
                Instruction::Intersect {
                    target: SetVar::Cand(4),
                    filters,
                    ..
                } => Some(filters.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(c4, vec![FilterCond::greater(2)]);
    }
}
