//! VCBC output compression (paper §IV-B, "Support VCBC Compression").
//!
//! VCBC (vertex-cover based compression, Qiao et al. \[6\]) represents the
//! matches of `P` by the matches of its vertex-cover core (*helves*) plus a
//! *conditional image set* per non-cover vertex. A BENU plan is compressed
//! by: finding the shortest matching-order prefix that covers every pattern
//! edge, deleting the ENU instructions of all non-cover vertices, dropping
//! filter conditions that reference them, and reporting their candidate
//! sets in the RES tuple instead of single vertices.
//!
//! Constraints *between two non-cover vertices* (injectivity and symmetry
//! breaking) cannot be applied inside the plan once their ENUs are gone;
//! they are enforced at expansion time by the engine (see
//! `benu_engine::expand`), which is also how the compressed-code count is
//! converted into an embedding count.

use crate::ir::{ExecutionPlan, Instruction, ResultItem, SetVar};
use benu_pattern::cover::cover_prefix_len;
use benu_pattern::PatternVertex;

/// Rewrites `plan` in place to emit VCBC-compressed results. Returns the
/// helve length `k` (the number of cover vertices, i.e. enumeration levels
/// kept; the `Init` vertex counts as level 1).
pub fn compress(plan: &mut ExecutionPlan) -> usize {
    assert!(!plan.compressed, "plan is already compressed");
    let k = cover_prefix_len(&plan.pattern, &plan.matching_order);
    let non_cover: Vec<PatternVertex> = plan.matching_order[k..].to_vec();
    if non_cover.is_empty() {
        plan.compressed = true;
        return k;
    }

    // 1) Delete the ENU instructions of non-cover vertices and remember
    //    which set each one looped over (its conditional image set).
    let mut image_set: Vec<Option<SetVar>> = vec![None; plan.pattern.num_vertices()];
    plan.instructions.retain(|instr| match instr {
        Instruction::Foreach { vertex, source } if non_cover.contains(vertex) => {
            image_set[*vertex] = Some(*source);
            false
        }
        _ => true,
    });

    // 2) Remove filter conditions referencing non-cover vertices (their
    //    `f_j` no longer exists).
    for instr in plan.instructions.iter_mut() {
        match instr {
            Instruction::Intersect { filters, .. } | Instruction::TCache { filters, .. } => {
                filters.retain(|fc| !non_cover.contains(&fc.vertex));
            }
            _ => {}
        }
    }

    // 3) Replace each non-cover `f_j` in RES with its image set `C_j`.
    if let Some(Instruction::ReportMatch { items }) = plan.instructions.last_mut() {
        for item in items.iter_mut() {
            if let ResultItem::Vertex(v) = *item {
                if non_cover.contains(&v) {
                    let set = image_set[v]
                        .expect("non-cover vertex had an ENU instruction with a source set");
                    *item = ResultItem::ImageSet(set);
                }
            }
        }
    }

    plan.compressed = true;
    debug_assert_eq!(plan.validate(), Ok(()));
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::raw_plan;
    use crate::ir::InstrKind;
    use crate::optimize::{optimize, OptLevel};
    use benu_pattern::{queries, SymmetryBreaking};

    fn demo_compressed() -> (ExecutionPlan, usize) {
        let p = queries::demo_pattern();
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 2, 4, 1, 5, 3], &sb);
        optimize(&mut plan, OptLevel::Opt3);
        let k = compress(&mut plan);
        (plan, k)
    }

    #[test]
    fn demo_cover_prefix_is_three() {
        // Paper: {u1, u3, u5} is the vertex cover of the demo pattern
        // under the running matching order.
        let (plan, k) = demo_compressed();
        assert_eq!(k, 3);
        assert!(plan.compressed);
        // Only the cover vertices u3, u5 keep ENU instructions (u1 is
        // Init).
        let enus: Vec<_> = plan
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::Foreach { vertex, .. } => Some(*vertex),
                _ => None,
            })
            .collect();
        assert_eq!(enus, vec![2, 4]);
    }

    #[test]
    fn res_reports_image_sets_for_non_cover_vertices() {
        let (plan, _) = demo_compressed();
        let Some(Instruction::ReportMatch { items }) = plan.instructions.last() else {
            panic!("no RES")
        };
        // u1(0), u3(2), u5(4) are vertices; u2(1), u4(3), u6(5) image sets.
        assert!(matches!(items[0], ResultItem::Vertex(0)));
        assert!(matches!(items[2], ResultItem::Vertex(2)));
        assert!(matches!(items[4], ResultItem::Vertex(4)));
        assert!(matches!(items[1], ResultItem::ImageSet(_)));
        assert!(matches!(items[3], ResultItem::ImageSet(_)));
        assert!(matches!(items[5], ResultItem::ImageSet(_)));
    }

    #[test]
    fn filters_referencing_non_cover_vertices_are_dropped() {
        let (plan, _) = demo_compressed();
        for instr in &plan.instructions {
            let filters = match instr {
                Instruction::Intersect { filters, .. } => filters,
                Instruction::TCache { filters, .. } => filters,
                _ => continue,
            };
            for fc in filters {
                assert!(
                    [0usize, 2, 4].contains(&fc.vertex),
                    "filter references non-cover f_{}",
                    fc.vertex
                );
            }
        }
    }

    #[test]
    fn clique_compression_drops_only_last_level() {
        // A k-clique's minimum cover prefix is the first k-1 vertices.
        let p = queries::clique(4);
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 1, 2, 3], &sb);
        let k = compress(&mut plan);
        assert_eq!(k, 3);
        assert_eq!(plan.count_kind(InstrKind::Enu), 2);
    }

    #[test]
    fn square_keeps_symmetry_between_non_cover_corners() {
        // Square with order [0, 2, 1, 3]: cover prefix {0, 2}; the
        // opposite corners 1 and 3 are both non-cover and stay related by
        // symmetry breaking, which code expansion must enforce.
        let p = queries::square();
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 2, 1, 3], &sb);
        let k = compress(&mut plan);
        assert_eq!(k, 2);
        assert!(plan.symmetry.between(1, 3).is_some());
    }

    #[test]
    #[should_panic(expected = "already compressed")]
    fn double_compression_rejected() {
        let (mut plan, _) = demo_compressed();
        compress(&mut plan);
    }
}
