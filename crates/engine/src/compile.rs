//! Lowers an [`ExecutionPlan`] to a dense register machine.
//!
//! Symbolic set variables (`A_i`, `C_i`, `T_j`) become indices into a flat
//! slot file; pattern-vertex mappings `f_i` live in their own array. The
//! compiled form also precomputes everything the VCBC expansion step needs
//! (which registers hold image sets, and the pairwise constraints between
//! non-cover vertices).
//!
//! Compilation also decides, from the plan's shape alone, which fused
//! forms the interpreter may run (DESIGN.md §4f): every instruction's
//! filters are split by operator into [`CFilters`], so an execution folds
//! them into one rank window instead of walking a condition list per
//! element, and the `ENU ; RES` tail of an uncompressed plan (with the
//! single-operand `INT` feeding it) is marked `tail`, so a consumer that
//! takes no matches has it counted instead of looped. The instruction
//! list itself stays one-to-one with the plan's: whether a marked form
//! engages is decided per task, and observation slots keep their indices.

use benu_plan::ir::InstrKind;
use benu_plan::{ExecutionPlan, FilterCond, FilterOp, Instruction, ResultItem, SetVar};
use std::collections::HashMap;

/// An instruction's filter conditions, split by operator: the pattern
/// vertices whose mappings `f[v]` a candidate `x` is compared against.
/// `≺` is a total order on distinct ranks, so one execution folds
/// `greater` and `less` into a single rank window
/// (`max rank(f[v]) < rank(x) < min rank(f[v])`); only `not_equal` stays
/// a list, and it is short or empty.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CFilters {
    /// The `greater` vertices, then the `less`, then the `not_equal`
    /// (one allocation, and `CInstr` stays as wide as it was).
    vertices: Box<[usize]>,
    less_at: u32,
    not_equal_at: u32,
}

impl CFilters {
    fn compile(filters: &[FilterCond]) -> Self {
        let of = |op| filters.iter().filter(move |f| f.op == op).map(|f| f.vertex);
        let greater = of(FilterOp::Greater).count();
        CFilters {
            vertices: of(FilterOp::Greater)
                .chain(of(FilterOp::Less))
                .chain(of(FilterOp::NotEqual))
                .collect(),
            less_at: greater as u32,
            not_equal_at: (greater + of(FilterOp::Less).count()) as u32,
        }
    }

    /// `f[v] ≺ x` for every `v` here.
    pub fn greater(&self) -> &[usize] {
        &self.vertices[..self.less_at as usize]
    }

    /// `x ≺ f[v]` for every `v` here.
    pub fn less(&self) -> &[usize] {
        &self.vertices[self.less_at as usize..self.not_equal_at as usize]
    }

    /// `x ≠ f[v]` for every `v` here.
    pub fn not_equal(&self) -> &[usize] {
        &self.vertices[self.not_equal_at as usize..]
    }

    /// True when every candidate passes.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// An operand of a compiled intersection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum COperand {
    /// A set register.
    Reg(usize),
    /// The data graph's full vertex set.
    All,
}

/// A compiled instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum CInstr {
    /// `f[vertex] := task.start`.
    Init { vertex: usize },
    /// `slot[target] := source.get_adj(f[vertex])`.
    GetAdj { vertex: usize, target: usize },
    /// `slot[target] := ∩ operands, filtered`. `tail` marks the
    /// single-register filtered copy whose only reader is the `tail`
    /// `Foreach` right after it: counted, never written, when the
    /// consumer takes no matches.
    Intersect {
        target: usize,
        operands: Vec<COperand>,
        filters: CFilters,
        tail: bool,
    },
    /// Loop `f[vertex]` over `slot[source]`; `is_second` marks the
    /// split-point enumeration of the second pattern vertex. `tail`
    /// marks the last loop of an uncompressed plan over an unlabeled
    /// vertex — its body is exactly `Report`, so for a consumer that
    /// takes no matches the loop is its (split-respecting) length.
    Foreach {
        vertex: usize,
        source: usize,
        is_second: bool,
        tail: bool,
    },
    /// Triangle-cached `slot[target] := Γ(f[a]) ∩ Γ(f[b])`, filtered.
    TCache {
        a: usize,
        b: usize,
        a_reg: usize,
        b_reg: usize,
        target: usize,
        filters: CFilters,
    },
    /// Emit a match (or compressed code).
    Report,
}

/// What the RES instruction emits, per pattern vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CReportItem {
    /// The mapped vertex `f[v]`.
    Vertex(usize),
    /// The image-set register (compressed plans).
    ImageSet(usize),
}

/// Precomputed VCBC expansion data.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpansionInfo {
    /// Non-cover pattern vertices in matching order.
    pub non_cover: Vec<usize>,
    /// `image_reg[t]` — slot of the image set of `non_cover[t]`.
    pub image_reg: Vec<usize>,
    /// `ordered[t1][t2]` (t1 < t2): `Some(true)` requires
    /// `f[non_cover[t1]] ≺ f[non_cover[t2]]`, `Some(false)` the reverse,
    /// `None` only injectivity.
    pub pair_order: Vec<Vec<Option<bool>>>,
}

/// A plan lowered to the register machine.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// Compiled instruction list.
    pub instrs: Vec<CInstr>,
    /// Number of pattern vertices.
    pub num_pattern_vertices: usize,
    /// Number of set registers.
    pub num_slots: usize,
    /// The pattern vertex mapped to the task start vertex.
    pub start_vertex: usize,
    /// The second pattern vertex in the matching order (split point), if
    /// the plan enumerates more than one level.
    pub second_vertex: Option<usize>,
    /// Whether the second pattern vertex is adjacent to the first (drives
    /// the subtask-count formula in task generation).
    pub second_adjacent: bool,
    /// RES layout, one item per pattern vertex.
    pub report_items: Vec<CReportItem>,
    /// Present iff the plan is VCBC-compressed.
    pub expansion: Option<ExpansionInfo>,
    /// Per-pattern-vertex label constraints (property-graph extension);
    /// empty labels mean the unlabeled semantics of the paper.
    pub labels: Vec<Option<u32>>,
}

impl CompiledPlan {
    /// Compiles a validated plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn compile(plan: &ExecutionPlan) -> Self {
        plan.validate().expect("plan must be well-formed");
        let mut reg_of: HashMap<SetVar, usize> = HashMap::new();
        let alloc = |v: SetVar, reg_of: &mut HashMap<SetVar, usize>| -> usize {
            let next = reg_of.len();
            *reg_of.entry(v).or_insert(next)
        };

        let mut instrs = Vec::with_capacity(plan.instructions.len());
        let mut report_items = Vec::new();
        for instr in &plan.instructions {
            match instr {
                Instruction::Init { vertex } => instrs.push(CInstr::Init { vertex: *vertex }),
                Instruction::GetAdj { vertex } => {
                    let target = alloc(SetVar::Adj(*vertex), &mut reg_of);
                    instrs.push(CInstr::GetAdj {
                        vertex: *vertex,
                        target,
                    });
                }
                Instruction::Intersect {
                    target,
                    operands,
                    filters,
                } => {
                    let operands = operands
                        .iter()
                        .map(|&op| match op {
                            SetVar::AllVertices => COperand::All,
                            other => COperand::Reg(
                                *reg_of.get(&other).expect("operand defined before use"),
                            ),
                        })
                        .collect();
                    let target = alloc(*target, &mut reg_of);
                    instrs.push(CInstr::Intersect {
                        target,
                        operands,
                        filters: CFilters::compile(filters),
                        tail: false,
                    });
                }
                Instruction::Foreach { vertex, source } => {
                    let source = *reg_of.get(source).expect("source defined before use");
                    instrs.push(CInstr::Foreach {
                        vertex: *vertex,
                        source,
                        is_second: Some(*vertex) == plan.matching_order.get(1).copied(),
                        tail: false,
                    });
                }
                Instruction::TCache {
                    target,
                    a,
                    b,
                    filters,
                } => {
                    let a_reg = *reg_of.get(&SetVar::Adj(*a)).expect("A_a defined");
                    let b_reg = *reg_of.get(&SetVar::Adj(*b)).expect("A_b defined");
                    let target = alloc(*target, &mut reg_of);
                    instrs.push(CInstr::TCache {
                        a: *a,
                        b: *b,
                        a_reg,
                        b_reg,
                        target,
                        filters: CFilters::compile(filters),
                    });
                }
                Instruction::ReportMatch { items } => {
                    report_items = items
                        .iter()
                        .map(|it| match it {
                            ResultItem::Vertex(v) => CReportItem::Vertex(*v),
                            ResultItem::ImageSet(s) => CReportItem::ImageSet(
                                *reg_of.get(s).expect("image set defined before RES"),
                            ),
                        })
                        .collect();
                    instrs.push(CInstr::Report);
                }
            }
        }

        mark_tail(&mut instrs, plan);

        let expansion = plan.compressed.then(|| {
            let k = benu_pattern::cover::cover_prefix_len(&plan.pattern, &plan.matching_order);
            let non_cover: Vec<usize> = plan.matching_order[k..].to_vec();
            let image_reg: Vec<usize> = non_cover
                .iter()
                .map(|&v| match report_items[v] {
                    CReportItem::ImageSet(reg) => reg,
                    CReportItem::Vertex(_) => {
                        unreachable!("non-cover vertex reported as a plain vertex")
                    }
                })
                .collect();
            let t = non_cover.len();
            let mut pair_order = vec![vec![None; t]; t];
            for (t1, &a) in non_cover.iter().enumerate() {
                for (t2, &b) in non_cover.iter().enumerate().skip(t1 + 1) {
                    pair_order[t1][t2] = plan.symmetry.between(a, b);
                }
            }
            ExpansionInfo {
                non_cover,
                image_reg,
                pair_order,
            }
        });

        let second_vertex = plan.instructions.iter().find_map(|i| match i {
            Instruction::Foreach { vertex, .. }
                if Some(*vertex) == plan.matching_order.get(1).copied() =>
            {
                Some(*vertex)
            }
            _ => None,
        });
        let second_adjacent = plan
            .matching_order
            .get(1)
            .is_some_and(|&u| plan.pattern.has_edge(plan.matching_order[0], u));

        let labels = (0..plan.pattern.num_vertices())
            .map(|u| plan.pattern.label(u))
            .collect();
        CompiledPlan {
            instrs,
            labels,
            num_pattern_vertices: plan.pattern.num_vertices(),
            num_slots: reg_of.len(),
            start_vertex: plan.start_vertex(),
            second_vertex,
            second_adjacent,
            report_items,
            expansion,
        }
    }

    /// True when any pattern vertex carries a label constraint.
    pub fn is_labeled(&self) -> bool {
        self.labels.iter().any(|l| l.is_some())
    }

    /// Number of enumeration levels.
    pub fn num_levels(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, CInstr::Foreach { .. }))
            .count()
    }

    /// Instruction-kind histogram (diagnostics).
    pub fn kind_counts(&self) -> HashMap<InstrKind, usize> {
        let mut counts = HashMap::new();
        for i in &self.instrs {
            let kind = match i {
                CInstr::Init { .. } => InstrKind::Ini,
                CInstr::GetAdj { .. } => InstrKind::Dbq,
                CInstr::Intersect { .. } => InstrKind::Int,
                CInstr::Foreach { .. } => InstrKind::Enu,
                CInstr::TCache { .. } => InstrKind::Trc,
                CInstr::Report => InstrKind::Res,
            };
            *counts.entry(kind).or_insert(0) += 1;
        }
        counts
    }
}

/// Marks the countable tail of an uncompressed plan: `ENU(f_k over C) ;
/// RES` with `f_k` unlabeled, and the `C := INT(T)[filters]` right
/// before it when `T` is its one register operand. `C` is defined
/// directly before its loop and only `RES` follows, so nothing else can
/// read it.
fn mark_tail(instrs: &mut [CInstr], plan: &ExecutionPlan) {
    let [.., int, CInstr::Foreach {
        vertex,
        source,
        tail,
        ..
    }, CInstr::Report] = instrs
    else {
        return;
    };
    if plan.compressed || plan.pattern.label(*vertex).is_some() {
        return;
    }
    *tail = true;
    if let CInstr::Intersect {
        target,
        operands,
        tail,
        ..
    } = int
    {
        *tail = target == source && matches!(operands[..], [COperand::Reg(_)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;

    #[test]
    fn compiles_demo_plan() {
        let p = queries::demo_pattern();
        let plan = PlanBuilder::new(&p)
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .build();
        let c = CompiledPlan::compile(&plan);
        assert_eq!(c.num_pattern_vertices, 6);
        assert_eq!(c.start_vertex, 0);
        assert_eq!(c.second_vertex, Some(2));
        assert!(c.second_adjacent);
        assert_eq!(c.num_levels(), 5);
        assert!(c.expansion.is_none());
        assert!(matches!(c.instrs.last(), Some(CInstr::Report)));
    }

    #[test]
    fn compressed_plan_exposes_expansion_info() {
        let p = queries::demo_pattern();
        let plan = PlanBuilder::new(&p)
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .compressed(true)
            .build();
        let c = CompiledPlan::compile(&plan);
        let exp = c.expansion.as_ref().unwrap();
        assert_eq!(exp.non_cover, vec![1, 5, 3]);
        assert_eq!(exp.image_reg.len(), 3);
        assert_eq!(c.num_levels(), 2);
    }

    #[test]
    fn second_flag_marks_exactly_one_foreach() {
        let p = queries::q4();
        let plan = PlanBuilder::new(&p).best_plan();
        let c = CompiledPlan::compile(&plan);
        let second_count = c
            .instrs
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    CInstr::Foreach {
                        is_second: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(second_count, 1);
    }

    #[test]
    fn register_indices_are_dense() {
        let p = queries::q9();
        let plan = PlanBuilder::new(&p).best_plan();
        let c = CompiledPlan::compile(&plan);
        let mut seen = vec![false; c.num_slots];
        for i in &c.instrs {
            match i {
                CInstr::GetAdj { target, .. }
                | CInstr::Intersect { target, .. }
                | CInstr::TCache { target, .. } => seen[*target] = true,
                _ => {}
            }
        }
        assert!(seen.iter().all(|&s| s), "every slot is defined somewhere");
    }
}
