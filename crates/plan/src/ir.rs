//! The execution-plan instruction set (Table III of the paper).
//!
//! A plan is a straight-line instruction list; every `Foreach` (ENU)
//! instruction opens one nested level of the backtracking search, so the
//! instructions after it execute once per candidate vertex. Six instruction
//! kinds exist:
//!
//! | kind | paper form | meaning |
//! |------|-----------|---------|
//! | INI  | `f_i := Init(start)` | map the first pattern vertex to the task's start vertex |
//! | DBQ  | `A_i := GetAdj(f_i)` | fetch `Γ_G(f_i)` from the distributed database |
//! | INT  | `X := Intersect(…)[∣FCs]` | intersect operand sets, apply filter conditions |
//! | ENU  | `f_i := Foreach(X)` | loop `f_i` over `X`, entering the next search level |
//! | TRC  | `X := TCache(f_i, f_j, A_i, A_j)` | triangle-cached intersection |
//! | RES  | `f := ReportMatch(…)` | emit a (possibly VCBC-compressed) match |

use benu_pattern::PatternVertex;

/// A set-valued variable referenced by instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SetVar {
    /// `A_i` — the adjacency set of `f_i`.
    Adj(PatternVertex),
    /// `C_i` — the refined candidate set for pattern vertex `u_i`.
    Cand(PatternVertex),
    /// `T_j` — a temporary produced by an intersection.
    Tmp(usize),
    /// `V(G)` — the full vertex set of the data graph.
    AllVertices,
}

/// Comparison operator of a filtering condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FilterOp {
    /// Symmetry-breaking: result vertices must satisfy `x ≺ f_i`.
    Less,
    /// Symmetry-breaking: result vertices must satisfy `f_i ≺ x`.
    Greater,
    /// Injectivity: result vertices must satisfy `x ≠ f_i`.
    NotEqual,
}

/// A filtering condition `[op f_vertex]` attached to an INT instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterCond {
    /// The comparison.
    pub op: FilterOp,
    /// The pattern vertex whose mapped data vertex `f_i` is compared
    /// against.
    pub vertex: PatternVertex,
}

impl FilterCond {
    /// `x ≺ f_v`.
    pub fn less(vertex: PatternVertex) -> Self {
        FilterCond {
            op: FilterOp::Less,
            vertex,
        }
    }
    /// `f_v ≺ x`.
    pub fn greater(vertex: PatternVertex) -> Self {
        FilterCond {
            op: FilterOp::Greater,
            vertex,
        }
    }
    /// `x ≠ f_v`.
    pub fn not_equal(vertex: PatternVertex) -> Self {
        FilterCond {
            op: FilterOp::NotEqual,
            vertex,
        }
    }
}

/// One item of the RES instruction's output tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResultItem {
    /// An enumerated vertex `f_i`.
    Vertex(PatternVertex),
    /// A conditional image set `C_i` (VCBC-compressed output for a
    /// non-cover pattern vertex `u_i`).
    ImageSet(SetVar),
}

/// One execution instruction (Table III).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instruction {
    /// INI — `f_i := Init(start)`.
    Init {
        /// The first pattern vertex of the matching order.
        vertex: PatternVertex,
    },
    /// DBQ — `A_i := GetAdj(f_i)`.
    GetAdj {
        /// The pattern vertex whose mapped data vertex is queried.
        vertex: PatternVertex,
    },
    /// INT — `target := Intersect(operands)[∣filters]`.
    Intersect {
        /// The variable that stores the result set.
        target: SetVar,
        /// Operand sets; one or more.
        operands: Vec<SetVar>,
        /// Optional filtering conditions applied to the result.
        filters: Vec<FilterCond>,
    },
    /// ENU — `f_i := Foreach(source)`.
    Foreach {
        /// The pattern vertex being mapped.
        vertex: PatternVertex,
        /// The candidate set looped over.
        source: SetVar,
    },
    /// TRC — `target := TCache(f_a, f_b, A_a, A_b)`.
    TCache {
        /// The variable that stores the (cached) triangle set.
        target: SetVar,
        /// First endpoint; by construction one of `a`, `b` is the start
        /// vertex of the matching order.
        a: PatternVertex,
        /// Second endpoint.
        b: PatternVertex,
        /// Filtering conditions applied to the result (inherited from the
        /// INT instruction this TRC replaced).
        filters: Vec<FilterCond>,
    },
    /// RES — `f := ReportMatch(items)`.
    ReportMatch {
        /// One entry per pattern vertex, in pattern-vertex index order.
        items: Vec<ResultItem>,
    },
}

/// Instruction kind, used for Optimization 2's rank (`INI < INT < TRC <
/// DBQ < ENU < RES`) and for cost accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrKind {
    /// Initialization.
    Ini,
    /// Set intersection (computation cost).
    Int,
    /// Triangle-cached intersection (computation cost).
    Trc,
    /// Database query (communication cost).
    Dbq,
    /// Enumeration (opens a backtracking level).
    Enu,
    /// Result reporting.
    Res,
}

impl Instruction {
    /// This instruction's kind.
    pub fn kind(&self) -> InstrKind {
        match self {
            Instruction::Init { .. } => InstrKind::Ini,
            Instruction::GetAdj { .. } => InstrKind::Dbq,
            Instruction::Intersect { .. } => InstrKind::Int,
            Instruction::Foreach { .. } => InstrKind::Enu,
            Instruction::TCache { .. } => InstrKind::Trc,
            Instruction::ReportMatch { .. } => InstrKind::Res,
        }
    }

    /// The set variable this instruction defines, if any.
    pub fn defined_set(&self) -> Option<SetVar> {
        match self {
            Instruction::Intersect { target, .. } | Instruction::TCache { target, .. } => {
                Some(*target)
            }
            Instruction::GetAdj { vertex } => Some(SetVar::Adj(*vertex)),
            _ => None,
        }
    }

    /// The pattern vertex whose `f_i` this instruction defines, if any.
    pub fn defined_vertex(&self) -> Option<PatternVertex> {
        match self {
            Instruction::Init { vertex } | Instruction::Foreach { vertex, .. } => Some(*vertex),
            _ => None,
        }
    }

    /// Set variables read by this instruction.
    pub fn used_sets(&self) -> Vec<SetVar> {
        match self {
            Instruction::Intersect { operands, .. } => operands.clone(),
            Instruction::Foreach { source, .. } => vec![*source],
            Instruction::TCache { a, b, .. } => vec![SetVar::Adj(*a), SetVar::Adj(*b)],
            Instruction::ReportMatch { items } => items
                .iter()
                .filter_map(|it| match it {
                    ResultItem::ImageSet(s) => Some(*s),
                    ResultItem::Vertex(_) => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Pattern vertices whose `f_i` values this instruction reads
    /// (operands of `GetAdj`/`TCache` and filter-condition references).
    pub fn used_vertices(&self) -> Vec<PatternVertex> {
        match self {
            Instruction::GetAdj { vertex } => vec![*vertex],
            Instruction::Intersect { filters, .. } => filters.iter().map(|f| f.vertex).collect(),
            Instruction::TCache { a, b, filters, .. } => {
                let mut v = vec![*a, *b];
                v.extend(filters.iter().map(|f| f.vertex));
                v
            }
            Instruction::ReportMatch { items } => items
                .iter()
                .filter_map(|it| match it {
                    ResultItem::Vertex(v) => Some(*v),
                    ResultItem::ImageSet(_) => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Replaces every occurrence of set variable `from` with `to` in the
    /// operands (not the target).
    pub fn replace_operand(&mut self, from: SetVar, to: SetVar) {
        match self {
            Instruction::Intersect { operands, .. } => {
                for op in operands.iter_mut() {
                    if *op == from {
                        *op = to;
                    }
                }
            }
            Instruction::Foreach { source, .. } if *source == from => {
                *source = to;
            }
            Instruction::ReportMatch { items } => {
                for it in items.iter_mut() {
                    if let ResultItem::ImageSet(s) = it {
                        if *s == from {
                            *s = to;
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// A complete execution plan for one pattern graph.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionPlan {
    /// The pattern this plan enumerates.
    pub pattern: benu_pattern::Pattern,
    /// The matching order `O` (pattern vertices, first = start vertex).
    pub matching_order: Vec<PatternVertex>,
    /// The symmetry-breaking partial order baked into the filters.
    pub symmetry: benu_pattern::SymmetryBreaking,
    /// The instruction list.
    pub instructions: Vec<Instruction>,
    /// True if the plan emits VCBC-compressed results.
    pub compressed: bool,
}

impl ExecutionPlan {
    /// The first pattern vertex of the matching order (the vertex mapped to
    /// each task's start vertex).
    pub fn start_vertex(&self) -> PatternVertex {
        self.matching_order[0]
    }

    /// The second pattern vertex of the matching order; its candidate set
    /// is what task splitting divides (§V-B).
    pub fn second_vertex(&self) -> Option<PatternVertex> {
        self.matching_order.get(1).copied()
    }

    /// Number of instructions of the given kind.
    pub fn count_kind(&self, kind: InstrKind) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.kind() == kind)
            .count()
    }

    /// Number of enumeration levels (ENU instructions).
    pub fn num_levels(&self) -> usize {
        self.count_kind(InstrKind::Enu)
    }

    /// Checks the plan's well-formedness: every variable is defined before
    /// use, every pattern vertex is either enumerated or (when compressed)
    /// reported as an image set, and the plan ends with RES. Returns a
    /// description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut defined_sets: Vec<SetVar> = vec![SetVar::AllVertices];
        let mut defined_vertices: Vec<PatternVertex> = Vec::new();
        let last = self.instructions.len().checked_sub(1).ok_or("empty plan")?;
        for (idx, instr) in self.instructions.iter().enumerate() {
            for s in instr.used_sets() {
                if !defined_sets.contains(&s) {
                    return Err(format!(
                        "instruction {idx}: set {s:?} used before definition"
                    ));
                }
            }
            for v in instr.used_vertices() {
                if !defined_vertices.contains(&v) {
                    return Err(format!("instruction {idx}: f_{v} used before definition"));
                }
            }
            if let Some(s) = instr.defined_set() {
                if defined_sets.contains(&s) {
                    return Err(format!("instruction {idx}: set {s:?} redefined"));
                }
                defined_sets.push(s);
            }
            if let Some(v) = instr.defined_vertex() {
                if defined_vertices.contains(&v) {
                    return Err(format!("instruction {idx}: f_{v} redefined"));
                }
                defined_vertices.push(v);
            }
            if idx == last && instr.kind() != InstrKind::Res {
                return Err("plan does not end with a RES instruction".into());
            }
            if idx != last && instr.kind() == InstrKind::Res {
                return Err(format!("instruction {idx}: RES before end of plan"));
            }
        }
        // Every pattern vertex must be covered by the RES tuple.
        if let Some(Instruction::ReportMatch { items }) = self.instructions.last() {
            if items.len() != self.pattern.num_vertices() {
                return Err(format!(
                    "RES reports {} items for {} pattern vertices",
                    items.len(),
                    self.pattern.num_vertices()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_pattern::{queries, SymmetryBreaking};

    fn tiny_plan() -> ExecutionPlan {
        // Hand-built triangle plan: order u0, u1, u2.
        let pattern = queries::triangle();
        let symmetry = SymmetryBreaking::compute(&pattern);
        ExecutionPlan {
            pattern,
            matching_order: vec![0, 1, 2],
            symmetry,
            instructions: vec![
                Instruction::Init { vertex: 0 },
                Instruction::GetAdj { vertex: 0 },
                Instruction::Intersect {
                    target: SetVar::Cand(1),
                    operands: vec![SetVar::Adj(0)],
                    filters: vec![FilterCond::greater(0)],
                },
                Instruction::Foreach {
                    vertex: 1,
                    source: SetVar::Cand(1),
                },
                Instruction::GetAdj { vertex: 1 },
                Instruction::Intersect {
                    target: SetVar::Cand(2),
                    operands: vec![SetVar::Adj(0), SetVar::Adj(1)],
                    filters: vec![FilterCond::greater(1)],
                },
                Instruction::Foreach {
                    vertex: 2,
                    source: SetVar::Cand(2),
                },
                Instruction::ReportMatch {
                    items: vec![
                        ResultItem::Vertex(0),
                        ResultItem::Vertex(1),
                        ResultItem::Vertex(2),
                    ],
                },
            ],
            compressed: false,
        }
    }

    #[test]
    fn valid_plan_passes_validation() {
        tiny_plan().validate().unwrap();
    }

    #[test]
    fn use_before_def_is_caught() {
        let mut p = tiny_plan();
        p.instructions.swap(1, 2); // Intersect now reads A_0 before GetAdj
        let err = p.validate().unwrap_err();
        assert!(err.contains("used before definition"), "{err}");
    }

    #[test]
    fn missing_res_is_caught() {
        let mut p = tiny_plan();
        p.instructions.pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn kinds_and_counts() {
        let p = tiny_plan();
        assert_eq!(p.count_kind(InstrKind::Dbq), 2);
        assert_eq!(p.count_kind(InstrKind::Enu), 2);
        assert_eq!(p.num_levels(), 2);
        assert_eq!(p.start_vertex(), 0);
        assert_eq!(p.second_vertex(), Some(1));
    }

    #[test]
    fn replace_operand_rewrites_uses_only() {
        let mut instr = Instruction::Intersect {
            target: SetVar::Tmp(9),
            operands: vec![SetVar::Adj(0), SetVar::Adj(1)],
            filters: vec![],
        };
        instr.replace_operand(SetVar::Adj(0), SetVar::Tmp(3));
        assert_eq!(instr.used_sets(), vec![SetVar::Tmp(3), SetVar::Adj(1)]);
        assert_eq!(instr.defined_set(), Some(SetVar::Tmp(9)));
    }

    #[test]
    fn used_vertices_include_filters() {
        let instr = Instruction::Intersect {
            target: SetVar::Cand(2),
            operands: vec![SetVar::Adj(0)],
            filters: vec![FilterCond::not_equal(1), FilterCond::less(0)],
        };
        assert_eq!(instr.used_vertices(), vec![1, 0]);
    }
}
