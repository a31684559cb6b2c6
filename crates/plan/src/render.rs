//! Paper-style textual rendering of execution plans.
//!
//! Plans print in the notation of Fig. 3 — `f1:=Init(start)`,
//! `T7:=Intersect(A1,A3)`, `C5:=Intersect(A1)[|>f3]` — with 1-based
//! variable indices to match the paper, plus loop indentation showing the
//! backtracking nesting.

use crate::ir::{ExecutionPlan, FilterCond, FilterOp, Instruction, ResultItem, SetVar};
use std::fmt::Write as _;

fn set_name(s: SetVar) -> String {
    match s {
        SetVar::Adj(i) => format!("A{}", i + 1),
        SetVar::Cand(i) => format!("C{}", i + 1),
        SetVar::Tmp(i) => format!("T{}", i + 1),
        SetVar::AllVertices => "V(G)".to_string(),
    }
}

fn filter_name(fc: &FilterCond) -> String {
    let v = fc.vertex + 1;
    match fc.op {
        FilterOp::Less => format!("<f{v}"),
        FilterOp::Greater => format!(">f{v}"),
        FilterOp::NotEqual => format!("!=f{v}"),
    }
}

fn filters_suffix(filters: &[FilterCond]) -> String {
    if filters.is_empty() {
        String::new()
    } else {
        let parts: Vec<_> = filters.iter().map(filter_name).collect();
        format!("[|{}]", parts.join(","))
    }
}

/// Renders `plan` in the paper's textual notation, one numbered line per
/// instruction, indented by enumeration depth.
pub fn render(plan: &ExecutionPlan) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for (idx, instr) in plan.instructions.iter().enumerate() {
        let _ = write!(out, "{:>2}  {}", idx + 1, "  ".repeat(depth));
        match instr {
            Instruction::Init { vertex } => {
                let _ = writeln!(out, "f{} := Init(start)", vertex + 1);
            }
            Instruction::GetAdj { vertex } => {
                let _ = writeln!(out, "A{0} := GetAdj(f{0})", vertex + 1);
            }
            Instruction::Intersect {
                target,
                operands,
                filters,
            } => {
                let ops: Vec<_> = operands.iter().map(|&o| set_name(o)).collect();
                let _ = writeln!(
                    out,
                    "{} := Intersect({}){}",
                    set_name(*target),
                    ops.join(","),
                    filters_suffix(filters)
                );
            }
            Instruction::Foreach { vertex, source } => {
                let _ = writeln!(out, "f{} := Foreach({})", vertex + 1, set_name(*source));
                depth += 1;
            }
            Instruction::TCache {
                target,
                a,
                b,
                filters,
            } => {
                let _ = writeln!(
                    out,
                    "{} := TCache(f{1},f{2},A{1},A{2}){3}",
                    set_name(*target),
                    a + 1,
                    b + 1,
                    filters_suffix(filters)
                );
            }
            Instruction::ReportMatch { items } => {
                let parts: Vec<_> = items
                    .iter()
                    .map(|it| match it {
                        ResultItem::Vertex(v) => format!("f{}", v + 1),
                        ResultItem::ImageSet(s) => set_name(*s),
                    })
                    .collect();
                let _ = writeln!(out, "f := ReportMatch({})", parts.join(","));
            }
        }
    }
    out
}

impl std::fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&render(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::raw_plan;
    use crate::optimize::{optimize, OptLevel};
    use benu_pattern::{queries, SymmetryBreaking};

    #[test]
    fn demo_plan_renders_paper_notation() {
        let p = queries::demo_pattern();
        let sb = SymmetryBreaking::compute(&p);
        let mut plan = raw_plan(&p, &[0, 2, 4, 1, 5, 3], &sb);
        optimize(&mut plan, OptLevel::Opt3);
        let text = render(&plan);
        assert!(text.contains("f1 := Init(start)"), "{text}");
        assert!(text.contains("A1 := GetAdj(f1)"), "{text}");
        // The hoisted common subexpression is T7 in the paper's numbering.
        assert!(text.contains("T7 := TCache(f1,f3,A1,A3)"), "{text}");
        assert!(text.contains("C5 := Intersect(A1)[|>f3]"), "{text}");
        assert!(
            text.trim_end()
                .ends_with("f := ReportMatch(f1,f2,f3,f4,f5,f6)"),
            "{text}"
        );
    }

    #[test]
    fn indentation_tracks_enumeration_depth() {
        let p = queries::triangle();
        let sb = SymmetryBreaking::compute(&p);
        let plan = raw_plan(&p, &[0, 1, 2], &sb);
        let text = render(&plan);
        let lines: Vec<&str> = text.lines().collect();
        // The RES line is nested under two Foreach loops.
        let res_line = lines.last().unwrap();
        assert!(res_line.contains("    f := ReportMatch"));
    }
}
