//! The experiment harness.
//!
//! [`paper`] is the paper's evaluation — every table and figure — and
//! the experiments on the extensions beyond it, each with the claims
//! made about it. The one binary, `paper`, prints them (see DESIGN.md §4
//! for the index and EXPERIMENTS.md for recorded results); `--scale
//! <f64>` grows or shrinks the dataset presets and `--json <path>`
//! additionally dumps machine-readable results.

pub mod paper;
pub mod report;

use benu_graph::datasets::Dataset;
use benu_graph::Graph;

/// Builds a dataset preset, printing its size (every experiment logs the
/// workload it actually ran on).
pub fn load_dataset(dataset: Dataset, scale: f64) -> Graph {
    let g = dataset.build(scale);
    eprintln!(
        "[workload] {} at scale {scale}: {} vertices, {} edges, adjacency {} bytes",
        dataset.abbrev(),
        g.num_vertices(),
        g.num_edges(),
        g.adjacency_bytes()
    );
    g
}

/// Renders a fixed-width text table: a header row plus data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    let rule: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect();
    println!("{rule}+");
    line(headers.iter().map(|s| s.to_string()).collect());
    println!("{rule}+");
    for row in rows {
        line(row.clone());
    }
    println!("{rule}+");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_loads() {
        let g = load_dataset(Dataset::AsSkitter, 0.02);
        assert!(g.num_vertices() > 0);
    }
}
