//! SNAP-style edge-list IO.
//!
//! The paper's datasets ship as whitespace-separated edge lists with `#`
//! comment lines (the SNAP convention). [`read_edge_list`] parses that
//! format from any reader; [`write_edge_list`] emits it. Vertex ids are
//! renumbered densely in first-appearance order when `renumber` is set,
//! matching the paper's assumption of consecutively numbered vertices.

use crate::{Graph, GraphBuilder, VertexId};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Errors produced while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A data line did not contain two integer ids.
    Parse { line_no: usize, line: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line_no, line } => {
                write!(f, "cannot parse edge on line {line_no}: {line:?}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a SNAP-style edge list. Lines starting with `#` or `%` and blank
/// lines are skipped. If `renumber` is true, ids are remapped densely in
/// first-appearance order; otherwise raw ids are used directly.
pub fn read_edge_list<R: Read>(reader: R, renumber: bool) -> Result<Graph, IoError> {
    let reader = BufReader::new(reader);
    let mut builder = GraphBuilder::new();
    let mut remap: HashMap<u64, VertexId> = HashMap::new();
    let mut next_id: VertexId = 0;
    let mut map = |raw: u64, remap: &mut HashMap<u64, VertexId>| -> VertexId {
        if renumber {
            *remap.entry(raw).or_insert_with(|| {
                let id = next_id;
                next_id += 1;
                id
            })
        } else {
            raw as VertexId
        }
    };
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| tok.and_then(|t| t.parse::<u64>().ok());
        match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => {
                let u = map(u, &mut remap);
                let v = map(v, &mut remap);
                builder.add_edge(u, v);
            }
            _ => {
                return Err(IoError::Parse {
                    line_no: line_no + 1,
                    line: trimmed.to_string(),
                })
            }
        }
    }
    Ok(builder.build())
}

/// Writes the graph as a SNAP-style edge list (one `u v` pair per line,
/// `u < v`).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "# benu edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u}\t{v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_format_with_comments() {
        let text = "# comment\n% also comment\n0 1\n1\t2\n\n2 0\n";
        let g = read_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn renumbers_sparse_ids() {
        let text = "1000 42\n42 7\n";
        let g = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        // 1000 -> 0, 42 -> 1, 7 -> 2
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn reports_parse_error_with_line_number() {
        let text = "0 1\noops\n";
        let err = read_edge_list(text.as_bytes(), false).unwrap_err();
        match err {
            IoError::Parse { line_no, .. } => assert_eq!(line_no, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn roundtrip() {
        let g = crate::gen::erdos_renyi_gnm(50, 120, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice(), false).unwrap();
        assert_eq!(g, g2);
    }
}
