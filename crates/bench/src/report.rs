//! The unified bench report envelope (schema `benu/report-v2`).
//!
//! The `paper` binary's `--json` dump is one [`BenchReport`]: the schema
//! tag, the bench name, the parameters the run was invoked with, and a
//! list of result rows, each a [`Report`] tree. The golden-file snapshot
//! test (`tests/report_schema.rs`) pins this schema, with a
//! [`benu_cluster::RunOutcome::report`] as its row; bump [`SCHEMA`] when
//! changing it.

use benu_obs::{Report, Value};

/// The schema tag every unified dump carries.
pub const SCHEMA: &str = "benu/report-v2";

/// One bench invocation's machine-readable output.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    bench: String,
    params: Report,
    rows: Vec<Value>,
}

impl BenchReport {
    /// An empty report for the bench named `bench`.
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            params: Report::new(),
            rows: Vec::new(),
        }
    }

    /// Records an invocation parameter (dataset, scale, seed, flags).
    pub fn param(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.params.set(key, value);
        self
    }

    /// Appends a result row.
    pub fn push_row(&mut self, row: &Report) -> &mut Self {
        self.rows.push(Value::Tree(row.clone()));
        self
    }

    /// Number of rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The canonical envelope.
    pub fn to_json(&self) -> Value {
        let mut envelope = Report::new();
        envelope.set("schema", SCHEMA);
        envelope.set("bench", self.bench.as_str());
        envelope.set_tree("params", self.params.clone());
        envelope.set("rows", Value::List(self.rows.clone()));
        Value::Tree(envelope)
    }

    /// Writes the envelope as pretty JSON to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_has_schema_bench_params_rows() {
        let mut report = BenchReport::new("demo");
        report.param("scale", 0.5).param("dataset", "as");
        let mut row = Report::new();
        row.set("matches", 42u64);
        report.push_row(&row);
        assert_eq!(report.len(), 1);
        let json = report.to_json().render_json();
        assert!(json.contains("\"schema\": \"benu/report-v2\""));
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"scale\": 0.5"));
        assert!(json.contains("\"matches\": 42"));
        // Top-level key order is fixed.
        let schema_pos = json.find("\"schema\"").unwrap();
        let bench_pos = json.find("\"bench\"").unwrap();
        let params_pos = json.find("\"params\"").unwrap();
        let rows_pos = json.find("\"rows\"").unwrap();
        assert!(schema_pos < bench_pos && bench_pos < params_pos && params_pos < rows_pos);
    }
}
