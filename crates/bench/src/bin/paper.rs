//! Regenerates the paper's evaluation (§VII): every table and figure,
//! each followed by the verdict of every claim the paper makes about it
//! (`benu_bench::paper`). Exits non-zero when a gated claim does not
//! hold.
//!
//! ```text
//! cargo run --release -p benu-bench --bin paper -- <experiment|all> \
//!     [--scale 0.05] [--json out.json] [--datasets as,fs] [--queries q1,q5]
//! ```
//!
//! Experiments: `table1 table4 fig7 fig8 fig9 table5 table6 fig10`.
//! Without `--scale` each runs at its own default scale.

use benu_bench::cli::Args;
use benu_bench::paper::{self, Experiment, Setup};
use benu_bench::report::BenchReport;
use benu_graph::datasets::Dataset;

fn main() {
    let args = Args::parse();
    let which = args.positional().first().map_or("all", String::as_str);
    let experiments = match which {
        "all" => Experiment::ALL.to_vec(),
        name => vec![Experiment::from_name(name).unwrap_or_else(|| {
            let names = Experiment::ALL.map(Experiment::name).join(" ");
            panic!("unknown experiment {name:?}: expected all or one of {names}")
        })],
    };
    let list = |key| {
        args.get_str(key)
            .map(|s| s.split(',').map(String::from).collect::<Vec<_>>())
    };
    let setup = Setup {
        scale: args
            .get_str("scale")
            .map(|s| s.parse().expect("--scale expects a number")),
        datasets: list("datasets").map(|names| {
            names
                .iter()
                .map(|d| Dataset::from_abbrev(d).unwrap_or_else(|| panic!("unknown dataset {d:?}")))
                .collect()
        }),
        queries: list("queries"),
        ..Setup::default()
    };

    let mut report = BenchReport::new("paper");
    report
        .param("experiments", which)
        .param("cores", paper::cores());
    let mut failing = 0;
    for experiment in experiments {
        let table = paper::run(experiment, &setup);
        let claims = paper::claims(&table);
        table.print(&claims);
        failing += claims.iter().filter(|c| c.gated && !c.holds).count();
        report.push_row(&table.report(&claims));
    }
    if let Some(path) = args.get_str("json") {
        report.write(path).expect("write json");
    }
    if failing > 0 {
        eprintln!("{failing} gated claim(s) do not hold");
        std::process::exit(1);
    }
}
