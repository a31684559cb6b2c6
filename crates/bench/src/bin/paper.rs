//! Regenerates the paper's evaluation (§VII) — every table and figure —
//! and the experiments on the extensions beyond it, each followed by the
//! verdict of every claim made about it (`benu_bench::paper`). Exits
//! non-zero when a gated claim does not hold.
//!
//! ```text
//! cargo run --release -p benu-bench --bin paper -- <experiment|ext|all> \
//!     [--scale 0.05] [--json out.json] [--datasets as,fs] [--queries q1,q5]
//! ```
//!
//! The paper's experiments: `table1 table4 fig7 fig8 fig9 table5 table6
//! fig10`; the extensions (`ext`): `budget faults estimators`; `all`
//! (the default) runs all eleven. Without `--scale` each runs at its own
//! default scale.

use benu_bench::paper::{self, Experiment, Setup};
use benu_bench::report::BenchReport;
use benu_graph::datasets::Dataset;

fn main() {
    let mut which = None;
    let mut json = None;
    let mut setup = Setup::default();
    let list = |s: String| s.split(',').map(String::from).collect::<Vec<_>>();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            assert!(which.is_none(), "one experiment expected, got {arg:?} too");
            which = Some(arg);
            continue;
        };
        let value = args
            .next()
            .unwrap_or_else(|| panic!("--{key} expects a value"));
        match key {
            "scale" => setup.scale = Some(value.parse().expect("--scale expects a number")),
            "json" => json = Some(value),
            "datasets" => {
                let parse = |d: String| {
                    Dataset::from_abbrev(&d).unwrap_or_else(|| panic!("unknown dataset {d:?}"))
                };
                setup.datasets = Some(list(value).into_iter().map(parse).collect());
            }
            "queries" => setup.queries = Some(list(value)),
            _ => {
                panic!("unknown option --{key}: expected --scale, --json, --datasets or --queries")
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let experiments = match which.as_str() {
        "all" => Experiment::ALL.to_vec(),
        "ext" => Experiment::EXT.to_vec(),
        name => vec![Experiment::from_name(name).unwrap_or_else(|| {
            let names = Experiment::ALL.map(Experiment::name).join(" ");
            panic!("unknown experiment {name:?}: expected all, ext or one of {names}")
        })],
    };

    let mut report = BenchReport::new("paper");
    report
        .param("experiments", which.as_str())
        .param("cores", paper::cores());
    let mut failing = 0;
    for experiment in experiments {
        let table = paper::run(experiment, &setup);
        let claims = paper::claims(&table);
        table.print(&claims);
        failing += claims.iter().filter(|c| c.gated && !c.holds).count();
        report.push_row(&table.report(&claims));
    }
    if let Some(path) = json {
        report.write(&path).expect("write json");
    }
    if failing > 0 {
        eprintln!("{failing} gated claim(s) do not hold");
        std::process::exit(1);
    }
}
