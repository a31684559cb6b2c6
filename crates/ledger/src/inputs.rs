//! Workload inputs, all derived from one `--seed`.
//!
//! Data graphs are the `benu_graph::datasets` presets with the seed
//! xored into the generator's own, so `--seed 0` reproduces the presets
//! exactly and every other seed draws a new graph of the same size,
//! degree law and clustering. A new graph moves a workload's match count
//! by 7–14 % (interquartile range over seeds), and the memory that holds
//! the matches with it, so at size factor 1 a seed keeps drawing until a
//! graph's match counts are within [`WORK_TOLERANCE`] of the preset's
//! ([`matched_config`]): seeds vary the topology, not the amount of
//! work. The seed also draws `plan_sweep`'s random patterns and
//! `serve_mix`'s query order and pattern renumberings. The program under
//! test receives only what is generated here.

use crate::oracle;
use benu_cluster::{ClusterConfig, CodecKind, ExecMode};
use benu_graph::datasets::Dataset;
use benu_graph::gen::{self, chung_lu_power_law, PowerLawConfig};
use benu_graph::Graph;
use benu_pattern::{queries, Pattern};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Every workload, in report order.
pub const WORKLOADS: [&str; 7] = [
    "enum_warm",
    "clique_dense",
    "fetch_cold",
    "hybrid_cold",
    "collect_vcbc",
    "plan_sweep",
    "serve_mix",
];

/// Engine threads / service workers / closed-loop clients every
/// workload uses at most; a host with fewer cores is refused.
pub const THREADS: usize = 2;

/// Run parameters shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Multiplies every preset scale and pattern-set size.
    pub size_factor: f64,
}

/// A uniformly random permutation of `0..n`.
fn permutation(n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// Share of the preset's work by which the work of a graph drawn at
/// another seed may differ.
pub const WORK_TOLERANCE: f64 = 0.03;

/// The generator configuration `seed` draws from `preset`: the preset's
/// seed xor `seed`, or, when a count `work` takes of that graph is not
/// within [`WORK_TOLERANCE`] of its `target`, xor the first value of a
/// stream keyed by `seed` for which every count is. Without a target
/// (size factors other than 1 have none) the first draw stands.
pub fn matched_config(
    preset: PowerLawConfig,
    seed: u64,
    target: Option<&[u64]>,
    work: impl Fn(&Graph) -> Vec<u64>,
) -> PowerLawConfig {
    let mut stream = ChaCha8Rng::seed_from_u64(seed);
    let mut draw = seed;
    // One draw in five to a hundred is accepted.
    for _ in 0..100_000 {
        let config = PowerLawConfig {
            seed: preset.seed ^ draw,
            ..preset
        };
        let Some(target) = target else {
            return config;
        };
        let drawn = work(&chung_lu_power_law(config));
        let near = |(&drawn, &target): (&u64, &u64)| {
            (drawn as f64 - target as f64).abs() <= WORK_TOLERANCE * target as f64
        };
        if drawn.iter().zip(target).all(near) {
            return config;
        }
        draw = stream.gen();
    }
    panic!("seed {seed} drew no graph whose work is within {WORK_TOLERANCE} of {target:?}");
}

/// How a cold workload reads the store.
#[derive(Clone, Copy, Debug)]
pub struct Cold {
    pub exec_mode: ExecMode,
    /// Per-worker frontier budget (hybrid only).
    pub memory_budget_bytes: usize,
}

/// One batch workload: a data graph, a pattern and the few
/// configuration fields it names.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    pub name: &'static str,
    pub dataset: Dataset,
    pub scale: f64,
    pub pattern: fn() -> Pattern,
    /// Engine threads of the one worker.
    pub threads: usize,
    /// VCBC-compressed plan, results materialised with `run_collect`.
    pub collect_compressed: bool,
    /// `Some`: cache of 5 % of the graph, delta-varint codec, caches
    /// cleared before every repetition, one engine thread — on two
    /// threads sharing the cache `fetch_cold` runs 1.7× slower than on
    /// one, and faster again whenever the host starves one of them, so
    /// no statistic of its repetitions is steady (the traced pass
    /// reports that as `cluster.speedup_2t`). `None`: cache ≥ 10× the
    /// graph, kept warm across repetitions.
    pub cold: Option<Cold>,
    pub oracle: fn(&Graph) -> u64,
    /// Match count at size factor 1 and seed 0, measured at the commit
    /// that added the benchmark.
    pub pinned: u64,
}

const COLD_DFS: Cold = Cold {
    exec_mode: ExecMode::Dfs,
    memory_budget_bytes: 0,
};
const COLD_HYBRID: Cold = Cold {
    exec_mode: ExecMode::Hybrid,
    memory_budget_bytes: 256 << 10,
};

pub const BATCHES: [Batch; 5] = [
    Batch {
        name: "enum_warm",
        dataset: Dataset::Uk2002,
        scale: 0.01,
        pattern: queries::q5,
        threads: THREADS,
        collect_compressed: false,
        cold: None,
        oracle: oracle::five_cycles,
        pinned: 3_767_849,
    },
    Batch {
        name: "clique_dense",
        dataset: Dataset::Orkut,
        scale: 0.07,
        pattern: || queries::clique(5),
        threads: THREADS,
        collect_compressed: false,
        cold: None,
        oracle: |g| oracle::cliques(g, 5),
        pinned: 2_581_459,
    },
    Batch {
        name: "fetch_cold",
        dataset: Dataset::FriendSter,
        scale: 0.2,
        pattern: queries::triangle,
        threads: 1,
        collect_compressed: false,
        cold: Some(COLD_DFS),
        oracle: oracle::triangles,
        pinned: 46_784,
    },
    Batch {
        name: "hybrid_cold",
        dataset: Dataset::FriendSter,
        scale: 0.2,
        pattern: queries::triangle,
        threads: 1,
        collect_compressed: false,
        cold: Some(COLD_HYBRID),
        oracle: oracle::triangles,
        pinned: 46_784,
    },
    Batch {
        name: "collect_vcbc",
        dataset: Dataset::LiveJournal,
        scale: 0.22,
        pattern: queries::chordal_square,
        threads: THREADS,
        collect_compressed: true,
        cold: None,
        oracle: oracle::chordal_squares,
        pinned: 605_717,
    },
];

impl Batch {
    pub fn by_name(name: &str) -> Option<&'static Batch> {
        BATCHES.iter().find(|b| b.name == name)
    }

    /// The generator configuration of the workload's graph at `p`.
    pub fn graph_config(&self, p: &RunParams) -> PowerLawConfig {
        matched_config(
            self.dataset.config(self.scale * p.size_factor),
            p.seed,
            (p.size_factor == 1.0).then_some(&[self.pinned]),
            |g| vec![(self.oracle)(g)],
        )
    }

    /// Database-cache capacity: 5 % of the graph when cold, ten times
    /// the graph (never under 1 MiB) when warm.
    pub fn cache_capacity_bytes(&self, g: &Graph) -> usize {
        match self.cold {
            Some(_) => g.adjacency_bytes() / 20,
            None => (10 * g.adjacency_bytes()).max(1 << 20),
        }
    }

    pub fn codec(&self) -> CodecKind {
        match self.cold {
            Some(_) => CodecKind::DeltaVarint,
            None => CodecKind::default(),
        }
    }

    /// One worker × `threads` (the workload's own, or 1 and 2 for the
    /// traced pass's speed-up figure); everything the workload does not
    /// name stays at `ClusterConfig::default()`.
    pub fn cluster_config(&self, g: &Graph, threads: usize) -> ClusterConfig {
        let mut config = ClusterConfig::builder()
            .workers(1)
            .threads_per_worker(threads)
            .cache_capacity_bytes(self.cache_capacity_bytes(g));
        if let Some(cold) = self.cold {
            config = config.codec(self.codec());
            if cold.exec_mode == ExecMode::Hybrid {
                config = config
                    .exec_mode(ExecMode::Hybrid)
                    .memory_budget_bytes(cold.memory_budget_bytes);
            }
        }
        config.build()
    }
}

/// `plan_sweep`: the named catalogue, cliques 6–9, and random connected
/// patterns on 7 and 8 vertices drawn from the seed, planned against the
/// vertex and edge counts of `lj`×1.0.
pub struct PlanSweep {
    pub patterns: Vec<Pattern>,
    pub graph_vertices: usize,
    pub graph_edges: usize,
}

/// Random patterns per vertex count at size factor 1.
const SWEEP_RANDOM_PER_SIZE: usize = 12;

pub fn plan_sweep(p: &RunParams) -> PlanSweep {
    let mut patterns: Vec<Pattern> = queries::catalogue().into_iter().map(|(_, q)| q).collect();
    patterns.extend((6..=9).map(queries::clique));
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ 0x5EE9_0001);
    let per_size = ((SWEEP_RANDOM_PER_SIZE as f64 * p.size_factor).round() as usize).max(1);
    for n in [7usize, 8] {
        for _ in 0..per_size {
            let extra = rng.gen_range(1..=n);
            let shape = gen::random_connected(n, extra, rng.gen::<u64>());
            let edges: Vec<(usize, usize)> = shape
                .edges()
                .map(|(u, v)| (u as usize, v as usize))
                .collect();
            patterns.push(Pattern::from_edges(n, &edges));
        }
    }
    let stats = Dataset::LiveJournal.config(1.0);
    PlanSweep {
        patterns,
        graph_vertices: stats.n,
        graph_edges: stats.m,
    }
}

/// `serve_mix`: the query classes. Index 4 (`square`) is the heavy one.
pub fn serve_patterns() -> [(&'static str, Pattern); 5] {
    [
        ("triangle", queries::triangle()),
        ("clique4", queries::clique(4)),
        ("chordal_square", queries::chordal_square()),
        ("path3", queries::path(3)),
        ("square", queries::square()),
    ]
}

pub const SERVE_HEAVY: usize = 4;

/// Match count of each class on a graph.
pub fn serve_counts(g: &Graph) -> [u64; 5] {
    [
        oracle::triangles(g),
        oracle::cliques(g, 4),
        oracle::chordal_squares(g),
        oracle::wedges(g),
        oracle::four_cycles(g),
    ]
}

/// [`serve_counts`] at size factor 1 and seed 0, measured at the commit
/// that added the benchmark.
pub const SERVE_PINNED: [u64; 5] = [2_544, 1_539, 28_830, 47_855, 37_909];

/// The generator configuration of `serve_mix`'s data graph, `as`×0.05,
/// matched on every class's count.
pub fn serve_graph_config(p: &RunParams) -> PowerLawConfig {
    matched_config(
        Dataset::AsSkitter.config(0.05 * p.size_factor),
        p.seed,
        (p.size_factor == 1.0).then_some(&SERVE_PINNED),
        |g| serve_counts(g).to_vec(),
    )
}

/// Queries per block of the mix: every class four times.
pub const SERVE_BLOCK: usize = 20;

/// One query of the mix.
pub struct ServeQuery {
    /// Index into [`serve_patterns`].
    pub class: usize,
    /// The class pattern under a random vertex renumbering, so
    /// canonicalisation runs on every submit.
    pub pattern: Pattern,
    pub collect: bool,
}

/// An endless seeded stream of queries in blocks of [`SERVE_BLOCK`]:
/// every block holds each of the five classes four times, one of the
/// four with `Collect` and three with `CountOnly` (so 20 % of the mix is
/// heavy and 25 % collects), in a seeded order. Blocks are therefore
/// the same work, which makes them the mix's unit of repetition.
pub struct ServeMix {
    rng: ChaCha8Rng,
    classes: [(&'static str, Pattern); 5],
    /// The rest of the current block, as (class, collect).
    block: Vec<(usize, bool)>,
}

impl ServeMix {
    /// `stream` separates the warm-up, the solo client and each loaded
    /// client.
    pub fn new(seed: u64, stream: u64) -> Self {
        ServeMix {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5EE9_0003 ^ (stream << 32)),
            classes: serve_patterns(),
            block: Vec::new(),
        }
    }
}

impl Iterator for ServeMix {
    type Item = ServeQuery;

    fn next(&mut self) -> Option<ServeQuery> {
        if self.block.is_empty() {
            let block: Vec<(usize, bool)> = (0..self.classes.len())
                .flat_map(|class| (0..4).map(move |i| (class, i == 0)))
                .collect();
            self.block = permutation(block.len(), &mut self.rng)
                .into_iter()
                .map(|i| block[i])
                .collect();
        }
        let (class, collect) = self.block.pop().expect("a block was just drawn");
        let base = &self.classes[class].1;
        let perm = permutation(base.num_vertices(), &mut self.rng);
        Some(ServeQuery {
            class,
            pattern: base.relabeled(&perm),
            collect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_draw_new_graphs_of_matched_work() {
        let spec = Batch::by_name("enum_warm").expect("a workload");
        let at = |seed| {
            chung_lu_power_law(spec.graph_config(&RunParams {
                seed,
                seconds: 0.0,
                size_factor: 1.0,
            }))
        };
        let preset = at(0);
        assert_eq!(preset, spec.dataset.build(spec.scale));
        assert_eq!((spec.oracle)(&preset), spec.pinned);
        for seed in 1..4 {
            let drawn = at(seed);
            assert_ne!(drawn, preset);
            let work = (spec.oracle)(&drawn) as f64;
            assert!((work - spec.pinned as f64).abs() <= WORK_TOLERANCE * spec.pinned as f64);
        }
    }
}
