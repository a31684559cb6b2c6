//! Pattern-graph machinery for BENU.
//!
//! The pattern graph `P` is small (`n ≪ N`), connected, undirected and
//! unlabeled. This crate provides:
//!
//! * [`Pattern`] — a bitset-based small-graph type with the operations the
//!   plan compiler needs (induced subgraphs, connectivity, components).
//! * [`automorphism`] — the one search over vertex maps (does a partial
//!   map extend to an isomorphism?), and the orbits, `|Aut(P)|` and
//!   isomorphism tests asked of it; `Aut(P)` is never enumerated.
//! * [`canonical`] — automorphism-canonical forms and hashes, the
//!   plan-cache key of the serving layer (isomorphic submissions share
//!   one compiled plan).
//! * [`symmetry`] — the symmetry-breaking partial order of Grochow–Kellis
//!   \[15\], which makes match enumeration report each subgraph exactly once.
//! * [`se`] — the syntactic-equivalence relation of Ren & Wang \[17\] used by
//!   the dual pruning in the best-plan search.
//! * [`cover`] — vertex-cover utilities used by VCBC compression.
//! * [`queries`] — the paper's pattern catalogue: the running example of
//!   Fig. 1a, q1–q9 (reconstructed; see DESIGN.md §3), and stock motifs.

pub mod automorphism;
pub mod canonical;
pub mod cover;
pub mod pattern;
pub mod queries;
pub mod se;
pub mod symmetry;

pub use canonical::CanonicalForm;
pub use pattern::{Pattern, PatternVertex};
pub use symmetry::SymmetryBreaking;
