//! Data-graph substrate for the BENU subgraph-enumeration system.
//!
//! This crate provides everything BENU needs to know about the *data graph*
//! `G`:
//!
//! * [`Graph`] — an undirected, unlabeled simple graph in CSR form with
//!   sorted adjacency sets (the representation stored in the distributed
//!   key-value store and queried by `GetAdj` instructions).
//! * [`AdjSet`] and the intersection kernels in [`ops`] — the sorted-set
//!   arithmetic that powers the `Intersect` instructions of a BENU
//!   execution plan.
//! * [`view`] — dual-representation adjacency: [`AdjView`] pairs the
//!   sorted ids with optional bitset blocks for dense vertices, and its
//!   kernels dispatch to block-wise (u64-word) intersection when a dense
//!   operand is present.
//! * [`TotalOrder`] — the degree-based total order `≺` on `V(G)` required
//!   by the symmetry-breaking technique (the same order used by SEED).
//! * [`gen`] — deterministic synthetic graph generators (Erdős–Rényi,
//!   Chung-Lu power-law, Barabási–Albert, and fixed motifs) used to stand
//!   in for the SNAP/LAW datasets of the paper.
//! * [`datasets`] — seeded scale-down presets of the paper's five data
//!   graphs (`as`, `lj`, `ok`, `uk`, `fs`).

pub mod adj;
pub mod datasets;
pub mod gen;
pub mod graph;
pub mod ops;
pub mod order;
pub mod stats;
pub mod view;

pub use adj::AdjSet;
pub use graph::{Graph, GraphBuilder};
pub use order::TotalOrder;
pub use view::{AdjView, BlockSet, GraphViews, DENSE_BLOCK_THRESHOLD};

/// Identifier of a data-graph vertex. Graphs are limited to `u32::MAX`
/// vertices, which matches the paper's datasets (≤ 65M vertices) while
/// halving the memory footprint of adjacency sets compared to `u64`.
pub type VertexId = u32;

/// An undirected edge, stored with `min ≤ max` endpoint order.
pub type Edge = (VertexId, VertexId);
