//! # rodinia-gpu — the 12 Rodinia benchmarks as CUDA-style kernels
//!
//! Each module re-implements one Rodinia application against the
//! [`simt`] warp-level kernel DSL. The implementations are *functionally
//! real* — every benchmark computes its actual algorithm and is validated
//! against a sequential reference — and they reproduce the optimization
//! structure of the CUDA originals that the paper characterizes:
//!
//! | Module | App (Table I) | Dwarf | Key GPU behavior |
//! |--------|---------------|-------|------------------|
//! | [`kmeans`] | Kmeans | Dense Linear Algebra | texture-bound, coalesced via transposed layout |
//! | [`nw`] | Needleman-Wunsch | Dynamic Programming | diagonal-strip parallelism, copious bank conflicts |
//! | [`hotspot`] | HotSpot | Structured Grid | shared-memory ghost-zone tiles |
//! | [`backprop`] | Back Propagation | Unstructured Grid | shared-memory parallel reduction (8/4/2/1 lanes) |
//! | [`srad`] | SRAD | Structured Grid | v1 global-heavy vs v2 shared-tiled |
//! | [`leukocyte`] | Leukocyte | Structured Grid | texture + constant memory; v2 persistent blocks |
//! | [`bfs`] | Breadth-First Search | Graph Traversal | global-memory bound, high divergence |
//! | [`streamcluster`] | Stream Cluster | Dense Linear Algebra | shared-memory candidate centers |
//! | [`mummer`] | MUMmer | Graph Traversal | suffix-tree walk in texture memory, <5-lane warps |
//! | [`cfd`] | CFD Solver | Unstructured Grid | indirect gathers, redundant-flux variant |
//! | [`lud`] | LU Decomposition | Dense Linear Algebra | row/column dependencies, small grids |
//! | [`heartwall`] | Heart Wall | Structured Grid | braided (task × data) parallelism, constant memory |
//!
//! [`suite::all_benchmarks`] returns the whole suite for the experiment
//! drivers; incrementally optimized versions (Table III) live in
//! [`srad`], [`leukocyte`], [`nw`], and [`lud`].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
// In workload code the loop index is usually also the *traced address*,
// so indexed loops are clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

// rustfmt skips the kernel modules: `repro audit` names every memory
// op site by its `file:line:column` (`#[track_caller]`), so moving a
// kernel's source lines changes the audit manifest and its digests.
#[rustfmt::skip]
pub mod backprop;
#[rustfmt::skip]
pub mod bfs;
#[rustfmt::skip]
pub mod cfd;
#[rustfmt::skip]
pub mod heartwall;
#[rustfmt::skip]
pub mod hotspot;
#[rustfmt::skip]
pub mod kmeans;
#[rustfmt::skip]
pub mod leukocyte;
#[rustfmt::skip]
pub mod lud;
#[rustfmt::skip]
pub mod mummer;
#[rustfmt::skip]
pub mod nw;
pub mod refimpl;
#[rustfmt::skip]
pub mod srad;
#[rustfmt::skip]
pub mod streamcluster;
pub mod suite;

pub use suite::{all_benchmarks, Dwarf, GpuBenchmark};
