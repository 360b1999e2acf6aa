//! # rodinia-study — experiment drivers for every table and figure
//!
//! This crate is the paper: each function in [`experiments`] regenerates
//! one table or figure of *"A Characterization of the Rodinia Benchmark
//! Suite with Comparison to Contemporary CMP Workloads"* (IISWC 2010)
//! on top of the substrates in this workspace:
//!
//! | Paper artifact | Module | Entry point |
//! |----------------|--------|-------------|
//! | Table I (suite) | [`suite`] | [`suite::rodinia_table`] |
//! | Table II (GPGPU-Sim config) | — | [`simt::GpuConfig::gpgpusim_default`] |
//! | Fig. 1 (IPC, 8 vs 28 SMs) | [`characterization`] | [`characterization::ipc_scaling`] |
//! | Fig. 2 (memory mix) | [`characterization`] | [`characterization::memory_mix`] |
//! | Fig. 3 (warp occupancy) | [`characterization`] | [`characterization::warp_occupancy`] |
//! | Fig. 4 (channel sweep) | [`characterization`] | [`characterization::channel_sweep`] |
//! | Table III (incremental versions) | [`characterization`] | [`characterization::incremental_versions`] |
//! | Fig. 5 (Fermi configurations) | [`characterization`] | [`characterization::fermi_study`] |
//! | §III.E (Plackett–Burman) | [`sensitivity`] | [`sensitivity::run`] |
//! | Table IV (suite comparison) | [`suite`] | [`suite::comparison_table`] |
//! | Table V (Parsec catalog) | — | [`parsec_lite::catalog()`] |
//! | Fig. 6 (dendrogram) | [`comparison`] | [`comparison::ComparisonStudy::dendrogram`] |
//! | Fig. 7–9 (PCA scatters) | [`comparison`] | [`comparison::ComparisonStudy`] |
//! | Fig. 10 (4 MB miss rates) | [`comparison`] | [`comparison::ComparisonStudy::miss_rates_4mb`] |
//! | Fig. 11–12 (footprints) | [`footprints`] | [`footprints::footprint_study`] |
//!
//! Everything prints through [`report::Table`], which renders aligned
//! text and CSV.
//!
//! Every driver returns `Result<_, `[`error::StudyError`]`>`, which
//! unifies `simt::SimError` and `analysis::AnalysisError` with the
//! drivers' own failure modes; there are no panicking wrappers.
//!
//! Drivers take a [`engine::StudySession`]: a worker pool
//! (`repro --jobs N`) plus two shared trace caches — a
//! [`trace_cache::TraceCache`] that captures each GPU benchmark's warp
//! trace exactly once and replays it under every requested machine
//! configuration, and a [`trace_cache::CpuTraceCache`] that captures
//! each CPU workload's memory trace exactly once and replays it at
//! every shared-cache capacity. On top of the captures, the session
//! memoizes the profiled comparison corpus per scale and each
//! artifact's finished tables per `(artifact, scale)`, so a
//! long-running session computes every artifact once. Results are
//! reassembled in submission order, so tables are byte-identical for
//! any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analyze;
pub mod audit;
pub mod characterization;
pub mod check;
pub mod comparison;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod features;
pub mod footprints;
pub mod manifest;
mod once_map;
pub mod report;
pub mod request;
pub mod sensitivity;
pub mod serve;
pub mod suite;
pub mod trace_cache;

pub use datasets::Scale;
pub use engine::StudySession;
pub use error::StudyError;
