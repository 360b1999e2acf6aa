//! Compute-sanitizer-style analysis for the simt simulator.
//!
//! The simulator already *captures* everything a sanitizer needs: the
//! trace path resolves every per-lane address against real allocation
//! extents, and every barrier collects explicit per-warp votes. This
//! crate consumes that record — the sanitizer events a [`simt::Gpu`]
//! streams to its [`simt::TapeSink`] as each launch executes, plus
//! captured [`simt::KernelTrace`]s — and reports typed [`Finding`]s:
//!
//! * **Dynamic checkers** ([`dynamic`], error severity): shared-memory
//!   races, barrier divergence, out-of-bounds accesses, and
//!   read-before-write of uninitialized shared/global memory.
//! * **Static lints** ([`lint`], warning severity): bank-conflict-prone
//!   shared strides, uncoalesced per-warp global shapes, and redundant
//!   per-CTA global traffic — the three anti-patterns the paper's
//!   incremental SRAD/Leukocyte/Needleman-Wunsch versions remove.
//! * **Access contracts** ([`contract`]): one affine form per static op
//!   site, fitted by [`ContractFitter`] from the same events.
//! * **Determinism lint** ([`determinism`], warning severity): a source
//!   scan for `HashMap`/`HashSet` iteration feeding rendered output.
//!
//! [`classify`] maps the [`simt::fault`] saboteur classes onto finding
//! kinds so the fault harness doubles as a true-positive corpus, and
//! [`report`] renders findings as text or as the `repro check --json`
//! schema.
//!
//! Typical wiring (what `repro check` does): the [`Analyzer`] folds each
//! access as it happens, so no launch's events are held.
//!
//! ```
//! use simt::{Gpu, GpuConfig};
//!
//! let mut gpu = Gpu::try_new(GpuConfig::default()).unwrap();
//! gpu.set_tape_sink(Box::new(sanitize::Analyzer::new()));
//! // ... launch kernels ...
//! let analyzer: sanitize::Analyzer = gpu.take_tape_sink().unwrap();
//! let findings = analyzer.finish();
//! assert!(findings.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod classify;
pub mod contract;
pub mod determinism;
pub mod dynamic;
pub mod finding;
pub mod lint;
pub mod report;

pub use classify::{classify_findings, expected_kind};
pub use contract::{
    check_contracts, compare_scales, contracts_json, fit_affine, Affine, ContractFitter, Form,
    KernelContract, Sample, SiteContract,
};
pub use determinism::{scan_source, scan_tree, workspace_members};
pub use dynamic::Analyzer;
pub use finding::{error_count, warning_count, Finding, FindingKind, Severity};
pub use lint::{lint_trace, measure_trace, KernelLintMetrics, LintConfig};
pub use report::{finding_json, findings_json, render_findings};
