//! The `repro check` driver: the full suite through the sanitizer.
//!
//! For every suite benchmark (and the Table III incremental variants),
//! this runs the workload once on a fresh [`Gpu`] with the
//! [`sanitize::Analyzer`] installed as its sanitizer sink and trace
//! recording on (`sanitized_run`), so the dynamic checkers fold each
//! access as it executes and no launch's events are held, and runs the
//! access-shape lints over the recorded kernel
//! traces (merged per kernel across launches, so thresholds see
//! whole-kernel statistics). The run is direct: it neither reads nor
//! fills the session's trace cache or store, so the report never
//! depends on what the process ran before.
//!
//! Error-severity findings are contract violations — the suite must
//! report none — so the report's error count drives the process
//! exit code and the CI gate. Warnings (the lints) are advisory: the
//! paper's own Table III narrative expects the unoptimized variants to
//! trip them.
//!
//! [`FindingsReport`] is the roll-up `repro check` and `repro audit`
//! share: per-benchmark and suite error/warning counts, the rendered
//! finding lines, and the manifest section.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use datasets::Scale;
use obs::Json;
use rodinia_gpu::{leukocyte::Leukocyte, nw::Nw, srad::Srad, suite::all_benchmarks};
use sanitize::{
    error_count, findings_json, lint_trace, warning_count, Analyzer, Finding, KernelLintMetrics,
    LintConfig,
};
use simt::{Gpu, GpuConfig, KernelStats, KernelTrace, TapeSink};

use crate::engine::StudySession;
use crate::error::StudyError;
use crate::report::Table;
use crate::request::Verdict;

/// One benchmark's entry in a findings verdict (`repro check` or
/// `repro audit`).
pub trait BenchFindings {
    /// Display name (`BP`, `SRAD v1`, ...).
    fn name(&self) -> &str;
    /// The benchmark's findings, coalesced and ordered.
    fn findings(&self) -> &[Finding];

    /// Error-severity findings for this benchmark.
    fn errors(&self) -> usize {
        error_count(self.findings())
    }

    /// Warning-severity findings for this benchmark.
    fn warnings(&self) -> usize {
        warning_count(self.findings())
    }
}

/// A suite-wide findings verdict: [`CheckReport`] and
/// [`AuditReport`](crate::audit::AuditReport).
#[derive(Debug)]
pub struct FindingsReport<B> {
    /// Scale the suite ran at.
    pub scale: Scale,
    /// Per-benchmark verdicts, suite order then variants.
    pub benches: Vec<B>,
}

impl<B: BenchFindings> FindingsReport<B> {
    /// Total error-severity findings (drives the exit code).
    pub fn error_count(&self) -> usize {
        self.benches.iter().map(B::errors).sum()
    }

    /// Total warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.benches.iter().map(B::warnings).sum()
    }

    /// Every finding as a rendered text line, grouped by benchmark.
    pub fn finding_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for b in &self.benches {
            for line in sanitize::render_findings(b.findings()) {
                out.push(format!("{}: {line}", b.name()));
            }
        }
        out
    }

    /// The finding lines followed by the `verb: N error(s), M
    /// warning(s)` totals line.
    pub(crate) fn console_lines_with(&self, verb: &str) -> Vec<String> {
        let mut out = self.finding_lines();
        out.push(format!(
            "{verb}: {} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// The summary table: one row per benchmark, its name, then
    /// `cells` under `columns`, then its error and warning counts.
    pub(crate) fn summary_table_with(
        &self,
        title: &str,
        columns: &[&str],
        cells: impl Fn(&B) -> Vec<String>,
    ) -> Result<Table, StudyError> {
        let mut headers = vec!["Benchmark"];
        headers.extend_from_slice(columns);
        headers.extend(["Errors", "Warnings"]);
        let mut t = Table::new(&format!("{title} ({:?} scale)", self.scale), &headers);
        for b in &self.benches {
            let mut row = vec![b.name().to_string()];
            row.extend(cells(b));
            row.extend([b.errors().to_string(), b.warnings().to_string()]);
            t.push(row)?;
        }
        Ok(t)
    }

    /// A compact verdict for embedding as a manifest section:
    /// error/warning totals and per benchmark its `counts` plus its
    /// error/warning counts, without the full finding payloads.
    pub(crate) fn manifest_section_with(
        &self,
        counts: impl Fn(&B) -> Vec<(&'static str, Json)>,
    ) -> Json {
        let benches = self
            .benches
            .iter()
            .map(|b| {
                let mut pairs = counts(b);
                pairs.push(("errors", Json::u64(b.errors() as u64)));
                pairs.push(("warnings", Json::u64(b.warnings() as u64)));
                (b.name().to_string(), Json::obj(pairs))
            })
            .collect();
        Json::obj(vec![
            ("errors", Json::u64(self.error_count() as u64)),
            ("warnings", Json::u64(self.warning_count() as u64)),
            ("benchmarks", Json::Obj(benches)),
        ])
    }
}

/// The sanitizer verdict for one benchmark (or variant).
#[derive(Debug)]
pub struct BenchCheck {
    /// Display name (`BP`, `SRAD v1`, ...).
    pub name: String,
    /// Kernel launches the sanitizer observed.
    pub launches: u64,
    /// Dynamic-checker and lint findings, coalesced and ordered.
    pub findings: Vec<Finding>,
    /// Measured access-shape statistics, one per distinct kernel.
    pub metrics: Vec<KernelLintMetrics>,
}

impl BenchFindings for BenchCheck {
    fn name(&self) -> &str {
        &self.name
    }

    fn findings(&self) -> &[Finding] {
        &self.findings
    }
}

/// The full `repro check` result across the suite.
pub type CheckReport = FindingsReport<BenchCheck>;

impl Verdict for CheckReport {
    fn section(&self) -> &'static str {
        "check"
    }

    fn summary_table(&self) -> Result<Table, StudyError> {
        self.summary_table_with("Sanitizer check", &["Launches", "Kernels"], |b| {
            vec![b.launches.to_string(), b.metrics.len().to_string()]
        })
    }

    fn console_lines(&self) -> Vec<String> {
        self.console_lines_with("check")
    }

    fn error_count(&self) -> usize {
        FindingsReport::error_count(self)
    }

    /// The `check_report.json` document: `{"scale", "errors",
    /// "warnings", "benchmarks": [{"name", "launches", ...findings
    /// payload..., "metrics": [...]}]}`. Deterministic — nothing
    /// process- or wall-clock-dependent is included.
    fn body_json(&self) -> Json {
        let benches = self
            .benches
            .iter()
            .map(|b| {
                let mut pairs = vec![
                    ("name".to_string(), Json::Str(b.name.clone())),
                    ("launches".to_string(), Json::u64(b.launches)),
                ];
                if let Json::Obj(inner) = findings_json(&b.findings) {
                    pairs.extend(inner);
                }
                pairs.push((
                    "metrics".to_string(),
                    Json::Arr(b.metrics.iter().map(metrics_json).collect()),
                ));
                Json::Obj(pairs)
            })
            .collect();
        Json::obj(vec![
            ("scale", Json::Str(format!("{:?}", self.scale))),
            ("errors", Json::u64(self.error_count() as u64)),
            ("warnings", Json::u64(self.warning_count() as u64)),
            ("benchmarks", Json::Arr(benches)),
        ])
    }

    fn manifest_section(&self) -> Json {
        self.manifest_section_with(|b| vec![("launches", Json::u64(b.launches))])
    }

    /// Writes [`Verdict::body_json`] to `dir/check_report.json`
    /// (atomic, creating `dir` if needed).
    fn write(&self, dir: &Path) -> Result<PathBuf, StudyError> {
        let body = format!("{}\n", self.body_json());
        Ok(store::write_atomic(
            dir,
            "check_report.json",
            body.as_bytes(),
        )?)
    }
}

fn metrics_json(m: &KernelLintMetrics) -> Json {
    Json::obj(vec![
        ("kernel", Json::Str(m.kernel.clone())),
        ("shared_ops", Json::u64(m.shared_ops)),
        ("bank_degree_avg", Json::Num(m.bank_degree_avg)),
        ("bank_degree_max", Json::u64(u64::from(m.bank_degree_max))),
        ("global_ops", Json::u64(m.global_ops)),
        ("tex_ops", Json::u64(m.tex_ops)),
        ("coalescing_ratio", Json::Num(m.coalescing_ratio)),
        ("redundancy", Json::Num(m.redundancy)),
        (
            "distinct_segments_per_cta",
            Json::Num(m.distinct_segments_per_cta),
        ),
    ])
}

/// Concatenates the CTAs of every launch of each kernel, in first-launch
/// order, so lints see whole-kernel statistics instead of per-launch
/// fragments (NW launches one kernel per anti-diagonal; linting a
/// two-CTA fragment would duplicate findings and starve the minimums).
fn merge_traces_by_kernel(traces: Vec<Arc<KernelTrace>>) -> Vec<KernelTrace> {
    let mut merged: Vec<KernelTrace> = Vec::new();
    for t in traces {
        let t = Arc::unwrap_or_clone(t);
        match merged.iter_mut().find(|m| m.name == t.name) {
            Some(m) => m.ctas.extend(t.ctas),
            None => merged.push(t),
        }
    }
    merged
}

/// One checkable workload: a suite benchmark or an incremental variant.
/// Shared with the `repro audit` driver, which walks the same corpus.
pub(crate) struct CheckTarget {
    /// Display name in the report.
    pub(crate) label: String,
    /// Runs the workload on a device.
    pub(crate) run: Box<dyn Fn(&mut Gpu) -> KernelStats + Send + Sync>,
}

pub(crate) fn suite_targets(scale: Scale) -> Vec<CheckTarget> {
    let target =
        |label: &str, run: Box<dyn Fn(&mut Gpu) -> KernelStats + Send + Sync>| CheckTarget {
            label: label.to_string(),
            run,
        };
    let mut targets: Vec<CheckTarget> = all_benchmarks(scale)
        .into_iter()
        .map(|b| target(b.abbrev(), Box::new(move |gpu| b.run_on(gpu))))
        .collect();
    // The Table III incremental versions: the lint ground truth.
    targets.push(target(
        "SRAD v1",
        Box::new(move |gpu| Srad::v1(scale).run(gpu)),
    ));
    targets.push(target(
        "SRAD v2",
        Box::new(move |gpu| Srad::v2(scale).run(gpu)),
    ));
    targets.push(target(
        "LC v1",
        Box::new(move |gpu| Leukocyte::v1(scale).run(gpu)),
    ));
    targets.push(target(
        "LC v2",
        Box::new(move |gpu| Leukocyte::v2(scale).run(gpu)),
    ));
    targets.push(target(
        "NW naive",
        Box::new(move |gpu| Nw::naive(scale).run(gpu)),
    ));
    targets
}

/// Runs one target on a fresh [`Gpu`] with `sink` installed as its
/// sanitizer sink and returns the sink, plus the recorded traces in
/// launch order when `record_traces` is set (empty otherwise),
/// publishing into `records`.
pub(crate) fn sanitized_run<S: TapeSink>(
    cfg: &GpuConfig,
    target: &CheckTarget,
    sink: S,
    record_traces: bool,
    records: &Arc<obs::Records>,
) -> Result<(S, Vec<Arc<KernelTrace>>), StudyError> {
    let mut gpu = Gpu::try_new(cfg.clone())?;
    gpu.set_records(Arc::clone(records));
    gpu.set_trace_recording(record_traces);
    gpu.set_tape_sink(Box::new(sink));
    (target.run)(&mut gpu);
    let traces = gpu.take_recorded_traces();
    let sink = gpu
        .take_tape_sink()
        .expect("no target installs a sanitizer sink of its own");
    Ok((sink, traces))
}

/// Runs the sanitizer across the suite and the incremental variants.
///
/// Each target runs once, directly (`sanitized_run`), with the
/// checkers folding its accesses as they execute; the lints then run
/// over its traces. Jobs fan out
/// across the session's workers; the session's trace cache and store
/// are left untouched.
///
/// # Errors
///
/// [`StudyError::Sim`] if the device refuses the configuration. A
/// launch that aborts with a [`simt::SimError`] is neither an error nor
/// a finding here: the targets launch through the panicking
/// [`Gpu::launch`], so the run panics with the error's message. Only
/// the fault harness (`simt::fault::inject_sink`), which launches
/// through [`Gpu::try_launch`], turns an aborted launch into findings.
pub fn run_check(session: &StudySession, scale: Scale) -> Result<CheckReport, StudyError> {
    let cfg = GpuConfig::gpgpusim_default();
    let lint_cfg = LintConfig::default();
    let targets = suite_targets(scale);
    let benches = session.run_indexed(targets.len(), |i| {
        let target = &targets[i];
        let _span = obs::span!("check.{}", target.label);
        let (analyzer, traces) =
            sanitized_run(&cfg, target, Analyzer::new(), true, session.records())?;
        let launches = analyzer.launches();
        let mut findings = analyzer.finish();
        let mut metrics = Vec::new();
        for kernel in merge_traces_by_kernel(traces) {
            let (m, lint_findings) = lint_trace(&kernel, &lint_cfg);
            metrics.push(m);
            findings.extend(lint_findings);
        }
        Ok(BenchCheck {
            name: target.label.clone(),
            launches,
            findings,
            metrics,
        })
    })?;
    Ok(CheckReport { scale, benches })
}
