//! The `repro audit` driver: symbolic access-contract verification
//! across the suite.
//!
//! Where `repro check` reports what one launch *did* (dynamic checkers
//! over a concrete tape), `repro audit` proves what every launch *must
//! do*: for each benchmark it runs the corpus at **tiny** scale on a
//! fresh device with the sanitizer sink installed (directly, like
//! `repro check`, but recording no traces; the session's trace cache
//! and store are never touched), fits an affine access contract
//! `addr = c0 + c1·lane + c2·warp + c3·block + c4·phase + c5·launch`
//! per static op site ([`sanitize::infer_contracts`], falling back to
//! interval summaries where no affine form exists), and runs the
//! integer-constraint checker ([`sanitize::check_contracts`]) proving
//! race-freedom between barrier intervals, in-bounds access, and
//! coalescing/bank-conflict degrees symbolically — for all grid
//! shapes, not just the one that ran.
//!
//! When invoked at a larger scale, the corpus additionally runs at
//! that scale and [`sanitize::compare_scales`] cross-validates the
//! tiny-grid evidence: a site whose access pattern *class* degrades
//! (affine at tiny, non-affine at scale) is flagged as scale-variant,
//! because tiny-grid proofs would not transfer to it.
//!
//! The written `AUDIT_manifest.json` (schema [`AUDIT_SCHEMA`]) carries
//! the full contract payload and proof verdicts with no wall-clock
//! state, so two independent runs are byte-identical — the CI audit
//! gate diffs exactly this file with `cmp`.

use std::path::{Path, PathBuf};

use datasets::Scale;
use obs::Json;
use sanitize::{
    check_contracts, compare_scales, contracts_json, findings_json, infer_contracts, Finding,
    Form, KernelContract,
};
use simt::GpuConfig;

use crate::check::{sanitized_capture, suite_targets, BenchFindings, FindingsReport};
use crate::engine::StudySession;
use crate::error::StudyError;
use crate::report::Table;
use crate::request::Verdict;

pub use crate::manifest::{AUDIT_FILE, AUDIT_SCHEMA};

/// The contract verdict for one benchmark (or incremental variant).
#[derive(Debug)]
pub struct BenchAudit {
    /// Display name (`BP`, `SRAD v1`, ...).
    pub name: String,
    /// Contracts fitted from the tiny-scale capture — the evidence the
    /// proofs run on.
    pub contracts: Vec<KernelContract>,
    /// Proof findings: contract violations (error severity) and
    /// non-affine caveats (warning severity), plus scale-variance
    /// findings when a verification scale ran.
    pub findings: Vec<Finding>,
}

impl BenchAudit {
    /// Total static op sites under contract.
    pub fn sites(&self) -> usize {
        self.contracts.iter().map(|k| k.sites.len()).sum()
    }

    /// Sites with a fitted affine form (the provable ones).
    pub fn affine_sites(&self) -> usize {
        self.contracts
            .iter()
            .flat_map(|k| &k.sites)
            .filter(|s| matches!(s.form, Form::Affine(_)))
            .count()
    }
}

impl BenchFindings for BenchAudit {
    fn name(&self) -> &str {
        &self.name
    }

    fn findings(&self) -> &[Finding] {
        &self.findings
    }
}

/// The full `repro audit` result across the suite. Its `scale` is the
/// scale the audit was requested at: contracts are always fitted at
/// tiny, and any larger scale adds the cross-validation pass.
pub type AuditReport = FindingsReport<BenchAudit>;

impl AuditReport {
    /// The `AUDIT_manifest.json` document: schema and scale tags,
    /// error/warning totals, and per benchmark the findings payload
    /// plus the full contract set ([`sanitize::contracts_json`]).
    /// Deterministic — nothing wall-clock-dependent is included.
    pub fn to_json(&self) -> Json {
        let benches = self
            .benches
            .iter()
            .map(|b| {
                let mut pairs = vec![("name".to_string(), Json::Str(b.name.clone()))];
                if let Json::Obj(inner) = findings_json(&b.findings) {
                    pairs.extend(inner);
                }
                pairs.push(("contracts".to_string(), contracts_json(&b.contracts)));
                Json::Obj(pairs)
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::from(AUDIT_SCHEMA)),
            ("scale", Json::from(crate::manifest::scale_str(self.scale))),
            ("errors", Json::u64(self.error_count() as u64)),
            ("warnings", Json::u64(self.warning_count() as u64)),
            ("benchmarks", Json::Arr(benches)),
        ])
    }
}

impl Verdict for AuditReport {
    fn section(&self) -> &'static str {
        "audit"
    }

    fn summary_table(&self) -> Result<Table, StudyError> {
        self.summary_table_with(
            "Access-contract audit",
            &["Kernels", "Sites", "Affine"],
            |b| {
                vec![
                    b.contracts.len().to_string(),
                    b.sites().to_string(),
                    b.affine_sites().to_string(),
                ]
            },
        )
    }

    fn console_lines(&self) -> Vec<String> {
        self.console_lines_with("audit")
    }

    fn error_count(&self) -> usize {
        FindingsReport::error_count(self)
    }

    fn body_json(&self) -> Json {
        self.to_json()
    }

    /// Per benchmark its site and affine-site counts, without the
    /// full contract payloads.
    fn manifest_section(&self) -> Json {
        self.manifest_section_with(|b| {
            vec![
                ("sites", Json::u64(b.sites() as u64)),
                ("affine", Json::u64(b.affine_sites() as u64)),
            ]
        })
    }

    /// Writes the manifest to `dir/AUDIT_manifest.json` through the
    /// [`ManifestKind`](crate::manifest::ManifestKind) registry
    /// (atomic, creating `dir` if needed).
    fn write(&self, dir: &Path) -> Result<PathBuf, StudyError> {
        crate::manifest::write_manifest(dir, crate::manifest::ManifestKind::Audit, &self.to_json())
    }
}

/// Runs the access-contract audit across the suite and the incremental
/// variants.
///
/// The corpus always runs at [`Scale::Tiny`] — the pigeonhole set
/// the affine fitter needs is small, and the proofs extrapolate
/// symbolically. When `scale` is larger, the corpus also runs at
/// `scale` and each benchmark's contracts are cross-validated for
/// pattern-class stability. Every run is direct
/// (`sanitized_capture`, no trace recording), so the session's trace
/// cache and store are left untouched. Jobs fan out across the
/// session's workers.
///
/// # Errors
///
/// [`StudyError::Sim`] if a run itself fails — a *failed launch*
/// is not an error here (its partial tape is still evidence), but a
/// refused configuration is.
pub fn run_audit(session: &StudySession, scale: Scale) -> Result<AuditReport, StudyError> {
    let cfg = GpuConfig::gpgpusim_default();
    let tiny_targets = suite_targets(Scale::Tiny);
    let verify_targets = (scale != Scale::Tiny).then(|| suite_targets(scale));
    let benches = session.run_indexed(tiny_targets.len(), |i| {
        let target = &tiny_targets[i];
        let _span = obs::span!("audit.{}", target.label);
        let (tapes, _) = sanitized_capture(&cfg, target, false)?;
        let contracts = infer_contracts(&tapes, cfg.shared_banks, cfg.segment_bytes);
        let mut findings = check_contracts(&contracts);
        if let Some(targets) = &verify_targets {
            let (tapes, _) = sanitized_capture(&cfg, &targets[i], false)?;
            let verify = infer_contracts(&tapes, cfg.shared_banks, cfg.segment_bytes);
            findings.extend(compare_scales(&contracts, &verify));
        }
        Ok(BenchAudit {
            name: target.label.clone(),
            contracts,
            findings,
        })
    })?;
    Ok(AuditReport { scale, benches })
}
