//! Suite-level contract-audit regression: `repro audit` proves the
//! whole corpus free of error findings from tiny-grid evidence, every
//! benchmark contributes affine sites for the proofs to run on, and the
//! manifest is byte-deterministic.
//!
//! This is the static counterpart of `sanitizer_suite.rs`: where that
//! test pins what one concrete launch *did*, this one pins what the
//! inferred contracts prove about *every* launch shape.

use rodinia_study::audit::{run_audit, AuditReport};
use rodinia_study::{Scale, StudySession};
use sanitize::FindingKind;

#[test]
fn corpus_contracts_prove_clean_and_manifest_is_deterministic() {
    let session = StudySession::sequential();
    let report = run_audit(&session, Scale::Tiny).expect("audit runs");

    // Contract: no provable race or bounds violation anywhere in the
    // suite or its incremental variants.
    assert_eq!(
        report.error_count(),
        0,
        "contract errors in a clean suite:\n{}",
        report.finding_lines().join("\n")
    );

    // Every benchmark must yield evidence (sites under contract), and
    // most of the suite must fit affine forms — a corpus that silently
    // degraded to all-interval summaries would gut the proofs while
    // still reporting zero errors. (Individual benchmarks may be fully
    // non-affine: hotspot's clamped stencil fits no affine form.)
    for b in &report.benches {
        assert!(b.sites() > 0, "{}: no sites under contract", b.name);
    }
    let (affine, sites) = report
        .benches
        .iter()
        .fold((0, 0), |(a, s), b| (a + b.affine_sites(), s + b.sites()));
    assert!(
        affine >= 40,
        "affine coverage collapsed: {affine}/{sites} sites (55/218 at pinning)"
    );

    // The non-affine caveats are the known data-dependent sites
    // (BFS/B+tree traversals, clipped stencils); they must stay
    // warnings, never errors.
    assert!(report
        .benches
        .iter()
        .flat_map(|b| &b.findings)
        .all(|f| f.kind == FindingKind::NonAffineAccess));

    // Two renders of the same report are byte-identical, and a second
    // independent run in the same session reproduces them exactly —
    // the property the CI audit gate `cmp`s.
    let once = format!("{}", report.to_json());
    assert_eq!(once, format!("{}", report.to_json()));
    let again = run_audit(&session, Scale::Tiny).expect("audit reruns");
    assert_eq!(once, format!("{}", again.to_json()));
    assert!(matches!(
        again,
        AuditReport {
            scale: Scale::Tiny,
            ..
        }
    ));
}

#[test]
fn audit_reports_retain_no_samples_at_any_jobs() {
    // The retained fit samples are the race-witness evidence and are
    // freed once the proofs have run: a report kept for rendering holds
    // only the fitted summaries. Freeing them must not change a finding,
    // whichever worker count ran the audit.
    let serial = run_audit(&StudySession::sequential(), Scale::Tiny).expect("audit runs");
    let parallel = run_audit(&StudySession::new(2), Scale::Tiny).expect("audit runs");
    for report in [&serial, &parallel] {
        for b in &report.benches {
            for site in b.contracts.iter().flat_map(|k| &k.sites) {
                assert!(
                    site.samples.is_empty(),
                    "{}: {} @ {} keeps {} samples",
                    b.name,
                    site.buf,
                    site.site,
                    site.samples.len()
                );
            }
        }
    }
    assert_eq!(serial.benches.len(), parallel.benches.len());
    for (s, p) in serial.benches.iter().zip(&parallel.benches) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.findings, p.findings, "{}", s.name);
    }
}
