//! Suite-level sanitizer regression: `repro check` stays clean, and the
//! Table III incremental versions keep their pinned lint verdicts.
//!
//! The pins are the ground truth the lint thresholds were calibrated
//! against: each *unoptimized* variant trips exactly the lint its
//! optimization removes, and the optimized counterpart stays below it.
//! NW's tiled kernel keeps its 16-way bank conflicts by design (the
//! paper notes the padding fix was left out), so it pins a
//! [`FindingKind::BankConflict`] warning instead of staying silent.

use rodinia_study::check::{run_check, BenchCheck, CheckReport};
use rodinia_study::{Scale, StudySession};
use sanitize::FindingKind;

fn bench<'a>(report: &'a CheckReport, name: &str) -> &'a BenchCheck {
    report
        .benches
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no bench {name:?} in report"))
}

fn has(b: &BenchCheck, kind: FindingKind) -> bool {
    b.findings.iter().any(|f| f.kind == kind)
}

#[test]
fn suite_is_clean_and_lint_verdicts_are_pinned() {
    let session = StudySession::sequential();
    let report = run_check(&session, Scale::Tiny).expect("check runs");

    // Contract: the whole suite (and every variant) is free of
    // error-severity findings — races, barrier divergence, OOB,
    // read-before-write.
    assert_eq!(
        report.error_count(),
        0,
        "error findings in a clean suite:\n{}",
        report.finding_lines().join("\n")
    );

    // SRAD: v1 re-fetches each CTA's tile from global memory, v2 stages
    // it in shared memory.
    assert!(has(bench(&report, "SRAD v1"), FindingKind::RedundantGlobal));
    assert!(!has(
        bench(&report, "SRAD v2"),
        FindingKind::RedundantGlobal
    ));

    // Leukocyte: v1 re-fetches the GICOV matrix through the texture
    // cache, v2 fuses and stages.
    assert!(has(bench(&report, "LC v1"), FindingKind::RedundantGlobal));
    assert!(!has(bench(&report, "LC v2"), FindingKind::RedundantGlobal));

    // Needleman-Wunsch: the naive kernel reads one cell per lane from a
    // different row (uncoalesced); the tiled kernel coalesces but keeps
    // its by-design bank conflicts.
    assert!(has(
        bench(&report, "NW naive"),
        FindingKind::UncoalescedGlobal
    ));
    let tiled = bench(&report, "NW");
    assert!(!has(tiled, FindingKind::UncoalescedGlobal));
    assert!(has(tiled, FindingKind::BankConflict));
}
