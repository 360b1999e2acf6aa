//! `repro check` and `repro audit` run each target directly: their
//! verdicts do not depend on what the process ran before, and they
//! leave the session's trace cache and store exactly as they found
//! them.

use std::sync::Arc;

use rodinia_study::audit::run_audit;
use rodinia_study::check::run_check;
use rodinia_study::experiments::ExperimentId;
use rodinia_study::request::{execute, Quiet, StudyRequest, Verdict};
use rodinia_study::{Scale, StudySession};
use store::TraceStore;

#[test]
fn verdicts_ignore_session_history_and_leave_the_cache_alone() {
    let fresh = StudySession::sequential();
    let check_bytes = run_check(&fresh, Scale::Tiny)
        .expect("check runs")
        .body_json()
        .to_string();
    assert_eq!((fresh.cache().len(), fresh.cache().captures()), (0, 0));

    // A session whose cache and store were warmed by a tables run that
    // captures every benchmark check and audit visit, variants included.
    let dir = std::env::temp_dir().join(format!("rodinia-verdict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(TraceStore::open(&dir).expect("store opens"));
    let mut warm = StudySession::sequential();
    warm.attach_store(Arc::clone(&store));
    let tables = StudyRequest::tables(vec![ExperimentId::Table3], Scale::Tiny);
    execute(&warm, &tables, &mut Quiet).expect("tables run");
    let cache = warm.cache();
    let before = (cache.len(), cache.captures(), store.entry_count());
    assert!(before.0 > 0, "the tables run filled the cache");

    let check = run_check(&warm, Scale::Tiny).expect("check runs");
    assert_eq!(
        check.body_json().to_string(),
        check_bytes,
        "check body depends on history"
    );
    run_audit(&warm, Scale::Tiny).expect("audit runs");
    assert_eq!(
        (cache.len(), cache.captures(), store.entry_count()),
        before,
        "check/audit touched the trace cache or the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
