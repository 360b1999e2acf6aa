//! The session's experiment memo: a long-lived session computes each
//! `(artifact, scale)` once and the comparison corpus once per scale,
//! while every response stays byte-identical to a fresh session's.

use std::sync::Barrier;

use rodinia_study::experiments::ExperimentId;
use rodinia_study::request::{execute, Quiet, StudyRequest};
use rodinia_study::{Scale, StudySession};

fn request(ids: &[ExperimentId], jobs: usize, sim_threads: usize) -> StudyRequest {
    let mut req = StudyRequest::tables(ids.to_vec(), Scale::Tiny);
    req.jobs = Some(jobs);
    req.sim_threads = Some(sim_threads);
    req
}

fn body(session: &StudySession, req: &StudyRequest) -> Vec<u8> {
    execute(session, req, &mut Quiet)
        .unwrap_or_else(|e| panic!("{} failed: {e}", req.study_key()))
        .body_bytes()
}

/// The body a fresh single-worker session renders for `req`.
fn fresh_body(req: &StudyRequest) -> Vec<u8> {
    let mut plain = req.clone();
    plain.jobs = Some(1);
    plain.sim_threads = Some(1);
    body(&StudySession::sequential(), &plain)
}

#[test]
fn overlapping_requests_reuse_tables_and_stay_byte_identical() {
    use ExperimentId::{Fig4, Fig6, Fig7};
    let session = StudySession::new(1);
    let requests = [
        request(&[Fig4], 1, 1),
        request(&[Fig4, Fig6], 2, 2),
        request(&[Fig6, Fig7], 3, 0),
    ];
    for req in &requests {
        let served = body(&session, req);
        assert!(
            served == fresh_body(req),
            "{}: memoized body differs from a fresh session's",
            req.study_key()
        );
    }
    assert_eq!(
        session.experiments_computed(),
        3,
        "fig4, fig6, fig7 once each"
    );
    assert_eq!(
        session.experiments_reused(),
        2,
        "fig4 and fig6 came from the memo"
    );
    assert_eq!(
        session.corpora_built(),
        1,
        "one Tiny corpus for fig6 and fig7"
    );
}

#[test]
fn concurrent_overlapping_requests_compute_each_experiment_once() {
    use ExperimentId::{Fig2, Fig3, Table1, Table5};
    let session = StudySession::new(2);
    let a = request(&[Fig2, Fig3, Table1], 2, 1);
    let b = request(&[Fig3, Fig2, Table5], 1, 2);
    let start = Barrier::new(2);
    let run = |req: &StudyRequest| {
        start.wait();
        body(&session, req)
    };
    let (body_a, body_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| run(&a));
        let tb = s.spawn(|| run(&b));
        (ta.join().expect("client a"), tb.join().expect("client b"))
    });
    assert_eq!(
        session.experiments_computed(),
        4,
        "fig2, fig3, table1, table5 once each"
    );
    assert_eq!(session.experiments_reused(), 2, "the shared fig2 and fig3");
    assert_eq!(session.corpora_built(), 0, "no artifact needed the corpus");
    assert!(
        body_a == fresh_body(&a),
        "client a's body matches a fresh session's"
    );
    assert!(
        body_b == fresh_body(&b),
        "client b's body matches a fresh session's"
    );
}

#[test]
fn table3_shares_the_suite_captures_of_its_v2_rows() {
    use ExperimentId::{Fig1, Table3};
    let session = StudySession::new(2);
    body(&session, &request(&[Fig1], 2, 1));
    let suite = session.cache().captures();
    let req = request(&[Table3], 2, 1);
    let served = body(&session, &req);
    assert_eq!(
        session.cache().captures() - suite,
        2,
        "only the SRAD and Leukocyte v1 variants are new captures"
    );
    assert!(
        served == fresh_body(&req),
        "table3 differs from a fresh session's"
    );
}

#[test]
fn single_reader_captures_are_not_kept_resident() {
    use ExperimentId::{Fig5, Table3};
    let session = StudySession::new(2);
    let req = request(&[Fig5, Table3], 2, 1);
    let served = body(&session, &req);
    // The 12 default-fingerprint suite captures (Figure 5's GTX 280
    // points and Table III's v2 rows) stay; the 12 GTX 480 captures and
    // the 2 v1 variants were each read by one job and freed.
    assert_eq!(session.cache().len(), 12);
    assert_eq!(session.cache().captures(), 26);
    assert!(
        served == fresh_body(&req),
        "fig5 and table3 differ from a fresh session's"
    );
}
