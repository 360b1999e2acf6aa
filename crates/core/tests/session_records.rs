//! A session owns its replay width and its `kernel_stats` records: two
//! sessions running at once, at different `sim_threads`, each collect
//! exactly the records the same requests publish in a session of their
//! own, byte for byte and in the same order.

use std::sync::Barrier;

use rodinia_study::experiments::ExperimentId;
use rodinia_study::request::{execute, Quiet, StudyCommand, StudyRequest};
use rodinia_study::{Scale, StudySession};

/// Requests covering every GPU run a session starts: suite captures and
/// their replays (Figures 1 and 4), captures of the Table III variants,
/// and the direct sanitized runs of `check`.
fn requests(sim_threads: usize) -> Vec<StudyRequest> {
    use ExperimentId::{Fig1, Fig4, Table3};
    let mut tables = StudyRequest::tables(vec![Fig1, Fig4, Table3], Scale::Tiny);
    let mut check = StudyRequest::tables(Vec::new(), Scale::Tiny);
    check.command = StudyCommand::Check;
    for req in [&mut tables, &mut check] {
        req.jobs = Some(1);
        req.sim_threads = Some(sim_threads);
    }
    vec![tables, check]
}

/// Runs each request on `session` with recording on and returns, per
/// request, the drained records serialized as JSON.
fn records_of(session: &StudySession, reqs: &[StudyRequest]) -> Vec<Vec<String>> {
    session.records().set_recording(true);
    reqs.iter()
        .map(|req| {
            execute(session, req, &mut Quiet)
                .unwrap_or_else(|e| panic!("{:?} failed: {e}", req.command));
            let (records, dropped) = session.records().drain();
            assert_eq!(dropped, 0);
            records
                .iter()
                .map(|r| format!("{} {}", r.kind, r.value))
                .collect()
        })
        .collect()
}

#[test]
fn concurrent_sessions_collect_only_their_own_records() {
    let alone = records_of(&StudySession::sequential(), &requests(1));
    assert!(
        alone.iter().all(|r| !r.is_empty()),
        "every request publishes records"
    );
    let start = Barrier::new(2);
    let (narrow, wide) = std::thread::scope(|s| {
        let run = |sim_threads: usize| {
            let start = &start;
            s.spawn(move || {
                let session = StudySession::sequential();
                start.wait();
                let got = records_of(&session, &requests(sim_threads));
                assert_eq!(session.sim_threads(), sim_threads, "width kept");
                got
            })
        };
        let (narrow, wide) = (run(1), run(4));
        (
            narrow.join().expect("width-1 session"),
            wide.join().expect("width-4 session"),
        )
    });
    assert_eq!(narrow, alone, "the width-1 session's records");
    assert_eq!(wide, alone, "the width-4 session's records");
}
