//! Concurrency guarantees of `obs` under contention.
//!
//! The parallel study engine (`rodinia-study::StudySession`) emits spans,
//! counters, and records from every worker thread at once, so the global
//! registry and a session's bounded record buffer must stay exact under
//! contention: counter totals are never lost, per-thread span stacks
//! never interleave, and the record buffer drops *only* past its
//! documented bound ([`obs::MAX_RECORDS`]) with an exact dropped count.

use std::sync::atomic::{AtomicUsize, Ordering};

use obs::{Json, Records, Registry, MAX_RECORDS};

#[test]
fn concurrent_spans_and_counters_are_exact() {
    const THREADS: usize = 8;
    const ITERS: usize = 500;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..ITERS {
                    // Per-thread counter: exactly ITERS increments survive.
                    Registry::global().add(&format!("conc-test.counter.{t}"), 1);
                    // Shared counter: all THREADS*ITERS increments survive.
                    Registry::global().add("conc-test.shared", 1);
                    let _outer = obs::span!("conc-test.span.{t}");
                    // The span stack is per-thread: no other worker's
                    // spans ever appear in this thread's path.
                    assert_eq!(obs::span_depth(), 1);
                    assert_eq!(obs::span_path(), format!("conc-test.span.{t}"));
                    if i % 7 == 0 {
                        let _inner = obs::span!("conc-test.inner.{t}");
                        assert_eq!(obs::span_depth(), 2);
                    }
                }
            });
        }
    });

    for t in 0..THREADS {
        assert_eq!(
            Registry::global().counter(&format!("conc-test.counter.{t}")),
            ITERS as u64,
            "thread {t} lost counter increments"
        );
        let stat = Registry::global()
            .span_stat(&format!("conc-test.span.{t}"))
            .expect("every thread's spans were folded in");
        assert_eq!(stat.count, ITERS as u64, "thread {t} lost span closes");
    }
    assert_eq!(
        Registry::global().counter("conc-test.shared"),
        (THREADS * ITERS) as u64,
        "contended shared counter lost increments"
    );
}

#[test]
fn record_buffer_bounds_and_dropped_count_are_exact() {
    let records = Records::default();
    const THREADS: usize = 4;
    // Overshoot the bound so every thread sees the buffer fill up.
    let per_thread = MAX_RECORDS / THREADS + 2_000;
    let total = THREADS * per_thread;
    let published = AtomicUsize::new(0);

    records.set_recording(true);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (published, records) = (&published, &records);
            s.spawn(move || {
                for i in 0..per_thread {
                    records.record_with("conc-test", || {
                        Json::obj(vec![
                            ("thread", Json::u64(t as u64)),
                            ("seq", Json::u64(i as u64)),
                        ])
                    });
                    published.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    records.set_recording(false);

    assert_eq!(published.load(Ordering::Relaxed), total);
    let (drained, dropped) = records.drain();
    // The documented drop policy: the buffer never exceeds MAX_RECORDS,
    // and every record past the bound is counted — none vanish silently.
    assert_eq!(
        drained.len(),
        MAX_RECORDS,
        "buffer must fill to its bound exactly"
    );
    assert_eq!(
        dropped,
        (total - MAX_RECORDS) as u64,
        "every record past the bound must be counted as dropped"
    );
    assert!(drained.iter().all(|r| r.kind == "conc-test"));

    // Drained: the next drain starts empty with a zero dropped count.
    let (rest, dropped_rest) = records.drain();
    assert!(rest.is_empty());
    assert_eq!(dropped_rest, 0);
}
