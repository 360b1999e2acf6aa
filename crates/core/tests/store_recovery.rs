//! Study-level proof of the robustness tentpole: a persistent store
//! accelerates studies but can never change them. Every injected fault
//! class ends in detect → quarantine → recapture with tables
//! byte-identical to an in-memory run, and checkpoint journals resume
//! a sweep without recomputing (or re-capturing) anything.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use datasets::Scale;
use rodinia_study::sensitivity;
use rodinia_study::trace_cache::{
    CaptureFingerprint, CapturedRun, CpuCaptureFingerprint, CpuTraceCache, CpuTraceKey,
    TraceCache, TraceKey,
};
use rodinia_study::{suite, StudySession};
use simt::GpuConfig;
use store::{inject, StoreFault, TraceStore};
use tracekit::{CpuCapture, ProfileConfig};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rodinia-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Renders the HS Plackett–Burman study to its two result tables.
fn pb_tables(session: &StudySession) -> String {
    let study = sensitivity::run(session, Scale::Tiny, Some(&["HS"])).expect("pb study runs");
    format!(
        "{}\n{}",
        study.to_table().expect("per-benchmark table"),
        study.aggregate_table().expect("aggregate table")
    )
}

/// The store key the PB study's HS capture lands under.
fn hs_store_key() -> String {
    TraceKey {
        benchmark: "HS".to_string(),
        scale: Scale::Tiny,
        variant: "",
        fingerprint: CaptureFingerprint::of(&GpuConfig::gpgpusim_default()),
    }
    .store_key()
}

#[test]
fn every_fault_class_recovers_to_byte_identical_tables() {
    let reference = pb_tables(&StudySession::sequential());
    for fault in StoreFault::ALL {
        let dir = test_dir(&format!("fault-{fault:?}"));
        let store = Arc::new(TraceStore::open(&dir).expect("open store"));

        // Warm run: populates the store (and the sweep journal).
        let mut warm = StudySession::sequential();
        warm.attach_store(Arc::clone(&store));
        assert_eq!(pb_tables(&warm), reference, "{fault:?}: warm run");
        assert!(store.contains(&hs_store_key()), "{fault:?}: capture persisted");

        // Drop the sweep journal so the next run actually re-reads the
        // (about to be damaged) entry instead of restoring responses.
        let _ = fs::remove_dir_all(dir.join("journals"));
        inject(&store, &hs_store_key(), fault).expect("inject");

        // Recovery run over the damaged store: same tables, no panic.
        let mut cold = StudySession::sequential();
        cold.attach_store(Arc::clone(&store));
        assert_eq!(pb_tables(&cold), reference, "{fault:?}: recovery run");
        if fault != StoreFault::TransientIo {
            assert!(
                store.quarantined_count() >= 1,
                "{fault:?}: damaged entry was quarantined, not deleted"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn sweep_journal_resume_skips_every_capture() {
    let dir = test_dir("resume");
    let store = Arc::new(TraceStore::open(&dir).expect("open store"));

    let mut first = StudySession::sequential();
    first.attach_store(Arc::clone(&store));
    let reference = pb_tables(&first);
    assert!(!first.cache().is_empty(), "first run captured");

    // Second session, same store: every response restores from the
    // journal, so the trace cache is never even consulted.
    let mut resumed = StudySession::sequential();
    resumed.attach_store(Arc::clone(&store));
    assert_eq!(pb_tables(&resumed), reference, "resumed tables are identical");
    assert!(
        resumed.cache().is_empty(),
        "journal restore avoided every capture"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_store_without_journal_restores_every_capture() {
    let reference = pb_tables(&StudySession::sequential());
    let dir = test_dir("warm");
    let store = Arc::new(TraceStore::open(&dir).expect("open store"));

    let mut first = StudySession::sequential();
    first.attach_store(Arc::clone(&store));
    assert_eq!(pb_tables(&first), reference, "populating run");

    // Without the sweep journal the next session cannot restore whole
    // responses, so it takes the entry-restore path and replays.
    let _ = fs::remove_dir_all(dir.join("journals"));
    let mut warm = StudySession::sequential();
    warm.attach_store(Arc::clone(&store));
    assert_eq!(pb_tables(&warm), reference, "store-warm tables are identical");
    assert_eq!(warm.cache().captures(), 0, "warm run captured nothing");
    assert!(warm.cache().restores() > 0, "warm run restored from the store");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gpu_capture_restores_from_store_without_rerunning() {
    let dir = test_dir("gpu-restore");
    let store = Arc::new(TraceStore::open(&dir).expect("open store"));
    let cfg = GpuConfig::gpgpusim_default();

    let mut warm = StudySession::sequential();
    warm.attach_store(Arc::clone(&store));
    let benches = rodinia_gpu::suite::all_benchmarks(Scale::Tiny);
    let hs = benches
        .iter()
        .find(|b| b.abbrev() == "HS")
        .expect("HS in suite");
    let original = warm
        .cache()
        .capture_benchmark(hs.as_ref(), Scale::Tiny, &cfg)
        .expect("warm capture");

    // A fresh session (simulating a new process) must satisfy the same
    // request purely from the store: the run closure diverges if called.
    let mut cold = StudySession::sequential();
    cold.attach_store(Arc::clone(&store));
    let restored = cold
        .cache()
        .capture_fn("HS", Scale::Tiny, "", &cfg, |_| {
            unreachable!("a verified store entry must preempt recapture")
        })
        .expect("restore");
    assert_eq!(restored.baseline.cycles, original.baseline.cycles);
    assert_eq!(
        restored.baseline.thread_instructions,
        original.baseline.thread_instructions
    );
    assert_eq!(restored.h2d_bytes, original.h2d_bytes);
    assert_eq!(restored.d2h_bytes, original.d2h_bytes);
    assert_eq!(restored.traces.len(), original.traces.len());
    // And the restored capture replays identically on another machine.
    let alt = GpuConfig::gpgpusim_8sm();
    let (r, o) = (
        restored.replay(&alt).expect("replay restored"),
        original.replay(&alt).expect("replay original"),
    );
    assert_eq!(r.cycles, o.cycles);
    assert_eq!(r.thread_instructions, o.thread_instructions);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cpu_capture_persists_and_recovers_from_damage() {
    let dir = test_dir("cpu");
    let store = Arc::new(TraceStore::open(&dir).expect("open store"));
    let cfg = ProfileConfig::default();
    let ws = suite::combined_workloads(Scale::Tiny);
    let lw = &ws[0];
    let key = CpuTraceKey {
        workload: lw.label.clone(),
        scale: Scale::Tiny,
        fingerprint: CpuCaptureFingerprint::of(&cfg),
    }
    .store_key();

    let warm = CpuTraceCache::new();
    warm.set_store(Arc::clone(&store));
    let original = warm
        .capture_workload(&lw.label, lw.workload.as_ref(), Scale::Tiny, &cfg)
        .expect("warm capture");
    assert!(store.contains(&key), "cpu capture persisted");

    // Fresh cache restores from the store and replays identically.
    let cold = CpuTraceCache::new();
    cold.set_store(Arc::clone(&store));
    let restored = cold
        .capture_workload(&lw.label, lw.workload.as_ref(), Scale::Tiny, &cfg)
        .expect("restore");
    let sizes = &cfg.cache_sizes;
    assert_eq!(
        restored.replay_all(sizes).expect("replay restored"),
        original.replay_all(sizes).expect("replay original")
    );

    // Damage the entry: the next fresh cache quarantines + recaptures.
    inject(&store, &key, StoreFault::BitFlip).expect("inject");
    let recovered = CpuTraceCache::new();
    recovered.set_store(Arc::clone(&store));
    let recaptured = recovered
        .capture_workload(&lw.label, lw.workload.as_ref(), Scale::Tiny, &cfg)
        .expect("recapture");
    assert_eq!(
        recaptured.replay_all(sizes).expect("replay recaptured"),
        original.replay_all(sizes).expect("replay original")
    );
    assert!(store.quarantined_count() >= 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A fresh store holding `payload` as a framing-valid entry for `key`:
/// only the capture codec or the semantic checks can reject it.
fn store_holding(case: &str, key: &str, payload: &[u8]) -> (PathBuf, Arc<TraceStore>) {
    let dir = test_dir(&format!("semantic-{case}"));
    let store = Arc::new(TraceStore::open(&dir).expect("open store"));
    store.save(key, payload).expect("save");
    assert!(store.load(key).is_some(), "{case}: the framing verifies");
    (dir, store)
}

#[test]
fn rejected_gpu_payloads_are_quarantined_and_recaptured() {
    let cfg = GpuConfig::gpgpusim_default();
    let benches = rodinia_gpu::suite::all_benchmarks(Scale::Tiny);
    let hs = benches
        .iter()
        .find(|b| b.abbrev() == "HS")
        .expect("HS in suite")
        .as_ref();
    let summary = |run: &CapturedRun| {
        let payload = simt::encode_capture_payload(&run.traces, run.h2d_bytes, run.d2h_bytes);
        (payload, format!("{:?}", run.baseline))
    };
    let fresh = TraceCache::new()
        .capture_benchmark(hs, Scale::Tiny, &cfg)
        .expect("fresh capture");
    for (case, payload) in [
        ("gpu-undecodable", b"not a capture payload".to_vec()),
        ("gpu-no-launches", simt::encode_capture_payload(&[], 0, 0)),
    ] {
        let (dir, store) = store_holding(case, &hs_store_key(), &payload);
        let cache = TraceCache::new();
        cache.set_store(Arc::clone(&store));
        let got = cache
            .capture_benchmark(hs, Scale::Tiny, &cfg)
            .expect("recapture");
        assert_eq!(store.quarantined_count(), 1, "{case}: quarantined");
        assert_eq!((cache.restores(), cache.captures()), (0, 1), "{case}: recaptured");
        assert_eq!(summary(&got), summary(&fresh), "{case}: equals a fresh capture");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn rejected_cpu_payloads_are_quarantined_and_recaptured() {
    let cfg = ProfileConfig::default();
    let ws = suite::combined_workloads(Scale::Tiny);
    let lw = &ws[0];
    let key = CpuTraceKey {
        workload: lw.label.clone(),
        scale: Scale::Tiny,
        fingerprint: CpuCaptureFingerprint::of(&cfg),
    }
    .store_key();
    let fresh = CpuTraceCache::new()
        .capture_workload(&lw.label, lw.workload.as_ref(), Scale::Tiny, &cfg)
        .expect("fresh capture");
    let regeometried = |ways: usize, line: u64| {
        let words = fresh.packed_words().to_vec();
        tracekit::encode_capture(&CpuCapture::from_parts(fresh.base().clone(), words, ways, line))
    };
    for (case, payload) in [
        ("cpu-undecodable", b"not a capture payload".to_vec()),
        ("cpu-other-ways", regeometried(fresh.ways() * 2, fresh.line())),
        ("cpu-other-line", regeometried(fresh.ways(), fresh.line() * 2)),
    ] {
        let (dir, store) = store_holding(case, &key, &payload);
        let cache = CpuTraceCache::new();
        cache.set_store(Arc::clone(&store));
        let got = cache
            .capture_workload(&lw.label, lw.workload.as_ref(), Scale::Tiny, &cfg)
            .expect("recapture");
        assert_eq!(store.quarantined_count(), 1, "{case}: quarantined");
        assert_eq!((cache.restores(), cache.captures()), (0, 1), "{case}: recaptured");
        assert_eq!(
            tracekit::encode_capture(&got),
            tracekit::encode_capture(&fresh),
            "{case}: equals a fresh capture"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn unwritable_store_never_reaches_a_session() {
    // `TraceStore::open` on a file path fails up front (the repro
    // binary downgrades to in-memory caching on that signal); a session
    // without a store runs the study normally.
    let dir = test_dir("unwritable");
    fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("occupied");
    fs::write(&file, b"x").expect("write");
    assert!(TraceStore::open(&file).is_err());
    let session = StudySession::sequential();
    assert!(session.store().is_none());
    let _ = pb_tables(&session);
    let _ = fs::remove_dir_all(&dir);
}
