//! Exhaustive store-level fault-class test: for **every**
//! [`StoreFault`], a damaged entry is detected (never loaded), the
//! store recovers by re-saving, and the process never panics. The
//! study-table-level half (recapture produces correct tables) lives in
//! `crates/core/tests/store_recovery.rs`.

use std::fs;
use std::path::PathBuf;

use store::{inject, StoreFault, TraceStore};

fn fresh_store(name: &str) -> (TraceStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "rodinia-fault-classes-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    (TraceStore::open(&dir).expect("open store"), dir)
}

#[test]
fn every_fault_class_is_detected_and_recovered() {
    let payload: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
    for fault in StoreFault::ALL {
        let (store, dir) = fresh_store(&format!("{fault:?}"));
        let key = "gpu/v1/BFS/Small/-/w32b16s64";
        store.save(key, &payload).expect("initial save");
        assert_eq!(store.load(key).as_deref(), Some(payload.as_slice()));

        inject(&store, key, fault).expect("inject");

        // Detection: the damaged entry must never come back as data.
        let loaded = store.load(key);
        assert_eq!(loaded, None, "{fault:?}: damaged entry must not load");

        // Filesystem-shaped damage is quarantined, not deleted; the
        // transient class leaves the (intact) entry in place.
        if fault == StoreFault::TransientIo {
            store.inject_transient_failures(0);
            assert!(store.contains(key), "{fault:?}: entry itself is intact");
        } else {
            assert!(!store.contains(key), "{fault:?}: damaged entry moved aside");
            assert_eq!(store.quarantined_count(), 1, "{fault:?}");
        }

        // Recovery: recapture-and-save restores a loadable entry with
        // the original bytes.
        store.save(key, &payload).expect("recovery save");
        assert_eq!(
            store.load(key).as_deref(),
            Some(payload.as_slice()),
            "{fault:?}: store recovered"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_few_transient_errors_are_absorbed_by_retry() {
    let (store, dir) = fresh_store("transient-absorbed");
    store.save("k", b"payload").expect("save");
    // Fewer injected failures than the retry budget: not even a miss.
    store.inject_transient_failures(2);
    assert_eq!(store.load("k"), Some(b"payload".to_vec()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damage_to_one_entry_never_touches_its_neighbors() {
    let (store, dir) = fresh_store("blast-radius");
    store.save("a", b"alpha").expect("save a");
    store.save("b", b"beta").expect("save b");
    inject(&store, "a", StoreFault::BitFlip).expect("inject");
    assert_eq!(store.load("a"), None);
    assert_eq!(
        store.load("b"),
        Some(b"beta".to_vec()),
        "neighbor unaffected"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fault_injection_counts_into_the_registry() {
    let (store, dir) = fresh_store("counters");
    let reg = obs::Registry::global();
    store.save("k", b"payload").expect("save");
    let corrupt_before = reg.counter("store.corrupt");
    let hit_before = reg.counter("store.hit");
    inject(&store, "k", StoreFault::TornWrite).expect("inject");
    assert_eq!(store.load("k"), None);
    assert!(reg.counter("store.corrupt") > corrupt_before);
    store.save("k", b"payload").expect("resave");
    assert!(store.load("k").is_some());
    assert!(reg.counter("store.hit") > hit_before);
    let _ = fs::remove_dir_all(&dir);
}
