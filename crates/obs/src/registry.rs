//! The global metric registry: named counters and span statistics.
//!
//! The registry is a process-wide accumulator; every instrumented crate
//! (`simt`, `tracekit`, `core`) writes into the same instance via
//! [`Registry::global`], and the run manifest snapshots it at the end.
//! All operations take a single mutex, so they are cheap enough for
//! per-launch / per-profile granularity but should not be called from
//! per-cycle hot loops.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::json::Json;

/// Aggregate timing of all closed spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock time across them, in microseconds.
    pub total_us: u64,
    /// Longest single span, in microseconds.
    pub max_us: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
}

/// A set of named counters and span statistics.
#[derive(Debug)]
pub struct Registry {
    inner: Mutex<Inner>,
}

static GLOBAL: Registry = Registry::new();

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                spans: BTreeMap::new(),
            }),
        }
    }

    /// The process-wide registry shared by all instrumented crates.
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Metric state stays usable even if a panicking thread held the
        // lock; counters are monotonic so the worst case is a lost update.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        let mut g = self.lock();
        *g.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increments counter `name` by one — shorthand for event-shaped
    /// counters (store hits/misses, quarantines) where the delta is
    /// always 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Folds one completed span of `dur_us` microseconds into `name`.
    pub fn record_span(&self, name: &str, dur_us: u64) {
        let mut g = self.lock();
        let s = g.spans.entry(name.to_string()).or_default();
        s.count += 1;
        s.total_us += dur_us;
        s.max_us = s.max_us.max(dur_us);
    }

    /// Current value of counter `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Aggregate statistics of span `name`.
    pub fn span_stat(&self, name: &str) -> Option<SpanStat> {
        self.lock().spans.get(name).copied()
    }

    /// Clears every counter and span statistic. Intended for
    /// tests and benchmarks that need isolation from earlier runs.
    pub fn reset(&self) {
        let mut g = self.lock();
        g.counters.clear();
        g.spans.clear();
    }

    /// Snapshots the whole registry as a JSON object with `counters` and
    /// `spans` members (keys sorted, deterministic).
    pub fn snapshot_json(&self) -> Json {
        let g = self.lock();
        let counters = g
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::u64(v)))
            .collect();
        let spans = g
            .spans
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", Json::u64(s.count)),
                        ("total_us", Json::u64(s.total_us)),
                        ("max_us", Json::u64(s.max_us)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("spans".to_string(), Json::Obj(spans)),
        ])
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.add("x", 3);
        r.add("x", 4);
        assert_eq!(r.counter("x"), 7);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn spans_fold() {
        let r = Registry::new();
        r.record_span("s", 10);
        r.record_span("s", 30);
        let s = r.span_stat("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_us, 40);
        assert_eq!(s.max_us, 30);
    }

    #[test]
    fn snapshot_and_reset() {
        let r = Registry::new();
        r.add("c", 1);
        r.record_span("s", 7);
        let snap = r.snapshot_json();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            snap.get("spans")
                .and_then(|s| s.get("s"))
                .and_then(|s| s.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        r.reset();
        assert_eq!(r.counter("c"), 0);
        assert!(r.span_stat("s").is_none());
    }

    #[test]
    fn snapshot_bytes_are_insertion_order_independent() {
        // Manifests and JSONL dumps embed this snapshot verbatim, so
        // its rendering must not depend on the order instrumentation
        // sites happened to fire in (the freqmine HashMap-order class
        // of bug). Keys are sorted: two registries holding the same
        // state render the same bytes regardless of write order.
        let names = ["store.hit", "bench.a", "zzz", "bench.b", "alpha"];
        let fwd = Registry::new();
        for (i, n) in names.iter().enumerate() {
            fwd.add(n, i as u64 + 1);
            fwd.record_span(n, 10 * (i as u64 + 1));
        }
        let rev = Registry::new();
        for (i, n) in names.iter().enumerate().rev() {
            rev.add(n, i as u64 + 1);
            rev.record_span(n, 10 * (i as u64 + 1));
        }
        let a = fwd.snapshot_json().to_string();
        let b = rev.snapshot_json().to_string();
        assert_eq!(a, b, "snapshot must be byte-stable across write orders");
        // And the sorted order is actually sorted.
        let doc = Json::parse(&a).expect("parses");
        if let Some(Json::Obj(pairs)) = doc.get("counters") {
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted);
        } else {
            panic!("counters object missing");
        }
    }
}
