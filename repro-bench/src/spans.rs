//! Bench-owned spans around calls into each layer, with explicit parent
//! ids so work fanned out onto pool workers keeps its parent, plus the
//! Chrome trace-event export and self-time arithmetic.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use obs::Json;

/// One finished span. Times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `simt.capture.BFS`.
    pub name: String,
    /// Small per-thread number for the trace viewer's lanes.
    pub tid: u64,
    /// Start offset in microseconds.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

impl Span {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans in memory; they are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` under `parent`, handing `f`
    /// the new span's id so it can parent spans on other threads.
    pub fn span<T>(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name: name.into(),
            tid: tid(),
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("no span holder panics").push(span);
        out
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("no span holder panics").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Total seconds of the spans whose name satisfies `pick`.
pub fn seconds(spans: &[Span], pick: impl Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| pick(&s.name))
        .map(|s| s.dur_us)
        .sum::<f64>()
        / 1e6
}

/// Self time of every span in microseconds: its duration minus the part
/// of its interval that the union of its children covers. Children that
/// ran in parallel on pool workers overlap, so they are merged first.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_us, s.end_us()));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start_us);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_us()));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.dur_us - covered).max(0.0))
        })
        .collect()
}

/// The spans as a Chrome trace-event document (complete `X` events),
/// which Perfetto and `about:tracing` open. Each event carries its span
/// id, parent id and self time in `args`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::from(s.name.as_str())),
                ("cat", Json::from("repro-bench")),
                ("ph", Json::from("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us)),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(s.tid)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::u64(s.id)),
                        ("parent", s.parent.map_or(Json::Null, Json::u64)),
                        ("self_us", Json::Num(selfs[&s.id])),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<Span> {
        let tr = Tracer::default();
        tr.span("root", None, |root| {
            std::thread::scope(|s| {
                for i in 0..3 {
                    let tr = &tr;
                    s.spawn(move || {
                        tr.span(format!("child.{i}"), Some(root), |c| {
                            tr.span("leaf", Some(c), |_| {
                                std::thread::sleep(std::time::Duration::from_millis(2))
                            });
                        });
                    });
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        tr.spans()
    }

    #[test]
    fn children_nest_inside_their_parents() {
        let spans = sample_trace();
        assert_eq!(spans.len(), 7);
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        for s in &spans {
            let Some(p) = s.parent else {
                assert_eq!(s.name, "root");
                continue;
            };
            let parent = by_id.get(&p).expect("parent id names a recorded span");
            // Offsets are independently rounded floats: allow a nanosecond.
            assert!(
                parent.start_us <= s.start_us + 1e-3 && s.end_us() <= parent.end_us() + 1e-3,
                "{s:?} in {parent:?}"
            );
        }
        // Workers ran on their own threads but kept the root as parent.
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        let kids: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(root.id)).collect();
        assert_eq!(kids.len(), 3);
        assert!(kids.iter().all(|k| k.tid != root.tid));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_us, dur_us| Span {
            id,
            parent,
            name: format!("s{id}"),
            tid: 1,
            start_us,
            dur_us,
        };
        // Parent [0, 100); children [10, 40) and [30, 60) overlap, and
        // [90, 120) runs past the parent's end.
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 30.0),
            span(3, Some(1), 30.0, 30.0),
            span(4, Some(1), 90.0, 30.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 40.0).abs() < 1e-9, "{}", selfs[&1]);
        assert_eq!(selfs[&2], 30.0);
        assert!((seconds(&spans, |n| n != "s1") - 90e-6).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_round_trips_through_the_json_parser() {
        let spans = sample_trace();
        let text = chrome_trace(&spans).to_string();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), spans.len());
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            let args = e.get("args").expect("args");
            let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
            let self_us = args.get("self_us").and_then(Json::as_f64).expect("self");
            assert!(self_us <= dur + 1e-9);
        }
    }
}
