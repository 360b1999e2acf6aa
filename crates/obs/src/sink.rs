//! Pluggable event sinks.
//!
//! Instrumentation sites call [`emit_with`] with a closure; when no sink
//! is installed the closure is never evaluated and the call is a single
//! relaxed atomic load, which is all that disabled telemetry costs.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// What kind of event a sink is being handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed; fields include `dur_us`.
    SpanEnd,
    /// A structured record (e.g. per-launch kernel statistics).
    Record,
}

impl EventKind {
    /// Stable lowercase tag used in text and JSONL output.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Record => "record",
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Event name (span name, counter name, record kind).
    pub name: String,
    /// Structured payload.
    pub fields: Vec<(String, Json)>,
}

/// A telemetry consumer.
pub trait Sink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &Event);
    /// Flushes any buffered output.
    ///
    /// # Errors
    ///
    /// A rendered description of the first write failure, so callers
    /// that promised the user an artifact (`--telemetry`) can exit
    /// nonzero instead of silently shipping a truncated file.
    fn flush(&mut self) -> Result<(), String> {
        Ok(())
    }
}

static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);
static SINKS: Mutex<Vec<Box<dyn Sink>>> = Mutex::new(Vec::new());

fn sinks() -> std::sync::MutexGuard<'static, Vec<Box<dyn Sink>>> {
    SINKS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether at least one sink is installed (the fast path for
/// instrumentation sites).
pub fn sinks_active() -> bool {
    SINK_COUNT.load(Ordering::Relaxed) > 0
}

/// Installs a sink; events flow to every installed sink.
pub fn add_sink(sink: Box<dyn Sink>) {
    let mut g = sinks();
    g.push(sink);
    SINK_COUNT.store(g.len(), Ordering::Relaxed);
}

/// Flushes and removes every installed sink, discarding flush errors
/// (teardown path; use [`flush_sinks`] first when errors must surface).
pub fn clear_sinks() {
    let mut g = sinks();
    for s in g.iter_mut() {
        let _ = s.flush();
    }
    g.clear();
    SINK_COUNT.store(0, Ordering::Relaxed);
}

/// Flushes every installed sink without removing it.
///
/// # Errors
///
/// The first sink's flush failure, rendered. Telemetry emission never
/// aborts a run, so this is where dropped lines finally surface; CLI
/// drivers turn it into a nonzero exit.
pub fn flush_sinks() -> Result<(), String> {
    let mut first_err = None;
    for s in sinks().iter_mut() {
        if let Err(e) = s.flush() {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// Builds an event with `build` and hands it to every sink — but only if
/// a sink is installed; otherwise `build` is never evaluated.
pub fn emit_with(build: impl FnOnce() -> Event) {
    if !sinks_active() {
        return;
    }
    let event = build();
    for s in sinks().iter_mut() {
        s.emit(&event);
    }
}

/// Name of the verbosity environment variable read by
/// [`init_from_env`]: `RODINIA_OBS=1` prints closed spans to stderr,
/// `RODINIA_OBS=2` additionally prints span starts and records.
pub const ENV_VERBOSITY: &str = "RODINIA_OBS";

/// Installs a [`TextSink`] if the [`ENV_VERBOSITY`] environment variable
/// requests one. Returns whether a sink was installed.
pub fn init_from_env() -> bool {
    match std::env::var(ENV_VERBOSITY).ok().as_deref() {
        Some("1") => {
            add_sink(Box::new(TextSink::new(1)));
            true
        }
        Some("2") => {
            add_sink(Box::new(TextSink::new(2)));
            true
        }
        _ => false,
    }
}

/// A human-readable sink writing one line per event to stderr.
#[derive(Debug)]
pub struct TextSink {
    level: u8,
}

impl TextSink {
    /// Level 1 prints closed spans; level 2 prints everything.
    pub fn new(level: u8) -> TextSink {
        TextSink { level }
    }
}

impl Sink for TextSink {
    fn emit(&mut self, event: &Event) {
        let wanted = match event.kind {
            EventKind::SpanEnd => self.level >= 1,
            _ => self.level >= 2,
        };
        if !wanted {
            return;
        }
        let mut line = format!("[obs] {} {}", event.kind.tag(), event.name);
        for (k, v) in &event.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
}

/// A machine-readable sink writing one JSON object per line
/// (`--telemetry <file.jsonl>`).
///
/// Each line carries `ts_us` (microseconds since the sink was created),
/// `kind`, `name`, and the event's fields.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    epoch: Instant,
    /// First write failure, latched so [`Sink::flush`] can report lines
    /// dropped by [`Sink::emit`] (which must never abort the run).
    write_error: Option<String>,
}

impl JsonlSink {
    /// Creates (truncating) the output file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation failure.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
            epoch: Instant::now(),
            write_error: None,
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, event: &Event) {
        let mut pairs = vec![
            (
                "ts_us".to_string(),
                Json::u64(self.epoch.elapsed().as_micros() as u64),
            ),
            ("kind".to_string(), Json::from(event.kind.tag())),
            ("name".to_string(), Json::from(event.name.as_str())),
        ];
        pairs.extend(event.fields.iter().cloned());
        // Telemetry must never abort the run; latch the first I/O error
        // for flush() to report instead.
        if let Err(e) = writeln!(self.out, "{}", Json::Obj(pairs)) {
            self.write_error.get_or_insert_with(|| e.to_string());
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        if let Err(e) = self.out.flush() {
            self.write_error.get_or_insert_with(|| e.to_string());
        }
        match &self.write_error {
            Some(e) => Err(format!("telemetry write failed: {e}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Captures events for assertions.
    struct Capture(Arc<StdMutex<Vec<String>>>);

    impl Sink for Capture {
        fn emit(&mut self, event: &Event) {
            self.0.lock().unwrap().push(event.name.clone());
        }
    }

    #[test]
    fn emit_reaches_installed_sinks_and_skips_otherwise() {
        // Global sink state: keep this test self-contained.
        clear_sinks();
        let mut evaluated = false;
        emit_with(|| {
            evaluated = true;
            Event {
                kind: EventKind::Record,
                name: "x".into(),
                fields: vec![],
            }
        });
        assert!(!evaluated, "closure must not run with no sinks");

        let seen = Arc::new(StdMutex::new(Vec::new()));
        add_sink(Box::new(Capture(seen.clone())));
        assert!(sinks_active());
        emit_with(|| Event {
            kind: EventKind::SpanEnd,
            name: "hello".into(),
            fields: vec![("dur_us".into(), Json::u64(5))],
        });
        clear_sinks();
        assert!(!sinks_active());
        assert_eq!(seen.lock().unwrap().as_slice(), ["hello".to_string()]);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("obs-jsonl-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.emit(&Event {
                kind: EventKind::Record,
                name: "kernel".into(),
                fields: vec![("cycles".into(), Json::u64(42))],
            });
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().next().unwrap();
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("record"));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("kernel"));
        assert_eq!(v.get("cycles").and_then(Json::as_f64), Some(42.0));
        std::fs::remove_file(&path).ok();
    }
}
