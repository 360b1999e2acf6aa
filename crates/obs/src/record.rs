//! A bounded buffer of structured records for run manifests.
//!
//! The owner of a run (the study session) owns its [`Records`] and hands
//! it to the layers that publish, so runs never mix their records.
//! [`Records::record_with`] is a no-op (one relaxed atomic load) unless
//! recording is on or a sink is installed. Once the buffer is full, new
//! records are counted as dropped rather than growing without limit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::sink::{emit_with, sinks_active, Event, EventKind};

/// Upper bound on buffered records (a full `repro all` run produces a
/// few thousand).
pub const MAX_RECORDS: usize = 65_536;

/// One buffered record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Record kind (e.g. `kernel_stats`).
    pub kind: String,
    /// Structured payload.
    pub value: Json,
}

/// A bounded record buffer, safe to publish into from many threads.
#[derive(Debug, Default)]
pub struct Records {
    recording: AtomicBool,
    dropped: AtomicU64,
    buf: Mutex<Vec<Record>>,
}

impl Records {
    /// Turns buffering on or off (a new buffer is off).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Publishes a record of `kind` built by `build`. The closure is
    /// only evaluated when recording is on or a sink is installed; the
    /// value goes to the buffer (bounded) and to sinks as a
    /// [`EventKind::Record`] event.
    pub fn record_with(&self, kind: &str, build: impl FnOnce() -> Json) {
        let buffering = self.recording.load(Ordering::Relaxed);
        if !buffering && !sinks_active() {
            return;
        }
        let value = build();
        if buffering {
            let mut g = self
                .buf
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if g.len() < MAX_RECORDS {
                g.push(Record {
                    kind: kind.to_string(),
                    value: value.clone(),
                });
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        // The payload always nests under one "value" field: flattening an
        // object payload could collide with the envelope's reserved keys
        // (ts_us/kind/name).
        emit_with(|| Event {
            kind: EventKind::Record,
            name: kind.to_string(),
            fields: vec![("value".to_string(), value)],
        });
    }

    /// Drains every buffered record, returning them together with the
    /// count of records dropped since the last drain.
    pub fn drain(&self) -> (Vec<Record>, u64) {
        let mut g = self
            .buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let records = std::mem::take(&mut *g);
        let dropped = self.dropped.swap(0, Ordering::Relaxed);
        (records, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_buffer_while_recording() {
        let records = Records::default();
        let mut evaluated = false;
        records.record_with("t", || {
            evaluated = true;
            Json::Null
        });
        // Sinks are process-wide, and another test may have one
        // installed; without one the closure must not run.
        assert!(
            !evaluated || sinks_active(),
            "closure must not run while disabled"
        );
        assert!(records.drain().0.is_empty());

        records.set_recording(true);
        records.record_with("t", || Json::obj(vec![("x", Json::u64(1))]));
        records.set_recording(false);
        let (got, dropped) = records.drain();
        assert_eq!(dropped, 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, "t");
        assert_eq!(got[0].value.get("x").and_then(Json::as_f64), Some(1.0));
        // Drained: buffer is empty now.
        assert!(records.drain().0.is_empty());
    }
}
