//! Size of the tracer's buffered event streams on the real corpus.
//!
//! A parallel region buffers every logical thread's events until it
//! interleaves them, so the encoded bytes per event set the capture's
//! peak memory. Each event used to be a 16-byte `Ev`; the compact
//! stream averages about 3 bytes over the Tiny corpus. This pins that
//! the encoding stays compact, through the `tracekit.events` and
//! `tracekit.capture.stream_bytes` registry counters.
//!
//! The counters are process-global, so this binary holds one test.

use rodinia_repro::datasets::Scale;
use rodinia_repro::obs::Registry;
use rodinia_repro::rodinia_study::suite::combined_workloads;
use rodinia_repro::tracekit::{CpuCapture, ProfileConfig};

#[test]
fn the_tiny_corpus_buffers_at_most_five_bytes_per_event() {
    let cfg = ProfileConfig::default();
    let reg = Registry::global();
    let (events0, bytes0) = (
        reg.counter("tracekit.events"),
        reg.counter("tracekit.capture.stream_bytes"),
    );
    for w in combined_workloads(Scale::Tiny) {
        CpuCapture::capture(w.workload.as_ref(), &cfg).expect("capture");
    }
    let events = reg.counter("tracekit.events") - events0;
    let bytes = reg.counter("tracekit.capture.stream_bytes") - bytes0;
    assert!(events > 0, "no events were traced");
    let per_event = bytes as f64 / events as f64;
    assert!(
        per_event <= 5.0,
        "{bytes} stream bytes over {events} events: {per_event:.2} bytes per event"
    );
}
