//! # obs — zero-dependency observability for the Rodinia reproduction
//!
//! A small telemetry layer shared by every crate in the workspace:
//!
//! * **Spans** — [`span!`] opens an RAII [`Span`] timed on the monotonic
//!   clock; closing it folds the duration into the global [`Registry`]
//!   and notifies sinks.
//! * **Counters** — [`Registry::global`] accumulates named
//!   metrics from any crate (`simt` launches, `tracekit` profile event
//!   counts, …).
//! * **Sinks** — pluggable [`Sink`] consumers: [`TextSink`] prints to
//!   stderr when the `RODINIA_OBS` environment variable asks for it
//!   (see [`init_from_env`]), [`JsonlSink`] streams events to a
//!   `.jsonl` file (`repro --telemetry`). With no sink installed, every
//!   instrumentation site short-circuits on one relaxed atomic load.
//! * **Records** — a [`Records`] value is one run's bounded buffer of
//!   per-launch [`KernelStats`](../simt/stats/struct.KernelStats.html)
//!   snapshots, owned by the study session and drained into manifests.
//! * **JSON** — a hand-rolled [`Json`] value type with serializer and
//!   parser, since the workspace is offline and serde-free by policy.
//! * **Analysis** — consumers that close the telemetry loop:
//!   [`critpath`] ranks where cycles went (dominant stall chains,
//!   what-if speedups, suite-wide bottleneck rankings), and [`sampler`]
//!   keeps timeline memory and overhead flat with a budget-bounded
//!   adaptive sampler.
//! * **Codec** — [`codec`] is the bounds-checked little-endian byte
//!   cursor ([`codec::Reader`]) and writers that both capture payload
//!   formats (`simt` kernel traces, `tracekit` memory traces) share.
//!
//! The crate deliberately has **no dependencies**, not even workspace
//! ones, so every layer of the stack can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod codec;
pub mod critpath;
pub mod json;
pub mod record;
pub mod registry;
pub mod sampler;
pub mod sink;
pub mod span;

pub use json::{Json, JsonError};
pub use record::{Record, Records, MAX_RECORDS};
pub use registry::{Registry, SpanStat};
pub use sampler::AdaptiveSampler;
pub use sink::{
    add_sink, clear_sinks, emit_with, flush_sinks, init_from_env, sinks_active, Event, EventKind,
    JsonlSink, Sink, TextSink, ENV_VERBOSITY,
};
pub use span::{span_depth, span_path, Span};
