//! # tracekit — a Pin-style instrumentation substrate
//!
//! The paper gathers its CPU-side characteristics (Sections IV–V) with
//! Pin: instruction mix via `mix-mt`, and cache/working-set/sharing
//! behavior via a custom multithreaded cache-simulation Pin tool using
//! Bienia et al.'s methodology — 8 threads sharing a single 4-way,
//! 64-byte-line cache swept from 128 kB to 16 MB.
//!
//! `tracekit` reproduces that pipeline for explicitly instrumented
//! workloads:
//!
//! * [`Profiler`] runs a workload's *logical threads* and interleaves
//!   their event streams round-robin with a fixed quantum, making every
//!   measurement deterministic;
//! * [`cache::SharedCache`] simulates the shared cache at one capacity,
//!   collecting misses per memory reference (working set), the fraction
//!   of resident lines shared between threads, and accesses to shared
//!   lines per reference (sharing); [`cache::Sweep`] runs every
//!   configured capacity in the same pass, simulating only the ones
//!   whose stats can still differ, so the profiler stores no trace;
//! * [`mix::InstrMix`] tallies the ALU / branch / read / write
//!   instruction mix;
//! * [`footprint::Footprints`] counts 64-byte instruction blocks and
//!   4 kB data blocks touched (Figures 11 and 12);
//! * [`trace::CpuCapture`] records the interleaved reference stream as
//!   packed line-granular words, for a persistent store to keep; its
//!   replay feeds the words to the same [`cache::Sweep`] and is
//!   byte-identical to the direct path;
//! * [`error::TraceError`] is the crate's typed error — no fallible
//!   entry point panics.
//!
//! ## Example
//!
//! ```
//! use tracekit::{profile, CpuWorkload, ProfileConfig, Profiler};
//!
//! /// Eight threads summing disjoint slices of an array.
//! struct Sum;
//!
//! impl CpuWorkload for Sum {
//!     fn name(&self) -> &'static str { "sum" }
//!     fn run(&self, prof: &mut Profiler) {
//!         let data = prof.alloc("data", 8 * 1024 * 4);
//!         let code = prof.code_region("sum_loop", 256);
//!         prof.parallel(|t| {
//!             t.exec(code);
//!             let lo = t.tid() * 1024;
//!             for i in lo..lo + 1024 {
//!                 t.read(data + i as u64 * 4, 4);
//!                 t.alu(1);
//!             }
//!         });
//!     }
//! }
//!
//! let p = profile(&Sum, &ProfileConfig::default()).expect("default config is valid");
//! assert_eq!(p.mix.reads, 8 * 1024);
//! assert_eq!(p.cache_stats.len(), 8);
//!
//! // A stored capture of the same workload replays to the
//! // byte-identical profile:
//! let cap = tracekit::CpuCapture::capture(&Sum, &ProfileConfig::default()).unwrap();
//! let stats = cap.replay_all(&ProfileConfig::default().cache_sizes).unwrap();
//! assert_eq!(cap.profile_with(stats), p);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache;
pub mod error;
pub mod footprint;
pub mod mix;
pub mod profile;
pub mod serdes;
pub mod trace;
pub mod tracer;

pub use cache::{CacheStats, SharedCache, Sweep};
pub use error::TraceError;
pub use footprint::Footprints;
pub use mix::{InstrMix, MixClass};
pub use profile::{profile, CpuWorkload, Profile, ProfileConfig, Profiler, MAX_THREADS};
pub use serdes::{
    decode_capture, encode_capture, read_capture, write_capture, CpuCodecError, CPU_CODEC_VERSION,
};
pub use trace::CpuCapture;
pub use tracer::{Ev, ThreadTracer};
