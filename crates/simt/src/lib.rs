//! # simt — a trace-driven SIMT GPU timing simulator
//!
//! `simt` is the GPU-simulation substrate of the Rodinia characterization
//! reproduction. It plays the role GPGPU-Sim plays in the paper: kernels
//! execute *functionally* against a warp-explicit embedded DSL
//! ([`WarpCtx`]), producing per-warp instruction/memory traces, and a
//! timing model replays those traces on a machine model with:
//!
//! * fine-grained multithreaded SIMT cores (SMs) with round-robin warp
//!   issue and in-order execution within a warp,
//! * SIMT branch divergence via mask-based path serialization
//!   ([`WarpCtx::if_else`], [`WarpCtx::loop_while`]),
//! * a CTA (thread-block) scheduler enforcing register / thread /
//!   shared-memory / CTA occupancy limits,
//! * per-warp memory coalescing into aligned segments,
//! * shared memory with configurable bank-conflict serialization,
//! * texture and constant memory paths,
//! * an address-interleaved multi-channel DRAM model with queueing, and
//! * optional L1 (per-SM) and L2 (chip-wide) caches for Fermi-style
//!   configurations.
//!
//! The headline metrics match the ones the paper reports: IPC
//! (thread-instructions per cycle), the memory-instruction mix by space,
//! the warp-occupancy histogram, and DRAM bandwidth utilization.
//!
//! ## Example
//!
//! ```
//! use simt::{Gpu, GpuConfig, Kernel, WarpCtx, PhaseControl, GridShape};
//!
//! /// A kernel that doubles every element of a buffer.
//! struct Double {
//!     buf: simt::BufF32,
//!     n: usize,
//! }
//!
//! impl Kernel for Double {
//!     fn name(&self) -> &str { "double" }
//!     fn shape(&self) -> GridShape { GridShape::cover(self.n, 128) }
//!     fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
//!         let tids = w.tids();
//!         let in_range: Vec<bool> = tids.iter().map(|&t| t < self.n).collect();
//!         let buf = self.buf;
//!         let n = self.n;
//!         w.if_active(&in_range, |w| {
//!             let x = w.ld_f32(buf, |lane, tid| (tid < n).then_some(tid));
//!             w.alu(1);
//!             w.st_f32(buf, |lane, tid| (tid < n).then_some((tid, x[lane] * 2.0)));
//!         });
//!         PhaseControl::Done
//!     }
//! }
//!
//! let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
//! let buf = gpu.mem_mut().alloc_f32("data", &[1.0; 256]);
//! let stats = gpu.launch(&Double { buf, n: 256 });
//! assert_eq!(gpu.mem().read_f32(buf)[0], 2.0);
//! assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod banks;
pub mod caches;
pub mod coalesce;
pub mod config;
pub mod dram;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod isa;
pub mod kernel;
pub mod memory;
pub mod sanitizer;
pub mod serdes;
pub mod shadow;
pub mod sm;
pub mod stats;
pub mod trace;

pub use config::{CacheGeom, GpuConfig, SchedPolicy, WatchdogBudget};
pub use error::SimError;
pub use gpu::{
    set_sim_threads, sim_threads, time_trace, time_traces_concurrent, try_time_launches,
    try_time_trace, try_time_traces_concurrent, ConcurrentStats, Gpu, ReplayOptions,
};
pub use isa::{ActiveMask, MemSpace, SegRange, TOp};
pub use kernel::{GridShape, Kernel, PhaseControl, WarpCtx};
pub use memory::{BufF32, BufU32, GpuMem};
pub use sanitizer::{
    AccessKind, AllocInfo, BarrierRecord, LaunchTape, MemAccess, TapeBuf, TapeEvent,
};
pub use serdes::{decode_capture_payload, encode_capture_payload, CodecError, TRACE_CODEC_VERSION};
pub use shadow::SiteTable;
pub use stats::{
    KernelStats, MemMix, OccupancyHistogram, StallBreakdown, Timeline, TimelineSample,
};
pub use trace::{trace_kernel, try_trace_kernel, KernelTrace, TraceTotals};
