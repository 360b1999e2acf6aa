//! The headline guarantee of intra-run sharding: results are
//! `--sim-threads`-invariant, the same way `--jobs` is (see
//! `parallel_determinism.rs`).
//!
//! The epoch-barrier engine defers all shared-resource traffic (L2,
//! DRAM, the CTA queue, the live-warp count) to a barrier that replays
//! it in canonical serial order, so the shard count may only change
//! wall-clock time — never a single byte of any manifest. Two layers of
//! evidence here:
//!
//! * **End to end:** full `repro` study and analyze runs at
//!   `--sim-threads 1/2/4` write byte-identical `STUDY_manifest.json`
//!   and `CRITPATH_manifest.json` files.
//! * **Property:** random shard counts on randomized compute/memory
//!   kernel mixes replay byte-identically to the serial engine on a
//!   small configuration.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use proptest::prelude::*;
use rodinia_repro::obs::Json;
use rodinia_repro::simt::{
    set_sim_threads, time_traces_concurrent, trace_kernel, BufF32, GpuConfig, GpuMem, GridShape,
    Kernel, PhaseControl, WarpCtx,
};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rodinia-simt-shard-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Runs a store-backed full-suite study at a shard count and returns
/// the bytes of its `STUDY_manifest.json`. Figure 5's GTX 480
/// configurations are the only ones with an L1/L2, where the epoch is
/// bounded by the L2 latency rather than DRAM, so they ride along with
/// the PB and Figure 1 replays.
fn study_manifest_at(threads: &str) -> Vec<u8> {
    let dir = test_dir(&format!("study-{threads}"));
    let out = repro()
        .args(["pb", "fig1", "fig5", "tiny", "--sim-threads", threads, "--store"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "study at --sim-threads {threads}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = fs::read(dir.join("STUDY_manifest.json")).expect("study manifest written");
    let _ = fs::remove_dir_all(&dir);
    manifest
}

/// Runs `repro analyze` at a shard count and returns the bytes of its
/// `CRITPATH_manifest.json`.
fn critpath_manifest_at(threads: &str) -> Vec<u8> {
    let dir = test_dir(&format!("critpath-{threads}"));
    let out = repro()
        .args(["analyze", "tiny", "--sim-threads", threads, "--json"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "analyze at --sim-threads {threads}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = fs::read(dir.join("CRITPATH_manifest.json")).expect("critpath manifest written");
    let _ = fs::remove_dir_all(&dir);
    manifest
}

#[test]
fn study_manifest_is_byte_identical_across_sim_threads() {
    let serial = study_manifest_at("1");
    // Sanity: this is a real study document, not an error page.
    let doc = Json::parse(std::str::from_utf8(&serial).expect("utf-8")).expect("manifest parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rodinia-repro.study/v1")
    );
    for threads in ["2", "4"] {
        assert_eq!(
            study_manifest_at(threads),
            serial,
            "STUDY_manifest.json diverged at --sim-threads {threads}"
        );
    }
}

#[test]
fn critpath_manifest_is_byte_identical_across_sim_threads() {
    let serial = critpath_manifest_at("1");
    let doc = Json::parse(std::str::from_utf8(&serial).expect("utf-8")).expect("manifest parses");
    assert!(doc.get("schema").is_some(), "critpath manifest has a schema");
    for threads in ["2", "4"] {
        assert_eq!(
            critpath_manifest_at(threads),
            serial,
            "CRITPATH_manifest.json diverged at --sim-threads {threads}"
        );
    }
}

/// Pure-compute kernel: `iters` ALU instructions per thread.
struct Compute {
    n: usize,
    iters: u32,
}

impl Kernel for Compute {
    fn name(&self) -> &str {
        "compute"
    }
    fn shape(&self) -> GridShape {
        GridShape::cover(self.n, 128)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        w.alu(self.iters);
        PhaseControl::Done
    }
}

/// Streaming kernel: one strided global load per thread, then a little
/// compute — enough to keep DRAM, the barrier's only shared resource
/// without an L2, on the critical path.
struct Stream {
    buf: BufF32,
    n: usize,
    stride: usize,
}

impl Kernel for Stream {
    fn name(&self) -> &str {
        "stream"
    }
    fn shape(&self) -> GridShape {
        GridShape::cover(self.n, 128)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let (buf, n, stride) = (self.buf, self.n, self.stride);
        let x = w.ld_f32(buf, |_, tid| {
            (tid < n).then_some((tid * stride) % (n * stride))
        });
        let _ = x;
        w.alu(2);
        PhaseControl::Done
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any shard count — including odd ones, counts above the SM count,
    /// and counts above the host CPU count — replays a randomized
    /// concurrent kernel pair byte-identically to the serial engine.
    #[test]
    fn random_shard_counts_match_serial(
        threads in 2usize..40,
        iters in 1u32..32,
        stride in 1usize..9,
        n in 512usize..4096,
    ) {
        let cfg = GpuConfig::gpgpusim_8sm();
        let mut mem = GpuMem::new();
        let buf = mem.alloc_f32_zeroed("buf", n * 8);
        let tc = trace_kernel(&Compute { n, iters }, &mut mem, &cfg);
        let ts = trace_kernel(&Stream { buf, n, stride }, &mut mem, &cfg);
        let traces = [&tc, &ts];
        set_sim_threads(1);
        let serial = time_traces_concurrent(&traces, &cfg);
        set_sim_threads(threads);
        let sharded = time_traces_concurrent(&traces, &cfg);
        set_sim_threads(1);
        prop_assert_eq!(
            serial.combined.to_json().to_string(),
            sharded.combined.to_json().to_string()
        );
        prop_assert_eq!(serial.per_kernel_cycles, sharded.per_kernel_cycles);
    }
}
