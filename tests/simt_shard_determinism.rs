//! The headline guarantee of intra-replay parallelism: results are
//! `--sim-threads`-invariant, the same way `--jobs` is (see
//! `parallel_determinism.rs`).
//!
//! `--sim-threads` spends its workers on a recorded run's distinct
//! launches (`simt::try_time_launches`): each distinct launch replays
//! once on its own engine, and the per-launch stats merge in launch
//! order on the calling thread, so the width may only change
//! wall-clock time — never a single byte of any manifest. Three layers
//! of evidence here:
//!
//! * **End to end:** full `repro` study and analyze runs at
//!   `--sim-threads 1/2/4` write byte-identical `STUDY_manifest.json`
//!   and `CRITPATH_manifest.json` files.
//! * **Property:** random launch lists, with repeated launches, replay
//!   byte-identically at any width — including widths above the launch
//!   count and the host CPU count — to the serial replay.
//! * **Errors:** when several launches fail, the earliest one's error
//!   is returned at every width, as a serial replay would report it.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use proptest::prelude::*;
use rodinia_repro::obs::Json;
use rodinia_repro::simt::{
    trace_kernel, try_time_launches, try_time_trace, BufF32, GpuConfig, GpuMem, GridShape, Kernel,
    KernelTrace, PhaseControl, ReplayOptions, SimError, WarpCtx,
};

fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rodinia-simt-shard-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Runs a store-backed study at a worker width and returns the bytes of
/// its `STUDY_manifest.json`. Figure 5's GTX 480 configurations are the
/// only ones with an L1/L2, where the epoch is bounded by the L2 latency
/// rather than DRAM, so they ride along with the PB and Figure 1
/// replays; the store-backed run also re-times every persisted capture.
fn study_manifest_at(threads: &str) -> Vec<u8> {
    let dir = test_dir(&format!("study-{threads}"));
    let out = repro()
        .args([
            "pb",
            "fig1",
            "fig5",
            "tiny",
            "--sim-threads",
            threads,
            "--store",
        ])
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

/// Runs `repro analyze` at a worker width and returns the bytes of its
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
    assert!(
        doc.get("schema").is_some(),
        "critpath manifest has a schema"
    );
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

/// Replays `launches` at `threads` workers, serialized for byte
/// comparison (errors included).
fn launches_at(launches: &[Arc<KernelTrace>], cfg: &GpuConfig, threads: usize) -> String {
    let got = try_time_launches(launches, cfg, &ReplayOptions::width(threads))
        .map(|s| s.to_json().to_string());
    format!("{got:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any width — including widths above the launch count and the
    /// host CPU count — replays a random launch list, with repeated
    /// launches, byte-identically to the serial replay.
    #[test]
    fn random_launch_lists_match_width_one(
        threads in 2usize..40,
        picks in proptest::collection::vec(0usize..3, 1..8),
        iters in 1u32..32,
        stride in 1usize..9,
        n in 512usize..4096,
    ) {
        let cfg = GpuConfig::gpgpusim_8sm();
        let mut mem = GpuMem::new();
        let buf = mem.alloc_f32_zeroed("buf", n * 8);
        let pool = [
            Arc::new(trace_kernel(&Compute { n, iters }, &mut mem, &cfg)),
            Arc::new(trace_kernel(&Stream { buf, n, stride }, &mut mem, &cfg)),
            Arc::new(trace_kernel(&Compute { n: n / 2, iters: iters + 3 }, &mut mem, &cfg)),
        ];
        let launches: Vec<Arc<KernelTrace>> = picks.iter().map(|&i| Arc::clone(&pool[i])).collect();
        let serial = launches_at(&launches, &cfg, 1);
        prop_assert!(serial.starts_with("Ok("), "{}", serial);
        prop_assert_eq!(launches_at(&launches, &cfg, threads), serial);
    }
}

#[test]
fn the_earliest_failing_launch_wins_at_every_width() {
    // A cycle budget the short launches fit in and the two long ones
    // (launches 1 and 3, with different warp counts, hence different
    // errors) exceed.
    let mut cfg = GpuConfig::gpgpusim_8sm();
    cfg.watchdog.max_cycles = Some(500);
    let mut mem = GpuMem::new();
    let short = Arc::new(trace_kernel(&Compute { n: 256, iters: 1 }, &mut mem, &cfg));
    let long_k = Arc::new(trace_kernel(
        &Compute { n: 8192, iters: 64 },
        &mut mem,
        &cfg,
    ));
    let long_m = Arc::new(trace_kernel(
        &Compute {
            n: 4096,
            iters: 128,
        },
        &mut mem,
        &cfg,
    ));
    let launches = vec![
        Arc::clone(&short),
        Arc::clone(&long_k),
        Arc::clone(&short),
        Arc::clone(&long_m),
        short,
    ];
    let err_k = try_time_trace(&long_k, &cfg).expect_err("launch 1 exceeds the budget");
    let err_m = try_time_trace(&long_m, &cfg).expect_err("launch 3 exceeds the budget");
    assert!(matches!(err_k, SimError::Watchdog { .. }), "{err_k:?}");
    assert_ne!(err_k, err_m, "the two failures must be told apart");
    for threads in [1, 2, 3, 4, 5, 16] {
        let got = try_time_launches(&launches, &cfg, &ReplayOptions::width(threads));
        assert_eq!(got.map(|s| s.cycles), Err(err_k.clone()), "width {threads}");
    }
}
