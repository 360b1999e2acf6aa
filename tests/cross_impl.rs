//! Cross-implementation congruence tests.
//!
//! The paper (Section IV.A): "The Rodinia OpenMP and CUDA
//! implementations are developed congruously, using the same algorithms
//! with similar levels of optimization." In this reproduction the two
//! implementations share the input generators and numerical kernels, so
//! their *outputs* must agree — bit-for-bit where the floating-point
//! orders match, within tolerance where blocking reorders reductions.

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_cpu as cpu_impl;
use rodinia_repro::rodinia_gpu as gpu_impl;
use tracekit::Profiler;

fn gpu() -> Gpu {
    Gpu::new(GpuConfig::gpgpusim_default())
}

fn profiler() -> Profiler {
    Profiler::new(&ProfileConfig::default()).expect("default config is valid")
}

#[test]
fn hotspot_cuda_and_openmp_agree() {
    let scale = Scale::Tiny;
    let mut g = gpu();
    let (_, buf) = gpu_impl::hotspot::Hotspot::new(scale).launch(&mut g);
    let cuda = g.mem().read_f32(buf);
    let omp = cpu_impl::hotspot::HotspotOmp::new(scale).run_traced(&mut profiler());
    assert_eq!(cuda.len(), omp.len());
    let worst = cuda
        .iter()
        .zip(&omp)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-3, "hotspot CUDA vs OpenMP diverge by {worst}");
}

#[test]
fn kmeans_cuda_and_openmp_agree() {
    let scale = Scale::Tiny;
    let mut g = gpu();
    let (_, cuda) = gpu_impl::kmeans::Kmeans::new(scale).launch(&mut g);
    let omp = cpu_impl::kmeans::KmeansOmp::new(scale).run_traced(&mut profiler());
    assert_eq!(cuda, omp, "memberships must match exactly");
}

#[test]
fn bfs_cuda_and_openmp_agree() {
    let scale = Scale::Tiny;
    let mut g = gpu();
    let (_, cuda) = gpu_impl::bfs::Bfs::new(scale).launch(&mut g);
    let omp = cpu_impl::bfs::BfsOmp::new(scale).run_traced(&mut profiler());
    assert_eq!(cuda, omp, "BFS levels must match exactly");
}

#[test]
fn nw_cuda_and_openmp_agree() {
    let scale = Scale::Tiny;
    let mut g = gpu();
    let (_, buf) = gpu_impl::nw::Nw::new(scale).launch(&mut g);
    let cuda = g.mem().read_f32(buf);
    let omp = cpu_impl::nw::NwOmp::new(scale).run_traced(&mut profiler());
    assert_eq!(cuda, omp, "DP matrices must match exactly");
}

#[test]
fn srad_cuda_and_openmp_agree() {
    let scale = Scale::Tiny;
    let mut g = gpu();
    let (_, buf) = gpu_impl::srad::Srad::new(scale).launch(&mut g);
    let cuda = g.mem().read_f32(buf);
    let omp = cpu_impl::srad::SradOmp::new(scale).run_traced(&mut profiler());
    let worst = cuda
        .iter()
        .zip(&omp)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-4, "SRAD CUDA vs OpenMP diverge by {worst}");
}

#[test]
fn cfd_cuda_and_openmp_agree() {
    let scale = Scale::Tiny;
    let mut g = gpu();
    let (_, buf) = gpu_impl::cfd::Cfd::new(scale).launch(&mut g);
    let cuda = g.mem().read_f32(buf);
    let omp = cpu_impl::cfd::CfdOmp::new(scale).run_traced(&mut profiler());
    let worst = cuda
        .iter()
        .zip(&omp)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-4, "CFD CUDA vs OpenMP diverge by {worst}");
}

#[test]
fn lud_cuda_and_openmp_agree_within_blocking_tolerance() {
    let scale = Scale::Tiny;
    let mut g = gpu();
    let (_, buf) = gpu_impl::lud::Lud::new(scale).launch(&mut g);
    let cuda = g.mem().read_f32(buf);
    let omp = cpu_impl::lud::LudOmp::new(scale).run_traced(&mut profiler());
    // Blocked vs unblocked elimination reorders the updates; on a
    // diagonally dominant matrix the results stay close.
    let worst = cuda
        .iter()
        .zip(&omp)
        .map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(1.0))
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-3, "LUD blocked vs unblocked diverge by {worst}");
}

#[test]
fn mummer_cuda_and_openmp_agree() {
    // Same reference/read generation requires identical instance
    // parameters; the CPU default uses a larger reference, so pin them.
    let m = gpu_impl::mummer::Mummer {
        ref_len: 2_000,
        queries: 256,
        read_len: 25,
        error_rate: 0.12,
        seed: 31,
    };
    let mut g = gpu();
    let (_, cuda) = m.launch(&mut g);
    let omp = cpu_impl::mummer::MummerOmp {
        ref_len: 2_000,
        queries: 256,
        read_len: 25,
        error_rate: 0.12,
        seed: 31,
    }
    .run_traced(&mut profiler());
    assert_eq!(cuda, omp, "match lengths must agree exactly");
}
