//! Ablation studies for the design choices DESIGN.md calls out:
//! incremental kernel optimizations, scheduler policy, SIMD-lane
//! compaction (branch-divergence sensitivity — a paper future-work
//! item), ghost-zone depth, concurrent kernel execution, and the
//! offloading-model overheads. Everything runs at Small scale.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_gpu::bfs::Bfs;
use rodinia_repro::rodinia_gpu::cfd::{Cfd, CfdVariant};
use rodinia_repro::rodinia_gpu::leukocyte::Leukocyte;
use rodinia_repro::rodinia_gpu::lud::Lud;
use rodinia_repro::rodinia_gpu::mummer::Mummer;
use rodinia_repro::rodinia_gpu::nw::Nw;
use rodinia_repro::rodinia_gpu::srad::Srad;
use rodinia_repro::rodinia_study::characterization::offload_overheads;
use rodinia_repro::simt::{self, SchedPolicy};

/// One named benchmark-runner case for a knob sweep.
type Case = (&'static str, fn(&mut Gpu) -> KernelStats);

fn run_on(cfg: &GpuConfig, f: impl FnOnce(&mut Gpu) -> KernelStats) -> KernelStats {
    let mut gpu = Gpu::new(cfg.clone());
    f(&mut gpu)
}

fn print_pair(label: &str, a_name: &str, a: &KernelStats, b_name: &str, b: &KernelStats) {
    println!(
        "{label:32} {a_name:>12}: {:>9} cycles (IPC {:>6.1})   {b_name:>12}: {:>9} cycles (IPC {:>6.1})   speedup {:.2}x",
        a.cycles,
        a.ipc(),
        b.cycles,
        b.ipc(),
        a.cycles as f64 / b.cycles as f64
    );
}

fn incremental_optimizations(scale: Scale) {
    let cfg = GpuConfig::gpgpusim_default();
    println!("== Ablation: incremental kernel optimizations (Small scale) ==");
    {
        let a = run_on(&cfg, |g| Srad::v1(scale).run(g));
        let b = run_on(&cfg, |g| Srad::v2(scale).run(g));
        print_pair("SRAD global vs shared-tiled", "v1", &a, "v2", &b);
    }
    {
        let a = run_on(&cfg, |g| Leukocyte::v1(scale).run(g));
        let b = run_on(&cfg, |g| Leukocyte::v2(scale).run(g));
        print_pair("Leukocyte split vs fused", "v1", &a, "v2", &b);
    }
    {
        let a = run_on(&cfg, |g| Nw::naive(scale).run(g));
        let b = run_on(&cfg, |g| Nw::new(scale).run(g));
        print_pair("NW per-cell vs tiled diagonals", "naive", &a, "tiled", &b);
    }
    {
        let a = run_on(&cfg, |g| Lud::naive(scale).run(g));
        let b = run_on(&cfg, |g| Lud::new(scale).run(g));
        print_pair("LUD unblocked vs blocked", "naive", &a, "blocked", &b);
    }
    {
        let mut cfd = Cfd::new(scale);
        cfd.variant = CfdVariant::PrecomputedFlux;
        let a = run_on(&cfg, |g| cfd.run(g));
        let b = run_on(&cfg, |g| Cfd::new(scale).run(g));
        print_pair(
            "CFD precomputed vs redundant flux",
            "precomp",
            &a,
            "redundant",
            &b,
        );
    }
    {
        let a = run_on(&cfg, |g| Cfd::new(scale).run(g));
        let b = run_on(&cfg, |g| Cfd::new(scale).double_precision().run(g));
        print_pair("CFD single vs double precision", "f32", &a, "f64", &b);
    }
    {
        let a = run_on(&cfg, |g| Hotspot::new(scale).with_pyramid(1).run(g));
        let b = run_on(&cfg, |g| Hotspot::new(scale).with_pyramid(2).run(g));
        println!(
            "{:32} 1-step: {} B DRAM, {} cycles   2-step: {} B DRAM, {} cycles",
            "HotSpot ghost-zone depth", a.dram_bytes, a.cycles, b.dram_bytes, b.cycles
        );
    }
}

fn machine_knobs(scale: Scale) -> Result<(), StudyError> {
    println!("== Ablation: scheduler policy (round-robin vs greedy-then-oldest) ==");
    let sched_cases: [Case; 2] = [
        ("SRAD", |g| Srad::new(Scale::Small).run(g)),
        ("BFS", |g| Bfs::new(Scale::Small).run(g)),
    ];
    for (name, run) in sched_cases {
        let rr = run_on(&GpuConfig::gpgpusim_default(), run);
        let mut cfg = GpuConfig::gpgpusim_default();
        cfg.sched_policy = SchedPolicy::GreedyThenOldest;
        cfg.name = "gpgpusim-gto".into();
        let gto = run_on(&cfg, run);
        print_pair(&format!("{name} scheduler"), "RR", &rr, "GTO", &gto);
    }

    println!("== Ablation: SIMD-lane compaction (divergence sensitivity) ==");
    let compaction_cases: [Case; 3] = [
        ("MUMmer", |g| Mummer::new(Scale::Small).run(g)),
        ("BFS", |g| Bfs::new(Scale::Small).run(g)),
        ("HotSpot", |g| Hotspot::new(Scale::Small).run(g)),
    ];
    for (name, run) in compaction_cases {
        let mut narrow = GpuConfig::gpgpusim_default();
        narrow.simd_width = 16;
        narrow.name = "simd16".into();
        let base = run_on(&narrow, run);
        let mut compact = narrow.clone();
        compact.lane_compaction = true;
        compact.name = "simd16-compact".into();
        let comp = run_on(&compact, run);
        print_pair(
            &format!("{name} lane compaction"),
            "off",
            &base,
            "on",
            &comp,
        );
    }

    println!("== Ablation: concurrent kernel execution ==");
    {
        // Two small kernels that each underfill the machine: serialized
        // vs co-scheduled (the paper's "simultaneous kernel execution"
        // future-work item).
        struct Sweep {
            buf: simt::BufF32,
            n: usize,
        }
        impl simt::Kernel for Sweep {
            fn name(&self) -> &str {
                "sweep"
            }
            fn shape(&self) -> simt::GridShape {
                simt::GridShape::cover(self.n, 256)
            }
            fn run_warp(&self, w: &mut simt::WarpCtx<'_>) -> simt::PhaseControl {
                let (buf, n) = (self.buf, self.n);
                let x = w.ld_f32(buf, |_, tid| (tid < n).then_some(tid));
                w.alu(32);
                let _ = x;
                simt::PhaseControl::Done
            }
        }
        let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
        let n = 4096;
        let a = gpu.mem_mut().alloc_f32_zeroed("a", n);
        let b = gpu.mem_mut().alloc_f32_zeroed("b", n);
        let ka = Sweep { buf: a, n };
        let kb = Sweep { buf: b, n };
        let serial = gpu.launch(&ka).cycles + gpu.launch(&kb).cycles;
        let conc = gpu.launch_concurrent(&[&ka, &kb]);
        println!(
            "{:32} serial: {:>9} cycles   concurrent: {:>9} cycles   speedup {:.2}x",
            "two quarter-machine kernels",
            serial,
            conc.combined.cycles,
            serial as f64 / conc.combined.cycles as f64
        );
    }

    println!("== Extension: offloading-model overheads ==");
    println!(
        "{}",
        offload_overheads(&StudySession::default(), scale, 8.0)?.to_table()?
    );
    Ok(())
}

fn main() -> Result<(), StudyError> {
    incremental_optimizations(Scale::Small);
    machine_knobs(Scale::Small)
}
