//! Table V metadata and the workload registry.

use datasets::Scale;
use std::ops::Range;
use tracekit::CpuWorkload;

use crate::blackscholes::Blackscholes;
use crate::bodytrack::Bodytrack;
use crate::canneal::Canneal;
use crate::dedup::Dedup;
use crate::facesim::Facesim;
use crate::ferret::Ferret;
use crate::fluidanimate::Fluidanimate;
use crate::freqmine::Freqmine;
use crate::raytrace::Raytrace;
use crate::swaptions::Swaptions;
use crate::vips::Vips;
use crate::x264::X264;

/// The contiguous chunk of `0..n` that thread `tid` of `threads` owns
/// (OpenMP static schedule).
pub fn chunk(n: usize, threads: usize, tid: usize) -> Range<usize> {
    let per = n.div_ceil(threads.max(1));
    let lo = (tid * per).min(n);
    let hi = ((tid + 1) * per).min(n);
    lo..hi
}

/// One row of the paper's Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsecApp {
    /// Application name.
    pub name: &'static str,
    /// Application domain.
    pub domain: &'static str,
    /// `sim-large` problem size, as the paper lists it.
    pub sim_large: &'static str,
    /// One-line description from Table V.
    pub description: &'static str,
}

/// The paper's Table V (Parsec applications and sim-large input sizes),
/// plus raytrace, which appears in the Figure 6 dendrogram.
pub fn catalog() -> Vec<ParsecApp> {
    vec![
        ParsecApp {
            name: "blackscholes",
            domain: "Financial Analysis, Algebra",
            sim_large: "65,536 options",
            description: "Portfolio price calculation using Black-Scholes PDE",
        },
        ParsecApp {
            name: "bodytrack",
            domain: "Computer Vision",
            sim_large: "4 frames, 4,000 particles",
            description: "Computer vision, tracks 3D pose of human body",
        },
        ParsecApp {
            name: "canneal",
            domain: "Engineering",
            sim_large: "400,000 elements",
            description: "Synthetic chip design, routing",
        },
        ParsecApp {
            name: "dedup",
            domain: "Enterprise Storage",
            sim_large: "184 MB",
            description: "Pipelined compression kernel",
        },
        ParsecApp {
            name: "facesim",
            domain: "Animation",
            sim_large: "1 frame, 372,126 tetrahedrons",
            description: "Physics simulation, models a human face",
        },
        ParsecApp {
            name: "ferret",
            domain: "Similarity Search",
            sim_large: "256 queries, 34,973 images",
            description: "Pipelined audio, image and video searches",
        },
        ParsecApp {
            name: "fluidanimate",
            domain: "Animation",
            sim_large: "5 frames, 300,000 particles",
            description: "Physics simulation, animation of fluids",
        },
        ParsecApp {
            name: "freqmine",
            domain: "Data Mining",
            sim_large: "990,000 transactions",
            description: "Data mining application",
        },
        ParsecApp {
            name: "raytrace",
            domain: "Rendering",
            sim_large: "1 frame, 1,920,000 pixels",
            description: "Real-time ray tracing of a 3D scene",
        },
        ParsecApp {
            name: "streamcluster",
            domain: "Data Mining",
            sim_large: "16,384 points per block, 1 block",
            description: "Kernel to solve the online clustering problem",
        },
        ParsecApp {
            name: "swaptions",
            domain: "Financial Analysis",
            sim_large: "64 swaptions, 20,000 simulations",
            description: "Computes portfolio prices using Monte-Carlo simulation",
        },
        ParsecApp {
            name: "vips",
            domain: "Media Processing",
            sim_large: "1 image, 26,625,500 pixels",
            description: "Image processing, image transformations",
        },
        ParsecApp {
            name: "x264",
            domain: "Media Processing",
            sim_large: "128 frames, 640x360 pixels",
            description: "H.264 video encoder",
        },
    ]
}

/// The twelve runnable parsec-lite workloads at the given scale.
/// StreamCluster is excluded here because the paper treats it as the
/// workload shared with Rodinia; the combined study pulls it from
/// `rodinia-cpu` and labels it `streamcluster(R, P)`.
pub fn all_workloads(scale: Scale) -> Vec<Box<dyn CpuWorkload>> {
    vec![
        Box::new(Blackscholes::new(scale)),
        Box::new(Bodytrack::new(scale)),
        Box::new(Canneal::new(scale)),
        Box::new(Dedup::new(scale)),
        Box::new(Facesim::new(scale)),
        Box::new(Ferret::new(scale)),
        Box::new(Fluidanimate::new(scale)),
        Box::new(Freqmine::new(scale)),
        Box::new(Raytrace::new(scale)),
        Box::new(Swaptions::new(scale)),
        Box::new(Vips::new(scale)),
        Box::new(X264::new(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{profile, ProfileConfig};

    #[test]
    fn table5_has_thirteen_rows() {
        let c = catalog();
        assert_eq!(c.len(), 13);
        assert!(c.iter().any(|a| a.name == "streamcluster"));
        let names: std::collections::HashSet<&str> = c.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn runnable_workloads_match_catalog() {
        let ws = all_workloads(Scale::Tiny);
        assert_eq!(ws.len(), 12);
        let cat = catalog();
        for w in &ws {
            assert!(
                cat.iter().any(|a| a.name == w.name()),
                "{} missing from Table V",
                w.name()
            );
        }
    }

    #[test]
    fn every_workload_profiles_cleanly() {
        let cfg = ProfileConfig::default();
        for w in all_workloads(Scale::Tiny) {
            let p = profile(w.as_ref(), &cfg).expect("profile");
            assert!(p.mix.total() > 0, "{} executed nothing", w.name());
            assert!(p.mix.memory_refs() > 0, "{}", w.name());
            assert!(p.instr_blocks > 0, "{}", w.name());
            assert_eq!(p.cache_stats.len(), 8);
        }
    }
}
