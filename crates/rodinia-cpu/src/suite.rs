//! Registry of the twelve Rodinia OpenMP workloads.

use datasets::Scale;
use tracekit::CpuWorkload;

use crate::backprop::BackpropOmp;
use crate::bfs::BfsOmp;
use crate::cfd::CfdOmp;
use crate::heartwall::HeartwallOmp;
use crate::hotspot::HotspotOmp;
use crate::kmeans::KmeansOmp;
use crate::leukocyte::LeukocyteOmp;
use crate::lud::LudOmp;
use crate::mummer::MummerOmp;
use crate::nw::NwOmp;
use crate::srad::SradOmp;
use crate::streamcluster::StreamClusterOmp;

/// All twelve Rodinia OpenMP workloads at the given scale, in suite
/// order.
pub fn all_workloads(scale: Scale) -> Vec<Box<dyn CpuWorkload>> {
    vec![
        Box::new(BackpropOmp::new(scale)),
        Box::new(BfsOmp::new(scale)),
        Box::new(CfdOmp::new(scale)),
        Box::new(HeartwallOmp::new(scale)),
        Box::new(HotspotOmp::new(scale)),
        Box::new(KmeansOmp::new(scale)),
        Box::new(LeukocyteOmp::new(scale)),
        Box::new(LudOmp::new(scale)),
        Box::new(MummerOmp::new(scale)),
        Box::new(NwOmp::new(scale)),
        Box::new(SradOmp::new(scale)),
        Box::new(StreamClusterOmp::new(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{profile, ProfileConfig};

    #[test]
    fn twelve_workloads_with_unique_names() {
        let ws = all_workloads(Scale::Tiny);
        assert_eq!(ws.len(), 12);
        let names: std::collections::HashSet<&str> = ws.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn every_workload_profiles_cleanly() {
        let cfg = ProfileConfig::default();
        for w in all_workloads(Scale::Tiny) {
            let p = profile(w.as_ref(), &cfg).expect("profile");
            assert!(p.mix.total() > 0, "{} executed nothing", w.name());
            assert!(p.mix.memory_refs() > 0, "{} made no memory refs", w.name());
            assert!(p.instr_blocks > 0, "{} touched no code", w.name());
            assert!(p.data_blocks > 0, "{} touched no data", w.name());
            assert_eq!(p.cache_stats.len(), 8);
            // Miss rate must be non-increasing in capacity (inclusion-ish
            // sanity at workload granularity).
            for win in p.cache_stats.windows(2) {
                assert!(
                    win[0].miss_rate() >= win[1].miss_rate() - 0.01,
                    "{}: miss rate grew with capacity: {:?}",
                    w.name(),
                    p.cache_stats
                        .iter()
                        .map(tracekit::CacheStats::miss_rate)
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}
