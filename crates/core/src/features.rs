//! Feature-vector extraction from [`tracekit::Profile`]s, following the
//! paper's three characteristic groups (Section IV.B): instruction mix,
//! working set, and sharing behavior.

use tracekit::Profile;

/// Instruction-mix features: `[alu, branch, read, write]` fractions
/// (the Figure 7 space).
pub fn instruction_mix_features(p: &Profile) -> Vec<f64> {
    p.mix.fractions().to_vec()
}

/// Working-set features: misses per memory reference at each simulated
/// cache capacity (the Figure 8 space).
pub fn working_set_features(p: &Profile) -> Vec<f64> {
    p.cache_stats
        .iter()
        .map(tracekit::CacheStats::miss_rate)
        .collect()
}

/// Sharing features: the shared-line fraction and the shared-access
/// rate at each capacity (the Figure 9 space).
pub fn sharing_features(p: &Profile) -> Vec<f64> {
    let mut out = Vec::with_capacity(p.cache_stats.len() * 2);
    for s in &p.cache_stats {
        out.push(s.shared_line_fraction());
        out.push(s.shared_access_rate());
    }
    out
}

/// The full characteristic vector (all three groups), used for the
/// Figure 6 dendrogram.
pub fn full_features(p: &Profile) -> Vec<f64> {
    let mut v = instruction_mix_features(p);
    v.extend(working_set_features(p));
    v.extend(sharing_features(p));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{profile, CpuWorkload, ProfileConfig, Profiler};

    struct Toy;
    impl CpuWorkload for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn run(&self, prof: &mut Profiler) {
            let d = prof.alloc("d", 4096);
            prof.parallel(|t| {
                t.read(d, 4);
                t.alu(3);
                t.write(d + 64, 4);
                t.branch(1);
            });
        }
    }

    #[test]
    fn feature_dimensions() {
        let p = profile(&Toy, &ProfileConfig::default()).expect("profile");
        assert_eq!(instruction_mix_features(&p).len(), 4);
        assert_eq!(working_set_features(&p).len(), 8);
        assert_eq!(sharing_features(&p).len(), 16);
        assert_eq!(full_features(&p).len(), 28);
    }

    #[test]
    fn mix_features_sum_to_one() {
        let p = profile(&Toy, &ProfileConfig::default()).expect("profile");
        let s: f64 = instruction_mix_features(&p).iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
