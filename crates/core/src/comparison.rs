//! The cross-suite comparison study (Section V): profiles all 24
//! workloads once, then derives Figures 6–10 from the shared profiles.
//!
//! Profiling runs one job per workload on the session's worker pool,
//! through [`crate::trace_cache::CpuTraceCache::profile_workload`].
//! Without a store, each workload is profiled live: its references feed
//! a [`tracekit::Sweep`] of the eight cache capacities as they happen,
//! the way the paper's Pin tool simulates them online, and no trace is
//! stored. With a store, the job restores or captures (and persists)
//! the workload's trace, replays it through the same sweep and drops
//! it. The assembled profiles are byte-identical on every path and at
//! any worker count (proven against one full cache replay per capacity
//! in `tests/cpu_replay_determinism.rs`).

use analysis::cluster::{try_flat_clusters, try_hierarchical, Linkage};
use analysis::dendrogram::render_dendrogram;
use analysis::distance::euclidean_matrix;
use analysis::pca::Pca;
use datasets::Scale;
use tracekit::{Profile, ProfileConfig};

use crate::engine::StudySession;
use crate::error::StudyError;
use crate::features;
use crate::report::{f3, Table};
use crate::suite::combined_workloads;

/// The profiled corpus: every Rodinia and Parsec workload under the
/// Bienia methodology (8 threads, shared 4-way 64 B cache, 128 kB–16 MB).
#[derive(Debug)]
pub struct ComparisonStudy {
    /// Workload labels in Figure 6 style (`name(R)` / `name(P)`).
    pub labels: Vec<String>,
    /// One profile per workload, same order as `labels`.
    pub profiles: Vec<Profile>,
}

/// A 2-D PCA scatter (one of Figures 7–9).
#[derive(Debug, Clone)]
pub struct Scatter {
    /// Title.
    pub title: String,
    /// Workload labels.
    pub labels: Vec<String>,
    /// `(pc1, pc2)` coordinates per workload.
    pub points: Vec<(f64, f64)>,
    /// Variance explained by the two plotted components.
    pub variance_explained: (f64, f64),
}

impl Scatter {
    /// The coordinates of one workload (by label prefix, so
    /// `"mummergpu"` matches `"mummergpu(R)"`).
    ///
    /// # Panics
    ///
    /// Panics if the workload is not in the study.
    pub fn point(&self, name: &str) -> (f64, f64) {
        let idx = self
            .labels
            .iter()
            .position(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} not in study"));
        self.points[idx]
    }

    /// Distance of a workload from the centroid of all points, in
    /// multiples of the mean distance — an outlier score.
    pub fn outlier_score(&self, name: &str) -> f64 {
        let n = self.points.len() as f64;
        let cx = self.points.iter().map(|p| p.0).sum::<f64>() / n;
        let cy = self.points.iter().map(|p| p.1).sum::<f64>() / n;
        let d = |p: (f64, f64)| ((p.0 - cx).powi(2) + (p.1 - cy).powi(2)).sqrt();
        let mean_d = self.points.iter().map(|&p| d(p)).sum::<f64>() / n;
        d(self.point(name)) / mean_d.max(1e-12)
    }

    /// Renders the scatter coordinates.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(&self.title, &["Workload", "PC1", "PC2"]);
        for (l, p) in self.labels.iter().zip(&self.points) {
            t.push(vec![l.clone(), f3(p.0), f3(p.1)])?;
        }
        Ok(t)
    }
}

impl ComparisonStudy {
    /// Profiles all 24 workloads at the given scale. This is the
    /// expensive step; every figure below reuses the result.
    ///
    /// One fan-out over the session pool, one job per workload: the job
    /// keeps the workload's profile and no trace. It replays a capture
    /// already resident in the session's CPU trace cache; with a store
    /// attached it restores or captures (and persists) one and drops it
    /// after the replay; otherwise it profiles the workload live. So at
    /// most one trace per worker is alive at a time, and none without a
    /// store. Results are reassembled in submission order, so the study
    /// is byte-identical for any `--jobs` value.
    ///
    /// # Errors
    ///
    /// [`StudyError::Trace`] if the profile configuration is invalid
    /// (the lowest-index failing job wins, as with every engine
    /// fan-out).
    pub fn run(session: &StudySession, scale: Scale) -> Result<ComparisonStudy, StudyError> {
        let _span = obs::span!("comparison.profile_corpus");
        let cfg = ProfileConfig::default();
        let workloads = combined_workloads(scale);
        let labels: Vec<String> = workloads.iter().map(|w| w.label.clone()).collect();
        let profiles = session.run_indexed(workloads.len(), |i| {
            let w = &workloads[i];
            session
                .cpu_cache()
                .profile_workload(&w.label, w.workload.as_ref(), scale, &cfg)
        })?;
        Ok(ComparisonStudy { labels, profiles })
    }

    fn scatter(
        &self,
        title: &str,
        features_of: impl Fn(&Profile) -> Vec<f64>,
    ) -> Result<Scatter, StudyError> {
        let data: Vec<Vec<f64>> = self.profiles.iter().map(features_of).collect();
        let pca = Pca::try_fit(&data)?;
        let ve = pca.variance_explained();
        Ok(Scatter {
            title: title.to_string(),
            labels: self.labels.clone(),
            points: pca.scores.iter().map(|r| (r[0], r[1])).collect(),
            variance_explained: (ve[0], *ve.get(1).unwrap_or(&0.0)),
        })
    }

    /// Figure 7: the instruction-mix PCA scatter.
    pub fn instruction_mix_pca(&self) -> Result<Scatter, StudyError> {
        self.scatter(
            "Figure 7: instruction mix (two PCA components)",
            features::instruction_mix_features,
        )
    }

    /// Figure 8: the working-set PCA scatter.
    pub fn working_set_pca(&self) -> Result<Scatter, StudyError> {
        self.scatter(
            "Figure 8: working sets (two PCA components)",
            features::working_set_features,
        )
    }

    /// Figure 9: the sharing PCA scatter.
    pub fn sharing_pca(&self) -> Result<Scatter, StudyError> {
        self.scatter(
            "Figure 9: sharing behavior (two PCA components)",
            features::sharing_features,
        )
    }

    /// The merges of the Figure 6 dendrogram: PCA over the full feature
    /// vector (components covering ≥ 90% variance), Euclidean distance,
    /// average linkage (MATLAB's default). A degenerate profile corpus
    /// (empty, NaN features) surfaces as [`StudyError::Analysis`].
    pub fn cluster_merges(&self) -> Result<Vec<analysis::cluster::Merge>, StudyError> {
        let data: Vec<Vec<f64>> = self.profiles.iter().map(features::full_features).collect();
        let pca = Pca::try_fit(&data)?;
        let k = pca.components_for(0.9);
        let scores = pca.truncated_scores(k);
        let dist = euclidean_matrix(&scores);
        Ok(try_hierarchical(&dist, Linkage::Average)?)
    }

    /// Figure 6: the rendered dendrogram.
    pub fn dendrogram(&self) -> Result<String, StudyError> {
        Ok(render_dendrogram(&self.labels, &self.cluster_merges()?))
    }

    /// Flat cluster labels at a chosen cluster count (for the mixing
    /// analysis: most clusters should contain both suites).
    pub fn flat(&self, k: usize) -> Result<Vec<usize>, StudyError> {
        Ok(try_flat_clusters(
            self.labels.len(),
            &self.cluster_merges()?,
            k,
        )?)
    }

    /// Figure 10: misses per memory reference under the 4 MB cache.
    pub fn miss_rates_4mb(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 10: miss rates under a 4 MB cache configuration",
            &["Workload", "Misses per memory reference"],
        );
        for (l, p) in self.labels.iter().zip(&self.profiles) {
            t.push(vec![
                l.clone(),
                f3(p.at_capacity(4 * 1024 * 1024).miss_rate()),
            ])?;
        }
        Ok(t)
    }

    /// Distance between two workloads in the full-feature PCA space used
    /// for clustering (by label prefix) — the quantity the paper's
    /// taxonomy discussion (Section V.B) compares.
    ///
    /// # Panics
    ///
    /// Panics if either workload is not in the study.
    pub fn pc_distance(&self, a: &str, b: &str) -> Result<f64, StudyError> {
        let data: Vec<Vec<f64>> = self.profiles.iter().map(features::full_features).collect();
        let pca = Pca::try_fit(&data)?;
        let k = pca.components_for(0.9);
        let scores = pca.truncated_scores(k);
        let idx = |name: &str| {
            self.labels
                .iter()
                .position(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("{name} not in study"))
        };
        Ok(analysis::distance::euclidean(
            &scores[idx(a)],
            &scores[idx(b)],
        ))
    }

    /// The Section V.B taxonomy discussion as a table: the paper's
    /// same-dwarf / same-domain pairs with their measured distances,
    /// against the reference pairs the paper contrasts them with.
    pub fn taxonomy_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Section V.B: distances behind the taxonomy discussion",
            &["Pair", "Relation", "Distance"],
        );
        let pairs: [(&str, &str, &str); 6] = [
            (
                "srad",
                "fluidanimate",
                "both stencil-type (similar per the paper)",
            ),
            (
                "hotspot",
                "heartwall",
                "same dwarf (Structured Grid), different clusters",
            ),
            (
                "backprop",
                "cfd",
                "same dwarf (Unstructured Grid), significant differences",
            ),
            (
                "mummergpu",
                "bfs",
                "same dwarf (Graph Traversal), very dissimilar",
            ),
            (
                "kmeans",
                "streamcluster",
                "same domain (distance-based clustering), far apart",
            ),
            (
                "fluidanimate",
                "facesim",
                "different dwarves, yet closer than fluidanimate-cfd",
            ),
        ];
        for (a, b, rel) in pairs {
            t.push(vec![
                format!("{a} vs {b}"),
                rel.to_string(),
                format!("{:.3}", self.pc_distance(a, b)?),
            ])?;
        }
        Ok(t)
    }

    /// The 4 MB miss rate of one workload (by label prefix).
    ///
    /// # Panics
    ///
    /// Panics if the workload is not in the study.
    pub fn miss_rate_4mb(&self, name: &str) -> f64 {
        let idx = self
            .labels
            .iter()
            .position(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} not in study"));
        self.profiles[idx].at_capacity(4 * 1024 * 1024).miss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One shared Tiny study for all tests in this module: profiling 24
    // workloads is the expensive part.
    fn study() -> &'static ComparisonStudy {
        use std::sync::OnceLock;
        static STUDY: OnceLock<ComparisonStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            ComparisonStudy::run(&StudySession::new(2), Scale::Tiny).expect("tiny study")
        })
    }

    #[test]
    fn study_covers_24_workloads() {
        let s = study();
        assert_eq!(s.labels.len(), 24);
        assert_eq!(s.profiles.len(), 24);
    }

    #[test]
    fn dendrogram_names_every_workload() {
        let s = study();
        let d = s.dendrogram().expect("dendrogram renders");
        for l in &s.labels {
            assert!(d.contains(l.as_str()), "{l} missing from dendrogram");
        }
    }

    #[test]
    fn clusters_mix_the_two_suites() {
        // The paper's key finding: "most clusters contain both Rodinia
        // and Parsec applications".
        let s = study();
        let labels = s.flat(5).expect("flat clusters");
        let mut mixed = 0;
        for c in 0..5 {
            let members: Vec<&String> = s
                .labels
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| l == c)
                .map(|(n, _)| n)
                .collect();
            let has_r = members.iter().any(|m| m.contains("(R"));
            let has_p = members
                .iter()
                .any(|m| m.contains("(P)") || m.contains("R, P"));
            if has_r && has_p {
                mixed += 1;
            }
        }
        assert!(mixed >= 2, "at least two mixed clusters expected");
    }

    #[test]
    fn mummer_is_the_working_set_outlier() {
        let s = study();
        let ws = s.working_set_pca().expect("pca");
        let score = ws.outlier_score("mummergpu");
        assert!(score > 1.5, "MUMmer outlier score {score}");
    }

    #[test]
    fn heartwall_stands_out_in_sharing() {
        let s = study();
        let sh = s.sharing_pca().expect("pca");
        let score = sh.outlier_score("heartwall");
        assert!(score > 1.2, "Heartwall sharing outlier score {score}");
    }

    #[test]
    fn scatters_have_two_components() {
        let s = study();
        for sc in [
            s.instruction_mix_pca(),
            s.working_set_pca(),
            s.sharing_pca(),
        ] {
            let sc = sc.expect("pca");
            assert_eq!(sc.points.len(), 24);
            assert!(sc.variance_explained.0 > 0.0);
            assert!(sc.to_table().expect("renders").to_string().contains("PC1"));
        }
    }
}
