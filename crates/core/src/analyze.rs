//! The `repro analyze` driver: suite-wide critical-path attribution.
//!
//! For every suite benchmark this captures (or reuses) the workload
//! through the shared [`TraceCache`](crate::trace_cache::TraceCache),
//! converts its [`simt::StallBreakdown`] and adaptive occupancy/DRAM
//! timeline into an [`obs::critpath::KernelAttribution`], and runs
//! [`obs::critpath::analyze`] over the set: per benchmark the dominant
//! stall chain ("`LUD` is barrier-bound: removing barrier stalls would
//! cut up to 34% of cycles"), and across the suite a ranked account of
//! which components hold how much of the total cycle budget.
//!
//! **Conservation is the contract.** The engine proves that its six
//! stall components sum exactly to `num_sms * cycles`; the attribution
//! here forwards those components untouched, so the manifest's
//! `attributed_sm_cycles` per kernel equals the engine's own stall
//! total — asserted by the `analyze_critpath` acceptance test, and the
//! reason downstream tooling can trust the percentages.
//!
//! The written `CRITPATH_manifest.json` (schema
//! [`CRITPATH_SCHEMA`]) contains no wall-clock state, so two runs of
//! the same suite at the same scale are byte-identical — the property
//! the CI determinism gate diffs with `cmp`.

use std::path::{Path, PathBuf};

use datasets::Scale;
use obs::critpath::{analyze, Component, CritPath, KernelAttribution, SamplePoint};
use obs::Json;
use rodinia_gpu::suite::all_benchmarks;
use simt::{GpuConfig, KernelStats};

use crate::engine::StudySession;
use crate::error::StudyError;
use crate::manifest::scale_str;
use crate::report::Table;
use crate::request::Verdict;

pub use crate::manifest::{CRITPATH_FILE, CRITPATH_SCHEMA};

/// Default chain depth of the per-benchmark bottleneck ranking.
pub const DEFAULT_TOP_K: usize = 3;

/// Converts one benchmark's engine statistics into a critical-path
/// attribution.
///
/// The six stall components are forwarded cycle-exact, so the
/// attribution's budget equals [`simt::StallBreakdown::total`]
/// (`num_sms * cycles`). `issue` is the useful-work class — counted in
/// the budget, excluded from bottleneck rankings; the five stall
/// classes are removable.
pub fn attribution_of(label: &str, stats: &KernelStats) -> KernelAttribution {
    let comp = |name: &str, cycles: u64, removable: bool| Component {
        name: name.to_string(),
        cycles,
        removable,
    };
    let s = &stats.stall;
    KernelAttribution {
        name: label.to_string(),
        config: stats.config.clone(),
        cycles: stats.cycles,
        components: vec![
            comp("issue", s.issue, false),
            comp("mem_pending", s.mem_pending, true),
            comp("bank_conflict", s.bank_conflict, true),
            comp("divergence", s.divergence, true),
            comp("barrier", s.barrier, true),
            comp("empty", s.empty, true),
        ],
        samples: stats
            .timeline
            .samples
            .iter()
            .map(|t| SamplePoint {
                cycle: t.cycle,
                occupancy: t.occupancy,
                dram_util: t.dram_util,
            })
            .collect(),
    }
}

/// The full `repro analyze` result.
#[derive(Debug)]
pub struct AnalyzeReport {
    /// Scale the suite ran at.
    pub scale: Scale,
    /// The critical-path analysis over every suite benchmark.
    pub critpath: CritPath,
}

impl AnalyzeReport {
    /// The `CRITPATH_manifest.json` document: schema and scale tags
    /// followed by the [`CritPath`] payload. Deterministic — nothing
    /// wall-clock-dependent is included.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema".to_string(), Json::from(CRITPATH_SCHEMA)),
            ("scale".to_string(), Json::from(scale_str(self.scale))),
        ];
        if let Json::Obj(inner) = self.critpath.to_json() {
            pairs.extend(inner);
        }
        Json::Obj(pairs)
    }
}

impl Verdict for AnalyzeReport {
    fn section(&self) -> &'static str {
        "critpath"
    }

    /// One row per benchmark with its dominant bottleneck and the
    /// what-if payoff of removing it.
    fn summary_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            &format!("Critical-path attribution ({:?} scale)", self.scale),
            &[
                "Benchmark",
                "Cycles",
                "Dominant",
                "Cut up to",
                "Occupancy dip",
            ],
        );
        for k in &self.critpath.kernels {
            let (dominant, cut) = k.dominant.as_ref().map_or_else(
                || ("-".to_string(), "-".to_string()),
                |d| (d.component.clone(), format!("{:.1}%", d.fraction * 100.0)),
            );
            let dip = k.hotspot.as_ref().map_or_else(
                || "-".to_string(),
                |h| format!("{:.1}% @ {}", h.dip_occupancy * 100.0, h.dip_cycle),
            );
            t.push(vec![
                k.name.clone(),
                k.cycles.to_string(),
                dominant,
                cut,
                dip,
            ])?;
        }
        Ok(t)
    }

    /// The per-benchmark verdicts and suite ranking.
    fn console_lines(&self) -> Vec<String> {
        self.critpath.render()
    }

    fn body_json(&self) -> Json {
        self.to_json()
    }

    /// The suite ranking plus each benchmark's dominant component.
    fn manifest_section(&self) -> Json {
        Json::obj(vec![
            (
                "dominant",
                Json::Obj(
                    self.critpath
                        .kernels
                        .iter()
                        .map(|k| {
                            (
                                k.name.clone(),
                                k.dominant
                                    .as_ref()
                                    .map_or(Json::Null, |d| Json::from(d.component.as_str())),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "ranking",
                Json::Arr(
                    self.critpath
                        .ranking
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("component", Json::from(r.component.as_str())),
                                ("cycles", Json::u64(r.cycles)),
                                ("dominates", Json::u64(r.dominates as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the manifest to `dir/CRITPATH_manifest.json` through the
    /// [`ManifestKind`](crate::manifest::ManifestKind) registry
    /// (atomic, creating `dir` if needed).
    fn write(&self, dir: &Path) -> Result<PathBuf, StudyError> {
        crate::manifest::write_manifest(
            dir,
            crate::manifest::ManifestKind::Critpath,
            &self.to_json(),
        )
    }
}

/// Runs critical-path attribution across the whole suite.
///
/// Each benchmark captures at most once (shared
/// [`TraceCache`](crate::trace_cache::TraceCache)); attribution then
/// reads the capture-configuration baseline statistics, so `analyze`
/// after a tables run in the same session (or over a warm store) costs
/// no extra simulation. `check` and `audit` run directly and leave
/// the cache cold.
/// Jobs fan out across the session's workers; results come back in
/// suite order regardless of worker count.
///
/// # Errors
///
/// [`StudyError::Sim`] if a capture fails.
pub fn run_analyze(
    session: &StudySession,
    scale: Scale,
    top_k: usize,
) -> Result<AnalyzeReport, StudyError> {
    let cfg = GpuConfig::gpgpusim_default();
    let benches = all_benchmarks(scale);
    let attributions = session.run_indexed(benches.len(), |i| {
        let b = &benches[i];
        let _span = obs::span!("analyze.{}", b.abbrev());
        let run = session.cache().capture_benchmark(b.as_ref(), scale, &cfg)?;
        let stats = run.stats_for(&cfg, &session.replay_options())?;
        Ok(attribution_of(b.abbrev(), &stats))
    })?;
    Ok(AnalyzeReport {
        scale,
        critpath: analyze(&attributions, top_k),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_stats() -> KernelStats {
        KernelStats {
            name: "k".into(),
            config: "cfg".into(),
            cycles: 100,
            thread_instructions: 0,
            warp_instructions: 0,
            mem_mix: simt::MemMix::default(),
            occupancy: simt::OccupancyHistogram::new(32),
            dram_bytes: 0,
            dram_busy_cycles: 0,
            peak_bytes_per_cycle: 1.0,
            core_clock_ghz: 1.0,
            l1_hits: 0,
            l1_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
            tex_hits: 0,
            tex_misses: 0,
            stall: simt::StallBreakdown {
                issue: 40,
                barrier: 35,
                mem_pending: 15,
                empty: 10,
                ..simt::StallBreakdown::default()
            },
            timeline: simt::Timeline::default(),
            launches: 1,
        }
    }

    #[test]
    fn attribution_forwards_stall_components_cycle_exact() {
        let stats = demo_stats();
        let a = attribution_of("LUD", &stats);
        let total: u64 = a.components.iter().map(|c| c.cycles).sum();
        assert_eq!(total, stats.stall.total(), "conservation");
        assert_eq!(a.name, "LUD");
        let issue = a.components.iter().find(|c| c.name == "issue").unwrap();
        assert!(!issue.removable, "useful work is not a bottleneck");
        assert!(a.components.iter().filter(|c| c.removable).count() == 5);
    }

    #[test]
    fn report_document_is_tagged_and_deterministic() {
        let mk = || {
            let a = attribution_of("LUD", &demo_stats());
            AnalyzeReport {
                scale: Scale::Tiny,
                critpath: analyze(&[a], DEFAULT_TOP_K),
            }
        };
        let a = mk().to_json().to_string();
        let b = mk().to_json().to_string();
        assert_eq!(a, b, "same inputs render the same bytes");
        let doc = Json::parse(&a).expect("parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(CRITPATH_SCHEMA)
        );
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("tiny"));
        assert!(doc.get("kernels").is_some());
        assert!(
            !a.contains("wall_us"),
            "no wall-clock state in the manifest"
        );
    }

    #[test]
    fn summary_table_names_the_dominant_component() {
        let a = attribution_of("LUD", &demo_stats());
        let report = AnalyzeReport {
            scale: Scale::Tiny,
            critpath: analyze(&[a], DEFAULT_TOP_K),
        };
        let t = report.summary_table().expect("table");
        let text = t.to_string();
        assert!(text.contains("LUD"));
        assert!(text.contains("barrier"));
        let section = report.manifest_section();
        assert_eq!(
            section
                .get("dominant")
                .and_then(|d| d.get("LUD"))
                .and_then(Json::as_str),
            Some("barrier")
        );
    }
}
