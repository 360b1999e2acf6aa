//! The experiment registry: one entry per table/figure of the paper.

use datasets::Scale;
use simt::GpuConfig;

use crate::characterization;
use crate::comparison::ComparisonStudy;
use crate::engine::StudySession;
use crate::error::StudyError;
use crate::footprints;
use crate::report::Table;
use crate::sensitivity;
use crate::suite;

/// Identifier of a reproducible artifact of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table I: the Rodinia suite.
    Table1,
    /// Table II: the GPGPU-Sim configuration.
    Table2,
    /// Figure 1: IPC over 8 and 28 shaders.
    Fig1,
    /// Figure 2: memory-operation breakdown.
    Fig2,
    /// Figure 3: warp occupancies.
    Fig3,
    /// Figure 4: memory-channel sweep.
    Fig4,
    /// Table III: incrementally optimized versions.
    Table3,
    /// Figure 5: Fermi (GTX 480) configurations vs GTX 280.
    Fig5,
    /// Section III.E: Plackett–Burman sensitivity.
    PlackettBurman,
    /// Table IV: Parsec vs Rodinia feature comparison.
    Table4,
    /// Table V: the Parsec catalog.
    Table5,
    /// Figure 6: cross-suite dendrogram.
    Fig6,
    /// Figure 7: instruction-mix PCA.
    Fig7,
    /// Figure 8: working-set PCA.
    Fig8,
    /// Figure 9: sharing PCA.
    Fig9,
    /// Figure 10: 4 MB miss rates.
    Fig10,
    /// Figure 11: instruction footprints.
    Fig11,
    /// Figure 12: data footprints.
    Fig12,
}

impl ExperimentId {
    /// All artifacts in paper order.
    pub fn all() -> Vec<ExperimentId> {
        use ExperimentId::*;
        vec![
            Table1,
            Table2,
            Fig1,
            Fig2,
            Fig3,
            Fig4,
            Table3,
            Fig5,
            PlackettBurman,
            Table4,
            Table5,
            Fig6,
            Fig7,
            Fig8,
            Fig9,
            Fig10,
            Fig11,
            Fig12,
        ]
    }

    /// Parses a CLI/API artifact name (`"fig1"`, `"table3"`, `"pb"`,
    /// case-insensitive) into its id. This is the single name table
    /// shared by the `repro` argument parser and the `repro serve`
    /// JSON decoder; [`ExperimentId::name`] is its inverse.
    pub fn parse(name: &str) -> Option<ExperimentId> {
        use ExperimentId::*;
        Some(match name.to_ascii_lowercase().as_str() {
            "table1" => Table1,
            "table2" => Table2,
            "table3" => Table3,
            "table4" => Table4,
            "table5" => Table5,
            "fig1" => Fig1,
            "fig2" => Fig2,
            "fig3" => Fig3,
            "fig4" => Fig4,
            "fig5" => Fig5,
            "pb" | "sensitivity" => PlackettBurman,
            "fig6" => Fig6,
            "fig7" => Fig7,
            "fig8" => Fig8,
            "fig9" => Fig9,
            "fig10" => Fig10,
            "fig11" => Fig11,
            "fig12" => Fig12,
            _ => return None,
        })
    }

    /// The canonical artifact name, as accepted by
    /// [`ExperimentId::parse`] and spelled into study keys and
    /// manifests.
    pub fn name(self) -> &'static str {
        use ExperimentId::*;
        match self {
            Table1 => "table1",
            Table2 => "table2",
            Table3 => "table3",
            Table4 => "table4",
            Table5 => "table5",
            Fig1 => "fig1",
            Fig2 => "fig2",
            Fig3 => "fig3",
            Fig4 => "fig4",
            Fig5 => "fig5",
            PlackettBurman => "pb",
            Fig6 => "fig6",
            Fig7 => "fig7",
            Fig8 => "fig8",
            Fig9 => "fig9",
            Fig10 => "fig10",
            Fig11 => "fig11",
            Fig12 => "fig12",
        }
    }

    /// Whether this artifact needs the profiled 24-workload comparison
    /// corpus (and therefore [`run_comparison`] instead of [`run_gpu`]).
    pub fn needs_corpus(self) -> bool {
        use ExperimentId::*;
        matches!(self, Fig6 | Fig7 | Fig8 | Fig9 | Fig10 | Fig11 | Fig12)
    }
}

/// Renders Table II from the default configuration.
pub fn table2() -> Result<Table, StudyError> {
    let c = GpuConfig::gpgpusim_default();
    let mut t = Table::new("Table II: GPGPU-Sim configuration", &["Parameter", "Value"]);
    let rows: Vec<(&str, String)> = vec![
        ("Clock Frequency", format!("{} GHz", c.core_clock_ghz)),
        ("No. of SMs", c.num_sms.to_string()),
        ("Warp Size", c.warp_size.to_string()),
        ("SIMD pipeline width", c.simd_width.to_string()),
        ("No. of Threads/Core", c.max_threads_per_sm.to_string()),
        ("No. of CTAs/Core", c.max_ctas_per_sm.to_string()),
        ("Number of Registers/Core", c.regs_per_sm.to_string()),
        (
            "Shared Memory/Core",
            format!("{} kB", c.shared_mem_per_sm / 1024),
        ),
        (
            "Shared Memory Bank Conflict",
            c.model_bank_conflicts.to_string(),
        ),
        ("No. of Memory Channels", c.mem_channels.to_string()),
    ];
    for (k, v) in rows {
        t.push(vec![k.into(), v])?;
    }
    Ok(t)
}

/// Renders Table V from the parsec-lite catalog.
pub fn table5() -> Result<Table, StudyError> {
    let mut t = Table::new(
        "Table V: Parsec applications and sim-large input sizes",
        &["Application", "Domain", "Problem size", "Description"],
    );
    for a in parsec_lite::catalog() {
        t.push(vec![
            a.name.into(),
            a.domain.into(),
            a.sim_large.into(),
            a.description.into(),
        ])?;
    }
    Ok(t)
}

/// Runs one GPU-side experiment (those not needing the CPU comparison
/// corpus) and returns its tables. Invalid configurations, malformed
/// analyses, and registry misuse all surface as a typed [`StudyError`].
///
/// Jobs fan over `session`'s worker pool and share its trace cache;
/// the rendered tables are byte-identical for any worker count. The
/// whole experiment runs inside an `experiment.{id}` span; GPU drivers
/// add `bench.{abbrev}` child spans per job.
pub fn run_gpu(
    session: &StudySession,
    id: ExperimentId,
    scale: Scale,
) -> Result<Vec<Table>, StudyError> {
    let _span = obs::span!("experiment.{id:?}");
    Ok(match id {
        ExperimentId::Table1 => vec![suite::rodinia_table(scale)?],
        ExperimentId::Table2 => vec![table2()?],
        ExperimentId::Fig1 => vec![characterization::ipc_scaling(session, scale)?.to_table()?],
        ExperimentId::Fig2 => vec![characterization::memory_mix(session, scale)?.to_table()?],
        ExperimentId::Fig3 => {
            vec![characterization::warp_occupancy(session, scale)?.to_table()?]
        }
        ExperimentId::Fig4 => {
            vec![characterization::channel_sweep(session, scale)?.to_table()?]
        }
        ExperimentId::Table3 => {
            vec![characterization::incremental_versions(session, scale)?.to_table()?]
        }
        ExperimentId::Fig5 => vec![characterization::fermi_study(session, scale)?.to_table()?],
        ExperimentId::PlackettBurman => {
            let study = sensitivity::run(session, scale, None)?;
            vec![study.to_table()?, study.aggregate_table()?]
        }
        ExperimentId::Table4 => vec![suite::comparison_table()?],
        ExperimentId::Table5 => vec![table5()?],
        other => {
            return Err(StudyError::Registry {
                id: format!("{other:?}"),
                reason: "needs the comparison corpus; use run_comparison",
            })
        }
    })
}

/// Runs one comparison-corpus experiment against an existing study.
///
/// Runs inside an `experiment.{id}` span like [`run_gpu`]; the
/// expensive corpus profiling is spanned separately by
/// [`ComparisonStudy::run`].
pub fn run_comparison(id: ExperimentId, study: &ComparisonStudy) -> Result<Vec<Table>, StudyError> {
    let _span = obs::span!("experiment.{id:?}");
    Ok(match id {
        ExperimentId::Fig6 => {
            let mut t = Table::new("Figure 6: cross-suite dendrogram", &["Dendrogram"]);
            for line in study.dendrogram()?.lines() {
                t.push(vec![line.to_string()])?;
            }
            vec![t]
        }
        ExperimentId::Fig7 => vec![study.instruction_mix_pca()?.to_table()?],
        ExperimentId::Fig8 => vec![study.working_set_pca()?.to_table()?],
        ExperimentId::Fig9 => vec![study.sharing_pca()?.to_table()?],
        ExperimentId::Fig10 => vec![study.miss_rates_4mb()?],
        ExperimentId::Fig11 => {
            vec![footprints::footprint_study(study).instruction_table()?]
        }
        ExperimentId::Fig12 => vec![footprints::footprint_study(study).data_table()?],
        other => {
            return Err(StudyError::Registry {
                id: format!("{other:?}"),
                reason: "is a GPU-side artifact; use run_gpu",
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_18_artifacts() {
        assert_eq!(ExperimentId::all().len(), 18);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for id in ExperimentId::all() {
            assert_eq!(ExperimentId::parse(id.name()), Some(id), "{id:?}");
        }
        assert_eq!(ExperimentId::parse("FIG1"), Some(ExperimentId::Fig1));
        assert_eq!(
            ExperimentId::parse("sensitivity"),
            Some(ExperimentId::PlackettBurman)
        );
        assert_eq!(ExperimentId::parse("fig99"), None);
    }

    #[test]
    fn table2_lists_the_paper_parameters() {
        let t = table2().expect("table2 renders");
        let s = t.to_string();
        assert!(s.contains("Warp Size"));
        assert!(s.contains("28"));
        assert!(s.contains("16384"));
    }

    #[test]
    fn table5_lists_thirteen_apps() {
        assert_eq!(table5().expect("table5 renders").rows.len(), 13);
    }

    #[test]
    fn cheap_gpu_experiments_run_at_tiny_scale() {
        let session = StudySession::sequential();
        for id in [
            ExperimentId::Table1,
            ExperimentId::Table4,
            ExperimentId::Fig2,
        ] {
            let tables = run_gpu(&session, id, Scale::Tiny).expect("experiment runs");
            assert!(!tables.is_empty());
            assert!(!tables[0].rows.is_empty());
        }
    }

    #[test]
    fn registry_misuse_yields_typed_error() {
        let session = StudySession::sequential();
        match run_gpu(&session, ExperimentId::Fig6, Scale::Tiny) {
            Err(StudyError::Registry { id, reason }) => {
                assert_eq!(id, "Fig6");
                assert!(reason.contains("needs the comparison corpus"));
            }
            other => panic!("expected StudyError::Registry, got {other:?}"),
        }
    }
}
