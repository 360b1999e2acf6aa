//! The Plackett–Burman GPU sensitivity study (Section III.E).
//!
//! Nine architectural parameters are screened with the PB-12 design
//! (Yi et al.): core clock, SIMD width, shared-memory size, bank-conflict
//! modeling, register-file size, thread capacity, memory clock, channel
//! count, and DRAM bus width. Each benchmark's kernel trace is captured
//! once and re-timed under all twelve design points — valid because none
//! of the nine factors changes functional execution or trace capture
//! (warp size and coalescing granularity are held at their defaults).

use analysis::plackett_burman::{pb12, PbResult};
use datasets::Scale;
use rodinia_gpu::suite::all_benchmarks;
use simt::GpuConfig;
use store::SweepJournal;

use crate::engine::StudySession;
use crate::error::StudyError;
use crate::report::{f1, Table};

/// The nine screened factors, in design-column order.
pub const FACTORS: [&str; 9] = [
    "core clock",
    "SIMD width",
    "shared mem size",
    "bank conflict",
    "register file",
    "threads/SM",
    "memory clock",
    "mem channels",
    "DRAM bus width",
];

/// Builds the GPU configuration for one design row (−1 = low level,
/// +1 = high level; the paper's ranges).
pub fn config_for(row: &[i8; 11]) -> GpuConfig {
    let hi = |j: usize| row[j] > 0;
    let mut cfg = GpuConfig::gpgpusim_default();
    cfg.name = "pb".to_string();
    cfg.core_clock_ghz = if hi(0) { 1.5 } else { 1.2 };
    cfg.simd_width = if hi(1) { 32 } else { 16 };
    cfg.shared_mem_per_sm = if hi(2) { 32 * 1024 } else { 16 * 1024 };
    cfg.model_bank_conflicts = hi(3);
    cfg.regs_per_sm = if hi(4) { 32_768 } else { 16_384 };
    cfg.max_threads_per_sm = if hi(5) { 2048 } else { 1024 };
    // The paper screens 800 MHz-1 GHz; scaled to this model's
    // calibrated 2 GHz GDDR baseline while keeping the paper's 0.8x
    // low-to-high ratio.
    cfg.mem_clock_ghz = if hi(6) { 2.0 } else { 1.6 };
    cfg.mem_channels = if hi(7) { 8 } else { 4 };
    cfg.dram_bus_bytes = if hi(8) { 8 } else { 4 };
    cfg
}

/// The study result: per-benchmark factor effects on total execution
/// cycles.
#[derive(Debug, Clone)]
pub struct PbStudy {
    /// `(abbrev, result)` per benchmark.
    pub per_benchmark: Vec<(String, PbResult)>,
}

impl PbStudy {
    /// Mean normalized absolute effect of each factor across the
    /// benchmarks (each benchmark's effects normalized by its largest).
    pub fn aggregate(&self) -> Vec<(String, f64)> {
        let nf = FACTORS.len();
        let mut agg = vec![0.0f64; nf];
        for (_, res) in &self.per_benchmark {
            let max = res
                .effects
                .iter()
                .map(|e| e.abs())
                .fold(0.0f64, f64::max)
                .max(1e-12);
            for (a, e) in agg.iter_mut().zip(&res.effects) {
                *a += e.abs() / max;
            }
        }
        let n = self.per_benchmark.len().max(1) as f64;
        let mut pairs: Vec<(String, f64)> = FACTORS
            .iter()
            .map(std::string::ToString::to_string)
            .zip(agg.into_iter().map(|a| a / n))
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        pairs
    }

    /// Renders the per-benchmark ranked effects.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Plackett-Burman sensitivity: top factors per benchmark (effect on cycles)",
            &["Benchmark", "1st", "2nd", "3rd"],
        );
        for (name, res) in &self.per_benchmark {
            let ranked = res.ranked();
            t.push(vec![
                name.clone(),
                format!("{} ({})", ranked[0].0, f1(ranked[0].1)),
                format!("{} ({})", ranked[1].0, f1(ranked[1].1)),
                format!("{} ({})", ranked[2].0, f1(ranked[2].1)),
            ])?;
        }
        Ok(t)
    }

    /// Renders the aggregate factor ranking.
    pub fn aggregate_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Plackett-Burman sensitivity: aggregate factor importance",
            &["Factor", "Mean normalized |effect|"],
        );
        for (f, v) in self.aggregate() {
            t.push(vec![f, format!("{v:.3}")])?;
        }
        Ok(t)
    }
}

/// Runs the PB study over the whole suite (or a named subset).
///
/// Each benchmark's trace is captured once — none of the nine screened
/// factors changes functional execution — and the 12 design points are
/// pure replays, fanned as `benchmarks × 12` independent jobs over the
/// session's worker pool. Design-point configurations that fail
/// [`GpuConfig::validate`] and malformed effect analyses surface as
/// typed [`StudyError`]s.
pub fn run(
    session: &StudySession,
    scale: Scale,
    subset: Option<&[&str]>,
) -> Result<PbStudy, StudyError> {
    let design = pb12();
    let configs: Vec<GpuConfig> = design.iter().map(config_for).collect();
    let benches: Vec<_> = all_benchmarks(scale)
        .into_iter()
        .filter(|b| subset.is_none_or(|names| names.contains(&b.abbrev())))
        .collect();
    let nc = configs.len();
    // Checkpointing: with a store attached, every completed response is
    // journaled durably under a key spelling the whole study (design,
    // scale, benchmark list), so a killed sweep resumes from its last
    // durable response. Responses are pure functions of the study key,
    // which is why restored values are indistinguishable from
    // recomputed ones — resume is a cache hit, not a semantic fork. A
    // journal that cannot be opened or appended only costs
    // resumability, never the study.
    let study_key = format!(
        "pb12/{scale:?}/{}",
        benches
            .iter()
            .map(|b| b.abbrev())
            .collect::<Vec<_>>()
            .join("+")
    );
    let journal = session.store().and_then(|s| {
        let name = format!("pb12-{:016x}.sweep", store::fnv1a64(study_key.as_bytes()));
        match SweepJournal::open(&s.journal_path(&name), &study_key) {
            Ok(opened) => Some(opened),
            Err(e) => {
                eprintln!("store: sweep journal unavailable ({e}); running without checkpoints");
                None
            }
        }
    });
    // Response: total cycles under each design point, flattened as
    // (benchmark-major, design-point-minor) jobs. Capturing under the
    // first design point (all PB configs share the default capture
    // fingerprint) makes the capture pass's own timing leg double as
    // design point 0 — `stats_for` hits the stored baseline there and
    // replays the other eleven. If another experiment already captured
    // this benchmark under a different configuration, the cache entry is
    // reused and design point 0 replays like the rest; either way the
    // responses are identical (replay ≡ direct run).
    let responses = session.run_indexed(benches.len() * nc, |j| {
        if let Some((_, done)) = &journal {
            if let Some(&response) = done.get(&j) {
                obs::Registry::global().incr("store.sweep_restored");
                return Ok(response);
            }
        }
        let b = benches[j / nc].as_ref();
        let cfg = &configs[j % nc];
        let _bench = obs::span!("bench.{}", b.abbrev());
        let run = session.cache().capture_benchmark(b, scale, &configs[0])?;
        let response = run.stats_for(cfg, &session.replay_options())?.cycles as f64;
        if let Some((j_out, _)) = &journal {
            if j_out.record(j, response).is_err() {
                obs::Registry::global().incr("store.journal_error");
            }
        }
        Ok(response)
    })?;
    let mut per_benchmark = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        per_benchmark.push((
            b.abbrev().to_string(),
            PbResult::try_analyze(&FACTORS, &design, &responses[bi * nc..(bi + 1) * nc])?,
        ));
    }
    Ok(PbStudy { per_benchmark })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_configs_are_valid() {
        for row in pb12() {
            let cfg = config_for(&row);
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn simd_width_and_channels_dominate() {
        // The paper: "SIMD width and the number of memory channels have
        // the largest impacts on benchmark performance". Screen a
        // compute-bound and two memory-bound benchmarks.
        let session = StudySession::new(2);
        let study = run(&session, Scale::Tiny, Some(&["HS", "BFS", "CFD"])).expect("pb runs");
        assert_eq!(study.per_benchmark.len(), 3);
        // Capture-once: one cache entry per benchmark despite 12 design
        // points each.
        assert_eq!(session.cache().len(), 3);
        let agg = study.aggregate();
        let top2: Vec<&str> = agg.iter().take(2).map(|(f, _)| f.as_str()).collect();
        assert!(
            top2.contains(&"SIMD width") || top2.contains(&"mem channels"),
            "top factors: {agg:?}"
        );
        // Every factor got an effect estimate.
        for (_, res) in &study.per_benchmark {
            assert_eq!(res.effects.len(), 9);
        }
        assert!(study
            .to_table()
            .expect("renders")
            .to_string()
            .contains("BFS"));
        assert!(study
            .aggregate_table()
            .expect("renders")
            .to_string()
            .contains("SIMD"));
    }
}
