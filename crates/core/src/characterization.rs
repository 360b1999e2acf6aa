//! GPU characterization experiments (Section III: Figures 1–5 and
//! Table III).
//!
//! Every driver takes a [`StudySession`]: benchmarks are functionally
//! executed at most once per capture fingerprint (see
//! [`crate::trace_cache`]) and re-timed per machine configuration, with
//! the per-benchmark jobs fanned over the session's worker pool.
//! Results are reassembled in submission order, so the tables are
//! byte-identical for any `--jobs` count.

use datasets::Scale;
use rodinia_gpu::leukocyte::Leukocyte;
use rodinia_gpu::srad::Srad;
use rodinia_gpu::suite::all_benchmarks;
use simt::{GpuConfig, KernelStats, MemSpace};

use crate::engine::StudySession;
use crate::error::StudyError;
use crate::report::{f1, pct, Table};

/// Figure 1 data: per-benchmark IPC on the 8- and 28-shader
/// configurations.
#[derive(Debug, Clone)]
pub struct IpcScaling {
    /// `(abbrev, ipc_8sm, ipc_28sm)` per benchmark.
    pub rows: Vec<(String, f64, f64)>,
}

impl IpcScaling {
    /// Renders the figure's series as a table.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 1: IPC over 8-shader and 28-shader configurations",
            &["Benchmark", "IPC (8 SM)", "IPC (28 SM)", "Scaling"],
        );
        for (name, a, b) in &self.rows {
            t.push(vec![name.clone(), f1(*a), f1(*b), format!("{:.2}x", b / a)])?;
        }
        Ok(t)
    }

    /// IPC on 28 shaders for one benchmark.
    pub fn ipc28(&self, abbrev: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _, _)| n == abbrev)
            .map_or(0.0, |&(_, _, b)| b)
    }
}

/// Runs the Figure 1 experiment: each benchmark's trace is captured
/// once (under the 28-SM machine) and replayed on the 8-SM machine,
/// instead of functionally re-executing per configuration.
pub fn ipc_scaling(session: &StudySession, scale: Scale) -> Result<IpcScaling, StudyError> {
    let benches = all_benchmarks(scale);
    let base = GpuConfig::gpgpusim_default();
    let rows = session.run_indexed(benches.len(), |i| {
        let b = benches[i].as_ref();
        let _bench = obs::span!("bench.{}", b.abbrev());
        let run = session.cache().capture_benchmark(b, scale, &base)?;
        let s8 = run.stats_for(&GpuConfig::gpgpusim_8sm(), &session.replay_options())?;
        let s28 = run.stats_for(&base, &session.replay_options())?;
        Ok((b.abbrev().to_string(), s8.ipc(), s28.ipc()))
    })?;
    Ok(IpcScaling { rows })
}

/// Figure 2 data: memory-operation breakdown per benchmark.
#[derive(Debug, Clone)]
pub struct MemoryMix {
    /// `(abbrev, [shared, tex, const, param, global/local])` fractions.
    pub rows: Vec<(String, [f64; 5])>,
}

impl MemoryMix {
    /// Renders the stacked-bar data as a table.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 2: memory operation breakdown",
            &[
                "Benchmark",
                "Shared",
                "Tex",
                "Const",
                "Param",
                "Global/Local",
            ],
        );
        for (name, f) in &self.rows {
            let mut row = vec![name.clone()];
            row.extend(f.iter().map(|&x| pct(x)));
            t.push(row)?;
        }
        Ok(t)
    }

    /// The fraction vector for one benchmark.
    pub fn fractions(&self, abbrev: &str) -> [f64; 5] {
        self.rows
            .iter()
            .find(|(n, _)| n == abbrev)
            .map_or([0.0; 5], |&(_, f)| f)
    }
}

fn mix_fractions(stats: &KernelStats) -> [f64; 5] {
    [
        stats.mem_mix.fraction(MemSpace::Shared),
        stats.mem_mix.fraction(MemSpace::Texture),
        stats.mem_mix.fraction(MemSpace::Constant),
        stats.mem_mix.fraction(MemSpace::Param),
        stats.mem_mix.fraction(MemSpace::Global),
    ]
}

/// Runs the Figure 2 experiment.
pub fn memory_mix(session: &StudySession, scale: Scale) -> Result<MemoryMix, StudyError> {
    let benches = all_benchmarks(scale);
    let base = GpuConfig::gpgpusim_default();
    let rows = session.run_indexed(benches.len(), |i| {
        let b = benches[i].as_ref();
        let _bench = obs::span!("bench.{}", b.abbrev());
        let run = session.cache().capture_benchmark(b, scale, &base)?;
        let s = run.stats_for(&base, &session.replay_options())?;
        Ok((b.abbrev().to_string(), mix_fractions(&s)))
    })?;
    Ok(MemoryMix { rows })
}

/// Figure 3 data: warp-occupancy quartile fractions per benchmark.
#[derive(Debug, Clone)]
pub struct WarpOccupancy {
    /// `(abbrev, [1-8, 9-16, 17-24, 25-32])` fractions.
    pub rows: Vec<(String, [f64; 4])>,
}

impl WarpOccupancy {
    /// Renders the histogram data as a table.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 3: warp occupancies (active threads per issued warp)",
            &["Benchmark", "1-8", "9-16", "17-24", "25-32", "SIMD eff."],
        );
        for (name, q) in &self.rows {
            let mut row = vec![name.clone()];
            row.extend(q.iter().map(|&x| pct(x)));
            // Mean-lane estimate from the quartile midpoints.
            let eff: f64 = q
                .iter()
                .zip([4.5, 12.5, 20.5, 28.5])
                .map(|(f, mid)| f * mid)
                .sum::<f64>()
                / 32.0;
            row.push(pct(eff));
            t.push(row)?;
        }
        Ok(t)
    }

    /// Quartile fractions for one benchmark.
    pub fn quartiles(&self, abbrev: &str) -> [f64; 4] {
        self.rows
            .iter()
            .find(|(n, _)| n == abbrev)
            .map_or([0.0; 4], |&(_, q)| q)
    }
}

/// Runs the Figure 3 experiment.
pub fn warp_occupancy(session: &StudySession, scale: Scale) -> Result<WarpOccupancy, StudyError> {
    let benches = all_benchmarks(scale);
    let base = GpuConfig::gpgpusim_default();
    let rows = session.run_indexed(benches.len(), |i| {
        let b = benches[i].as_ref();
        let _bench = obs::span!("bench.{}", b.abbrev());
        let run = session.cache().capture_benchmark(b, scale, &base)?;
        let s = run.stats_for(&base, &session.replay_options())?;
        Ok((b.abbrev().to_string(), s.occupancy.quartile_fractions()))
    })?;
    Ok(WarpOccupancy { rows })
}

/// Figure 4 data: achieved-bandwidth improvement over 4/6/8 channels.
#[derive(Debug, Clone)]
pub struct ChannelSweep {
    /// `(abbrev, bw4, bw6, bw8)` achieved GB/s; the figure normalizes to
    /// the 4-channel case.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl ChannelSweep {
    /// Renders the normalized series.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 4: bandwidth improvement with memory channels (normalized to 4)",
            &["Benchmark", "4 ch", "6 ch", "8 ch"],
        );
        for (name, b4, b6, b8) in &self.rows {
            t.push(vec![
                name.clone(),
                "1.00".into(),
                format!("{:.2}", b6 / b4),
                format!("{:.2}", b8 / b4),
            ])?;
        }
        Ok(t)
    }

    /// Bandwidth improvement of the 8-channel over the 4-channel
    /// configuration for one benchmark.
    pub fn improvement8(&self, abbrev: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, ..)| n == abbrev)
            .map_or(0.0, |&(_, b4, _, b8)| b8 / b4)
    }
}

/// Runs the Figure 4 experiment. Every benchmark is captured once and
/// replayed under 4-, 6- and 8-channel machines (channel count does not
/// affect functional execution, so the shared trace is exact).
pub fn channel_sweep(session: &StudySession, scale: Scale) -> Result<ChannelSweep, StudyError> {
    let base = GpuConfig::gpgpusim_default();
    let benches = all_benchmarks(scale);
    let rows = session.run_indexed(benches.len(), |i| {
        let b = benches[i].as_ref();
        let _bench = obs::span!("bench.{}", b.abbrev());
        let run = session.cache().capture_benchmark(b, scale, &base)?;
        let mut bw = [0.0f64; 3];
        for (slot, ch) in bw.iter_mut().zip([4u32, 6, 8]) {
            let s = run.stats_for(&base.with_mem_channels(ch), &session.replay_options())?;
            *slot = s.achieved_bandwidth_gbps().max(1e-9);
        }
        Ok((b.abbrev().to_string(), bw[0], bw[1], bw[2]))
    })?;
    Ok(ChannelSweep { rows })
}

/// Table III data: the incrementally optimized versions of SRAD and
/// Leukocyte.
#[derive(Debug, Clone)]
pub struct IncrementalVersions {
    /// `(label, ipc, bw_utilization, shared_frac, const_frac, tex_frac,
    /// global_frac)` per version.
    pub rows: Vec<(String, f64, f64, f64, f64, f64, f64)>,
}

impl IncrementalVersions {
    /// Renders Table III.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Table III: incrementally optimized versions of SRAD and Leukocyte",
            &[
                "Version", "IPC", "BW Util", "Shared", "Const", "Tex", "Global",
            ],
        );
        for (name, ipc, bw, sh, cn, tx, gl) in &self.rows {
            t.push(vec![
                name.clone(),
                f1(*ipc),
                pct(*bw),
                pct(*sh),
                pct(*cn),
                pct(*tx),
                pct(*gl),
            ])?;
        }
        Ok(t)
    }

    fn row(&self, label: &str) -> Option<&(String, f64, f64, f64, f64, f64, f64)> {
        self.rows.iter().find(|r| r.0 == label)
    }

    /// IPC of a version by label (e.g. `"SRAD v2"`).
    pub fn ipc(&self, label: &str) -> f64 {
        self.row(label).map_or(0.0, |r| r.1)
    }

    /// Global-memory fraction of a version by label.
    pub fn global_frac(&self, label: &str) -> f64 {
        self.row(label).map_or(0.0, |r| r.6)
    }
}

/// Runs the Table III experiment: one job per incremental version.
/// The v1 rows are keyed in the trace cache by `(family, scale, "v1")`
/// and read by nothing else, so they are streamed
/// ([`crate::trace_cache::TraceCache::stream_fn`]) and freed after the
/// row; the v2 rows are the suite instances, so they share the suite
/// capture every other GPU experiment replays.
pub fn incremental_versions(
    session: &StudySession,
    scale: Scale,
) -> Result<IncrementalVersions, StudyError> {
    let base = GpuConfig::gpgpusim_default();
    // (label, cache family, variant) in table order.
    let versions: [(&str, &str, &'static str); 4] = [
        ("SRAD v1", "SRAD", "v1"),
        ("SRAD v2", "SRAD", "v2"),
        ("Leukocyte v1", "LC", "v1"),
        ("Leukocyte v2", "LC", "v2"),
    ];
    let rows = session.run_indexed(versions.len(), |i| {
        let (label, family, variant) = versions[i];
        let _bench = obs::span!("bench.{family}.{variant}");
        let cache = session.cache();
        let run = match (family, variant) {
            ("SRAD", "v1") => cache.stream_fn(family, scale, variant, &base, |gpu| {
                Srad::v1(scale).run(gpu)
            }),
            ("LC", "v1") => cache.stream_fn(family, scale, variant, &base, |gpu| {
                Leukocyte::v1(scale).run(gpu)
            }),
            ("SRAD", _) => cache.capture_benchmark(&Srad::v2(scale), scale, &base),
            _ => cache.capture_benchmark(&Leukocyte::v2(scale), scale, &base),
        }?;
        let s = run.stats_for(&base, &session.replay_options())?;
        let f = mix_fractions(&s);
        Ok((
            label.to_string(),
            s.ipc(),
            s.bw_utilization(),
            f[0],
            f[2],
            f[1],
            f[4],
        ))
    })?;
    Ok(IncrementalVersions { rows })
}

/// Figure 5 data: normalized kernel time on the GTX 280 model and the
/// two GTX 480 on-chip memory configurations.
#[derive(Debug, Clone)]
pub struct FermiStudy {
    /// `(abbrev, t_gtx280, t_shared_bias, t_l1_bias)` in µs; the figure
    /// normalizes to the GTX 280.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl FermiStudy {
    /// Renders the normalized series.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 5: kernel time normalized to GTX 280 (lower is better)",
            &[
                "Benchmark",
                "GTX280",
                "GTX480 shared-bias",
                "GTX480 L1-bias",
            ],
        );
        for (name, t280, tsb, tlb) in &self.rows {
            t.push(vec![
                name.clone(),
                "1.00".into(),
                format!("{:.2}", tsb / t280),
                format!("{:.2}", tlb / t280),
            ])?;
        }
        Ok(t)
    }

    /// `(shared_bias_time, l1_bias_time)` for one benchmark, normalized
    /// to the GTX 280.
    pub fn normalized(&self, abbrev: &str) -> (f64, f64) {
        self.rows
            .iter()
            .find(|(n, ..)| n == abbrev)
            .map_or((0.0, 0.0), |&(_, t280, tsb, tlb)| (tsb / t280, tlb / t280))
    }
}

/// The offloading-model analysis (an extension; Table IV's "Machine
/// Model: Offloading" row): kernel time vs. host↔device transfer time
/// per benchmark.
#[derive(Debug, Clone)]
pub struct OffloadStudy {
    /// `(abbrev, kernel_us, transfer_us)` per benchmark, assuming the
    /// given PCIe bandwidth.
    pub rows: Vec<(String, f64, f64)>,
    /// Modeled PCIe bandwidth in GB/s.
    pub pcie_gbps: f64,
}

impl OffloadStudy {
    /// Renders the analysis.
    pub fn to_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            &format!(
                "Offloading overhead: kernel vs transfer time at {} GB/s PCIe",
                self.pcie_gbps
            ),
            &[
                "Benchmark",
                "Kernel (us)",
                "Transfer (us)",
                "Transfer share",
            ],
        );
        for (name, k, tr) in &self.rows {
            t.push(vec![
                name.clone(),
                f1(*k),
                f1(*tr),
                pct(tr / (k + tr).max(1e-12)),
            ])?;
        }
        Ok(t)
    }
}

/// Runs the offloading analysis: every benchmark's aggregate kernel
/// time against the time to move its host↔device traffic over PCIe
/// (the traffic totals come from the cached capture pass).
pub fn offload_overheads(
    session: &StudySession,
    scale: Scale,
    pcie_gbps: f64,
) -> Result<OffloadStudy, StudyError> {
    let base = GpuConfig::gpgpusim_default();
    let benches = all_benchmarks(scale);
    let rows = session.run_indexed(benches.len(), |i| {
        let b = benches[i].as_ref();
        let _bench = obs::span!("bench.{}", b.abbrev());
        let run = session.cache().capture_benchmark(b, scale, &base)?;
        let s = run.stats_for(&base, &session.replay_options())?;
        let bytes = run.h2d_bytes + run.d2h_bytes;
        let transfer_us = bytes as f64 / (pcie_gbps * 1e3);
        Ok((b.abbrev().to_string(), s.time_us(), transfer_us))
    })?;
    Ok(OffloadStudy { rows, pcie_gbps })
}

/// Runs the Figure 5 experiment. The GTX 280 shares its capture
/// fingerprint with the default machine; the two GTX 480 variants share
/// a second fingerprint (32 shared-memory banks), so each benchmark is
/// captured at most twice and the L1-bias point is a pure replay. No
/// other experiment reads the GTX 480 capture, so each job streams it
/// ([`crate::trace_cache::TraceCache::stream_fn`]) and frees it after
/// its two replays.
pub fn fermi_study(session: &StudySession, scale: Scale) -> Result<FermiStudy, StudyError> {
    let benches = all_benchmarks(scale);
    let rows = session.run_indexed(benches.len(), |i| {
        let b = benches[i].as_ref();
        let _bench = obs::span!("bench.{}", b.abbrev());
        let run280 = session
            .cache()
            .capture_benchmark(b, scale, &GpuConfig::gtx280())?;
        let opts = session.replay_options();
        let t280 = run280.stats_for(&GpuConfig::gtx280(), &opts)?.time_us();
        let fermi = GpuConfig::gtx480_shared_bias();
        let run480 = session
            .cache()
            .stream_fn(b.abbrev(), scale, "", &fermi, |gpu| b.run_on(gpu))?;
        let tsb = run480.stats_for(&fermi, &opts)?.time_us();
        let tlb = run480
            .stats_for(&GpuConfig::gtx480_l1_bias(), &opts)?
            .time_us();
        Ok((b.abbrev().to_string(), t280, tsb, tlb))
    })?;
    Ok(FermiStudy { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_holds_at_tiny_scale() {
        let session = StudySession::new(2);
        let d = ipc_scaling(&session, Scale::Tiny).expect("fig1 runs");
        assert_eq!(d.rows.len(), 12);
        // The paper's ordering: SRAD/HS among the top, NW/MUM at the
        // bottom.
        let top = d.ipc28("SRAD").max(d.ipc28("HS"));
        assert!(top > d.ipc28("NW"), "top {top} vs NW {}", d.ipc28("NW"));
        assert!(top > d.ipc28("MUM"));
        // Table renders.
        assert!(d.to_table().expect("renders").to_string().contains("SRAD"));
        // Capture-once: one cache entry per benchmark, not per config.
        assert_eq!(session.cache().len(), 12);
    }

    #[test]
    fn table3_shape_holds() {
        let session = StudySession::sequential();
        let d = incremental_versions(&session, Scale::Tiny).expect("table3 runs");
        assert_eq!(d.rows.len(), 4);
        assert!(d.ipc("SRAD v2") > d.ipc("SRAD v1"));
        assert!(d.ipc("Leukocyte v2") > d.ipc("Leukocyte v1"));
        assert!(d.global_frac("Leukocyte v2") < d.global_frac("Leukocyte v1"));
    }
}
