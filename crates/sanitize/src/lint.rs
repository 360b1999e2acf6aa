//! Static access-shape lints over captured kernel traces.
//!
//! These walk a [`KernelTrace`] — no replay, no tape — and flag the
//! performance anti-patterns the Rodinia paper's incremental-optimization
//! study turns on:
//!
//! * **bank conflicts** ([`FindingKind::BankConflict`]) — the average
//!   shared-memory serialization degree across the kernel's shared ops.
//!   A power-of-two row stride drives this toward the bank count; padding
//!   the row by one word fixes it.
//! * **uncoalesced global access** ([`FindingKind::UncoalescedGlobal`]) —
//!   how many 64-byte segments the kernel's global loads/stores actually
//!   touch versus a dense (fully coalesced) access of the same width.
//!   Column-major or strided per-warp shapes inflate this toward the warp
//!   width (NW's naive kernel reads one cell per lane from a different
//!   row).
//! * **redundant global traffic** ([`FindingKind::RedundantGlobal`]) —
//!   the same segments re-fetched many times within one CTA: the
//!   shared-memory staging opportunity SRAD v2 and Leukocyte v2 exploit.
//!   The redundancy multiset counts global *and* texture loads (Rodinia
//!   routes re-read intermediates through the texture cache, as
//!   Leukocyte v1 does with its GICOV matrix), and the lint stays quiet
//!   for kernels that already stage in shared memory — their residual
//!   re-fetch is the deliberate ghost-zone recompute of the fused
//!   versions, not an unexploited opportunity.
//!
//! All three are [`Severity::Warning`](crate::Severity::Warning):
//! shipping Rodinia kernels legitimately keep some (NW's tiled kernel
//! retains its 16-way bank conflicts by design, as the paper notes), so
//! they advise rather than gate.

use std::collections::BTreeMap;

use simt::{KernelTrace, MemSpace, TOp};

use crate::dynamic::FindingSet;
use crate::finding::{Finding, FindingKind};

/// Coalescing granularity of the memory model, in bytes.
const SEG_BYTES: u64 = 64;
/// Word size of every DSL access, in bytes.
const WORD_BYTES: u64 = 4;

/// Thresholds for the access-shape lints.
///
/// Defaults are calibrated against the suite: the unoptimized
/// SRAD/Leukocyte/Needleman-Wunsch variants trip their targeted lint,
/// the optimized counterparts stay below it (see the pinned verdicts in
/// the lint regression test).
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Flag kernels whose ops-weighted average shared-memory conflict
    /// degree is at least this (1.0 = conflict-free).
    pub bank_degree: f64,
    /// Minimum shared ops before the bank lint applies (ignore epilogues).
    pub min_shared_ops: u64,
    /// Flag kernels whose global segments-per-ideal ratio is at least
    /// this (1.0 = perfectly coalesced, warp width = worst case).
    pub coalescing_ratio: f64,
    /// Minimum global accesses before the coalescing lint applies.
    pub min_global_ops: u64,
    /// Flag kernels (with no shared-memory staging) whose CTAs re-fetch
    /// each distinct global/texture load segment at least this many
    /// times on average.
    pub redundancy: f64,
    /// Minimum per-CTA distinct load segments before the redundancy
    /// lint applies (tiny CTA footprints re-fetch trivially).
    pub min_distinct_segments: u64,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            bank_degree: 4.0,
            min_shared_ops: 16,
            coalescing_ratio: 4.0,
            min_global_ops: 16,
            redundancy: 2.0,
            min_distinct_segments: 8,
        }
    }
}

/// The measured access-shape statistics of one kernel trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLintMetrics {
    /// Kernel name the metrics describe.
    pub kernel: String,
    /// Shared-memory warp ops in the trace.
    pub shared_ops: u64,
    /// Ops-weighted average bank-conflict degree (1.0 = conflict-free).
    pub bank_degree_avg: f64,
    /// Worst single-op conflict degree.
    pub bank_degree_max: u8,
    /// Global-space warp memory ops (loads + stores).
    pub global_ops: u64,
    /// Texture fetches (always loads; counted in the redundancy
    /// multiset, not in the coalescing ratio).
    pub tex_ops: u64,
    /// 64-byte segments those ops actually touched.
    pub actual_segments: u64,
    /// Segments a dense access of the same width would touch.
    pub ideal_segments: u64,
    /// `actual_segments / ideal_segments` (1.0 = perfectly coalesced).
    pub coalescing_ratio: f64,
    /// Average per-CTA `total / distinct` load segments over global and
    /// texture fetches (1.0 = every segment fetched once per CTA).
    pub redundancy: f64,
    /// Average per-CTA distinct load segments (global + texture).
    pub distinct_segments_per_cta: f64,
}

impl KernelLintMetrics {
    fn measure(trace: &KernelTrace) -> KernelLintMetrics {
        let mut shared_ops = 0u64;
        let mut degree_sum = 0u64;
        let mut degree_max = 0u8;
        let mut global_ops = 0u64;
        let mut tex_ops = 0u64;
        let mut actual_segments = 0u64;
        let mut ideal_segments = 0u64;
        let mut load_total_sum = 0u64;
        let mut load_distinct_sum = 0u64;
        let mut ctas_with_loads = 0u64;

        for cta in &trace.ctas {
            // Load-segment multiset of this CTA, for the redundancy ratio.
            let mut seg_counts: BTreeMap<u64, u64> = BTreeMap::new();
            for warp in &cta.warps {
                for (op, run) in warp.runs() {
                    match op {
                        TOp::Shared { degree, .. } => {
                            shared_ops += 1;
                            degree_sum += u64::from(*degree);
                            degree_max = degree_max.max(*degree);
                        }
                        TOp::Gmem {
                            space: MemSpace::Global,
                            store,
                            lanes,
                            ..
                        } => {
                            global_ops += 1;
                            actual_segments += run.len() as u64;
                            ideal_segments += (u64::from(*lanes) * WORD_BYTES).div_ceil(SEG_BYTES);
                            if !store {
                                for &s in run {
                                    *seg_counts.entry(s).or_insert(0) += 1;
                                }
                            }
                        }
                        TOp::Tex { .. } => {
                            tex_ops += 1;
                            for &s in run {
                                *seg_counts.entry(s).or_insert(0) += 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !seg_counts.is_empty() {
                ctas_with_loads += 1;
                load_distinct_sum += seg_counts.len() as u64;
                load_total_sum += seg_counts.values().sum::<u64>();
            }
        }

        let ratio = |num: u64, den: u64| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        KernelLintMetrics {
            kernel: trace.name.clone(),
            shared_ops,
            bank_degree_avg: ratio(degree_sum, shared_ops),
            bank_degree_max: degree_max,
            global_ops,
            tex_ops,
            actual_segments,
            ideal_segments,
            coalescing_ratio: ratio(actual_segments, ideal_segments),
            redundancy: ratio(load_total_sum, load_distinct_sum),
            distinct_segments_per_cta: ratio(load_distinct_sum, ctas_with_loads.max(1)),
        }
    }
}

/// Measures a trace and reports the lint findings it trips under `cfg`.
pub fn lint_trace(trace: &KernelTrace, cfg: &LintConfig) -> (KernelLintMetrics, Vec<Finding>) {
    let m = KernelLintMetrics::measure(trace);
    let mut out = FindingSet::default();

    if m.shared_ops >= cfg.min_shared_ops && m.bank_degree_avg >= cfg.bank_degree {
        out.record(
            FindingKind::BankConflict,
            &m.kernel,
            "shared",
            format!(
                "average bank-conflict degree {:.1} (max {}) over {} shared ops; \
                 pad the tile row to break the power-of-two stride",
                m.bank_degree_avg, m.bank_degree_max, m.shared_ops
            ),
        );
    }
    if m.global_ops >= cfg.min_global_ops && m.coalescing_ratio >= cfg.coalescing_ratio {
        out.record(
            FindingKind::UncoalescedGlobal,
            &m.kernel,
            "global",
            format!(
                "global accesses touch {:.1}x the segments a coalesced shape would \
                 ({} actual vs {} ideal over {} ops); make adjacent lanes read \
                 adjacent words",
                m.coalescing_ratio, m.actual_segments, m.ideal_segments, m.global_ops
            ),
        );
    }
    if m.shared_ops == 0
        && m.distinct_segments_per_cta >= cfg.min_distinct_segments as f64
        && m.redundancy >= cfg.redundancy
    {
        out.record(
            FindingKind::RedundantGlobal,
            &m.kernel,
            "global",
            format!(
                "each CTA fetches its global load segments {:.1}x on average \
                 ({:.0} distinct per CTA); stage the reused tile in shared memory",
                m.redundancy, m.distinct_segments_per_cta
            ),
        );
    }
    (m, out.into_findings())
}

/// Measures a trace without applying thresholds (probe/reporting use).
pub fn measure_trace(trace: &KernelTrace) -> KernelLintMetrics {
    KernelLintMetrics::measure(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::trace::{CtaTrace, WarpTrace};

    fn trace_with(ops: Vec<TOp>) -> KernelTrace {
        trace_of(WarpTrace { ops, segs: vec![] })
    }

    fn trace_of(warp: WarpTrace) -> KernelTrace {
        KernelTrace::new(
            "synthetic".into(),
            vec![CtaTrace { warps: vec![warp] }],
            32,
            16,
            0,
            32,
        )
    }

    /// One warp of 32-lane global loads, one per segment list.
    fn loads(per_op: impl Iterator<Item = Vec<u64>>) -> WarpTrace {
        let mut warp = WarpTrace::default();
        for segs in per_op {
            let segs = warp.push_segs(&segs).expect("fits a range");
            warp.ops.push(TOp::Gmem {
                space: MemSpace::Global,
                store: false,
                lanes: 32,
                segs,
            });
        }
        warp
    }

    #[test]
    fn conflict_free_shared_measures_degree_one() {
        let ops = (0..32)
            .map(|_| TOp::Shared {
                degree: 1,
                lanes: 32,
                store: false,
            })
            .collect();
        let (m, findings) = lint_trace(&trace_with(ops), &LintConfig::default());
        assert!((m.bank_degree_avg - 1.0).abs() < 1e-9);
        assert!(findings.is_empty());
    }

    #[test]
    fn high_degree_shared_trips_bank_lint() {
        let ops = (0..32)
            .map(|_| TOp::Shared {
                degree: 16,
                lanes: 32,
                store: false,
            })
            .collect();
        let (m, findings) = lint_trace(&trace_with(ops), &LintConfig::default());
        assert_eq!(m.bank_degree_max, 16);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::BankConflict);
    }

    #[test]
    fn strided_global_trips_coalescing_lint() {
        // Each op: 32 lanes touching 32 distinct segments (fully strided);
        // spread segments across ops so the redundancy lint stays quiet.
        let warp =
            loads((0..32u64).map(|i| (0..32u64).map(|l| (i * 32 + l) * SEG_BYTES).collect()));
        let (m, findings) = lint_trace(&trace_of(warp), &LintConfig::default());
        assert!((m.coalescing_ratio - 16.0).abs() < 1e-9);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::UncoalescedGlobal);
    }

    #[test]
    fn repeated_loads_trip_redundancy_lint() {
        // 32 ops each re-reading the same dense 2-segment window.
        let warp = loads((0..32).map(|_| vec![0, SEG_BYTES]));
        let cfg = LintConfig {
            min_distinct_segments: 2,
            ..LintConfig::default()
        };
        let (m, findings) = lint_trace(&trace_of(warp), &cfg);
        assert!((m.redundancy - 32.0).abs() < 1e-9);
        assert!((m.coalescing_ratio - 1.0).abs() < 1e-9);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::RedundantGlobal);
    }
}
