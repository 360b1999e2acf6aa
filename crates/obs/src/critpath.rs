//! Critical-path attribution over per-kernel cycle accounting.
//!
//! The simulator already proves *where every SM cycle went* (a named
//! component breakdown that sums exactly to the per-SM cycle budget)
//! and *when* (an epoch-sampled occupancy/DRAM timeline). This module
//! is the consumer: it turns those raw attributions into a ranked
//! bottleneck analysis — per kernel, the dominant stall chain and the
//! what-if payoff of removing each component ("`lud` is barrier-bound;
//! removing barrier stalls would cut 34% of cycles") — and, across a
//! suite, which components dominate how many kernels and how much of
//! the total cycle budget they hold.
//!
//! The module is generic on purpose: components are `(name, cycles,
//! removable)` triples and timeline points are `(cycle, occupancy,
//! dram_util)`, so `obs` stays dependency-free and any layer (GPU
//! stall breakdowns today, CPU cache-stall profiles tomorrow) can feed
//! it. **Conservation is first-class**: the analysis never invents or
//! loses cycles — [`KernelCritPath::attributed`] is exactly the sum of
//! the input components, which callers assert against their own
//! invariant (for the GPU engine, `num_sms * cycles`).
//!
//! Every output is deterministic: ranking ties break lexicographically
//! and no wall-clock state is consulted, so a written
//! `CRITPATH_manifest.json` is byte-stable across runs.

use crate::json::Json;

/// One named slice of a kernel's cycle budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component name (e.g. `barrier`, `mem_pending`).
    pub name: String,
    /// Cycles attributed to this component.
    pub cycles: u64,
    /// Whether removing the component is meaningful: stall classes
    /// are removable; useful-work classes (issue-port busy) are not
    /// and are excluded from bottleneck rankings.
    pub removable: bool,
}

/// One timeline point used to locate *when* a kernel is bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Logical cycle of the sample.
    pub cycle: u64,
    /// Warp occupancy in `[0, 1]` at that cycle.
    pub occupancy: f64,
    /// DRAM utilization in `[0, 1]` over the window ending at that
    /// cycle.
    pub dram_util: f64,
}

/// The raw attribution input for one kernel (or benchmark).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAttribution {
    /// Kernel or benchmark name.
    pub name: String,
    /// Configuration label the cycles were measured under.
    pub config: String,
    /// Wall cycles of the launch (context only; the per-component
    /// budget is `attributed`, which is `num_sms` times larger for a
    /// multi-SM machine).
    pub cycles: u64,
    /// The full cycle accounting; must cover the budget exactly.
    pub components: Vec<Component>,
    /// Occupancy/DRAM timeline, oldest first.
    pub samples: Vec<SamplePoint>,
}

/// One link of a kernel's dominant stall chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLink {
    /// Component name.
    pub component: String,
    /// Cycles held by the component.
    pub cycles: u64,
    /// Share of the kernel's attributed budget in `[0, 1]`; removing
    /// the component would cut at most this fraction of cycles.
    pub fraction: f64,
}

/// Where the timeline bottoms out (deepest occupancy dip) and peaks
/// (highest DRAM pressure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Index of the deepest-occupancy sample in the input series.
    pub dip_index: usize,
    /// Cycle of the deepest occupancy dip.
    pub dip_cycle: u64,
    /// Occupancy at the dip.
    pub dip_occupancy: f64,
    /// Cycle of the highest DRAM utilization.
    pub peak_dram_cycle: u64,
    /// DRAM utilization at that peak.
    pub peak_dram_util: f64,
}

/// The per-kernel analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCritPath {
    /// Kernel or benchmark name.
    pub name: String,
    /// Configuration label.
    pub config: String,
    /// Wall cycles of the launch.
    pub cycles: u64,
    /// Sum of all input components — the conservation anchor. Equals
    /// the caller's cycle budget when the input attribution is sound.
    pub attributed: u64,
    /// Removable components, largest first (ties lexicographic),
    /// truncated to the requested `top_k`.
    pub chain: Vec<ChainLink>,
    /// The head of `chain`, when any removable component holds cycles.
    pub dominant: Option<ChainLink>,
    /// Timeline hotspot, when any sample was provided.
    pub hotspot: Option<Hotspot>,
    /// One-line human verdict, deterministic.
    pub summary: String,
}

/// Suite-wide standing of one removable component.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRank {
    /// Component name.
    pub component: String,
    /// Cycles the component holds summed over all kernels.
    pub cycles: u64,
    /// Share of the whole suite's attributed budget in `[0, 1]`.
    pub share: f64,
    /// Number of kernels where this component is the dominant
    /// bottleneck.
    pub dominates: usize,
}

/// The full critical-path report for a set of kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct CritPath {
    /// Chain depth the analysis was asked for.
    pub top_k: usize,
    /// Per-kernel results, in input order.
    pub kernels: Vec<KernelCritPath>,
    /// Suite-wide component ranking, largest total first (ties
    /// lexicographic).
    pub ranking: Vec<SuiteRank>,
}

/// Analyzes a set of kernel attributions into a [`CritPath`] report.
///
/// `top_k` bounds the per-kernel chain depth (0 is treated as 1). The
/// output is a pure function of the input: no clocks, no global state.
pub fn analyze(kernels: &[KernelAttribution], top_k: usize) -> CritPath {
    let top_k = top_k.max(1);
    let per_kernel: Vec<KernelCritPath> =
        kernels.iter().map(|k| analyze_kernel(k, top_k)).collect();

    // Suite ranking over removable components only.
    let mut totals: std::collections::BTreeMap<&str, (u64, usize)> =
        std::collections::BTreeMap::new();
    let mut suite_budget = 0u64;
    for (k, r) in kernels.iter().zip(&per_kernel) {
        suite_budget += r.attributed;
        for c in &k.components {
            if c.removable {
                totals.entry(c.name.as_str()).or_insert((0, 0)).0 += c.cycles;
            }
        }
        if let Some(d) = &r.dominant {
            totals.entry(d.component.as_str()).or_insert((0, 0)).1 += 1;
        }
    }
    let mut ranking: Vec<SuiteRank> = totals
        .into_iter()
        .map(|(name, (cycles, dominates))| SuiteRank {
            component: name.to_string(),
            cycles,
            share: if suite_budget == 0 {
                0.0
            } else {
                cycles as f64 / suite_budget as f64
            },
            dominates,
        })
        .collect();
    ranking.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.component.cmp(&b.component)));

    CritPath {
        top_k,
        kernels: per_kernel,
        ranking,
    }
}

fn analyze_kernel(k: &KernelAttribution, top_k: usize) -> KernelCritPath {
    let attributed: u64 = k.components.iter().map(|c| c.cycles).sum();
    let mut removable: Vec<&Component> = k.components.iter().filter(|c| c.removable).collect();
    removable.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.name.cmp(&b.name)));
    let chain: Vec<ChainLink> = removable
        .iter()
        .take(top_k)
        .map(|c| ChainLink {
            component: c.name.clone(),
            cycles: c.cycles,
            fraction: if attributed == 0 {
                0.0
            } else {
                c.cycles as f64 / attributed as f64
            },
        })
        .collect();
    let dominant = chain.first().filter(|l| l.cycles > 0).cloned();
    let hotspot = hotspot_of(&k.samples);
    let summary = summarize(k, attributed, dominant.as_ref(), hotspot.as_ref());
    KernelCritPath {
        name: k.name.clone(),
        config: k.config.clone(),
        cycles: k.cycles,
        attributed,
        chain,
        dominant,
        hotspot,
        summary,
    }
}

fn hotspot_of(samples: &[SamplePoint]) -> Option<Hotspot> {
    if samples.is_empty() {
        return None;
    }
    // Strict inequalities: the earliest extreme wins, deterministically.
    let mut dip = 0;
    let mut peak = 0;
    for (i, s) in samples.iter().enumerate() {
        if s.occupancy < samples[dip].occupancy {
            dip = i;
        }
        if s.dram_util > samples[peak].dram_util {
            peak = i;
        }
    }
    Some(Hotspot {
        dip_index: dip,
        dip_cycle: samples[dip].cycle,
        dip_occupancy: samples[dip].occupancy,
        peak_dram_cycle: samples[peak].cycle,
        peak_dram_util: samples[peak].dram_util,
    })
}

fn summarize(
    k: &KernelAttribution,
    attributed: u64,
    dominant: Option<&ChainLink>,
    hotspot: Option<&Hotspot>,
) -> String {
    let Some(d) = dominant else {
        return format!("{}: no removable stall cycles attributed", k.name);
    };
    let mut s = format!(
        "{} is {}-bound: removing {} stalls would cut up to {:.1}% of cycles \
         ({} of {} attributed SM cycles)",
        k.name,
        d.component,
        d.component,
        d.fraction * 100.0,
        d.cycles,
        attributed
    );
    if let Some(h) = hotspot {
        s.push_str(&format!(
            "; occupancy dips to {:.1}% at cycle {} (sample {})",
            h.dip_occupancy * 100.0,
            h.dip_cycle,
            h.dip_index
        ));
    }
    s
}

impl ChainLink {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("component", Json::from(self.component.as_str())),
            ("cycles", Json::u64(self.cycles)),
            ("fraction", Json::Num(self.fraction)),
        ])
    }
}

impl KernelCritPath {
    /// Serializes this kernel's analysis as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::from(self.name.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("cycles", Json::u64(self.cycles)),
            ("attributed_sm_cycles", Json::u64(self.attributed)),
            (
                "chain",
                Json::Arr(self.chain.iter().map(ChainLink::to_json).collect()),
            ),
            (
                "dominant",
                self.dominant
                    .as_ref()
                    .map_or(Json::Null, ChainLink::to_json),
            ),
        ];
        if let Some(h) = &self.hotspot {
            pairs.push((
                "hotspot",
                Json::obj(vec![
                    ("dip_index", Json::u64(h.dip_index as u64)),
                    ("dip_cycle", Json::u64(h.dip_cycle)),
                    ("dip_occupancy", Json::Num(h.dip_occupancy)),
                    ("peak_dram_cycle", Json::u64(h.peak_dram_cycle)),
                    ("peak_dram_util", Json::Num(h.peak_dram_util)),
                ]),
            ));
        }
        pairs.push(("summary", Json::from(self.summary.as_str())));
        Json::obj(pairs)
    }
}

impl CritPath {
    /// Serializes the whole report (kernels plus suite ranking) as a
    /// JSON object. Deterministic: same input, same bytes.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("top_k", Json::u64(self.top_k as u64)),
            (
                "kernels",
                Json::Arr(self.kernels.iter().map(KernelCritPath::to_json).collect()),
            ),
            (
                "ranking",
                Json::Arr(
                    self.ranking
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("component", Json::from(r.component.as_str())),
                                ("cycles", Json::u64(r.cycles)),
                                ("share", Json::Num(r.share)),
                                ("dominates", Json::u64(r.dominates as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the per-kernel verdicts and the suite ranking as plain
    /// text lines (the `repro analyze` console output).
    pub fn render(&self) -> Vec<String> {
        let mut out: Vec<String> = self.kernels.iter().map(|k| k.summary.clone()).collect();
        if !self.ranking.is_empty() {
            out.push(String::new());
            out.push("suite bottleneck ranking:".to_string());
            for (i, r) in self.ranking.iter().enumerate() {
                out.push(format!(
                    "  {}. {:<14} {:>6.1}% of suite SM cycles, dominant in {} kernel(s)",
                    i + 1,
                    r.component,
                    r.share * 100.0,
                    r.dominates
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(name: &str, cycles: u64, removable: bool) -> Component {
        Component {
            name: name.to_string(),
            cycles,
            removable,
        }
    }

    fn kernel(name: &str, comps: Vec<Component>) -> KernelAttribution {
        KernelAttribution {
            name: name.to_string(),
            config: "cfg".to_string(),
            cycles: 100,
            components: comps,
            samples: vec![],
        }
    }

    #[test]
    fn attribution_is_conserved() {
        let k = kernel(
            "k",
            vec![
                comp("issue", 40, false),
                comp("barrier", 35, true),
                comp("mem_pending", 25, true),
            ],
        );
        let r = analyze(&[k], 3);
        assert_eq!(r.kernels[0].attributed, 100);
        let chain_total: u64 = r.kernels[0].chain.iter().map(|l| l.cycles).sum();
        assert_eq!(chain_total, 60, "chain holds exactly the removable cycles");
    }

    #[test]
    fn dominant_and_chain_order_with_tie_break() {
        let k = kernel(
            "k",
            vec![
                comp("b_stall", 30, true),
                comp("a_stall", 30, true),
                comp("c_stall", 10, true),
                comp("busy", 30, false),
            ],
        );
        let r = analyze(&[k], 2);
        let chain = &r.kernels[0].chain;
        assert_eq!(chain.len(), 2, "top_k truncates");
        // Tie on 30 cycles: lexicographic name order decides.
        assert_eq!(chain[0].component, "a_stall");
        assert_eq!(chain[1].component, "b_stall");
        assert_eq!(r.kernels[0].dominant.as_ref().unwrap().component, "a_stall");
        assert!((chain[0].fraction - 0.3).abs() < 1e-12);
    }

    #[test]
    fn busy_components_count_toward_attribution_but_not_ranking() {
        let k = kernel("k", vec![comp("busy", 90, false), comp("stall", 10, true)]);
        let r = analyze(std::slice::from_ref(&k), 3);
        assert_eq!(r.kernels[0].attributed, 100);
        assert_eq!(r.kernels[0].chain.len(), 1);
        assert_eq!(r.ranking.len(), 1);
        assert_eq!(r.ranking[0].component, "stall");
        assert!((r.ranking[0].share - 0.1).abs() < 1e-12);
    }

    #[test]
    fn suite_ranking_aggregates_and_counts_dominance() {
        let a = kernel("a", vec![comp("barrier", 60, true), comp("mem", 40, true)]);
        let b = kernel("b", vec![comp("barrier", 10, true), comp("mem", 90, true)]);
        let r = analyze(&[a, b], 3);
        assert_eq!(r.ranking[0].component, "mem");
        assert_eq!(r.ranking[0].cycles, 130);
        assert_eq!(r.ranking[0].dominates, 1);
        assert_eq!(r.ranking[1].component, "barrier");
        assert_eq!(r.ranking[1].dominates, 1);
        assert!((r.ranking[0].share - 130.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_finds_earliest_dip_and_peak() {
        let mut k = kernel("k", vec![comp("stall", 1, true)]);
        k.samples = vec![
            SamplePoint {
                cycle: 10,
                occupancy: 0.9,
                dram_util: 0.2,
            },
            SamplePoint {
                cycle: 20,
                occupancy: 0.1,
                dram_util: 0.8,
            },
            SamplePoint {
                cycle: 30,
                occupancy: 0.1,
                dram_util: 0.8,
            },
        ];
        let r = analyze(&[k], 1);
        let h = r.kernels[0].hotspot.unwrap();
        assert_eq!(h.dip_cycle, 20, "earliest dip wins");
        assert_eq!(h.dip_index, 1);
        assert_eq!(h.peak_dram_cycle, 20, "earliest peak wins");
    }

    #[test]
    fn zero_budget_kernel_is_safe() {
        let k = kernel("empty", vec![comp("stall", 0, true)]);
        let r = analyze(&[k], 3);
        assert_eq!(r.kernels[0].attributed, 0);
        assert!(r.kernels[0].dominant.is_none());
        assert!(r.kernels[0].summary.contains("no removable stall cycles"));
        assert_eq!(r.ranking[0].share, 0.0);
    }

    #[test]
    fn report_json_is_deterministic_and_parseable() {
        let mk = || {
            let mut k = kernel(
                "lud",
                vec![comp("barrier", 34, true), comp("issue", 66, false)],
            );
            k.samples = vec![SamplePoint {
                cycle: 12,
                occupancy: 0.03,
                dram_util: 0.5,
            }];
            analyze(&[k], 3)
        };
        let a = mk().to_json().to_string();
        let b = mk().to_json().to_string();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("parses");
        let kernels = doc.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(
            kernels[0]
                .get("attributed_sm_cycles")
                .and_then(Json::as_f64),
            Some(100.0)
        );
        assert_eq!(
            kernels[0]
                .get("dominant")
                .and_then(|d| d.get("component"))
                .and_then(Json::as_str),
            Some("barrier")
        );
        assert!(kernels[0]
            .get("summary")
            .and_then(Json::as_str)
            .unwrap()
            .contains("barrier-bound"));
    }

    #[test]
    fn render_lists_kernels_then_ranking() {
        let k = kernel(
            "bfs",
            vec![comp("mem_pending", 80, true), comp("issue", 20, false)],
        );
        let lines = analyze(&[k], 3).render();
        assert!(lines[0].contains("bfs is mem_pending-bound"));
        assert!(lines.iter().any(|l| l.contains("suite bottleneck ranking")));
    }
}
