//! Affine access-contract inference: the static half of the sanitizer.
//!
//! The dynamic checkers ([`crate::dynamic`]) validate one concrete
//! launch; their verdicts hold only for the grid actually executed. This
//! module turns the same sanitizer events — folded as they happen by
//! [`ContractFitter`] — into *symbolic* per-op-site contracts and
//! proves properties for **all** grid shapes:
//!
//! 1. Every recorded lane-word becomes a sample
//!    `(lane, warp, block, phase, launch) -> addr`, grouped by the
//!    static op site stamped on each access (see [`simt::shadow`]).
//! 2. Per site, an affine form
//!    `addr = c0 + cl*lane + cw*warp + cb*block + cp*phase + cg*launch`
//!    is fitted by isolated-pair differencing and verified exactly
//!    against *every* sample; sites that fit no affine form degrade to
//!    an interval + stride summary (reported as
//!    [`FindingKind::NonAffineAccess`], a soundness caveat).
//! 3. An integer-constraint checker proves race-freedom between barrier
//!    intervals: every race claim is anchored to an *observed witness* —
//!    two retained samples of the same barrier interval reaching one
//!    word from different warps — and the fitted forms then generalize
//!    the witness to the smallest warp count for which they still
//!    collide (warp symbolic up to [`SYM_WARPS`], beyond any real CTA),
//!    turning one tiny-grid collision into a claim over every launch
//!    shape.
//! 4. Bounds, barrier uniformity, and coalescing/bank-conflict degree
//!    are checked or reported per contract.
//!
//! Soundness caveats (also in DESIGN.md §5l): proofs never leave the
//! evidence. Bounds are judged on the *observed* word span, and a race
//! is reported only on a sample-backed witness — per-dimension observed
//! ranges are never cross-multiplied into joint instantiations, because
//! participation guards (`if tid < n`, pivot-row selection) shape joint
//! supports in ways per-dimension sets cannot express and would
//! manufacture phantom accesses. Only the *generalization* of a
//! witnessed race (its minimum warps-per-block) ranges over symbolic
//! warp values, and only where the warp coefficient was identified from
//! varying evidence. Non-affine sites get no race/bounds proof — they
//! are summarized and flagged.

use std::collections::HashMap;

use obs::Json;
use simt::{
    AccessKind, BarrierRecord, LaunchInfo, MemAccess, MemSpace, SimError, SiteTable, TapeBuf,
    TapeSink,
};

use crate::dynamic::FindingSet;
use crate::finding::{Finding, FindingKind};

/// Symbolic warp-dimension horizon for race proofs: collisions are
/// searched over warp indices `0..=SYM_WARPS`, comfortably above the
/// 32-warp-per-CTA limit of real hardware.
pub const SYM_WARPS: i64 = 64;

/// Samples retained per site for fitting (verification still walks every
/// sample, so a capped fit can only *miss* an affine form, never accept
/// a wrong one).
pub const FIT_SAMPLE_CAP: usize = 4096;

/// Cap on the per-dimension observed-value sets kept for instantiation.
pub const DIM_SET_CAP: usize = 256;

/// Number of symbolic dimensions (lane, warp, block, phase, launch).
pub const NDIMS: usize = 5;

/// Dimension names, indexing [`Affine::c`] and [`Affine::known`].
pub const DIM_NAMES: [&str; NDIMS] = ["lane", "warp", "block", "phase", "launch"];

const LANE: usize = 0;
const WARP: usize = 1;

/// A fitted affine access form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine {
    /// Constant term.
    pub c0: i64,
    /// Per-dimension coefficients (order of [`DIM_NAMES`]).
    pub c: [i64; NDIMS],
    /// Whether each coefficient was identified from varying evidence.
    /// An unidentified dimension was constant in every sample — its
    /// coefficient is absorbed into `c0` and the form must not be
    /// extrapolated along it.
    pub known: [bool; NDIMS],
}

impl Affine {
    /// Evaluates the form at a dimension vector.
    pub fn eval(&self, dims: [i64; NDIMS]) -> i64 {
        let mut v = self.c0;
        for (c, d) in self.c.iter().zip(dims) {
            v += c * d;
        }
        v
    }

    /// Renders the form as `c0 + cl*lane + ...` (identified terms only).
    pub fn render(&self) -> String {
        let mut s = format!("{}", self.c0);
        for (c, name) in self.c.iter().zip(DIM_NAMES) {
            if *c != 0 {
                s.push_str(&format!(" + {c}*{name}"));
            }
        }
        s
    }
}

/// The inferred summary of one static op site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Form {
    /// The site's addresses fit (and exactly verify against) an affine
    /// form — race and bounds proofs apply.
    Affine(Affine),
    /// Non-affine fallback: observed word range and the gcd stride of
    /// address deltas (`0` when a single word was touched).
    Interval {
        /// Smallest word index observed.
        min: i64,
        /// Largest word index observed.
        max: i64,
        /// Gcd of deltas from the first observed address.
        stride: i64,
    },
}

/// One `(lane, warp, block, phase, launch) -> addr` observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Dimension vector (order of [`DIM_NAMES`]).
    pub dims: [i64; NDIMS],
    /// Resolved word index.
    pub addr: i64,
}

/// The inferred contract of one static op site of one kernel.
#[derive(Debug, Clone)]
pub struct SiteContract {
    /// Op-site label (`file:line:column` of the kernel-source call).
    pub site: String,
    /// Target buffer name (allocation name or `shared f32`).
    pub buf: String,
    /// Memory space of the instruction.
    pub space: MemSpace,
    /// Load or store.
    pub kind: AccessKind,
    /// Total lane-word observations.
    pub count: u64,
    /// The fitted summary.
    pub form: Form,
    /// Observed values per dimension (sorted, capped at
    /// [`DIM_SET_CAP`]); used to instantiate non-extrapolated
    /// dimensions when generalizing a witnessed race and for the
    /// symbolic bank/coalescing degrees.
    pub observed: [Vec<i64>; NDIMS],
    /// Retained samples (capped at [`FIT_SAMPLE_CAP`]) — the evidence
    /// the race-witness search runs on. A fit may be capped, so a
    /// missing witness beyond the cap can only lose a finding, never
    /// invent one (the dynamic checkers still cover the executed
    /// launch in full). Nothing after [`check_contracts`] reads them:
    /// [`KernelContract::drop_samples`] frees them once it has run.
    pub samples: Vec<Sample>,
    /// Smallest word index observed across *all* accesses (uncapped).
    pub word_min: i64,
    /// Largest word index observed across *all* accesses (uncapped).
    pub word_max: i64,
    /// Buffer extent in words, when uniform across every observed
    /// launch (`None` if it varied — bounds checks are skipped then).
    pub extent: Option<i64>,
    /// Max bank-conflict degree of one warp's access (affine shared
    /// sites; `0` = not applicable / unknown).
    pub bank_degree: u32,
    /// Memory segments one warp's access coalesces into (affine global
    /// sites; `0` = not applicable / unknown).
    pub coalesce_segments: u32,
}

impl SiteContract {
    fn is_shared(&self) -> bool {
        self.space == MemSpace::Shared
    }

    fn writes(&self) -> bool {
        self.kind == AccessKind::Store
    }
}

/// All inferred contracts of one kernel.
#[derive(Debug, Clone)]
pub struct KernelContract {
    /// Kernel name.
    pub kernel: String,
    /// Number of launches the evidence came from.
    pub launches: u64,
    /// Whether every launch had a block-uniform barrier phase count
    /// (blocks of one CTA grid all passing the same number of barriers).
    pub barrier_uniform: bool,
    /// Per-site contracts, sorted by site label then buffer.
    pub sites: Vec<SiteContract>,
}

impl KernelContract {
    /// Frees every site's retained samples. Only the race-witness
    /// search of [`check_contracts`] reads them; the fitted summaries,
    /// [`compare_scales`] and [`contracts_json`] do not, so contracts
    /// kept for reporting after the check hold no samples.
    pub fn drop_samples(&mut self) {
        for s in &mut self.sites {
            s.samples = Vec::new();
        }
    }
}

// ---- fitting ----------------------------------------------------------

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Fits `addr = c0 + sum(c[d] * dims[d])` by isolated-pair differencing:
/// per dimension, samples agreeing on every *other* dimension are
/// grouped; consecutive distinct values in a group give the coefficient,
/// which must divide exactly and be consistent everywhere. A dimension
/// that never varies in isolation but co-varies with others is recovered
/// by a residual solve when it is the only one left. Returns `None` when
/// no affine form explains every retained sample.
pub fn fit_affine(samples: &[Sample]) -> Option<Affine> {
    let first = samples.first()?;
    let mut lo = first.dims;
    let mut hi = first.dims;
    for s in samples {
        for d in 0..NDIMS {
            lo[d] = lo[d].min(s.dims[d]);
            hi[d] = hi[d].max(s.dims[d]);
        }
    }

    let mut coeff = [None::<i64>; NDIMS];
    for d in 0..NDIMS {
        if lo[d] == hi[d] {
            continue;
        }
        let mut groups: HashMap<[i64; NDIMS - 1], Vec<(i64, i64)>> = HashMap::new();
        for s in samples {
            let mut key = [0i64; NDIMS - 1];
            let mut j = 0;
            for o in 0..NDIMS {
                if o != d {
                    key[j] = s.dims[o];
                    j += 1;
                }
            }
            groups.entry(key).or_default().push((s.dims[d], s.addr));
        }
        let mut c: Option<i64> = None;
        for pts in groups.values_mut() {
            pts.sort_unstable();
            for win in pts.windows(2) {
                let (dd, da) = (win[1].0 - win[0].0, win[1].1 - win[0].1);
                if dd == 0 {
                    // Same coordinates, different address: data-dependent.
                    if da != 0 {
                        return None;
                    }
                    continue;
                }
                if da % dd != 0 {
                    return None;
                }
                let cand = da / dd;
                match c {
                    None => c = Some(cand),
                    Some(prev) if prev != cand => return None,
                    Some(_) => {}
                }
            }
        }
        coeff[d] = c;
    }

    // Dimensions that vary but were never isolated (perfectly co-varying
    // with another): recoverable when exactly one remains, via the
    // residual against the identified terms.
    let unresolved: Vec<usize> = (0..NDIMS)
        .filter(|&d| coeff[d].is_none() && lo[d] != hi[d])
        .collect();
    if unresolved.len() > 1 {
        return None;
    }
    if let Some(&d) = unresolved.first() {
        let mut pts: Vec<(i64, i64)> = samples
            .iter()
            .map(|s| {
                let mut r = s.addr;
                for (c, v) in coeff.iter().zip(s.dims) {
                    r -= c.unwrap_or(0) * v;
                }
                (s.dims[d], r)
            })
            .collect();
        pts.sort_unstable();
        let mut c: Option<i64> = None;
        for win in pts.windows(2) {
            let (dd, da) = (win[1].0 - win[0].0, win[1].1 - win[0].1);
            if dd == 0 {
                if da != 0 {
                    return None;
                }
                continue;
            }
            if da % dd != 0 {
                return None;
            }
            let cand = da / dd;
            match c {
                None => c = Some(cand),
                Some(prev) if prev != cand => return None,
                Some(_) => {}
            }
        }
        coeff[d] = Some(c?);
    }

    let c = std::array::from_fn(|d| coeff[d].unwrap_or(0));
    let known = std::array::from_fn(|d| coeff[d].is_some());
    let form = Affine {
        c0: first.addr - (0..NDIMS).map(|d| c[d] * first.dims[d]).sum::<i64>(),
        c,
        known,
    };
    samples
        .iter()
        .all(|s| form.eval(s.dims) == s.addr)
        .then_some(form)
}

// ---- inference --------------------------------------------------------

#[derive(Debug, Default)]
struct SiteAccum {
    count: u64,
    samples: Vec<Sample>,
    observed: [Vec<i64>; NDIMS], // kept sorted, capped
    addr_min: i64,
    addr_max: i64,
    addr_first: i64,
    stride: i64,
    extents: Vec<i64>,
    space: Option<MemSpace>,
    kind: Option<AccessKind>,
}

/// Inserts `v` into the sorted set `set` unless present or the set is
/// already at [`DIM_SET_CAP`].
fn observe(set: &mut Vec<i64>, v: i64) {
    if let Err(pos) = set.binary_search(&v) {
        if set.len() < DIM_SET_CAP {
            set.insert(pos, v);
        }
    }
}

impl SiteAccum {
    /// Folds in one warp access: `ctx` is its (warp, block, phase,
    /// launch), the same for every lane, so those four dimension sets
    /// and the extent are updated once per access; each lane-word adds
    /// a sample, a lane value and an address.
    fn push(&mut self, lane_words: &[(u8, u32)], ctx: [i64; NDIMS - 1], extent: Option<i64>) {
        if lane_words.is_empty() {
            return;
        }
        for (set, v) in self.observed[LANE + 1..].iter_mut().zip(ctx) {
            observe(set, v);
        }
        if let Some(e) = extent {
            if !self.extents.contains(&e) {
                self.extents.push(e);
            }
        }
        for &(lane, word) in lane_words {
            let (lane, addr) = (i64::from(lane), i64::from(word));
            if self.count == 0 {
                self.addr_min = addr;
                self.addr_max = addr;
                self.addr_first = addr;
            } else {
                self.addr_min = self.addr_min.min(addr);
                self.addr_max = self.addr_max.max(addr);
                // A stride of 1 divides every delta: gcd cannot change it.
                if self.stride != 1 {
                    self.stride = gcd(self.stride, addr - self.addr_first);
                }
            }
            self.count += 1;
            if self.samples.len() < FIT_SAMPLE_CAP {
                let [warp, block, phase, launch] = ctx;
                self.samples.push(Sample {
                    dims: [lane, warp, block, phase, launch],
                    addr,
                });
            }
            observe(&mut self.observed[LANE], lane);
        }
    }
}

/// Streaming contract inference: folds each access into its op site's
/// accumulator as the launch executes (install it as the device's
/// [`TapeSink`]), then fits one contract per site in
/// [`ContractFitter::finish`]. What it holds is bounded per site (at
/// most [`FIT_SAMPLE_CAP`] samples and [`DIM_SET_CAP`] values per
/// dimension), not per access.
#[derive(Debug)]
pub struct ContractFitter {
    banks: u32,
    seg_bytes: u32,
    /// (kernel, site label, buf name) -> accumulator slot.
    slots: HashMap<(String, String, String), usize>,
    accums: Vec<SiteAccum>,
    /// Launches seen per kernel: the next launch ordinal.
    launch_ord: HashMap<String, i64>,
    /// Whether every launch of a kernel had block-uniform barrier counts.
    uniform: HashMap<String, bool>,
    /// Ordinal of the current launch within its kernel.
    launch: i64,
    /// (site id, buf) -> slot, for the current launch: labels are built
    /// and hashed per distinct site, not per access.
    launch_slots: HashMap<(u32, TapeBuf), usize>,
    /// Barriers passed per block of the current launch.
    barrier_counts: Vec<u64>,
}

impl ContractFitter {
    /// An empty fitter. `banks` / `seg_bytes` parameterize the symbolic
    /// bank-conflict and coalescing metrics (take them from the
    /// [`simt::GpuConfig`] the launches run under).
    pub fn new(banks: u32, seg_bytes: u32) -> ContractFitter {
        ContractFitter {
            banks,
            seg_bytes,
            slots: HashMap::new(),
            accums: Vec::new(),
            launch_ord: HashMap::new(),
            uniform: HashMap::new(),
            launch: 0,
            launch_slots: HashMap::new(),
            barrier_counts: Vec::new(),
        }
    }

    /// Fits every site observed so far, returning the contracts sorted
    /// by kernel (sites by label, then buffer).
    pub fn finish(mut self) -> Vec<KernelContract> {
        let (banks, seg_bytes) = (self.banks, self.seg_bytes);
        let mut by_kernel: HashMap<String, Vec<SiteContract>> = HashMap::new();
        let mut keys: Vec<((String, String, String), usize)> = self.slots.into_iter().collect();
        keys.sort();
        for ((kernel, site, buf), slot) in keys {
            let acc = std::mem::take(&mut self.accums[slot]);
            let form = match fit_affine(&acc.samples) {
                Some(f) => Form::Affine(f),
                None => Form::Interval {
                    min: acc.addr_min,
                    max: acc.addr_max,
                    stride: acc.stride,
                },
            };
            let space = acc.space.unwrap_or(MemSpace::Global);
            let (bank_degree, coalesce_segments) = match &form {
                Form::Affine(f) => {
                    symbolic_degrees(f, &acc.observed[LANE], space, banks, seg_bytes)
                }
                Form::Interval { .. } => (0, 0),
            };
            by_kernel.entry(kernel).or_default().push(SiteContract {
                site,
                buf,
                space,
                kind: acc.kind.unwrap_or(AccessKind::Load),
                count: acc.count,
                form,
                observed: acc.observed,
                samples: acc.samples,
                word_min: acc.addr_min,
                word_max: acc.addr_max,
                extent: match acc.extents.as_slice() {
                    [e] => Some(*e),
                    _ => None,
                },
                bank_degree,
                coalesce_segments,
            });
        }

        let mut out: Vec<KernelContract> = by_kernel
            .into_iter()
            .map(|(kernel, sites)| KernelContract {
                launches: self.launch_ord.get(&kernel).copied().unwrap_or(0) as u64,
                barrier_uniform: self.uniform.get(&kernel).copied().unwrap_or(true),
                kernel,
                sites,
            })
            .collect();
        out.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        out
    }
}

impl TapeSink for ContractFitter {
    fn begin(&mut self, launch: &LaunchInfo) {
        let n = self.launch_ord.entry(launch.kernel.clone()).or_insert(0);
        self.launch = *n;
        *n += 1;
        self.launch_slots.clear();
        self.barrier_counts.clear();
        self.barrier_counts.resize(launch.blocks as usize, 0);
    }

    fn access(&mut self, launch: &LaunchInfo, sites: &SiteTable, a: &MemAccess<'_>) {
        let (slots, accums) = (&mut self.slots, &mut self.accums);
        let slot = *self.launch_slots.entry((a.site, a.buf)).or_insert_with(|| {
            let key = (
                launch.kernel.clone(),
                sites.name(a.site).to_string(),
                launch.buf_name(a.buf).to_string(),
            );
            *slots.entry(key).or_insert_with(|| {
                accums.push(SiteAccum::default());
                accums.len() - 1
            })
        });
        let acc = &mut self.accums[slot];
        acc.space = Some(a.space);
        acc.kind = Some(a.kind);
        acc.push(
            a.lane_words,
            [
                i64::from(a.warp),
                i64::from(a.block),
                i64::from(a.phase),
                self.launch,
            ],
            launch.extent(a.buf).map(i64::from),
        );
    }

    fn barrier(&mut self, _: &LaunchInfo, b: &BarrierRecord) {
        if let Some(c) = self.barrier_counts.get_mut(b.block as usize) {
            *c += 1;
        }
    }

    fn end(&mut self, launch: &LaunchInfo, _: &SiteTable, _: Option<&SimError>) {
        let uniform = self.barrier_counts.windows(2).all(|w| w[0] == w[1]);
        self.uniform
            .entry(launch.kernel.clone())
            .and_modify(|u| *u &= uniform)
            .or_insert(uniform);
    }
}

/// Symbolic bank-conflict degree (shared) or coalesced-segment count
/// (global/texture) of one warp's access under an affine form, computed
/// over the observed lane set. The warp/block/phase terms shift every
/// lane of a warp equally, so neither metric depends on them.
fn symbolic_degrees(
    f: &Affine,
    lanes: &[i64],
    space: MemSpace,
    banks: u32,
    seg_bytes: u32,
) -> (u32, u32) {
    match space {
        MemSpace::Shared => {
            let banks = i64::from(banks.max(1));
            let mut hits: HashMap<i64, u32> = HashMap::new();
            for &l in lanes {
                *hits.entry((f.c[LANE] * l).rem_euclid(banks)).or_insert(0) += 1;
            }
            (hits.values().copied().max().unwrap_or(0), 0)
        }
        MemSpace::Global | MemSpace::Texture => {
            let seg_words = i64::from((seg_bytes / 4).max(1));
            let mut segs: Vec<i64> = lanes
                .iter()
                .map(|&l| {
                    let dims = std::array::from_fn(|d| if d == LANE { l } else { 0 });
                    f.eval(dims).div_euclid(seg_words)
                })
                .collect();
            segs.sort_unstable();
            segs.dedup();
            (0, segs.len() as u32)
        }
        _ => (0, 0),
    }
}

// ---- checking ---------------------------------------------------------

/// Warp values a site's race generalization may range over: symbolic up
/// to [`SYM_WARPS`] when the warp coefficient was identified, else only
/// the observed warp values.
fn warp_range(s: &SiteContract, f: &Affine) -> Vec<i64> {
    if f.known[WARP] {
        (0..=SYM_WARPS).collect()
    } else {
        s.observed[WARP].clone()
    }
}

/// An observed cross-warp same-word collision inside one barrier
/// interval: the evidence every race claim is anchored to.
struct Witness {
    block: i64,
    phase: i64,
    launch: i64,
    w1: i64,
    l1: i64,
    w2: i64,
    l2: i64,
    word: i64,
}

/// Searches the retained samples of two shared-site contracts for an
/// observed collision: same `(block, phase, launch)` context, same
/// word, different warps. Only sample-backed tuples count — per-
/// dimension observed sets are never cross-multiplied, because
/// participation guards shape joint supports in ways those sets cannot
/// express, and a conjured tuple would be a phantom access.
/// `(block, phase, launch, word)` → warp/lane pairs observed there.
type WordMap = HashMap<(i64, i64, i64, i64), Vec<(i64, i64)>>;

fn find_collision(a: &SiteContract, b: &SiteContract) -> Option<Witness> {
    let mut by_word: WordMap = HashMap::new();
    for s in &a.samples {
        by_word
            .entry((s.dims[2], s.dims[3], s.dims[4], s.addr))
            .or_default()
            .push((s.dims[WARP], s.dims[LANE]));
    }
    for s in &b.samples {
        let Some(cands) = by_word.get(&(s.dims[2], s.dims[3], s.dims[4], s.addr)) else {
            continue;
        };
        if let Some(&(w1, l1)) = cands.iter().find(|(w1, _)| *w1 != s.dims[WARP]) {
            return Some(Witness {
                block: s.dims[2],
                phase: s.dims[3],
                launch: s.dims[4],
                w1,
                l1,
                w2: s.dims[WARP],
                l2: s.dims[LANE],
                word: s.addr,
            });
        }
    }
    None
}

/// Generalizes a witnessed collision symbolically: the smallest warp
/// count `N` for which the two fitted forms still collide on a word
/// with both warp indices below `N`, holding block/phase/launch at the
/// witness context and lanes at their observed sets. The witnessed
/// pair itself bounds the answer, so a claim always exists; the forms
/// only ever *tighten* it (e.g. a warp-invariant store collides already
/// at 2 warps even if the witness saw warps 0 and 5).
fn min_warps(a: &SiteContract, fa: &Affine, b: &SiteContract, fb: &Affine, wit: &Witness) -> i64 {
    let off = |f: &Affine| f.c0 + f.c[2] * wit.block + f.c[3] * wit.phase + f.c[4] * wit.launch;
    let d = off(fb) - off(fa);
    // Two smallest distinct warps of `a` per base value cl*l + cw*w
    // (warp ranges are ascending, so push order is ascending).
    let mut base_a: HashMap<i64, Vec<i64>> = HashMap::new();
    for &w in &warp_range(a, fa) {
        for &l in &a.observed[LANE] {
            let v = base_a.entry(fa.c[LANE] * l + fa.c[WARP] * w).or_default();
            if v.len() < 2 && !v.contains(&w) {
                v.push(w);
            }
        }
    }
    let mut best = wit.w1.max(wit.w2) + 1;
    for &w2 in &warp_range(b, fb) {
        if w2 + 1 >= best {
            break;
        }
        for &l2 in &b.observed[LANE] {
            let want = fb.c[LANE] * l2 + fb.c[WARP] * w2 + d;
            let Some(ws) = base_a.get(&want) else {
                continue;
            };
            if let Some(&w1) = ws.iter().find(|&&w| w != w2) {
                best = best.min(w1.max(w2) + 1);
            }
        }
    }
    best
}

/// Runs the contract checker: witnessed cross-warp shared races
/// generalized through the fitted forms, observed bounds violations
/// expressed against the symbolic form, and non-affine fallbacks.
/// Findings are deterministic (coalesced and ordered).
pub fn check_contracts(contracts: &[KernelContract]) -> Vec<Finding> {
    let mut set = FindingSet::default();
    for kc in contracts {
        for s in &kc.sites {
            match &s.form {
                Form::Interval { min, max, stride } => {
                    set.record(
                        FindingKind::NonAffineAccess,
                        &kc.kernel,
                        &format!("{} @ {}", s.buf, s.site),
                        format!(
                            "no affine form fits {} accesses (interval [{min}, {max}] \
                             stride {stride}); race/bounds proofs skipped for this site",
                            s.count
                        ),
                    );
                    if let Some(extent) = s.extent {
                        if *min < 0 || *max >= extent {
                            set.record(
                                FindingKind::ContractOutOfBounds,
                                &kc.kernel,
                                &format!("{} @ {}", s.buf, s.site),
                                format!("observed words [{min}, {max}] exceed extent {extent}"),
                            );
                        }
                    }
                }
                Form::Affine(f) => {
                    if let Some(extent) = s.extent {
                        // Bounds are judged on the observed word span.
                        // Evaluating the form at per-dimension corners
                        // would overshoot guarded joint supports (lane
                        // and warp extremes that never co-occur under a
                        // `tid < n` guard); the span is exactly what
                        // the launches touched — including any faulting
                        // word, which the tape records before aborting.
                        let (min, max) = (s.word_min, s.word_max);
                        if min < 0 || max >= extent {
                            set.record(
                                FindingKind::ContractOutOfBounds,
                                &kc.kernel,
                                &format!("{} @ {}", s.buf, s.site),
                                format!(
                                    "form {} reaches words [{min}, {max}] over the \
                                     observed launches, exceeding extent {extent}",
                                    f.render()
                                ),
                            );
                        }
                    }
                }
            }
        }

        // Race proofs: shared-space affine site pairs with >= 1 writer.
        let shared: Vec<&SiteContract> = kc.sites.iter().filter(|s| s.is_shared()).collect();
        for (i, a) in shared.iter().enumerate() {
            for b in &shared[i..] {
                if a.buf != b.buf {
                    continue;
                }
                let a_writes = a.writes();
                let b_writes = b.writes();
                if !(a_writes || b_writes) {
                    continue;
                }
                let (Form::Affine(fa), Form::Affine(fb)) = (&a.form, &b.form) else {
                    continue;
                };
                if let Some(wit) = find_collision(a, b) {
                    let n = min_warps(a, fa, b, fb, &wit);
                    set.record(
                        FindingKind::ContractRace,
                        &kc.kernel,
                        &format!("{} @ {} x {}", a.buf, a.site, b.site),
                        format!(
                            "provable cross-warp race: {} ({}) and {} ({}) both reach \
                             word {} in phase {} (witness: warp {} lane {} vs warp {} \
                             lane {}) — collides in every grid with >= {n} warps per \
                             block",
                            a.site,
                            fa.render(),
                            b.site,
                            fb.render(),
                            wit.word,
                            wit.phase,
                            wit.w1,
                            wit.l1,
                            wit.w2,
                            wit.l2
                        ),
                    );
                }
            }
        }
    }
    set.into_findings()
}

/// Compares contracts fitted at two scales and flags pattern-class
/// degradation: a site affine at the base (tiny) scale but non-affine at
/// the verification scale invalidates tiny-grid evidence for it.
/// (Raw coefficients legitimately change with scale — a row stride *is*
/// the image width — so only the class is compared.)
pub fn compare_scales(base: &[KernelContract], verify: &[KernelContract]) -> Vec<Finding> {
    let mut set = FindingSet::default();
    for kb in base {
        let Some(kv) = verify.iter().find(|k| k.kernel == kb.kernel) else {
            continue;
        };
        for sb in &kb.sites {
            if !matches!(sb.form, Form::Affine(_)) {
                continue;
            }
            let Some(sv) = kv
                .sites
                .iter()
                .find(|s| s.site == sb.site && s.buf == sb.buf)
            else {
                continue;
            };
            if let Form::Interval { min, max, .. } = sv.form {
                set.record(
                    FindingKind::ContractScaleVariance,
                    &kb.kernel,
                    &format!("{} @ {}", sb.buf, sb.site),
                    format!(
                        "affine at the base scale but non-affine at the verification \
                         scale (interval [{min}, {max}]): tiny-grid evidence does not \
                         characterize this site"
                    ),
                );
            }
        }
    }
    set.into_findings()
}

// ---- reporting --------------------------------------------------------

fn access_str(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Load => "load",
        AccessKind::Store => "store",
    }
}

fn site_json(s: &SiteContract) -> Json {
    let mut pairs = vec![
        ("site", Json::Str(s.site.clone())),
        ("buf", Json::Str(s.buf.clone())),
        ("space", Json::Str(s.space.to_string())),
        ("access", Json::Str(access_str(s.kind).to_string())),
        ("count", Json::u64(s.count)),
        (
            "words",
            Json::obj(vec![
                ("min", Json::Num(s.word_min as f64)),
                ("max", Json::Num(s.word_max as f64)),
            ]),
        ),
    ];
    match &s.form {
        Form::Affine(f) => {
            pairs.push(("class", Json::Str("affine".to_string())));
            pairs.push((
                "form",
                Json::obj(
                    std::iter::once(("c0", Json::Num(f.c0 as f64)))
                        .chain((0..NDIMS).map(|d| (DIM_NAMES[d], Json::Num(f.c[d] as f64))))
                        .collect(),
                ),
            ));
            pairs.push((
                "known",
                Json::obj(
                    (0..NDIMS)
                        .map(|d| (DIM_NAMES[d], Json::Bool(f.known[d])))
                        .collect(),
                ),
            ));
        }
        Form::Interval { min, max, stride } => {
            pairs.push(("class", Json::Str("interval".to_string())));
            pairs.push((
                "interval",
                Json::obj(vec![
                    ("min", Json::Num(*min as f64)),
                    ("max", Json::Num(*max as f64)),
                    ("stride", Json::Num(*stride as f64)),
                ]),
            ));
        }
    }
    pairs.push(("bank_degree", Json::u64(u64::from(s.bank_degree))));
    pairs.push((
        "coalesce_segments",
        Json::u64(u64::from(s.coalesce_segments)),
    ));
    Json::obj(pairs)
}

/// Serializes inferred contracts: one object per kernel with launch
/// count, barrier uniformity, and per-site forms — the `contracts`
/// payload of `AUDIT_manifest.json`.
pub fn contracts_json(contracts: &[KernelContract]) -> Json {
    Json::Arr(
        contracts
            .iter()
            .map(|kc| {
                Json::obj(vec![
                    ("kernel", Json::Str(kc.kernel.clone())),
                    ("launches", Json::u64(kc.launches)),
                    ("barrier_uniform", Json::Bool(kc.barrier_uniform)),
                    ("sites", Json::Arr(kc.sites.iter().map(site_json).collect())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn affine_samples(f: &Affine, ranges: &[std::ops::Range<i64>; NDIMS]) -> Vec<Sample> {
        let mut out = Vec::new();
        for l in ranges[0].clone() {
            for w in ranges[1].clone() {
                for b in ranges[2].clone() {
                    for p in ranges[3].clone() {
                        for g in ranges[4].clone() {
                            let dims = [l, w, b, p, g];
                            out.push(Sample {
                                dims,
                                addr: f.eval(dims),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn fit_recovers_exact_coefficients() {
        let truth = Affine {
            c0: 7,
            c: [1, 32, 256, -3, 40],
            known: [true; NDIMS],
        };
        let samples = affine_samples(&truth, &[0..4, 0..3, 0..2, 0..2, 0..2]);
        let fit = fit_affine(&samples).expect("affine fit");
        assert_eq!(fit, truth);
    }

    #[test]
    fn fit_marks_unvaried_dims_unknown() {
        let truth = Affine {
            c0: 5,
            c: [2, 0, 0, 0, 0],
            known: [true; NDIMS],
        };
        // Warp/block/phase/launch pinned at 0: their coefficients cannot
        // be identified and must come back as unknown zeros.
        let samples = affine_samples(&truth, &[0..8, 0..1, 0..1, 0..1, 0..1]);
        let fit = fit_affine(&samples).expect("affine fit");
        assert_eq!(fit.c, [2, 0, 0, 0, 0]);
        assert_eq!(fit.known, [true, false, false, false, false]);
    }

    #[test]
    fn fit_rejects_data_dependent_sites() {
        // Same coordinates, two different addresses: indirect gather.
        let s = |addr| Sample {
            dims: [0, 0, 0, 0, 0],
            addr,
        };
        assert_eq!(fit_affine(&[s(3), s(9)]), None);
        // Quadratic in lane: no affine form.
        let quad: Vec<Sample> = (0..6)
            .map(|l| Sample {
                dims: [l, 0, 0, 0, 0],
                addr: l * l,
            })
            .collect();
        assert_eq!(fit_affine(&quad), None);
    }

    #[test]
    fn fit_resolves_one_covarying_dim_by_residual() {
        // Triangular (block, launch) support — launch never varies with
        // block held fixed, so it cannot be isolated by differencing,
        // but block can; the residual solve recovers the launch slope.
        let mut samples = Vec::new();
        for l in 0..4 {
            for (b, g) in [(0, 0), (1, 1), (2, 1)] {
                samples.push(Sample {
                    dims: [l, 0, b, 0, g],
                    addr: 100 + 2 * l + 7 * b + 11 * g,
                });
            }
        }
        let fit = fit_affine(&samples).expect("fit");
        assert_eq!(fit.c, [2, 0, 7, 0, 11]);
        assert_eq!(fit.c0, 100);
        for s in &samples {
            assert_eq!(fit.eval(s.dims), s.addr);
        }

        // Two perfectly co-varying dims are irrecoverable by contract:
        // the split of the combined slope is ambiguous.
        let lockstep: Vec<Sample> = (0..3)
            .flat_map(|bg| {
                (0..4).map(move |l| Sample {
                    dims: [l, 0, bg, 0, bg],
                    addr: 100 + 2 * l + 7 * bg,
                })
            })
            .collect();
        assert_eq!(fit_affine(&lockstep), None);
    }

    /// Builds a site whose samples, observed sets, and word span all
    /// derive from evaluating `f` over the given dimension ranges —
    /// i.e. a contract exactly as [`ContractFitter`] would fit it from
    /// an unguarded kernel.
    fn site_from_form(
        site: &str,
        buf: &str,
        space: MemSpace,
        kind: AccessKind,
        f: Affine,
        ranges: &[std::ops::Range<i64>; NDIMS],
        extent: Option<i64>,
    ) -> SiteContract {
        let samples = affine_samples(&f, ranges);
        let (word_min, word_max) = samples.iter().fold((i64::MAX, i64::MIN), |(lo, hi), s| {
            (lo.min(s.addr), hi.max(s.addr))
        });
        SiteContract {
            site: site.to_string(),
            buf: buf.to_string(),
            space,
            kind,
            count: samples.len() as u64,
            form: Form::Affine(f),
            observed: std::array::from_fn(|d| ranges[d].clone().collect()),
            samples,
            word_min,
            word_max,
            extent,
            bank_degree: 0,
            coalesce_segments: 0,
        }
    }

    fn kernel_of(name: &str, sites: Vec<SiteContract>) -> KernelContract {
        KernelContract {
            kernel: name.to_string(),
            launches: 1,
            barrier_uniform: true,
            sites,
        }
    }

    #[test]
    fn lane_indexed_staging_race_is_proven_symbolically() {
        // The SRAD v2 regression: staging indexed by warp lane instead of
        // block-local tid. addr = 16 + lane, warp coefficient 0 — warps
        // 0 and 1 are a witnessed collision, and the form generalizes it
        // to any grid with >= 2 warps.
        let racy = Affine {
            c0: 16,
            c: [1, 0, 0, 0, 0],
            known: [true, true, false, false, false],
        };
        let site = site_from_form(
            "srad.rs:1:1",
            "shared f32",
            MemSpace::Shared,
            AccessKind::Store,
            racy,
            &[0..32, 0..2, 0..1, 0..1, 0..1],
            Some(1024),
        );
        let findings = check_contracts(&[kernel_of("srad_v2", vec![site])]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::ContractRace);
        assert!(findings[0].message.contains(">= 2 warps"));

        // The fixed version (addr = warp*32 + lane) must prove clean.
        let fixed = Affine {
            c0: 16,
            c: [1, 32, 0, 0, 0],
            known: [true, true, false, false, false],
        };
        let site = site_from_form(
            "srad.rs:1:1",
            "shared f32",
            MemSpace::Shared,
            AccessKind::Store,
            fixed,
            &[0..32, 0..2, 0..1, 0..1, 0..1],
            Some(1024),
        );
        assert!(check_contracts(&[kernel_of("srad_v2", vec![site])]).is_empty());
    }

    #[test]
    fn witness_from_distant_warps_generalizes_to_two() {
        // A warp-invariant store witnessed by warps 0 and 5: the forms
        // prove warps 0 and 1 already collide, so the claim tightens to
        // ">= 2 warps" rather than parroting the witnessed pair.
        let f = Affine {
            c0: 0,
            c: [1, 0, 0, 0, 0],
            known: [true, true, false, false, false],
        };
        let mut site = site_from_form(
            "k.rs:2:2",
            "shared f32",
            MemSpace::Shared,
            AccessKind::Store,
            f,
            &[0..32, 0..2, 0..1, 0..1, 0..1],
            Some(64),
        );
        // Relabel warp 1 as warp 5 (cw = 0, so addresses are unchanged):
        // the witnessed pair is (0, 5), the provable minimum is (0, 1).
        for s in &mut site.samples {
            if s.dims[WARP] == 1 {
                s.dims[WARP] = 5;
            }
        }
        site.observed[WARP] = vec![0, 5];
        let findings = check_contracts(&[kernel_of("k", vec![site])]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::ContractRace);
        assert!(findings[0].message.contains(">= 2 warps"));
    }

    #[test]
    fn unknown_warp_coefficient_is_never_extrapolated() {
        // A site only ever executed by warp 0 (a `if warp == 0` guard):
        // no second warp was ever observed, so no witness exists and no
        // symbolic warp pair may be conjured from the form alone.
        let site = site_from_form(
            "k.rs:9:9",
            "shared f32",
            MemSpace::Shared,
            AccessKind::Store,
            Affine {
                c0: 0,
                c: [1, 0, 0, 0, 0],
                known: [true, false, false, false, false],
            },
            &[0..32, 0..1, 0..1, 0..1, 0..1],
            Some(64),
        );
        assert!(check_contracts(&[kernel_of("guarded", vec![site])]).is_empty());
    }

    #[test]
    fn guarded_disjoint_supports_do_not_race() {
        // The LU-diagonal pattern: a pivot store touching word 17*p - 17
        // in phase p, against a tid-indexed store whose guard excludes
        // exactly that word in that phase. The per-dimension observed
        // sets cross-multiply to a collision, but no sample backs one —
        // the checker must stay quiet.
        let pivot = site_from_form(
            "lud.rs:309:33",
            "shared f32",
            MemSpace::Shared,
            AccessKind::Store,
            Affine {
                c0: -17,
                c: [0, 0, 0, 17, 0],
                known: [false, false, false, true, false],
            },
            &[0..1, 0..1, 0..1, 1..3, 0..1],
            Some(256),
        );
        let mut guarded = site_from_form(
            "lud.rs:311:23",
            "shared f32",
            MemSpace::Shared,
            AccessKind::Store,
            Affine {
                c0: 0,
                c: [1, 32, 0, 0, 0],
                known: [true, true, false, true, false],
            },
            &[0..32, 0..2, 0..1, 1..3, 0..1],
            Some(256),
        );
        // The guard: in phase p the tid-indexed store skips the pivot
        // word 17*p - 17.
        guarded.samples.retain(|s| s.addr != 17 * s.dims[3] - 17);
        let findings = check_contracts(&[kernel_of("lud", vec![pivot, guarded])]);
        assert!(
            findings.is_empty(),
            "phantom race from cross-multiplied supports: {findings:?}"
        );
    }

    #[test]
    fn bounds_violation_reported_against_the_form() {
        let site = site_from_form(
            "k.rs:5:5",
            "out",
            MemSpace::Global,
            AccessKind::Store,
            Affine {
                c0: 0,
                c: [1, 0, 0, 0, 0],
                known: [true, false, false, false, false],
            },
            &[0..40, 0..1, 0..1, 0..1, 0..1],
            Some(32),
        );
        let findings = check_contracts(&[kernel_of("oob", vec![site])]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::ContractOutOfBounds);
    }

    #[test]
    fn guarded_joint_support_is_not_out_of_bounds() {
        // The heartwall pattern: `if tid < 169` over a 6-warp block.
        // Corner evaluation (lane 31 x warp 5 = word 191) overshoots a
        // joint support those corners never reach; the observed span
        // [0, 168] is exactly in bounds.
        let f = Affine {
            c0: 0,
            c: [1, 32, 0, 0, 0],
            known: [true, true, false, false, false],
        };
        let samples: Vec<Sample> = (0..169)
            .map(|t| Sample {
                dims: [t % 32, t / 32, 0, 0, 0],
                addr: t,
            })
            .collect();
        let site = SiteContract {
            site: "hw.rs:3:3".to_string(),
            buf: "shared f32".to_string(),
            space: MemSpace::Shared,
            kind: AccessKind::Load,
            count: samples.len() as u64,
            form: Form::Affine(f),
            observed: [
                (0..32).collect(),
                (0..6).collect(),
                vec![0],
                vec![0],
                vec![0],
            ],
            samples,
            word_min: 0,
            word_max: 168,
            extent: Some(169),
            bank_degree: 0,
            coalesce_segments: 0,
        };
        assert!(check_contracts(&[kernel_of("hw", vec![site])]).is_empty());
    }

    #[test]
    fn scale_class_degradation_is_flagged() {
        let mk = |form: Form| {
            vec![KernelContract {
                kernel: "k".to_string(),
                launches: 1,
                barrier_uniform: true,
                sites: vec![SiteContract {
                    site: "k.rs:1:1".to_string(),
                    buf: "a".to_string(),
                    space: MemSpace::Global,
                    kind: AccessKind::Load,
                    count: 4,
                    form,
                    observed: [vec![0], vec![0], vec![0], vec![0], vec![0]],
                    samples: vec![],
                    word_min: 0,
                    word_max: 0,
                    extent: Some(64),
                    bank_degree: 0,
                    coalesce_segments: 1,
                }],
            }]
        };
        let affine = mk(Form::Affine(Affine {
            c0: 0,
            c: [1, 0, 0, 0, 0],
            known: [true, false, false, false, false],
        }));
        let interval = mk(Form::Interval {
            min: 0,
            max: 63,
            stride: 1,
        });
        let findings = compare_scales(&affine, &interval);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::ContractScaleVariance);
        assert!(compare_scales(&affine, &affine).is_empty());
        // Non-affine at base scale is a caveat, not scale variance.
        assert!(compare_scales(&interval, &interval).is_empty());
    }

    #[test]
    fn contracts_json_is_deterministic() {
        let kc = vec![KernelContract {
            kernel: "k".to_string(),
            launches: 2,
            barrier_uniform: true,
            sites: vec![SiteContract {
                site: "k.rs:1:1".to_string(),
                buf: "a".to_string(),
                space: MemSpace::Global,
                kind: AccessKind::Store,
                count: 4,
                form: Form::Affine(Affine {
                    c0: 3,
                    c: [1, 32, 0, 0, 0],
                    known: [true, true, false, false, false],
                }),
                observed: [vec![0, 1], vec![0], vec![0], vec![0], vec![0, 1]],
                samples: vec![],
                word_min: 3,
                word_max: 36,
                extent: Some(64),
                bank_degree: 0,
                coalesce_segments: 1,
            }],
        }];
        let a = format!("{}", contracts_json(&kc));
        let b = format!("{}", contracts_json(&kc));
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("valid json");
        let k0 = &parsed.as_arr().expect("arr")[0];
        assert_eq!(k0.get("kernel").and_then(Json::as_str), Some("k"));
        let s0 = &k0.get("sites").and_then(Json::as_arr).expect("sites")[0];
        assert_eq!(s0.get("class").and_then(Json::as_str), Some("affine"));
        assert_eq!(
            s0.get("form")
                .and_then(|f| f.get("warp"))
                .and_then(Json::as_f64),
            Some(32.0)
        );
        assert_eq!(
            s0.get("words")
                .and_then(|w| w.get("max"))
                .and_then(Json::as_f64),
            Some(36.0)
        );
    }
}
