//! The `simt::fault` harness as the contract checker's true-positive
//! corpus, plus the motivating regression: the SRAD v2 staging-index
//! race, reintroduced and proven from tiny-grid evidence alone.
//!
//! Unlike the dynamic sanitizer (which reports what one launch *did*),
//! the contract checker fits symbolic access forms and proves properties
//! for all grids. The bar here is the same in both directions:
//!
//! * Every memory-fault class that streams an out-of-bounds word must
//!   surface as [`FindingKind::ContractOutOfBounds`].
//! * No fault class — however it aborts the launch — may provoke a
//!   *false* contract error. Aborted launches are partial evidence, and
//!   partial evidence must degrade to weaker claims, never wrong ones.

use sanitize::{check_contracts, ContractFitter, FindingKind, KernelContract, Severity};
use simt::fault::{inject_sink, Fault};
use simt::{BufF32, Gpu, GpuConfig, GridShape, Kernel, PhaseControl, WarpCtx};

/// A fitter parameterized by the default configuration, which every
/// scenario here runs under.
fn fitter() -> ContractFitter {
    let cfg = GpuConfig::gpgpusim_default();
    ContractFitter::new(cfg.shared_banks, cfg.segment_bytes)
}

/// Fits the contracts of `fault`'s scenario as it executes.
fn fit_fault(fault: Fault) -> (Result<String, simt::SimError>, Vec<KernelContract>) {
    let (outcome, fitter) = inject_sink(fault, fitter());
    (outcome, fitter.finish())
}

/// Fault classes whose scenario drives a word past an allocation's
/// extent, leaving the violation on the tape.
const OOB_FAULTS: [Fault; 3] = [
    Fault::OutOfRangeLoad,
    Fault::OutOfRangeStore,
    Fault::SharedOutOfRange,
];

#[test]
fn oob_fault_classes_are_contract_bounds_violations() {
    for fault in OOB_FAULTS {
        let (outcome, contracts) = fit_fault(fault);
        assert!(outcome.is_err(), "{fault:?}: scenario no longer faults");
        assert!(!contracts.is_empty(), "{fault:?}: no launch to infer from");
        let findings = check_contracts(&contracts);
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::ContractOutOfBounds),
            "{fault:?}: contract checker missed the bounds violation: {findings:?}"
        );
    }
}

#[test]
fn no_fault_class_provokes_a_false_contract_error() {
    // Across the whole harness, the only *error*-severity contract
    // finding allowed is the bounds violation on the classes that
    // genuinely go out of bounds. Everything else — divergent barriers,
    // truncated traces, config rejections — streams launches (or none)
    // from which no race or bounds claim may be minted.
    for fault in Fault::all() {
        let (_, contracts) = fit_fault(fault);
        let spurious: Vec<_> = check_contracts(&contracts)
            .into_iter()
            .filter(|f| f.severity() == Severity::Error)
            .filter(|f| {
                !(OOB_FAULTS.contains(&fault) && f.kind == FindingKind::ContractOutOfBounds)
            })
            .collect();
        assert!(
            spurious.is_empty(),
            "{fault:?}: spurious contract errors {spurious:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The SRAD v2 staging race, reintroduced.
//
// `rodinia-gpu`'s SRAD v2 stages per-thread diffusion operands in
// shared tiles, one slot per *block-local* thread id (`ltid % (TILE *
// TILE)`). The historical bug indexed the staging slot by warp *lane*
// instead, so every warp of the CTA fought over slots `0..32`. A
// tiny-grid dynamic run can miss it (one warp per block: no
// collision); the contract checker must prove it from the same tiny
// evidence, because the fitted warp coefficient is 0 and symbolic
// warp-extrapolation shows any second warp colliding.
// ---------------------------------------------------------------------

const WS: usize = 32;

struct SradStaging {
    out: BufF32,
    warps: usize,
    /// Reintroduces the historical bug: staging slot = lane instead of
    /// block-local thread id.
    racy: bool,
}

impl Kernel for SradStaging {
    fn name(&self) -> &str {
        "srad-v2-staging"
    }
    fn shape(&self) -> GridShape {
        GridShape::new(1, self.warps * WS)
    }
    fn shared_f32_words(&self) -> usize {
        self.warps * WS
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let warp = w.warp();
        let racy = self.racy;
        let slot = move |lane: usize| if racy { lane } else { warp * WS + lane };
        if w.phase() == 0 {
            // Stage phase: park each thread's operand in its slot.
            w.sh_st_f32(move |lane, tid| Some((slot(lane), tid as f32)));
            return PhaseControl::Continue;
        }
        // Compute phase: read the staged operand back and emit it.
        let staged = w.sh_ld_f32(move |lane, _| Some(slot(lane)));
        let out = self.out;
        w.st_f32(out, move |lane, tid| Some((tid, staged[lane])));
        PhaseControl::Done
    }
}

/// Fits the contracts of one launch of the staging kernel as it
/// executes.
fn fit_staging(warps: usize, racy: bool) -> Vec<KernelContract> {
    let mut gpu = Gpu::try_new(GpuConfig::gpgpusim_default()).expect("default config");
    gpu.set_tape_sink(Box::new(fitter()));
    let out = gpu.mem_mut().alloc_f32("out", &vec![0.0f32; warps * WS]);
    gpu.launch(&SradStaging { out, warps, racy });
    let fitter: ContractFitter = gpu.take_tape_sink().expect("the fitter is installed");
    fitter.finish()
}

#[test]
fn reintroduced_srad_staging_race_is_proven_from_tiny_evidence() {
    // Two warps, one block — the smallest grid where the slots overlap
    // at all. The proof must still be *symbolic*: the finding claims
    // the collision for every grid with >= 2 warps per block, not just
    // this one.
    let contracts = fit_staging(2, true);
    let races: Vec<_> = check_contracts(&contracts)
        .into_iter()
        .filter(|f| f.kind == FindingKind::ContractRace)
        .collect();
    assert!(
        !races.is_empty(),
        "staging race with warp coefficient 0 was not proven"
    );
    assert!(
        races
            .iter()
            .any(|f| f.message.contains(">= 2 warps per block")),
        "race claim is not symbolic over warps: {races:?}"
    );
}

#[test]
fn fixed_srad_staging_indexing_proves_clean() {
    // Block-local slot (`warp * WS + lane`): the fitted warp
    // coefficient is the warp stride, so no two warps share a word and
    // the checker proves race-freedom — zero findings of any severity.
    let contracts = fit_staging(2, false);
    let findings = check_contracts(&contracts);
    assert!(
        findings.is_empty(),
        "fixed staging indexing must prove clean: {findings:?}"
    );
}
