//! Property tests for affine access-contract inference.
//!
//! Two properties, end to end through the real capture pipeline
//! (kernel → sanitizer events → [`sanitize::ContractFitter`]):
//!
//! 1. On randomly generated *affine* kernels — one store site whose
//!    index is `c0 + cl*lane + cw*warp + cb*block` — inference recovers
//!    every coefficient **exactly**, and the contract checker reports
//!    nothing.
//! 2. On deliberately *non-affine* kernels (an indirect permutation
//!    store into shared memory), inference degrades to an interval
//!    summary and never invents a race: the only findings are
//!    non-affine caveat warnings, no errors.

use proptest::prelude::*;
use sanitize::{check_contracts, ContractFitter, FindingKind, Form, KernelContract, Severity};
use simt::{BufF32, Gpu, GpuConfig, GridShape, Kernel, PhaseControl, WarpCtx};

const WS: usize = 32;

struct AffineKernel {
    buf: BufF32,
    blocks: usize,
    warps: usize,
    c0: usize,
    cl: usize,
    cw: usize,
    cb: usize,
}

impl Kernel for AffineKernel {
    fn name(&self) -> &str {
        "affine-store"
    }
    fn shape(&self) -> GridShape {
        GridShape::new(self.blocks, self.warps * WS)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let (warp, block) = (w.warp(), w.block());
        w.st_f32(self.buf, |lane, _| {
            let idx = self.c0 + self.cl * lane + self.cw * warp + self.cb * block;
            Some((idx, lane as f32))
        });
        PhaseControl::Done
    }
}

/// Indirect store: each warp writes a permuted scatter of its block's
/// shared tile — race-free by construction (a permutation touches every
/// word exactly once) but affine in no dimension.
struct PermKernel {
    perm: Vec<usize>,
    warps: usize,
}

impl Kernel for PermKernel {
    fn name(&self) -> &str {
        "perm-store"
    }
    fn shape(&self) -> GridShape {
        GridShape::new(2, self.warps * WS)
    }
    fn shared_f32_words(&self) -> usize {
        self.perm.len()
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let base = w.warp() * WS;
        w.sh_st_f32(|lane, _| Some((self.perm[base + lane], lane as f32)));
        PhaseControl::Done
    }
}

/// Launches the kernel `build` makes once, fitting its contracts as
/// it executes.
fn fit(build: impl FnOnce(&mut Gpu) -> Box<dyn Kernel>) -> Vec<KernelContract> {
    let cfg = GpuConfig::gpgpusim_default();
    let mut gpu = Gpu::try_new(cfg.clone()).expect("default config");
    gpu.set_tape_sink(Box::new(ContractFitter::new(
        cfg.shared_banks,
        cfg.segment_bytes,
    )));
    let kernel = build(&mut gpu);
    gpu.launch(kernel.as_ref());
    let fitter: ContractFitter = gpu.take_tape_sink().expect("the fitter is installed");
    fitter.finish()
}

fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    // Guard against the (astronomically rare) affine permutation: the
    // property is that *non-affine* indices degrade gracefully.
    let affine = n >= 2
        && (0..n).all(|i| p[i] == p[0].wrapping_add(i.wrapping_mul(p[1].wrapping_sub(p[0]))));
    if affine {
        p.swap(0, 1);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Inference recovers affine coefficients exactly from tape evidence.
    #[test]
    fn affine_coefficients_are_recovered_exactly(
        blocks in 2usize..=4,
        warps in 2usize..=4,
        c0 in 0usize..=8,
        cl in 1usize..=4,
        cw in 0usize..=130,
        cb in 1usize..=260,
    ) {
        let words = c0 + cl * (WS - 1) + cw * (warps - 1) + cb * (blocks - 1) + 1;
        let contracts = fit(|gpu| {
            let buf = gpu.mem_mut().alloc_f32("data", &vec![0.0; words]);
            Box::new(AffineKernel { buf, blocks, warps, c0, cl, cw, cb })
        });
        prop_assert_eq!(contracts.len(), 1);
        prop_assert_eq!(contracts[0].launches, 1);
        prop_assert_eq!(contracts[0].sites.len(), 1);
        let site = &contracts[0].sites[0];
        match &site.form {
            Form::Affine(f) => {
                prop_assert_eq!(f.c0, c0 as i64);
                prop_assert_eq!(f.c, [cl as i64, cw as i64, cb as i64, 0, 0]);
                prop_assert_eq!(f.known, [true, true, true, false, false]);
            }
            other => prop_assert!(false, "expected affine form, got {:?}", other),
        }
        prop_assert!(check_contracts(&contracts).is_empty());
    }

    /// Indirect (permutation) stores degrade to interval summaries with
    /// no false race or bounds findings — caveat warnings only.
    #[test]
    fn non_affine_sites_degrade_without_false_findings(
        warps in 2usize..=4,
        seed in 0u64..1 << 32,
    ) {
        let perm = permutation(warps * WS, seed);
        let contracts = fit(|_| Box::new(PermKernel { perm, warps }));
        prop_assert_eq!(contracts.len(), 1);
        let site = &contracts[0].sites[0];
        match site.form {
            Form::Interval { min, max, .. } => {
                prop_assert_eq!(min, 0);
                prop_assert_eq!(max, (warps * WS - 1) as i64);
            }
            ref other => prop_assert!(false, "expected interval, got {:?}", other),
        }
        let findings = check_contracts(&contracts);
        prop_assert!(
            findings.iter().all(|f| f.severity() == Severity::Warning
                && f.kind == FindingKind::NonAffineAccess),
            "expected only non-affine caveats: {:?}",
            findings
        );
    }
}
