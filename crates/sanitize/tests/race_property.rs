//! Property tests for the shared-memory race checker.
//!
//! A synthetic kernel assigns each warp a 32-word slot of the CTA's
//! shared tile and stores its lane values there, then (after a barrier)
//! reads a *different* warp's slot back. When the slot assignment is a
//! permutation the kernel is race-free by construction: within the
//! first barrier interval every word has exactly one writing warp, and
//! the cross-warp reads happen in the next interval. Corrupting the
//! permutation so two warps share a slot creates a write/write race on
//! the same words in the same interval.
//!
//! The properties: corrupted assignments are *always* flagged as
//! [`FindingKind::SharedRace`], and permutations are *never* flagged
//! with anything.

use proptest::prelude::*;
use sanitize::{Analyzer, Finding, FindingKind, Severity};
use simt::{Gpu, GpuConfig, GridShape, Kernel, PhaseControl, WarpCtx};

/// Lanes (and shared words) each warp owns.
const SLOT: usize = 32;

/// One warp per entry of `assign`; warp `w` stores to shared words
/// `assign[w] * SLOT ..`, then after the barrier loads warp
/// `(w + 1) % n` 's slot.
struct SlotWriter {
    assign: Vec<usize>,
}

impl Kernel for SlotWriter {
    fn name(&self) -> &str {
        "slot-writer"
    }
    fn shape(&self) -> GridShape {
        GridShape::new(1, self.assign.len() * SLOT)
    }
    fn shared_f32_words(&self) -> usize {
        self.assign.len() * SLOT
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let n = self.assign.len();
        if w.phase() == 0 {
            let base = self.assign[w.warp()] * SLOT;
            w.sh_st_f32(|lane, _| Some((base + lane, lane as f32)));
            PhaseControl::Continue
        } else {
            let base = self.assign[(w.warp() + 1) % n] * SLOT;
            let _ = w.sh_ld_f32(|lane, _| Some(base + lane));
            PhaseControl::Done
        }
    }
}

/// Runs the kernel under an [`Analyzer`] and returns its findings.
fn findings_of(assign: Vec<usize>) -> Vec<Finding> {
    let mut gpu = Gpu::try_new(GpuConfig::gpgpusim_default()).expect("default config");
    gpu.set_tape_sink(Box::new(Analyzer::new()));
    gpu.launch(&SlotWriter { assign });
    let analyzer: Analyzer = gpu.take_tape_sink().expect("the analyzer is installed");
    analyzer.finish()
}

/// Deterministic Fisher–Yates from an explicit seed (splitmix64), so
/// each generated case is a reproducible permutation.
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
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Race-free permutations never produce a finding of any severity.
    #[test]
    fn permutation_is_never_flagged(n in 2usize..=4, seed in 0u64..1 << 32) {
        let findings = findings_of(permutation(n, seed));
        prop_assert!(
            findings.is_empty(),
            "clean kernel flagged: {:?}",
            findings
        );
    }

    /// Corrupting the permutation so two warps share a slot is always
    /// flagged as a shared race — and only as a shared race.
    #[test]
    fn duplicate_slot_is_always_flagged(
        n in 2usize..=4,
        seed in 0u64..1 << 32,
        pick in 0u64..1 << 32,
    ) {
        let mut assign = permutation(n, seed);
        let from = (pick % n as u64) as usize;
        let to = (from + 1 + (pick / n as u64) as usize % (n - 1)) % n;
        assign[to] = assign[from]; // two warps, one slot
        let findings = findings_of(assign);
        prop_assert!(
            findings.iter().any(|f| f.kind == FindingKind::SharedRace),
            "racy kernel not flagged: {:?}",
            findings
        );
        prop_assert!(
            findings
                .iter()
                .filter(|f| f.severity() == Severity::Error)
                .all(|f| f.kind == FindingKind::SharedRace),
            "unexpected extra errors: {:?}",
            findings
        );
    }
}
