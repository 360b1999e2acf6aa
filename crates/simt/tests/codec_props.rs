//! Property tests on the kernel-trace payload codec: any byte string —
//! random bytes, or a real payload with one byte flipped, dropped, or
//! inserted — decodes to `Ok` or a typed [`CodecError`] and never
//! panics, and every `Ok` re-encodes to exactly its input (the
//! canonical form the store relies on).

use std::sync::Arc;

use proptest::prelude::*;
use simt::trace::{CtaTrace, WarpTrace};
use simt::{
    decode_capture_payload, encode_capture_payload, trace_kernel, BufF32, CodecError, GpuConfig,
    GpuMem, GridShape, Kernel, KernelTrace, MemSpace, PhaseControl, TOp, WarpCtx,
    TRACE_CODEC_VERSION,
};

/// A small real kernel: a strided load, some arithmetic, a store.
struct Saxpy {
    buf: BufF32,
    n: usize,
}

impl Kernel for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }
    fn shape(&self) -> GridShape {
        GridShape::cover(self.n, 64)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let (buf, n) = (self.buf, self.n);
        let x = w.ld_f32(buf, |_, tid| (tid < n).then_some((tid * 3) % n));
        w.alu(2);
        w.st_f32(buf, |lane, tid| (tid < n).then_some((tid, x[lane] + 1.0)));
        PhaseControl::Done
    }
}

/// One warp holding every op variant, so every tag is in the payload.
fn kitchen_sink() -> KernelTrace {
    let mut warp = WarpTrace::default();
    let mut segs = || warp.push_segs(&[0, 1 << 40]).expect("fits a range");
    let (space, gmem, tex) = (MemSpace::Local, segs(), segs());
    warp.ops = vec![
        TOp::Alu { n: 3, lanes: 32 },
        TOp::Sfu { n: 1, lanes: 16 },
        TOp::Shared {
            degree: 4,
            lanes: 32,
            store: true,
        },
        TOp::Gmem {
            space,
            store: false,
            lanes: 8,
            segs: gmem,
        },
        TOp::Tex {
            lanes: 32,
            segs: tex,
        },
        TOp::Const {
            lanes: 32,
            unique: 2,
        },
        TOp::Param { n: 2, lanes: 32 },
        TOp::Branch { lanes: 32 },
        TOp::Bar,
    ];
    KernelTrace {
        name: "kitchen-sink".to_string(),
        ctas: vec![CtaTrace { warps: vec![warp] }],
        threads_per_block: 32,
        regs_per_thread: 21,
        shared_bytes_per_cta: 2048,
        warp_size: 32,
    }
}

/// A real capture payload: a functional-run trace plus the kitchen sink.
fn real_payload() -> Vec<u8> {
    let cfg = GpuConfig::gpgpusim_default();
    let mut mem = GpuMem::new();
    let buf = mem.alloc_f32_zeroed("buf", 128);
    let saxpy = Arc::new(trace_kernel(&Saxpy { buf, n: 128 }, &mut mem, &cfg));
    encode_capture_payload(&[saxpy, Arc::new(kitchen_sink())], 4096, 512)
}

/// Decodes `bytes`; an `Ok` must re-encode to exactly `bytes`.
fn check(bytes: &[u8]) -> Result<(), String> {
    match decode_capture_payload(bytes) {
        Ok((traces, h2d, d2h)) => {
            prop_assert_eq!(encode_capture_payload(&traces, h2d, d2h), bytes.to_vec());
        }
        Err(CodecError { offset, .. }) => {
            prop_assert!(
                offset <= bytes.len(),
                "offset {offset} past {} bytes",
                bytes.len()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes, bare or behind a valid version tag (so decoding
    /// gets past the first field), never panic.
    #[test]
    fn arbitrary_bytes_decode_or_fail_cleanly(
        body in proptest::collection::vec(0u8..=255, 0..512),
        versioned in proptest::bool::ANY,
    ) {
        let mut bytes = Vec::new();
        if versioned {
            bytes.extend_from_slice(&TRACE_CODEC_VERSION.to_le_bytes());
        }
        bytes.extend_from_slice(&body);
        check(&bytes)?;
    }

    /// A real payload with one byte flipped (by a random delta),
    /// dropped, or inserted, at every offset, never panics, and any
    /// `Ok` is canonical.
    #[test]
    fn single_byte_mutations_decode_or_fail_cleanly(delta in 1u8..=255) {
        let clean = real_payload();
        for at in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[at] ^= delta;
            let mut dropped = clean.clone();
            dropped.remove(at);
            let mut inserted = clean.clone();
            inserted.insert(at, delta);
            for mutated in [flipped, dropped, inserted] {
                check(&mutated)?;
            }
        }
    }
}
