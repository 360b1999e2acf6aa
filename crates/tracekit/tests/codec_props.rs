//! Property tests on the CPU-capture payload codec: any byte string —
//! random bytes, or a real payload with one byte flipped, dropped, or
//! inserted — decodes to `Ok` or a typed [`CpuCodecError`] and never
//! panics, and every `Ok` re-encodes to exactly its input (the
//! canonical form the store relies on).

use proptest::prelude::*;
use tracekit::{
    decode_capture, encode_capture, CpuCapture, CpuCodecError, CpuWorkload, ProfileConfig,
    Profiler, ThreadTracer, CPU_CODEC_VERSION,
};

/// A small workload with reads, writes, a line straddle, and branches.
struct Blend;

impl CpuWorkload for Blend {
    fn name(&self) -> &'static str {
        "blend"
    }
    fn run(&self, prof: &mut Profiler) {
        let data = prof.alloc("data", 64 * 64);
        let code = prof.code_region("blend_loop", 128);
        prof.serial(|t: &mut ThreadTracer| {
            t.exec(code);
            t.write(data + 62, 8);
        });
        prof.parallel(|t| {
            t.exec(code);
            for i in 0..4u64 {
                t.read(data + (t.tid() as u64 * 4 + i) * 64, 4);
                t.branch(1);
            }
        });
    }
}

/// A real capture payload.
fn real_payload() -> Vec<u8> {
    let cfg = ProfileConfig {
        threads: 2,
        ..ProfileConfig::default()
    };
    encode_capture(&CpuCapture::capture(&Blend, &cfg).expect("capture"))
}

/// Decodes `bytes`; an `Ok` must re-encode to exactly `bytes`.
fn check(bytes: &[u8]) -> Result<(), String> {
    match decode_capture(bytes) {
        Ok(cap) => prop_assert_eq!(encode_capture(&cap), bytes.to_vec()),
        Err(CpuCodecError { offset, .. }) => {
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
            bytes.extend_from_slice(&CPU_CODEC_VERSION.to_le_bytes());
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
