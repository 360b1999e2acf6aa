//! Binary codec for [`CpuCapture`] — the persistent-store payload
//! format for CPU traces.
//!
//! The payload is everything [`CpuCapture::from_parts`] needs: the
//! capacity-independent base [`Profile`] (name, instruction mix,
//! footprints, event count — `cache_stats` is empty by construction in
//! capture mode and is not serialized), the replay geometry (ways,
//! line), and the packed reference words. A capture decoded from a
//! faithfully stored payload replays byte-identically to the original;
//! `tests` below prove it against a real workload.
//!
//! Layout (all integers little-endian, fixed width):
//!
//! ```text
//! u32  codec version (CPU_CODEC_VERSION)
//! u32  name length + that many UTF-8 bytes
//! u64  mix.alu, mix.branches, mix.reads, mix.writes
//! u64  instr_blocks, data_blocks, events
//! u64  ways, line
//! u64  word count + that many u64 packed words
//! ```
//!
//! Decoding goes through the bounds-checked [`obs::codec::Reader`] and
//! rejects version skew, invalid UTF-8, and trailing bytes; it never
//! panics on malformed input. The codec carries *no* checksum —
//! integrity is the store framing layer's job (`store::encode_entry`);
//! this layer only has to fail cleanly on anything that slips through.

use obs::codec::{put_str, put_u32, put_u64, Reader};

use crate::mix::InstrMix;
use crate::profile::Profile;
use crate::trace::CpuCapture;

/// A malformed CPU-capture payload: what failed, and where. The same
/// type as `simt`'s trace-payload error.
pub use obs::codec::CodecError as CpuCodecError;

/// Current CPU-trace codec version. Bump on any layout change; stored
/// payloads from other versions are rejected by
/// [`decode_capture`] and the store recaptures.
pub const CPU_CODEC_VERSION: u32 = 1;

/// Serializes a capture into a store payload.
pub fn encode_capture(cap: &CpuCapture) -> Vec<u8> {
    let base = cap.base();
    let words = cap.packed_words();
    let mut out = Vec::with_capacity(64 + base.name.len() + words.len() * 8);
    put_u32(&mut out, CPU_CODEC_VERSION);
    put_str(&mut out, &base.name);
    for n in [
        base.mix.alu,
        base.mix.branches,
        base.mix.reads,
        base.mix.writes,
        base.instr_blocks as u64,
        base.data_blocks as u64,
        base.events,
        cap.ways() as u64,
        cap.line(),
        words.len() as u64,
    ] {
        put_u64(&mut out, n);
    }
    for &w in words {
        put_u64(&mut out, w);
    }
    out
}

/// Deserializes a payload back into a capture.
///
/// # Errors
///
/// A [`CpuCodecError`] on version skew, truncation, invalid UTF-8, or
/// trailing bytes. Never panics on malformed input.
pub fn decode_capture(bytes: &[u8]) -> Result<CpuCapture, CpuCodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u32("codec version")?;
    if version != CPU_CODEC_VERSION {
        return Err(CpuCodecError {
            offset: 0,
            what: "codec version",
        });
    }
    let name = r.str("workload name")?;
    let mix = InstrMix {
        alu: r.u64("mix.alu")?,
        branches: r.u64("mix.branches")?,
        reads: r.u64("mix.reads")?,
        writes: r.u64("mix.writes")?,
    };
    let instr_blocks = r.usize("instr_blocks")?;
    let data_blocks = r.usize("data_blocks")?;
    let events = r.u64("events")?;
    let ways = r.usize("ways")?;
    let line = r.u64("line")?;
    let count = r.usize("word count")?;
    let words = r.u64s(count, "packed word")?;
    r.finish("trailing bytes")?;
    let base = Profile {
        name,
        mix,
        cache_stats: Vec::new(),
        instr_blocks,
        data_blocks,
        events,
    };
    Ok(CpuCapture::from_parts(base, words, ways, line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CpuWorkload, ProfileConfig, Profiler};
    use crate::tracer::ThreadTracer;

    /// A workload exercising reads, writes, straddles, and branches so
    /// the packed stream is non-trivial.
    struct Blend;

    impl CpuWorkload for Blend {
        fn name(&self) -> &'static str {
            "blend"
        }
        fn run(&self, prof: &mut Profiler) {
            let data = prof.alloc("data", 64 * 256);
            let code = prof.code_region("blend_loop", 320);
            prof.serial(|t: &mut ThreadTracer| {
                t.exec(code);
                t.write(data + 62, 8); // straddle
            });
            prof.parallel(|t| {
                t.exec(code);
                for i in 0..32u64 {
                    t.read(data + (t.tid() as u64 * 32 + i) * 64, 4);
                    t.update(data + i * 8, 8, 1);
                    t.branch(1);
                }
            });
        }
    }

    fn cfg() -> ProfileConfig {
        ProfileConfig {
            threads: 4,
            cache_sizes: vec![1024, 16 * 1024],
            quantum: 5,
            ..ProfileConfig::default()
        }
    }

    #[test]
    fn round_trip_replays_identically() {
        let cap = CpuCapture::capture(&Blend, &cfg()).expect("capture");
        let bytes = encode_capture(&cap);
        let back = decode_capture(&bytes).expect("decode");
        assert_eq!(back.base(), cap.base());
        assert_eq!(back.packed_words(), cap.packed_words());
        assert_eq!(back.ways(), cap.ways());
        assert_eq!(back.line(), cap.line());
        for &size in &cfg().cache_sizes {
            assert_eq!(
                back.replay(size).expect("replay decoded"),
                cap.replay(size).expect("replay original"),
                "replay at {size} bytes must match"
            );
        }
    }

    #[test]
    fn version_skew_is_rejected() {
        let cap = CpuCapture::capture(&Blend, &cfg()).expect("capture");
        let mut bytes = encode_capture(&cap);
        bytes[0] = 99;
        assert_eq!(
            decode_capture(&bytes).unwrap_err(),
            CpuCodecError {
                offset: 0,
                what: "codec version"
            }
        );
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let cap = CpuCapture::capture(&Blend, &cfg()).expect("capture");
        let bytes = encode_capture(&cap);
        for cut in 0..bytes.len() {
            assert!(
                decode_capture(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let cap = CpuCapture::capture(&Blend, &cfg()).expect("capture");
        let mut bytes = encode_capture(&cap);
        bytes.push(0);
        let err = decode_capture(&bytes).unwrap_err();
        assert_eq!(err.what, "trailing bytes");
    }

    #[test]
    fn invalid_utf8_name_is_rejected() {
        let cap = CpuCapture::capture(&Blend, &cfg()).expect("capture");
        let mut bytes = encode_capture(&cap);
        bytes[8] = 0xff; // first name byte ("blend" starts at offset 8)
        let err = decode_capture(&bytes).unwrap_err();
        assert_eq!(err.what, "workload name");
    }

    #[test]
    fn corrupt_word_count_fails_cleanly() {
        let cap = CpuCapture::capture(&Blend, &cfg()).expect("capture");
        let mut bytes = encode_capture(&cap);
        // The word count is the last u64 before the words; inflate it.
        let count_at = bytes.len() - cap.packed_words().len() * 8 - 8;
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_capture(&bytes).is_err());
    }
}
