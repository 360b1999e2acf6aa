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
//!
//! [`write_capture`] and [`read_capture`] move the payload a chunk at a
//! time, so a capture is saved and restored holding only its packed
//! words; [`encode_capture`] and [`decode_capture`] are the in-memory
//! forms of the same bytes.

use std::io::{self, Read, Write};

use obs::codec::{encode_to_vec, Reader, Writer};

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
    encode_to_vec(|w| encode(cap, w))
}

/// [`encode_capture`] into `out`, a chunk at a time.
///
/// # Errors
///
/// The first error `out` returned.
pub fn write_capture(cap: &CpuCapture, out: &mut dyn Write) -> io::Result<()> {
    let mut w = Writer::new(out);
    encode(cap, &mut w);
    w.finish()
}

fn encode(cap: &CpuCapture, w: &mut Writer<'_>) {
    let base = cap.base();
    let words = cap.packed_words();
    w.u32(CPU_CODEC_VERSION);
    w.str(&base.name);
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
        w.u64(n);
    }
    w.u64s(words);
}

/// Deserializes a payload back into a capture.
///
/// # Errors
///
/// A [`CpuCodecError`] on version skew, truncation, invalid UTF-8, or
/// trailing bytes. Never panics on malformed input.
pub fn decode_capture(bytes: &[u8]) -> Result<CpuCapture, CpuCodecError> {
    read_capture(&mut &bytes[..], bytes.len())
}

/// [`decode_capture`] from the `len` payload bytes of `src`, read a
/// chunk at a time. A corrupt word count fails before anything is
/// allocated for the words.
///
/// # Errors
///
/// As [`decode_capture`]; a read error or a source shorter than `len`
/// fails the field it interrupted.
pub fn read_capture(src: &mut dyn Read, len: usize) -> Result<CpuCapture, CpuCodecError> {
    let mut r = Reader::from_read(src, len);
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
        let sizes = &cfg().cache_sizes;
        assert_eq!(
            back.replay_all(sizes).expect("replay decoded"),
            cap.replay_all(sizes).expect("replay original"),
        );
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
