//! Byte codec for captured kernel traces — the payload format of the
//! persistent trace store.
//!
//! Encodes a capture's launch-ordered [`KernelTrace`] list (plus the
//! host↔device byte counts of the functional run, which cannot be
//! recomputed without re-executing) into a flat, versioned,
//! little-endian byte stream. The codec is *defensive on decode*: every
//! read goes through the bounds-checked [`obs::codec::Reader`] and every
//! enum tag is validated, so a payload that passed the store's checksum
//! but was written by a buggy or skewed producer turns into a typed
//! [`CodecError`] (which the study layer treats as
//! quarantine-and-recapture), never a panic or a mis-shaped trace.
//!
//! Timing replay of a decoded trace is byte-identical to replaying the
//! original: the codec preserves every field the timing model reads
//! (op streams per warp per CTA in order, launch geometry, occupancy
//! inputs, warp size).

use std::sync::Arc;

pub use obs::codec::CodecError;
use obs::codec::{put_str, put_u32, put_u64, Reader};

use crate::isa::{MemSpace, SegRange, TOp};
use crate::trace::{CtaTrace, KernelTrace, WarpTrace};

/// Version of this codec; bump on any layout change. The store's
/// entry framing already partitions by its own format version, but the
/// payload carries its own tag so producer/consumer skew inside one
/// store version is also detected.
pub const TRACE_CODEC_VERSION: u32 = 1;

/// Encodes a capture — launch-ordered traces plus the functional run's
/// host↔device traffic — into one payload.
pub fn encode_capture_payload(
    traces: &[Arc<KernelTrace>],
    h2d_bytes: u64,
    d2h_bytes: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, TRACE_CODEC_VERSION);
    put_u64(&mut out, h2d_bytes);
    put_u64(&mut out, d2h_bytes);
    put_u32(&mut out, traces.len() as u32);
    for t in traces {
        encode_trace(t, &mut out);
    }
    out
}

/// Decodes a payload produced by [`encode_capture_payload`], returning
/// `(traces, h2d_bytes, d2h_bytes)`.
///
/// # Errors
///
/// A [`CodecError`] on any structural problem; no partially decoded
/// trace is ever returned.
pub fn decode_capture_payload(
    bytes: &[u8],
) -> Result<(Vec<Arc<KernelTrace>>, u64, u64), CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u32("codec version")?;
    if version != TRACE_CODEC_VERSION {
        return Err(CodecError {
            offset: 0,
            what: "unsupported trace codec version",
        });
    }
    let h2d = r.u64("h2d bytes")?;
    let d2h = r.u64("d2h bytes")?;
    let n = r.u32("trace count")? as usize;
    let mut traces = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        traces.push(Arc::new(decode_trace(&mut r)?));
    }
    r.finish("trailing bytes after last trace")?;
    Ok((traces, h2d, d2h))
}

fn encode_trace(t: &KernelTrace, out: &mut Vec<u8>) {
    put_str(out, &t.name);
    put_u64(out, t.threads_per_block as u64);
    put_u32(out, t.regs_per_thread);
    put_u32(out, t.shared_bytes_per_cta);
    put_u32(out, t.warp_size as u32);
    put_u32(out, t.ctas.len() as u32);
    for cta in &t.ctas {
        put_u32(out, cta.warps.len() as u32);
        for warp in &cta.warps {
            put_u32(out, warp.ops.len() as u32);
            for op in &warp.ops {
                encode_op(op, &warp.segs, out);
            }
        }
    }
}

fn decode_trace(r: &mut Reader<'_>) -> Result<KernelTrace, CodecError> {
    let name = r.str("kernel name")?;
    let threads_per_block = r.u64("threads per block")? as usize;
    let regs_per_thread = r.u32("regs per thread")?;
    let shared_bytes_per_cta = r.u32("shared bytes per cta")?;
    let warp_size = r.u32("warp size")? as usize;
    let n_ctas = r.u32("cta count")? as usize;
    let mut ctas = Vec::with_capacity(n_ctas.min(r.remaining()));
    for _ in 0..n_ctas {
        let n_warps = r.u32("warp count")? as usize;
        let mut warps = Vec::with_capacity(n_warps.min(r.remaining()));
        for _ in 0..n_warps {
            let n_ops = r.u32("op count")? as usize;
            let mut warp = WarpTrace {
                ops: Vec::with_capacity(n_ops.min(r.remaining())),
                segs: Vec::new(),
            };
            for _ in 0..n_ops {
                let op = decode_op(r, &mut warp)?;
                warp.ops.push(op);
            }
            warp.ops.shrink_to_fit();
            warp.segs.shrink_to_fit();
            warps.push(warp);
        }
        ctas.push(CtaTrace { warps });
    }
    Ok(KernelTrace::new(
        name,
        ctas,
        threads_per_block,
        regs_per_thread,
        shared_bytes_per_cta,
        warp_size,
    ))
}

// Op tags. Every TOp variant has exactly one.
const TAG_ALU: u8 = 0;
const TAG_SFU: u8 = 1;
const TAG_SHARED: u8 = 2;
const TAG_GMEM: u8 = 3;
const TAG_TEX: u8 = 4;
const TAG_CONST: u8 = 5;
const TAG_PARAM: u8 = 6;
const TAG_BRANCH: u8 = 7;
const TAG_BAR: u8 = 8;

/// Encodes `op`, writing its segments (from its warp's `pool`) inline.
fn encode_op(op: &TOp, pool: &[u64], out: &mut Vec<u8>) {
    match op {
        TOp::Alu { n, lanes } => {
            out.push(TAG_ALU);
            put_u32(out, *n);
            out.push(*lanes);
        }
        TOp::Sfu { n, lanes } => {
            out.push(TAG_SFU);
            put_u32(out, *n);
            out.push(*lanes);
        }
        TOp::Shared {
            degree,
            lanes,
            store,
        } => {
            out.push(TAG_SHARED);
            out.push(*degree);
            out.push(*lanes);
            out.push(u8::from(*store));
        }
        TOp::Gmem {
            space,
            store,
            lanes,
            segs,
        } => {
            out.push(TAG_GMEM);
            out.push(u8::from(*space == MemSpace::Local));
            out.push(u8::from(*store));
            out.push(*lanes);
            put_segs(out, segs.of(pool));
        }
        TOp::Tex { lanes, segs } => {
            out.push(TAG_TEX);
            out.push(*lanes);
            put_segs(out, segs.of(pool));
        }
        TOp::Const { lanes, unique } => {
            out.push(TAG_CONST);
            out.push(*lanes);
            out.push(*unique);
        }
        TOp::Param { n, lanes } => {
            out.push(TAG_PARAM);
            put_u32(out, *n);
            out.push(*lanes);
        }
        TOp::Branch { lanes } => {
            out.push(TAG_BRANCH);
            out.push(*lanes);
        }
        TOp::Bar => out.push(TAG_BAR),
    }
}

/// Decodes one op of `warp`, appending its segments to the warp's pool.
fn decode_op(r: &mut Reader<'_>, warp: &mut WarpTrace) -> Result<TOp, CodecError> {
    let tag = r.u8("op tag")?;
    Ok(match tag {
        TAG_ALU => TOp::Alu {
            n: r.u32("alu n")?,
            lanes: r.u8("alu lanes")?,
        },
        TAG_SFU => TOp::Sfu {
            n: r.u32("sfu n")?,
            lanes: r.u8("sfu lanes")?,
        },
        TAG_SHARED => TOp::Shared {
            degree: r.u8("shared degree")?,
            lanes: r.u8("shared lanes")?,
            store: r.bool("shared store flag")?,
        },
        TAG_GMEM => {
            let local = r.bool("gmem space flag")?;
            let store = r.bool("gmem store flag")?;
            let lanes = r.u8("gmem lanes")?;
            let segs = segs(r, warp, "gmem segments")?;
            TOp::Gmem {
                space: if local {
                    MemSpace::Local
                } else {
                    MemSpace::Global
                },
                store,
                lanes,
                segs,
            }
        }
        TAG_TEX => TOp::Tex {
            lanes: r.u8("tex lanes")?,
            segs: segs(r, warp, "tex segments")?,
        },
        TAG_CONST => TOp::Const {
            lanes: r.u8("const lanes")?,
            unique: r.u8("const unique")?,
        },
        TAG_PARAM => TOp::Param {
            n: r.u32("param n")?,
            lanes: r.u8("param lanes")?,
        },
        TAG_BRANCH => TOp::Branch {
            lanes: r.u8("branch lanes")?,
        },
        TAG_BAR => TOp::Bar,
        _ => {
            return Err(CodecError {
                offset: r.pos() - 1,
                what: "unknown op tag",
            })
        }
    })
}

/// A `u32` count followed by that many `u64` segment addresses.
fn put_segs(out: &mut Vec<u8>, segs: &[u64]) {
    put_u32(out, segs.len() as u32);
    for &s in segs {
        put_u64(out, s);
    }
}

/// Reads what [`put_segs`] wrote into `warp`'s pool, returning its
/// range. A count that does not fit a [`SegRange`] is an error.
fn segs(
    r: &mut Reader<'_>,
    warp: &mut WarpTrace,
    what: &'static str,
) -> Result<SegRange, CodecError> {
    let offset = r.pos();
    let n = r.u32(what)? as usize;
    warp.push_segs(&r.u64s(n, what)?).ok_or(CodecError {
        offset,
        what: "segment count does not fit a segment range",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One warp exercising every op variant.
    fn kitchen_sink_trace() -> KernelTrace {
        let ops = vec![
            TOp::Alu { n: 3, lanes: 32 },
            TOp::Sfu { n: 1, lanes: 16 },
            TOp::Shared {
                degree: 4,
                lanes: 32,
                store: true,
            },
            TOp::Gmem {
                space: MemSpace::Global,
                store: false,
                lanes: 32,
                segs: SegRange { start: 0, len: 3 },
            },
            TOp::Gmem {
                space: MemSpace::Local,
                store: true,
                lanes: 8,
                segs: SegRange { start: 3, len: 1 },
            },
            TOp::Tex {
                lanes: 32,
                segs: SegRange { start: 4, len: 1 },
            },
            TOp::Const {
                lanes: 32,
                unique: 2,
            },
            TOp::Param { n: 2, lanes: 32 },
            TOp::Branch { lanes: 32 },
            TOp::Bar,
        ];
        let warp = WarpTrace {
            ops,
            segs: vec![0, 64, 128, 1 << 40, 4096],
        };
        KernelTrace::new(
            "kitchen-sink".to_string(),
            vec![
                CtaTrace {
                    warps: vec![warp.clone(), WarpTrace::default()],
                },
                CtaTrace { warps: vec![warp] },
            ],
            96,
            21,
            2048,
            32,
        )
    }

    #[test]
    fn every_op_variant_round_trips() {
        let t = Arc::new(kitchen_sink_trace());
        let bytes = encode_capture_payload(&[Arc::clone(&t), Arc::clone(&t)], 1234, 99);
        let (back, h2d, d2h) = decode_capture_payload(&bytes).expect("decode");
        assert_eq!((h2d, d2h), (1234, 99));
        assert_eq!(back.len(), 2);
        for b in &back {
            assert_eq!(b.name, t.name);
            assert_eq!(b.ctas.len(), t.ctas.len());
            for (bc, tc) in b.ctas.iter().zip(&t.ctas) {
                assert_eq!(bc.warps.len(), tc.warps.len());
                assert_eq!(bc.warps, tc.warps);
            }
            assert_eq!(b.threads_per_block, t.threads_per_block);
            assert_eq!(b.regs_per_thread, t.regs_per_thread);
            assert_eq!(b.shared_bytes_per_cta, t.shared_bytes_per_cta);
            assert_eq!(b.warp_size, t.warp_size);
        }
    }

    #[test]
    fn empty_capture_round_trips() {
        let bytes = encode_capture_payload(&[], 0, 0);
        let (traces, h2d, d2h) = decode_capture_payload(&bytes).expect("decode");
        assert!(traces.is_empty());
        assert_eq!((h2d, d2h), (0, 0));
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let t = Arc::new(kitchen_sink_trace());
        let bytes = encode_capture_payload(&[t], 7, 7);
        for cut in 0..bytes.len() {
            let r = decode_capture_payload(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let t = Arc::new(kitchen_sink_trace());
        let mut bytes = encode_capture_payload(&[t], 0, 0);
        bytes.push(0);
        assert!(decode_capture_payload(&bytes).is_err());
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = encode_capture_payload(&[], 0, 0);
        bytes[0] = TRACE_CODEC_VERSION as u8 + 1;
        let err = decode_capture_payload(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn unknown_op_tag_is_rejected() {
        let t = Arc::new(KernelTrace::new(
            "t".to_string(),
            vec![CtaTrace {
                warps: vec![WarpTrace {
                    ops: vec![TOp::Bar],
                    segs: vec![],
                }],
            }],
            32,
            1,
            0,
            32,
        ));
        let mut bytes = encode_capture_payload(&[t], 0, 0);
        let last = bytes.len() - 1;
        bytes[last] = 0xEE; // the Bar tag is the final byte
        let err = decode_capture_payload(&bytes).unwrap_err();
        assert!(err.to_string().contains("op tag"), "{err}");
    }

    #[test]
    fn decoded_trace_times_identically() {
        use crate::config::GpuConfig;
        // A real captured trace: run a tiny kernel through the
        // functional path, round-trip it, and compare replay stats.
        use crate::kernel::{GridShape, Kernel, PhaseControl, WarpCtx};
        use crate::memory::GpuMem;

        struct Saxpy {
            buf: crate::memory::BufF32,
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
                let x = w.ld_f32(buf, |_, tid| (tid < n).then_some(tid));
                w.alu(2);
                w.st_f32(buf, |lane, tid| {
                    (tid < n).then_some((tid, x[lane] * 2.0 + 1.0))
                });
                PhaseControl::Done
            }
        }

        let cfg = GpuConfig::gpgpusim_default();
        let mut mem = GpuMem::new();
        let buf = mem.alloc_f32_zeroed("buf", 256);
        let trace = Arc::new(crate::trace::trace_kernel(
            &Saxpy { buf, n: 256 },
            &mut mem,
            &cfg,
        ));
        let bytes = encode_capture_payload(std::slice::from_ref(&trace), 1024, 1024);
        let (back, _, _) = decode_capture_payload(&bytes).expect("decode");
        let a = crate::gpu::try_time_trace(&trace, &cfg).expect("time original");
        let b = crate::gpu::try_time_trace(&back[0], &cfg).expect("time decoded");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.thread_instructions, b.thread_instructions);
        // Capture and decode both leave every warp's vectors exact-size.
        for t in [&trace, &back[0]] {
            for w in t.ctas.iter().flat_map(|c| &c.warps) {
                assert_eq!(w.ops.capacity(), w.ops.len());
                assert_eq!(w.segs.capacity(), w.segs.len());
            }
        }
        assert!(
            trace.ctas[0].warps[0].segs.len() > 1,
            "the warp touched memory"
        );
    }

    #[test]
    fn a_segment_count_beyond_a_range_is_a_typed_error() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, TRACE_CODEC_VERSION);
        put_u64(&mut bytes, 0);
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, 1); // one trace
        put_str(&mut bytes, "t");
        put_u64(&mut bytes, 32);
        for field in [1, 0, 32, 1, 1, 1] {
            // regs, shared bytes, warp size, one CTA, one warp, one op
            put_u32(&mut bytes, field);
        }
        bytes.extend([TAG_TEX, 32]);
        let n = u32::from(u16::MAX) + 1;
        let count_at = bytes.len();
        put_u32(&mut bytes, n);
        bytes.resize(bytes.len() + 8 * n as usize, 0);
        let err = decode_capture_payload(&bytes).unwrap_err();
        assert!(err.to_string().contains("segment range"), "{err}");
        // One segment fewer fits and decodes.
        bytes[count_at..][..4].copy_from_slice(&(n - 1).to_le_bytes());
        bytes.truncate(bytes.len() - 8);
        assert!(decode_capture_payload(&bytes).is_ok());
    }
}
