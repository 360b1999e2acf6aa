//! x264: H.264-style video encoding kernel
//! (Table V: 128 frames, 640×360 pixels; Media Processing).
//!
//! The encoder's dominant loops are preserved: per-macroblock diamond
//! motion estimation against the (read-shared) reference frame, a 4×4
//! integer-transform + quantization pass over the residual, and a
//! run-length entropy accumulation. Parallelism is over macroblock rows
//! within a frame.

use datasets::{image, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::catalog::chunk;

/// Macroblock edge.
const MB: usize = 16;
/// Motion search radius.
const SEARCH_R: isize = 4;

/// The x264 instance.
#[derive(Debug, Clone)]
pub struct X264 {
    /// Frame width (multiple of 16).
    pub width: usize,
    /// Frame height (multiple of 16).
    pub height: usize,
    /// Frames encoded (each against the previous).
    pub frames: usize,
    /// Input seed.
    pub seed: u64,
}

/// Summary of an encode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeStats {
    /// Macroblocks encoded.
    pub macroblocks: usize,
    /// Mean SAD after motion compensation.
    pub mean_sad: f32,
    /// Nonzero quantized coefficients emitted.
    pub coeff_bits: usize,
}

impl X264 {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> X264 {
        X264 {
            width: scale.pick(64, 320, 640),
            height: scale.pick(48, 192, 368),
            frames: scale.pick(2, 4, 128),
            seed: 123,
        }
    }

    /// Runs the traced encoder.
    pub fn run_traced(&self, prof: &mut Profiler) -> EncodeStats {
        let (w, h) = (self.width, self.height);
        let a_ref = prof.alloc("reference", (w * h * 4) as u64);
        let a_cur = prof.alloc("current", (w * h * 4) as u64);
        let a_coef = prof.alloc("coefficients", (w * h * 2) as u64);
        let code_me = prof.code_region("motion_estimate", 48_000);
        let code_dct = prof.code_region("dct_quant", 26_000);
        let code_cabac = prof.code_region("entropy_encode", 18_000);
        let threads = prof.threads();
        let (mbx, mby) = (w / MB, h / MB);
        let mut total_sad = 0.0f64;
        let mut total_bits = 0usize;

        for f in 1..self.frames {
            // Synthetic video: texture drifts over time.
            let refframe = image::textured_image(w, h, self.seed + f as u64 - 1);
            let curframe = image::textured_image(w, h, self.seed + f as u64);
            let acc = RefCell::new((0.0f64, 0usize));
            let (rf, cf) = (&refframe, &curframe);
            prof.parallel(|t| {
                t.exec(code_me);
                t.exec(code_dct);
                t.exec(code_cabac);
                let mut a = acc.borrow_mut();
                for mr in chunk(mby, threads, t.tid()) {
                    for mc in 0..mbx {
                        let (r0, c0) = (mr * MB, mc * MB);
                        // Diamond-ish exhaustive small-window search.
                        let mut best = (0isize, 0isize);
                        let mut best_sad = f32::INFINITY;
                        for dr in -SEARCH_R..=SEARCH_R {
                            for dc in -SEARCH_R..=SEARCH_R {
                                let mut sad = 0.0f32;
                                // Subsampled SAD, as fast ME does.
                                for y in (0..MB).step_by(2) {
                                    for x in (0..MB).step_by(2) {
                                        let rr = (r0 as isize + dr + y as isize)
                                            .clamp(0, h as isize - 1)
                                            as usize;
                                        let cc = (c0 as isize + dc + x as isize)
                                            .clamp(0, w as isize - 1)
                                            as usize;
                                        t.read(a_cur + ((r0 + y) * w + c0 + x) as u64 * 4, 4);
                                        t.read(a_ref + (rr * w + cc) as u64 * 4, 4);
                                        t.alu(3);
                                        sad += (cf.at(r0 + y, c0 + x) - rf.at(rr, cc)).abs();
                                    }
                                }
                                t.branch(1);
                                if sad < best_sad {
                                    best_sad = sad;
                                    best = (dr, dc);
                                }
                            }
                        }
                        a.0 += best_sad as f64;
                        // Residual transform + quantization over 4x4
                        // blocks (Hadamard-style butterflies).
                        let mut bits = 0usize;
                        for y in (0..MB).step_by(4) {
                            for x in (0..MB).step_by(4) {
                                let mut block = [0.0f32; 16];
                                for (k, b) in block.iter_mut().enumerate() {
                                    let (yy, xx) = (y + k / 4, x + k % 4);
                                    let rr = (r0 as isize + best.0 + yy as isize)
                                        .clamp(0, h as isize - 1)
                                        as usize;
                                    let cc = (c0 as isize + best.1 + xx as isize)
                                        .clamp(0, w as isize - 1)
                                        as usize;
                                    t.read(a_cur + ((r0 + yy) * w + c0 + xx) as u64 * 4, 4);
                                    t.read(a_ref + (rr * w + cc) as u64 * 4, 4);
                                    *b = cf.at(r0 + yy, c0 + xx) - rf.at(rr, cc);
                                }
                                // 1-D butterflies on rows then columns.
                                t.alu(64);
                                for row in 0..4 {
                                    let b = &mut block[row * 4..row * 4 + 4];
                                    let (s0, s1) = (b[0] + b[3], b[1] + b[2]);
                                    let (d0, d1) = (b[0] - b[3], b[1] - b[2]);
                                    b[0] = s0 + s1;
                                    b[1] = d0 + d1;
                                    b[2] = s0 - s1;
                                    b[3] = d0 - d1;
                                }
                                for col in 0..4 {
                                    let idx = [col, col + 4, col + 8, col + 12];
                                    let (s0, s1) = (
                                        block[idx[0]] + block[idx[3]],
                                        block[idx[1]] + block[idx[2]],
                                    );
                                    let (d0, d1) = (
                                        block[idx[0]] - block[idx[3]],
                                        block[idx[1]] - block[idx[2]],
                                    );
                                    block[idx[0]] = s0 + s1;
                                    block[idx[1]] = d0 + d1;
                                    block[idx[2]] = s0 - s1;
                                    block[idx[3]] = d0 - d1;
                                }
                                // Quantize: count significant coefficients.
                                t.alu(16);
                                t.branch(4);
                                for &c in &block {
                                    if c.abs() > 0.25 {
                                        bits += 1;
                                    }
                                }
                                t.write(a_coef + ((r0 + y) * w + c0 + x) as u64 * 2, 32);
                            }
                        }
                        a.1 += bits;
                    }
                }
            });
            let (sad, bits) = acc.into_inner();
            total_sad += sad;
            total_bits += bits;
        }
        let mbs = mbx * mby * (self.frames - 1);
        EncodeStats {
            macroblocks: mbs,
            mean_sad: (total_sad / mbs.max(1) as f64) as f32,
            coeff_bits: total_bits,
        }
    }
}

impl CpuWorkload for X264 {
    fn name(&self) -> &'static str {
        "x264"
    }
    fn run(&self, prof: &mut Profiler) {
        let _ = self.run_traced(prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{profile, ProfileConfig};

    #[test]
    fn encoder_produces_output() {
        let x = X264::new(Scale::Tiny);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let s = x.run_traced(&mut prof);
        assert!(s.macroblocks > 0);
        assert!(s.mean_sad.is_finite() && s.mean_sad >= 0.0);
        assert!(s.coeff_bits > 0, "some residual energy must survive");
    }

    #[test]
    fn motion_estimation_reads_dominate() {
        let p = profile(&X264::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        assert!(p.mix.reads > 5 * p.mix.writes, "{:?}", p.mix);
        // Big encoder code base.
        assert!(p.instr_blocks > 1_000, "{}", p.instr_blocks);
    }
}
