//! vips: multi-stage streaming image transformation
//! (Table V: 1 image, 26,625,500 pixels; Media Processing).
//!
//! The VIPS benchmark chains affine/convolution/linear operators over a
//! large image in a demand-driven, tile-streaming fashion. Preserved
//! here: three full-image passes (separable 3×3 blur, bilinear affine
//! shrink, linear levels adjustment) parallelized over row bands —
//! streaming reads/writes, large data footprint, low sharing, and one
//! of the *largest instruction footprints* in the study (VIPS links a
//! big operator library).

use datasets::{image, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::catalog::chunk;

/// The vips instance.
#[derive(Debug, Clone)]
pub struct Vips {
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Input seed.
    pub seed: u64,
}

impl Vips {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> Vips {
        Vips {
            width: scale.pick(128, 1_024, 6_000),
            height: scale.pick(96, 768, 4_437),
            seed: 121,
        }
    }

    /// Runs the traced pipeline, returning the final (shrunk) image.
    pub fn run_traced(&self, prof: &mut Profiler) -> image::Image {
        let (w, h) = (self.width, self.height);
        let src = image::textured_image(w, h, self.seed);
        let a_src = prof.alloc("source", (w * h * 4) as u64);
        let a_blur = prof.alloc("blurred", (w * h * 4) as u64);
        let a_small = prof.alloc("shrunk", (w * h) as u64);
        let a_out = prof.alloc("output", (w * h) as u64);
        let code_conv = prof.code_region("im_conv", 42_000);
        let code_affine = prof.code_region("im_affine", 38_000);
        let code_lin = prof.code_region("im_lintra", 22_000);
        let threads = prof.threads();

        // Pass 1: 3x3 box blur.
        let blur = RefCell::new(image::Image::black(w, h));
        let sr = &src;
        prof.parallel(|t| {
            t.exec(code_conv);
            let mut out = blur.borrow_mut();
            for r in chunk(h, threads, t.tid()) {
                for c in 0..w {
                    let mut s = 0.0f32;
                    for dr in -1i64..=1 {
                        for dc in -1i64..=1 {
                            let rr = (r as i64 + dr).clamp(0, h as i64 - 1) as usize;
                            let cc = (c as i64 + dc).clamp(0, w as i64 - 1) as usize;
                            t.read(a_src + (rr * w + cc) as u64 * 4, 4);
                            s += sr.at(rr, cc);
                        }
                    }
                    t.alu(11);
                    *out.at_mut(r, c) = s / 9.0;
                    t.write(a_blur + (r * w + c) as u64 * 4, 4);
                }
            }
        });
        let blur = blur.into_inner();

        // Pass 2: bilinear 2x shrink.
        let (sw, sh) = (w / 2, h / 2);
        let small = RefCell::new(image::Image::black(sw, sh));
        let br = &blur;
        prof.parallel(|t| {
            t.exec(code_affine);
            let mut out = small.borrow_mut();
            for r in chunk(sh, threads, t.tid()) {
                for c in 0..sw {
                    for (dr, dc) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        t.read(a_blur + (((2 * r + dr) * w) + 2 * c + dc) as u64 * 4, 4);
                    }
                    t.alu(7);
                    let v = (br.at(2 * r, 2 * c)
                        + br.at(2 * r, 2 * c + 1)
                        + br.at(2 * r + 1, 2 * c)
                        + br.at(2 * r + 1, 2 * c + 1))
                        / 4.0;
                    *out.at_mut(r, c) = v;
                    t.write(a_small + (r * sw + c) as u64 * 4, 4);
                }
            }
        });
        let small = small.into_inner();

        // Pass 3: linear levels adjustment with clamping.
        let out = RefCell::new(image::Image::black(sw, sh));
        let smr = &small;
        prof.parallel(|t| {
            t.exec(code_lin);
            let mut o = out.borrow_mut();
            for r in chunk(sh, threads, t.tid()) {
                for c in 0..sw {
                    t.read(a_small + (r * sw + c) as u64 * 4, 4);
                    t.alu(4);
                    t.branch(1);
                    *o.at_mut(r, c) = (smr.at(r, c) * 1.2 - 0.05).clamp(0.0, 1.0);
                    t.write(a_out + (r * sw + c) as u64 * 4, 4);
                }
            }
        });
        out.into_inner()
    }
}

impl CpuWorkload for Vips {
    fn name(&self) -> &'static str {
        "vips"
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
    fn pipeline_halves_the_image_and_stays_in_range() {
        let v = Vips::new(Scale::Tiny);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let out = v.run_traced(&mut prof);
        assert_eq!(out.width, v.width / 2);
        assert_eq!(out.height, v.height / 2);
        assert!(out.pixels.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn blur_reduces_local_variation() {
        let v = Vips {
            width: 64,
            height: 64,
            seed: 3,
        };
        let src = image::textured_image(v.width, v.height, v.seed);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let out = v.run_traced(&mut prof);
        let roughness = |img: &image::Image| -> f64 {
            let mut s = 0.0f64;
            for r in 0..img.height - 1 {
                for c in 0..img.width - 1 {
                    s += (img.at(r, c) - img.at(r, c + 1)).abs() as f64;
                }
            }
            s / ((img.width * img.height) as f64)
        };
        assert!(roughness(&out) < roughness(&src));
    }

    #[test]
    fn large_code_footprint() {
        let p = profile(&Vips::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        // ~100 kB of operator code = ~1,600 blocks.
        assert!(p.instr_blocks > 1_000, "{}", p.instr_blocks);
    }
}
