//! Leukocyte Tracking (OpenMP): GICOV + dilation parallelized over
//! pixel rows.

use datasets::{image, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::util::chunk;

const NDIR: usize = 7;
const NSAMP: usize = 8;
const DILATE_R: isize = 3;
const EPSILON: f32 = 1e-3;

/// The OpenMP Leukocyte instance.
#[derive(Debug, Clone)]
pub struct LeukocyteOmp {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Synthetic cells per frame.
    pub cells: usize,
    /// Input seed.
    pub seed: u64,
}

impl LeukocyteOmp {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> LeukocyteOmp {
        LeukocyteOmp {
            width: scale.pick(80, 160, 640),
            height: scale.pick(64, 128, 219),
            cells: scale.pick(3, 8, 36),
            seed: 23,
        }
    }

    /// Runs the traced detection, returning the dilated GICOV field.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<f32> {
        let (w, h) = (self.width, self.height);
        let (img, _) = image::cell_frame(w, h, self.cells, self.seed);
        // Host gradient (traced as part of the workload).
        let a_img = prof.alloc("image", (w * h * 4) as u64);
        let a_grad = prof.alloc("gradient", (w * h * 4) as u64);
        let a_offs = prof.alloc("offsets", (NDIR * NSAMP * 8) as u64);
        let a_gicov = prof.alloc("gicov", (w * h * 4) as u64);
        let a_out = prof.alloc("dilated", (w * h * 4) as u64);
        let code_grad = prof.code_region("lc_gradient", 700);
        let code_gicov = prof.code_region("lc_gicov", 2600);
        let code_dilate = prof.code_region("lc_dilate", 800);
        let threads = prof.threads();

        // Sample offsets (precomputed once, serially).
        let mut offs = Vec::with_capacity(NDIR * NSAMP * 2);
        for d in 0..NDIR {
            let radius = 3.0 + d as f32;
            for s in 0..NSAMP {
                let theta = s as f32 / NSAMP as f32 * std::f32::consts::TAU;
                offs.push((radius * theta.sin()).round());
                offs.push((radius * theta.cos()).round());
            }
        }

        let grad = RefCell::new(vec![0.0f32; w * h]);
        let im = &img;
        prof.parallel(|t| {
            t.exec(code_grad);
            let mut g = grad.borrow_mut();
            for r in chunk(h, threads, t.tid()) {
                for c in 0..w {
                    for _ in 0..4 {
                        t.read(a_img + (r * w + c) as u64 * 4, 4);
                    }
                    t.alu(7);
                    let e = im.at(r, c.min(w - 2) + 1);
                    let wv = im.at(r, c.max(1) - 1);
                    let s = im.at(r.min(h - 2) + 1, c);
                    let nn = im.at(r.max(1) - 1, c);
                    g[r * w + c] = ((e - wv) * (e - wv) + (s - nn) * (s - nn)).sqrt();
                    t.write(a_grad + (r * w + c) as u64 * 4, 4);
                }
            }
        });
        let grad = grad.into_inner();

        let gicov = RefCell::new(vec![0.0f32; w * h]);
        let gr = &grad;
        let of = &offs;
        prof.parallel(|t| {
            t.exec(code_gicov);
            let mut out = gicov.borrow_mut();
            for r in chunk(h, threads, t.tid()) {
                for c in 0..w {
                    let mut best = 0.0f32;
                    for d in 0..NDIR {
                        let mut sum = 0.0f32;
                        let mut sum2 = 0.0f32;
                        for s in 0..NSAMP {
                            t.read(a_offs + ((d * NSAMP + s) * 8) as u64, 8);
                            let dy = of[(d * NSAMP + s) * 2] as isize;
                            let dx = of[(d * NSAMP + s) * 2 + 1] as isize;
                            let rr = (r as isize + dy).clamp(0, h as isize - 1) as usize;
                            let cc = (c as isize + dx).clamp(0, w as isize - 1) as usize;
                            t.read(a_grad + (rr * w + cc) as u64 * 4, 4);
                            t.alu(4);
                            let g = gr[rr * w + cc];
                            sum += g;
                            sum2 += g * g;
                        }
                        t.alu(6);
                        t.branch(1);
                        let mean = sum / NSAMP as f32;
                        let var = sum2 / NSAMP as f32 - mean * mean;
                        best = best.max(mean * mean / (var + EPSILON));
                    }
                    out[r * w + c] = best;
                    t.write(a_gicov + (r * w + c) as u64 * 4, 4);
                }
            }
        });
        let gicov = gicov.into_inner();

        let dil = RefCell::new(vec![0.0f32; w * h]);
        let gi = &gicov;
        prof.parallel(|t| {
            t.exec(code_dilate);
            let mut out = dil.borrow_mut();
            for r in chunk(h, threads, t.tid()) {
                for c in 0..w {
                    let mut m = 0.0f32;
                    for dy in -DILATE_R..=DILATE_R {
                        for dx in -DILATE_R..=DILATE_R {
                            let rr = (r as isize + dy).clamp(0, h as isize - 1) as usize;
                            let cc = (c as isize + dx).clamp(0, w as isize - 1) as usize;
                            t.read(a_gicov + (rr * w + cc) as u64 * 4, 4);
                            t.alu(1);
                            m = m.max(gi[rr * w + cc]);
                        }
                    }
                    t.branch(1);
                    out[r * w + c] = m;
                    t.write(a_out + (r * w + c) as u64 * 4, 4);
                }
            }
        });
        dil.into_inner()
    }
}

impl CpuWorkload for LeukocyteOmp {
    fn name(&self) -> &'static str {
        "leukocyte"
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
    fn response_peaks_near_cells() {
        let lc = LeukocyteOmp {
            width: 64,
            height: 48,
            cells: 1,
            seed: 9,
        };
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let out = lc.run_traced(&mut prof);
        let (_, centers) = image::cell_frame(lc.width, lc.height, lc.cells, lc.seed);
        let (cr, cc) = centers[0];
        let near = out[cr * lc.width + cc];
        let far = out[(lc.height - 1 - cr) * lc.width + (lc.width - 1 - cc)];
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn small_working_set() {
        // A frame plus its gradient fit comfortably in mid-size caches:
        // Leukocyte has one of the lowest 4 MB miss rates (Figure 10).
        let p =
            profile(&LeukocyteOmp::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        assert!(p.at_capacity(4 * 1024 * 1024).miss_rate() < 0.01);
    }
}
