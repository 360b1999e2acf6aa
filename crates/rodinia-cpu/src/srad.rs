//! SRAD (OpenMP): the two diffusion kernels parallelized over row bands.

use datasets::{grid, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::util::chunk;

const LAMBDA: f32 = 0.5;

/// The OpenMP SRAD instance.
#[derive(Debug, Clone)]
pub struct SradOmp {
    /// Image edge length.
    pub n: usize,
    /// Diffusion iterations.
    pub iterations: usize,
    /// Input seed.
    pub seed: u64,
}

impl SradOmp {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> SradOmp {
        SradOmp {
            n: scale.pick(48, 256, 512),
            iterations: scale.pick(2, 2, 4),
            seed: 11,
        }
    }

    /// Runs the traced computation, returning the diffused image.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<f32> {
        let n = self.n;
        let mut j = grid::speckle_image(n, n, self.seed);
        let a_j = prof.alloc("j", (n * n * 4) as u64);
        let a_c = prof.alloc("c", (n * n * 4) as u64);
        let a_d = prof.alloc("derivs", (n * n * 16) as u64);
        let code1 = prof.code_region("srad_kernel1", 2200);
        let code2 = prof.code_region("srad_kernel2", 1400);
        let threads = prof.threads();
        for _ in 0..self.iterations {
            // Host-style reduction for q0 (each thread scans its band).
            let nn = (n * n) as f32;
            let sum: f32 = j.iter().sum();
            let sum2: f32 = j.iter().map(|x| x * x).sum();
            let mean = sum / nn;
            let q0 = (sum2 / nn - mean * mean) / (mean * mean);

            let c = RefCell::new(vec![0.0f32; n * n]);
            let d = RefCell::new(vec![[0.0f32; 4]; n * n]);
            let jj = &j;
            prof.parallel(|t| {
                t.exec(code1);
                let mut c = c.borrow_mut();
                let mut d = d.borrow_mut();
                for r in chunk(n, threads, t.tid()) {
                    for cc in 0..n {
                        let i = r * n + cc;
                        let north = if r == 0 { i } else { i - n };
                        let south = if r == n - 1 { i } else { i + n };
                        let west = if cc == 0 { i } else { i - 1 };
                        let east = if cc == n - 1 { i } else { i + 1 };
                        for &x in &[i, north, south, west, east] {
                            t.read(a_j + x as u64 * 4, 4);
                        }
                        t.alu(21);
                        t.branch(4);
                        let dn = jj[north] - jj[i];
                        let ds = jj[south] - jj[i];
                        let dw = jj[west] - jj[i];
                        let de = jj[east] - jj[i];
                        let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jj[i] * jj[i]);
                        let l = (dn + ds + dw + de) / jj[i];
                        let num = 0.5 * g2 - (l * l) / 16.0;
                        let den = 1.0 + 0.25 * l;
                        let qsqr = num / (den * den);
                        let dq = (qsqr - q0) / (q0 * (1.0 + q0));
                        c[i] = (1.0 / (1.0 + dq)).clamp(0.0, 1.0);
                        d[i] = [dn, ds, dw, de];
                        t.write(a_c + i as u64 * 4, 4);
                        t.write(a_d + i as u64 * 16, 16);
                    }
                }
            });
            let c = c.into_inner();
            let d = d.into_inner();
            let out = RefCell::new(j.clone());
            prof.parallel(|t| {
                t.exec(code2);
                let mut out = out.borrow_mut();
                for r in chunk(n, threads, t.tid()) {
                    for cc in 0..n {
                        let i = r * n + cc;
                        let south = if r == n - 1 { i } else { i + n };
                        let east = if cc == n - 1 { i } else { i + 1 };
                        t.read(a_j + i as u64 * 4, 4);
                        t.read(a_c + i as u64 * 4, 4);
                        t.read(a_c + south as u64 * 4, 4);
                        t.read(a_c + east as u64 * 4, 4);
                        t.read(a_d + i as u64 * 16, 16);
                        t.alu(10);
                        t.branch(2);
                        out[i] += 0.25
                            * LAMBDA
                            * (c[i] * d[i][0]
                                + c[south] * d[i][1]
                                + c[i] * d[i][2]
                                + c[east] * d[i][3]);
                        t.write(a_j + i as u64 * 4, 4);
                    }
                }
            });
            j = out.into_inner();
        }
        j
    }
}

impl CpuWorkload for SradOmp {
    fn name(&self) -> &'static str {
        "srad"
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
    fn diffusion_reduces_variance() {
        let srad = SradOmp::new(Scale::Tiny);
        let input = grid::speckle_image(srad.n, srad.n, srad.seed);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let out = srad.run_traced(&mut prof);
        let var = |x: &[f32]| {
            let m = x.iter().sum::<f32>() / x.len() as f32;
            x.iter().map(|v| (v - m).powi(2)).sum::<f32>() / x.len() as f32
        };
        assert!(var(&out) < var(&input));
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mix_is_stencil_like() {
        let p = profile(&SradOmp::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        let f = p.mix.fractions();
        assert!(f[0] > 0.4, "ALU-dominated: {f:?}");
        assert!(p.mix.reads > p.mix.writes);
    }
}
