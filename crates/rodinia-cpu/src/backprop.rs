//! Back Propagation (OpenMP): forward pass and weight adjustment
//! parallelized over input units.

use datasets::{matrix, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::util::chunk;

const HIDDEN: usize = 16;
const ETA: f32 = 0.3;
const TARGET: f32 = 0.8;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The OpenMP Back Propagation instance.
#[derive(Debug, Clone)]
pub struct BackpropOmp {
    /// Number of input units.
    pub n: usize,
    /// Input seed.
    pub seed: u64,
}

impl BackpropOmp {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> BackpropOmp {
        BackpropOmp {
            n: scale.pick(512, 16_384, 65_536),
            seed: 21,
        }
    }

    /// Runs the traced training step, returning the output activation
    /// before the update.
    pub fn run_traced(&self, prof: &mut Profiler) -> f32 {
        let n = self.n;
        let scale = 1.0 / (n as f32).sqrt();
        let input = matrix::random_vector(n, self.seed);
        let mut w1: Vec<f32> = matrix::random_vector(n * HIDDEN, self.seed + 1)
            .into_iter()
            .map(|x| (x - 0.5) * scale)
            .collect();
        let w2: Vec<f32> = matrix::random_vector(HIDDEN, self.seed + 2)
            .into_iter()
            .map(|x| x - 0.5)
            .collect();
        let a_in = prof.alloc("input", (n * 4) as u64);
        let a_w1 = prof.alloc("w1", (n * HIDDEN * 4) as u64);
        let a_part = prof.alloc("partials", (prof.threads() * HIDDEN * 4) as u64);
        let code_fwd = prof.code_region("bpnn_layerforward", 1400);
        let code_adj = prof.code_region("bpnn_adjust_weights", 1100);
        let threads = prof.threads();

        // Forward: per-thread partial sums over input chunks.
        let partials = RefCell::new(vec![0.0f32; threads * HIDDEN]);
        let (inp, w1r) = (&input, &w1);
        prof.parallel(|t| {
            t.exec(code_fwd);
            let mut p = partials.borrow_mut();
            let tid = t.tid();
            for i in chunk(n, threads, tid) {
                t.read(a_in + i as u64 * 4, 4);
                for j in 0..HIDDEN {
                    t.read(a_w1 + (i * HIDDEN + j) as u64 * 4, 4);
                    t.alu(2);
                    p[tid * HIDDEN + j] += inp[i] * w1r[i * HIDDEN + j];
                }
                t.write(a_part + (tid * HIDDEN) as u64 * 4, 4);
            }
        });
        let partials = partials.into_inner();
        // Serial: combine, activate, compute deltas.
        let mut hidden = [0.0f32; HIDDEN];
        let mut output = 0.0f32;
        let mut delta_hidden = [0.0f32; HIDDEN];
        prof.serial(|t| {
            for (j, h) in hidden.iter_mut().enumerate() {
                let mut s = 0.0f32;
                for tt in 0..threads {
                    t.read(a_part + (tt * HIDDEN + j) as u64 * 4, 4);
                    t.alu(1);
                    s += partials[tt * HIDDEN + j];
                }
                *h = sigmoid(s);
            }
            t.alu(4 * HIDDEN as u32);
            let out_sum: f32 = (0..HIDDEN).map(|j| hidden[j] * w2[j]).sum();
            output = sigmoid(out_sum);
            let delta_out = (TARGET - output) * output * (1.0 - output);
            for j in 0..HIDDEN {
                delta_hidden[j] = hidden[j] * (1.0 - hidden[j]) * delta_out * w2[j];
            }
        });
        // Adjust weights in parallel.
        let w1c = RefCell::new(std::mem::take(&mut w1));
        let dh = &delta_hidden;
        let inp = &input;
        prof.parallel(|t| {
            t.exec(code_adj);
            let mut w = w1c.borrow_mut();
            for i in chunk(n, threads, t.tid()) {
                t.read(a_in + i as u64 * 4, 4);
                for j in 0..HIDDEN {
                    t.update(a_w1 + (i * HIDDEN + j) as u64 * 4, 4, 3);
                    w[i * HIDDEN + j] += ETA * dh[j] * inp[i];
                }
            }
        });
        let _ = w1c.into_inner();
        output
    }
}

impl CpuWorkload for BackpropOmp {
    fn name(&self) -> &'static str {
        "backprop"
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
    fn output_is_a_probability() {
        let bp = BackpropOmp::new(Scale::Tiny);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let out = bp.run_traced(&mut prof);
        assert!((0.0..1.0).contains(&out));
    }

    #[test]
    fn weight_updates_make_writes_prominent() {
        // The adjust-weights pass writes every weight: BP has one of the
        // highest write fractions in the suite (a Figure 7 outlier).
        let p =
            profile(&BackpropOmp::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        let f = p.mix.fractions();
        assert!(f[3] > 0.1, "write fraction {f:?}");
    }
}
