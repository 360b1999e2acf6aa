//! swaptions: Monte-Carlo swaption pricing under a one-factor HJM-style
//! model (Table V: 64 swaptions × 20,000 simulations; Financial
//! Analysis).
//!
//! Heavy per-thread floating-point work over private path buffers: high
//! ALU fraction, negligible sharing, small working set — the profile the
//! paper's Figure 9 places next to blackscholes.

use datasets::{finance, rng_for, Scale};
use rand::Rng;
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::catalog::chunk;

/// Time steps per simulated forward-rate path.
const STEPS: usize = 20;

/// The swaptions instance.
#[derive(Debug, Clone)]
pub struct Swaptions {
    /// Book size.
    pub swaptions: usize,
    /// Monte-Carlo trials per swaption.
    pub trials: usize,
    /// Input seed.
    pub seed: u64,
}

impl Swaptions {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> Swaptions {
        Swaptions {
            swaptions: scale.pick(8, 32, 64),
            trials: scale.pick(200, 2_000, 20_000),
            seed: 103,
        }
    }

    /// Runs the traced pricing, returning per-swaption prices.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<f32> {
        let book = finance::swaption_book(self.swaptions, self.seed);
        let a_book = prof.alloc("book", (self.swaptions * 20) as u64);
        // Per-thread path buffers are separately allocated in the original;
        // pad to page granularity so threads never share lines.
        let a_path = prof.alloc("paths", (prof.threads() * 4096) as u64);
        let a_out = prof.alloc("prices", (self.swaptions * 4) as u64);
        let code = prof.code_region("hjm_simpath", 11_000);
        let threads = prof.threads();
        let prices = RefCell::new(vec![0.0f32; self.swaptions]);
        let bk = &book;
        prof.parallel(|t| {
            t.exec(code);
            let mut out = prices.borrow_mut();
            let tid = t.tid();
            for s in chunk(self.swaptions, threads, tid) {
                t.read(a_book + s as u64 * 20, 20);
                let sw = &bk[s];
                let mut rng = rng_for("swaptions-mc", self.seed ^ (s as u64) << 8);
                let dt = sw.maturity / STEPS as f32;
                let mut payoff_sum = 0.0f64;
                for _ in 0..self.trials {
                    // Evolve the forward rate along one path.
                    let mut rate = sw.forward;
                    for step in 0..STEPS {
                        let z: f32 = {
                            // Box-Muller-lite: sum of uniforms.
                            let u: f32 = (0..4).map(|_| rng.random::<f32>() - 0.5).sum::<f32>();
                            u * (3.0f32).sqrt()
                        };
                        t.update(a_path + (tid * 4096 + step * 4) as u64, 4, 6);
                        rate += sw.volatility * rate * z * dt.sqrt();
                        rate = rate.max(1e-4);
                    }
                    t.alu(8);
                    t.branch(1);
                    // Payer-swaption payoff: annuity-weighted positive
                    // part of (rate - strike).
                    let annuity = sw.tenor / (1.0 + rate * sw.tenor);
                    let payoff = (rate - sw.strike).max(0.0) * annuity;
                    payoff_sum += (payoff * (-sw.forward * sw.maturity).exp()) as f64;
                }
                out[s] = (payoff_sum / self.trials as f64) as f32;
                t.write(a_out + s as u64 * 4, 4);
            }
        });
        prices.into_inner()
    }
}

impl CpuWorkload for Swaptions {
    fn name(&self) -> &'static str {
        "swaptions"
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
    fn prices_are_nonnegative_and_bounded() {
        let sw = Swaptions::new(Scale::Tiny);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let prices = sw.run_traced(&mut prof);
        assert!(
            prices.iter().all(|&p| (0.0..1.0).contains(&p)),
            "{prices:?}"
        );
        // Some swaption should be in the money on average.
        assert!(prices.iter().any(|&p| p > 0.0));
    }

    #[test]
    fn deeper_in_the_money_costs_more() {
        // Lowering the strike of the same swaption cannot cheapen it.
        let base = finance::swaption_book(1, 7)[0];
        let price_with = |strike: f32, seed: u64| -> f32 {
            let mut rng = rng_for("check", seed);
            let mut sum = 0.0f64;
            for _ in 0..4000 {
                let mut rate = base.forward;
                let dt = base.maturity / STEPS as f32;
                for _ in 0..STEPS {
                    let u: f32 = (0..4).map(|_| rng.random::<f32>() - 0.5).sum();
                    rate += base.volatility * rate * u * (3.0f32).sqrt() * dt.sqrt();
                    rate = rate.max(1e-4);
                }
                let annuity = base.tenor / (1.0 + rate * base.tenor);
                sum += ((rate - strike).max(0.0) * annuity) as f64;
            }
            (sum / 4000.0) as f32
        };
        assert!(price_with(0.01, 5) >= price_with(0.08, 5));
    }

    #[test]
    fn private_compute_profile() {
        let p = profile(&Swaptions::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        let f = p.mix.fractions();
        assert!(f[0] > 0.5, "ALU fraction {f:?}");
        let s = p.at_capacity(16 * 1024 * 1024);
        assert!(s.shared_access_rate() < 0.1, "{s:?}");
    }
}
