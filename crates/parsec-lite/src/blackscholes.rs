//! blackscholes: Black–Scholes PDE portfolio pricing
//! (Table V: 65,536 options; Financial Analysis).
//!
//! The lightest Parsec workload: one closed-form evaluation per option,
//! embarrassingly parallel, with a working set that fits any cache and
//! essentially no sharing — it sits near the origin of every PCA plot.

use datasets::{finance, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

/// The blackscholes instance.
#[derive(Debug, Clone)]
pub struct Blackscholes {
    /// Portfolio size.
    pub options: usize,
    /// Repricing passes (Parsec reprices the portfolio repeatedly).
    pub passes: usize,
    /// Input seed.
    pub seed: u64,
}

/// Cumulative normal distribution (Abramowitz–Stegun polynomial, as the
/// Parsec source uses).
fn cndf(x: f32) -> f32 {
    let neg = x < 0.0;
    let x = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * x);
    let poly = k
        * (0.319_381_54
            + k * (-0.356_563_78 + k * (1.781_477_9 + k * (-1.821_255_9 + k * 1.330_274_5))));
    let pdf = (-0.5 * x * x).exp() * 0.398_942_3;
    let v = 1.0 - pdf * poly;
    if neg {
        1.0 - v
    } else {
        v
    }
}

/// Black–Scholes price of one option.
pub fn price(o: &finance::OptionData) -> f32 {
    let sqrt_t = o.time.sqrt();
    let d1 = ((o.spot / o.strike).ln() + (o.rate + 0.5 * o.volatility * o.volatility) * o.time)
        / (o.volatility * sqrt_t);
    let d2 = d1 - o.volatility * sqrt_t;
    let discounted = o.strike * (-o.rate * o.time).exp();
    if o.is_call {
        o.spot * cndf(d1) - discounted * cndf(d2)
    } else {
        discounted * cndf(-d2) - o.spot * cndf(-d1)
    }
}

impl Blackscholes {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> Blackscholes {
        Blackscholes {
            options: scale.pick(2_048, 65_536, 65_536),
            passes: scale.pick(2, 4, 8),
            seed: 101,
        }
    }

    /// Runs the traced pricing, returning the option prices.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<f32> {
        let portfolio = finance::option_portfolio(self.options, self.seed);
        let a_opt = prof.alloc("options", (self.options * 24) as u64);
        let a_price = prof.alloc("prices", (self.options * 4) as u64);
        let code = prof.code_region("bs_thread", 6_000);
        let threads = prof.threads();
        let prices = RefCell::new(vec![0.0f32; self.options]);
        let pf = &portfolio;
        for _ in 0..self.passes {
            prof.parallel(|t| {
                t.exec(code);
                let mut out = prices.borrow_mut();
                for i in crate::catalog::chunk(self.options, threads, t.tid()) {
                    t.read(a_opt + i as u64 * 24, 24);
                    t.alu(42);
                    t.branch(2);
                    out[i] = price(&pf[i]);
                    t.write(a_price + i as u64 * 4, 4);
                }
            });
        }
        prices.into_inner()
    }
}

impl CpuWorkload for Blackscholes {
    fn name(&self) -> &'static str {
        "blackscholes"
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
    fn prices_are_sane() {
        let bs = Blackscholes::new(Scale::Tiny);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let prices = bs.run_traced(&mut prof);
        let portfolio = finance::option_portfolio(bs.options, bs.seed);
        for (p, o) in prices.iter().zip(&portfolio) {
            assert!(*p >= -1e-3, "option price cannot be negative: {p}");
            assert!(*p <= o.spot.max(o.strike) + 1.0, "price {p} too high");
        }
    }

    #[test]
    fn put_call_parity_holds() {
        // C - P = S - K e^{-rT} for matched parameters.
        let o = finance::OptionData {
            spot: 100.0,
            strike: 95.0,
            rate: 0.05,
            volatility: 0.3,
            time: 1.0,
            is_call: true,
        };
        let call = price(&o);
        let put = price(&finance::OptionData {
            is_call: false,
            ..o
        });
        let parity = o.spot - o.strike * (-o.rate * o.time).exp();
        assert!((call - put - parity).abs() < 0.05, "{call} {put} {parity}");
    }

    #[test]
    fn tiny_working_set_and_no_sharing() {
        let p =
            profile(&Blackscholes::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        // The portfolio fits even the smallest cache: capacity-insensitive
        // (compulsory-only) miss behavior.
        let small = p.at_capacity(128 * 1024).miss_rate();
        let big = p.at_capacity(16 * 1024 * 1024).miss_rate();
        assert!((small - big).abs() < 0.01, "{small} vs {big}");
        let s = p.at_capacity(16 * 1024 * 1024);
        assert!(s.shared_access_rate() < 0.05, "{s:?}");
        let f = p.mix.fractions();
        assert!(f[0] > 0.55, "ALU-dominated: {f:?}");
    }
}
