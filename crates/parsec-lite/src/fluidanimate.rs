//! fluidanimate: smoothed-particle-hydrodynamics fluid animation
//! (Table V: 5 frames, 300,000 particles; Animation).
//!
//! Particles are binned into a uniform cell grid; density and force
//! passes gather from the 27-cell neighborhood. Threads own slabs of
//! cells, so the sharing happens at slab boundaries — the same pattern
//! as the original's grid decomposition.

use datasets::{rng_for, Scale};
use rand::Rng;
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::catalog::chunk;

/// Interaction radius == cell edge.
const H: f32 = 1.0;

/// The fluidanimate instance.
#[derive(Debug, Clone)]
pub struct Fluidanimate {
    /// Particle count.
    pub particles: usize,
    /// Cell-grid side.
    pub grid: usize,
    /// Frames simulated.
    pub frames: usize,
    /// Input seed.
    pub seed: u64,
}

impl Fluidanimate {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> Fluidanimate {
        Fluidanimate {
            particles: scale.pick(1_024, 24_000, 300_000),
            grid: scale.pick(8, 20, 48),
            frames: scale.pick(2, 3, 5),
            seed: 117,
        }
    }

    /// Runs the traced simulation, returning final particle positions.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<[f32; 3]> {
        let n = self.particles;
        let g = self.grid;
        let mut rng = rng_for("fluid-init", self.seed);
        let mut pos: Vec<[f32; 3]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.random::<f32>() * (g as f32 * H * 0.6)))
            .collect();
        let mut vel: Vec<[f32; 3]> = vec![[0.0; 3]; n];
        let a_pos = prof.alloc("positions", (n * 12) as u64);
        let a_vel = prof.alloc("velocities", (n * 12) as u64);
        let a_cells = prof.alloc("cells", (g * g * g * 8) as u64);
        let a_dens = prof.alloc("densities", (n * 4) as u64);
        let code_rebuild = prof.code_region("rebuild_grid", 6_000);
        let code_density = prof.code_region("compute_densities", 14_000);
        let code_force = prof.code_region("compute_forces", 20_000);
        let threads = prof.threads();
        let cell_of = |p: &[f32; 3]| -> usize {
            let cx = ((p[0] / H) as usize).min(g - 1);
            let cy = ((p[1] / H) as usize).min(g - 1);
            let cz = ((p[2] / H) as usize).min(g - 1);
            (cx * g + cy) * g + cz
        };

        for _ in 0..self.frames {
            // Rebuild the cell lists (serial, as the original's rebuild
            // stage is cheap and bandwidth-bound).
            let mut cells: Vec<Vec<u32>> = vec![Vec::new(); g * g * g];
            prof.serial(|t| {
                t.exec(code_rebuild);
                for (i, p) in pos.iter().enumerate() {
                    t.read(a_pos + i as u64 * 12, 12);
                    t.alu(6);
                    let c = cell_of(p);
                    cells[c].push(i as u32);
                    t.write(a_cells + c as u64 * 8, 8);
                }
            });

            // Density pass over cell slabs.
            let dens = RefCell::new(vec![0.0f32; n]);
            let (pr, cl) = (&pos, &cells);
            prof.parallel(|t| {
                t.exec(code_density);
                let mut de = dens.borrow_mut();
                for cx in chunk(g, threads, t.tid()) {
                    for cy in 0..g {
                        for cz in 0..g {
                            let c = (cx * g + cy) * g + cz;
                            for &i in &cl[c] {
                                let i = i as usize;
                                t.read(a_pos + i as u64 * 12, 12);
                                let mut rho = 0.0f32;
                                for dx in -1i64..=1 {
                                    for dy in -1i64..=1 {
                                        for dz in -1i64..=1 {
                                            let (nx, ny, nz) =
                                                (cx as i64 + dx, cy as i64 + dy, cz as i64 + dz);
                                            if nx < 0
                                                || ny < 0
                                                || nz < 0
                                                || nx >= g as i64
                                                || ny >= g as i64
                                                || nz >= g as i64
                                            {
                                                continue;
                                            }
                                            let nc =
                                                ((nx as usize * g + ny as usize) * g) + nz as usize;
                                            t.read(a_cells + nc as u64 * 8, 8);
                                            for &j in &cl[nc] {
                                                let j = j as usize;
                                                t.read(a_pos + j as u64 * 12, 12);
                                                t.alu(10);
                                                let r2: f32 = (0..3)
                                                    .map(|k| (pr[i][k] - pr[j][k]).powi(2))
                                                    .sum();
                                                if r2 < H * H {
                                                    let w = H * H - r2;
                                                    rho += w * w * w;
                                                }
                                            }
                                        }
                                    }
                                }
                                de[i] = rho;
                                t.write(a_dens + i as u64 * 4, 4);
                            }
                        }
                    }
                }
            });
            let dens = dens.into_inner();

            // Force + integrate pass (pressure ~ density difference).
            let newstate = RefCell::new((std::mem::take(&mut pos), std::mem::take(&mut vel)));
            let (de, cl) = (&dens, &cells);
            prof.parallel(|t| {
                t.exec(code_force);
                let mut st = newstate.borrow_mut();
                for cx in chunk(g, threads, t.tid()) {
                    for cy in 0..g {
                        for cz in 0..g {
                            let c = (cx * g + cy) * g + cz;
                            for &i in &cl[c] {
                                let i = i as usize;
                                t.read(a_dens + i as u64 * 4, 4);
                                t.update(a_vel + i as u64 * 12, 12, 9);
                                t.update(a_pos + i as u64 * 12, 12, 6);
                                t.branch(1);
                                // Pressure pushes along -density gradient;
                                // modeled as mild repulsion plus gravity.
                                let push = 1e-6 * de[i];
                                st.1[i][1] -= 0.01; // gravity
                                st.1[i][0] += push;
                                for k in 0..3 {
                                    st.0[i][k] = (st.0[i][k] + 0.05 * st.1[i][k])
                                        .clamp(0.0, g as f32 * H - 1e-3);
                                }
                            }
                        }
                    }
                }
            });
            let st = newstate.into_inner();
            pos = st.0;
            vel = st.1;
        }
        pos
    }
}

impl CpuWorkload for Fluidanimate {
    fn name(&self) -> &'static str {
        "fluidanimate"
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
    fn particles_fall_under_gravity_and_stay_in_box() {
        let fl = Fluidanimate::new(Scale::Tiny);
        let g = fl.grid as f32 * H;
        let mut rng = rng_for("fluid-init", fl.seed);
        let initial: Vec<[f32; 3]> = (0..fl.particles)
            .map(|_| std::array::from_fn(|_| rng.random::<f32>() * (g * 0.6)))
            .collect();
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let out = fl.run_traced(&mut prof);
        let mean_y = |p: &[[f32; 3]]| p.iter().map(|q| q[1] as f64).sum::<f64>() / p.len() as f64;
        assert!(mean_y(&out) < mean_y(&initial), "gravity must act");
        assert!(out
            .iter()
            .all(|p| p.iter().all(|&x| (0.0..=g).contains(&x))));
    }

    #[test]
    fn neighborhood_gathers_dominate_reads() {
        let p =
            profile(&Fluidanimate::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        assert!(p.mix.reads > 2 * p.mix.writes, "{:?}", p.mix);
    }
}
