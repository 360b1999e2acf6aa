//! ferret: content-based similarity search pipeline
//! (Table V: 256 queries over 34,973 images; Similarity Search).
//!
//! The pipeline stages are preserved as successive parallel regions:
//! feature extraction per query image, candidate selection through an
//! LSH-style bucket index, and ranking by full distance computation
//! against the (read-shared) feature database.

use datasets::{mining, rng_for, Scale};
use rand::Rng;
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::catalog::chunk;

/// Feature dimensions per image.
const DIMS: usize = 48;
/// LSH buckets.
const LSH_BUCKETS: usize = 256;
/// Results kept per query.
const TOP_K: usize = 8;

/// The ferret instance.
#[derive(Debug, Clone)]
pub struct Ferret {
    /// Database size (images).
    pub database: usize,
    /// Query count.
    pub queries: usize,
    /// Input seed.
    pub seed: u64,
}

impl Ferret {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> Ferret {
        Ferret {
            database: scale.pick(1_024, 12_288, 34_973),
            queries: scale.pick(16, 96, 256),
            seed: 115,
        }
    }

    fn lsh_bucket(feature: &[f32]) -> usize {
        // Sign-hash of a few fixed projections.
        let mut h = 0usize;
        for b in 0..8 {
            let mut dot = 0.0f32;
            for d in 0..DIMS {
                let w = if (d + b) % 3 == 0 { 1.0 } else { -0.5 };
                dot += w * feature[d];
            }
            h = (h << 1) | usize::from(dot > 0.0);
        }
        h % LSH_BUCKETS
    }

    /// Runs the traced pipeline; returns the per-query best match ids.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<usize> {
        let db = mining::clustered_points(self.database, DIMS, 16, self.seed);
        let a_db = prof.alloc("database", (self.database * DIMS * 4) as u64);
        let a_index = prof.alloc("lsh-index", (LSH_BUCKETS * 64) as u64);
        let a_query = prof.alloc("queries", (self.queries * DIMS * 4) as u64);
        let a_out = prof.alloc("results", (self.queries * TOP_K * 8) as u64);
        let code_extract = prof.code_region("feature_extract", 18_000);
        let code_index = prof.code_region("lsh_probe", 8_000);
        let code_rank = prof.code_region("rank_candidates", 12_000);
        let threads = prof.threads();

        // Build the LSH index once, serially (part of database load).
        let mut index: Vec<Vec<u32>> = vec![Vec::new(); LSH_BUCKETS];
        for i in 0..self.database {
            index[Self::lsh_bucket(&db[i * DIMS..(i + 1) * DIMS])].push(i as u32);
        }

        // Stage 1: extract query features (perturbed database entries,
        // so queries have true near neighbors).
        let queries = RefCell::new(vec![0.0f32; self.queries * DIMS]);
        let dbr = &db;
        prof.parallel(|t| {
            t.exec(code_extract);
            let mut q = queries.borrow_mut();
            for qi in chunk(self.queries, threads, t.tid()) {
                let mut rng = rng_for("ferret-query", self.seed ^ qi as u64);
                let src = rng.random_range(0..self.database);
                for d in 0..DIMS {
                    t.read(a_db + (src * DIMS + d) as u64 * 4, 4);
                    t.alu(5);
                    q[qi * DIMS + d] = dbr[src * DIMS + d] + 0.05 * (rng.random::<f32>() - 0.5);
                    t.write(a_query + (qi * DIMS + d) as u64 * 4, 4);
                }
            }
        });
        let queries = queries.into_inner();

        // Stage 2 + 3: probe the index, rank candidates by L2 distance.
        let results = RefCell::new(vec![0usize; self.queries]);
        let (qr, ir) = (&queries, &index);
        prof.parallel(|t| {
            t.exec(code_index);
            t.exec(code_rank);
            let mut res = results.borrow_mut();
            for qi in chunk(self.queries, threads, t.tid()) {
                let q = &qr[qi * DIMS..(qi + 1) * DIMS];
                t.alu(DIMS as u32 * 8);
                let bucket = Self::lsh_bucket(q);
                t.read(a_index + bucket as u64 * 64, 64);
                // Probe the home bucket plus neighbors for recall.
                let mut best = (f32::INFINITY, 0usize);
                for probe in 0..4 {
                    let b = (bucket + probe * 17) % LSH_BUCKETS;
                    for &cand in &ir[b] {
                        let cand = cand as usize;
                        let mut d2 = 0.0f32;
                        for dd in 0..DIMS {
                            t.read(a_db + (cand * DIMS + dd) as u64 * 4, 4);
                            t.alu(3);
                            let diff = q[dd] - dbr[cand * DIMS + dd];
                            d2 += diff * diff;
                        }
                        t.branch(1);
                        if d2 < best.0 {
                            best = (d2, cand);
                        }
                    }
                }
                res[qi] = best.1;
                t.write(a_out + (qi * TOP_K) as u64 * 8, 8);
            }
        });
        results.into_inner()
    }
}

impl CpuWorkload for Ferret {
    fn name(&self) -> &'static str {
        "ferret"
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
    fn queries_find_close_matches() {
        let fr = Ferret {
            database: 512,
            queries: 24,
            seed: 6,
        };
        let db = mining::clustered_points(fr.database, DIMS, 16, fr.seed);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let results = fr.run_traced(&mut prof);
        // Each query was a perturbed database row; its best match must be
        // genuinely close (far below the typical inter-point distance).
        for (qi, &m) in results.iter().enumerate() {
            let mut rng = rng_for("ferret-query", fr.seed ^ qi as u64);
            let src = rng.random_range(0..fr.database);
            let d2: f32 = (0..DIMS)
                .map(|d| (db[src * DIMS + d] - db[m * DIMS + d]).powi(2))
                .sum();
            assert!(d2 < 4.0, "query {qi}: match {m} too far ({d2})");
        }
    }

    #[test]
    fn database_is_read_shared_and_reads_dominate() {
        let p = profile(&Ferret::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        assert!(p.mix.reads > 10 * p.mix.writes, "{:?}", p.mix);
        let s = p.at_capacity(16 * 1024 * 1024);
        assert!(s.shared_line_fraction() > 0.05, "{s:?}");
    }
}
