//! The `serve-store` request mix, generated from the workload seed.
//!
//! One sample is two phases of [`PHASE_REQUESTS`] requests each: a cold
//! daemon on an empty store, then a fresh daemon on the same store. The
//! mix is dealt from decks rather than drawn independently, so every
//! seed asks for the same total work and only the grouping and order
//! change:
//!
//! * every artifact is requested alone exactly once per sample (nine
//!   singles per phase);
//! * each phase deals one shuffle of the 18 artifacts into nine ordered
//!   pairs;
//! * the cold phase sends `check` and the warm phase `audit`, each with
//!   one `analyze` at a seeded `top_k` in 1..=[`MAX_TOP_K`]. `audit`
//!   holds more memory than any other request, so fixing its phase keeps
//!   the daemons' peak RSS comparable across seeds;
//! * each phase opens with one request at Small scale, [`SMALL`]: the
//!   cold phase asks for `table3`, whose variant-machine captures the
//!   cold daemon makes and stores (about 14 MB), and the warm phase for
//!   `table1` and `table3`, a different study key over the same captures,
//!   which the warm daemon restores. So the store layer also writes and
//!   reads full-size payloads, not only Tiny ones.
//!
//! That is 19 Tiny tables requests, one Small tables request and two
//! sanitizer/critical-path requests per phase, in an order fixed by kind
//! — the Small request, `analyze`, the pairs, `check` or `audit`, then
//! the singles — with the seed deciding the grouping and the order
//! within each kind. Pairs touch every benchmark before `check` or
//! `audit` starts, so those meet warm caches and overlap only
//! single-artifact requests, and the phase ends on short requests rather
//! than on one long one while the other client idles. No study key
//! repeats within a sample, so the daemon's request coalescing never
//! depends on client timing.
//!
//! Only one request a phase is at Small because Small requests cost
//! seconds where Tiny ones cost milliseconds. Measured on a 2-core host
//! with the `repro` CLI at `--jobs 2` on an empty store: `table3` 0.5 s,
//! `fig2` 2.2 s, `fig3` 2.5 s, `fig1` 3.2 s, `fig4` 4.5 s, `fig5` 4.8 s.
//! A fifth of the mix at Small, eight such requests a sample, would take
//! longer than a whole measured run.

use std::collections::BTreeSet;

use obs::Json;
use rodinia_study::experiments::ExperimentId;
use rodinia_study::request::{StudyCommand, StudyRequest};
use rodinia_study::Scale;

/// Largest `top_k` the mix sends with `analyze`.
pub const MAX_TOP_K: usize = 8;

/// The artifacts the cold and the warm phase ask for at Small scale.
pub const SMALL: [&[ExperimentId]; 2] = [
    &[ExperimentId::Table3],
    &[ExperimentId::Table1, ExperimentId::Table3],
];

/// Requests per phase: one Small request, 9 singles, 9 pairs, and
/// `check` or `audit` with one `analyze`.
const PHASE_REQUESTS: usize = 1 + 9 + 9 + 2;

/// The wire and golden-key name of a scale.
pub fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// What a request asks for, and so which golden digests its response
/// must match. Everything but [`Ask::Tables`] is at Tiny scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ask {
    /// Tables for these artifacts at this scale, in this order.
    Tables(Scale, Vec<ExperimentId>),
    /// The sanitizer report.
    Check,
    /// The access-contract audit.
    Audit,
    /// The critical-path attribution at this depth.
    Analyze(usize),
}

/// One generated request: its wire body and what it asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The `POST /study` body.
    pub body: String,
    /// The decoded intent, for checking the response.
    pub ask: Ask,
}

impl Request {
    /// Renders `ask` as a wire body.
    pub fn new(ask: Ask) -> Request {
        let tiny = ("scale", Json::from("tiny"));
        let doc = match &ask {
            Ask::Tables(scale, ids) => Json::obj(vec![
                (
                    "artifacts",
                    Json::from(
                        ids.iter()
                            .map(|id| Json::from(id.name()))
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("scale", Json::from(scale_token(*scale))),
            ]),
            Ask::Check => Json::obj(vec![("command", Json::from("check")), tiny]),
            Ask::Audit => Json::obj(vec![("command", Json::from("audit")), tiny]),
            Ask::Analyze(k) => Json::obj(vec![
                ("command", Json::from("analyze")),
                tiny,
                ("top_k", Json::u64(*k as u64)),
            ]),
        };
        Request {
            body: doc.to_string(),
            ask,
        }
    }

    /// The typed request the daemon would decode from [`Request::body`].
    pub fn study_request(&self) -> StudyRequest {
        let (command, scale) = match &self.ask {
            Ask::Tables(scale, ids) => (
                StudyCommand::Tables {
                    artifacts: ids.clone(),
                },
                *scale,
            ),
            Ask::Check => (StudyCommand::Check, Scale::Tiny),
            Ask::Audit => (StudyCommand::Audit, Scale::Tiny),
            Ask::Analyze(k) => (StudyCommand::Analyze { top_k: *k }, Scale::Tiny),
        };
        StudyRequest {
            command,
            ..StudyRequest::tables(Vec::new(), scale)
        }
    }
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same mix on every platform and toolchain.
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The mix seed of sample `i` of a run with `seed`: `seed + i·2³²`.
/// Each sample of a run sends a different mix, so a run's median spans
/// several groupings and orders instead of resting on one; sample 0
/// sends the mix of `seed` itself.
pub fn sample_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64) << 32)
}

/// The two phases (cold, warm) of one sample's requests for `seed`.
pub fn generate(seed: u64) -> [Vec<Request>; 2] {
    let mut rng = Rng(seed);
    let mut singles = ExperimentId::all();
    rng.shuffle(&mut singles);
    let mut top_ks: Vec<usize> = (1..=MAX_TOP_K).collect();
    rng.shuffle(&mut top_ks);
    let mut used_pairs = BTreeSet::new();
    let mut phases: [Vec<Request>; 2] = [Vec::new(), Vec::new()];
    for (p, phase) in phases.iter_mut().enumerate() {
        let mut asks = Vec::with_capacity(PHASE_REQUESTS);
        asks.push(Ask::Tables(Scale::Small, SMALL[p].to_vec()));
        asks.push(Ask::Analyze(top_ks[p]));
        // Redeal until no ordered pair repeats one the cold phase sent;
        // a collision is rare, so this ends quickly.
        let pairs = loop {
            let mut deck = ExperimentId::all();
            rng.shuffle(&mut deck);
            let pairs: Vec<(ExperimentId, ExperimentId)> =
                deck.chunks(2).map(|c| (c[0], c[1])).collect();
            if pairs.iter().all(|pair| !used_pairs.contains(&key(pair))) {
                break pairs;
            }
        };
        for pair in pairs {
            used_pairs.insert(key(&pair));
            asks.push(Ask::Tables(Scale::Tiny, vec![pair.0, pair.1]));
        }
        asks.push(if p == 0 { Ask::Check } else { Ask::Audit });
        asks.extend(
            singles[p * 9..p * 9 + 9]
                .iter()
                .map(|&id| Ask::Tables(Scale::Tiny, vec![id])),
        );
        *phase = asks.into_iter().map(Request::new).collect();
    }
    phases
}

fn key(pair: &(ExperimentId, ExperimentId)) -> (&'static str, &'static str) {
    (pair.0.name(), pair.1.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(seed: u64) -> Vec<String> {
        generate(seed)
            .iter()
            .flatten()
            .map(|r| r.body.clone())
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_bodies() {
        assert_eq!(bodies(7), bodies(7));
    }

    #[test]
    fn different_seeds_give_different_bodies() {
        assert_ne!(bodies(7), bodies(8));
        assert_ne!(bodies(0), bodies(1));
    }

    #[test]
    fn no_study_key_repeats_within_a_sample() {
        for seed in 0..50 {
            let keys: Vec<String> = generate(seed)
                .iter()
                .flatten()
                .map(|r| r.study_request().study_key())
                .collect();
            let unique: BTreeSet<&String> = keys.iter().collect();
            assert_eq!(unique.len(), keys.len(), "seed {seed}");
        }
    }

    #[test]
    fn every_body_decodes_to_the_intended_request() {
        for seed in [0, 1, 42] {
            let phases = generate(seed);
            for phase in &phases {
                assert_eq!(phase.len(), PHASE_REQUESTS);
                for r in phase {
                    let doc = Json::parse(&r.body).expect("body is JSON");
                    let req = StudyRequest::from_json(&doc).expect("body passes the wire grammar");
                    req.validate().expect("body passes validation");
                    assert_eq!(req, r.study_request(), "{}", r.body);
                }
            }
        }
    }

    #[test]
    fn every_seed_asks_for_the_same_work() {
        let census = |seed| {
            let mut counts = std::collections::BTreeMap::new();
            for r in generate(seed).iter().flatten() {
                match &r.ask {
                    Ask::Tables(scale, ids) => {
                        for id in ids {
                            let key = format!("{}/{}", scale_token(*scale), id.name());
                            *counts.entry(key).or_insert(0) += 1;
                        }
                    }
                    Ask::Analyze(_) => *counts.entry("analyze".to_string()).or_insert(0) += 1,
                    other => *counts.entry(format!("{other:?}")).or_insert(0) += 1,
                }
            }
            counts
        };
        let first = census(0);
        assert_eq!(
            first.get("tiny/fig1"),
            Some(&3),
            "alone once, in a pair per phase"
        );
        assert_eq!(first.get("small/table3"), Some(&2));
        for seed in 1..20 {
            assert_eq!(census(seed), first, "seed {seed}");
        }
    }

    #[test]
    fn each_phase_opens_with_its_one_small_request() {
        for seed in 0..20 {
            for (phase, small) in generate(seed).iter().zip(SMALL) {
                assert_eq!(phase[0].ask, Ask::Tables(Scale::Small, small.to_vec()));
                let smalls = phase
                    .iter()
                    .filter(|r| matches!(r.ask, Ask::Tables(Scale::Small, _)))
                    .count();
                assert_eq!(smalls, 1, "seed {seed}");
            }
        }
    }
}
