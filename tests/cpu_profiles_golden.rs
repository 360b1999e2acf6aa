//! Pin of the CPU comparison corpus.
//!
//! Every Tiny workload of the 24-workload corpus (Rodinia OpenMP plus
//! Parsec-lite) is captured once and replayed at the study's eight
//! shared-cache capacities, and two digests are taken per workload: one
//! of the assembled [`Profile`]'s `Debug` rendering (the instruction
//! mix, both footprints, the event count and every counter of every
//! capacity's `CacheStats`), and one of the packed reference trace the
//! capture recorded. A change to capture, footprints or replay that
//! moves a single counter or a single trace word fails here.
//!
//! `tests/golden/cpu_profiles.txt` holds one `label profile-digest
//! words-digest` line per workload. On a mismatch the test prints the
//! full table it computed; an intended model change re-blesses by
//! replacing the file with that table.
//!
//! [`Profile`]: rodinia_repro::tracekit::Profile

use rodinia_repro::datasets::Scale;
use rodinia_repro::rodinia_study::suite::combined_workloads;
use rodinia_repro::store::fnv1a64;
use rodinia_repro::tracekit::{CpuCapture, ProfileConfig};

const GOLDEN: &str = include_str!("golden/cpu_profiles.txt");

/// Captures and replays every Tiny workload and renders the
/// `label profile-digest words-digest` table.
fn digest_table() -> String {
    let cfg = ProfileConfig::default();
    let mut table = String::new();
    for w in combined_workloads(Scale::Tiny) {
        let cap = CpuCapture::capture(w.workload.as_ref(), &cfg).expect("capture");
        let stats = cap.replay_all(&cfg.cache_sizes).expect("replay");
        let profile = cap.profile_with(stats);
        let profile_digest = fnv1a64(format!("{profile:?}").as_bytes());
        let words: Vec<u8> = cap
            .packed_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let words_digest = fnv1a64(&words);
        table.push_str(&format!(
            "{} {profile_digest:016x} {words_digest:016x}\n",
            w.label
        ));
    }
    table
}

#[test]
fn cpu_profiles_match_the_golden_digests() {
    let table = digest_table();
    let drifted: Vec<String> = table
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        drifted.is_empty() && table.lines().count() == GOLDEN.lines().count(),
        "CPU profiles drifted ({} of {} lines):\n{}\nfull table computed:\n{table}",
        drifted.len(),
        GOLDEN.lines().count(),
        drifted.join("\n"),
    );
}
