//! Full GPU characterization (the paper's Section III): Figures 1-5 and
//! Table III, printed as tables.
//!
//! ```text
//! cargo run --release --example gpu_characterize [tiny|small|paper]
//! ```
//!
//! `small` (the default) matches the experiment scale used in
//! EXPERIMENTS.md; `paper` uses the Table I problem sizes and takes
//! considerably longer.

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::{characterization, experiments};

fn scale_from_args() -> Scale {
    match std::env::args().nth(1).as_deref() {
        Some("tiny") => Scale::Tiny,
        Some("paper") => Scale::Paper,
        Some("small") | None => Scale::Small,
        Some(other) => {
            eprintln!("unknown scale {other:?}; use tiny|small|paper");
            std::process::exit(2);
        }
    }
}

fn main() -> Result<(), StudyError> {
    let scale = scale_from_args();
    let session = StudySession::default();
    println!("{}", experiments::table2()?);
    println!(
        "{}",
        characterization::ipc_scaling(&session, scale)?.to_table()?
    );
    println!(
        "{}",
        characterization::memory_mix(&session, scale)?.to_table()?
    );
    println!(
        "{}",
        characterization::warp_occupancy(&session, scale)?.to_table()?
    );
    println!(
        "{}",
        characterization::channel_sweep(&session, scale)?.to_table()?
    );
    println!(
        "{}",
        characterization::incremental_versions(&session, scale)?.to_table()?
    );
    println!(
        "{}",
        characterization::fermi_study(&session, scale)?.to_table()?
    );
    Ok(())
}
