//! The Plackett-Burman GPU design-space screening (the paper's Section
//! III.E): nine architectural parameters screened with twelve simulated
//! design points per benchmark.
//!
//! ```text
//! cargo run --release --example gpu_design_space [tiny|small] [ABBREV...]
//! ```
//!
//! With no benchmark arguments the whole suite is screened; otherwise
//! only the named benchmarks (e.g. `SRAD NW BFS`).

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::sensitivity;

fn main() -> Result<(), StudyError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, names): (Scale, Vec<&str>) = match args.split_first() {
        Some((first, rest)) if first == "tiny" => (
            Scale::Tiny,
            rest.iter().map(std::string::String::as_str).collect(),
        ),
        Some((first, rest)) if first == "small" => (
            Scale::Small,
            rest.iter().map(std::string::String::as_str).collect(),
        ),
        Some(_) => (
            Scale::Small,
            args.iter().map(std::string::String::as_str).collect(),
        ),
        None => (Scale::Small, Vec::new()),
    };
    let subset = if names.is_empty() {
        None
    } else {
        Some(names.as_slice())
    };
    let session = StudySession::default();
    let study = sensitivity::run(&session, scale, subset)?;
    println!("{}", study.to_table()?);
    println!("{}", study.aggregate_table()?);
    println!(
        "(the paper reports SIMD width and memory channels as the dominant factors,\n\
         \"often demonstrating more than an order of magnitude greater effect\")"
    );
    Ok(())
}
