//! `repro-bench`: the benchmark of record for the Rodinia reproduction.
//!
//! ```text
//! repro-bench [run|trace] [--workload W] [--seed N] [--seconds T]
//!             [--repeat N] [--trace 0|1] [--out FILE]
//! repro-bench bless
//! ```
//!
//! `run` (or `--trace 0`) measures end-to-end metrics with no tracing:
//! samples of each workload, each in fresh system processes, for
//! `--seconds` (or exactly `--repeat` samples), reporting medians.
//! `trace` (or `--trace 1`) runs rounds of one untraced sample and one
//! traced run for `--seconds` (at least one round, or exactly `--repeat`),
//! reports the per-layer medians, and writes `TRACE_<workload>.json`.
//! `bless` regenerates `golden/digests.json`. Without `--workload`, every
//! workload runs.
//! The last stdout line of a run is its JSON result; a failed check
//! makes the exit code 1. See README.md.

#![forbid(unsafe_code)]

mod golden;
mod layers;
mod mix;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use obs::Json;

use golden::Golden;
use workload::{Sample, Workload};

/// `(name, unit, better, value)` of the end-to-end metrics, reported for
/// every workload.
type EndToEnd = (&'static str, &'static str, &'static str, fn(&Sample) -> f64);
const END_TO_END: [EndToEnd; 4] = [
    ("wall_s", "s", "lower", |s| s.wall_s),
    ("cpu_s", "s", "lower", |s| s.cpu_s),
    ("setup_s", "s", "lower", |s| s.setup_s),
    ("peak_rss_mb", "MB", "lower", |s| s.rss_mb),
];

#[derive(Debug)]
struct Args {
    trace: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    repeat: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        trace: false,
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        repeat: None,
        out: None,
    };
    let mut rest = args;
    match rest.first().map(String::as_str) {
        Some("run") => rest = &rest[1..],
        Some("trace") => {
            a.trace = true;
            rest = &rest[1..];
        }
        _ => {}
    }
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads =
                    vec![Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?];
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--repeat" => {
                let v = value()?;
                a.repeat = Some(v.parse().ok().filter(|n| *n > 0).ok_or_else(|| bad(v))?);
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(a)
}

/// Median, quartiles, count and values of one metric's samples.
fn summary(values: &[f64], unit: &str, better: &str) -> Json {
    let (q1, q3) = stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    Json::obj(vec![
        (
            "median",
            Json::Num(stats::median(values).unwrap_or(f64::NAN)),
        ),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::u64(values.len() as u64)),
        (
            "values",
            Json::from(values.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>()),
        ),
        ("unit", Json::from(unit)),
        ("better", Json::from(better)),
    ])
}

/// Request-level numbers of `serve-store`, which the study workloads
/// have no counterpart for: latency median and tail over every request
/// of the run, completed requests per second of request loop, and the
/// store's median size. The tail is named by its percentile and left
/// out below 100 requests.
fn serve_values(samples: &[Sample]) -> Vec<(String, f64, &'static str, &'static str)> {
    let latencies: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.latencies_ms.iter().copied())
        .collect();
    let ok = samples
        .iter()
        .map(|s| s.attempted - s.failures.len() as u64)
        .sum::<u64>();
    let wall: f64 = samples.iter().map(|s| s.wall_s).sum();
    let store: Vec<f64> = samples.iter().filter_map(|s| s.store_mb).collect();
    let mut out = vec![(
        "req_p50_ms".to_string(),
        stats::median(&latencies).unwrap_or(f64::NAN),
        "ms",
        "lower",
    )];
    out.extend(stats::tail(&latencies).map(|(p, v)| (format!("req_p{p}_ms"), v, "ms", "lower")));
    out.push((
        "req_throughput".to_string(),
        ok as f64 / wall,
        "req/s",
        "higher",
    ));
    out.push((
        "store_mb".to_string(),
        stats::median(&store).unwrap_or(f64::NAN),
        "MB",
        "lower",
    ));
    out
}

fn print_value(name: &str, value: f64, unit: &str) {
    println!("  {name:<30} {value:>12.4} {unit}");
}

fn value_json(value: f64, unit: &str, better: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::from(unit)),
        ("better", Json::from(better)),
    ])
}

/// The machine-readable last line: verdict counts plus each metric's value.
fn result_line(attempted: u64, failed: u64, metrics: Vec<(String, f64, &str)>) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::from(unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

fn report_failures(failures: &[String]) {
    for f in failures.iter().take(10) {
        eprintln!("repro-bench: FAILED {f}");
    }
}

/// Measures one workload end to end; returns its `--out` record and
/// whether every check passed.
fn run_one(w: Workload, a: &Args, work: &Path, golden: &Golden) -> Result<(Json, bool), String> {
    let samples = workload::measure(w, a.seed, a.seconds, a.repeat, work, golden)?;
    let attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let failures: Vec<String> = samples
        .iter()
        .flat_map(|s| s.failures.iter().cloned())
        .collect();
    let (jobs, sim_threads) = w.knobs();
    println!(
        "== {} (jobs {jobs}, sim_threads {sim_threads}; {} samples, seed {}) ==",
        w.name(),
        samples.len(),
        a.seed
    );
    let mut record = Vec::new();
    let mut line = Vec::new();
    for (name, unit, better, value) in END_TO_END {
        let values: Vec<f64> = samples.iter().map(value).collect();
        let median = stats::median(&values).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {name:<30} {median:>12.4} {unit:<6} q1 {q1:.4}  q3 {q3:.4}  n {}",
            values.len()
        );
        line.push((name.to_string(), median, unit));
        record.push((name.to_string(), summary(&values, unit, better)));
    }
    if w == Workload::ServeStore {
        for (name, value, unit, better) in serve_values(&samples) {
            print_value(&name, value, unit);
            record.push((name, value_json(value, unit, better)));
        }
    }
    println!(
        "  {:<30} {} of {attempted} operations failed",
        "error_rate",
        failures.len()
    );
    report_failures(&failures);
    println!("{}", result_line(attempted, failures.len() as u64, line));
    let doc = Json::obj(vec![
        ("workload", Json::from(w.name())),
        ("jobs", Json::u64(jobs as u64)),
        ("sim_threads", Json::u64(sim_threads as u64)),
        ("samples", Json::u64(samples.len() as u64)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failures.len() as u64)),
        ("metrics", Json::Obj(record)),
    ]);
    Ok((doc, failures.is_empty()))
}

/// Most, in percent, the traced pass may differ from the untraced
/// `wall_s` of the same work. Each round's two halves are compared, so
/// the host's drift between rounds cancels; the trace fails when every
/// round misses by more than this on the same side. A systematic miss —
/// a layer left out or timed twice, or tracing that costs too much —
/// shows in every round, while the few rounds a budgeted trace affords
/// must not fail it for one round that the host slowed down.
const RECONCILE_PCT: f64 = 10.0;

/// Whether rounds that differ by `round_pcts` percent reconcile: not
/// every one of them misses by more than [`RECONCILE_PCT`] on one side.
/// A single round cannot tell a miss from a host that slowed down
/// between its halves, so it is not judged.
fn reconciles(round_pcts: &[f64]) -> bool {
    let all = |miss: fn(f64) -> bool| round_pcts.iter().all(|p| miss(*p));
    round_pcts.len() < 2 || !(all(|p| p > RECONCILE_PCT) || all(|p| p < -RECONCILE_PCT))
}

/// Traces one workload in rounds of one untraced sample and one traced
/// run, each in fresh processes, both of round `i` sending the mix of
/// `mix::sample_seed(seed, i)`. The first round's traced run also runs
/// the other pass and the probes, so it measures every layer; later
/// rounds run only the workload's own pass, and are taken while the
/// next one still fits in `--seconds` (or exactly `--repeat` rounds).
/// Returns the `--out` record and whether every check passed, including
/// the reconciliation of traced and untraced time.
fn trace_one(w: Workload, a: &Args, work: &Path, golden: &Golden) -> Result<(Json, bool), String> {
    let start = Instant::now();
    let (mut samples, mut rounds) = (Vec::new(), Vec::new());
    // The longest own-pass round so far. The first round also runs the
    // other pass and the probes, so it counts as what an own-pass round
    // would take: its untraced sample twice.
    let mut longest = 0.0f64;
    loop {
        let t = Instant::now();
        let seed = mix::sample_seed(a.seed, rounds.len());
        let first = rounds.is_empty();
        samples.extend(workload::measure(w, seed, 0.0, Some(1), work, golden)?);
        let sample_s = t.elapsed().as_secs_f64();
        rounds.push(layers::traced_round(w, seed, work, first)?);
        longest = longest.max(if first {
            2.0 * sample_s
        } else {
            t.elapsed().as_secs_f64()
        });
        let done = match a.repeat {
            Some(n) => rounds.len() >= n,
            None => start.elapsed().as_secs_f64() + longest > a.seconds,
        };
        if done {
            break;
        }
    }
    let median = |values: Vec<f64>| stats::median(&values).expect("at least one round");
    let untraced = median(samples.iter().map(|s| s.wall_s).collect());
    let traced = median(rounds.iter().map(|r| r.own_pass_s).collect());
    let round_pcts: Vec<f64> = rounds
        .iter()
        .zip(&samples)
        .map(|(r, s)| (r.own_pass_s - s.wall_s) / s.wall_s * 100.0)
        .collect();
    let overhead_pct = median(round_pcts.clone());
    let mut failures: Vec<String> = samples
        .iter()
        .flat_map(|s| s.failures.iter().cloned())
        .collect();
    let mut attempted = samples.iter().map(|s| s.attempted).sum::<u64>() + 1;
    for r in &rounds {
        attempted += r.attempted;
        failures.extend(r.failures.iter().cloned());
    }
    if !reconciles(&round_pcts) {
        failures.push(format!(
            "traced pass differs from untraced wall_s by {overhead_pct:+.1}% (medians {traced:.3} s, {untraced:.3} s; rounds {round_pcts:+.1?}%)"
        ));
    }
    let trace_file = format!("TRACE_{}.json", w.name());
    std::fs::write(&trace_file, format!("{}\n", rounds[0].trace))
        .map_err(|e| format!("{trace_file}: {e}"))?;
    let judged = if rounds.len() < 2 { ", not judged" } else { "" };
    println!(
        "== {} traced ({} rounds; untraced wall_s {untraced:.4} s, traced {traced:.4} s, trace_overhead_pct {overhead_pct:+.2}{judged}; spans in {trace_file}) ==",
        w.name(),
        rounds.len()
    );
    let mut line = Vec::new();
    let mut record = Vec::new();
    for (name, unit, better) in layers::metric_specs() {
        let value = median(
            rounds
                .iter()
                .filter_map(|r| r.metrics.get(&name).copied())
                .collect(),
        );
        print_value(&name, value, unit);
        record.push((name.clone(), value_json(value, unit, better)));
        line.push((name, value, unit));
    }
    report_failures(&failures);
    println!("{}", result_line(attempted, failures.len() as u64, line));
    let doc = Json::obj(vec![
        ("workload", Json::from(w.name())),
        ("rounds", Json::u64(rounds.len() as u64)),
        ("untraced_wall_s", Json::Num(untraced)),
        ("trace_overhead_pct", Json::Num(overhead_pct)),
        (
            "round_overhead_pct",
            Json::from(round_pcts.into_iter().map(Json::Num).collect::<Vec<_>>()),
        ),
        ("metrics", Json::Obj(record)),
    ]);
    Ok((doc, failures.is_empty()))
}

fn bench(a: &Args) -> Result<bool, String> {
    let golden = Golden::committed()?;
    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut records = Vec::new();
    let mut ok = true;
    let mut result = Ok(());
    for &w in &a.workloads {
        match if a.trace {
            trace_one(w, a, &work, &golden)
        } else {
            run_one(w, a, &work, &golden)
        } {
            Ok((doc, passed)) => {
                records.push(doc);
                ok &= passed;
            }
            Err(e) => {
                result = Err(format!("{}: {e}", w.name()));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    result?;
    if let Some(out) = &a.out {
        let doc = Json::obj(vec![
            (
                "schema",
                Json::from(if a.trace {
                    "repro-bench.trace/v1"
                } else {
                    "repro-bench.run/v1"
                }),
            ),
            ("host_parallelism", Json::u64(workload::nproc() as u64)),
            ("seed", Json::u64(a.seed)),
            ("seconds", Json::Num(a.seconds)),
            ("workloads", Json::Arr(records)),
        ]);
        std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(ok)
}

fn bless() -> Result<(), String> {
    let golden = golden::compute(workload::nproc()).map_err(|e| e.to_string())?;
    let path = golden::path();
    std::fs::write(&path, format!("{}\n", golden.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn child(args: &[String]) -> Result<(), String> {
    let count = |i: usize| -> Result<usize, String> {
        args.get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad child arguments {args:?}"))
    };
    match args.first().map(String::as_str) {
        Some("__study") => workload::study_child(count(1)?, count(2)?),
        Some("__serve") => workload::serve_child(count(1)?, args.get(2).map(PathBuf::from)),
        Some("__trace") => {
            let w = args.get(1).and_then(|n| Workload::parse(n));
            let seed = args.get(2).and_then(|v| v.parse().ok());
            let everything = match args.get(4).map(String::as_str) {
                Some("all") => Some(true),
                Some("own") => Some(false),
                _ => None,
            };
            match (w, seed, args.get(3), everything) {
                (Some(w), Some(seed), Some(work), Some(everything)) => {
                    layers::trace_child(w, seed, Path::new(work), everything)
                }
                _ => Err(format!("bad child arguments {args:?}")),
            }
        }
        _ => Err(format!("bad child arguments {args:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(c) if c.starts_with("__") => child(&args).map(|()| true),
        Some("bless") => bless().map(|()| true),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("repro-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares what this
    /// program reports; the two must not drift apart.
    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String, String)> = layers::metric_specs()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn only_a_miss_in_every_round_fails_the_reconciliation() {
        assert!(reconciles(&[2.0, -1.0]));
        assert!(reconciles(&[14.0, -3.0, 1.0]), "one slow round");
        assert!(reconciles(&[14.0, -12.0]), "misses on both sides");
        assert!(reconciles(&[40.0]), "one round is not judged");
        assert!(!reconciles(&[11.0, 14.0]));
        assert!(!reconciles(&[12.0, 25.0, 10.5]));
        assert!(!reconciles(&[-30.0, -11.0]));
    }

    #[test]
    fn arguments_select_mode_and_workload() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>());
        let a = parse("--workload serve-store --seed 9 --seconds 5 --trace 1").expect("flag form");
        assert!(a.trace);
        assert_eq!(a.workloads, vec![Workload::ServeStore]);
        assert_eq!((a.seed, a.seconds), (9, 5.0));
        let a = parse("trace --workload study-serial").expect("subcommand form");
        assert!(a.trace);
        let a = parse("run --repeat 2").expect("all workloads");
        assert!(!a.trace);
        assert_eq!(a.workloads.len(), 4);
        assert_eq!(a.repeat, Some(2));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
    }
}
