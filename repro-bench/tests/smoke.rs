//! Smoke runs through the built binary: the same code path as a measured
//! run, one sample (or traced round) each.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use obs::Json;

/// Runs the bench in its own temporary directory, so stores and trace
/// files never land in the source tree.
fn bench(dir: &str, args: &[&str]) -> (Output, PathBuf) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).expect("temporary dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro-bench"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("bench runs");
    (out, cwd)
}

/// Every JSON result line the run printed.
fn results(out: &Output) -> Vec<Json> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line is JSON"))
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {name} in {result}"))
}

#[test]
fn every_workload_runs_a_checked_sample_within_a_minute() {
    let start = Instant::now();
    let (out, cwd) = bench("smoke-run", &["run", "--repeat", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let results = results(&out);
    assert_eq!(results.len(), 4, "one result per workload");
    for r in &results {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
        for name in ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"] {
            assert!(metric(r, name) > 0.0, "{name} in {r}");
        }
    }
    // serve-store sends every request of both phases.
    let serve = &results[3];
    assert_eq!(serve.get("attempted").and_then(Json::as_f64), Some(42.0));
    assert!(
        !cwd.join(".bench_work").exists(),
        "temporary stores are removed"
    );
    assert!(start.elapsed() < Duration::from_secs(60));
}

#[test]
fn a_traced_round_reports_every_layer_and_a_viewable_trace() {
    // One second is less than one round, so the trace stops after the
    // first: it keeps to its budget instead of a fixed round count.
    let (out, cwd) = bench(
        "smoke-trace",
        &["trace", "--workload", "study-serial", "--seconds", "1"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(1 rounds;"), "{stdout}");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = results(&out);
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert!(metric(r, "simt.replay.warp_instrs") > 0.0);
    assert!(metric(r, "tracekit.capture.mrefs") > 0.0);
    assert_eq!(metric(r, "store.quarantined"), 0.0);
    let trace = std::fs::read_to_string(cwd.join("TRACE_study-serial.json")).expect("trace file");
    let doc = Json::parse(&trace).expect("trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for layer in [
        "simt.capture",
        "tracekit.replay",
        "core.experiment.pb",
        "serve.warm",
        "store.decode",
        "serve.transport",
    ] {
        assert!(names.contains(&layer), "no {layer} span");
    }
    assert!(metric(r, "serve.healthz_p50_ms") > 0.0);
}
