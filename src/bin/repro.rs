//! `repro` — regenerate any table or figure of the paper from the
//! command line, or serve studies as a daemon.
//!
//! ```text
//! repro list
//! repro all   [tiny|small|paper] [--csv] [--jobs N]
//! repro fig1  [tiny|small|paper] [--csv]
//! repro fig6 fig10 small
//! repro all tiny --jobs 4 --json out/ --telemetry out/telemetry.jsonl
//! repro serve 127.0.0.1:7878 --store /var/rodinia-store
//! ```
//!
//! Every subcommand lowers into one typed
//! [`StudyRequest`] and runs through
//! [`rodinia_repro::rodinia_study::request::execute`] — the same
//! pipeline behind the `repro serve` daemon, so a served response body
//! is byte-identical to the `STUDY_manifest.json` this CLI writes for
//! the same request.
//!
//! GPU-side artifacts run on a shared [`StudySession`]: each
//! benchmark's warp trace is captured once into the session's trace
//! cache and replayed under every requested machine configuration, with
//! replay jobs fanned across `--jobs N` workers (default: available
//! parallelism). Results are reassembled in submission order, so every
//! table is byte-identical for any worker count. `--sim-threads N`
//! additionally spreads the distinct kernel launches *inside* each
//! replay across N workers (default 1; 0 = one per CPU; capped at the
//! launch and CPU counts) — also byte-identical at any N; see
//! `ARCHITECTURE.md` for when to reach for which. The comparison-corpus figures (fig6–fig12)
//! share one profiling pass per invocation.
//!
//! Observability:
//!
//! * `--json <dir>` writes a run manifest (`BENCH_manifest.json`) with
//!   every table, every kernel's stats and stall breakdown, and span
//!   timings — see `rodinia_study::manifest`.
//! * `--telemetry <file.jsonl>` streams every span and record event to
//!   a JSON-lines file (counters land in the manifest, not the stream).
//! * `RODINIA_OBS=1|2` prints closed spans (and at 2, span starts and
//!   records) to stderr.
//!
//! Durability:
//!
//! * `--store <dir>` opens a crash-safe persistent trace store:
//!   captures are verified on load, reused across processes, and
//!   recaptured (after quarantine) when damaged. An unwritable store
//!   downgrades to in-memory caching with one warning — it never
//!   changes results or the exit code.
//! * `--resume` (requires `--store`) replays the study journal: a run
//!   killed mid-sweep restarts from its last durable checkpoint and
//!   produces a byte-identical `STUDY_manifest.json`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::manifest::ManifestBuilder;
use rodinia_repro::rodinia_study::report::Table;
use rodinia_repro::rodinia_study::request::{
    execute, parse_scale, RequestError, RequestObserver, StudyCommand, StudyRequest, StudyResponse,
    EXIT_MISUSE,
};
use rodinia_repro::rodinia_study::serve::{ServeConfig, Server};
use rodinia_repro::store::TraceStore;

fn emit(tables: &[Table], csv: bool) {
    for t in tables {
        if csv {
            println!("# {}", t.title);
            print!("{}", t.to_csv());
        } else {
            println!("{t}");
        }
    }
}

fn usage() {
    println!("artifacts:");
    for id in ExperimentId::all() {
        println!("  {}", id.name());
    }
    println!("usage: repro <artifact|all> [tiny|small|paper] [--csv] [--jobs N]");
    println!("             [--sim-threads N] [--json <dir>] [--telemetry <file.jsonl>]");
    println!("             [--store <dir>] [--resume]");
    println!("       repro check [tiny|small|paper] [--json <dir>] [--jobs N]");
    println!("       repro audit [tiny|small|paper] [--json <dir>] [--jobs N]");
    println!("       repro analyze [tiny|small|paper] [--json <dir>] [--jobs N]");
    println!("                     [--top-k N]");
    println!("       repro serve <addr> [--store <dir>] [--jobs N] [--sim-threads N]");
    println!("flags: --jobs N  worker threads for GPU-side replay jobs");
    println!("                 (default: available parallelism; output is");
    println!("                 byte-identical for any N)");
    println!("       --sim-threads N  worker threads *inside* each replay: its");
    println!("                 distinct kernel launches run on up to N workers");
    println!("                 (default 1; 0 = one per CPU; output is");
    println!("                 byte-identical for any N)");
    println!("       --store <dir>  persistent trace store: captures persist and");
    println!("                 are verified + reused across runs; writes a");
    println!("                 deterministic STUDY_manifest.json into <dir>");
    println!("       --resume  (with --store) restart a killed run from its");
    println!("                 last durable checkpoint; the final tables are");
    println!("                 byte-identical to an uninterrupted run");
    println!("check: runs the sanitizer over the whole suite (races, barrier");
    println!("       divergence, OOB, read-before-write, access-shape lints);");
    println!("       exits nonzero on any error-severity finding; --json writes");
    println!("       check_report.json");
    println!("audit: fits symbolic access contracts from tiny-grid evidence and");
    println!("       proves race-freedom and bounds for all grid shapes; at");
    println!("       small/paper also cross-validates pattern-class stability;");
    println!("       exits nonzero on any error-severity finding; --json writes");
    println!("       a deterministic AUDIT_manifest.json");
    println!("analyze: critical-path attribution across the suite — per");
    println!("       benchmark the dominant stall chain and what removing it");
    println!("       would buy, plus a suite-wide bottleneck ranking; --json");
    println!("       writes a deterministic CRITPATH_manifest.json; --top-k N");
    println!("       bounds the per-benchmark chain depth (default 3)");
    println!("serve: study daemon on <addr> — POST /study with a JSON request");
    println!("       (see README) answers with the same bytes the CLI writes");
    println!("       as STUDY_manifest.json; GET /healthz, GET /stats,");
    println!("       POST /shutdown for graceful drain");
    println!("env:   RODINIA_OBS=1|2 prints telemetry events to stderr");
}

/// Flushes telemetry sinks; a latched write failure turns into the given
/// exit code so `--telemetry` never silently ships a truncated file.
fn flush_or_exit(code: i32) {
    if let Err(e) = obs::flush_sinks() {
        eprintln!("{e}");
        std::process::exit(code);
    }
}

/// Prints a `check`/`audit`/`analyze` verdict (tables were printed as
/// they completed) and, with `--json`, writes its report and the run
/// manifest with the verdict's section; returns the exit code.
fn present(
    response: &StudyResponse,
    json_dir: Option<&Path>,
    mut manifest: Option<ManifestBuilder>,
) -> i32 {
    if let StudyResponse::Verdict(v) = response {
        match v.summary_table() {
            Ok(t) => println!("{t}"),
            Err(e) => {
                eprintln!("{}: {e}", v.section());
                return 1;
            }
        }
        for line in v.console_lines() {
            println!("{line}");
        }
        if let Some(dir) = json_dir {
            match v.write(dir) {
                Ok(path) => eprintln!("wrote report {}", path.display()),
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
        if let Some(m) = manifest.as_mut() {
            m.push_section(v.section(), v.manifest_section());
        }
    }
    if let (Some(m), Some(dir)) = (manifest, json_dir) {
        match m.write(dir) {
            Ok(path) => eprintln!("wrote manifest {}", path.display()),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    response.exit_code()
}

/// The CLI's progress hooks into the shared execution pipeline:
/// warnings to stderr, each finished experiment rendered to stdout and
/// accumulated into the `--json` run manifest.
struct CliObserver<'a> {
    csv: bool,
    manifest: &'a mut Option<ManifestBuilder>,
}

impl RequestObserver for CliObserver<'_> {
    fn note(&mut self, line: &str) {
        eprintln!("{line}");
    }

    fn experiment_done(&mut self, id: &str, tables: &[Table], wall_us: u64, _restored: bool) {
        if let Some(m) = self.manifest.as_mut() {
            m.push_experiment(id, tables, wall_us);
        }
        emit(tables, self.csv);
    }
}

/// Reports request misuse and exits with [`EXIT_MISUSE`].
fn misuse(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(EXIT_MISUSE);
}

/// Steps `i` past the flag at `args[i]` and parses its value; a missing
/// or unparsable value is misuse (`<flag> requires <what> argument`).
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i).and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => misuse(format!("{flag} requires {what} argument")),
    }
}

/// `repro serve <addr> [--store <dir>] [--jobs N] [--sim-threads N]`:
/// run the daemon until a `POST /shutdown` drains it.
fn serve_main(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut store: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut sim_threads: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => store = Some(flag_value(args, &mut i, "a directory")),
            "--jobs" => jobs = Some(flag_value(args, &mut i, "a positive integer")),
            "--sim-threads" => {
                sim_threads = Some(flag_value(args, &mut i, "a non-negative integer"));
            }
            other if addr.is_none() && !other.starts_with('-') => {
                addr = Some(other.to_string());
            }
            other => misuse(format!("serve: unexpected argument {other:?}")),
        }
        i += 1;
    }
    let Some(addr) = addr else {
        misuse("usage: repro serve <addr> [--store <dir>] [--jobs N] [--sim-threads N]");
    };
    let server = match Server::bind(&ServeConfig {
        addr,
        store,
        jobs,
        sim_threads,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return 1;
        }
    };
    if let Some(w) = server.store_warning() {
        eprintln!("{w}");
    }
    match server.local_addr() {
        Ok(a) => {
            // Scripted clients (and the serve-smoke CI job) parse this
            // line to learn the picked port, so it must hit the pipe
            // before the accept loop starts.
            println!("repro serve: listening on {a}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("serve: {e}");
            return 1;
        }
    }
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

fn main() {
    obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(serve_main(&args[1..]));
    }
    let mut csv = false;
    let mut scale = Scale::Small;
    let mut ids: Vec<ExperimentId> = Vec::new();
    let mut listed = false;
    let mut verb: Option<&str> = None;
    let mut top_k: Option<usize> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut sim_threads: Option<usize> = None;
    let mut store_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv = true,
            "--resume" => resume = true,
            "--store" => store_dir = Some(flag_value(&args, &mut i, "a directory")),
            "--jobs" => jobs = Some(flag_value(&args, &mut i, "a positive integer")),
            "--sim-threads" => {
                sim_threads = Some(flag_value(&args, &mut i, "a non-negative integer"));
            }
            "--json" => json_dir = Some(flag_value(&args, &mut i, "a path")),
            "--telemetry" => telemetry = Some(flag_value(&args, &mut i, "a path")),
            "--top-k" => top_k = Some(flag_value(&args, &mut i, "a positive integer")),
            "all" => ids = ExperimentId::all(),
            "list" => listed = true,
            word @ ("check" | "audit" | "analyze") => {
                if verb.replace(word).is_some() {
                    misuse(RequestError::RepeatedCommand);
                }
            }
            other => match parse_scale(other) {
                Some(s) => scale = s,
                None => match ExperimentId::parse(other) {
                    Some(id) => ids.push(id),
                    None => misuse(format!("unknown artifact {other:?}; try `repro list`")),
                },
            },
        }
        i += 1;
    }
    if listed || (ids.is_empty() && verb.is_none()) {
        usage();
        // `repro` / `repro list` asked for the usage text; anything else
        // reaching this point produced no artifact, which is a misuse.
        if !listed && !args.is_empty() {
            std::process::exit(EXIT_MISUSE);
        }
        return;
    }
    let command = StudyCommand::from_parts(verb, (!ids.is_empty()).then_some(ids), top_k)
        .unwrap_or_else(|e| misuse(e));
    let request = StudyRequest {
        command,
        scale,
        jobs,
        sim_threads,
        store: store_dir.clone(),
        resume,
    };
    if let Err(e) = request.validate() {
        misuse(e);
    }

    if let Some(path) = &telemetry {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
        match obs::JsonlSink::create(path) {
            Ok(sink) => obs::add_sink(Box::new(sink)),
            Err(e) => {
                eprintln!("cannot open telemetry file {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    let mut session = match jobs {
        Some(n) => StudySession::new(n),
        None => StudySession::default(),
    };
    let mut manifest = json_dir
        .as_ref()
        .map(|_| ManifestBuilder::new(scale, Arc::clone(session.records())));
    // An unusable store (read-only dir, blocked journals/, ENOSPC, a
    // file in the way) costs one warning and the durability layer —
    // never the run.
    let store = store_dir
        .as_ref()
        .and_then(|dir| match TraceStore::open(dir) {
            Ok(s) => Some(Arc::new(s)),
            Err(e) => {
                eprintln!("store: {e}; continuing with in-memory caching only");
                None
            }
        });
    if let Some(s) = &store {
        session.attach_store(Arc::clone(s));
    }
    let mut observer = CliObserver {
        csv,
        manifest: &mut manifest,
    };
    let response = match execute(&session, &request, &mut observer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: {e}");
            let _ = obs::flush_sinks();
            std::process::exit(1);
        }
    };
    let code = present(&response, json_dir.as_deref(), manifest);
    flush_or_exit(1);
    std::process::exit(code);
}
