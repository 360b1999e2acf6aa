//! The traced run: one pass over the system with bench-owned spans
//! around the calls into each layer, reduced to per-layer metrics.
//!
//! A full traced run measures every layer, at the workload's `jobs` and
//! `sim_threads`:
//!
//! 1. **Study pass** — the whole-paper request decomposed into the calls
//!    `execute` makes, in its order: CPU capture, the corpus cache sweep,
//!    GPU capture, each experiment, and the manifest render. Both trace caches capture
//!    each key once, so these steps are the work the untraced `wall_s` of
//!    a study workload times. Benchmarks generate their inputs lazily
//!    when they run, so dataset generation is inside the two captures.
//! 2. **Serve pass** — the `serve-store` request mix in process, through
//!    `StudyRequest::from_json` → `Coalescer::join` → `execute` →
//!    `body_bytes`, with two client threads, cold and then warm over one
//!    store. Each request first makes one `GET /healthz` exchange with a
//!    real daemon, standing in for the transport the daemon adds to
//!    every request (accept, read, respond). Its request loops are what
//!    `serve-store`'s `wall_s` times.
//! 3. **Probes**, outside both: every GPU capture of the study pass
//!    replayed on the 8-SM machine serially and then sharded, and every
//!    capture through the store codecs and a fresh store.
//!
//! The pass that is the workload's own runs first and is the one
//! reconciled against its untraced `wall_s`; the other pass and the
//! probes measure the layers the workload does not exercise, and a run
//! may leave them out.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use obs::Json;
use rodinia_gpu::suite::all_benchmarks;
use rodinia_study::comparison::ComparisonStudy;
use rodinia_study::experiments::{run_comparison, run_gpu, ExperimentId};
use rodinia_study::manifest::study_manifest_json;
use rodinia_study::request::{execute, Quiet, StudyRequest};
use rodinia_study::serve::Coalescer;
use rodinia_study::suite::combined_workloads;
use rodinia_study::trace_cache::{
    CaptureFingerprint, CapturedRun, CpuCaptureFingerprint, CpuTraceKey, TraceKey,
};
use rodinia_study::{Scale, StudyError, StudySession};
use simt::GpuConfig;
use store::TraceStore;
use tracekit::{CpuCapture, ProfileConfig};

use crate::golden::Golden;
use crate::mix::{Ask, Request};
use crate::spans::{chrome_trace, seconds, Tracer};
use crate::workload::{child_report, closed_loop, http, nproc, Daemon, Workload};

/// The GPU benchmarks in suite order, as `simt.replay.<ABBREV>_s` names
/// them.
pub const ABBREVS: [&str; 12] = [
    "BP", "BFS", "CFD", "HW", "HS", "KM", "LC", "LUD", "MUM", "NW", "SRAD", "SC",
];

/// Experiments timed one by one: the GPU sweeps that dominate replay
/// (fig1, fig4, fig5, pb) and table3 with its variant captures. The rest
/// take well under a millisecond at Tiny once the captures exist.
const EXPERIMENTS: [&str; 5] = ["fig1", "fig4", "fig5", "table3", "pb"];

/// The study pass's steps besides the experiments, in `execute`'s order.
const STUDY_STEPS: [&str; 4] = [
    "tracekit.capture",
    "tracekit.replay",
    "simt.capture",
    "manifest.render",
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub fn metric_specs() -> Vec<(String, &'static str, &'static str)> {
    let fixed = |n: &str, u, b| (n.to_string(), u, b);
    let mut specs = vec![
        fixed("simt.capture_s", "s", "lower"),
        fixed("simt.capture.launches", "count", "lower"),
        fixed("simt.capture.trace_mb", "MB", "lower"),
        fixed("tracekit.capture_s", "s", "lower"),
        fixed("tracekit.capture.mrefs", "Mref", "lower"),
        fixed("tracekit.replay_s", "s", "lower"),
        fixed("tracekit.replay.ns_per_ref", "ns", "lower"),
    ];
    specs.extend(
        EXPERIMENTS
            .iter()
            .map(|id| (format!("core.experiment.{id}_s"), "s", "lower")),
    );
    specs.extend([
        fixed("simt.replay_s", "s", "lower"),
        fixed("analysis_s", "s", "lower"),
        fixed("manifest.render_s", "s", "lower"),
        fixed("manifest.study_kb", "KB", "lower"),
    ]);
    specs.extend(
        ABBREVS
            .iter()
            .map(|a| (format!("simt.replay.{a}_s"), "s", "lower")),
    );
    specs.extend([
        fixed("simt.replay.ns_per_warp_instr", "ns", "lower"),
        fixed("simt.replay.warp_instrs", "count", "lower"),
        fixed("simt.replay.sim_cycles", "cycles", "lower"),
        fixed("simt.shard.replay_s", "s", "lower"),
        fixed("simt.shard.slowdown", "ratio", "lower"),
        fixed("store.encode_s", "s", "lower"),
        fixed("store.save_s", "s", "lower"),
        fixed("store.load_s", "s", "lower"),
        fixed("store.decode_s", "s", "lower"),
        fixed("store.load_throughput", "MB/s", "higher"),
        fixed("store.entries", "count", "lower"),
        fixed("store.written_mb", "MB", "lower"),
        fixed("store.quarantined", "count", "lower"),
        fixed("request.parse_s", "s", "lower"),
        fixed("request.execute.tables_s", "s", "lower"),
        fixed("request.render_s", "s", "lower"),
        fixed("serve.transport_s", "s", "lower"),
        fixed("sanitize.check_s", "s", "lower"),
        fixed("sanitize.audit_s", "s", "lower"),
        fixed("core.analyze_s", "s", "lower"),
        fixed("serve.healthz_p50_ms", "ms", "lower"),
        fixed("serve.coalesced", "count", "lower"),
        fixed("core.trace_cache.captures", "count", "lower"),
        fixed("core.trace_cache.restores", "count", "higher"),
    ]);
    specs
}

/// What a traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Every span recorded, as a Chrome trace-event document.
    pub trace: Json,
    /// Seconds of the workload's own pass, which its untraced `wall_s`
    /// times.
    pub own_pass_s: f64,
    /// Operations attempted: experiments, requests and probe checks.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

/// Captures the study pass leaves behind for the probes.
struct Captures {
    gpu: Vec<(&'static str, Arc<CapturedRun>)>,
    cpu: Vec<(String, Arc<CpuCapture>)>,
}

#[derive(Default)]
struct Tally {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn verdict(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        self.failures.extend(r.err());
    }
}

fn study_pass(
    tr: &Tracer,
    (jobs, sim_threads): (usize, usize),
    golden: &Golden,
    t: &mut Tally,
) -> Result<Captures, StudyError> {
    let session = StudySession::new(jobs);
    session.set_sim_threads(sim_threads);
    let scale = Scale::Tiny;
    let (benches, workloads) = (all_benchmarks(scale), combined_workloads(scale));
    tr.span("study", None, |root| {
        // `execute`'s own order: the corpus first, then the GPU captures
        // that fig1 would trigger, then every experiment.
        let cfg = ProfileConfig::default();
        let cpu = tr.span("tracekit.capture", Some(root), |p| {
            session.run_indexed(workloads.len(), |i| {
                let w = &workloads[i];
                tr.span(format!("tracekit.capture.{}", w.label), Some(p), |_| {
                    session
                        .cpu_cache()
                        .capture_workload(&w.label, w.workload.as_ref(), scale, &cfg)
                })
            })
        })?;
        let corpus = tr.span("tracekit.replay", Some(root), |_| {
            ComparisonStudy::run(&session, scale)
        })?;
        let base = GpuConfig::gpgpusim_default();
        let gpu = tr.span("simt.capture", Some(root), |p| {
            session.run_indexed(benches.len(), |i| {
                let b = benches[i].as_ref();
                tr.span(format!("simt.capture.{}", b.abbrev()), Some(p), |_| {
                    session
                        .cache()
                        .capture_benchmark(b, scale, &base)
                        .map(|run| (b.abbrev(), run))
                })
            })
        })?;
        let mut completed = Vec::new();
        for id in ExperimentId::all() {
            let tables = tr.span(format!("core.experiment.{}", id.name()), Some(root), |_| {
                if id.needs_corpus() {
                    run_comparison(id, &corpus)
                } else {
                    run_gpu(&session, id, scale)
                }
            })?;
            t.verdict(golden.check_tables(scale, id, &tables));
            completed.push((id.name().to_string(), tables));
        }
        let manifest = tr.span("manifest.render", Some(root), |_| {
            study_manifest_json(scale, &completed).to_string()
        });
        let spans = tr.spans();
        for step in STUDY_STEPS {
            t.set(&format!("{step}_s"), seconds(&spans, |n| n == step));
        }
        let exp = |id: &str| format!("core.experiment.{id}");
        for id in EXPERIMENTS {
            t.set(&format!("{}_s", exp(id)), seconds(&spans, |n| n == exp(id)));
        }
        let (corpus_ids, gpu_ids): (Vec<_>, Vec<_>) = ExperimentId::all()
            .into_iter()
            .partition(|id| id.needs_corpus());
        let sum_of =
            |ids: &[ExperimentId]| seconds(&spans, |n| ids.iter().any(|id| n == exp(id.name())));
        t.set("simt.replay_s", sum_of(&gpu_ids));
        t.set("analysis_s", sum_of(&corpus_ids));
        t.set("manifest.study_kb", manifest.len() as f64 / 1024.0);
        let words: usize = cpu.iter().map(|c| c.words()).sum();
        t.set(
            "simt.capture.launches",
            gpu.iter().map(|(_, r)| r.traces.len()).sum::<usize>() as f64,
        );
        t.set("tracekit.capture.mrefs", words as f64 / 1e6);
        let replays = (words * cfg.cache_sizes.len()) as f64;
        t.set(
            "tracekit.replay.ns_per_ref",
            t.metrics["tracekit.replay_s"] * 1e9 / replays,
        );
        Ok(Captures {
            gpu,
            cpu: workloads.iter().map(|w| w.label.clone()).zip(cpu).collect(),
        })
    })
}

/// The span `execute` runs in for each kind of request.
fn execute_span(ask: &Ask) -> &'static str {
    match ask {
        Ask::Tables(..) => "request.execute.tables",
        Ask::Check => "sanitize.check",
        Ask::Audit => "sanitize.audit",
        Ask::Analyze(_) => "core.analyze",
    }
}

/// Parses, coalesces, executes and renders one request the way the
/// daemon's `POST /study` handler does.
fn serve_one(
    tr: &Tracer,
    parent: u64,
    daemon: SocketAddr,
    session: &StudySession,
    coalescer: &Coalescer,
    req: &Request,
) -> Result<Vec<u8>, String> {
    tr.span("serve.transport", Some(parent), |_| healthz(daemon))?;
    let parsed = tr.span("request.parse", Some(parent), |_| {
        let doc = Json::parse(&req.body).map_err(|e| e.to_string())?;
        let parsed = StudyRequest::from_json(&doc).map_err(|e| e.to_string())?;
        parsed.validate().map_err(|e| e.to_string())?;
        Ok::<_, String>(parsed)
    })?;
    let body = coalescer.join(&parsed.study_key(), || {
        let resp = tr.span(execute_span(&req.ask), Some(parent), |_| {
            execute(session, &parsed, &mut Quiet)
        })?;
        Ok(tr.span("request.render", Some(parent), |_| resp.body_bytes()))
    });
    body.map(|b| b.to_vec()).map_err(|e| e.to_string())
}

fn serve_pass(
    tr: &Tracer,
    (jobs, sim_threads): (usize, usize),
    seed: u64,
    daemon: SocketAddr,
    store: &Path,
    golden: &Golden,
    t: &mut Tally,
) -> Result<(), String> {
    if store.exists() {
        std::fs::remove_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
    }
    let phases = crate::mix::generate(seed);
    let (mut captures, mut restores, mut coalesced) = (0, 0, 0);
    tr.span("serve", None, |root| {
        for (i, reqs) in phases.iter().enumerate() {
            let mut session = StudySession::new(jobs);
            session.attach_store(Arc::new(
                TraceStore::open(store).map_err(|e| e.to_string())?,
            ));
            session.set_sim_threads(sim_threads);
            let coalescer = Coalescer::new();
            let name = if i == 0 { "serve.cold" } else { "serve.warm" };
            let verdicts = tr.span(name, Some(root), |phase| {
                closed_loop(reqs, |req| {
                    tr.span("request", Some(phase), |rq| {
                        serve_one(tr, rq, daemon, &session, &coalescer, req)
                            .and_then(|body| golden.check_body(&req.ask, &body))
                    })
                })
            });
            for v in verdicts {
                t.verdict(v);
            }
            let (gpu, cpu) = (session.cache(), session.cpu_cache());
            if i == 0 {
                captures = gpu.captures() + cpu.captures();
            } else {
                restores = gpu.restores() + cpu.restores();
            }
            coalesced += coalescer.coalesced();
        }
        Ok::<_, String>(())
    })?;
    let spans = tr.spans();
    for (metric, span) in [
        ("request.parse_s", "request.parse"),
        ("request.execute.tables_s", "request.execute.tables"),
        ("request.render_s", "request.render"),
        ("serve.transport_s", "serve.transport"),
        ("sanitize.check_s", "sanitize.check"),
        ("sanitize.audit_s", "sanitize.audit"),
        ("core.analyze_s", "core.analyze"),
    ] {
        t.set(metric, seconds(&spans, |n| n == span));
    }
    let transport_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.transport")
        .map(|s| s.dur_us / 1e3)
        .collect();
    t.set(
        "serve.healthz_p50_ms",
        crate::stats::median(&transport_ms).ok_or("no request reached the daemon")?,
    );
    t.set("core.trace_cache.captures", captures as f64);
    t.set("core.trace_cache.restores", restores as f64);
    t.set("serve.coalesced", coalesced as f64);
    std::fs::remove_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))
}

/// Replays every GPU capture on the 8-SM machine, serially and then
/// sharded across `nproc` workers, and checks the two agree.
fn replay_probes(tr: &Tracer, caps: &Captures, t: &mut Tally) -> Result<(), StudyError> {
    let eight = GpuConfig::gpgpusim_8sm();
    let mut serial = Vec::new();
    simt::set_sim_threads(1);
    tr.span("probe.replay", None, |p| {
        for (abbrev, run) in &caps.gpu {
            serial.push(tr.span(format!("simt.replay.{abbrev}"), Some(p), |_| {
                run.replay(&eight)
            })?);
        }
        Ok::<_, StudyError>(())
    })?;
    simt::set_sim_threads(nproc());
    tr.span("probe.shard", None, |p| {
        for ((abbrev, run), want) in caps.gpu.iter().zip(&serial) {
            let got = tr.span(format!("simt.shard.{abbrev}"), Some(p), |_| {
                run.replay(&eight)
            })?;
            t.verdict(if format!("{got:?}") == format!("{want:?}") {
                Ok(())
            } else {
                Err(format!("{abbrev}: sharded replay differs from serial"))
            });
        }
        Ok::<_, StudyError>(())
    })?;
    let spans = tr.spans();
    for abbrev in ABBREVS {
        let name = format!("simt.replay.{abbrev}");
        t.set(&format!("{name}_s"), seconds(&spans, |n| n == name));
    }
    let serial_s = seconds(&spans, |n| n.starts_with("simt.replay."));
    let warp_instrs: u64 = serial.iter().map(|s| s.warp_instructions).sum();
    t.set(
        "simt.replay.ns_per_warp_instr",
        serial_s * 1e9 / warp_instrs as f64,
    );
    t.set("simt.replay.warp_instrs", warp_instrs as f64);
    t.set(
        "simt.replay.sim_cycles",
        serial.iter().map(|s| s.cycles).sum::<u64>() as f64,
    );
    let shard_s = seconds(&spans, |n| n.starts_with("simt.shard."));
    t.set("simt.shard.replay_s", shard_s);
    t.set("simt.shard.slowdown", shard_s / serial_s);
    Ok(())
}

/// Every capture through its codec and a fresh store and back; each
/// decoded capture must re-encode to the bytes that were saved.
fn store_probe(tr: &Tracer, caps: &Captures, dir: &Path, t: &mut Tally) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let store = TraceStore::open(dir).map_err(|e| e.to_string())?;
    let cfg = ProfileConfig::default();
    let (mut gpu_bytes, mut loaded_bytes) = (0usize, 0usize);
    tr.span("probe.store", None, |p| {
        let mut entries = Vec::new();
        for (abbrev, run) in &caps.gpu {
            let payload = tr.span("store.encode", Some(p), |_| {
                simt::encode_capture_payload(&run.traces, run.h2d_bytes, run.d2h_bytes)
            });
            gpu_bytes += payload.len();
            let key = TraceKey {
                benchmark: abbrev.to_string(),
                scale: Scale::Tiny,
                variant: "",
                fingerprint: CaptureFingerprint::of(&run.capture_cfg),
            };
            entries.push((key.store_key(), payload, true));
        }
        for (label, cap) in &caps.cpu {
            let payload = tr.span("store.encode", Some(p), |_| tracekit::encode_capture(cap));
            let key = CpuTraceKey {
                workload: label.clone(),
                scale: Scale::Tiny,
                fingerprint: CpuCaptureFingerprint::of(&cfg),
            };
            entries.push((key.store_key(), payload, false));
        }
        for (key, payload, gpu) in entries {
            tr.span("store.save", Some(p), |_| store.save(&key, &payload))
                .map_err(|e| e.to_string())?;
            let loaded = tr
                .span("store.load", Some(p), |_| store.load(&key))
                .ok_or(format!("{key}: not loaded back"))?;
            loaded_bytes += loaded.len();
            let decode = |_| -> Result<Vec<u8>, String> {
                if gpu {
                    let (traces, h2d, d2h) =
                        simt::decode_capture_payload(&loaded).map_err(|e| e.to_string())?;
                    Ok(simt::encode_capture_payload(&traces, h2d, d2h))
                } else {
                    let cap = tracekit::decode_capture(&loaded).map_err(|e| e.to_string())?;
                    Ok(tracekit::encode_capture(&cap))
                }
            };
            let again = tr.span("store.decode", Some(p), decode)?;
            t.verdict(if again == payload {
                Ok(())
            } else {
                Err(format!("{key}: codec round trip differs"))
            });
        }
        Ok::<_, String>(())
    })?;
    let spans = tr.spans();
    for step in ["encode", "save", "load", "decode"] {
        t.set(
            &format!("store.{step}_s"),
            seconds(&spans, |n| n == format!("store.{step}")),
        );
    }
    t.set("simt.capture.trace_mb", gpu_bytes as f64 / 1e6);
    t.set(
        "store.load_throughput",
        loaded_bytes as f64 / 1e6 / t.metrics["store.load_s"],
    );
    t.set("store.entries", store.entry_count() as f64);
    t.set("store.written_mb", store.total_bytes() as f64 / 1e6);
    t.set("store.quarantined", store.quarantined_count() as f64);
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// One `GET /healthz` exchange with `daemon`.
fn healthz(daemon: SocketAddr) -> Result<(), String> {
    match http(daemon, "GET", "/healthz", b"")? {
        (200, _) => Ok(()),
        (status, _) => Err(format!("/healthz answered {status}")),
    }
}

/// One traced run of `w`: its own pass, and with `everything` the other
/// pass and the probes too. `work` is a temporary directory for stores.
fn run(
    w: Workload,
    seed: u64,
    work: &Path,
    golden: &Golden,
    everything: bool,
) -> Result<Traced, String> {
    let tr = Tracer::default();
    let mut t = Tally::default();
    let knobs = w.knobs();
    let store = work.join("trace-store");
    let serve = |t: &mut Tally| {
        let daemon = Daemon::spawn(1, None)?;
        serve_pass(&tr, knobs, seed, daemon.addr, &store, golden, t)?;
        daemon.shutdown()
    };
    let study = |t: &mut Tally| study_pass(&tr, knobs, golden, t).map_err(|e| e.to_string());
    // The workload's own pass goes first, so it meets a process as fresh
    // as the untraced sample it is reconciled with.
    let own_pass_s = if w == Workload::ServeStore {
        serve(&mut t)?;
        let own = seconds(&tr.spans(), |n| n == "serve.cold" || n == "serve.warm");
        if everything {
            probes(&tr, &study(&mut t)?, work, &mut t)?;
        }
        own
    } else {
        let caps = study(&mut t)?;
        let own = seconds(&tr.spans(), |n| {
            STUDY_STEPS.contains(&n) || n.starts_with("core.experiment.")
        });
        if everything {
            serve(&mut t)?;
            probes(&tr, &caps, work, &mut t)?;
        }
        own
    };
    if everything {
        let missing: Vec<String> = metric_specs()
            .into_iter()
            .map(|s| s.0)
            .filter(|n| !t.metrics.contains_key(n))
            .collect();
        if !missing.is_empty() {
            return Err(format!("traced run produced no value for {missing:?}"));
        }
    }
    Ok(Traced {
        metrics: t.metrics,
        trace: chrome_trace(&tr.spans()),
        own_pass_s,
        attempted: t.attempted,
        failures: t.failures,
    })
}

fn probes(tr: &Tracer, caps: &Captures, work: &Path, t: &mut Tally) -> Result<(), String> {
    replay_probes(tr, caps, t).map_err(|e| e.to_string())?;
    store_probe(tr, caps, &work.join("probe-store"), t)
}

impl Traced {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("own_pass_s", Json::Num(self.own_pass_s)),
            ("attempted", Json::u64(self.attempted)),
            (
                "failures",
                Json::from(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("trace", self.trace.clone()),
        ])
    }

    fn from_json(doc: &Json) -> Option<Traced> {
        let metrics = doc
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        let failures = doc
            .get("failures")?
            .as_arr()?
            .iter()
            .map(|f| f.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        Some(Traced {
            metrics,
            trace: doc.get("trace")?.clone(),
            own_pass_s: doc.get("own_pass_s")?.as_f64()?,
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failures,
        })
    }
}

/// `__trace <workload> <seed> <work dir> <own|all>`: one traced run in
/// a fresh process, like the untraced sample it is paired with, reported
/// as one JSON line.
pub fn trace_child(w: Workload, seed: u64, work: &Path, everything: bool) -> Result<(), String> {
    let traced = run(w, seed, work, &Golden::committed()?, everything)?;
    println!("{}", traced.to_json());
    Ok(())
}

/// One traced run of `w` in a child process: its own pass, and with
/// `everything` the other pass and the probes.
pub fn traced_round(
    w: Workload,
    seed: u64,
    work: &Path,
    everything: bool,
) -> Result<Traced, String> {
    let args = [
        "__trace".to_string(),
        w.name().to_string(),
        seed.to_string(),
        work.display().to_string(),
        (if everything { "all" } else { "own" }).to_string(),
    ];
    let report = child_report(&args)?;
    Json::parse(&report)
        .ok()
        .as_ref()
        .and_then(Traced::from_json)
        .ok_or_else(|| format!("unreadable trace report {:.80}", report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbrevs_follow_the_suite_order() {
        let suite: Vec<&str> = all_benchmarks(Scale::Tiny)
            .iter()
            .map(|b| b.abbrev())
            .collect();
        assert_eq!(suite, ABBREVS);
    }

    #[test]
    fn reported_experiments_are_registry_names() {
        for id in EXPERIMENTS {
            assert!(ExperimentId::parse(id).is_some(), "{id}");
        }
    }
}
