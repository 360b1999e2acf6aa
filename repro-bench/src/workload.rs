//! The four workloads, and how one untraced sample of each is measured.
//!
//! Every sample runs the system in fresh processes: the bench re-executes
//! itself (`__study` / `__serve`), and the child drives the same public
//! entry points as the `repro` CLI and daemon — `request::execute` on a
//! `StudySession`, and `serve::Server::bind(..).run()`. CPU time and peak
//! RSS are read from `/proc/<pid>` of those processes, so the bench's
//! own client work is not counted.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use obs::Json;
use rodinia_study::experiments::ExperimentId;
use rodinia_study::request::{execute, Quiet, StudyRequest, StudyResponse};
use rodinia_study::serve::{ServeConfig, Server};
use rodinia_study::{Scale, StudySession};

use crate::golden::Golden;
use crate::mix::Request;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 for user space on every architecture it
/// exports these fields for.
const USER_HZ: f64 = 100.0;

/// The longest a client waits for one response before counting it
/// failed, well inside the run's time limit.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// CPUs the host gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 18 artifacts at Tiny, `jobs 1`, `sim_threads 1`, no store.
    StudySerial,
    /// The same request at `jobs = nproc`.
    StudyParallel,
    /// The same request at `jobs 1`, `sim_threads = nproc`.
    ReplaySharded,
    /// The `repro serve` daemon at `jobs = nproc` over a store, cold then
    /// warm, under the seeded request mix.
    ServeStore,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::StudySerial,
        Workload::StudyParallel,
        Workload::ReplaySharded,
        Workload::ServeStore,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudySerial => "study-serial",
            Workload::StudyParallel => "study-parallel",
            Workload::ReplaySharded => "replay-sharded",
            Workload::ServeStore => "serve-store",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(jobs, sim_threads)` of the system under this workload.
    pub fn knobs(self) -> (usize, usize) {
        match self {
            Workload::StudySerial => (1, 1),
            Workload::StudyParallel | Workload::ServeStore => (nproc(), 1),
            Workload::ReplaySharded => (1, nproc()),
        }
    }
}

/// What one sample measured.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Seconds inside `execute` (study) or in both phases' request
    /// loops (serve).
    pub wall_s: f64,
    /// User + system CPU seconds of the system process(es).
    pub cpu_s: f64,
    /// Seconds from spawning each system process to its ready report,
    /// summed.
    pub setup_s: f64,
    /// Peak RSS (`VmHWM`) in MB, the maximum over system processes.
    pub rss_mb: f64,
    /// Operations attempted: one study run, or one request each.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Client-observed latency of each request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Store bytes at the end of the sample, in MB (serve only).
    pub store_mb: Option<f64>,
}

/// A child process of this executable, killed and reaped if dropped
/// before it exits on its own. Its stdin stays open for its lifetime;
/// the child exits when it closes (see [`exit_with_parent`]).
struct Proc {
    child: Child,
    out: BufReader<ChildStdout>,
    _lifeline: ChildStdin,
}

impl Proc {
    /// Spawns `current_exe() args` and waits for its first stdout line,
    /// returning the line and the seconds from spawn to that line.
    fn spawn(args: &[String]) -> Result<(Proc, String, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let lifeline = child.stdin.take().expect("stdin is piped");
        let mut proc = Proc {
            child,
            out,
            _lifeline: lifeline,
        };
        let first = proc.line()?;
        Ok((proc, first, start.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.out.read_line(&mut line) {
            Ok(0) => Err("child exited before reporting".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("child stdout: {e}")),
        }
    }

    fn wait(&mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child exited with {status}"))
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Runs `current_exe() args` to completion and returns the one line it
/// prints.
pub fn child_report(args: &[String]) -> Result<String, String> {
    let (mut proc, line, _) = Proc::spawn(args)?;
    proc.wait()?;
    Ok(line)
}

/// `(cpu_s, peak_rss_mb)` of process `pid` (`"self"` for this one).
fn usage(pid: &str) -> Result<(f64, f64), String> {
    let read = |file: &str| {
        std::fs::read_to_string(format!("/proc/{pid}/{file}"))
            .map_err(|e| format!("/proc/{pid}/{file}: {e}"))
    };
    let stat = read("stat")?;
    // Fields after the parenthesized command name start at field 3, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    let (Some(utime), Some(stime)) = (tick(11), tick(12)) else {
        return Err(format!("/proc/{pid}/stat: unexpected format"));
    };
    let hwm_kb = read("status")?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))?;
    Ok(((utime + stime) / USER_HZ, hwm_kb / 1024.0))
}

/// Ends this child process once its parent's end of stdin closes, so a
/// bench that is killed leaves no daemon behind.
fn exit_with_parent() {
    std::thread::spawn(|| {
        let _ = std::io::stdin().read(&mut [0u8; 1]);
        std::process::exit(1);
    });
}

/// `__study <jobs> <sim_threads>`: one study sample's system process.
/// Reports `ready` once the session exists, then runs the request and
/// prints its measurements as one JSON line.
pub fn study_child(jobs: usize, sim_threads: usize) -> Result<(), String> {
    exit_with_parent();
    let golden = Golden::committed()?;
    let session = StudySession::new(jobs);
    session.set_sim_threads(sim_threads);
    announce("ready");
    let mut req = StudyRequest::tables(ExperimentId::all(), Scale::Tiny);
    req.jobs = Some(jobs);
    req.sim_threads = Some(sim_threads);
    let start = Instant::now();
    let result = execute(&session, &req, &mut Quiet);
    let wall_s = start.elapsed().as_secs_f64();
    let failures: Vec<String> = match result {
        Ok(StudyResponse::Tables { completed, .. }) => completed
            .iter()
            .filter_map(|(name, tables)| {
                let id = ExperimentId::parse(name)?;
                golden.check_tables(Scale::Tiny, id, tables).err()
            })
            .collect(),
        Ok(_) => vec!["tables request answered without tables".to_string()],
        Err(e) => vec![e.to_string()],
    };
    let (cpu_s, rss_mb) = usage("self")?;
    let doc = Json::obj(vec![
        ("wall_s", Json::Num(wall_s)),
        ("cpu_s", Json::Num(cpu_s)),
        ("rss_mb", Json::Num(rss_mb)),
        (
            "failures",
            Json::from(failures.into_iter().map(Json::from).collect::<Vec<_>>()),
        ),
    ]);
    announce(&doc.to_string());
    Ok(())
}

/// `__serve <jobs> [<store dir>]`: a study daemon. Reports
/// `listening on <addr>` once bound, then serves until `/shutdown`.
pub fn serve_child(jobs: usize, store: Option<PathBuf>) -> Result<(), String> {
    exit_with_parent();
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store,
        jobs: Some(jobs),
        sim_threads: None,
    })
    .map_err(|e| e.to_string())?;
    if let Some(w) = server.store_warning() {
        return Err(w.to_string());
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    announce(&format!("listening on {addr}"));
    server.run().map_err(|e| e.to_string())
}

fn announce(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// One HTTP/1.1 exchange with the daemon: `(status, body)`.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(io)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .map_err(io)?;
    stream.write_all(body).map_err(io)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(io)?;
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = std::str::from_utf8(&response[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    Ok((status, response[head_end + 4..].to_vec()))
}

/// A spawned daemon and its address.
pub struct Daemon {
    proc: Proc,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn to its `listening on` line.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawns a daemon at `jobs`, over `store` if given.
    pub fn spawn(jobs: usize, store: Option<&Path>) -> Result<Daemon, String> {
        let mut args = vec!["__serve".to_string(), jobs.to_string()];
        args.extend(store.map(|s| s.display().to_string()));
        let (proc, first, setup_s) = Proc::spawn(&args)?;
        let addr = first
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon said {first:?}"))?;
        Ok(Daemon {
            proc,
            addr,
            setup_s,
        })
    }

    /// `(cpu_s, peak_rss_mb)` so far.
    pub fn usage(&self) -> Result<(f64, f64), String> {
        usage(&self.proc.pid().to_string())
    }

    /// Drains the daemon and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = http(self.addr, "POST", "/shutdown", b"")?;
        if status != 200 {
            return Err(format!("/shutdown answered {status}"));
        }
        self.proc.wait()
    }
}

/// Runs `send` on every request through a closed loop of two client
/// threads (never more than the host has CPUs), each sending its next
/// request only when its previous one returned. Client `c` of `n` sends
/// requests `c`, `c + n`, `c + 2n`, ..., so which client sends what, and
/// in which order, is fixed by the mix rather than by timing: two runs of
/// one mix follow one schedule. Results come back in request order.
pub fn closed_loop<T: Send>(reqs: &[Request], send: impl Fn(&Request) -> T + Sync) -> Vec<T> {
    let clients = nproc().min(2);
    let send = &send;
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let chains: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    reqs.iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(i, req)| (i, send(req)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chains
            .into_iter()
            .flat_map(|chain| chain.join().expect("client threads do not panic"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Each request's latency in ms and verdict, sent over HTTP.
fn drive(addr: SocketAddr, reqs: &[Request], golden: &Golden) -> Vec<(f64, Result<(), String>)> {
    closed_loop(reqs, |req| {
        let start = Instant::now();
        let verdict =
            http(addr, "POST", "/study", req.body.as_bytes()).and_then(|(status, body)| {
                if status == 200 {
                    golden.check_body(&req.ask, &body)
                } else {
                    Err(format!("{} answered {status}", req.body))
                }
            });
        (start.elapsed().as_secs_f64() * 1e3, verdict)
    })
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

fn study_sample(w: Workload) -> Result<Sample, String> {
    let (jobs, sim_threads) = w.knobs();
    let (mut proc, first, setup_s) = Proc::spawn(&[
        "__study".to_string(),
        jobs.to_string(),
        sim_threads.to_string(),
    ])?;
    if first != "ready" {
        return Err(format!("study child said {first:?}"));
    }
    let report = proc.line()?;
    proc.wait()?;
    let doc = Json::parse(&report).map_err(|e| format!("study child report: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("study child report lacks {k}"))
    };
    let failures = doc
        .get("failures")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    Ok(Sample {
        wall_s: num("wall_s")?,
        cpu_s: num("cpu_s")?,
        setup_s,
        rss_mb: num("rss_mb")?,
        attempted: 1,
        failures: if failures.is_empty() {
            Vec::new()
        } else {
            vec![failures.join("; ")]
        },
        latencies_ms: Vec::new(),
        store_mb: None,
    })
}

fn serve_sample(
    phases: &[Vec<Request>; 2],
    store: &Path,
    golden: &Golden,
) -> Result<Sample, String> {
    let (jobs, _) = Workload::ServeStore.knobs();
    if store.exists() {
        std::fs::remove_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
    }
    let mut sample = Sample::default();
    for phase in phases {
        let daemon = Daemon::spawn(jobs, Some(store))?;
        sample.setup_s += daemon.setup_s;
        let start = Instant::now();
        let results = drive(daemon.addr, phase, golden);
        sample.wall_s += start.elapsed().as_secs_f64();
        let (cpu_s, rss_mb) = daemon.usage()?;
        sample.cpu_s += cpu_s;
        sample.rss_mb = sample.rss_mb.max(rss_mb);
        daemon.shutdown()?;
        for (ms, verdict) in results {
            sample.attempted += 1;
            sample.latencies_ms.push(ms);
            sample.failures.extend(verdict.err());
        }
    }
    sample.store_mb = Some(dir_bytes(store)? as f64 / 1e6);
    std::fs::remove_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
    Ok(sample)
}

/// Measures samples of `w` until `seconds` would be exceeded by one
/// more (at least one), or exactly `repeat` samples if given. Sample `i`
/// of `serve-store` sends the mix of [`crate::mix::sample_seed`]`(seed,
/// i)`. `work` is a temporary directory for stores.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    repeat: Option<usize>,
    work: &Path,
    golden: &Golden,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let t = Instant::now();
        samples.push(match w {
            Workload::ServeStore => {
                let phases = crate::mix::generate(crate::mix::sample_seed(seed, samples.len()));
                serve_sample(&phases, &work.join("store"), golden)?
            }
            _ => study_sample(w)?,
        });
        longest = longest.max(t.elapsed().as_secs_f64());
        let done = match repeat {
            Some(n) => samples.len() >= n,
            None => start.elapsed().as_secs_f64() + longest > seconds,
        };
        if done {
            return Ok(samples);
        }
    }
}
