//! `repro serve`: a zero-dependency study daemon over the typed
//! request API.
//!
//! The server is a hand-rolled HTTP/1.1 endpoint on
//! [`std::net::TcpListener`] — no external crates, JSON via
//! [`obs::Json`] — that answers study requests from one persistent
//! [`StudySession`]. Because both it and the CLI lower into
//! [`crate::request`], a `POST /study` response body is byte-identical
//! to the `STUDY_manifest.json` the CLI writes for the same request.
//!
//! Routes:
//!
//! * `GET /healthz` — liveness: `{"ok":true}`.
//! * `GET /stats` — session counters: requests, in-flight, coalesced,
//!   instance capture/restore counts, instance experiment-memo counts
//!   (`experiments_computed`, `experiments_reused`, `corpora_built`),
//!   global store counters.
//! * `POST /study` — a [`StudyRequest`] JSON body (grammar in
//!   [`crate::request`]); 200 with the study document, 400 on grammar
//!   or validation errors, 500 on driver errors.
//! * `POST /shutdown` — graceful drain: stop accepting, finish
//!   in-flight requests, then return from [`Server::run`]. (The
//!   workspace forbids `unsafe`, so there is no signal handler; a
//!   SIGKILLed daemon recovers through the store and journals like a
//!   killed CLI run.)
//!
//! Identical in-flight requests coalesce: the [`Coalescer`] keys on
//! [`StudyRequest::study_key`] (worker width excluded — it never
//! changes bytes), so N concurrent identical requests execute once and
//! share the response body. Below that, the session caches make every
//! layer exactly-once for the daemon's lifetime: each trace is
//! captured once, each comparison corpus is profiled once per scale,
//! and each `(artifact, scale)` table set is computed once — so
//! *overlapping* requests (`[fig4]`, then `[fig4, fig6]`) share the
//! finished artifacts too, not just the traces.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use obs::Json;
use store::TraceStore;

use crate::engine::StudySession;
use crate::error::StudyError;
use crate::manifest::store_counters_json;
use crate::request::{execute, Quiet, StudyRequest};

/// Largest accepted `POST /study` body, in bytes. Real requests are a
/// few hundred bytes; the cap bounds memory per connection.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Largest accepted request header block, in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// One in-flight study's result slot: followers block on the condvar
/// until the leader publishes.
#[derive(Debug, Default)]
struct CoalesceCell {
    result: Mutex<Option<Result<Arc<Vec<u8>>, StudyError>>>,
    ready: Condvar,
}

/// Request-level deduplication of identical in-flight studies.
///
/// The caller that creates a key's slot is its leader and runs
/// `produce`; callers arriving while the leader is still running
/// block on the slot and share its result (counted as coalesced —
/// a follower counts itself *before* blocking, so tests can observe
/// the join deterministically). When the leader finishes it retires
/// the slot, so a *later* identical request executes again —
/// deliberately: by then the session caches are warm and the
/// re-execution is a pure cache/store hit, which keeps the daemon's
/// answers fresh with respect to store state without ever duplicating
/// capture work.
#[derive(Debug, Default)]
pub struct Coalescer {
    map: Mutex<HashMap<String, Arc<CoalesceCell>>>,
    coalesced: AtomicU64,
}

impl Coalescer {
    /// Creates an empty coalescer.
    pub fn new() -> Coalescer {
        Coalescer::default()
    }

    /// How many requests joined an in-flight leader instead of
    /// executing.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::SeqCst)
    }

    /// Number of distinct study keys currently executing.
    pub fn in_flight(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Runs `produce` for `key`, or joins an identical in-flight run.
    ///
    /// # Errors
    ///
    /// The leader's [`StudyError`], shared by every joined caller. If
    /// the leader's `produce` panics, the panic continues in the leader
    /// and every joined caller gets a [`StudyError::Registry`].
    pub fn join(
        &self,
        key: &str,
        produce: impl FnOnce() -> Result<Vec<u8>, StudyError>,
    ) -> Result<Arc<Vec<u8>>, StudyError> {
        let (cell, leader) = {
            let mut map = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match map.get(key) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell = Arc::new(CoalesceCell::default());
                    map.insert(key.to_string(), Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if leader {
            let mut publish = Publish {
                coalescer: self,
                key,
                cell: &cell,
                result: None,
            };
            let result = produce().map(Arc::new);
            publish.result = Some(result.clone());
            result
        } else {
            self.coalesced.fetch_add(1, Ordering::SeqCst);
            let mut slot = cell
                .result
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while slot.is_none() {
                slot = cell
                    .ready
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            slot.clone()
                .expect("loop exits only once the leader published")
        }
    }
}

/// The leader's obligation to its key: publish a result to the
/// followers and retire the slot, also when `produce` panics — the
/// followers then get an error instead of blocking forever, and the
/// next identical request runs afresh.
struct Publish<'a> {
    coalescer: &'a Coalescer,
    key: &'a str,
    cell: &'a CoalesceCell,
    /// The leader's result; `None` while `produce` runs.
    result: Option<Result<Arc<Vec<u8>>, StudyError>>,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let result = self.result.take().unwrap_or_else(|| {
            Err(StudyError::Registry {
                id: self.key.to_string(),
                reason: "panicked while executing; the request produced no result",
            })
        });
        *self
            .cell
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
        self.cell.ready.notify_all();
        self.coalescer
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(self.key);
    }
}

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Persistent trace store directory, if any. An unusable store
    /// downgrades to in-memory caching with one warning, exactly like
    /// the CLI's `--store`.
    pub store: Option<PathBuf>,
    /// Worker-pool width (`None` = available parallelism). Requests
    /// may override per-call via their `jobs` field.
    pub jobs: Option<usize>,
    /// Intra-replay worker count, spent on a run's distinct launches
    /// (`None` = leave the process default of 1; `Some(0)` = auto).
    /// Requests may override per-call via their `sim_threads` field;
    /// like `jobs` it never changes response bytes.
    pub sim_threads: Option<usize>,
}

#[derive(Debug)]
struct ServerState {
    session: StudySession,
    coalescer: Coalescer,
    requests: AtomicU64,
    /// Connections accepted and not yet finished.
    inflight: Mutex<u64>,
    /// Signalled whenever `inflight` drops to zero.
    idle: Condvar,
    draining: AtomicBool,
    /// Where `/shutdown` connects to wake the blocked accept loop.
    wake_addr: SocketAddr,
}

impl ServerState {
    fn inflight(&self) -> std::sync::MutexGuard<'_, u64> {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The study daemon: one listener, one shared [`StudySession`],
/// thread-per-connection handlers.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    store_warning: Option<String>,
}

impl Server {
    /// Binds the listener and builds the session (opening and
    /// attaching the store if one is configured and usable).
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] if the address cannot be bound. An unusable
    /// store is *not* an error — it is reported via
    /// [`Server::store_warning`] and the daemon runs with in-memory
    /// caching only.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, StudyError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| StudyError::Io {
            path: cfg.addr.clone(),
            reason: e.to_string(),
        })?;
        let mut session = match cfg.jobs {
            Some(n) => StudySession::new(n),
            None => StudySession::default(),
        };
        if let Some(n) = cfg.sim_threads {
            session.set_sim_threads(n);
        }
        let mut store_warning = None;
        if let Some(dir) = &cfg.store {
            match TraceStore::open(dir) {
                Ok(s) => session.attach_store(Arc::new(s)),
                Err(e) => {
                    store_warning = Some(format!(
                        "store: {e}; continuing with in-memory caching only"
                    ));
                }
            }
        }
        let mut wake_addr = listener.local_addr().map_err(|e| StudyError::Io {
            path: cfg.addr.clone(),
            reason: e.to_string(),
        })?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                session,
                coalescer: Coalescer::new(),
                requests: AtomicU64::new(0),
                inflight: Mutex::new(0),
                idle: Condvar::new(),
                draining: AtomicBool::new(false),
                wake_addr,
            }),
            store_warning,
        })
    }

    /// The store-downgrade warning from [`Server::bind`], if any.
    pub fn store_warning(&self) -> Option<&str> {
        self.store_warning.as_deref()
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's own error, which on a live listener
    /// does not happen in practice.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The daemon's session (exposed for tests asserting capture and
    /// restore counters across requests).
    pub fn session(&self) -> &StudySession {
        &self.state.session
    }

    /// The daemon's request coalescer (exposed for tests).
    pub fn coalescer(&self) -> &Coalescer {
        &self.state.coalescer
    }

    /// Serves until a `POST /shutdown` drains the daemon: after the
    /// drain flag is set, no new connection is accepted and the loop
    /// returns once every in-flight handler finished.
    ///
    /// The accept blocks; `/shutdown` wakes it with one loopback
    /// connection, and the drain then waits on a condvar, so neither
    /// a request nor the shutdown ever waits on a polling interval.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] on a non-transient accept failure. Per
    /// connection I/O errors only terminate that connection.
    pub fn run(&self) -> Result<(), StudyError> {
        loop {
            match self.listener.accept() {
                // Whatever connection arrives once draining — the
                // wake-up or a late client — is closed unanswered.
                Ok(_) if self.state.draining.load(Ordering::SeqCst) => break,
                Ok((stream, _)) => {
                    let state = Arc::clone(&self.state);
                    // Counted before the handler thread exists, so a
                    // drain can never observe zero while a connection
                    // is still waiting to start.
                    *state.inflight() += 1;
                    std::thread::spawn(move || {
                        let done = Finished(&state);
                        let _ = handle_connection(done.0, stream);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(StudyError::Io {
                        path: "accept".to_string(),
                        reason: e.to_string(),
                    })
                }
            }
        }
        let mut inflight = self.state.inflight();
        while *inflight > 0 {
            inflight = self
                .state
                .idle
                .wait(inflight)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        Ok(())
    }
}

/// Counts a connection's handler out of `inflight` when it ends,
/// returning or panicking, so a drain never waits on a dead handler.
struct Finished<'a>(&'a ServerState);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        let mut inflight = self.0.inflight();
        *inflight -= 1;
        if *inflight == 0 {
            self.0.idle.notify_all();
        }
    }
}

struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Reads one request: the header block up to `\r\n\r\n`, then a body of
/// `Content-Length` bytes. Every malformed, oversized or cut-off request
/// is an `Err` naming the problem.
fn read_http_request(stream: &mut impl Read) -> Result<HttpRequest, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err("request header too large".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-header".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let header = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| "request header is not UTF-8".to_string())?;
    let mut lines = header.split("\r\n");
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("").to_string();
    let path = request_line.next().unwrap_or("").to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "malformed Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("request body too large".to_string());
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(HttpRequest { method, path, body })
}

fn write_response(stream: &mut TcpStream, code: u16, body: &[u8]) -> io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

fn error_body(message: &str) -> Vec<u8> {
    format!("{}\n", Json::obj(vec![("error", Json::from(message))])).into_bytes()
}

fn stats_json(state: &ServerState) -> Json {
    let session = &state.session;
    Json::obj(vec![
        (
            "requests",
            Json::u64(state.requests.load(Ordering::Relaxed)),
        ),
        ("in_flight", Json::u64(*state.inflight())),
        ("coalesced", Json::u64(state.coalescer.coalesced())),
        (
            "captures",
            Json::u64(session.cache().captures() + session.cpu_cache().captures()),
        ),
        (
            "restores",
            Json::u64(session.cache().restores() + session.cpu_cache().restores()),
        ),
        (
            "experiments_computed",
            Json::u64(session.experiments_computed()),
        ),
        (
            "experiments_reused",
            Json::u64(session.experiments_reused()),
        ),
        ("corpora_built", Json::u64(session.corpora_built())),
        ("store_attached", Json::from(session.store().is_some())),
        ("store", store_counters_json()),
        (
            "draining",
            Json::from(state.draining.load(Ordering::SeqCst)),
        ),
    ])
}

fn handle_study(state: &ServerState, stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return write_response(stream, 400, &error_body("request body is not UTF-8")),
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return write_response(stream, 400, &error_body(&e.to_string())),
    };
    let request = match StudyRequest::from_json(&doc).and_then(|r| {
        r.validate()?;
        Ok(r)
    }) {
        Ok(r) => r,
        Err(e) => return write_response(stream, 400, &error_body(&e.to_string())),
    };
    let key = request.study_key();
    let result = state.coalescer.join(&key, || {
        execute(&state.session, &request, &mut Quiet).map(|r| r.body_bytes())
    });
    match result {
        Ok(bytes) => write_response(stream, 200, &bytes),
        Err(e) => write_response(stream, 500, &error_body(&e.to_string())),
    }
}

fn handle_connection(state: &ServerState, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let req = match read_http_request(&mut stream) {
        Ok(r) => r,
        Err(e) => return write_response(&mut stream, 400, &error_body(&e)),
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => write_response(&mut stream, 200, b"{\"ok\":true}\n"),
        ("GET", "/stats") => {
            let body = format!("{}\n", stats_json(state)).into_bytes();
            write_response(&mut stream, 200, &body)
        }
        ("POST", "/study") => handle_study(state, &mut stream, &req.body),
        ("POST", "/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            let answered = write_response(&mut stream, 200, b"{\"draining\":true}\n");
            // Wake the accept loop, which sees the flag and drains. If
            // the connect fails, the next connection wakes it instead.
            let _ = TcpStream::connect(state.wake_addr);
            answered
        }
        ("GET" | "POST", _) => write_response(&mut stream, 404, &error_body("not found")),
        _ => write_response(&mut stream, 405, &error_body("method not allowed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::sync::mpsc;

    #[test]
    fn coalescer_runs_the_leader_once_and_counts_joiners() {
        let c = Arc::new(Coalescer::new());
        let ran = Arc::new(AtomicU64::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (c, ran, release_rx) = (Arc::clone(&c), Arc::clone(&ran), Arc::clone(&release_rx));
            handles.push(std::thread::spawn(move || {
                c.join("k", || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    // Hold the slot open until the test releases it, so
                    // the other thread provably joins mid-flight.
                    release_rx.lock().unwrap().recv().unwrap();
                    Ok(b"body".to_vec())
                })
                .expect("leader succeeds")
            }));
        }
        // Deterministic: a follower counts itself before blocking, so
        // waiting for `coalesced == 1` proves the second request joined
        // the still-running leader — only then is the leader released.
        while c.coalesced() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(c.in_flight(), 1, "one key in flight");
        release_tx.send(()).expect("leader is waiting");
        let bodies: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "exactly one execution");
        assert_eq!(c.coalesced(), 1, "the other request joined it");
        assert_eq!(bodies[0], bodies[1], "both callers share the body");
        assert_eq!(c.in_flight(), 0, "slot retired after completion");
        // A later identical request is a fresh execution (warm caches
        // make it cheap), not a stale replay of the first body.
        let again = c.join("k", || Ok(b"fresh".to_vec())).expect("re-run");
        assert_eq!(again.as_slice(), b"fresh");
    }

    #[test]
    fn coalescer_propagates_the_leader_error_to_joiners() {
        let c = Coalescer::new();
        let err = c
            .join("bad", || {
                Err(StudyError::Registry {
                    id: "X".to_string(),
                    reason: "boom",
                })
            })
            .unwrap_err();
        assert!(matches!(err, StudyError::Registry { .. }));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn a_panicking_leader_fails_its_followers_and_retires_the_key() {
        let c = Arc::new(Coalescer::new());
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let _ = c.join("k", || {
                    entered_tx.send(()).expect("test is waiting");
                    release_rx.recv().expect("test releases the leader");
                    panic!("leader dies mid-request");
                });
            })
        };
        entered_rx.recv().expect("leader started");
        let follower = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.join("k", || Ok(b"follower ran".to_vec())))
        };
        // A follower counts itself before blocking: release the leader
        // only once it has provably joined.
        while c.coalesced() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).expect("leader is waiting");
        assert!(leader.join().is_err(), "the panic stays with the leader");
        let err = follower
            .join()
            .expect("the follower does not panic")
            .unwrap_err();
        assert!(matches!(err, StudyError::Registry { .. }), "{err:?}");
        assert_eq!(c.in_flight(), 0, "the key is retired");
        let again = c.join("k", || Ok(b"fresh".to_vec())).expect("re-run");
        assert_eq!(again.as_slice(), b"fresh");
    }

    /// Requests as a client might send them: a request line, headers
    /// (maybe a `Content-Length` that is well-formed, huge, negative or
    /// garbage), maybe the blank line, then a body of any length; or
    /// arbitrary bytes, non-UTF-8 included; or a header block past the
    /// cap.
    struct RawRequest;

    impl Strategy for RawRequest {
        type Value = Vec<u8>;

        fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
            let bytes = |rng: &mut TestRng, max: u64| -> Vec<u8> {
                (0..rng.below(max)).map(|_| rng.next_u64() as u8).collect()
            };
            let pick = |rng: &mut TestRng, options: &[&str]| -> Vec<u8> {
                options[rng.below(options.len() as u64) as usize].into()
            };
            match rng.below(8) {
                0 => return bytes(rng, 512),
                1 => return vec![b'a'; MAX_HEADER_BYTES + 4096],
                _ => {}
            }
            let mut out = pick(rng, &["GET", "POST", "PUT", "", "G\u{e9}T"]);
            out.push(b' ');
            out.extend(pick(rng, &["/study", "/healthz", "/shutdown", "", "/x y"]));
            out.extend(pick(rng, &[" HTTP/1.1", "", " \u{0}"]));
            for _ in 0..rng.below(4) {
                out.extend_from_slice(b"\r\n");
                out.extend(pick(rng, &["Host", "X", "content-length", ""]));
                out.extend(pick(rng, &[": ", ":", " "]));
                out.extend(bytes(rng, 12));
            }
            let big = (MAX_BODY_BYTES + 1).to_string();
            let small = rng.below(64).to_string();
            let length = [
                small.as_str(),
                big.as_str(),
                "18446744073709551615",
                "99999999999999999999999999",
                "-1",
                "-4096",
                "12abc",
                " 7 ",
                "",
                "0x10",
            ];
            if rng.below(4) != 0 {
                out.extend_from_slice(b"\r\nContent-Length: ");
                out.extend(pick(rng, &length));
            }
            if rng.below(4) != 0 {
                out.extend_from_slice(b"\r\n\r\n");
            }
            out.extend(bytes(rng, 96));
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever arrives, the reader answers `Ok` or `Err` without
        /// panicking, and never returns a body past the cap.
        #[test]
        fn the_http_reader_never_panics(bytes in RawRequest) {
            if let Ok(req) = read_http_request(&mut &bytes[..]) {
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
            }
        }
    }

    #[test]
    fn find_subslice_locates_the_header_terminator() {
        assert_eq!(find_subslice(b"ab\r\n\r\ncd", b"\r\n\r\n"), Some(2));
        assert_eq!(find_subslice(b"abcd", b"\r\n\r\n"), None);
    }
}
