//! In-process acceptance test of the `repro serve` daemon: concurrent
//! identical study requests share one execution (byte-identical
//! bodies, capture work done exactly once), a later identical request
//! is a pure warm hit, and a fresh daemon over the same store restores
//! instead of recapturing. A `/shutdown` with no traffic after it still
//! ends `run()`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use obs::Json;
use rodinia_study::serve::{ServeConfig, Server};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rodinia-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Minimal HTTP/1.1 client: one request, reads to EOF (the server
/// closes every connection), returns `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    (status, response[header_end + 4..].to_vec())
}

fn post_study(addr: SocketAddr, body: &str) -> (u16, Vec<u8>) {
    http(addr, "POST", "/study", body)
}

fn spawn(server: &Arc<Server>) -> std::thread::JoinHandle<()> {
    let server = Arc::clone(server);
    std::thread::spawn(move || server.run().expect("daemon runs until drained"))
}

fn shutdown(addr: SocketAddr, runner: std::thread::JoinHandle<()>) {
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    runner.join().expect("accept loop drains and returns");
}

#[test]
fn concurrent_identical_requests_share_one_execution() {
    let store_dir = test_dir("coalesce");
    let server = Arc::new(
        Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store: Some(store_dir.clone()),
            jobs: Some(2),
            sim_threads: Some(2),
        })
        .expect("bind"),
    );
    assert!(server.store_warning().is_none(), "store dir is usable");
    let addr = server.local_addr().expect("addr");
    let runner = spawn(&server);

    // Two concurrent identical requests. fig2 at tiny captures every
    // suite benchmark once; the session cache (and the coalescer, when
    // the requests overlap) must keep that to exactly one capture pass.
    let body = r#"{"artifacts":["fig2"],"scale":"tiny"}"#;
    let workers: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || post_study(addr, body)))
        .collect();
    let results: Vec<(u16, Vec<u8>)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    for (status, _) in &results {
        assert_eq!(*status, 200);
    }
    assert_eq!(
        results[0].1, results[1].1,
        "identical requests, identical bytes"
    );
    let doc = Json::parse(std::str::from_utf8(&results[0].1).expect("utf-8")).expect("parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rodinia-repro.study/v1")
    );
    let captures_after_pair = server.session().cache().captures();
    assert!(captures_after_pair > 0, "something was actually captured");

    // A third identical request after completion: answered entirely
    // from the in-memory cache — zero new captures.
    let (status, body3) = post_study(addr, body);
    assert_eq!(status, 200);
    assert_eq!(body3, results[0].1);
    assert_eq!(
        server.session().cache().captures(),
        captures_after_pair,
        "warm request must not capture"
    );

    // /stats reflects the instance counters.
    let (status, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = Json::parse(std::str::from_utf8(&stats).expect("utf-8")).expect("stats parse");
    assert_eq!(
        stats.get("captures").and_then(Json::as_f64),
        Some(captures_after_pair as f64)
    );
    assert_eq!(stats.get("requests").and_then(Json::as_f64), Some(3.0));
    // fig2 is computed once; the third request (and the second, unless
    // it coalesced) reads the session's experiment memo.
    assert_eq!(
        stats.get("experiments_computed").and_then(Json::as_f64),
        Some(1.0)
    );
    assert!(stats.get("experiments_reused").and_then(Json::as_f64) >= Some(1.0));
    assert_eq!(stats.get("corpora_built").and_then(Json::as_f64), Some(0.0));
    assert_eq!(stats.get("store_attached"), Some(&Json::Bool(true)));

    shutdown(addr, runner);

    // A fresh daemon over the same store answers the same request with
    // zero captures: everything restores from the persistent store.
    let server2 = Arc::new(
        Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store: Some(store_dir.clone()),
            jobs: Some(2),
            sim_threads: Some(2),
        })
        .expect("rebind"),
    );
    let addr2 = server2.local_addr().expect("addr");
    let runner2 = spawn(&server2);
    let (status, body4) = post_study(addr2, body);
    assert_eq!(status, 200);
    assert_eq!(
        body4, results[0].1,
        "store-restored run renders the same bytes"
    );
    assert_eq!(
        server2.session().cache().captures(),
        0,
        "pure warm-store run"
    );
    assert!(
        server2.session().cache().restores() > 0,
        "captures came from the store"
    );
    shutdown(addr2, runner2);

    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn bad_requests_are_rejected_and_do_not_kill_the_daemon() {
    let server = Arc::new(
        Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store: None,
            jobs: Some(1),
            sim_threads: None,
        })
        .expect("bind"),
    );
    let addr = server.local_addr().expect("addr");
    let runner = spawn(&server);

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"ok\":true}\n");

    // 200 KB of `[`: deeper than the JSON nesting cap, so it is a 400
    // rather than a stack overflow that takes the daemon down.
    let deep = "[".repeat(200 * 1024);
    let cases = [
        "not json at all",
        r#"{"artifacts":["fig99"]}"#,
        r#"{"artifacts":["fig1"],"store":"/tmp/x"}"#,
        r#"{"artifacts":[]}"#,
        r#"{"mystery":1}"#,
        deep.as_str(),
    ];
    for case in cases {
        let (status, body) = post_study(addr, case);
        let shown = &case[..case.len().min(64)];
        assert_eq!(status, 400, "case {shown:?}");
        let doc = Json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("error body");
        assert!(doc.get("error").is_some(), "case {shown:?}");
    }
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    // The daemon survived all of it and still answers real requests.
    let (status, body) = post_study(addr, r#"{"artifacts":["table1","table5"],"scale":"tiny"}"#);
    assert_eq!(status, 200);
    assert!(std::str::from_utf8(&body)
        .expect("utf-8")
        .contains("rodinia-repro.study/v1"));
    shutdown(addr, runner);
}

#[test]
fn shutdown_alone_wakes_the_blocked_accept_loop() {
    let server = Arc::new(
        Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store: None,
            jobs: Some(1),
            sim_threads: None,
        })
        .expect("bind"),
    );
    let addr = server.local_addr().expect("addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let r = server.run();
            let _ = done_tx.send(());
            r
        })
    };
    let (status, body) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"draining\":true}\n");
    // No further traffic: the accept loop, blocked in `accept`, must be
    // woken by the shutdown itself and return once the drain finishes.
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("run() returned after /shutdown with no further connection");
    runner.join().expect("runner").expect("clean drain");
}
