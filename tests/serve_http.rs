//! End-to-end check of the `repro serve` daemon against the real
//! binary: a served `POST /study` response must be byte-identical to
//! the `STUDY_manifest.json` the CLI writes for the same request, bad
//! requests must map to HTTP 400 without killing the daemon, and
//! `POST /shutdown` must drain to a clean exit 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rodinia-servehttp-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Spawns `repro serve 127.0.0.1:0 ...` and parses the picked address
/// from its announcement line.
fn spawn_daemon(store: &PathBuf) -> (Child, String) {
    let mut child = repro()
        .args(["serve", "127.0.0.1:0", "--jobs", "2", "--store"])
        .arg(store)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .strip_prefix("repro serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
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

fn wait_for_exit(mut child: Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon did not drain in time");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn served_response_matches_the_cli_study_manifest_byte_for_byte() {
    let daemon_store = test_dir("daemon");
    let cli_store = test_dir("cli");
    let (child, addr) = spawn_daemon(&daemon_store);

    let (status, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"ok\":true}\n");

    // The daemon's answer to a study request...
    let (status, served) = http(
        &addr,
        "POST",
        "/study",
        r#"{"artifacts":["table1","table5"],"scale":"tiny"}"#,
    );
    assert_eq!(status, 200);

    // ...equals the CLI's STUDY_manifest.json for the same request,
    // produced by a completely separate process and store.
    let out = repro()
        .args(["table1", "table5", "tiny", "--store"])
        .arg(&cli_store)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "CLI run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli_manifest =
        std::fs::read(cli_store.join("STUDY_manifest.json")).expect("CLI manifest written");
    assert_eq!(
        served, cli_manifest,
        "daemon response and CLI manifest must be the same bytes"
    );

    // The daemon persisted the same document next to its own store.
    let daemon_manifest =
        std::fs::read(daemon_store.join("STUDY_manifest.json")).expect("daemon manifest written");
    assert_eq!(daemon_manifest, cli_manifest);

    // Misuse maps to 400 and leaves the daemon alive.
    let (status, _) = http(&addr, "POST", "/study", r#"{"artifacts":["fig99"]}"#);
    assert_eq!(status, 400);
    let (status, _) = http(
        &addr,
        "POST",
        "/study",
        r#"{"artifacts":["fig1"],"resume":true}"#,
    );
    assert_eq!(
        status, 400,
        "the daemon owns durability; resume is not a request field"
    );

    // Graceful drain: /shutdown, then a clean exit 0.
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let exit = wait_for_exit(child);
    assert_eq!(exit.code(), Some(0), "drained daemon exits cleanly");

    let _ = std::fs::remove_dir_all(&daemon_store);
    let _ = std::fs::remove_dir_all(&cli_store);
}

#[test]
fn serve_without_an_address_is_misuse() {
    let out = repro().arg("serve").output().expect("spawn repro serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage: repro serve"),
        "usage hint missing: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_downgrades_an_unusable_store_like_the_cli() {
    // A plain file where the store directory should be: the daemon
    // boots anyway, warns once, and serves from memory.
    let dir = test_dir("unusable");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let occupied = dir.join("occupied");
    std::fs::write(&occupied, b"not a directory").expect("write");
    let mut child = repro()
        .args(["serve", "127.0.0.1:0", "--store"])
        .arg(&occupied)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("announcement");
    let addr = line
        .trim()
        .strip_prefix("repro serve: listening on ")
        .expect("daemon still announces")
        .to_string();
    let (status, body) = http(&addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&body).contains("\"store_attached\":false"),
        "stats must show the downgrade: {}",
        String::from_utf8_lossy(&body)
    );
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let exit = wait_for_exit(child);
    assert_eq!(exit.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
