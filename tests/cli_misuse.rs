//! The CLI rejects the same conflicting requests as the JSON front end,
//! with the same messages and exit code 2, before running anything.

use std::process::Command;

fn misuse(args: &[&str], message: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(message), "repro {args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "repro {args:?} printed a result");
}

#[test]
fn conflicting_verbs_and_flags_are_misuse() {
    misuse(&["check", "audit", "tiny"], "a request takes one command");
    misuse(
        &["analyze", "tiny", "analyze"],
        "a request takes one command",
    );
    misuse(
        &["check", "fig1", "tiny"],
        "\"artifacts\" only applies to tables requests",
    );
    misuse(
        &["all", "audit", "tiny"],
        "\"artifacts\" only applies to tables requests",
    );
    misuse(
        &["fig1", "tiny", "--top-k", "2"],
        "\"top_k\" only applies to analyze requests",
    );
    misuse(
        &["check", "tiny", "--top-k", "2"],
        "\"top_k\" only applies to analyze requests",
    );
}
