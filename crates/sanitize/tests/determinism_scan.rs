//! Repo-level determinism lint: no first-party crate may iterate
//! hash-ordered containers into anything that feeds a rendered table.
//!
//! The workspace's byte-identical-output guarantee (every table is
//! identical for any `--jobs N`) would silently break if a profile or
//! catalog walked a `HashMap` while summing, sorting, or folding — the
//! iteration order varies run to run. [`sanitize::scan_source`] flags
//! exactly that shape.
//!
//! The scan set is derived from the workspace manifest
//! ([`sanitize::workspace_members`]), not a hard-coded crate list: a new
//! crate is covered the moment it joins `members`.

use std::path::Path;

#[test]
fn workspace_crates_have_no_unordered_iteration() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo_root = manifest
        .parent()
        .and_then(Path::parent)
        .expect("sanitize lives under crates/");
    let roots = sanitize::workspace_members(repo_root).expect("parse workspace manifest");
    assert!(
        roots.len() >= 10,
        "expected every first-party crate in the scan set, got {roots:?}"
    );
    // The crates the hard-coded PR 5 list used to cover must still be
    // present, along with the ones it missed.
    for expected in ["parsec-lite", "rodinia-cpu", "store", "core", "obs"] {
        assert!(
            roots
                .iter()
                .any(|r| r.ends_with(Path::new("crates").join(expected).join("src"))),
            "scan set lost crates/{expected}: {roots:?}"
        );
    }
    assert!(
        !roots
            .iter()
            .any(|r| r.starts_with(repo_root.join("vendor"))),
        "vendored third-party crates must not be linted: {roots:?}"
    );

    for root in roots {
        let findings = sanitize::scan_tree(&root, repo_root)
            .unwrap_or_else(|e| panic!("scan {}: {e}", root.display()));
        assert!(
            findings.is_empty(),
            "{}: hash-ordered iteration feeding ordered output:\n{}",
            root.display(),
            sanitize::render_findings(&findings).join("\n")
        );
    }
}
