//! Determinism lint: a source scan for unordered-iteration hazards.
//!
//! `HashMap`/`HashSet` iteration order is randomized per process in
//! Rust's std (SipHash with a random key), so any iteration that feeds a
//! rendered table or report makes output differ across runs — precisely
//! what the byte-identical replay contract forbids. This module scans
//! `.rs` sources for iteration over hash-container variables with no
//! ordering step nearby and reports [`FindingKind::UnorderedIteration`]
//! warnings.
//!
//! It is a heuristic line scanner, not a type checker: it tracks
//! variable names bound to `HashMap`/`HashSet` in the same file, flags
//! `for .. in var` / `var.iter()` / `.keys()` / `.values()` /
//! `.into_iter()` over them, and suppresses the finding when the
//! statement (or the few lines after it) sorts, collects into a BTree
//! container, or only aggregates (`.sum()`, `.count()`, `.max()`, ...)
//! where order cannot matter. `#[cfg(test)]` modules are skipped.

use std::fs;
use std::path::Path;

use crate::dynamic::FindingSet;
use crate::finding::{Finding, FindingKind};

/// Patterns that bind a variable to a hash container.
const DECL_MARKERS: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Chain steps that impose an order (or make it irrelevant) on an
/// unordered iterator.
const ORDERING_MARKERS: [&str; 12] = [
    ".sort", "sorted", "BTreeMap", "BTreeSet", ".sum()", ".count()", ".len()", ".max(", ".min(",
    ".fold(", ".all(", ".any(",
];

/// How many lines after an iteration site an ordering step still
/// suppresses the finding (covers `collect` + `sort` on the next line).
const ORDERING_WINDOW: usize = 3;

fn identifiers_bound_to_hash(line: &str) -> Option<String> {
    if !DECL_MARKERS.iter().any(|m| line.contains(m)) {
        return None;
    }
    // `let name: HashMap<..>` / `let mut name = HashMap::new()` /
    // `name: HashMap<..>,` (struct field).
    let trimmed = line.trim_start();
    let rest = trimmed
        .strip_prefix("let mut ")
        .or_else(|| trimmed.strip_prefix("let "))
        .or_else(|| trimmed.strip_prefix("pub "))
        .unwrap_or(trimmed);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(char::is_numeric) {
        return None;
    }
    // Only count it when the marker appears after the name (type or
    // initializer position), not e.g. `use std::collections::HashMap`.
    let after = &rest[name.len()..];
    if DECL_MARKERS.iter().any(|m| after.contains(m)) {
        Some(name)
    } else {
        None
    }
}

fn iterates_over(line: &str, var: &str) -> bool {
    for pat in [
        format!("{var}.iter()"),
        format!("{var}.keys()"),
        format!("{var}.values()"),
        format!("{var}.into_iter()"),
        format!("{var}.drain()"),
        format!("in {var} "),
        format!("in {var}."),
        format!("in &{var} "),
        format!("in &{var}."),
    ] {
        if line.contains(&pat) {
            return true;
        }
    }
    line.trim_end().ends_with(&format!("in {var}"))
        || line.trim_end().ends_with(&format!("in &{var}"))
}

fn window_has_ordering(lines: &[&str], at: usize) -> bool {
    lines[at..lines.len().min(at + 1 + ORDERING_WINDOW)]
        .iter()
        .any(|l| ORDERING_MARKERS.iter().any(|m| l.contains(m)))
}

/// Scans one source file's text, reporting unordered-iteration sites.
///
/// `label` names the file in the findings (use a repo-relative path).
pub fn scan_source(label: &str, text: &str) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = FindingSet::default();
    let mut hash_vars: Vec<String> = Vec::new();

    // Find the start of a `#[cfg(test)]` region; everything after it is
    // skipped (test modules sit at the end of files in this repo).
    let test_start = lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());

    for (i, line) in lines.iter().enumerate().take(test_start) {
        if let Some(name) = identifiers_bound_to_hash(line) {
            if !hash_vars.contains(&name) {
                hash_vars.push(name);
            }
        }
        for var in &hash_vars {
            if iterates_over(line, var) && !window_has_ordering(&lines, i) {
                out.record(
                    FindingKind::UnorderedIteration,
                    label,
                    var,
                    format!(
                        "line {}: iterating hash container `{}` with no ordering step \
                         nearby; sort before rendering or use a BTree container",
                        i + 1,
                        var
                    ),
                );
            }
        }
    }
    out.into_findings()
}

/// Recursively scans every `.rs` file under `root`, labeling findings
/// with paths relative to `strip` (typically the repo root).
pub fn scan_tree(root: &Path, strip: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let text = fs::read_to_string(&f)?;
        let label = f
            .strip_prefix(strip)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        out.extend(scan_source(&label, &text));
    }
    Ok(out)
}

/// Enumerates the first-party crate source roots of a cargo workspace by
/// parsing `<workspace_root>/Cargo.toml`'s `members` list (expanding
/// `dir/*` globs against the filesystem). Vendored third-party members
/// (`vendor/*`) are excluded — their hash iteration is not ours to lint —
/// and the workspace root's own `src/` is included when the manifest
/// also declares a `[package]`. Returned paths are sorted, so the scan
/// set (and any report built from it) is deterministic.
///
/// This is what keeps the repo-level determinism lint in sync with the
/// workspace: a newly added crate is covered the moment it joins
/// `members`, with no hard-coded list to update.
///
/// # Errors
///
/// Propagates I/O errors reading the manifest or listing member globs;
/// returns `InvalidData` when no `members` list is found.
pub fn workspace_members(workspace_root: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let manifest = fs::read_to_string(workspace_root.join("Cargo.toml"))?;
    let mut roots = Vec::new();
    for entry in members_list(&manifest)?.split(',') {
        let entry = entry.trim().trim_matches('"');
        if entry.is_empty() || entry.starts_with("vendor") {
            continue;
        }
        if let Some(dir) = entry.strip_suffix("/*") {
            let base = workspace_root.join(dir);
            for child in fs::read_dir(&base)? {
                let path = child?.path();
                if path.join("Cargo.toml").is_file() {
                    roots.push(path);
                }
            }
        } else {
            roots.push(workspace_root.join(entry));
        }
    }
    if manifest.contains("[package]") {
        roots.push(workspace_root.to_path_buf());
    }
    let mut src_roots: Vec<std::path::PathBuf> = roots
        .into_iter()
        .map(|r| r.join("src"))
        .filter(|s| s.is_dir())
        .collect();
    src_roots.sort();
    Ok(src_roots)
}

/// The text between the brackets of the manifest's `members = [...]`
/// entry. Only a line whose key is exactly `members` counts, so
/// `default-members` (or a comment mentioning members) is never taken
/// for it.
fn members_list(manifest: &str) -> std::io::Result<&str> {
    let invalid = |msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let start = manifest
        .match_indices("members")
        .map(|(i, key)| (i, i + key.len()))
        .find(|&(i, end)| {
            let line_start = manifest[..i].rfind('\n').map_or(0, |n| n + 1);
            manifest[line_start..i].trim().is_empty()
                && manifest[end..]
                    .trim_start_matches([' ', '\t'])
                    .starts_with('=')
        })
        .map(|(_, end)| end)
        .ok_or_else(|| invalid("no `members` list in workspace manifest"))?;
    let open = manifest[start..]
        .find('[')
        .map(|i| start + i)
        .ok_or_else(|| invalid("malformed `members` list"))?;
    let close = manifest[open..]
        .find(']')
        .map(|i| open + i)
        .ok_or_else(|| invalid("unterminated `members` list"))?;
    Ok(&manifest[open + 1..close])
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unsorted_hashmap_iteration() {
        let src = "\
use std::collections::HashMap;
fn render() {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for (k, v) in &counts {
        println!(\"{k}: {v}\");
    }
}
";
        let findings = scan_source("demo.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::UnorderedIteration);
        assert_eq!(findings[0].subject, "counts");
    }

    #[test]
    fn sorted_iteration_is_clean() {
        let src = "\
use std::collections::HashMap;
fn render() {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut rows: Vec<_> = counts.iter().collect();
    rows.sort();
}
";
        assert!(scan_source("demo.rs", src).is_empty());
    }

    #[test]
    fn aggregation_is_clean() {
        let src = "\
use std::collections::HashSet;
fn total(seen: &HashSet<u32>) -> usize {
    let seen = seen;
    seen.iter().count()
}
";
        assert!(scan_source("demo.rs", src).is_empty());
    }

    #[test]
    fn members_key_is_matched_exactly() {
        let manifest = "\
[workspace]
# every crate under crates/ is a member
default-members = [\".\", \"crates/core\"]
members = [
    \"crates/*\",
    \"vendor/*\",
]
";
        let list = members_list(manifest).unwrap();
        assert!(
            list.contains("\"crates/*\"") && list.contains("\"vendor/*\""),
            "{list}"
        );
        assert!(
            !list.contains("crates/core"),
            "took default-members: {list}"
        );
        let only_default = "[workspace]\ndefault-members = [\"crates/core\"]\n";
        assert!(members_list(only_default).is_err());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "\
fn main() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn helper() {
        let m: HashMap<u32, u32> = HashMap::new();
        for (k, v) in &m {
            println!(\"{k}{v}\");
        }
    }
}
";
        assert!(scan_source("demo.rs", src).is_empty());
    }
}
