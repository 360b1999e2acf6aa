//! Shadow recorder: static op-site identification for sanitizer tapes.
//!
//! The contract-inference layer (`crates/sanitize`) fits one symbolic
//! access form *per static memory instruction* — the `st_f32` call at
//! `srad.rs:347` is one op site no matter how many blocks, warps, or
//! launches execute it. The dynamic tape alone cannot say which accesses
//! came from the same instruction, so this module adds the missing
//! coordinate: every `WarpCtx` access method is `#[track_caller]`, the
//! kernel-source call site (`file:line:column`) is captured at zero cost
//! to untaped runs, and a per-launch [`SiteTable`] interns it into the
//! small integer id stamped on each [`crate::MemAccess`].
//!
//! Site ids are launch-local (dense, first-observation order); the
//! interned label is the stable cross-launch identity. Because the
//! executor is deterministic, the same kernel produces the same table in
//! the same order on every run — the property the byte-identical
//! `AUDIT_manifest.json` relies on.

use std::collections::HashMap;
use std::panic::Location;

/// Interns static op-site labels (`file:line:column`) into dense ids.
///
/// One table lives for each taped launch (every access and the end of
/// the launch hand it to the [`crate::TapeSink`]); ids index into
/// [`SiteTable::names`]. Interning is keyed on the raw `Location`
/// coordinates so the hot path never formats a string for a site it has
/// already seen.
#[derive(Debug, Clone, Default)]
pub struct SiteTable {
    names: Vec<String>,
    index: HashMap<(&'static str, u32, u32), u32>,
}

impl SiteTable {
    /// An empty table.
    pub fn new() -> SiteTable {
        SiteTable::default()
    }

    /// Interns the call-site `loc`, returning its dense id.
    pub fn intern(&mut self, loc: &'static Location<'static>) -> u32 {
        let key = (loc.file(), loc.line(), loc.column());
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(site_label(loc));
        self.index.insert(key, id);
        id
    }

    /// The label of site `id` (`"<unknown site>"` for an id this table
    /// never issued — cannot occur for tapes produced by the executor).
    pub fn name(&self, id: u32) -> &str {
        self.names
            .get(id as usize)
            .map_or("<unknown site>", String::as_str)
    }

    /// Every interned label, indexed by site id.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of distinct sites interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no site has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Renders a call site as `file:line:column`, trimming the path to its
/// last two components so labels stay stable across checkouts.
fn site_label(loc: &Location<'_>) -> String {
    let file = loc.file();
    let mut parts: Vec<&str> = file.split(['/', '\\']).collect();
    let tail = parts.split_off(parts.len().saturating_sub(2));
    format!("{}:{}:{}", tail.join("/"), loc.line(), loc.column())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn interning_is_dense_and_stable() {
        let mut t = SiteTable::new();
        let a = here();
        let b = here();
        let ia = t.intern(a);
        let ib = t.intern(b);
        assert_ne!(ia, ib, "distinct call sites get distinct ids");
        assert_eq!(t.intern(a), ia, "re-interning returns the same id");
        assert_eq!(t.len(), 2);
        assert!(t.name(ia).contains("shadow.rs"));
        assert!(t
            .name(ia)
            .ends_with(&format!("{}:{}", a.line(), a.column())));
    }

    #[test]
    fn labels_are_path_trimmed() {
        let mut t = SiteTable::new();
        let id = t.intern(here());
        let label = t.name(id);
        // At most two path components survive: `src/shadow.rs:L:C`.
        assert!(
            label.matches('/').count() <= 1,
            "label {label:?} is trimmed"
        );
        assert_eq!(t.name(99), "<unknown site>");
        assert!(!t.is_empty());
    }
}
