//! JSON run manifests: a machine-readable record of one `repro`
//! invocation.
//!
//! A manifest captures everything a run produced — every rendered
//! [`Table`], every `simt` kernel-stats record (with its stall
//! breakdown and occupancy timeline, drained from the study session's
//! [`obs::Records`] buffer), and the wall-clock span timings from the
//! global [`obs::Registry`] — as one self-describing JSON document. External
//! tooling should dispatch on the `schema` tag.
//!
//! Schema (`rodinia-repro.manifest/v1`):
//!
//! ```text
//! {
//!   "schema": "rodinia-repro.manifest/v1",
//!   "scale": "tiny",
//!   "experiments": [
//!     { "id": "Fig1", "wall_us": 1234,
//!       "tables": [ { "title": ..., "columns": [...], "rows": [[...]] } ] },
//!     ...
//!   ],
//!   ...driver sections ("check", "critpath", ...) in push order...,
//!   "kernel_stats": [ <simt::KernelStats::to_json() objects> ... ],
//!   "dropped_kernel_stats": 0,
//!   "store": { "hit": 0, "miss": 0, ... },
//!   "telemetry": { "counters": {...}, "spans": {...} }
//! }
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use obs::Json;

use crate::error::StudyError;
use crate::report::Table;
use datasets::Scale;

/// The manifest schema identifier written into every document.
pub const MANIFEST_SCHEMA: &str = "rodinia-repro.manifest/v1";

/// File name of the manifest inside the output directory.
pub const MANIFEST_FILE: &str = "BENCH_manifest.json";

/// Schema tag of the deterministic study manifest.
pub const STUDY_SCHEMA: &str = "rodinia-repro.study/v1";

/// File name of the deterministic study manifest.
///
/// Unlike [`MANIFEST_FILE`], this document holds *only* the rendered
/// result tables — no wall-clock timings, no telemetry — so two runs of
/// the same study are byte-identical, interrupted-and-resumed or not.
/// The crash-recovery CI gate diffs it with `cmp`.
pub const STUDY_MANIFEST_FILE: &str = "STUDY_manifest.json";

/// Schema tag of the critical-path manifest (`repro analyze`).
pub const CRITPATH_SCHEMA: &str = "rodinia-repro.critpath/v1";

/// File name of the critical-path manifest inside the output directory.
pub const CRITPATH_FILE: &str = "CRITPATH_manifest.json";

/// Schema tag of the access-contract audit manifest (`repro audit`).
pub const AUDIT_SCHEMA: &str = "rodinia-repro.audit/v1";

/// File name of the audit manifest inside the output directory.
///
/// Like [`STUDY_MANIFEST_FILE`], this document is a pure function of
/// `(corpus, scale)` — inferred contracts, proof verdicts, no
/// wall-clock state — so two independent runs are byte-identical and
/// the CI audit gate diffs it with `cmp`.
pub const AUDIT_FILE: &str = "AUDIT_manifest.json";

/// One kind of machine-readable manifest the repo emits.
///
/// This is the single schema-version registry: every `*_manifest.json`
/// writer in the workspace — the run manifest built by
/// [`ManifestBuilder`], the deterministic study manifest served by
/// `repro serve` and written next to the store, and the critical-path
/// manifest of `repro analyze` — goes through [`write_manifest`] with
/// one of these kinds, so the schema tag, the file name, and the atomic
/// write discipline can never drift apart per emitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManifestKind {
    /// `BENCH_manifest.json` (`rodinia-repro.manifest/v1`): one run's
    /// tables plus kernel stats, sections, and telemetry.
    Bench,
    /// `STUDY_manifest.json` (`rodinia-repro.study/v1`): pure tables,
    /// byte-deterministic; the crash-recovery and serve responses.
    Study,
    /// `CRITPATH_manifest.json` (`rodinia-repro.critpath/v1`):
    /// critical-path attribution, byte-deterministic.
    Critpath,
    /// `AUDIT_manifest.json` (`rodinia-repro.audit/v1`): symbolic
    /// access contracts with proof verdicts, byte-deterministic.
    Audit,
}

impl ManifestKind {
    /// Every registered manifest kind.
    pub const ALL: [ManifestKind; 4] = [
        ManifestKind::Bench,
        ManifestKind::Study,
        ManifestKind::Critpath,
        ManifestKind::Audit,
    ];

    /// The schema tag written into (and required of) documents of this
    /// kind.
    pub fn schema(self) -> &'static str {
        match self {
            ManifestKind::Bench => MANIFEST_SCHEMA,
            ManifestKind::Study => STUDY_SCHEMA,
            ManifestKind::Critpath => CRITPATH_SCHEMA,
            ManifestKind::Audit => AUDIT_SCHEMA,
        }
    }

    /// The file name documents of this kind are written under.
    pub fn file_name(self) -> &'static str {
        match self {
            ManifestKind::Bench => MANIFEST_FILE,
            ManifestKind::Study => STUDY_MANIFEST_FILE,
            ManifestKind::Critpath => CRITPATH_FILE,
            ManifestKind::Audit => AUDIT_FILE,
        }
    }

    /// Resolves a schema tag back to its kind — how external tooling
    /// (and the roundtrip test) dispatches on a document.
    pub fn of_schema(tag: &str) -> Option<ManifestKind> {
        ManifestKind::ALL.into_iter().find(|k| k.schema() == tag)
    }
}

/// Atomically writes a manifest document to `dir/<kind file name>`
/// (temp + fsync + rename, creating `dir` if needed) and returns the
/// written path. The document's `schema` field must match the
/// registry's tag for `kind` — the one writer is where that invariant
/// is enforced for every emitter.
///
/// # Errors
///
/// [`StudyError::Registry`] if the document's schema tag is absent or
/// disagrees with `kind`; [`StudyError::Io`] if the write fails.
pub fn write_manifest(dir: &Path, kind: ManifestKind, doc: &Json) -> Result<PathBuf, StudyError> {
    if doc.get("schema").and_then(Json::as_str) != Some(kind.schema()) {
        return Err(StudyError::Registry {
            id: format!("{kind:?}"),
            reason: "manifest document schema tag disagrees with the registry",
        });
    }
    let path = store::write_atomic(dir, kind.file_name(), format!("{doc}\n").as_bytes())?;
    Ok(path)
}

/// Serializes a rendered [`Table`] (title, columns, row cells).
pub fn table_to_json(t: &Table) -> Json {
    Json::obj(vec![
        ("title", Json::from(t.title.as_str())),
        (
            "columns",
            Json::from(
                t.columns
                    .iter()
                    .map(|c| Json::from(c.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "rows",
            Json::from(
                t.rows
                    .iter()
                    .map(|r| {
                        Json::from(r.iter().map(|c| Json::from(c.as_str())).collect::<Vec<_>>())
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
}

/// Rebuilds a [`Table`] from its [`table_to_json`] document.
///
/// Returns `None` on any shape mismatch — callers restoring journaled
/// experiments treat a malformed record as "not done" and recompute,
/// so there is nothing useful for an error to carry.
pub fn table_from_json(j: &Json) -> Option<Table> {
    let title = j.get("title")?.as_str()?;
    let columns: Vec<&str> = j
        .get("columns")?
        .as_arr()?
        .iter()
        .map(Json::as_str)
        .collect::<Option<Vec<_>>>()?;
    let mut t = Table::new(title, &columns);
    for row in j.get("rows")?.as_arr()? {
        let cells: Vec<String> = row
            .as_arr()?
            .iter()
            .map(|c| c.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        t.push(cells).ok()?;
    }
    Some(t)
}

/// Renders `scale` as its lowercase manifest token.
pub(crate) fn scale_str(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Builds the deterministic study manifest: schema, scale, and per
/// experiment only its id and rendered tables. Everything in this
/// document is a pure function of `(experiment set, scale)`, which is
/// what makes the kill-and-resume byte-for-byte diff meaningful.
pub fn study_manifest_json(scale: Scale, experiments: &[(String, Vec<Table>)]) -> Json {
    study_manifest_json_with_sections(scale, experiments, &[])
}

/// [`study_manifest_json`] with named driver sections (the `repro
/// check` / `repro audit` finding summaries) appended after
/// `experiments`. Sections must themselves be deterministic — the
/// byte-identity contract of this document extends to them. With no
/// sections the output is byte-identical to [`study_manifest_json`],
/// so tables-only runs are unaffected.
pub fn study_manifest_json_with_sections(
    scale: Scale,
    experiments: &[(String, Vec<Table>)],
    sections: &[(String, Json)],
) -> Json {
    let mut pairs = vec![
        ("schema".to_string(), Json::from(STUDY_SCHEMA)),
        ("scale".to_string(), Json::from(scale_str(scale))),
        (
            "experiments".to_string(),
            Json::from(
                experiments
                    .iter()
                    .map(|(id, tables)| {
                        Json::obj(vec![
                            ("id", Json::from(id.as_str())),
                            (
                                "tables",
                                Json::from(tables.iter().map(table_to_json).collect::<Vec<_>>()),
                            ),
                        ])
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    pairs.extend(sections.iter().cloned());
    Json::Obj(pairs)
}

/// Atomically writes the deterministic study manifest to
/// `dir/STUDY_manifest.json` and returns the path.
///
/// # Errors
///
/// [`StudyError::Io`] if the write fails.
pub fn write_study_manifest(
    dir: &Path,
    scale: Scale,
    experiments: &[(String, Vec<Table>)],
) -> Result<PathBuf, StudyError> {
    write_manifest(
        dir,
        ManifestKind::Study,
        &study_manifest_json(scale, experiments),
    )
}

/// Snapshot of the persistent-store health counters as a JSON object
/// (`hit`, `miss`, `write`, `corrupt`, `evict`, `retry`), embedded in
/// every `BENCH_manifest.json` and in the daemon's `GET /stats`: a run
/// that silently recaptured half its store should say so in its
/// artifacts.
pub fn store_counters_json() -> Json {
    let reg = obs::Registry::global();
    let c = |name: &str| Json::u64(reg.counter(name));
    Json::obj(vec![
        ("hit", c("store.hit")),
        ("miss", c("store.miss")),
        ("write", c("store.write")),
        ("corrupt", c("store.corrupt")),
        ("evict", c("store.evict")),
        ("retry", c("store.retry")),
    ])
}

/// Accumulates one run's experiments into a manifest document.
///
/// Construct it over the session's record buffer before running
/// experiments (it turns recording on), push each
/// experiment's tables as they complete, and call
/// [`ManifestBuilder::write`] once at the end. Drivers with their own
/// machine-readable verdicts (`repro check` findings, `repro analyze`
/// critical paths) attach them as named sections via
/// [`ManifestBuilder::push_section`].
#[derive(Debug)]
pub struct ManifestBuilder {
    scale: Scale,
    records: Arc<obs::Records>,
    experiments: Vec<Json>,
    sections: Vec<(String, Json)>,
}

impl ManifestBuilder {
    /// Starts a manifest for a run at `scale` that drains `records`
    /// ([`crate::StudySession::records`]), switching recording on.
    pub fn new(scale: Scale, records: Arc<obs::Records>) -> ManifestBuilder {
        records.set_recording(true);
        ManifestBuilder {
            scale,
            records,
            experiments: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Attaches a named top-level section to the document (e.g.
    /// `"check"` with the sanitizer verdict, `"critpath"` with the
    /// bottleneck summary). Sections appear after `experiments` in
    /// push order; a repeated name replaces the earlier payload.
    pub fn push_section(&mut self, name: &str, payload: Json) {
        if let Some(s) = self.sections.iter_mut().find(|(n, _)| n == name) {
            s.1 = payload;
        } else {
            self.sections.push((name.to_string(), payload));
        }
    }

    /// Appends one completed experiment with its rendered tables and
    /// wall-clock duration.
    pub fn push_experiment(&mut self, id: &str, tables: &[Table], wall_us: u64) {
        self.experiments.push(Json::obj(vec![
            ("id", Json::from(id)),
            ("wall_us", Json::u64(wall_us)),
            (
                "tables",
                Json::from(tables.iter().map(table_to_json).collect::<Vec<_>>()),
            ),
        ]));
    }

    /// Number of experiments pushed so far.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether no experiment has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Finalizes the document: drains the record buffer for kernel
    /// stats and snapshots the global registry (span timings and
    /// counters).
    pub fn build(self) -> Json {
        let (records, dropped) = self.records.drain();
        let kernel_stats: Vec<Json> = records
            .into_iter()
            .filter(|r| r.kind == "kernel_stats")
            .map(|r| r.value)
            .collect();
        let mut pairs = vec![
            ("schema".to_string(), Json::from(MANIFEST_SCHEMA)),
            ("scale".to_string(), Json::from(scale_str(self.scale))),
            ("experiments".to_string(), Json::from(self.experiments)),
        ];
        pairs.extend(self.sections);
        pairs.extend([
            ("kernel_stats".to_string(), Json::from(kernel_stats)),
            ("dropped_kernel_stats".to_string(), Json::u64(dropped)),
            ("store".to_string(), store_counters_json()),
            (
                "telemetry".to_string(),
                obs::Registry::global().snapshot_json(),
            ),
        ]);
        Json::Obj(pairs)
    }

    /// Builds the document and writes it to `dir/BENCH_manifest.json`
    /// through the [`ManifestKind`] registry (atomic, creating `dir` if
    /// needed). Returns the written path.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] if the directory cannot be created or the
    /// file cannot be written.
    pub fn write(self, dir: &Path) -> Result<PathBuf, StudyError> {
        write_manifest(dir, ManifestKind::Bench, &self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn demo_table() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push(vec!["alpha".into(), "1.5".into()])
            .expect("row fits");
        t
    }

    #[test]
    fn table_round_trips_through_json() {
        let j = table_to_json(&demo_table());
        let text = j.to_string();
        let back = Json::parse(&text).expect("table JSON parses");
        assert_eq!(back.get("title").and_then(Json::as_str), Some("Demo"));
        let rows = back.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_arr().expect("cells").len(), 2);
    }

    #[test]
    fn manifest_document_is_self_describing() {
        let mut b = ManifestBuilder::new(Scale::Tiny, Arc::default());
        assert!(b.is_empty());
        b.push_experiment("Demo", &[demo_table()], 42);
        assert_eq!(b.len(), 1);
        let doc = b.build();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(MANIFEST_SCHEMA)
        );
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("tiny"));
        let exps = doc.get("experiments").and_then(Json::as_arr).expect("arr");
        assert_eq!(exps.len(), 1);
        assert_eq!(exps[0].get("wall_us").and_then(Json::as_f64), Some(42.0));
        // The document is parseable as written.
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn sections_and_store_counters_are_embedded() {
        let mut b = ManifestBuilder::new(Scale::Tiny, Arc::default());
        b.push_section("check", Json::obj(vec![("errors", Json::u64(0))]));
        b.push_section("check", Json::obj(vec![("errors", Json::u64(2))]));
        b.push_section("critpath", Json::obj(vec![("ranking", Json::Arr(vec![]))]));
        let doc = b.build();
        assert_eq!(
            doc.get("check")
                .and_then(|c| c.get("errors"))
                .and_then(Json::as_f64),
            Some(2.0),
            "repeated section name replaces the payload"
        );
        assert!(doc.get("critpath").is_some());
        let store = doc.get("store").expect("store counters present");
        for key in ["hit", "miss", "write", "corrupt", "evict", "retry"] {
            assert!(store.get(key).is_some(), "missing store counter {key}");
        }
    }

    #[test]
    fn table_rebuilds_from_its_json() {
        let t = demo_table();
        let back = table_from_json(&table_to_json(&t)).expect("round trip");
        assert_eq!(back.to_string(), t.to_string());
        assert!(
            table_from_json(&Json::u64(3)).is_none(),
            "non-table JSON is rejected"
        );
    }

    #[test]
    fn study_manifest_is_deterministic_and_table_only() {
        let exps = vec![("Fig1".to_string(), vec![demo_table()])];
        let a = study_manifest_json(Scale::Tiny, &exps).to_string();
        let b = study_manifest_json(Scale::Tiny, &exps).to_string();
        assert_eq!(a, b, "same inputs render the same bytes");
        let doc = Json::parse(&a).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(STUDY_SCHEMA));
        // The crash-recovery diff depends on nothing run-dependent
        // leaking into this document.
        assert!(!a.contains("wall_us"));
        assert!(!a.contains("telemetry"));
    }

    #[test]
    fn study_manifest_writes_atomically() {
        let dir = std::env::temp_dir().join("rodinia-study-manifest-test");
        let _ = fs::remove_dir_all(&dir);
        let exps = vec![("Fig1".to_string(), vec![demo_table()])];
        let path = write_study_manifest(&dir, Scale::Tiny, &exps).expect("write");
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(STUDY_MANIFEST_FILE)
        );
        let text = fs::read_to_string(&path).expect("read");
        assert!(Json::parse(&text).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_kinds_are_distinct_and_resolvable() {
        for kind in ManifestKind::ALL {
            assert_eq!(ManifestKind::of_schema(kind.schema()), Some(kind));
        }
        assert_eq!(ManifestKind::of_schema("rodinia-repro.unknown/v9"), None);
        // File names are unique — two kinds never overwrite each other.
        let mut names: Vec<&str> = ManifestKind::ALL.iter().map(|k| k.file_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ManifestKind::ALL.len());
    }

    #[test]
    fn every_kind_round_trips_through_the_one_writer() {
        let dir =
            std::env::temp_dir().join(format!("rodinia-manifest-registry-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for kind in ManifestKind::ALL {
            let doc = Json::obj(vec![
                ("schema", Json::from(kind.schema())),
                ("scale", Json::from("tiny")),
            ]);
            let path = write_manifest(&dir, kind, &doc).expect("write");
            assert_eq!(
                path.file_name().and_then(|n| n.to_str()),
                Some(kind.file_name())
            );
            let text = fs::read_to_string(&path).expect("read back");
            let back = Json::parse(&text).expect("parses");
            // The registry recovers the kind from the document alone.
            let tag = back.get("schema").and_then(Json::as_str).expect("tag");
            assert_eq!(ManifestKind::of_schema(tag), Some(kind));
            assert_eq!(back, doc);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_rejects_a_mistagged_document() {
        let dir =
            std::env::temp_dir().join(format!("rodinia-manifest-mistag-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let doc = Json::obj(vec![("schema", Json::from(STUDY_SCHEMA))]);
        let err = write_manifest(&dir, ManifestKind::Bench, &doc).unwrap_err();
        assert!(matches!(err, StudyError::Registry { .. }), "{err}");
        assert!(
            !dir.join(MANIFEST_FILE).exists(),
            "nothing written on refusal"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_creates_directory_and_file() {
        let dir = std::env::temp_dir().join("rodinia-manifest-test");
        let _ = fs::remove_dir_all(&dir);
        let mut b = ManifestBuilder::new(Scale::Tiny, Arc::default());
        b.push_experiment("Demo", &[demo_table()], 1);
        let path = b.write(&dir).expect("write succeeds");
        let text = fs::read_to_string(&path).expect("file exists");
        assert!(Json::parse(&text).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
