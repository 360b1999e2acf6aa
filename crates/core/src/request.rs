//! The unified typed request API: one [`StudyRequest`] →
//! [`StudyResponse`] pipeline behind every front end.
//!
//! Both the `repro` CLI argument parser and the `repro serve` JSON
//! decoder lower into a [`StudyRequest`]; [`execute`] is the single
//! implementation of "run a study" — journal restore, corpus
//! profiling, per-experiment checkpointing, and the deterministic
//! study-manifest write all live here, so a request is answered
//! byte-identically no matter which front end carried it.
//!
//! The JSON grammar accepted by [`StudyRequest::from_json`] (the
//! `POST /study` body of the daemon):
//!
//! ```text
//! {
//!   "command":     "tables" | "check" | "audit" | "analyze", // default "tables"
//!   "artifacts":   "all" | ["fig1", "table3", ...],  // tables only
//!   "scale":       "tiny" | "small" | "paper",       // default "small"
//!   "jobs":        4,                                // optional hint
//!   "sim_threads": 4,                                // optional hint
//!   "top_k":       3                                 // analyze only
//! }
//! ```
//!
//! Unknown fields are rejected, as are a repeated `command`,
//! `artifacts` next to a non-tables command, `top_k` outside analyze
//! (the CLI lowers through the same [`StudyCommand::from_parts`]), and
//! `store`/`resume` — the daemon owns its store; durability is a
//! deployment property of the session, not of one request. `jobs` and
//! `sim_threads` are deliberately **not** part of
//! [`StudyRequest::study_key`]: results are byte-identical at any
//! worker width of either pool (`jobs` parallelizes across replays,
//! `sim_threads` across the launches inside one — see
//! `rodinia_study::engine`), so requests differing only in those hints
//! are the same study and may coalesce.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use datasets::Scale;
use obs::Json;
use store::{fnv1a64, Journal};

use crate::analyze::{run_analyze, DEFAULT_TOP_K};
use crate::audit::run_audit;
use crate::check::run_check;
use crate::engine::StudySession;
use crate::error::StudyError;
use crate::experiments::ExperimentId;
use crate::manifest;
use crate::report::Table;

/// Process exit code for request misuse (bad flags, unknown artifacts,
/// `--resume` without `--store`), matching UNIX convention.
pub const EXIT_MISUSE: i32 = 2;

/// What a request asks the study engine to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyCommand {
    /// Regenerate paper artifacts (`repro fig1 table3 ...`).
    Tables {
        /// The requested artifacts, in request order.
        artifacts: Vec<ExperimentId>,
    },
    /// Run the sanitizer over the whole suite (`repro check`).
    Check,
    /// Prove symbolic access contracts over the whole suite
    /// (`repro audit`).
    Audit,
    /// Critical-path attribution across the suite (`repro analyze`).
    Analyze {
        /// Per-benchmark bottleneck chain depth.
        top_k: usize,
    },
}

/// One fully-typed study request, front-end agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyRequest {
    /// What to run.
    pub command: StudyCommand,
    /// Input scale.
    pub scale: Scale,
    /// Worker-pool width hint (`None` = keep the session's width).
    pub jobs: Option<usize>,
    /// Intra-replay worker-count hint (`None` = keep the current
    /// setting; `0` = auto). Like `jobs`, a pure wall-clock knob.
    pub sim_threads: Option<usize>,
    /// Persistent store directory the caller asked for, if any. Only
    /// meaningful on the CLI path; [`execute`] itself uses whatever
    /// store is attached to the session.
    pub store: Option<PathBuf>,
    /// Replay the study journal before running (requires `store`).
    pub resume: bool,
}

/// Request-level misuse: everything here exits with [`EXIT_MISUSE`] on
/// the CLI and maps to HTTP 400 on the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// `--resume` given without `--store`.
    ResumeWithoutStore,
    /// A tables request naming no artifacts.
    NoArtifacts,
    /// A second command in one request (`repro check audit`, or a
    /// repeated `"command"` field).
    RepeatedCommand,
    /// An artifact name the registry does not know.
    UnknownArtifact(String),
    /// A scale token other than tiny/small/paper.
    UnknownScale(String),
    /// A JSON request field outside the grammar.
    UnknownField(String),
    /// Any other shape violation, with a fixed message.
    Malformed(&'static str),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::ResumeWithoutStore => write!(f, "--resume requires --store <dir>"),
            RequestError::NoArtifacts => write!(f, "no artifacts requested; try `repro list`"),
            RequestError::RepeatedCommand => {
                write!(
                    f,
                    "a request takes one command: tables, check, audit, or analyze"
                )
            }
            RequestError::UnknownArtifact(name) => {
                write!(f, "unknown artifact {name:?}; try `repro list`")
            }
            RequestError::UnknownScale(s) => {
                write!(f, "unknown scale {s:?}; expected tiny, small, or paper")
            }
            RequestError::UnknownField(k) => write!(f, "unknown request field {k:?}"),
            RequestError::Malformed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Parses a scale token (`tiny`/`small`/`paper`, the same words the
/// CLI accepts as positionals).
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

fn as_count(v: &Json, msg: &'static str) -> Result<usize, RequestError> {
    let n = v.as_f64().ok_or(RequestError::Malformed(msg))?;
    if n < 0.0 || n.fract() != 0.0 || n > f64::from(u32::MAX) {
        return Err(RequestError::Malformed(msg));
    }
    Ok(n as usize)
}

impl StudyCommand {
    /// Lowers a front end's command word (`None` = tables), artifact
    /// list and `top_k` into a command. Both the CLI and
    /// [`StudyRequest::from_json`] go through here, so they reject the
    /// same combinations with the same messages.
    ///
    /// # Errors
    ///
    /// [`RequestError::Malformed`] for an unknown command word, a
    /// tables request without artifacts, artifacts next to another
    /// command, or `top_k` outside analyze.
    pub fn from_parts(
        verb: Option<&str>,
        artifacts: Option<Vec<ExperimentId>>,
        top_k: Option<usize>,
    ) -> Result<StudyCommand, RequestError> {
        let command = match (verb.unwrap_or("tables"), artifacts) {
            ("tables", Some(artifacts)) => StudyCommand::Tables { artifacts },
            ("tables", None) => {
                return Err(RequestError::Malformed(
                    "tables requests need an \"artifacts\" field",
                ))
            }
            (_, Some(_)) => {
                return Err(RequestError::Malformed(
                    "\"artifacts\" only applies to tables requests",
                ))
            }
            ("check", None) => StudyCommand::Check,
            ("audit", None) => StudyCommand::Audit,
            ("analyze", None) => StudyCommand::Analyze {
                top_k: top_k.unwrap_or(DEFAULT_TOP_K),
            },
            _ => {
                return Err(RequestError::Malformed(
                    "\"command\" must be \"tables\", \"check\", \"audit\", or \"analyze\"",
                ))
            }
        };
        if top_k.is_some() && !matches!(command, StudyCommand::Analyze { .. }) {
            return Err(RequestError::Malformed(
                "\"top_k\" only applies to analyze requests",
            ));
        }
        Ok(command)
    }
}

impl StudyRequest {
    /// A plain tables request with defaults everywhere else.
    pub fn tables(artifacts: Vec<ExperimentId>, scale: Scale) -> StudyRequest {
        StudyRequest {
            command: StudyCommand::Tables { artifacts },
            scale,
            jobs: None,
            sim_threads: None,
            store: None,
            resume: false,
        }
    }

    /// Checks cross-field invariants. Every violation is misuse
    /// ([`EXIT_MISUSE`] / HTTP 400), shared verbatim by both front
    /// ends so their diagnostics cannot drift apart.
    ///
    /// # Errors
    ///
    /// [`RequestError`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), RequestError> {
        if self.resume && self.store.is_none() {
            return Err(RequestError::ResumeWithoutStore);
        }
        match &self.command {
            StudyCommand::Tables { artifacts } if artifacts.is_empty() => {
                Err(RequestError::NoArtifacts)
            }
            StudyCommand::Analyze { top_k } if *top_k == 0 => {
                Err(RequestError::Malformed("top_k must be at least 1"))
            }
            _ => Ok(()),
        }
    }

    /// The canonical identity of this request: what the study journal
    /// binds to and what the daemon coalesces identical in-flight
    /// requests on. `jobs` and `sim_threads` are excluded — neither
    /// worker width changes results — and so are `store`/`resume`,
    /// which are durability deployment knobs, not study inputs.
    pub fn study_key(&self) -> String {
        match &self.command {
            StudyCommand::Tables { artifacts } => format!(
                "repro/{:?}/{}",
                self.scale,
                artifacts
                    .iter()
                    .map(|id| id.name())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            StudyCommand::Check => format!("check/{:?}", self.scale),
            StudyCommand::Audit => format!("audit/{:?}", self.scale),
            StudyCommand::Analyze { top_k } => format!("analyze/{:?}/k{top_k}", self.scale),
        }
    }

    /// Decodes the `POST /study` JSON body (grammar in the module
    /// docs). Strict: unknown fields are errors, and `store`/`resume`
    /// are rejected explicitly — the daemon owns its store.
    ///
    /// # Errors
    ///
    /// [`RequestError`] describing the first violation encountered.
    pub fn from_json(doc: &Json) -> Result<StudyRequest, RequestError> {
        let pairs = doc.as_obj().ok_or(RequestError::Malformed(
            "request body must be a JSON object",
        ))?;
        let mut command: Option<&str> = None;
        let mut artifacts: Option<Vec<ExperimentId>> = None;
        let mut scale = Scale::Small;
        let mut jobs: Option<usize> = None;
        let mut sim_threads: Option<usize> = None;
        let mut top_k: Option<usize> = None;
        for (key, value) in pairs {
            match key.as_str() {
                "command" => {
                    if command.is_some() {
                        return Err(RequestError::RepeatedCommand);
                    }
                    command = Some(
                        value
                            .as_str()
                            .ok_or(RequestError::Malformed("\"command\" must be a string"))?,
                    );
                }
                "scale" => {
                    let s = value
                        .as_str()
                        .ok_or(RequestError::Malformed("\"scale\" must be a string"))?;
                    scale =
                        parse_scale(s).ok_or_else(|| RequestError::UnknownScale(s.to_string()))?;
                }
                "artifacts" => {
                    if value.as_str() == Some("all") {
                        artifacts = Some(ExperimentId::all());
                    } else {
                        let arr = value.as_arr().ok_or(RequestError::Malformed(
                            "\"artifacts\" must be \"all\" or an array of artifact names",
                        ))?;
                        let mut ids = Vec::with_capacity(arr.len());
                        for v in arr {
                            let name = v.as_str().ok_or(RequestError::Malformed(
                                "\"artifacts\" entries must be strings",
                            ))?;
                            ids.push(
                                ExperimentId::parse(name).ok_or_else(|| {
                                    RequestError::UnknownArtifact(name.to_string())
                                })?,
                            );
                        }
                        artifacts = Some(ids);
                    }
                }
                "jobs" => {
                    jobs = Some(as_count(value, "\"jobs\" must be a non-negative integer")?);
                }
                "sim_threads" => {
                    sim_threads = Some(as_count(
                        value,
                        "\"sim_threads\" must be a non-negative integer",
                    )?);
                }
                "top_k" => {
                    top_k = Some(as_count(value, "\"top_k\" must be a non-negative integer")?);
                }
                "store" | "resume" => return Err(RequestError::Malformed(
                    "the daemon owns the store; \"store\" and \"resume\" are not request fields",
                )),
                other => return Err(RequestError::UnknownField(other.to_string())),
            }
        }
        let command = StudyCommand::from_parts(command, artifacts, top_k)?;
        Ok(StudyRequest {
            command,
            scale,
            jobs,
            sim_threads,
            store: None,
            resume: false,
        })
    }
}

/// A suite-wide verdict — [`CheckReport`](crate::check::CheckReport),
/// [`AuditReport`](crate::audit::AuditReport) or
/// [`AnalyzeReport`](crate::analyze::AnalyzeReport) — as the front ends
/// present it: the daemon answers with [`Verdict::body_json`], the CLI
/// prints the summary table and console lines, writes the report with
/// `--json`, and exits with the error count's verdict.
pub trait Verdict: std::fmt::Debug + Send + Sync {
    /// Name of the verdict's section in `BENCH_manifest.json` (and, for
    /// check and audit, in the store's `STUDY_manifest.json`).
    fn section(&self) -> &'static str;

    /// The summary table: one row per benchmark.
    ///
    /// # Errors
    ///
    /// [`StudyError::TableRow`] only on an internal width bug.
    fn summary_table(&self) -> Result<Table, StudyError>;

    /// The console lines printed after the summary table.
    fn console_lines(&self) -> Vec<String>;

    /// Error-severity findings; nonzero fails the CLI run. A verdict
    /// that measures rather than gates keeps the default, 0.
    fn error_count(&self) -> usize {
        0
    }

    /// The machine-readable report: the daemon's response body and the
    /// bytes [`Verdict::write`] puts on disk.
    fn body_json(&self) -> Json;

    /// A compact summary for embedding as a manifest section.
    fn manifest_section(&self) -> Json;

    /// Writes the report into `dir` (atomic, creating `dir` if needed)
    /// and returns the written path.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] if the directory cannot be created or the
    /// file cannot be written.
    fn write(&self, dir: &Path) -> Result<PathBuf, StudyError>;
}

/// What [`execute`] produced, carrying the typed results so front ends
/// can render them their own way while the machine-readable body stays
/// shared.
#[derive(Debug)]
pub enum StudyResponse {
    /// A tables run: every requested artifact with its rendered tables,
    /// in request order.
    Tables {
        /// Scale the study ran at.
        scale: Scale,
        /// `(artifact name, tables)` per completed experiment.
        completed: Vec<(String, Vec<Table>)>,
    },
    /// A `check`, `audit` or `analyze` run.
    Verdict(Box<dyn Verdict>),
}

impl StudyResponse {
    /// The machine-readable response document. For tables this is
    /// exactly [`manifest::study_manifest_json`] — the daemon's
    /// response body and the CLI's `STUDY_manifest.json` are the same
    /// bytes by construction.
    pub fn body_json(&self) -> Json {
        match self {
            StudyResponse::Tables { scale, completed } => {
                manifest::study_manifest_json(*scale, completed)
            }
            StudyResponse::Verdict(v) => v.body_json(),
        }
    }

    /// [`StudyResponse::body_json`] rendered with a trailing newline —
    /// byte-identical to the file the corresponding manifest writer
    /// produces.
    pub fn body_bytes(&self) -> Vec<u8> {
        format!("{}\n", self.body_json()).into_bytes()
    }

    /// The CLI exit code this result maps to: nonzero only for a
    /// verdict with error-severity findings.
    pub fn exit_code(&self) -> i32 {
        match self {
            StudyResponse::Tables { .. } => 0,
            StudyResponse::Verdict(v) => i32::from(v.error_count() > 0),
        }
    }
}

/// Progress callbacks during [`execute`]: the CLI prints tables and
/// accumulates its run manifest here; the daemon stays [`Quiet`].
pub trait RequestObserver {
    /// A human-facing progress or warning line (CLI: stderr).
    fn note(&mut self, line: &str) {
        let _ = line;
    }

    /// One experiment finished (freshly computed or journal-restored)
    /// with its rendered tables and wall-clock duration.
    fn experiment_done(&mut self, id: &str, tables: &[Table], wall_us: u64, restored: bool) {
        let _ = (id, tables, wall_us, restored);
    }
}

/// The no-op observer (used by the daemon).
#[derive(Debug, Default)]
pub struct Quiet;

impl RequestObserver for Quiet {}

/// Embeds a check/audit verdict as a named section of the store's
/// `STUDY_manifest.json`, so the serve daemon (which exposes the study
/// manifest) surfaces sanitizer status alongside the tables.
///
/// An existing manifest is updated in place — its experiments survive,
/// only the named section is replaced — so a `check` after a tables
/// run augments rather than clobbers. Without a store this is a no-op;
/// a write failure costs the artifact, never the response.
fn write_verdict_section(
    session: &StudySession,
    scale: Scale,
    verdict: &dyn Verdict,
    observer: &mut dyn RequestObserver,
) {
    let Some(s) = session.store() else { return };
    let (name, payload) = (verdict.section(), verdict.manifest_section());
    let doc = match std::fs::read_to_string(s.dir().join(manifest::STUDY_MANIFEST_FILE))
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    {
        Some(Json::Obj(mut pairs)) => {
            match pairs.iter_mut().find(|(k, _)| k == name) {
                Some(p) => p.1 = payload,
                None => pairs.push((name.to_string(), payload)),
            }
            Json::Obj(pairs)
        }
        _ => {
            manifest::study_manifest_json_with_sections(scale, &[], &[(name.to_string(), payload)])
        }
    };
    match manifest::write_manifest(s.dir(), manifest::ManifestKind::Study, &doc) {
        Ok(path) => observer.note(&format!("wrote study manifest {}", path.display())),
        Err(e) => observer.note(&format!("store: {e}")),
    }
}

/// Runs a validated [`StudyRequest`] on `session` — the one
/// implementation behind both front ends.
///
/// For tables requests this owns the full study lifecycle: the study
/// journal is opened against [`StudyRequest::study_key`] (restoring
/// completed experiments when `resume` is set), every other experiment
/// comes from the session's memo ([`StudySession::tables`], computed
/// at most once per session, the comparison corpus first if any
/// artifact needs it) and is checkpointed in this request's journal,
/// and — when the session has a store attached — the deterministic
/// `STUDY_manifest.json` is written next to it. `check`, `audit` and
/// `analyze` answer with a [`Verdict`]; check and audit also embed
/// theirs as a section of the store's study manifest. Per-request `jobs` /
/// `sim_threads` hints resize the session's worker pool and the
/// intra-replay worker count; results are byte-identical at any width
/// of either.
///
/// # Errors
///
/// Any [`StudyError`] from the drivers; the caller decides how to
/// render it (CLI: exit 1, daemon: HTTP 500).
pub fn execute(
    session: &StudySession,
    req: &StudyRequest,
    observer: &mut dyn RequestObserver,
) -> Result<StudyResponse, StudyError> {
    if let Some(n) = req.jobs {
        session.set_jobs(n);
    }
    if let Some(n) = req.sim_threads {
        session.set_sim_threads(n);
    }
    let artifacts = match &req.command {
        StudyCommand::Check => {
            let report = run_check(session, req.scale)?;
            write_verdict_section(session, req.scale, &report, observer);
            return Ok(StudyResponse::Verdict(Box::new(report)));
        }
        StudyCommand::Audit => {
            let report = run_audit(session, req.scale)?;
            write_verdict_section(session, req.scale, &report, observer);
            return Ok(StudyResponse::Verdict(Box::new(report)));
        }
        StudyCommand::Analyze { top_k } => {
            let report = run_analyze(session, req.scale, *top_k)?;
            return Ok(StudyResponse::Verdict(Box::new(report)));
        }
        StudyCommand::Tables { artifacts } => artifacts,
    };
    // The study journal checkpoints whole experiments (id + rendered
    // tables). With resume, completed experiments restore from it and
    // skip recomputation entirely; the sweep-level journal inside the
    // sensitivity driver resumes partially-finished experiments.
    let study_key = req.study_key();
    let mut restored: HashMap<&'static str, Vec<Table>> = HashMap::new();
    let journal = session.store().and_then(|s| {
        let name = format!("study-{:016x}.journal", fnv1a64(study_key.as_bytes()));
        match Journal::open(&s.journal_path(&name), &study_key, req.resume) {
            Ok((j, records)) => {
                for r in records {
                    let Some(id) = r.get("id").and_then(Json::as_str) else {
                        continue;
                    };
                    let Some(doc) = r.get("tables").and_then(Json::as_arr) else {
                        continue;
                    };
                    let Some(tables) = doc
                        .iter()
                        .map(manifest::table_from_json)
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    if let Some(&known) = artifacts.iter().find(|k| k.name() == id) {
                        restored.insert(known.name(), tables);
                    }
                }
                Some(j)
            }
            Err(e) => {
                observer.note(&format!(
                    "store: study journal unavailable ({e}); running without experiment checkpoints"
                ));
                None
            }
        }
    });
    // The corpus is built (once per session) before any experiment, so
    // it profiles with the whole worker pool.
    if artifacts
        .iter()
        .any(|&id| id.needs_corpus() && !restored.contains_key(id.name()))
    {
        observer.note("profiling the 24-workload comparison corpus (once per session) ...");
        session.corpus(req.scale)?;
    }
    let mut completed: Vec<(String, Vec<Table>)> = Vec::new();
    for &id in artifacts {
        let start = Instant::now();
        let (tables, was_restored) = if let Some(t) = restored.remove(id.name()) {
            observer.note(&format!("{}: restored from study journal", id.name()));
            (t, true)
        } else {
            // Computed once per session; a memo hit is still
            // checkpointed in this request's own journal.
            let tables = session.tables(id, req.scale)?.to_vec();
            if let Some(j) = &journal {
                let record = Json::obj(vec![
                    ("id", Json::from(id.name())),
                    (
                        "tables",
                        Json::from(
                            tables
                                .iter()
                                .map(manifest::table_to_json)
                                .collect::<Vec<_>>(),
                        ),
                    ),
                ]);
                if let Err(e) = j.append(&record) {
                    observer.note(&format!("store: cannot checkpoint {}: {e}", id.name()));
                }
            }
            (tables, false)
        };
        observer.experiment_done(
            id.name(),
            &tables,
            start.elapsed().as_micros() as u64,
            was_restored,
        );
        completed.push((id.name().to_string(), tables));
    }
    // The deterministic study manifest rides along with the store: pure
    // tables, no timings, so an interrupted-and-resumed run's file is
    // byte-identical to an uninterrupted one (the CI crash-recovery
    // gate diffs exactly this). A write failure costs the artifact,
    // never the response.
    if let Some(s) = session.store() {
        match manifest::write_study_manifest(s.dir(), req.scale, &completed) {
            Ok(path) => observer.note(&format!("wrote study manifest {}", path.display())),
            Err(e) => observer.note(&format!("store: {e}")),
        }
    }
    Ok(StudyResponse::Tables {
        scale: req.scale,
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_req(body: &str) -> Result<StudyRequest, RequestError> {
        StudyRequest::from_json(&Json::parse(body).expect("test body parses"))
    }

    #[test]
    fn resume_without_store_is_misuse() {
        let mut req = StudyRequest::tables(vec![ExperimentId::Fig1], Scale::Tiny);
        req.resume = true;
        assert_eq!(req.validate(), Err(RequestError::ResumeWithoutStore));
        assert!(RequestError::ResumeWithoutStore
            .to_string()
            .contains("--resume requires --store"));
        req.store = Some(PathBuf::from("/tmp/store"));
        assert_eq!(req.validate(), Ok(()));
    }

    #[test]
    fn empty_artifact_list_is_misuse() {
        let req = StudyRequest::tables(Vec::new(), Scale::Small);
        assert_eq!(req.validate(), Err(RequestError::NoArtifacts));
    }

    #[test]
    fn study_key_spells_artifacts_and_ignores_jobs() {
        let mut req = StudyRequest::tables(
            vec![ExperimentId::PlackettBurman, ExperimentId::Fig1],
            Scale::Tiny,
        );
        assert_eq!(req.study_key(), "repro/Tiny/pb+fig1");
        req.jobs = Some(8);
        assert_eq!(
            req.study_key(),
            "repro/Tiny/pb+fig1",
            "jobs never changes identity"
        );
        req.sim_threads = Some(4);
        assert_eq!(
            req.study_key(),
            "repro/Tiny/pb+fig1",
            "sim_threads never changes identity"
        );
        req.command = StudyCommand::Analyze { top_k: 5 };
        assert_eq!(req.study_key(), "analyze/Tiny/k5");
        req.command = StudyCommand::Check;
        assert_eq!(req.study_key(), "check/Tiny");
        req.command = StudyCommand::Audit;
        assert_eq!(req.study_key(), "audit/Tiny");
    }

    #[test]
    fn json_grammar_round_trips_a_tables_request() {
        let req =
            parse_req(r#"{"artifacts":["fig1","pb"],"scale":"tiny","jobs":4,"sim_threads":2}"#)
                .expect("valid request");
        assert_eq!(
            req.command,
            StudyCommand::Tables {
                artifacts: vec![ExperimentId::Fig1, ExperimentId::PlackettBurman]
            }
        );
        assert_eq!(req.scale, Scale::Tiny);
        assert_eq!(req.jobs, Some(4));
        assert_eq!(req.sim_threads, Some(2));
        assert!(!req.resume);
        assert_eq!(req.validate(), Ok(()));

        let all = parse_req(r#"{"artifacts":"all"}"#).expect("all");
        assert_eq!(
            all.command,
            StudyCommand::Tables {
                artifacts: ExperimentId::all()
            }
        );
        assert_eq!(all.scale, Scale::Small, "scale defaults to small");
    }

    #[test]
    fn json_grammar_covers_check_and_analyze() {
        let check = parse_req(r#"{"command":"check","scale":"paper"}"#).expect("check");
        assert_eq!(check.command, StudyCommand::Check);
        assert_eq!(check.scale, Scale::Paper);
        let analyze = parse_req(r#"{"command":"analyze","top_k":5}"#).expect("analyze");
        assert_eq!(analyze.command, StudyCommand::Analyze { top_k: 5 });
        let analyze = parse_req(r#"{"command":"analyze"}"#).expect("default top_k");
        assert_eq!(
            analyze.command,
            StudyCommand::Analyze {
                top_k: DEFAULT_TOP_K
            }
        );
        let audit = parse_req(r#"{"command":"audit","scale":"tiny"}"#).expect("audit");
        assert_eq!(audit.command, StudyCommand::Audit);
        assert_eq!(audit.scale, Scale::Tiny);
        assert!(matches!(
            parse_req(r#"{"command":"audit","top_k":2}"#),
            Err(RequestError::Malformed(m)) if m.contains("top_k")
        ));
    }

    #[test]
    fn json_grammar_is_strict() {
        assert!(matches!(
            parse_req(r#"{"artifacts":["fig99"]}"#),
            Err(RequestError::UnknownArtifact(n)) if n == "fig99"
        ));
        assert!(matches!(
            parse_req(r#"{"artifacts":["fig1"],"scale":"huge"}"#),
            Err(RequestError::UnknownScale(_))
        ));
        assert!(matches!(
            parse_req(r#"{"artifacts":["fig1"],"color":"red"}"#),
            Err(RequestError::UnknownField(k)) if k == "color"
        ));
        assert!(matches!(
            parse_req(r#"{"artifacts":["fig1"],"store":"/tmp/s"}"#),
            Err(RequestError::Malformed(m)) if m.contains("daemon owns the store")
        ));
        assert!(matches!(
            parse_req(r#"{"command":"check","artifacts":["fig1"]}"#),
            Err(RequestError::Malformed(_))
        ));
        assert_eq!(
            parse_req(r#"{"command":"check","command":"audit"}"#),
            Err(RequestError::RepeatedCommand)
        );
        assert!(matches!(
            parse_req(r#"{"artifacts":["fig1"],"top_k":2}"#),
            Err(RequestError::Malformed(m)) if m.contains("top_k")
        ));
        assert!(matches!(
            parse_req(r#"{"artifacts":["fig1"],"jobs":1.5}"#),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse_req(r#"{"artifacts":["fig1"],"sim_threads":-1}"#),
            Err(RequestError::Malformed(m)) if m.contains("sim_threads")
        ));
        assert!(matches!(parse_req("[]"), Err(RequestError::Malformed(_))));
        assert!(matches!(parse_req("{}"), Err(RequestError::Malformed(_))));
    }

    #[test]
    fn execute_tables_body_is_the_study_manifest() {
        let session = StudySession::sequential();
        let req = StudyRequest::tables(
            vec![ExperimentId::Table1, ExperimentId::Table5],
            Scale::Tiny,
        );
        let resp = execute(&session, &req, &mut Quiet).expect("cheap tables run");
        let body = resp.body_bytes();
        let text = String::from_utf8(body.clone()).expect("utf-8");
        assert!(text.ends_with('\n'));
        let doc = Json::parse(&text).expect("parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(manifest::STUDY_SCHEMA)
        );
        // Byte-identical to what the manifest builder would serialize.
        let StudyResponse::Tables { scale, completed } = &resp else {
            panic!("tables request returns a tables response");
        };
        assert_eq!(
            body,
            format!("{}\n", manifest::study_manifest_json(*scale, completed)).into_bytes()
        );
        assert_eq!(resp.exit_code(), 0);
    }

    #[test]
    fn execute_applies_the_jobs_and_sim_threads_hints() {
        let session = StudySession::sequential();
        let mut req = StudyRequest::tables(vec![ExperimentId::Table2], Scale::Tiny);
        req.jobs = Some(3);
        req.sim_threads = Some(2);
        execute(&session, &req, &mut Quiet).expect("runs");
        assert_eq!(session.jobs(), 3);
        assert_eq!(session.sim_threads(), 2);
        // The hints are the session's own.
        assert_eq!(StudySession::sequential().sim_threads(), 1);
    }
}
