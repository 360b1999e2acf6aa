//! Golden output digests: every answer the benchmark receives is checked
//! against `golden/digests.json`.
//!
//! A digest is `store::fnv1a64` over a canonical rendering:
//!
//! * an artifact — the JSON array of its tables as
//!   `manifest::table_to_json` writes them, so tables computed in process
//!   and tables parsed back out of a served study manifest digest alike;
//! * a `check`, `audit` or `analyze` body — the body re-serialized
//!   through `obs::Json`, with `check`'s `store` object removed: it is a
//!   snapshot of process-wide store counters, which depend on what the
//!   process did before, not on the answer.

use std::collections::BTreeMap;
use std::path::PathBuf;

use obs::Json;
use rodinia_study::experiments::ExperimentId;
use rodinia_study::manifest::table_to_json;
use rodinia_study::report::Table;
use rodinia_study::request::{execute, Quiet, StudyRequest, StudyResponse};
use rodinia_study::{Scale, StudyError, StudySession};
use store::fnv1a64;

use crate::mix::{scale_token, Ask, MAX_TOP_K};

const SCHEMA: &str = "repro-bench.golden/v1";

/// The committed digests, compiled in so a run never depends on its
/// working directory.
const COMMITTED: &str = include_str!("../golden/digests.json");

/// Where `bless` writes.
pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/digests.json")
}

/// Golden digests by key (`tiny/fig1`, `small/pb`, `tiny/check`,
/// `tiny/analyze-k3`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden(BTreeMap<String, u64>);

/// The golden key of one artifact at one scale.
fn artifact_key(scale: Scale, id: ExperimentId) -> String {
    format!("{}/{}", scale_token(scale), id.name())
}

/// The golden key of a non-tables answer at Tiny.
fn body_key(ask: &Ask) -> String {
    match ask {
        Ask::Check => "tiny/check".to_string(),
        Ask::Audit => "tiny/audit".to_string(),
        Ask::Analyze(k) => format!("tiny/analyze-k{k}"),
        Ask::Tables(..) => unreachable!("tables are checked per artifact"),
    }
}

/// Digest of a JSON array of tables in `table_to_json` form.
fn tables_json_digest(tables: &Json) -> u64 {
    fnv1a64(tables.to_string().as_bytes())
}

/// Digest of one artifact's tables.
fn artifact_digest(tables: &[Table]) -> u64 {
    tables_json_digest(&Json::from(
        tables.iter().map(table_to_json).collect::<Vec<_>>(),
    ))
}

/// Digest of a non-tables body, canonicalized as the module docs say.
fn body_digest(ask: &Ask, body: &Json) -> u64 {
    let canonical = match (ask, body) {
        (Ask::Check, Json::Obj(pairs)) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "store")
                .cloned()
                .collect(),
        ),
        _ => body.clone(),
    };
    fnv1a64(canonical.to_string().as_bytes())
}

impl Golden {
    /// The committed digests.
    ///
    /// # Errors
    ///
    /// A message if the committed file does not parse.
    pub fn committed() -> Result<Golden, String> {
        let doc = Json::parse(COMMITTED).map_err(|e| format!("golden digests: {e}"))?;
        let entries = doc
            .get("entries")
            .and_then(Json::as_obj)
            .ok_or("golden digests: no \"entries\" object")?;
        let mut map = BTreeMap::new();
        for (key, value) in entries {
            let digest = value
                .as_str()
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("golden digests: {key} is not a hex digest"))?;
            map.insert(key.clone(), digest);
        }
        Ok(Golden(map))
    }

    fn expect(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.0.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!("{key}: digest {digest:016x}, golden {want:016x}")),
            None => Err(format!("{key}: no golden digest")),
        }
    }

    /// Checks one artifact's tables computed in process.
    ///
    /// # Errors
    ///
    /// A message naming the artifact on a mismatch.
    pub fn check_tables(
        &self,
        scale: Scale,
        id: ExperimentId,
        tables: &[Table],
    ) -> Result<(), String> {
        self.expect(&artifact_key(scale, id), artifact_digest(tables))
    }

    /// Checks a served (or in-process rendered) response body against
    /// what `ask` requested.
    ///
    /// # Errors
    ///
    /// A message on unparsable bodies, missing or reordered artifacts,
    /// or any digest mismatch.
    pub fn check_body(&self, ask: &Ask, body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| format!("response: {e}"))?;
        let Ask::Tables(scale, ids) = ask else {
            return self.expect(&body_key(ask), body_digest(ask, &doc));
        };
        let experiments = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or("response has no experiments array")?;
        if experiments.len() != ids.len() {
            return Err(format!(
                "{} experiments for {} artifacts",
                experiments.len(),
                ids.len()
            ));
        }
        for (exp, id) in experiments.iter().zip(ids) {
            if exp.get("id").and_then(Json::as_str) != Some(id.name()) {
                return Err(format!("expected {} next in the response", id.name()));
            }
            let tables = exp.get("tables").ok_or("experiment without tables")?;
            self.expect(&artifact_key(*scale, *id), tables_json_digest(tables))?;
        }
        Ok(())
    }
}

/// Recomputes every golden digest: the 18 artifacts at Tiny and at
/// Small, and the `check`, `audit` and `analyze` (every `top_k` the
/// request mix sends) bodies at Tiny.
///
/// # Errors
///
/// Any error a study request returns.
pub fn compute(jobs: usize) -> Result<Golden, StudyError> {
    let mut map = BTreeMap::new();
    for scale in [Scale::Tiny, Scale::Small] {
        let session = StudySession::new(jobs);
        let resp = execute(
            &session,
            &StudyRequest::tables(ExperimentId::all(), scale),
            &mut Quiet,
        )?;
        let StudyResponse::Tables { completed, .. } = resp else {
            unreachable!("a tables request answers with tables")
        };
        for (name, tables) in &completed {
            let id = ExperimentId::parse(name).expect("execute names registry artifacts");
            map.insert(artifact_key(scale, id), artifact_digest(tables));
        }
    }
    let session = StudySession::new(jobs);
    let asks = [Ask::Check, Ask::Audit]
        .into_iter()
        .chain((1..=MAX_TOP_K).map(Ask::Analyze));
    for ask in asks {
        let req = crate::mix::Request::new(ask.clone()).study_request();
        let body = execute(&session, &req, &mut Quiet)?.body_json();
        map.insert(body_key(&ask), body_digest(&ask, &body));
    }
    Ok(Golden(map))
}

impl Golden {
    /// The `digests.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::from(SCHEMA)),
            (
                "digest",
                Json::from("store::fnv1a64 over canonical obs::Json text; see src/golden.rs"),
            ),
            (
                "entries",
                Json::Obj(
                    self.0
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(format!("{v:016x}"))))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &StudySession, ask: &Ask) -> StudyResponse {
        let req = crate::mix::Request::new(ask.clone()).study_request();
        execute(session, &req, &mut Quiet).expect("tiny request runs")
    }

    #[test]
    fn committed_digests_cover_every_key() {
        let golden = Golden::committed().expect("committed file parses");
        for scale in [Scale::Tiny, Scale::Small] {
            for id in ExperimentId::all() {
                assert!(
                    golden.0.contains_key(&artifact_key(scale, id)),
                    "{scale:?} {id:?}"
                );
            }
        }
        for k in 1..=MAX_TOP_K {
            assert!(golden.0.contains_key(&body_key(&Ask::Analyze(k))));
        }
        assert!(golden.0.contains_key("tiny/check") && golden.0.contains_key("tiny/audit"));
    }

    #[test]
    fn served_and_in_process_tables_digest_alike() {
        let golden = Golden::committed().expect("committed file parses");
        let session = StudySession::sequential();
        let ask = Ask::Tables(
            Scale::Tiny,
            vec![ExperimentId::Table3, ExperimentId::Table1],
        );
        let resp = run(&session, &ask);
        let StudyResponse::Tables { completed, .. } = &resp else {
            panic!("tables request answers with tables")
        };
        for (name, tables) in completed {
            let id = ExperimentId::parse(name).expect("registry name");
            golden
                .check_tables(Scale::Tiny, id, tables)
                .expect("in-process tables match");
        }
        golden
            .check_body(&ask, &resp.body_bytes())
            .expect("rendered body matches");
        // Asking for them in the other order is a different answer.
        let swapped = Ask::Tables(
            Scale::Tiny,
            vec![ExperimentId::Table1, ExperimentId::Table3],
        );
        assert!(golden.check_body(&swapped, &resp.body_bytes()).is_err());
        // Tiny tables are not the Small answer.
        let small = Ask::Tables(
            Scale::Small,
            vec![ExperimentId::Table3, ExperimentId::Table1],
        );
        assert!(golden.check_body(&small, &resp.body_bytes()).is_err());
    }

    #[test]
    fn check_digest_ignores_process_store_counters() {
        let body = |hits: u64| {
            Json::obj(vec![
                ("scale", Json::from("Tiny")),
                ("errors", Json::u64(0)),
                ("store", Json::obj(vec![("hit", Json::u64(hits))])),
            ])
        };
        assert_eq!(
            body_digest(&Ask::Check, &body(0)),
            body_digest(&Ask::Check, &body(9))
        );
        assert_ne!(
            body_digest(&Ask::Audit, &body(0)),
            body_digest(&Ask::Audit, &body(9))
        );
    }

    #[test]
    fn one_flipped_table_cell_fails_the_check() {
        let golden = Golden::committed().expect("committed file parses");
        let session = StudySession::sequential();
        let ask = Ask::Tables(Scale::Tiny, vec![ExperimentId::Table2]);
        let resp = run(&session, &ask);
        let body = String::from_utf8(resp.body_bytes()).expect("utf-8");
        golden
            .check_body(&ask, body.as_bytes())
            .expect("untouched body passes");
        let StudyResponse::Tables { completed, .. } = &resp else {
            panic!("tables request answers with tables")
        };
        let cell = &completed[0].1[0].rows[0][1];
        let flipped = body.replacen(&format!("\"{cell}\""), &format!("\"{cell}0\""), 1);
        assert_ne!(flipped, body, "the cell occurs in the body");
        let err = golden.check_body(&ask, flipped.as_bytes()).unwrap_err();
        assert!(err.contains("tiny/table2"), "{err}");
        let mut tables = completed[0].1.clone();
        tables[0].rows[0][1].push('0');
        assert!(golden
            .check_tables(Scale::Tiny, ExperimentId::Table2, &tables)
            .is_err());
    }

    #[test]
    fn analyze_answers_check_against_their_own_depth() {
        let golden = Golden::committed().expect("committed file parses");
        let session = StudySession::sequential();
        let resp = run(&session, &Ask::Analyze(2));
        golden
            .check_body(&Ask::Analyze(2), &resp.body_bytes())
            .expect("k=2 matches");
        assert!(golden
            .check_body(&Ask::Analyze(3), &resp.body_bytes())
            .is_err());
    }
}
