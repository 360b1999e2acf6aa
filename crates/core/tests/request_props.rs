//! Property tests on the request front end the daemon runs on every
//! `POST /study` body: bytes → UTF-8 → [`Json::parse`] →
//! [`StudyRequest::from_json`] → [`StudyRequest::validate`]. Any byte
//! string — random bytes, or a valid body with one byte flipped,
//! dropped, or inserted — ends in `Ok` or a typed error at some stage
//! and never panics.

use obs::Json;
use proptest::prelude::*;
use rodinia_study::request::StudyRequest;

/// Valid bodies covering every command and field of the grammar.
const BODIES: [&str; 6] = [
    r#"{"artifacts":["fig1","pb"],"scale":"tiny","jobs":4,"sim_threads":2}"#,
    r#"{"artifacts":"all"}"#,
    r#"{"command":"check","scale":"paper"}"#,
    r#"{"command":"audit","scale":"tiny"}"#,
    r#"{"command":"analyze","top_k":5}"#,
    r#"{"command":"tables","artifacts":["table3"],"scale":"small"}"#,
];

/// Runs `body` through the front end. Every stage returns `Ok` or its
/// typed error; an accepted request also renders its study key.
fn front_end(body: &[u8]) {
    let Ok(text) = std::str::from_utf8(body) else {
        return;
    };
    let Ok(doc) = Json::parse(text) else {
        return;
    };
    let Ok(req) = StudyRequest::from_json(&doc) else {
        return;
    };
    if req.validate().is_ok() {
        assert!(!req.study_key().is_empty());
    }
}

#[test]
fn every_valid_body_is_accepted() {
    for body in BODIES {
        let doc = Json::parse(body).unwrap_or_else(|e| panic!("{body}: {e}"));
        let req = StudyRequest::from_json(&doc).unwrap_or_else(|e| panic!("{body}: {e}"));
        req.validate().unwrap_or_else(|e| panic!("{body}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes, bare or after a `{` (so parsing gets past the
    /// first token), never panic.
    #[test]
    fn arbitrary_bytes_are_accepted_or_rejected_cleanly(
        body in proptest::collection::vec(0u8..=255, 0..512),
        object in proptest::bool::ANY,
    ) {
        let mut bytes = Vec::new();
        if object {
            bytes.push(b'{');
        }
        bytes.extend_from_slice(&body);
        front_end(&bytes);
    }

    /// A valid body with one byte flipped (by a random delta), dropped,
    /// or inserted, at every offset, never panics.
    #[test]
    fn single_byte_mutations_are_accepted_or_rejected_cleanly(delta in 1u8..=255) {
        for body in BODIES {
            let clean = body.as_bytes();
            for at in 0..clean.len() {
                let mut flipped = clean.to_vec();
                flipped[at] ^= delta;
                let mut dropped = clean.to_vec();
                dropped.remove(at);
                let mut inserted = clean.to_vec();
                inserted.insert(at, delta);
                for mutated in [flipped, dropped, inserted] {
                    front_end(&mutated);
                }
            }
        }
    }
}
