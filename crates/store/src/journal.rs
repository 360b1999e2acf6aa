//! Checksummed append-only checkpoint journals.
//!
//! A journal records a study's durable progress as one JSON record per
//! line, each line prefixed with its own FNV-1a 64 checksum:
//!
//! ```text
//! <16 hex digits> TAB <json> NEWLINE
//! ```
//!
//! Line 0 is a header binding the journal to one *study key* (the
//! study's own fingerprint: artifact list, scale, design). Reopening
//! verifies every line in order and stops at the first damaged one —
//! so a crash mid-append (a torn tail) silently costs exactly the
//! record being written, never the intact prefix. The torn tail is
//! truncated away before appending resumes, keeping the file
//! verifiable end to end.
//!
//! Appends are `fsync`ed: once [`Journal::append`] returns, that
//! record survives SIGKILL and power loss, which is the property the
//! `repro --resume` kill-mid-run test leans on.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use obs::Json;

use crate::entry::fnv1a64;
use crate::error::StoreError;

/// Schema tag written into every journal header.
pub const JOURNAL_SCHEMA: &str = "rodinia-repro.journal/v1";

/// An open, append-only checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl Journal {
    /// Opens the journal at `path` for the study identified by
    /// `study_key`, returning the journal and the records that already
    /// survive on disk.
    ///
    /// With `resume = false`, or when the existing file's header does
    /// not match (`different study`, damaged header, old schema), the
    /// journal restarts empty. With `resume = true` and a matching
    /// header, the verified record prefix is returned and any torn
    /// tail is truncated.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be created or truncated.
    pub fn open(
        path: &Path,
        study_key: &str,
        resume: bool,
    ) -> Result<(Journal, Vec<Json>), StoreError> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| StoreError::io(parent, &e))?;
        }
        let mut records = Vec::new();
        let mut valid_len: u64 = 0;
        if resume {
            if let Ok(text) = fs::read_to_string(path) {
                let (parsed, len) = parse_valid_prefix(&text);
                // The first record must be a matching header.
                let header_ok = parsed.first().is_some_and(|h| {
                    h.get("schema").and_then(Json::as_str) == Some(JOURNAL_SCHEMA)
                        && h.get("study").and_then(Json::as_str) == Some(study_key)
                });
                if header_ok {
                    records = parsed.into_iter().skip(1).collect();
                    valid_len = len;
                }
            }
        }
        // Not truncated at open: `set_len` below cuts the file to the
        // validated prefix (0 unless resuming), which is the point.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(path, &e))?;
        file.set_len(valid_len)
            .map_err(|e| StoreError::io(path, &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io(path, &e))?;
        let journal = Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        };
        if valid_len == 0 {
            journal.append(&Json::obj(vec![
                ("schema", Json::from(JOURNAL_SCHEMA)),
                ("study", Json::from(study_key)),
            ]))?;
        }
        Ok((journal, records))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends one record: the line is written and `fsync`ed
    /// before returning, so an acknowledged record survives SIGKILL.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the write or sync fails; the caller
    /// decides whether that degrades the study (it should not — a
    /// journal that stops accepting records only costs resumability).
    pub fn append(&self, record: &Json) -> Result<(), StoreError> {
        let text = record.to_string();
        let line = format!("{:016x}\t{text}\n", fnv1a64(text.as_bytes()));
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.write_all(line.as_bytes())
            .and_then(|()| f.sync_data())
            .map_err(|e| StoreError::io(&self.path, &e))
    }
}

/// Parses the longest valid line prefix of `text`, returning the
/// records and the byte length of that prefix.
fn parse_valid_prefix(text: &str) -> (Vec<Json>, u64) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        if !line.ends_with('\n') {
            break; // torn tail: no newline made it to disk
        }
        let body = &line[..line.len() - 1];
        let Some((sum_hex, json_text)) = body.split_once('\t') else {
            break;
        };
        let Ok(stored) = u64::from_str_radix(sum_hex, 16) else {
            break;
        };
        if stored != fnv1a64(json_text.as_bytes()) {
            break;
        }
        let Ok(record) = Json::parse(json_text) else {
            break;
        };
        records.push(record);
        offset += line.len();
    }
    (records, offset as u64)
}

/// A journal of `f64` responses indexed by job number — the
/// checkpoint shape of a Plackett–Burman (or any `run_indexed`) sweep.
///
/// Responses are stored as `f64::to_bits` hex strings, not JSON
/// numbers: the workspace's JSON formatter is integer-exact only below
/// 2^53, and resume must reproduce *byte-identical* tables, so the
/// round trip has to be exact to the last bit.
#[derive(Debug)]
pub struct SweepJournal {
    inner: Journal,
}

impl SweepJournal {
    /// Opens the sweep journal at `path` for `study_key` and returns
    /// the already-completed `(index, response)` pairs.
    ///
    /// Sweep journals always resume: a response is a pure function of
    /// the study key, so reusing one is a cache hit, not a semantic
    /// choice. A key mismatch restarts the journal empty.
    ///
    /// # Errors
    ///
    /// As [`Journal::open`].
    pub fn open(
        path: &Path,
        study_key: &str,
    ) -> Result<(SweepJournal, BTreeMap<usize, f64>), StoreError> {
        let (inner, records) = Journal::open(path, study_key, true)?;
        let mut done = BTreeMap::new();
        for r in records {
            let Some(i) = r.get("i").and_then(Json::as_f64) else {
                continue;
            };
            let Some(bits_hex) = r.get("bits").and_then(Json::as_str) else {
                continue;
            };
            let Ok(bits) = u64::from_str_radix(bits_hex, 16) else {
                continue;
            };
            done.insert(i as usize, f64::from_bits(bits));
        }
        Ok((SweepJournal { inner }, done))
    }

    /// Durably records the response of job `i`.
    ///
    /// # Errors
    ///
    /// As [`Journal::append`].
    pub fn record(&self, i: usize, response: f64) -> Result<(), StoreError> {
        self.inner.append(&Json::obj(vec![
            ("i", Json::u64(i as u64)),
            ("bits", Json::from(format!("{:016x}", response.to_bits()))),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rodinia-journal-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        path
    }

    fn rec(n: u64) -> Json {
        Json::obj(vec![("n", Json::u64(n))])
    }

    #[test]
    fn records_survive_reopen() {
        let path = test_path("basic.journal");
        {
            let (j, prior) = Journal::open(&path, "study-a", true).expect("open");
            assert!(prior.is_empty());
            j.append(&rec(1)).expect("append");
            j.append(&rec(2)).expect("append");
        }
        let (_, prior) = Journal::open(&path, "study-a", true).expect("reopen");
        assert_eq!(prior.len(), 2);
        assert_eq!(prior[1].get("n").and_then(Json::as_f64), Some(2.0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_false_restarts_empty() {
        let path = test_path("fresh.journal");
        {
            let (j, _) = Journal::open(&path, "study-a", true).expect("open");
            j.append(&rec(1)).expect("append");
        }
        let (_, prior) = Journal::open(&path, "study-a", false).expect("reopen fresh");
        assert!(prior.is_empty(), "resume=false discards prior records");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn study_key_mismatch_restarts_empty() {
        let path = test_path("mismatch.journal");
        {
            let (j, _) = Journal::open(&path, "study-a", true).expect("open");
            j.append(&rec(1)).expect("append");
        }
        let (_, prior) = Journal::open(&path, "study-b", true).expect("reopen");
        assert!(prior.is_empty(), "a different study never inherits records");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = test_path("torn.journal");
        {
            let (j, _) = Journal::open(&path, "study-a", true).expect("open");
            j.append(&rec(1)).expect("append");
            j.append(&rec(2)).expect("append");
        }
        // Simulate a crash mid-append: half a line at the tail.
        let mut bytes = fs::read(&path).expect("read");
        let keep = bytes.len() - 4;
        bytes.truncate(keep);
        fs::write(&path, &bytes).expect("tear");
        let (j, prior) = Journal::open(&path, "study-a", true).expect("reopen");
        assert_eq!(prior.len(), 1, "only the intact record survives");
        // Appending after truncation yields a fully valid file again.
        j.append(&rec(3)).expect("append");
        drop(j);
        let (_, prior) = Journal::open(&path, "study-a", true).expect("reopen again");
        assert_eq!(prior.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_line_cuts_the_prefix_there() {
        let path = test_path("midcorrupt.journal");
        {
            let (j, _) = Journal::open(&path, "study-a", true).expect("open");
            for n in 1..=3 {
                j.append(&rec(n)).expect("append");
            }
        }
        let text = fs::read_to_string(&path).expect("read");
        // Flip a byte inside the second record's JSON.
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let mut rebuilt = String::new();
        for (i, l) in lines.iter().enumerate() {
            if i == 2 {
                rebuilt.push_str(&l.replace("\"n\":2", "\"n\":9"));
            } else {
                rebuilt.push_str(l);
            }
        }
        fs::write(&path, rebuilt).expect("rewrite");
        let (_, prior) = Journal::open(&path, "study-a", true).expect("reopen");
        assert_eq!(prior.len(), 1, "records after the damage are not trusted");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn damaged_header_restarts_empty() {
        let path = test_path("badheader.journal");
        {
            let (j, _) = Journal::open(&path, "study-a", true).expect("open");
            j.append(&rec(1)).expect("append");
        }
        let text = fs::read_to_string(&path).expect("read");
        fs::write(&path, text.replacen(JOURNAL_SCHEMA, "other-schema/v0", 1)).expect("rewrite");
        let (_, prior) = Journal::open(&path, "study-a", true).expect("reopen");
        assert!(prior.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sweep_journal_round_trips_exact_bits() {
        let path = test_path("sweep.journal");
        let awkward = 0.1f64 + 0.2; // not exactly representable in decimal
        {
            let (j, done) = SweepJournal::open(&path, "pb/v1").expect("open");
            assert!(done.is_empty());
            j.record(0, awkward).expect("record");
            j.record(7, 1.0e18).expect("record");
        }
        let (_, done) = SweepJournal::open(&path, "pb/v1").expect("reopen");
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0].to_bits(), awkward.to_bits(), "bit-exact resume");
        assert_eq!(done[&7], 1.0e18);
        let _ = fs::remove_file(&path);
    }
}
