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
//! `repro --resume` kill-mid-run test leans on. A finished study may
//! [`Journal::rewrite`] its records in a canonical order (a temp file,
//! `fsync`ed and renamed over the journal), so that two stores written
//! by the same study hold the same bytes.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use obs::Json;

use crate::entry::fnv1a64;
use crate::error::StoreError;
use crate::store::write_atomic;

/// Schema tag written into every journal header.
pub const JOURNAL_SCHEMA: &str = "rodinia-repro.journal/v1";

/// An open, append-only checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Line 0: the schema and study key.
    header: Json,
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
            if let Ok(bytes) = fs::read(path) {
                let (parsed, len) = parse_valid_prefix(&bytes);
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
            header: Json::obj(vec![
                ("schema", Json::from(JOURNAL_SCHEMA)),
                ("study", Json::from(study_key)),
            ]),
            file: Mutex::new(file),
        };
        if valid_len == 0 {
            journal.append(&journal.header)?;
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
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.write_all(line(record).as_bytes())
            .and_then(|()| f.sync_data())
            .map_err(|e| StoreError::io(&self.path, &e))
    }

    /// Replaces the journal's records with `records`, in that order,
    /// under the same header. The new journal is written to a temp
    /// file, `fsync`ed and renamed over the old one, so a crash leaves
    /// one or the other, never a mix; later appends go to the new file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the temp file cannot be written or
    /// renamed, or the new journal cannot be reopened for appends.
    pub fn rewrite(&self, records: &[Json]) -> Result<(), StoreError> {
        let text: String = std::iter::once(&self.header)
            .chain(records)
            .map(line)
            .collect();
        let dir = self.path.parent().unwrap_or(Path::new(""));
        let name = self.path.file_name().unwrap_or_default().to_string_lossy();
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        write_atomic(dir, &name, text.as_bytes())?;
        *f = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io(&self.path, &e))?;
        Ok(())
    }
}

/// One journal line: the record's checksum, a tab, the record.
fn line(record: &Json) -> String {
    let text = record.to_string();
    format!("{:016x}\t{text}\n", fnv1a64(text.as_bytes()))
}

/// Parses the longest valid line prefix of `bytes`, returning the
/// records and the byte length of that prefix. A line that is not
/// UTF-8 is damaged like any other: the prefix ends before it.
fn parse_valid_prefix(bytes: &[u8]) -> (Vec<Json>, u64) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let Some(body) = line.strip_suffix(b"\n") else {
            break; // torn tail: no newline made it to disk
        };
        let Ok(body) = std::str::from_utf8(body) else {
            break;
        };
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
            let Some(i) = r.get("i").and_then(Json::as_f64).and_then(job_index) else {
                continue;
            };
            let Some(bits_hex) = r.get("bits").and_then(Json::as_str) else {
                continue;
            };
            let Ok(bits) = u64::from_str_radix(bits_hex, 16) else {
                continue;
            };
            done.insert(i, f64::from_bits(bits));
        }
        Ok((SweepJournal { inner }, done))
    }

    /// Durably records the response of job `i`.
    ///
    /// # Errors
    ///
    /// As [`Journal::append`].
    pub fn record(&self, i: usize, response: f64) -> Result<(), StoreError> {
        self.inner.append(&sweep_record(i, response))
    }

    /// Rewrites the journal of a finished sweep in index order, where
    /// `responses[i]` is job `i`'s. Parallel jobs append in completion
    /// order, which differs run to run; the rewrite leaves the same
    /// bytes whatever that order was.
    ///
    /// # Errors
    ///
    /// As [`Journal::rewrite`].
    pub fn finish(&self, responses: &[f64]) -> Result<(), StoreError> {
        let records: Vec<Json> = responses
            .iter()
            .enumerate()
            .map(|(i, &r)| sweep_record(i, r))
            .collect();
        self.inner.rewrite(&records)
    }
}

/// A record's `i` as a job index, if it is a non-negative integer that
/// a JSON number holds exactly (below 2^53); `None` for anything else,
/// so a damaged record is skipped rather than misfiled.
fn job_index(i: f64) -> Option<usize> {
    const EXACT: f64 = (1u64 << 53) as f64;
    if (0.0..EXACT).contains(&i) && i.fract() == 0.0 {
        usize::try_from(i as u64).ok()
    } else {
        None
    }
}

/// The journal record of job `i`'s response.
fn sweep_record(i: usize, response: f64) -> Json {
    Json::obj(vec![
        ("i", Json::u64(i as u64)),
        ("bits", Json::from(format!("{:016x}", response.to_bits()))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// A journal path in a directory of its own under the temp
    /// directory; dropping it removes the directory.
    struct TestPath {
        dir: PathBuf,
        path: PathBuf,
    }

    impl std::ops::Deref for TestPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl AsRef<Path> for TestPath {
        fn as_ref(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TestPath {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    fn test_path(name: &str) -> TestPath {
        let dir =
            std::env::temp_dir().join(format!("rodinia-journal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::create_dir_all(&dir);
        TestPath {
            path: dir.join(name),
            dir,
        }
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
    }

    #[test]
    fn a_non_utf8_tail_cuts_the_prefix_at_its_line() {
        let path = test_path("non-utf8.sweep");
        {
            let (j, _) = SweepJournal::open(&path, "pb/v1").expect("open");
            j.record(0, 1.5).expect("record");
            j.record(1, 2.5).expect("record");
        }
        let intact = fs::metadata(&path).expect("stat").len();
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(b"0123\xff");
        fs::write(&path, &bytes).expect("damage");
        let (_, done) = SweepJournal::open(&path, "pb/v1").expect("reopen");
        assert_eq!(done.len(), 2, "both records before the damage resume");
        assert_eq!(done[&1], 2.5);
        assert_eq!(fs::metadata(&path).expect("stat").len(), intact);
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
    }

    #[test]
    fn finished_sweep_journal_is_in_index_order() {
        let responses = [3.5, 0.1f64 + 0.2, 1.0e18, -2.0];
        // Completion order, as parallel jobs append, against index order.
        let shuffled = test_path("shuffled.sweep");
        let ordered = test_path("ordered.sweep");
        {
            let (j, _) = SweepJournal::open(&shuffled, "pb/v1").expect("open");
            for i in [2, 0, 3, 1] {
                j.record(i, responses[i]).expect("record");
            }
            j.finish(&responses).expect("finish");
            // Appends after the rewrite land in the new file.
            j.record(4, 9.0).expect("record after finish");
            let (o, _) = SweepJournal::open(&ordered, "pb/v1").expect("open");
            for (i, &r) in responses.iter().enumerate() {
                o.record(i, r).expect("record");
            }
            o.record(4, 9.0).expect("record");
        }
        let text = fs::read_to_string(&shuffled).expect("read");
        assert_eq!(text, fs::read_to_string(&ordered).expect("read"));
        let (_, done) = SweepJournal::open(&shuffled, "pb/v1").expect("reopen");
        assert_eq!(done.len(), 5, "every record verifies after the rewrite");
        assert_eq!(done[&1].to_bits(), responses[1].to_bits());
        let dir = shuffled.parent().expect("dir");
        assert!(
            fs::read_dir(dir).expect("list").all(|e| !e
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .starts_with(".tmp-")),
            "no temp file is left behind"
        );
    }

    /// `text` as one journal line with a valid checksum.
    fn framed(text: &str) -> String {
        format!("{:016x}\t{text}\n", fnv1a64(text.as_bytes()))
    }

    /// The header line of a sweep journal for `study`.
    fn header(study: &str) -> String {
        line(&Json::obj(vec![
            ("schema", Json::from(JOURNAL_SCHEMA)),
            ("study", Json::from(study)),
        ]))
    }

    #[test]
    fn a_record_whose_index_is_not_a_non_negative_integer_is_skipped() {
        let path = test_path("odd-index.sweep");
        let mut text = header("pb/v1");
        for i in ["-1", "2.5", "1e300", "\"3\"", "null", "4"] {
            text += &framed(&format!("{{\"i\":{i},\"bits\":\"3ff0000000000000\"}}"));
        }
        fs::write(&path, text).expect("write");
        let (_, done) = SweepJournal::open(&path, "pb/v1").expect("open");
        assert_eq!(done.keys().copied().collect::<Vec<_>>(), [4]);
    }

    /// Journal files as damage or a buggy writer might leave them:
    /// arbitrary bytes (non-UTF-8 included), maybe after a valid
    /// header; or a valid header, then checksummed lines of odd JSON
    /// (sweep records whose `i` is a job index or any other value, and
    /// values that are no record), then a checksummed tail that is no
    /// record. The second shape comes with the responses a resume must
    /// file: those whose `i` is a job index, the last per index winning.
    struct OddJournal;

    impl Strategy for OddJournal {
        type Value = (Vec<u8>, Option<BTreeMap<usize, u64>>);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let pick = |rng: &mut TestRng, options: &[&'static str]| {
                options[rng.below(options.len() as u64) as usize]
            };
            if rng.below(3) == 0 {
                let mut out = match rng.below(2) {
                    0 => header("pb/v1").into_bytes(),
                    _ => Vec::new(),
                };
                out.extend((0..rng.below(512)).map(|_| rng.next_u64() as u8));
                return (out, None);
            }
            let mut text = header("pb/v1");
            let mut filed = BTreeMap::new();
            for _ in 0..rng.below(12) {
                let bits = rng.next_u64();
                let i = match rng.below(5) {
                    0 => {
                        let not_records = [
                            "{}",
                            "[]",
                            "0",
                            "\"bits\"",
                            "{\"i\":1}",
                            "{\"i\":2,\"bits\":\"zz\"}",
                            "{\"i\":3,\"bits\":7}",
                            "{\"bits\":\"0\"}",
                        ];
                        text += &framed(pick(rng, &not_records));
                        continue;
                    }
                    1 | 2 => {
                        let job = rng.below(8);
                        filed.insert(job as usize, bits);
                        job.to_string()
                    }
                    3 => match rng.below(2) {
                        0 => format!("-{}", 1 + rng.below(1 << 40)),
                        _ => format!("{}.5", rng.below(16)),
                    },
                    _ => pick(
                        rng,
                        &[
                            "1e300",
                            "-0.5",
                            "\"2\"",
                            "null",
                            "true",
                            "[1]",
                            "{}",
                            "18446744073709551616",
                        ],
                    )
                    .to_string(),
                };
                text += &framed(&format!("{{\"i\":{i},\"bits\":\"{bits:016x}\"}}"));
            }
            // Printable, but without `{`, so never a record.
            let tail: String = (0..rng.below(40))
                .map(|_| char::from(b' ' + rng.below(91) as u8))
                .collect();
            text += &framed(&tail);
            (text.into_bytes(), Some(filed))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever a sweep journal holds, opening it answers `Ok` or a
        /// typed error without panicking, and files a response only
        /// under an index a record spelled as one.
        #[test]
        fn a_sweep_journal_never_panics_and_files_only_job_indices(
            journal in OddJournal,
        ) {
            let (bytes, filed) = journal;
            let path = test_path("odd.sweep");
            fs::write(&path, &bytes).expect("write");
            let opened: Result<_, StoreError> = SweepJournal::open(&path, "pb/v1");
            if let Some(filed) = filed {
                let (_, done) = opened.expect("a readable journal opens");
                let got: BTreeMap<usize, u64> =
                    done.iter().map(|(&i, r)| (i, r.to_bits())).collect();
                prop_assert_eq!(got, filed);
            }
        }
    }
}
