//! The on-disk store: atomic writes, verified loads, quarantine,
//! retry, and LRU eviction.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use crate::entry::{entry_header, fnv1a64, read_entry};
use crate::error::StoreError;

/// Environment variable: crash the process (deterministically) right
/// after the N-th successful entry save. This is the hook the
/// kill-mid-run recovery tests use instead of racing a timer against
/// the sweep: `RODINIA_STORE_CRASH_AFTER_SAVES=3 repro pb small
/// --store dir` dies with the store holding exactly three durable
/// entries.
pub const CRASH_AFTER_SAVES_ENV: &str = "RODINIA_STORE_CRASH_AFTER_SAVES";

/// Environment variable: store size budget in bytes (overridden by
/// [`TraceStore::open_with_budget`]). When the budget is exceeded
/// after a save, least-recently-used entries are evicted.
pub const STORE_BUDGET_ENV: &str = "RODINIA_STORE_BUDGET_BYTES";

/// File extension of store entries.
const ENTRY_EXT: &str = "trace";

/// Subdirectory that quarantined (corrupt/stale) entries are moved to.
const QUARANTINE_DIR: &str = "quarantine";

/// Subdirectory holding checkpoint journals.
const JOURNAL_DIR: &str = "journals";

/// Total I/O attempts per operation (1 initial + 3 retries).
const RETRY_ATTEMPTS: u32 = 4;

/// Backoff before retry `i` (index 0 = delay before the 2nd attempt).
const RETRY_BACKOFF_MS: [u64; 3] = [1, 5, 20];

/// A directory of integrity-framed trace entries.
///
/// All methods take `&self`; the store is safe to share across the
/// study engine's worker threads (concurrent saves of *different* keys
/// are independent; concurrent saves of the *same* key are both atomic
/// and byte-identical, so last-rename-wins is harmless).
#[derive(Debug)]
pub struct TraceStore {
    root: PathBuf,
    budget_bytes: Option<u64>,
    crash_after_saves: Option<u64>,
    saves: AtomicU64,
    inject_failures: AtomicU32,
    warned_write: AtomicBool,
}

impl TraceStore {
    /// Opens (creating if needed) the store at `dir` and probes that it
    /// is writable.
    ///
    /// Reads [`STORE_BUDGET_ENV`] for an optional size budget and
    /// [`CRASH_AFTER_SAVES_ENV`] for the deterministic crash hook.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the directory cannot be created
    /// or a probe file cannot be written — the signal for callers to
    /// fall back to in-memory caching.
    pub fn open(dir: &Path) -> Result<TraceStore, StoreError> {
        let budget = std::env::var(STORE_BUDGET_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        TraceStore::open_with_budget(dir, budget)
    }

    /// [`TraceStore::open`] with an explicit size budget (bytes of
    /// entry payloads + framing; `None` = unbounded).
    ///
    /// # Errors
    ///
    /// As [`TraceStore::open`].
    pub fn open_with_budget(
        dir: &Path,
        budget_bytes: Option<u64>,
    ) -> Result<TraceStore, StoreError> {
        let unavailable = |e: &io::Error| StoreError::Unavailable {
            dir: dir.display().to_string(),
            reason: e.to_string(),
        };
        fs::create_dir_all(dir).map_err(|e| unavailable(&e))?;
        // Writability probe: an unwritable or full store must surface
        // at open time (when the caller can still downgrade cleanly),
        // not as a storm of per-entry warnings mid-study. The journals
        // subdirectory gets its own probe — a writable root with a
        // blocked `journals/` would otherwise pass here and then fail
        // the first sweep checkpoint mid-study.
        let probe = dir.join(format!(".probe-{}", std::process::id()));
        fs::write(&probe, b"probe").map_err(|e| unavailable(&e))?;
        let _ = fs::remove_file(&probe);
        let journals = dir.join(JOURNAL_DIR);
        fs::create_dir_all(&journals).map_err(|e| unavailable(&e))?;
        let jprobe = journals.join(format!(".probe-{}", std::process::id()));
        fs::write(&jprobe, b"probe").map_err(|e| unavailable(&e))?;
        let _ = fs::remove_file(&jprobe);
        let crash_after_saves = std::env::var(CRASH_AFTER_SAVES_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        Ok(TraceStore {
            root: dir.to_path_buf(),
            budget_bytes,
            crash_after_saves,
            saves: AtomicU64::new(0),
            inject_failures: AtomicU32::new(0),
            warned_write: AtomicBool::new(false),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of `key`'s entry. Exposed for fault injection
    /// and inspection; normal callers use [`load`]/[`save`].
    ///
    /// [`load`]: TraceStore::load
    /// [`save`]: TraceStore::save
    pub fn entry_path(&self, key: &str) -> PathBuf {
        // Human-readable slug + full key hash. Correctness does not
        // depend on the file name at all: the key echoed inside the
        // entry is what is verified, so even a (cosmically unlikely)
        // hash collision degrades to quarantine + recapture.
        let slug: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(48)
            .collect();
        self.root.join(format!(
            "{slug}-{:016x}.{ENTRY_EXT}",
            fnv1a64(key.as_bytes())
        ))
    }

    /// Path of the checkpoint journal named `name` (inside the store's
    /// `journals/` subdirectory).
    pub fn journal_path(&self, name: &str) -> PathBuf {
        self.root.join(JOURNAL_DIR).join(name)
    }

    /// Loads and verifies `key`'s entry, returning its payload. The
    /// header and the payload are read into separate buffers
    /// (`read_entry`), so the payload is returned in the buffer it
    /// was read into, not copied out of the whole file.
    ///
    /// `None` means "capture instead": the entry is absent, unreadable
    /// after retries, or failed verification (in which case it has been
    /// quarantined). A load **never** fails a study and **never**
    /// returns bytes that failed verification.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let _span = obs::span!("store.load");
        let reg = obs::Registry::global();
        let path = self.entry_path(key);
        let read = || {
            let f = File::open(&path)?;
            let size = f.metadata()?.len();
            read_entry(key, f, size)
        };
        let verdict = match self.with_retry(read) {
            Ok(v) => v,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                reg.incr("store.miss");
                return None;
            }
            Err(e) => {
                reg.incr("store.miss");
                reg.incr("store.read_error");
                eprintln!("store: cannot read {}: {e}; recapturing", path.display());
                return None;
            }
        };
        match verdict {
            Ok(payload) => {
                reg.incr("store.hit");
                self.touch(&path);
                Some(payload)
            }
            Err(c) => {
                self.quarantine(key, &c.to_string());
                None
            }
        }
    }

    /// Atomically writes `payload` as `key`'s entry: temp file in the
    /// store directory (the frame header, then `payload` itself, so no
    /// framed copy of it is built), `fsync`, rename. A crash at any
    /// point leaves either the old entry or the new one — never a torn
    /// hybrid — which is what makes a kill-mid-sweep run resumable.
    ///
    /// Runs the LRU eviction pass afterwards when a budget is set.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the write still fails after the bounded
    /// retry-with-backoff. Most callers want [`save_or_warn`] instead.
    ///
    /// [`save_or_warn`]: TraceStore::save_or_warn
    pub fn save(&self, key: &str, payload: &[u8]) -> Result<(), StoreError> {
        let _span = obs::span!("store.save");
        let reg = obs::Registry::global();
        let header = entry_header(key, payload);
        let path = self.entry_path(key);
        let tmp = self.root.join(format!(
            ".tmp-{:016x}-{}",
            fnv1a64(key.as_bytes()),
            std::process::id()
        ));
        let write_tmp = || -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&header)?;
            f.write_all(payload)?;
            f.sync_all()
        };
        if let Err(e) = self.with_retry(write_tmp) {
            let _ = fs::remove_file(&tmp);
            reg.incr("store.write_error");
            return Err(StoreError::io(&tmp, &e));
        }
        if let Err(e) = self.with_retry(|| fs::rename(&tmp, &path)) {
            let _ = fs::remove_file(&tmp);
            reg.incr("store.write_error");
            return Err(StoreError::io(&path, &e));
        }
        // Make the rename itself durable (best effort — the entry is
        // self-verifying either way).
        if let Ok(d) = File::open(&self.root) {
            let _ = d.sync_all();
        }
        reg.incr("store.write");
        self.evict_to_budget(&path);
        self.crash_hook_after_save();
        Ok(())
    }

    /// [`save`](TraceStore::save), downgrading failure to a single
    /// warning per store: a store that stops accepting writes mid-run
    /// (ENOSPC, yanked volume) must cost warnings, not results.
    pub fn save_or_warn(&self, key: &str, payload: &[u8]) {
        if let Err(e) = self.save(key, payload) {
            if !self.warned_write.swap(true, Ordering::Relaxed) {
                eprintln!("store: {e}; continuing with in-memory caching only");
            }
        }
    }

    /// Whether `key` currently has an (unverified) entry on disk.
    pub fn contains(&self, key: &str) -> bool {
        self.entry_path(key).exists()
    }

    /// Moves `key`'s entry into the quarantine subdirectory (never
    /// deleting it — the bytes stay inspectable) and counts the event.
    /// Also used by callers whose *decode or replay* of a
    /// framing-valid payload failed: semantic staleness quarantines
    /// exactly like bit rot.
    pub fn quarantine(&self, key: &str, reason: &str) {
        let reg = obs::Registry::global();
        reg.incr("store.corrupt");
        let path = self.entry_path(key);
        let qdir = self.root.join(QUARANTINE_DIR);
        let _ = fs::create_dir_all(&qdir);
        let dest = qdir.join(path.file_name().unwrap_or_else(|| "entry".as_ref()));
        match fs::rename(&path, &dest) {
            Ok(()) => eprintln!(
                "store: quarantined {key} ({reason}); recapturing [{}]",
                dest.display()
            ),
            Err(e) => {
                // Removal beats leaving a known-bad entry to be
                // re-verified (and re-warned about) every run.
                let _ = fs::remove_file(&path);
                eprintln!("store: dropped corrupt {key} ({reason}; quarantine failed: {e})");
            }
        }
        let _ = fs::remove_file(touch_path(&path));
    }

    /// Number of entries currently in the store.
    pub fn entry_count(&self) -> usize {
        self.entries().len()
    }

    /// Total bytes of all entries (framing included).
    pub fn total_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.len).sum()
    }

    /// Number of quarantined entries.
    pub fn quarantined_count(&self) -> usize {
        fs::read_dir(self.root.join(QUARANTINE_DIR))
            .map_or(0, |rd| rd.filter_map(Result::ok).count())
    }

    /// Arms the next `n` I/O attempts (across any operation) to fail
    /// with an `EINTR`-style transient error. Test hook for the
    /// retry-with-backoff path; see [`crate::fault`].
    pub fn inject_transient_failures(&self, n: u32) {
        self.inject_failures.store(n, Ordering::SeqCst);
    }

    /// Retries `op` with bounded backoff on transient errors
    /// (`Interrupted`, `WouldBlock`, `TimedOut`), honoring injected
    /// failures from [`inject_transient_failures`].
    ///
    /// [`inject_transient_failures`]: TraceStore::inject_transient_failures
    fn with_retry<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0;
        loop {
            let r = if self.take_injected_failure() {
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"))
            } else {
                op()
            };
            match r {
                Ok(v) => return Ok(v),
                Err(e)
                    if attempt + 1 < RETRY_ATTEMPTS
                        && matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted
                                | io::ErrorKind::WouldBlock
                                | io::ErrorKind::TimedOut
                        ) =>
                {
                    obs::Registry::global().incr("store.retry");
                    std::thread::sleep(Duration::from_millis(
                        RETRY_BACKOFF_MS[attempt as usize % RETRY_BACKOFF_MS.len()],
                    ));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn take_injected_failure(&self) -> bool {
        self.inject_failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Refreshes `path`'s last-use marker. `std` cannot set mtimes, so
    /// recency is tracked with an empty `.touch` sidecar whose own
    /// mtime is refreshed on every hit. Only LRU eviction reads the
    /// sidecars, so an unbudgeted store writes none.
    fn touch(&self, path: &Path) {
        if self.budget_bytes.is_some() {
            let _ = fs::write(touch_path(path), b"");
        }
    }

    fn entries(&self) -> Vec<EntryMeta> {
        let Ok(rd) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for e in rd.filter_map(Result::ok) {
            let path = e.path();
            if path.extension().and_then(|x| x.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let Ok(md) = e.metadata() else { continue };
            let mut last_use = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            if let Ok(tmd) = fs::metadata(touch_path(&path)) {
                if let Ok(t) = tmd.modified() {
                    last_use = last_use.max(t);
                }
            }
            out.push(EntryMeta {
                path,
                len: md.len(),
                last_use,
            });
        }
        out
    }

    /// Evicts least-recently-used entries until the store fits its
    /// budget, never evicting `just_written`.
    fn evict_to_budget(&self, just_written: &Path) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        if total <= budget {
            return;
        }
        // Oldest first; path as tiebreak keeps the pass deterministic.
        entries.sort_by(|a, b| (a.last_use, &a.path).cmp(&(b.last_use, &b.path)));
        for e in &entries {
            if total <= budget {
                break;
            }
            if e.path == just_written {
                continue;
            }
            if fs::remove_file(&e.path).is_ok() {
                let _ = fs::remove_file(touch_path(&e.path));
                total = total.saturating_sub(e.len);
                obs::Registry::global().incr("store.evict");
            }
        }
    }

    /// The deterministic crash hook (see [`CRASH_AFTER_SAVES_ENV`]):
    /// after the N-th successful save, SIGKILL the process — the
    /// hardest possible interruption, with no destructors and no
    /// flushing, exactly what the resume path must survive.
    fn crash_hook_after_save(&self) {
        let Some(n) = self.crash_after_saves else {
            return;
        };
        if self.saves.fetch_add(1, Ordering::SeqCst) + 1 != n {
            return;
        }
        eprintln!("store: crash hook firing after {n} save(s) ({CRASH_AFTER_SAVES_ENV})");
        let _ = std::process::Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        // If there is no `kill` binary, abort still dies without
        // unwinding or flushing.
        std::process::abort();
    }
}

#[derive(Debug)]
struct EntryMeta {
    path: PathBuf,
    len: u64,
    last_use: SystemTime,
}

fn touch_path(entry: &Path) -> PathBuf {
    let mut os = entry.as_os_str().to_os_string();
    os.push(".touch");
    PathBuf::from(os)
}

/// Atomically writes `bytes` to `dir/file_name` (temp + fsync +
/// rename), creating `dir` if needed. Used for derived artifacts that
/// ride along with the store (the deterministic study manifest).
///
/// # Errors
///
/// [`StoreError::Io`] on any failure.
pub fn write_atomic(dir: &Path, file_name: &str, bytes: &[u8]) -> Result<PathBuf, StoreError> {
    fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, &e))?;
    let path = dir.join(file_name);
    let tmp = dir.join(format!(".tmp-{file_name}-{}", std::process::id()));
    let write = || -> io::Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::io(&tmp, &e));
    }
    fs::rename(&tmp, &path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        StoreError::io(&path, &e)
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rodinia-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = test_dir("roundtrip");
        let store = TraceStore::open(&dir).expect("open");
        assert!(!store.contains("k"));
        store.save("k", b"payload").expect("save");
        assert!(store.contains("k"));
        assert_eq!(store.load("k"), Some(b"payload".to_vec()));
        assert_eq!(store.entry_count(), 1);
        assert!(store.total_bytes() > 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saved_file_is_the_framed_entry_and_loads_its_payload() {
        // Save writes the header and the payload as two writes, and load
        // reads them into two buffers; the bytes on disk must still be
        // exactly `encode_entry`'s, so the format lives in one place.
        let dir = test_dir("framing");
        let store = TraceStore::open(&dir).expect("open");
        let big: Vec<u8> = (0..3u32 << 20).map(|i| (i ^ (i >> 11)) as u8).collect();
        for (key, payload) in [("gpu/v1/empty", &[][..]), ("gpu/v1/big", &big[..])] {
            store.save(key, payload).expect("save");
            let on_disk = fs::read(store.entry_path(key)).expect("read entry");
            assert!(on_disk == crate::entry::encode_entry(key, payload), "{key}");
            assert!(store.load(key).as_deref() == Some(payload), "{key}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_miss_not_an_error() {
        let dir = test_dir("miss");
        let store = TraceStore::open(&dir).expect("open");
        let before = obs::Registry::global().counter("store.miss");
        assert_eq!(store.load("absent"), None);
        assert!(obs::Registry::global().counter("store.miss") > before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_on_a_file_path_is_unavailable() {
        let dir = test_dir("notadir");
        fs::create_dir_all(&dir).expect("mkdir");
        let file = dir.join("occupied");
        fs::write(&file, b"x").expect("write");
        let err = TraceStore::open(&file).unwrap_err();
        assert!(matches!(err, StoreError::Unavailable { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocked_journals_dir_is_unavailable_at_open() {
        let dir = test_dir("blockedjournals");
        fs::create_dir_all(&dir).expect("mkdir");
        // A plain file squatting on `journals/` makes checkpointing
        // impossible even though the root itself is writable; that must
        // surface at open time, not at the first sweep checkpoint.
        fs::write(dir.join(JOURNAL_DIR), b"not a dir").expect("write");
        let err = TraceStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Unavailable { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recoverable() {
        let dir = test_dir("quarantine");
        let store = TraceStore::open(&dir).expect("open");
        store.save("k", b"payload").expect("save");
        // Flip a payload bit directly on disk.
        let path = store.entry_path("k");
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).expect("rewrite");
        let corrupt_before = obs::Registry::global().counter("store.corrupt");
        assert_eq!(store.load("k"), None, "corrupt entry must not load");
        assert!(obs::Registry::global().counter("store.corrupt") > corrupt_before);
        assert_eq!(store.quarantined_count(), 1);
        assert!(!store.contains("k"), "entry moved aside");
        // Recapture path: a fresh save fully recovers.
        store.save("k", b"payload").expect("resave");
        assert_eq!(store.load("k"), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_are_retried() {
        let dir = test_dir("retry");
        let store = TraceStore::open(&dir).expect("open");
        store.save("k", b"payload").expect("save");
        store.inject_transient_failures(2);
        let retries_before = obs::Registry::global().counter("store.retry");
        assert_eq!(
            store.load("k"),
            Some(b"payload".to_vec()),
            "retries absorb EINTR"
        );
        assert!(obs::Registry::global().counter("store.retry") >= retries_before + 2);
        // More failures than the retry budget: degrade to a miss.
        store.inject_transient_failures(RETRY_ATTEMPTS + 2);
        assert_eq!(store.load("k"), None);
        store.inject_transient_failures(0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_lru_and_respects_budget() {
        let dir = test_dir("evict");
        // Budget fits two of the three ~1 kB entries.
        let store = TraceStore::open_with_budget(&dir, Some(2300)).expect("open");
        let payload = vec![7u8; 1024];
        store.save("a", &payload).expect("save a");
        std::thread::sleep(Duration::from_millis(20));
        store.save("b", &payload).expect("save b");
        std::thread::sleep(Duration::from_millis(20));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(store.load("a").is_some());
        std::thread::sleep(Duration::from_millis(20));
        store.save("c", &payload).expect("save c");
        assert!(store.contains("c"), "just-written entry is never evicted");
        assert!(store.contains("a"), "recently used entry survives");
        assert!(!store.contains("b"), "LRU entry was evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_touch_a_sidecar_only_under_a_budget() {
        let dir = test_dir("touch");
        let unbudgeted = TraceStore::open_with_budget(&dir, None).expect("open");
        unbudgeted.save("k", b"payload").expect("save");
        assert!(unbudgeted.load("k").is_some());
        assert!(unbudgeted.load("k").is_some());
        let sidecar = touch_path(&unbudgeted.entry_path("k"));
        assert!(
            !sidecar.exists(),
            "an unbudgeted hit wrote {}",
            sidecar.display()
        );
        let budgeted = TraceStore::open_with_budget(&dir, Some(1 << 20)).expect("reopen");
        assert!(budgeted.load("k").is_some());
        assert!(sidecar.exists(), "a budgeted hit records its use");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_existing_file() {
        let dir = test_dir("atomic");
        let p1 = write_atomic(&dir, "out.json", b"{}").expect("write");
        let p2 = write_atomic(&dir, "out.json", b"{\"v\":2}").expect("rewrite");
        assert_eq!(p1, p2);
        assert_eq!(fs::read(&p2).expect("read"), b"{\"v\":2}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_paths_are_stable_and_distinct() {
        let dir = test_dir("paths");
        let store = TraceStore::open(&dir).expect("open");
        let a = store.entry_path("gpu/v1/BFS/Small/-/w32b16s64");
        let b = store.entry_path("gpu/v1/NW/Small/-/w32b16s64");
        assert_ne!(a, b);
        assert_eq!(a, store.entry_path("gpu/v1/BFS/Small/-/w32b16s64"));
        assert!(a
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("gpu-v1-BFS"));
        let _ = fs::remove_dir_all(&dir);
    }
}
