//! # store — a crash-safe on-disk trace store
//!
//! Persists the workspace's captured traces (GPU kernel traces from
//! `simt`, CPU memory traces from `tracekit`) across `repro`
//! invocations, so the expensive functional-execution half of a study
//! is paid once per capture fingerprint, *ever* — while guaranteeing
//! that a damaged store can only ever make a study **slower**, never
//! **wrong**.
//!
//! The crate deliberately knows nothing about trace formats: entries
//! are opaque byte payloads keyed by caller-chosen strings (the study
//! layer uses `benchmark/scale/fingerprint` keys). The payloads are the
//! `simt` and `tracekit` capture codecs, which both read through the
//! shared bounds-checked cursor `obs::codec`; the entry framing keeps
//! its own parser, whose [`Corruption`] variants carry the need/have
//! lengths a generic cursor error would lose. Three layers:
//!
//! * [`entry`] — the per-entry integrity framing: magic, format
//!   version, key echo (stale-fingerprint detection), payload length,
//!   and an FNV-1a 64 checksum over the payload. Every field is
//!   verified on load; a single flipped or dropped byte anywhere in an
//!   entry is detected.
//! * [`TraceStore`] — the directory of entries. Writes are atomic
//!   (temp file + fsync + rename, so a crash can never leave a
//!   partially visible entry), transient I/O errors are retried with
//!   backoff, entries that fail verification are **quarantined**
//!   (moved aside, never deleted silently, never deserialized), and an
//!   optional size budget evicts least-recently-used entries (recency
//!   is a `.touch` sidecar per entry, written on hits only when a
//!   budget is set).
//! * [`Journal`] / [`SweepJournal`] — checksummed append-only record
//!   logs for study checkpoint/resume: each completed experiment (or
//!   sweep response) is appended durably, and reopening after a crash
//!   replays the intact prefix while discarding a torn tail.
//!
//! Every hit/miss/corruption/eviction bumps a `store.*` counter in the
//! global [`obs::Registry`], so run manifests record how the store
//! behaved.
//!
//! ## Degradation ladder
//!
//! | condition | behavior |
//! |-----------|----------|
//! | store dir unwritable | [`TraceStore::open`] errs; callers fall back to in-memory caching |
//! | entry missing | miss → capture → best-effort save |
//! | entry corrupt/stale/old-version | quarantine → capture → save fresh |
//! | transient read/write error | bounded retry with backoff |
//! | persistent write error | warn once, keep computing in memory |
//! | over budget | LRU eviction after each save |

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod entry;
pub mod error;
pub mod fault;
pub mod journal;
pub mod store;

pub use entry::{decode_entry, encode_entry, fnv1a64, Corruption, FORMAT_VERSION};
pub use error::StoreError;
pub use fault::{inject, StoreFault};
pub use journal::{Journal, SweepJournal, JOURNAL_SCHEMA};
pub use store::{write_atomic, TraceStore, CRASH_AFTER_SAVES_ENV, STORE_BUDGET_ENV};
