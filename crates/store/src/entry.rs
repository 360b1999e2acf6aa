//! Per-entry integrity framing.
//!
//! Every stored entry is framed so that *any* single-byte mutation —
//! in the header or the payload — is detected on load:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RTSE"
//! 4       4     format version, u32 LE
//! 8       2     key length `k`, u16 LE
//! 10      k     key bytes (UTF-8 echo of the store key)
//! 10+k    8     payload length, u64 LE
//! 18+k    8     FNV-1a 64 checksum of the payload, u64 LE
//! 26+k    n     payload
//! ```
//!
//! The header fields are each verified structurally (magic, version,
//! key echo against the key the caller asked for, length against the
//! file size), and the payload by checksum. The key echo is what turns
//! a *stale fingerprint* — an entry written for a different key that
//! ends up at this path — into a detected corruption instead of a
//! silently wrong replay.
//!
//! The store writes and reads an entry in chunks (`TraceStore::save_with`
//! and `TraceStore::load_with`); the framing is the same either way. On
//! save, a first pass of the payload producer into a counting
//! `Fnv1a` hasher gives the length and checksum the header carries
//! before any payload byte is written. On load, the header is checked
//! first, the declared length against the file size, and then the
//! decoder reads the payload through a reader bounded by the declared
//! length that hashes every byte it hands out; the checksum is compared
//! once the payload has been read, before the decoded value is
//! returned.
//!
//! FNV-1a detects every single-byte change: each step
//! `h' = (h ^ b) * P` is a bijection of `h` for fixed `b` (P is odd),
//! and two distinct bytes at the same position map one state to two
//! distinct states, so differing inputs of equal length can only
//! collide by later *re*-collision, which a one-byte delta cannot
//! arrange. The property test in `tests/entry_props.rs` exercises it
//! exhaustively over random entries.

use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes opening every entry ("Rodinia Trace Store Entry").
pub const MAGIC: [u8; 4] = *b"RTSE";

/// Current entry format version. Bump on any layout or payload-codec
/// change; old entries then verify as [`Corruption::VersionMismatch`]
/// and are quarantined + recaptured rather than misread.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header bytes before the key echo.
const PRE_KEY: usize = 4 + 4 + 2;

/// Header bytes after the key echo (payload length + checksum).
const POST_KEY: usize = 8 + 8;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.hash()
}

/// An incremental FNV-1a 64 hash that also counts its input: hashing
/// a payload in pieces gives [`fnv1a64`] of the whole. As a [`Write`]
/// sink it measures a payload producer without keeping its output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a {
    hash: u64,
    len: u64,
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }
}

impl Fnv1a {
    /// Hashes `bytes` after everything hashed so far.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
        self.len += bytes.len() as u64;
    }

    /// The hash of everything hashed so far.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }

    /// How many bytes have been hashed.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

impl Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Why an entry failed verification. Every variant is treated the same
/// way by the store — quarantine, count, recapture — but the reason is
/// kept for the quarantine log line and for tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// The file is shorter than its own framing claims.
    Truncated {
        /// Bytes needed to hold the header + declared payload.
        need: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// The magic bytes are wrong (not a store entry at all).
    BadMagic,
    /// The entry was written by a different format version.
    VersionMismatch {
        /// Version found in the entry.
        found: u32,
    },
    /// The key echoed in the entry is not the key that was asked for —
    /// a stale or misplaced entry.
    KeyMismatch {
        /// Key found in the entry (lossily decoded).
        found: String,
    },
    /// The file length disagrees with the declared payload length.
    LengthMismatch {
        /// Payload length declared by the header.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The framing verified, but the caller's decoder rejected the
    /// payload (codec version skew, a malformed field).
    Undecodable {
        /// The decoder's reason.
        reason: String,
    },
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Corruption::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            Corruption::BadMagic => write!(f, "bad magic"),
            Corruption::VersionMismatch { found } => {
                write!(f, "format version {found} (expected {FORMAT_VERSION})")
            }
            Corruption::KeyMismatch { found } => write!(f, "stale entry for key {found:?}"),
            Corruption::LengthMismatch { declared, actual } => {
                write!(f, "payload length {actual} (declared {declared})")
            }
            Corruption::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            Corruption::Undecodable { reason } => f.write_str(reason),
        }
    }
}

/// The frame header of a payload of `len` bytes with FNV-1a checksum
/// `checksum` under `key`: every byte of the entry before the payload.
/// [`encode_entry`] is this followed by the payload; the store writes
/// the header and then streams the payload, so it never builds a
/// payload-sized buffer.
///
/// # Panics
///
/// Panics if `key` is longer than `u16::MAX` bytes; store keys are
/// short fingerprint strings, so this is a caller bug.
pub(crate) fn entry_header(key: &str, len: u64, checksum: u64) -> Vec<u8> {
    let kb = key.as_bytes();
    assert!(kb.len() <= usize::from(u16::MAX), "store key too long");
    let mut out = Vec::with_capacity(PRE_KEY + kb.len() + POST_KEY);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(kb.len() as u16).to_le_bytes());
    out.extend_from_slice(kb);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Frames `payload` as a store entry for `key`.
///
/// # Panics
///
/// As `entry_header`.
pub fn encode_entry(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = entry_header(key, payload.len() as u64, fnv1a64(payload));
    out.extend_from_slice(payload);
    out
}

/// The verified header fields of one entry.
struct Header {
    /// Declared payload length.
    declared: u64,
    /// Stored payload checksum.
    checksum: u64,
}

/// Verifies against `key` the header of an entry whose leading bytes
/// are `head`: its whole header, or all of a shorter entry.
fn check_header(key: &str, head: &[u8]) -> Result<Header, Corruption> {
    let have = head.len() as u64;
    if head.len() < PRE_KEY {
        return Err(Corruption::Truncated {
            need: PRE_KEY as u64,
            have,
        });
    }
    if head[0..4] != MAGIC {
        return Err(Corruption::BadMagic);
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(Corruption::VersionMismatch { found: version });
    }
    let len = PRE_KEY + key_len(head) + POST_KEY;
    if head.len() < len {
        return Err(Corruption::Truncated {
            need: len as u64,
            have,
        });
    }
    let found_key = &head[PRE_KEY..len - POST_KEY];
    if found_key != key.as_bytes() {
        return Err(Corruption::KeyMismatch {
            found: String::from_utf8_lossy(found_key).into_owned(),
        });
    }
    let at = len - POST_KEY;
    Ok(Header {
        declared: u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes")),
        checksum: u64::from_le_bytes(head[at + 8..len].try_into().expect("8 bytes")),
    })
}

/// The key-echo length field of a header of at least [`PRE_KEY`] bytes.
fn key_len(head: &[u8]) -> usize {
    usize::from(u16::from_le_bytes(head[8..10].try_into().expect("2 bytes")))
}

/// Verifies the framing of `bytes` against `key` and returns the
/// payload slice: [`read_entry`] over the slice, with a decoder that
/// leaves the payload to the checksum pass.
///
/// # Errors
///
/// A [`Corruption`] naming the first check that failed. No payload
/// byte is ever returned from an entry that fails any check.
pub fn decode_entry<'a>(key: &str, bytes: &'a [u8]) -> Result<&'a [u8], Corruption> {
    let mut skip = |_: &mut dyn Read, len: usize| Ok(len);
    let len = read_entry(key, bytes, bytes.len() as u64, &mut skip)
        .expect("reading a slice cannot fail")?;
    Ok(&bytes[bytes.len() - len..])
}

/// The payload of an entry as its decoder sees it: at most the declared
/// length of the underlying reader, hashed as it is handed out. A read
/// error is kept, so the store can tell an unreadable entry (retry,
/// then miss) from a corrupt one (quarantine).
struct Checked<R> {
    inner: R,
    left: u64,
    fnv: Fnv1a,
    err: Option<io::Error>,
}

impl<R: Read> Read for Checked<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = buf
            .len()
            .min(usize::try_from(self.left).unwrap_or(usize::MAX));
        match self.inner.read(&mut buf[..want]) {
            Ok(n) => {
                self.fnv.update(&buf[..n]);
                self.left -= n as u64;
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Err(e),
            Err(e) => {
                let kept = io::Error::new(e.kind(), e.to_string());
                self.err.get_or_insert(kept);
                Err(e)
            }
        }
    }
}

/// Reads one entry of `size` bytes from `r`, verifies it against `key`
/// and decodes its payload with `decode`, which is given a reader of
/// the payload and its declared length. The header is checked first,
/// then the declared length against `size`, then the checksum, and
/// only then is the decoder's verdict taken: a value is returned only from an entry that passes
/// every check, and a decoder's rejection of a verified payload is
/// [`Corruption::Undecodable`]. No payload byte is held here: the
/// decoder reads straight from `r`, and what it leaves unread is read
/// for the checksum and dropped.
///
/// # Errors
///
/// The outer error is a read failure (including one the decoder met);
/// the inner one the [`Corruption`] that rejected the entry.
pub fn read_entry<T>(
    key: &str,
    mut r: impl Read,
    size: u64,
    decode: &mut dyn FnMut(&mut dyn Read, usize) -> Result<T, String>,
) -> io::Result<Result<T, Corruption>> {
    let mut head = Vec::with_capacity(PRE_KEY + key.len() + POST_KEY);
    r.by_ref().take(PRE_KEY as u64).read_to_end(&mut head)?;
    if head.len() == PRE_KEY {
        let rest = key_len(&head) + POST_KEY;
        r.by_ref().take(rest as u64).read_to_end(&mut head)?;
    }
    let header = match check_header(key, &head) {
        Ok(h) => h,
        Err(c) => return Ok(Err(c)),
    };
    let declared = header.declared;
    let actual = size.saturating_sub(head.len() as u64);
    let len = match usize::try_from(declared) {
        Ok(len) if actual == declared => len,
        _ => return Ok(Err(Corruption::LengthMismatch { declared, actual })),
    };
    let mut payload = Checked {
        inner: r,
        left: declared,
        fnv: Fnv1a::default(),
        err: None,
    };
    let decoded = decode(&mut payload, len);
    // Whatever the decoder left unread still counts for the checksum
    // (a rejected payload is read to the end, like an accepted one).
    let drained = io::copy(&mut payload, &mut io::sink());
    if let Some(e) = payload.err {
        return Err(e);
    }
    drained?;
    let got = payload.fnv.len();
    if got != declared {
        return Ok(Err(Corruption::LengthMismatch {
            declared,
            actual: got,
        }));
    }
    let computed = payload.fnv.hash();
    if computed != header.checksum {
        return Ok(Err(Corruption::ChecksumMismatch {
            stored: header.checksum,
            computed,
        }));
    }
    Ok(decoded.map_err(|reason| Corruption::Undecodable { reason }))
}

/// The identity decoder: the whole payload, read into one buffer of
/// exactly its declared length.
pub(crate) fn read_payload(r: &mut dyn Read, len: usize) -> Result<Vec<u8>, String> {
    let mut payload = Vec::with_capacity(len);
    r.read_to_end(&mut payload).map_err(|e| e.to_string())?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_payload() {
        let payload = b"warp trace words".to_vec();
        let bytes = encode_entry("gpu/v1/BFS", &payload);
        assert_eq!(decode_entry("gpu/v1/BFS", &bytes), Ok(payload.as_slice()));
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode_entry("k", &[]);
        assert_eq!(decode_entry("k", &bytes), Ok(&[][..]));
    }

    #[test]
    fn wrong_key_is_a_stale_entry() {
        let bytes = encode_entry("gpu/v1/BFS", b"x");
        assert_eq!(
            decode_entry("gpu/v1/NW", &bytes),
            Err(Corruption::KeyMismatch {
                found: "gpu/v1/BFS".to_string()
            })
        );
    }

    #[test]
    fn bad_magic_and_version_are_distinguished() {
        let mut bytes = encode_entry("k", b"x");
        bytes[0] = b'X';
        assert_eq!(decode_entry("k", &bytes), Err(Corruption::BadMagic));
        let mut bytes = encode_entry("k", b"x");
        bytes[4] = 99;
        assert_eq!(
            decode_entry("k", &bytes),
            Err(Corruption::VersionMismatch { found: 99 })
        );
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode_entry("key", b"payload");
        for cut in 0..bytes.len() {
            let r = decode_entry("key", &bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must not verify");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = encode_entry("key", b"payload");
        bytes.push(0);
        assert!(matches!(
            decode_entry("key", &bytes),
            Err(Corruption::LengthMismatch { .. })
        ));
    }

    #[test]
    fn payload_bit_flip_is_detected() {
        let mut bytes = encode_entry("key", b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            decode_entry("key", &bytes),
            Err(Corruption::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_and_byte_flip_is_rejected() {
        // Read from a stream and decoded from a slice alike: no prefix
        // of an entry and no single-byte change of it verifies.
        let bytes = encode_entry("key", b"payload");
        let read = |b: &[u8]| {
            read_entry("key", b, b.len() as u64, &mut read_payload).expect("in-memory read")
        };
        for cut in 0..bytes.len() {
            let b = &bytes[..cut];
            assert!(read(b).is_err(), "cut {cut} read");
            assert!(decode_entry("key", b).is_err(), "cut {cut} decoded");
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x5a;
            assert!(read(&bad).is_err(), "byte {at} read");
            assert!(decode_entry("key", &bad).is_err(), "byte {at} decoded");
        }
        assert_eq!(read(&bytes), Ok(b"payload".to_vec()));
        assert_eq!(decode_entry("key", &bytes), Ok(&b"payload"[..]));
    }

    #[test]
    fn incremental_hash_matches_one_shot() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut h = Fnv1a::default();
        for part in bytes.chunks(37) {
            h.update(part);
        }
        assert_eq!((h.hash(), h.len()), (fnv1a64(&bytes), 1000));
    }

    #[test]
    fn a_decoder_rejection_comes_after_every_framing_check() {
        let bytes = encode_entry("key", b"payload");
        let mut reject = |r: &mut dyn Read, len: usize| -> Result<(), String> {
            let mut first = [0u8; 3];
            r.read_exact(&mut first).map_err(|e| e.to_string())?;
            assert_eq!((&first, len), (b"pay", 7));
            Err("not a capture".to_string())
        };
        let size = bytes.len() as u64;
        let verdict = read_entry("key", &bytes[..], size, &mut reject).expect("read");
        let reason = "not a capture".to_string();
        assert_eq!(verdict, Err(Corruption::Undecodable { reason }));
        let mut bad = bytes.clone();
        *bad.last_mut().expect("payload byte") ^= 1;
        let verdict = read_entry("key", &bad[..], size, &mut reject).expect("read");
        assert!(matches!(verdict, Err(Corruption::ChecksumMismatch { .. })));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
