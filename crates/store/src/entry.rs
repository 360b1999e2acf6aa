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
//! FNV-1a detects every single-byte change: each step
//! `h' = (h ^ b) * P` is a bijection of `h` for fixed `b` (P is odd),
//! and two distinct bytes at the same position map one state to two
//! distinct states, so differing inputs of equal length can only
//! collide by later *re*-collision, which a one-byte delta cannot
//! arrange. The property test in `tests/entry_props.rs` exercises it
//! exhaustively over random entries.

use std::fmt;
use std::io::{self, Read};

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
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
        }
    }
}

/// The frame header of `payload` under `key`: every byte of the entry
/// before the payload. [`encode_entry`] is this followed by `payload`;
/// the store writes the two parts in turn, so it never builds a second
/// payload-sized buffer.
///
/// # Panics
///
/// Panics if `key` is longer than `u16::MAX` bytes; store keys are
/// short fingerprint strings, so this is a caller bug.
pub(crate) fn entry_header(key: &str, payload: &[u8]) -> Vec<u8> {
    let kb = key.as_bytes();
    assert!(kb.len() <= usize::from(u16::MAX), "store key too long");
    let mut out = Vec::with_capacity(PRE_KEY + kb.len() + POST_KEY);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(kb.len() as u16).to_le_bytes());
    out.extend_from_slice(kb);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Frames `payload` as a store entry for `key`.
///
/// # Panics
///
/// As `entry_header`.
pub fn encode_entry(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = entry_header(key, payload);
    out.extend_from_slice(payload);
    out
}

/// The verified header fields of one entry.
struct Header {
    /// Header bytes before the payload.
    len: usize,
    /// Declared payload length.
    declared: u64,
    /// Stored payload checksum.
    checksum: u64,
}

/// Verifies the header of an entry of `have` bytes whose leading bytes
/// are `head` (all of it, or at least its whole header) against `key`.
fn check_header(key: &str, head: &[u8], have: u64) -> Result<Header, Corruption> {
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
        len,
        declared: u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes")),
        checksum: u64::from_le_bytes(head[at + 8..len].try_into().expect("8 bytes")),
    })
}

/// The key-echo length field of a header of at least [`PRE_KEY`] bytes.
fn key_len(head: &[u8]) -> usize {
    usize::from(u16::from_le_bytes(head[8..10].try_into().expect("2 bytes")))
}

/// Verifies `payload` against its header's declared length and
/// checksum.
fn check_payload(header: &Header, payload: &[u8]) -> Result<(), Corruption> {
    if payload.len() as u64 != header.declared {
        return Err(Corruption::LengthMismatch {
            declared: header.declared,
            actual: payload.len() as u64,
        });
    }
    let computed = fnv1a64(payload);
    if computed != header.checksum {
        return Err(Corruption::ChecksumMismatch {
            stored: header.checksum,
            computed,
        });
    }
    Ok(())
}

/// Verifies the framing of `bytes` against `key` and returns the
/// payload slice.
///
/// # Errors
///
/// A [`Corruption`] naming the first check that failed. No payload
/// byte is ever returned from an entry that fails any check.
pub fn decode_entry<'a>(key: &str, bytes: &'a [u8]) -> Result<&'a [u8], Corruption> {
    let header = check_header(key, bytes, bytes.len() as u64)?;
    let payload = &bytes[header.len..];
    check_payload(&header, payload)?;
    Ok(payload)
}

/// Reads one entry from `r` and verifies it against `key` exactly as
/// [`decode_entry`] would over the same bytes, but reads the header and
/// the payload into separate buffers, so the payload arrives in its own
/// allocation with no copy out of a whole-file buffer. `size_hint` is
/// the expected entry size (the file length); it only sizes the payload
/// buffer.
///
/// # Errors
///
/// The outer error is a read failure; the inner one the [`Corruption`]
/// [`decode_entry`] reports for the same bytes.
pub(crate) fn read_entry(
    key: &str,
    mut r: impl Read,
    size_hint: u64,
) -> io::Result<Result<Vec<u8>, Corruption>> {
    let mut head = Vec::with_capacity(PRE_KEY + key.len() + POST_KEY);
    r.by_ref().take(PRE_KEY as u64).read_to_end(&mut head)?;
    if head.len() == PRE_KEY {
        let rest = key_len(&head) + POST_KEY;
        r.by_ref().take(rest as u64).read_to_end(&mut head)?;
    }
    let hint = usize::try_from(size_hint).unwrap_or(0);
    let mut payload = Vec::with_capacity(hint.saturating_sub(head.len()));
    r.read_to_end(&mut payload)?;
    let have = (head.len() + payload.len()) as u64;
    Ok(check_header(key, &head, have)
        .and_then(|header| check_payload(&header, &payload))
        .map(|()| payload))
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
    fn read_entry_agrees_with_decode_entry() {
        // Every truncation and every single-byte change of one entry:
        // reading it from a stream gives decode_entry's verdict.
        let bytes = encode_entry("key", b"payload");
        let verdict = |b: &[u8]| read_entry("key", b, b.len() as u64).expect("in-memory read");
        let decoded = |b: &[u8]| decode_entry("key", b).map(<[u8]>::to_vec);
        for cut in 0..=bytes.len() {
            assert_eq!(verdict(&bytes[..cut]), decoded(&bytes[..cut]), "cut {cut}");
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x5a;
            assert_eq!(verdict(&bad), decoded(&bad), "byte {at}");
        }
        assert_eq!(verdict(&bytes), Ok(b"payload".to_vec()));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
