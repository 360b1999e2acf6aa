//! The byte cursor behind both capture payload formats.
//!
//! `simt::serdes` (GPU kernel traces) and `tracekit::serdes` (CPU
//! memory traces) write flat little-endian streams with the `put_*`
//! helpers and read them back through one [`Reader`]. Every read is
//! bounds-checked and fails with a [`CodecError`] naming the byte offset
//! and the field, so a payload that slipped past the store's checksum
//! decodes to `Ok` or `Err` and never panics: this module is the one
//! place that property has to hold. The small reads are `#[inline]`
//! because decoders call them once per field from other crates, and
//! the workspace builds without LTO.

use std::fmt;

/// A malformed payload: where decoding failed and what it was reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What the decoder was reading there.
    pub what: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed payload at byte {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked little-endian cursor over a payload. Each read
/// takes the name of the field it reads, for the error.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Offset of the next unread byte.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes, or an error if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError {
                offset: self.pos,
                what,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// One byte that must be `0` or `1`.
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError {
                offset: self.pos - 1,
                what,
            }),
        }
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A little-endian `u64` that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let offset = self.pos;
        usize::try_from(self.u64(what)?).map_err(|_| CodecError { offset, what })
    }

    /// A `u32` byte length and that many bytes of UTF-8; invalid UTF-8
    /// is reported at its first bad byte.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let offset = self.pos;
        match std::str::from_utf8(self.take(len, what)?) {
            Ok(s) => Ok(s.to_owned()),
            Err(e) => Err(CodecError {
                offset: offset + e.valid_up_to(),
                what,
            }),
        }
    }

    /// A run of `n` little-endian `u64` words, bounds-checked once, so
    /// a corrupt `n` fails before anything is allocated.
    pub fn u64s(&mut self, n: usize, what: &'static str) -> Result<Vec<u64>, CodecError> {
        let len = n.checked_mul(8).ok_or(CodecError {
            offset: self.pos,
            what,
        })?;
        let words = self.take(len, what)?.chunks_exact(8).map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            u64::from_le_bytes(w)
        });
        Ok(words.collect())
    }

    /// Ends decoding: an error if any bytes remain unread.
    pub fn finish(self, what: &'static str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CodecError {
                offset: self.pos,
                what,
            }),
        }
    }
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` in the form [`Reader::str`] reads.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_round_trips_its_writer() {
        let mut out = vec![7, 1];
        put_u32(&mut out, 0xdead_beef);
        for v in [u64::MAX, 42, 3, 1 << 40] {
            put_u64(&mut out, v);
        }
        put_str(&mut out, "ménage");
        let mut r = Reader::new(&out);
        assert_eq!((r.u8("u8"), r.bool("bool")), (Ok(7), Ok(true)));
        assert_eq!(
            (r.u32("u32"), r.u64("u64")),
            (Ok(0xdead_beef), Ok(u64::MAX))
        );
        assert_eq!(
            (r.usize("usize"), r.u64s(2, "words")),
            (Ok(42), Ok(vec![3, 1 << 40]))
        );
        assert_eq!(r.str("str").as_deref(), Ok("ménage"));
        assert_eq!(r.finish("trailing"), Ok(()));
    }

    #[test]
    fn errors_name_the_offset_and_field() {
        fn err<T>(offset: usize, what: &'static str) -> Result<T, CodecError> {
            Err(CodecError { offset, what })
        }
        let mut r = Reader::new(&[2, 0, 0]);
        assert_eq!(r.bool("flag"), err(0, "flag"));
        assert_eq!(r.u32("short"), err(1, "short"));
        assert_eq!(r.u64s(usize::MAX, "words"), err(1, "words"));
        assert_eq!(r.u64s(1, "words"), err(1, "words"));
        assert_eq!(r.finish("trailing"), err(1, "trailing"));
        assert_eq!(
            Reader::new(&[3, 0, 0, 0, b'a', 0xff, b'b']).str("name"),
            err(5, "name")
        );
        let msg = Reader::new(&[]).u8("tag").unwrap_err().to_string();
        assert_eq!(msg, "malformed payload at byte 0: tag");
    }
}
