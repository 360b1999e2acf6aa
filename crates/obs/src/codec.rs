//! The byte cursor and writer behind both capture payload formats.
//!
//! `simt::serdes` (GPU kernel traces) and `tracekit::serdes` (CPU
//! memory traces) write flat little-endian streams through one
//! [`Writer`] and read them back through one [`Reader`]. Both move the
//! payload in chunks of at most [`CHUNK`] bytes, so encoding to a file
//! and decoding from one never hold the whole payload: the decoded (or
//! encoded) value is the only payload-sized thing in memory.
//!
//! Every read is bounds-checked against the stream's declared length
//! and fails with a [`CodecError`] naming the byte offset and the field,
//! so a payload that slipped past the store's checksum decodes to `Ok`
//! or `Err` and never panics: this module is the one place that
//! property has to hold. A count read from the stream can size an
//! allocation only up to the bytes the stream still declares
//! ([`Reader::capacity`], [`Reader::u64s`]), so a corrupt count cannot
//! make a decoder reserve more than the payload could hold. The small
//! reads and writes are `#[inline]` because decoders call them once per
//! field from other crates, and the workspace builds without LTO.

use std::fmt;
use std::io::{self, Read, Write};

/// Bytes a [`Reader`] pulls from its source, or a [`Writer`] hands to
/// its sink, at a time.
pub const CHUNK: usize = 64 * 1024;

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

/// A bounds-checked little-endian cursor over a payload of a declared
/// length, read from `R` one chunk at a time. Each read takes the name
/// of the field it reads, for the error. The cursor never reads past
/// the declared length; a source that ends before it fails the read
/// that needed the missing bytes.
#[derive(Debug)]
pub struct Reader<R> {
    src: R,
    /// Chunk buffer; `buf[lo..hi]` is read from the source but not yet
    /// consumed.
    buf: Vec<u8>,
    lo: usize,
    hi: usize,
    /// Stream offset of `buf[lo]`: the next unread byte.
    pos: usize,
    /// Declared stream length.
    len: usize,
}

impl<'a> Reader<&'a [u8]> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<&'a [u8]> {
        Reader::from_read(bytes, bytes.len())
    }
}

impl<R: Read> Reader<R> {
    /// A cursor over the first `len` bytes of `src`.
    pub fn from_read(src: R, len: usize) -> Reader<R> {
        Reader {
            src,
            buf: vec![0; CHUNK.min(len)],
            lo: 0,
            hi: 0,
            pos: 0,
            len,
        }
    }

    /// Offset of the next unread byte.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Declared bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// A capacity for a vector of `n` elements of `T` decoded from the
    /// rest of the stream: `n`, capped so the reservation is no larger
    /// than the bytes still declared. A vector holding more elements
    /// than that grows as they are actually decoded.
    #[inline]
    pub fn capacity<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    fn err(&self, what: &'static str) -> CodecError {
        CodecError {
            offset: self.pos,
            what,
        }
    }

    /// Makes at least `want` (≤ the buffer size) unread bytes available
    /// in the buffer, reading from the source but never past the
    /// declared length. Returns whether it could.
    fn fill(&mut self, want: usize) -> bool {
        if self.hi - self.lo >= want {
            return true;
        }
        self.buf.copy_within(self.lo..self.hi, 0);
        self.hi -= self.lo;
        self.lo = 0;
        while self.hi < want {
            let fetched = self.pos + self.hi;
            let room = (self.buf.len() - self.hi).min(self.len - fetched);
            if room == 0 {
                return false;
            }
            match self.src.read(&mut self.buf[self.hi..self.hi + room]) {
                Ok(0) => return false,
                Ok(n) => self.hi += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        if self.hi - self.lo < N && (self.remaining() < N || !self.fill(N)) {
            return Err(self.err(what));
        }
        let mut a = [0u8; N];
        a.copy_from_slice(&self.buf[self.lo..self.lo + N]);
        self.lo += N;
        self.pos += N;
        Ok(a)
    }

    /// The next `n` bytes, or an error if fewer remain.
    fn bytes(&mut self, n: usize, what: &'static str) -> Result<Vec<u8>, CodecError> {
        if self.remaining() < n {
            return Err(self.err(what));
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if !self.fill(1) {
                return Err(self.err(what));
            }
            let k = (self.hi - self.lo).min(n - out.len());
            out.extend_from_slice(&self.buf[self.lo..self.lo + k]);
            self.lo += k;
            self.pos += k;
        }
        Ok(out)
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
        String::from_utf8(self.bytes(len, what)?).map_err(|e| CodecError {
            offset: offset + e.utf8_error().valid_up_to(),
            what,
        })
    }

    /// A run of `n` little-endian `u64` words, bounds-checked against
    /// the declared length first, so a corrupt `n` fails before
    /// anything is allocated.
    pub fn u64s(&mut self, n: usize, what: &'static str) -> Result<Vec<u64>, CodecError> {
        match n.checked_mul(8) {
            Some(len) if len <= self.remaining() => {}
            _ => return Err(self.err(what)),
        }
        let mut words = Vec::with_capacity(n);
        while words.len() < n {
            if !self.fill(8) {
                return Err(self.err(what));
            }
            let k = ((self.hi - self.lo) / 8).min(n - words.len());
            let run = &self.buf[self.lo..self.lo + k * 8];
            words.extend(run.chunks_exact(8).map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            }));
            self.lo += k * 8;
            self.pos += k * 8;
        }
        Ok(words)
    }

    /// Ends decoding: an error if any declared bytes remain unread.
    pub fn finish(self, what: &'static str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.err(what)),
        }
    }
}

/// A little-endian payload writer that hands its output to a sink in
/// chunks of [`CHUNK`] bytes. Writes cannot fail individually: the
/// first sink error is kept, later output is dropped, and
/// [`Writer::finish`] reports it.
pub struct Writer<'a> {
    sink: &'a mut dyn Write,
    chunk: Vec<u8>,
    err: Option<io::Error>,
}

impl fmt::Debug for Writer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Writer")
            .field("buffered", &self.chunk.len())
            .field("err", &self.err)
            .finish_non_exhaustive()
    }
}

impl<'a> Writer<'a> {
    /// A writer into `sink`.
    pub fn new(sink: &'a mut dyn Write) -> Writer<'a> {
        Writer {
            sink,
            chunk: Vec::with_capacity(CHUNK),
            err: None,
        }
    }

    /// Hands the buffered bytes to the sink once a chunk is full.
    #[inline]
    fn spill(&mut self) {
        if self.chunk.len() >= CHUNK {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        if self.err.is_none() {
            if let Err(e) = self.sink.write_all(&self.chunk) {
                self.err = Some(e);
            }
        }
        self.chunk.clear();
    }

    /// Appends raw bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        for part in bytes.chunks(CHUNK) {
            self.chunk.extend_from_slice(part);
            self.spill();
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.chunk.push(v);
        self.spill();
    }

    /// Appends `v` little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.chunk.extend_from_slice(&v.to_le_bytes());
        self.spill();
    }

    /// Appends `v` little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.chunk.extend_from_slice(&v.to_le_bytes());
        self.spill();
    }

    /// Appends every word of `words` little-endian, in the form
    /// [`Reader::u64s`] reads.
    pub fn u64s(&mut self, words: &[u64]) {
        for run in words.chunks(CHUNK / 8) {
            for &w in run {
                self.chunk.extend_from_slice(&w.to_le_bytes());
            }
            self.spill();
        }
    }

    /// Appends `s` in the form [`Reader::str`] reads.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Hands the last partial chunk to the sink and reports the first
    /// sink error, if any.
    ///
    /// # Errors
    ///
    /// The first error the sink returned.
    pub fn finish(mut self) -> io::Result<()> {
        if !self.chunk.is_empty() {
            self.flush_chunk();
        }
        self.err.map_or(Ok(()), Err)
    }
}

/// Runs `encode` on a [`Writer`] into a fresh vector: the whole
/// payload, for callers that want it in memory.
pub fn encode_to_vec(encode: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = Writer::new(&mut out);
    encode(&mut w);
    // Writing to a vector cannot fail.
    let _ = w.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode_to_vec(|w| {
            w.u8(7);
            w.u8(1);
            w.u32(0xdead_beef);
            for v in [u64::MAX, 42] {
                w.u64(v);
            }
            w.u64s(&[3, 1 << 40]);
            w.str("ménage");
        })
    }

    fn check_sample<R: Read>(mut r: Reader<R>) {
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
    fn every_read_round_trips_its_writer() {
        check_sample(Reader::new(&sample()));
    }

    /// A source that hands out at most one byte per read.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn reads_span_short_source_reads() {
        let bytes = sample();
        check_sample(Reader::from_read(Trickle(&bytes), bytes.len()));
    }

    #[test]
    fn chunked_runs_cross_chunk_boundaries() {
        // Words and bytes longer than a chunk, at an odd offset, so
        // every run straddles refills and spills.
        let words: Vec<u64> = (0..(CHUNK as u64 / 8) * 3 + 5)
            .map(|i| i * 0x0101)
            .collect();
        let text = "x".repeat(CHUNK + 3);
        let bytes = encode_to_vec(|w| {
            w.u8(1);
            w.u64s(&words);
            w.str(&text);
        });
        assert_eq!(bytes.len(), 1 + words.len() * 8 + 4 + text.len());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("tag"), Ok(1));
        assert_eq!(r.u64s(words.len(), "words").as_deref(), Ok(&words[..]));
        assert_eq!(r.str("text").as_deref(), Ok(text.as_str()));
        assert_eq!(r.finish("trailing"), Ok(()));
    }

    #[test]
    fn a_source_shorter_than_declared_fails_the_read() {
        let bytes = sample();
        let mut r = Reader::from_read(&bytes[..5], bytes.len());
        assert_eq!(r.u8("u8"), Ok(7));
        assert_eq!(r.u8("bool"), Ok(1));
        assert_eq!(
            r.u32("u32"),
            Err(CodecError {
                offset: 2,
                what: "u32"
            })
        );
        // The declared length bounds reads even when the source has more.
        let mut r = Reader::from_read(&bytes[..], 3);
        assert_eq!(
            r.u32("u32"),
            Err(CodecError {
                offset: 0,
                what: "u32"
            })
        );
        assert_eq!(r.capacity::<u64>(100), 0);
        assert_eq!(r.capacity::<u8>(100), 3);
    }

    #[test]
    fn a_failing_sink_is_reported_once_at_finish() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Full;
        let mut w = Writer::new(&mut sink);
        w.u64s(&vec![0; CHUNK]);
        assert_eq!(w.finish().unwrap_err().to_string(), "full");
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
