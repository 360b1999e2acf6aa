//! Per-thread event streams.
//!
//! A parallel region runs its logical threads one after another, so
//! every thread's events are buffered until [`crate::Profiler`]
//! interleaves them. The buffer is a compact byte stream, not a
//! `Vec<Ev>`: each event is one record, a tag byte followed by
//!
//! * `Read`/`Write`: the size byte and the zigzag-encoded delta of the
//!   address from the thread's previous memory address;
//! * `Alu`/`Branch`/`Exec`: the count or region id.
//!
//! The value is a varint whose length sits in the tag: the tag's low 3
//! bits are the kind and its high bits the number `n` of value bytes
//! (0 to 8) that follow, little-endian, with leading zero bytes
//! dropped. It is never longer than LEB128, and a record is written as
//! one fixed-size store and read as one 8-byte load, with no loop over
//! continuation bits. Workloads walk arrays, so most address deltas
//! and counts fit one byte, and a record averages about 3 bytes
//! against 16 for an [`Ev`].
//!
//! The stream decodes losslessly back to the same `Ev`s in order. The
//! interleave quantum counts events, so runs of `Alu`/`Branch` are not
//! merged: that would change which events share a quantum, and so the
//! interleaved order and every cache statistic.

/// One instrumentation event from a logical thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A data read of `size` bytes at `addr`.
    Read {
        /// Byte address.
        addr: u64,
        /// Access width in bytes.
        size: u8,
    },
    /// A data write of `size` bytes at `addr`.
    Write {
        /// Byte address.
        addr: u64,
        /// Access width in bytes.
        size: u8,
    },
    /// `n` arithmetic/logic instructions.
    Alu(u32),
    /// `n` branch instructions.
    Branch(u32),
    /// Execution entered code region `id` (instruction-footprint marker).
    Exec(u32),
}

const READ: u8 = 0;
const WRITE: u8 = 1;
const ALU: u8 = 2;
const BRANCH: u8 = 3;
const EXEC: u8 = 4;

/// Every record is written as one chunk of this size (a tag, a size
/// and an 8-byte value fit) and then cut to its used length.
const CHUNK: usize = 16;

/// Bytes needed for the significant bytes of `v` (0 for 0).
#[inline]
fn value_len(v: u64) -> usize {
    (71 - v.leading_zeros() as usize) / 8
}

/// One logical thread's buffered events, encoded.
#[derive(Debug, Default)]
pub(crate) struct EventStream {
    bytes: Vec<u8>,
    len: usize,
    last_addr: u64,
    /// Set once the buffer could not grow; nothing is recorded after.
    full: bool,
}

impl EventStream {
    /// A stream that records nothing, as if it were already full.
    pub(crate) fn closed() -> EventStream {
        EventStream {
            full: true,
            ..EventStream::default()
        }
    }

    /// Appends one event; on allocation failure marks the stream full
    /// and drops this and every later event.
    #[inline]
    pub(crate) fn push(&mut self, ev: Ev) {
        if self.bytes.capacity() - self.bytes.len() < CHUNK && !self.grow() {
            return;
        }
        let mut rec = [0u8; CHUNK];
        let used = match ev {
            Ev::Read { addr, size } | Ev::Write { addr, size } => {
                let kind = match ev {
                    Ev::Read { .. } => READ,
                    _ => WRITE,
                };
                let delta = addr.wrapping_sub(self.last_addr) as i64;
                self.last_addr = addr;
                let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
                let n = value_len(zigzag);
                rec[0] = kind | (n as u8) << 3;
                rec[1] = size;
                rec[2..10].copy_from_slice(&zigzag.to_le_bytes());
                2 + n
            }
            Ev::Alu(v) | Ev::Branch(v) | Ev::Exec(v) => {
                let kind = match ev {
                    Ev::Alu(_) => ALU,
                    Ev::Branch(_) => BRANCH,
                    _ => EXEC,
                };
                let n = value_len(u64::from(v));
                rec[0] = kind | (n as u8) << 3;
                rec[1..9].copy_from_slice(&u64::from(v).to_le_bytes());
                1 + n
            }
        };
        // One fixed-size copy, then drop the unused tail: cheaper than
        // a copy of variable length.
        let end = self.bytes.len() + used;
        self.bytes.extend_from_slice(&rec);
        self.bytes.truncate(end);
        self.len += 1;
    }

    /// Grows the buffer by at least one chunk, amortized; on failure
    /// marks the stream full and returns `false`. A full stream never
    /// grows again, and since it never fills its spare room either,
    /// every later push comes here and is dropped.
    #[cold]
    fn grow(&mut self) -> bool {
        self.full = self.full || self.bytes.try_reserve(CHUNK).is_err();
        !self.full
    }

    /// Events recorded.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Encoded bytes held.
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Whether an allocation failure stopped the recording.
    pub(crate) fn is_full(&self) -> bool {
        self.full
    }

    /// A cursor decoding the recorded events in order.
    pub(crate) fn events(&self) -> Events<'_> {
        Events {
            bytes: &self.bytes,
            pos: 0,
            last_addr: 0,
        }
    }
}

/// `LOW_BYTES[n]` keeps the low `n` bytes of a word.
const LOW_BYTES: [u64; 9] = {
    let mut m = [u64::MAX; 9];
    let mut n = 0;
    while n < 8 {
        m[n] = (1 << (8 * n)) - 1;
        n += 1;
    }
    m
};

/// Decoding cursor over an [`EventStream`].
#[derive(Debug)]
pub(crate) struct Events<'a> {
    bytes: &'a [u8],
    pos: usize,
    last_addr: u64,
}

impl Events<'_> {
    /// Reads the `n`-byte little-endian value at `at`: one 8-byte load
    /// and a mask, except at the stream's end.
    #[inline]
    fn value(&self, at: usize, n: usize) -> u64 {
        if let Some(chunk) = self.bytes.get(at..at + 8) {
            let mut le = [0u8; 8];
            le.copy_from_slice(chunk);
            return u64::from_le_bytes(le) & LOW_BYTES[n];
        }
        self.tail_value(at, n)
    }

    /// [`value`](Events::value) near the stream's end, where fewer
    /// than 8 bytes follow `at`.
    #[cold]
    #[inline(never)]
    fn tail_value(&self, at: usize, n: usize) -> u64 {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&self.bytes[at..at + n]);
        u64::from_le_bytes(le)
    }

    /// Decodes the next event and hands it to `f`, or returns `None`
    /// at the end. Each kind calls `f` from its own arm, so once `f`
    /// is inlined its own match on the event can fold into these arms.
    /// Always inlined: left to the compiler, the decoder stayed a call
    /// per event in the interleave loop.
    #[inline(always)]
    pub(crate) fn step<R>(&mut self, f: impl FnOnce(Ev) -> R) -> Option<R> {
        let tag = *self.bytes.get(self.pos)?;
        let n = usize::from(tag >> 3);
        let kind = tag & 7;
        if kind <= WRITE {
            let size = self.bytes[self.pos + 1];
            let zigzag = self.value(self.pos + 2, n);
            self.pos += 2 + n;
            let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
            let addr = self.last_addr.wrapping_add(delta as u64);
            self.last_addr = addr;
            return Some(if kind == READ {
                f(Ev::Read { addr, size })
            } else {
                f(Ev::Write { addr, size })
            });
        }
        // Counts and region ids were encoded from a `u32`.
        let v = self.value(self.pos + 1, n) as u32;
        self.pos += 1 + n;
        Some(match kind {
            ALU => f(Ev::Alu(v)),
            BRANCH => f(Ev::Branch(v)),
            _ => f(Ev::Exec(v)),
        })
    }
}

/// The event recorder handed to each logical thread of a parallel
/// region.
#[derive(Debug)]
pub struct ThreadTracer {
    tid: usize,
    stream: EventStream,
}

impl ThreadTracer {
    pub(crate) fn new(tid: usize, stream: EventStream) -> ThreadTracer {
        ThreadTracer { tid, stream }
    }

    /// This logical thread's id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Records a data read.
    #[inline]
    pub fn read(&mut self, addr: u64, size: u8) {
        self.stream.push(Ev::Read { addr, size });
    }

    /// Records a data write.
    #[inline]
    pub fn write(&mut self, addr: u64, size: u8) {
        self.stream.push(Ev::Write { addr, size });
    }

    /// Records `n` ALU instructions.
    #[inline]
    pub fn alu(&mut self, n: u32) {
        if n > 0 {
            self.stream.push(Ev::Alu(n));
        }
    }

    /// Records `n` branch instructions.
    #[inline]
    pub fn branch(&mut self, n: u32) {
        if n > 0 {
            self.stream.push(Ev::Branch(n));
        }
    }

    /// Records execution of a code region (see
    /// [`crate::Profiler::code_region`]).
    #[inline]
    pub fn exec(&mut self, region: u32) {
        self.stream.push(Ev::Exec(region));
    }

    /// Convenience: a read-modify-write of one word plus its arithmetic.
    #[inline]
    pub fn update(&mut self, addr: u64, size: u8, alu: u32) {
        self.read(addr, size);
        self.alu(alu);
        self.write(addr, size);
    }

    pub(crate) fn into_stream(self) -> EventStream {
        self.stream
    }

    /// Number of buffered events (for region-size heuristics in tests).
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.stream.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tracer(tid: usize) -> ThreadTracer {
        ThreadTracer::new(tid, EventStream::default())
    }

    fn decoded(s: &EventStream) -> Vec<Ev> {
        let mut events = s.events();
        std::iter::from_fn(|| events.step(|ev| ev)).collect()
    }

    #[test]
    fn events_record_in_order() {
        let mut t = tracer(3);
        assert_eq!(t.tid(), 3);
        t.read(0x100, 4);
        t.alu(2);
        t.write(0x104, 8);
        t.branch(1);
        t.exec(7);
        let ev = decoded(&t.into_stream());
        assert_eq!(
            ev,
            vec![
                Ev::Read {
                    addr: 0x100,
                    size: 4
                },
                Ev::Alu(2),
                Ev::Write {
                    addr: 0x104,
                    size: 8
                },
                Ev::Branch(1),
                Ev::Exec(7),
            ]
        );
    }

    #[test]
    fn zero_counts_are_elided() {
        let mut t = tracer(0);
        t.alu(0);
        t.branch(0);
        assert!(t.is_empty());
    }

    #[test]
    fn update_is_read_alu_write() {
        let mut t = tracer(0);
        t.update(64, 4, 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn strided_accesses_encode_in_three_bytes() {
        let mut s = EventStream::default();
        for i in 0..100u64 {
            s.push(Ev::Read {
                addr: 4096 + i * 8,
                size: 8,
            });
        }
        // The first delta (4096) takes two varint bytes, every later one
        // (+8, zigzag 16) takes one.
        assert_eq!(s.encoded_bytes(), 4 + 99 * 3);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn a_closed_stream_records_nothing() {
        let mut t = ThreadTracer::new(0, EventStream::closed());
        t.update(64, 4, 3);
        let s = t.into_stream();
        assert!(s.is_full());
        assert_eq!((s.len(), s.encoded_bytes()), (0, 0));
    }

    /// Draws an event from `((kind, pick), raw, size, count)`: `pick`
    /// chooses the address extremes, a raw address, or a small step
    /// from `prev`, and the count extremes or a raw count.
    fn event(prev: u64, ((kind, pick), raw, size, count): ((u8, u8), u64, u8, u32)) -> Ev {
        let addr = match pick {
            0 => 0,
            1 => u64::MAX,
            2 => raw,
            _ => prev.wrapping_add(raw % 512).wrapping_sub(256),
        };
        let n = match pick {
            0 => 0,
            1 => u32::MAX,
            _ => count,
        };
        match kind {
            0 => Ev::Read { addr, size },
            1 => Ev::Write { addr, size },
            2 => Ev::Alu(n),
            3 => Ev::Branch(n),
            _ => Ev::Exec(n),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any event sequence decodes back to itself: address jumps
        /// between 0 and `u64::MAX`, sizes 0 to 255, counts and region
        /// ids up to `u32::MAX` (zero counts included).
        #[test]
        fn encoding_round_trips(
            draws in proptest::collection::vec(
                ((0u8..5, 0u8..4), 0u64..u64::MAX, 0u8..=255, 0u32..=u32::MAX),
                0..200,
            ),
        ) {
            let mut evs = Vec::with_capacity(draws.len());
            let mut prev = 0;
            for d in draws {
                let ev = event(prev, d);
                if let Ev::Read { addr, .. } | Ev::Write { addr, .. } = ev {
                    prev = addr;
                }
                evs.push(ev);
            }
            let mut s = EventStream::default();
            for &ev in &evs {
                s.push(ev);
            }
            prop_assert_eq!(s.len(), evs.len());
            prop_assert!(s.encoded_bytes() <= evs.len() * CHUNK);
            let back = decoded(&s);
            prop_assert_eq!(back, evs);
        }
    }
}
