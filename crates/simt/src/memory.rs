//! Device memory: typed buffers laid out in a flat global address space.
//!
//! The Rodinia applications adopt an "offloading" model in which the
//! accelerator uses a memory space disjoint from host memory; [`GpuMem`]
//! models that space. Buffers receive 256-byte-aligned base addresses so
//! that coalescing and cache behavior are realistic, and host↔device
//! copies are counted (the offloading model's transfer traffic).

use crate::sanitizer::{AllocInfo, TapeBuf};

/// Handle to a device buffer of `f32` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufF32(pub(crate) usize);

/// Handle to a device buffer of `u32` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufU32(pub(crate) usize);

/// One device buffer: its contents and where it sits.
#[derive(Debug, Clone)]
struct Buffer<T> {
    name: String,
    base: u64,
    /// Whether the buffer's contents were defined by the host (initial
    /// copy, zero fill, or a later `write_*`). `false` only for the
    /// `alloc_*_uninit` allocators, whose contents are undefined until a
    /// kernel writes them — the sanitizer's read-before-write checker
    /// keys off this flag.
    host_init: bool,
    data: Vec<T>,
}

impl<T: Copy> Buffer<T> {
    fn view(&mut self, tape: TapeBuf) -> View<'_, T> {
        View {
            name: &self.name,
            base: self.base,
            data: &mut self.data,
            tape,
        }
    }

    /// Overwrites the contents from the host, returning the bytes moved.
    fn write(&mut self, data: &[T]) -> u64 {
        assert_eq!(
            data.len(),
            self.data.len(),
            "write must match buffer length"
        );
        self.data.copy_from_slice(data);
        self.host_init = true;
        data.len() as u64 * 4
    }

    fn info(&self) -> AllocInfo {
        AllocInfo {
            name: self.name.clone(),
            words: self.data.len() as u32,
            initialized: self.host_init,
        }
    }
}

/// The storage one warp access reads and writes: a device buffer, or
/// the CTA's shared scratch (`base` 0). Every `ld_*`/`st_*` method of
/// [`crate::WarpCtx`] reaches memory through this one view.
pub(crate) struct View<'a, T> {
    /// Name for fault messages.
    pub(crate) name: &'a str,
    /// Device byte address of word 0.
    pub(crate) base: u64,
    pub(crate) data: &'a mut [T],
    /// The allocation as the sanitizer tape names it.
    pub(crate) tape: TapeBuf,
}

/// A typed buffer handle, resolved to its [`View`].
pub(crate) trait Handle: Copy {
    type Elem;
    fn view(self, mem: &mut GpuMem) -> View<'_, Self::Elem>;
}

impl Handle for BufF32 {
    type Elem = f32;
    fn view(self, mem: &mut GpuMem) -> View<'_, f32> {
        mem.f32s[self.0].view(TapeBuf::GlobalF32(self.0 as u32))
    }
}

impl Handle for BufU32 {
    type Elem = u32;
    fn view(self, mem: &mut GpuMem) -> View<'_, u32> {
        mem.u32s[self.0].view(TapeBuf::GlobalU32(self.0 as u32))
    }
}

/// The GPU's global memory: a set of typed buffers with stable base
/// addresses.
#[derive(Debug, Clone, Default)]
pub struct GpuMem {
    f32s: Vec<Buffer<f32>>,
    u32s: Vec<Buffer<u32>>,
    next_base: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
}

const BASE_ALIGN: u64 = 256;

impl GpuMem {
    /// Creates an empty device memory.
    pub fn new() -> GpuMem {
        GpuMem::default()
    }

    /// Places `data` at the next aligned base address.
    fn place<T>(&mut self, name: &str, data: Vec<T>, host_init: bool) -> Buffer<T> {
        let base = self.next_base;
        let bytes = (data.len() as u64 * 4).max(1);
        self.next_base += bytes.div_ceil(BASE_ALIGN) * BASE_ALIGN;
        Buffer {
            name: name.to_string(),
            base,
            host_init,
            data,
        }
    }

    /// Allocates a named `f32` buffer and copies `init` into it
    /// (a `cudaMalloc` + `cudaMemcpy` host-to-device pair).
    pub fn alloc_f32(&mut self, name: &str, init: &[f32]) -> BufF32 {
        self.h2d_bytes += init.len() as u64 * 4;
        let buf = self.place(name, init.to_vec(), true);
        self.f32s.push(buf);
        BufF32(self.f32s.len() - 1)
    }

    /// Allocates a named zero-filled `f32` buffer of `len` elements.
    pub fn alloc_f32_zeroed(&mut self, name: &str, len: usize) -> BufF32 {
        let buf = self.place(name, vec![0.0; len], true);
        self.f32s.push(buf);
        BufF32(self.f32s.len() - 1)
    }

    /// Allocates a named `u32` buffer and copies `init` into it.
    pub fn alloc_u32(&mut self, name: &str, init: &[u32]) -> BufU32 {
        self.h2d_bytes += init.len() as u64 * 4;
        let buf = self.place(name, init.to_vec(), true);
        self.u32s.push(buf);
        BufU32(self.u32s.len() - 1)
    }

    /// Allocates a named zero-filled `u32` buffer of `len` elements.
    pub fn alloc_u32_zeroed(&mut self, name: &str, len: usize) -> BufU32 {
        let buf = self.place(name, vec![0; len], true);
        self.u32s.push(buf);
        BufU32(self.u32s.len() - 1)
    }

    /// Allocates a named `f32` buffer **without initializing it** — a
    /// bare `cudaMalloc` with no `cudaMemcpy`/`cudaMemset`. The
    /// simulator zero-fills it so execution stays deterministic, but the
    /// contents are *undefined* on real hardware until a kernel writes
    /// them, and the sanitizer's read-before-write checker reports any
    /// read that precedes the first kernel write.
    pub fn alloc_f32_uninit(&mut self, name: &str, len: usize) -> BufF32 {
        let buf = self.place(name, vec![0.0; len], false);
        self.f32s.push(buf);
        BufF32(self.f32s.len() - 1)
    }

    /// Allocates a named uninitialized `u32` buffer of `len` elements
    /// (see [`GpuMem::alloc_f32_uninit`]).
    pub fn alloc_u32_uninit(&mut self, name: &str, len: usize) -> BufU32 {
        let buf = self.place(name, vec![0; len], false);
        self.u32s.push(buf);
        BufU32(self.u32s.len() - 1)
    }

    /// Copies a buffer back to the host (`cudaMemcpy` device-to-host).
    pub fn read_f32(&self, buf: BufF32) -> Vec<f32> {
        self.f32s[buf.0].data.clone()
    }

    /// Copies a `u32` buffer back to the host.
    pub fn read_u32(&self, buf: BufU32) -> Vec<u32> {
        self.u32s[buf.0].data.clone()
    }

    /// Overwrites device data from the host (another H2D transfer).
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different length than the buffer.
    pub fn write_f32(&mut self, buf: BufF32, data: &[f32]) {
        self.h2d_bytes += self.f32s[buf.0].write(data);
    }

    /// Overwrites a `u32` device buffer from the host.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different length than the buffer.
    pub fn write_u32(&mut self, buf: BufU32, data: &[u32]) {
        self.h2d_bytes += self.u32s[buf.0].write(data);
    }

    /// Total host-to-device bytes copied so far.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d_bytes
    }

    /// Total device-to-host bytes copied so far.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h_bytes
    }

    /// Records a device-to-host copy of `buf` and returns its contents.
    pub fn copy_out_f32(&mut self, buf: BufF32) -> Vec<f32> {
        self.d2h_bytes += self.f32s[buf.0].data.len() as u64 * 4;
        self.f32s[buf.0].data.clone()
    }

    /// Snapshot of the `f32` allocation table for a sanitizer tape.
    pub(crate) fn snapshot_f32(&self) -> Vec<AllocInfo> {
        self.f32s.iter().map(Buffer::info).collect()
    }

    /// Snapshot of the `u32` allocation table for a sanitizer tape.
    pub(crate) fn snapshot_u32(&self) -> Vec<AllocInfo> {
        self.u32s.iter().map(Buffer::info).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_get_disjoint_aligned_bases() {
        let mut m = GpuMem::new();
        let a = m.alloc_f32("a", &[0.0; 100]);
        let b = m.alloc_u32("b", &[0; 7]);
        let c = m.alloc_f32_zeroed("c", 3);
        let (ba, bb, bc) = (
            a.view(&mut m).base,
            b.view(&mut m).base,
            c.view(&mut m).base,
        );
        assert_eq!(ba % 256, 0);
        assert_eq!(bb % 256, 0);
        assert!(bb >= ba + 400);
        assert!(bc > bb);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = GpuMem::new();
        let a = m.alloc_f32_zeroed("a", 4);
        m.write_f32(a, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.read_f32(a), vec![1.0, 2.0, 3.0, 4.0]);
        let view = a.view(&mut m);
        assert_eq!((view.name, view.data.len()), ("a", 4));
    }

    #[test]
    fn transfer_accounting() {
        let mut m = GpuMem::new();
        let a = m.alloc_f32("a", &[0.0; 10]);
        assert_eq!(m.h2d_bytes(), 40);
        let _ = m.copy_out_f32(a);
        assert_eq!(m.d2h_bytes(), 40);
        let b = m.alloc_u32_zeroed("b", 5);
        m.write_u32(b, &[1; 5]);
        assert_eq!(m.h2d_bytes(), 60);
    }

    #[test]
    #[should_panic(expected = "match buffer length")]
    fn mismatched_write_panics() {
        let mut m = GpuMem::new();
        let a = m.alloc_f32_zeroed("a", 4);
        m.write_f32(a, &[1.0]);
    }
}
