//! The chunked store reader never trusts a payload it has not verified.
//!
//! For one CPU capture entry and one GPU capture entry, every
//! truncation and every single-byte change of the entry file is read
//! through `store::read_entry` with the codec's streaming decoder
//! (`tracekit::read_capture`, `simt::read_capture_payload`) — what
//! `TraceStore::load_with` runs on every restore. Each verdict must be
//! the one the in-memory path (`decode_entry`, then the slice decoder)
//! gives for the same bytes: the original capture, or a typed
//! `Corruption`. It never panics and never returns a different capture,
//! and a corrupted count cannot make the decoder reserve memory the
//! declared payload could not hold.

use std::fs;
use std::io::Read;
use std::sync::Arc;

use simt::{BufF32, Gpu, GpuConfig, GridShape, Kernel, PhaseControl, WarpCtx};
use store::{decode_entry, encode_entry, read_entry, Corruption, TraceStore};
use tracekit::{CpuCapture, CpuWorkload, ProfileConfig, Profiler, ThreadTracer};

/// A CPU workload with reads, writes and branches over a few lines.
struct Small;

impl CpuWorkload for Small {
    fn name(&self) -> &'static str {
        "small"
    }
    fn run(&self, prof: &mut Profiler) {
        let data = prof.alloc("data", 64 * 16);
        let code = prof.code_region("loop", 64);
        prof.parallel(|t: &mut ThreadTracer| {
            t.exec(code);
            for i in 0..6u64 {
                t.read(data + (t.tid() as u64 * 6 + i) * 64, 4);
                t.update(data + i * 8, 8, 1);
                t.branch(1);
            }
        });
    }
}

/// A two-phase kernel with global, shared and ALU work.
struct Stage {
    buf: BufF32,
    n: usize,
}

impl Kernel for Stage {
    fn name(&self) -> &str {
        "stage"
    }
    fn shape(&self) -> GridShape {
        GridShape::cover(self.n, 64)
    }
    fn shared_f32_words(&self) -> usize {
        64
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let (buf, n, base) = (self.buf, self.n, w.warp() * w.warp_size());
        if w.phase() == 0 {
            let x = w.ld_f32(buf, |_, tid| (tid < n).then_some(tid));
            w.sh_st_f32(|lane, _| Some((base + lane, x[lane])));
            return PhaseControl::Continue;
        }
        let y = w.sh_ld_f32(|lane, _| Some((base + lane + 1) % 64));
        w.alu(2);
        w.st_f32(buf, |lane, tid| (tid < n).then_some((tid, y[lane] + 1.0)));
        PhaseControl::Done
    }
}

fn cpu_payload() -> Vec<u8> {
    let cfg = ProfileConfig {
        threads: 2,
        cache_sizes: vec![1024],
        ..ProfileConfig::default()
    };
    let cap = CpuCapture::capture(&Small, &cfg).expect("capture");
    tracekit::encode_capture(&cap)
}

fn gpu_payload() -> Vec<u8> {
    let mut gpu = Gpu::try_new(GpuConfig::gpgpusim_default()).expect("config");
    gpu.set_trace_recording(true);
    let buf = gpu.mem_mut().alloc_f32_zeroed("buf", 96);
    gpu.try_launch(&Stage { buf, n: 96 }).expect("launch");
    gpu.try_launch(&Stage { buf, n: 40 }).expect("launch");
    let traces: Vec<Arc<_>> = gpu.take_recorded_traces();
    simt::encode_capture_payload(&traces, 384, 384)
}

/// A codec as the store uses it: the in-memory decoder and the
/// streaming one, each re-encoding what it decoded so verdicts compare
/// as bytes.
struct Codec {
    name: &'static str,
    slice: fn(&[u8]) -> Result<Vec<u8>, String>,
    stream: fn(&mut dyn Read, usize) -> Result<Vec<u8>, String>,
}

const CODECS: [Codec; 2] = [
    Codec {
        name: "cpu",
        slice: |b| {
            let cap = tracekit::decode_capture(b).map_err(|e| e.to_string())?;
            Ok(tracekit::encode_capture(&cap))
        },
        stream: |r, len| {
            let cap = tracekit::read_capture(r, len).map_err(|e| e.to_string())?;
            Ok(tracekit::encode_capture(&cap))
        },
    },
    Codec {
        name: "gpu",
        slice: |b| {
            let (t, h2d, d2h) = simt::decode_capture_payload(b).map_err(|e| e.to_string())?;
            Ok(simt::encode_capture_payload(&t, h2d, d2h))
        },
        stream: |r, len| {
            let (t, h2d, d2h) = simt::read_capture_payload(r, len).map_err(|e| e.to_string())?;
            Ok(simt::encode_capture_payload(&t, h2d, d2h))
        },
    },
];

/// The process's peak virtual size in KiB (`VmPeak`), where the
/// platform reports it: a reservation shows here even if no page of it
/// is ever touched.
fn vm_peak_kib() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn every_truncation_and_byte_flip_reads_back_the_capture_or_a_typed_rejection() {
    let key = "stream/v1/entry";
    let peak_before = vm_peak_kib();
    for (codec, payload) in CODECS.iter().zip([cpu_payload(), gpu_payload()]) {
        assert!(payload.len() > 200, "{}: payload too small", codec.name);
        let bytes = encode_entry(key, &payload);
        let expected = |b: &[u8]| {
            decode_entry(key, b)
                .and_then(|p| (codec.slice)(p).map_err(|reason| Corruption::Undecodable { reason }))
        };
        let streamed = |b: &[u8]| {
            let mut decode = codec.stream;
            read_entry(key, b, b.len() as u64, &mut decode).expect("in-memory read")
        };
        let mut variants: Vec<Vec<u8>> =
            (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for at in 0..bytes.len() {
            for mask in [0x01, 0x5a, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                variants.push(bad);
            }
        }
        for bad in &variants {
            let verdict = streamed(bad);
            assert_eq!(
                verdict,
                expected(bad),
                "{}: {} bytes",
                codec.name,
                bad.len()
            );
            if let Ok(back) = &verdict {
                assert!(
                    back == &payload,
                    "{}: a different capture came back",
                    codec.name
                );
            }
        }
        assert!(
            streamed(&bytes) == Ok(payload.clone()),
            "{}: clean entry",
            codec.name
        );
    }
    // A count flipped in a high byte asks for gigabytes; capped by the
    // declared length, no decode reserved more than a few megabytes.
    if let (Some(before), Some(after)) = (peak_before, vm_peak_kib()) {
        assert!(
            after.saturating_sub(before) < 512 * 1024,
            "VmPeak grew by {} KiB while decoding corrupt entries",
            after - before
        );
    }
}

#[test]
fn load_with_quarantines_what_it_cannot_verify_and_restores_what_it_can() {
    let dir = std::env::temp_dir().join(format!("rodinia-stream-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).expect("open");
    for (codec, payload) in CODECS.iter().zip([cpu_payload(), gpu_payload()]) {
        let key = format!("stream/v1/{}", codec.name);
        store
            .save_with(&key, |out| out.write_all(&payload))
            .expect("save");
        let on_disk = fs::read(store.entry_path(&key)).expect("entry");
        assert!(
            on_disk == encode_entry(&key, &payload),
            "{}: framing",
            codec.name
        );
        let back = store.load_with(&key, codec.stream);
        assert!(
            back.as_deref() == Some(&payload[..]),
            "{}: restore",
            codec.name
        );
        for (i, bad) in [on_disk[..on_disk.len() / 2].to_vec(), {
            let mut b = on_disk.clone();
            let last = b.len() - 1;
            b[last] ^= 0x10;
            b
        }]
        .iter()
        .enumerate()
        {
            let quarantined = store.quarantined_count();
            fs::write(store.entry_path(&key), bad).expect("damage");
            assert!(
                store.load_with(&key, codec.stream).is_none(),
                "{} #{i}",
                codec.name
            );
            assert!(
                !store.contains(&key),
                "{} #{i}: entry moved aside",
                codec.name
            );
            assert!(
                store.quarantined_count() >= quarantined,
                "{} #{i}",
                codec.name
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
