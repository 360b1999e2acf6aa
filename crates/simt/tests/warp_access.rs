//! Pins every `WarpCtx` memory access method, in bounds and one lane
//! past the end.
//!
//! Each case runs a one-warp kernel that issues a single access under a
//! sanitizer sink and checks everything the access leaves behind: the
//! captured `TOp`s and segment pool, the loaded values or stored
//! memory, the taped `MemAccess` (kind, space, buffer, lane words,
//! fault flag), the interned op site, and the `KernelFault` reason.

use std::cell::RefCell;

use simt::{
    AccessKind, BarrierRecord, BufF32, BufU32, Gpu, GpuConfig, GridShape, Kernel, LaunchInfo,
    MemAccess, MemSpace, PhaseControl, SegRange, SimError, SiteTable, TOp, TapeBuf, TapeSink,
    WarpCtx,
};

/// Lanes in the warp, words in every buffer and in the shared scratch.
const N: usize = 32;

#[derive(Clone, Copy)]
struct Bufs {
    f: BufF32,
    u: BufU32,
}

/// What an access hands back, flattened to `u32` bits for comparison.
trait Seen {
    fn seen(self) -> Vec<u32>;
}

impl Seen for Vec<f32> {
    fn seen(self) -> Vec<u32> {
        self.into_iter().map(f32::to_bits).collect()
    }
}

impl Seen for Vec<u32> {
    fn seen(self) -> Vec<u32> {
        self
    }
}

/// Issues one access in which lane `l` touches word `l + past`, and
/// returns what it loaded with the source line of the call.
type Op = fn(&mut WarpCtx<'_>, Bufs, usize) -> (Vec<u32>, u32);

fn ld_f32(w: &mut WarpCtx<'_>, b: Bufs, p: usize) -> (Vec<u32>, u32) {
    (w.ld_f32(b.f, |_, t| Some(t + p)).seen(), line!())
}

fn ld_tex_f32(w: &mut WarpCtx<'_>, b: Bufs, p: usize) -> (Vec<u32>, u32) {
    (w.ld_tex_f32(b.f, |_, t| Some(t + p)).seen(), line!())
}

fn ld_const_f32(w: &mut WarpCtx<'_>, b: Bufs, p: usize) -> (Vec<u32>, u32) {
    (w.ld_const_f32(b.f, |_, t| Some(t + p)).seen(), line!())
}

fn st_f32(w: &mut WarpCtx<'_>, b: Bufs, p: usize) -> (Vec<u32>, u32) {
    let ((), line) = (w.st_f32(b.f, |_, t| Some((t + p, 7.0))), line!());
    (Vec::new(), line)
}

fn ld_u32(w: &mut WarpCtx<'_>, b: Bufs, p: usize) -> (Vec<u32>, u32) {
    (w.ld_u32(b.u, |_, t| Some(t + p)).seen(), line!())
}

fn ld_tex_u32(w: &mut WarpCtx<'_>, b: Bufs, p: usize) -> (Vec<u32>, u32) {
    (w.ld_tex_u32(b.u, |_, t| Some(t + p)).seen(), line!())
}

fn st_u32(w: &mut WarpCtx<'_>, b: Bufs, p: usize) -> (Vec<u32>, u32) {
    let ((), line) = (w.st_u32(b.u, |_, t| Some((t + p, 7))), line!());
    (Vec::new(), line)
}

fn sh_ld_f32(w: &mut WarpCtx<'_>, _: Bufs, p: usize) -> (Vec<u32>, u32) {
    (w.sh_ld_f32(|_, t| Some(t + p)).seen(), line!())
}

fn sh_st_f32(w: &mut WarpCtx<'_>, _: Bufs, p: usize) -> (Vec<u32>, u32) {
    let ((), line) = (w.sh_st_f32(|_, t| Some((t + p, 7.0))), line!());
    (Vec::new(), line)
}

/// A one-block, one-warp kernel running `op` once.
struct Probe {
    bufs: Bufs,
    op: Op,
    past: usize,
    seen: RefCell<(Vec<u32>, u32)>,
}

impl Kernel for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn shape(&self) -> GridShape {
        GridShape::new(1, N)
    }
    fn shared_f32_words(&self) -> usize {
        N
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        *self.seen.borrow_mut() = (self.op)(w, self.bufs, self.past);
        PhaseControl::Done
    }
}

/// One taped access, held past the sink call, with its op-site label.
struct Taped {
    block: u32,
    warp: u32,
    phase: u32,
    kind: AccessKind,
    space: MemSpace,
    buf: TapeBuf,
    site: String,
    lane_words: Vec<(u8, u32)>,
    faulted: bool,
}

/// A sink recording every event of the launches it sees.
#[derive(Default)]
struct Recorder {
    begins: usize,
    ends: usize,
    accesses: Vec<Taped>,
    barriers: usize,
    aborted: Option<SimError>,
}

impl TapeSink for Recorder {
    fn begin(&mut self, _: &LaunchInfo) {
        self.begins += 1;
    }

    fn access(&mut self, _: &LaunchInfo, sites: &SiteTable, a: &MemAccess<'_>) {
        self.accesses.push(Taped {
            block: a.block,
            warp: a.warp,
            phase: a.phase,
            kind: a.kind,
            space: a.space,
            buf: a.buf,
            site: sites.name(a.site).to_string(),
            lane_words: a.lane_words.to_vec(),
            faulted: a.faulted,
        });
    }

    fn barrier(&mut self, _: &LaunchInfo, _: &BarrierRecord) {
        self.barriers += 1;
    }

    fn end(&mut self, _: &LaunchInfo, _: &SiteTable, aborted: Option<&SimError>) {
        self.ends += 1;
        self.aborted = aborted.cloned();
    }
}

/// Everything one run of a probe leaves behind.
struct Run {
    result: Result<(), SimError>,
    ops: Vec<TOp>,
    segs: Vec<u64>,
    seen: Vec<u32>,
    line: u32,
    tape: Recorder,
    f: Vec<f32>,
    u: Vec<u32>,
}

fn run(op: Op, past: usize) -> Run {
    let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
    let init_f: Vec<f32> = (0..N).map(|i| 100.0 + i as f32).collect();
    let init_u: Vec<u32> = (0..N as u32).map(|i| 1000 + i).collect();
    let bufs = Bufs {
        f: gpu.mem_mut().alloc_f32("f", &init_f),
        u: gpu.mem_mut().alloc_u32("u", &init_u),
    };
    gpu.set_tape_sink(Box::new(Recorder::default()));
    gpu.set_trace_recording(true);
    let probe = Probe {
        bufs,
        op,
        past,
        seen: RefCell::new((Vec::new(), 0)),
    };
    let result = gpu.try_launch(&probe).map(|_| ());
    let (ops, segs) = match gpu.take_recorded_traces().as_slice() {
        [] => (Vec::new(), Vec::new()),
        [t] => {
            let w = &t.ctas[0].warps[0];
            (w.ops.clone(), w.segs.clone())
        }
        more => panic!("{} traces for one launch", more.len()),
    };
    let tape: Recorder = gpu.take_tape_sink().expect("the recorder is installed");
    assert_eq!((tape.begins, tape.ends), (1, 1), "one tape per launch");
    let (seen, line) = probe.seen.into_inner();
    Run {
        result,
        ops,
        segs,
        seen,
        line,
        tape,
        f: gpu.mem().read_f32(bufs.f),
        u: gpu.mem().read_u32(bufs.u),
    }
}

/// One method's expected behaviour.
struct Case {
    name: &'static str,
    op: Op,
    kind: AccessKind,
    space: MemSpace,
    buf: TapeBuf,
    /// Ops captured by the in-bounds run.
    ops: Vec<TOp>,
    /// Segment pool of the in-bounds run.
    segs: Vec<u64>,
    /// Values the in-bounds run loads (empty for stores).
    seen: Vec<u32>,
    /// `KernelFault` reason of the run one lane past the end.
    reason: &'static str,
}

const SEGS: SegRange = SegRange { len: 2 };
/// Device addresses: `f` is allocated first at 0, `u` at the next
/// 256-byte boundary; each 128-byte buffer spans two 64-byte segments.
const F_SEGS: [u64; 2] = [0, 64];
const U_SEGS: [u64; 2] = [256, 320];

fn alu(n: u32) -> TOp {
    TOp::Alu { n, lanes: N as u8 }
}

fn gmem(store: bool) -> TOp {
    TOp::Gmem {
        space: MemSpace::Global,
        store,
        lanes: N as u8,
        segs: SEGS,
    }
}

fn shared(store: bool) -> TOp {
    TOp::Shared {
        degree: 1,
        lanes: N as u8,
        store,
    }
}

fn cases() -> Vec<Case> {
    let f: Vec<u32> = (0..N).map(|i| (100.0 + i as f32).to_bits()).collect();
    let u: Vec<u32> = (0..N as u32).map(|i| 1000 + i).collect();
    let tex = TOp::Tex {
        lanes: N as u8,
        segs: SEGS,
    };
    let konst = TOp::Const {
        lanes: N as u8,
        unique: N as u8,
    };
    let (load, store) = (AccessKind::Load, AccessKind::Store);
    let (gf, gu, sh) = (
        TapeBuf::GlobalF32(0),
        TapeBuf::GlobalU32(0),
        TapeBuf::SharedF32,
    );
    #[rustfmt::skip]
    let cases = vec![
        Case { name: "ld_f32", op: ld_f32, kind: load, space: MemSpace::Global, buf: gf,
               ops: vec![alu(4), gmem(false)], segs: F_SEGS.to_vec(), seen: f.clone(),
               reason: "read out of bounds: f[32] (len 32)" },
        Case { name: "ld_tex_f32", op: ld_tex_f32, kind: load, space: MemSpace::Texture, buf: gf,
               ops: vec![alu(4), tex], segs: F_SEGS.to_vec(), seen: f.clone(),
               reason: "texture read out of bounds: f[32] (len 32)" },
        Case { name: "ld_const_f32", op: ld_const_f32, kind: load, space: MemSpace::Constant,
               buf: gf, ops: vec![alu(2), konst], segs: vec![], seen: f,
               reason: "constant read out of bounds: f[32] (len 32)" },
        Case { name: "st_f32", op: st_f32, kind: store, space: MemSpace::Global, buf: gf,
               ops: vec![alu(4), gmem(true)], segs: F_SEGS.to_vec(), seen: vec![],
               reason: "write out of bounds: f[32] (len 32)" },
        Case { name: "ld_u32", op: ld_u32, kind: load, space: MemSpace::Global, buf: gu,
               ops: vec![alu(4), gmem(false)], segs: U_SEGS.to_vec(), seen: u.clone(),
               reason: "read out of bounds: u[32] (len 32)" },
        Case { name: "ld_tex_u32", op: ld_tex_u32, kind: load, space: MemSpace::Texture, buf: gu,
               ops: vec![alu(4), tex], segs: U_SEGS.to_vec(), seen: u,
               reason: "texture read out of bounds: u[32] (len 32)" },
        Case { name: "st_u32", op: st_u32, kind: store, space: MemSpace::Global, buf: gu,
               ops: vec![alu(4), gmem(true)], segs: U_SEGS.to_vec(), seen: vec![],
               reason: "write out of bounds: u[32] (len 32)" },
        Case { name: "sh_ld_f32", op: sh_ld_f32, kind: load, space: MemSpace::Shared, buf: sh,
               ops: vec![alu(2), shared(false)], segs: vec![], seen: vec![0; N],
               reason: "shared read out of bounds: f32[32] (len 32)" },
        Case { name: "sh_st_f32", op: sh_st_f32, kind: store, space: MemSpace::Shared, buf: sh,
               ops: vec![alu(2), shared(true)], segs: vec![], seen: vec![],
               reason: "shared write out of bounds: f32[32] (len 32)" },
    ];
    cases
}

/// Checks the tape of a run holding one access by `case`, with lane `l`
/// on word `l + past`.
fn check_tape(case: &Case, run: &Run, past: usize) {
    let name = case.name;
    assert_eq!(run.tape.barriers, 0, "{name}: unexpected barrier");
    let [a] = run.tape.accesses.as_slice() else {
        panic!("{name}: {} accesses taped", run.tape.accesses.len());
    };
    assert_eq!(a.kind, case.kind, "{name}");
    assert_eq!(a.space, case.space, "{name}");
    assert_eq!(a.buf, case.buf, "{name}");
    assert_eq!((a.block, a.warp, a.phase), (0, 0, 0), "{name}");
    let words: Vec<(u8, u32)> = (0..N).map(|l| (l as u8, (l + past) as u32)).collect();
    assert_eq!(a.lane_words, words, "{name}");
    assert_eq!(a.faulted, past > 0, "{name}");
    let site = &a.site;
    let mut parts = site.rsplitn(3, ':');
    let (_col, line, file) = (parts.next(), parts.next(), parts.next());
    assert_eq!(file, Some("tests/warp_access.rs"), "{name}: site {site}");
    assert_eq!(
        line,
        Some(run.line.to_string().as_str()),
        "{name}: site {site}"
    );
}

#[test]
fn every_access_in_bounds_emits_moves_and_tapes() {
    for case in cases() {
        let name = case.name;
        let run = run(case.op, 0);
        assert!(run.result.is_ok(), "{name}: {:?}", run.result);
        assert_eq!(run.ops, case.ops, "{name}");
        assert_eq!(run.segs, case.segs, "{name}");
        assert_eq!(run.seen, case.seen, "{name}");
        let stored_f = name == "st_f32";
        let stored_u = name == "st_u32";
        assert_eq!(run.f.iter().all(|&x| x == 7.0), stored_f, "{name}: f");
        assert_eq!(run.u.iter().all(|&x| x == 7), stored_u, "{name}: u");
        assert!(run.tape.aborted.is_none(), "{name}");
        check_tape(&case, &run, 0);
    }
}

#[test]
fn every_access_one_lane_past_the_end_faults() {
    for case in cases() {
        let name = case.name;
        let run = run(case.op, 1);
        match &run.result {
            Err(SimError::KernelFault { kernel, reason }) => {
                assert_eq!(kernel, "probe", "{name}");
                assert_eq!(reason, case.reason, "{name}");
            }
            other => panic!("{name}: expected a kernel fault, got {other:?}"),
        }
        assert!(
            run.ops.is_empty(),
            "{name}: a faulted launch records no trace"
        );
        assert!(
            matches!(run.tape.aborted, Some(SimError::KernelFault { .. })),
            "{name}"
        );
        check_tape(&case, &run, 1);
    }
}
