//! Spans recorded from the benchmark's own files around calls into
//! each layer. Kept in memory, written to `trace_<workload>.json` when
//! the traced run ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Per-call spans kept for the trace file; totals go on counting past
/// it.
const SPAN_CAP: usize = 60_000;

#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Request this span belongs to; 0 when unknown.
    pub op: u64,
}

/// Count and summed duration of one span name.
#[derive(Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
    pub max_ns: u64,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

static ON: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// The depth-1 client request in flight, which server-side spans on
/// other threads take as their parent: with one request outstanding,
/// whatever the server does is done for it.
static CLIENT_SPAN: AtomicU32 = AtomicU32::new(0);
static CLIENT_OP: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Innermost open span of this thread.
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    RECORDER
        .lock()
        .expect("no span is recorded while panicking")
}

pub fn set_on(on: bool) {
    if on {
        recorder().get_or_insert_with(Recorder::default);
    }
    ON.store(on, Relaxed);
}

/// An open span; closes when dropped.
pub struct Guard {
    name: &'static str,
    start_ns: u64,
    /// Index + 1 in the span list, 0 when past the cap or switched off.
    id: u32,
    outer: u32,
    live: bool,
}

pub fn enter(name: &'static str, op: u64) -> Guard {
    enter_within(name, op, SPAN_CAP)
}

/// Batch spans are few and may go past the cap the per-call spans of
/// the rounds have usually filled by the time the seams are replayed.
const BATCH_SPAN_CAP: usize = SPAN_CAP + 4096;

fn enter_within(name: &'static str, op: u64, cap: usize) -> Guard {
    if !ON.load(Relaxed) {
        return Guard {
            name,
            start_ns: 0,
            id: 0,
            outer: 0,
            live: false,
        };
    }
    let outer = CURRENT.with(Cell::get);
    let (parent, op) = match outer {
        0 => (CLIENT_SPAN.load(Relaxed), op.max(CLIENT_OP.load(Relaxed))),
        p => (p, op),
    };
    let start_ns = now_ns();
    let mut rec = recorder();
    let spans = &mut rec.as_mut().expect("recorder exists while on").spans;
    let id = if spans.len() < cap {
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        spans.len() as u32
    } else {
        0
    };
    drop(rec);
    if id != 0 {
        CURRENT.with(|c| c.set(id));
    }
    Guard {
        name,
        start_ns,
        id,
        outer,
        live: true,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = now_ns();
        if self.id != 0 {
            CURRENT.with(|c| c.set(self.outer));
        }
        // A guard must not panic in drop: skip a poisoned recorder.
        let Ok(mut rec) = RECORDER.lock() else { return };
        let Some(rec) = rec.as_mut() else { return };
        if self.id != 0 {
            rec.spans[self.id as usize - 1].end_ns = end_ns;
        }
        let t = rec.totals.entry(self.name).or_default();
        let ns = end_ns - self.start_ns;
        t.count += 1;
        t.ns += ns;
        t.max_ns = t.max_ns.max(ns);
    }
}

/// Runs `f` as one span standing for `count` calls of `name` too short
/// to span one by one; returns its result and duration in ns.
pub fn timed<T>(name: &'static str, count: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let g = enter_within(name, 0, BATCH_SPAN_CAP);
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    drop(g);
    if count > 1 && ON.load(Relaxed) {
        if let Some(rec) = recorder().as_mut() {
            rec.totals.entry(name).or_default().count += count - 1;
        }
    }
    (out, ns)
}

/// Opens the root span of a depth-1 client request and publishes it as
/// the parent of server-side spans until the guard drops.
pub fn enter_client(name: &'static str, op: u64) -> ClientGuard {
    let g = enter(name, op);
    CLIENT_SPAN.store(g.id, Relaxed);
    CLIENT_OP.store(op, Relaxed);
    ClientGuard(g)
}

pub struct ClientGuard(#[allow(dead_code)] Guard);

impl Drop for ClientGuard {
    fn drop(&mut self) {
        CLIENT_SPAN.store(0, Relaxed);
        CLIENT_OP.store(0, Relaxed);
    }
}

pub fn total(name: &str) -> Total {
    recorder()
        .as_ref()
        .and_then(|r| r.totals.get(name).copied())
        .unwrap_or_default()
}

/// Per span name: summed self time — each span's duration minus the
/// part of it its child spans cover — and the span count, over the
/// recorded spans.
pub fn self_times() -> BTreeMap<&'static str, Total> {
    let rec = recorder();
    let Some(rec) = rec.as_ref() else {
        return BTreeMap::new();
    };
    let mut covered = vec![0u64; rec.spans.len()];
    for s in &rec.spans {
        if s.parent != 0 {
            let p = &rec.spans[s.parent as usize - 1];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize - 1] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, c) in rec.spans.iter().zip(covered) {
        let t = out.entry(s.name).or_default();
        let ns = (s.end_ns - s.start_ns).saturating_sub(c);
        t.count += 1;
        t.ns += ns;
        t.max_ns = t.max_ns.max(ns);
    }
    out
}

/// The trace file: run header, per-name totals, then the spans.
pub fn to_json(header: &str) -> String {
    let rec = recorder();
    let mut out = String::new();
    let _ = write!(out, "{{{header},\n\"totals\":{{");
    let Some(rec) = rec.as_ref() else {
        out.push_str("},\"spans\":[]}\n");
        return out;
    };
    for (i, (name, t)) in rec.totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n\"{name}\":{{\"count\":{},\"ns\":{},\"max_ns\":{}}}",
            t.count, t.ns, t.max_ns
        );
    }
    let _ = write!(out, "}},\n\"spans_kept\":{},\n\"spans\":[", rec.spans.len());
    for (i, s) in rec.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            i + 1,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.op
        );
    }
    out.push_str("]}\n");
    out
}
