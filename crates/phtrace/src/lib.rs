//! # phtrace — request-scoped tracing for the PH-tree serving stack
//!
//! The aggregate instruments in `phmetrics` can say *that* p99 got
//! worse; this crate says **which request**, **which shard**, and
//! **which phase** — queue wait vs. fan-out vs. node descent vs.
//! packed-page fetch vs. WAL — made it worse. It is a std-only,
//! lock-free **flight recorder**:
//!
//! * Fixed-size span records (56 bytes: op, phase, shard slot,
//!   `t_start`/`t_end` on a process-wide monotonic clock, payload
//!   counters `nodes_visited`/`pages_touched`/`fanout`/`queue_depth`)
//!   are written into **per-thread bounded ring buffers**. Writing
//!   never blocks, never allocates after the ring exists, and drops
//!   oldest on wrap — the recorder is always on once installed.
//! * A [`TraceCtx`] (request id + sampling decision, made once at the
//!   wire layer) travels by value through the admission queue, batch
//!   coalescing, shard fan-out and storage layers; every layer opens
//!   phase spans against the ambient context via [`span`].
//! * Completed root spans over a configurable threshold are assembled
//!   into a structured per-phase breakdown and retained in a bounded
//!   **slow-query log** ([`recent_slow`]).
//! * Shed / protocol-error / contained-panic events snapshot the
//!   flight recorder into a bounded **trigger-dump** buffer
//!   ([`trigger_dump`], [`dumps`]).
//!
//! With the `trace` cargo feature **off** (the default) every type
//! here is a zero-sized struct and every function an inlineable no-op,
//! so instrumented crates pay nothing — the same zero-cost discipline
//! `phmetrics` established, and CI gates it with the same interleaved
//! A/B perf contract.
//!
//! ## Memory bounds
//!
//! One ring costs `ring_slots × 56` bytes (default 1024 slots ≈ 56
//! KiB). Rings are leased per thread and returned to a free list when
//! the thread exits, so the steady-state ring count is the *peak
//! concurrent* recording-thread count, not the total threads ever
//! spawned (phserve runs a thread per connection). The slow log and
//! dump buffer are bounded deques ([`TraceConfig::slow_capacity`],
//! [`TraceConfig::dump_capacity`] × [`TraceConfig::dump_keep`]).
//!
//! ## Clock discipline
//!
//! All timestamps are nanoseconds since the first [`now_ns`] call,
//! measured on one process-wide `Instant` epoch — monotonic,
//! cross-thread comparable, immune to wall-clock steps. Records never
//! store wall-clock time.

#![warn(missing_docs)]

use std::fmt;

/// Number of phases that appear in a slow-query breakdown (every
/// [`Phase`] except [`Phase::Root`]).
pub const N_BREAKDOWN: usize = 6;

/// The phase a span attributes its time to. `Root` brackets the whole
/// request (admission → reply encoded); the rest partition it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Admission-queue wait, including head-of-line wait inside a
    /// popped batch: everything between admission and the worker
    /// starting this request's own work.
    Queue = 0,
    /// Cross-shard work: the per-shard loop of a window on a pinned
    /// snapshot (encloses per-shard `Descent` spans), or a write run
    /// over its locked partitions.
    FanOut = 1,
    /// One shard's tree traversal. Carries the shard slot; the
    /// `nodes_visited` counter arrives via the `phtree` `TreeSink`
    /// probe seam.
    Descent = 2,
    /// Packed-checkpoint page fetch (an LRU miss reading + verifying
    /// an extent).
    Page = 3,
    /// WAL append / fsync.
    Wal = 4,
    /// Reply encode + hand-off to the connection writer.
    Reply = 5,
    /// The whole request. Written by [`finish_root`]; never appears in
    /// a breakdown (it *is* the wall time).
    Root = 6,
}

impl Phase {
    /// Stable lowercase name (JSON keys, logs).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::FanOut => "fanout",
            Phase::Descent => "descent",
            Phase::Page => "page",
            Phase::Wal => "wal",
            Phase::Reply => "reply",
            Phase::Root => "root",
        }
    }

    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub(crate) fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Queue,
            1 => Phase::FanOut,
            2 => Phase::Descent,
            3 => Phase::Page,
            4 => Phase::Wal,
            5 => Phase::Reply,
            _ => Phase::Root,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The operation a trace belongs to, mirroring the wire protocol's op
/// surface (plus `Other` for anything outside it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum TraceOp {
    Insert = 0,
    Get = 1,
    Remove = 2,
    Query = 3,
    Knn = 4,
    BulkLoad = 5,
    Stats = 6,
    Ping = 7,
    Other = 8,
}

impl TraceOp {
    /// Stable lowercase name, matching the `phserve` op labels.
    pub fn name(self) -> &'static str {
        match self {
            TraceOp::Insert => "insert",
            TraceOp::Get => "get",
            TraceOp::Remove => "remove",
            TraceOp::Query => "query",
            TraceOp::Knn => "knn",
            TraceOp::BulkLoad => "bulk_load",
            TraceOp::Stats => "stats",
            TraceOp::Ping => "ping",
            TraceOp::Other => "other",
        }
    }

    /// Maps a `phserve` op label back to its `TraceOp`.
    pub fn from_label(label: &str) -> TraceOp {
        match label {
            "insert" => TraceOp::Insert,
            "get" => TraceOp::Get,
            "remove" => TraceOp::Remove,
            "query" => TraceOp::Query,
            "knn" => TraceOp::Knn,
            "bulk_load" => TraceOp::BulkLoad,
            "stats" => TraceOp::Stats,
            "ping" => TraceOp::Ping,
            _ => TraceOp::Other,
        }
    }

    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub(crate) fn from_u8(v: u8) -> TraceOp {
        match v {
            0 => TraceOp::Insert,
            1 => TraceOp::Get,
            2 => TraceOp::Remove,
            3 => TraceOp::Query,
            4 => TraceOp::Knn,
            5 => TraceOp::BulkLoad,
            6 => TraceOp::Stats,
            7 => TraceOp::Ping,
            _ => TraceOp::Other,
        }
    }
}

/// Payload counters a span accumulates (via [`add`]) while open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadCounter {
    /// Tree nodes visited (fed by the `phtree` `TreeSink` probes).
    Nodes,
    /// Packed pages touched (fed by the `phpack` page cache).
    Pages,
    /// Shards a cross-shard op fanned out to.
    Fanout,
    /// Admission-queue depth observed when the request was admitted.
    QueueDepth,
}

/// The four payload counters of one span record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Tree nodes visited while the span was open.
    pub nodes: u32,
    /// Packed pages touched while the span was open.
    pub pages: u32,
    /// Fan-out width (shards scanned).
    pub fanout: u32,
    /// Queue depth at admission (queue spans only).
    pub queue_depth: u32,
}

/// One fixed-size flight-recorder record: a completed span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    /// Process-unique id of the request this span belongs to (not the
    /// wire `req_id`, which is client-chosen and may collide across
    /// connections — the slow log carries both).
    pub trace_id: u64,
    /// Phase attributed.
    pub phase: Phase,
    /// Operation of the owning request.
    pub op: TraceOp,
    /// Shard slot (`u16::MAX` when not shard-scoped).
    pub shard: u16,
    /// Whether another span of the same request was open on the same
    /// thread when this one opened (e.g. `Descent` inside `FanOut` on
    /// the non-scattered path). Cross-thread nesting — a scatter-task
    /// `Descent` under the caller's `FanOut` — is *not* flagged, which
    /// is why coverage accounting merges intervals instead of trusting
    /// this bit.
    pub nested: bool,
    /// Start, ns on the process monotonic clock.
    pub t_start_ns: u64,
    /// End, ns on the process monotonic clock.
    pub t_end_ns: u64,
    /// Payload counters accumulated while open.
    pub counters: Counters,
}

impl SpanRec {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

/// One assembled slow-query entry: a root span over the threshold,
/// broken down per phase.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Wire-protocol request id (client-chosen).
    pub req_id: u64,
    /// Process-unique trace id.
    pub trace_id: u64,
    /// Operation.
    pub op: TraceOp,
    /// Root start, ns on the process monotonic clock.
    pub t_start_ns: u64,
    /// Root wall time, ns.
    pub wall_ns: u64,
    /// Total span time per phase, indexed by `Phase as usize`
    /// (`Root` excluded). Nested spans are included here, so
    /// `phase_ns[Descent]` inside `phase_ns[FanOut]` overlaps by
    /// design — use [`SlowQuery::covered_ns`] for a gap-free sum.
    pub phase_ns: [u64; N_BREAKDOWN],
    /// Double-count-free coverage: the length of the **union** of all
    /// the request's span intervals (overlaps — nested spans, parallel
    /// per-shard descents — collapse instead of double-counting).
    /// Lands within ~10% of `wall_ns` when every layer is
    /// instrumented, and can never exceed it by more than clock skew.
    pub covered_ns: u64,
    /// Payload counters summed over all the request's spans.
    pub counters: Counters,
    /// Number of spans assembled into this entry.
    pub spans: u32,
}

/// A flight-recorder snapshot taken by [`trigger_dump`].
#[derive(Clone, Debug)]
pub struct DumpSnapshot {
    /// Why the dump fired (shed, protocol error, contained panic…).
    pub reason: String,
    /// When it fired, ns on the process monotonic clock.
    pub at_ns: u64,
    /// Most recent records across all rings, newest first.
    pub records: Vec<SpanRec>,
}

/// Slow-query threshold policy.
#[derive(Clone, Copy, Debug)]
pub enum SlowThreshold {
    /// Retuned by the server from trailing latency (p99 × 4); starts
    /// at 10 ms until the first retune.
    Auto,
    /// Fixed, in nanoseconds.
    FixedNs(u64),
}

/// Recorder configuration for [`install`].
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Sample 1 in `sample_every` requests (0 or 1 = every request).
    pub sample_every: u32,
    /// Slow-query threshold policy.
    pub slow_threshold: SlowThreshold,
    /// Slots per per-thread ring (each slot is 56 bytes).
    pub ring_slots: usize,
    /// Bounded slow-log length (oldest dropped).
    pub slow_capacity: usize,
    /// Bounded trigger-dump count (oldest dropped).
    pub dump_capacity: usize,
    /// Records kept per trigger dump (newest first).
    pub dump_keep: usize,
    /// Minimum spacing between trigger dumps; storms collapse into
    /// the first dump of each window.
    pub dump_min_interval_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            slow_threshold: SlowThreshold::Auto,
            ring_slots: 1024,
            slow_capacity: 64,
            dump_capacity: 4,
            dump_keep: 256,
            dump_min_interval_ns: 100_000_000,
        }
    }
}

/// Recorder health counters, for tests and the `/debug` endpoints.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStats {
    /// Whether a recorder is installed (always false with the `trace`
    /// feature off).
    pub installed: bool,
    /// Requests that passed the sampling decision.
    pub sampled_requests: u64,
    /// Span records ever written (across ring wraps).
    pub records: u64,
    /// Slow-query entries ever assembled.
    pub slow_queries: u64,
    /// Trigger dumps ever taken.
    pub dumps: u64,
    /// Rings currently allocated (leased + free-listed).
    pub rings: u64,
    /// Current slow threshold, ns.
    pub slow_threshold_ns: u64,
}

pub mod json;

#[cfg(feature = "trace")]
mod live;
#[cfg(feature = "trace")]
mod ring;
#[cfg(feature = "trace")]
pub use live::{
    add, add_nodes, add_pages, current, dumps, dumps_json, finish_root, install, installed, now_ns,
    recent, recent_slow, record_queue_wait, set_slow_threshold_ns, slow_json,
    slow_threshold_is_auto, slow_threshold_ns, span, span_at, start_request, stats, trace_json,
    trigger_dump, CtxGuard, SpanGuard, TraceCtx,
};

#[cfg(not(feature = "trace"))]
mod off;
#[cfg(not(feature = "trace"))]
pub use off::{
    add, add_nodes, add_pages, current, dumps, dumps_json, finish_root, install, installed, now_ns,
    recent, recent_slow, record_queue_wait, set_slow_threshold_ns, slow_json,
    slow_threshold_is_auto, slow_threshold_ns, span, span_at, start_request, stats, trace_json,
    trigger_dump, CtxGuard, SpanGuard, TraceCtx,
};
