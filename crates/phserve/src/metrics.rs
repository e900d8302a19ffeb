//! Server-side instrument wiring, following the `phshard`/`phstore`
//! convention: handles are issued once at spawn time from a
//! [`phmetrics::Registry`]; a disabled registry hands out no-op
//! handles, so the hot path records unconditionally.
//!
//! Instrument catalogue (Prometheus names):
//!
//! * `phserve_connections` (+`_peak`) — currently open client
//!   connections (gauge).
//! * `phserve_connections_total` — connections ever accepted.
//! * `phserve_requests_total{op=...}` — replies sent per op type
//!   (including typed error replies).
//! * `phserve_request_latency_ns{op=...}` — log₂ latency histogram
//!   from decode to reply encode.
//! * `phserve_queue_depth` (+`_peak`) — admission queue depth (writes
//!   only: reads never queue); the peak proves the queue stayed
//!   bounded under overload.
//! * `phserve_shed_total` — requests refused at admission with a typed
//!   `Overloaded` reply (queue past high water).
//! * `phserve_backend_overloaded_total` — requests refused by the
//!   backend's own shed path (`ShardError::Overloaded` from a
//!   migrating shard's backlog).
//! * `phserve_batches_total` / `phserve_batch_size` — runs served:
//!   admission-queue batches popped by workers and read runs answered
//!   on connection threads, and their size distribution.
//! * `phserve_coalesced_inserts_total` — pipelined inserts that rode a
//!   write run of two or more ops (one backend call, one group commit)
//!   instead of a call of their own.
//! * `phserve_protocol_errors_total` — malformed frames (each closes
//!   exactly its own connection).
//! * `phserve_bytes_read_total` / `phserve_bytes_written_total` —
//!   payload traffic.

use phmetrics::{Counter, Gauge, Histogram, Registry};

/// Op labels with dedicated counter/latency series, in opcode order.
pub(crate) const OP_LABELS: [&str; 8] = [
    "insert",
    "get",
    "remove",
    "query",
    "knn",
    "bulk_load",
    "stats",
    "ping",
];

/// One op's counter + latency pair.
#[derive(Clone)]
pub(crate) struct OpInstruments {
    pub(crate) total: Counter,
    pub(crate) latency_ns: Histogram,
}

/// Every instrument the server records.
#[derive(Clone)]
pub(crate) struct ServeMetrics {
    pub(crate) connections: Gauge,
    pub(crate) connections_total: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) shed: Counter,
    pub(crate) backend_overloaded: Counter,
    pub(crate) batches: Counter,
    pub(crate) batch_size: Histogram,
    pub(crate) coalesced_inserts: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) bytes_read: Counter,
    pub(crate) bytes_written: Counter,
    ops: Vec<OpInstruments>,
}

impl ServeMetrics {
    pub(crate) fn new(reg: &Registry) -> Self {
        ServeMetrics {
            connections: reg.gauge("phserve_connections"),
            connections_total: reg.counter("phserve_connections_total"),
            queue_depth: reg.gauge("phserve_queue_depth"),
            shed: reg.counter("phserve_shed_total"),
            backend_overloaded: reg.counter("phserve_backend_overloaded_total"),
            batches: reg.counter("phserve_batches_total"),
            batch_size: reg.histogram("phserve_batch_size"),
            coalesced_inserts: reg.counter("phserve_coalesced_inserts_total"),
            protocol_errors: reg.counter("phserve_protocol_errors_total"),
            bytes_read: reg.counter("phserve_bytes_read_total"),
            bytes_written: reg.counter("phserve_bytes_written_total"),
            ops: OP_LABELS
                .iter()
                .map(|op| OpInstruments {
                    total: reg.counter(&format!("phserve_requests_total{{op=\"{op}\"}}")),
                    latency_ns: reg
                        .histogram(&format!("phserve_request_latency_ns{{op=\"{op}\"}}")),
                })
                .collect(),
        }
    }

    /// p99 of the merged per-op request-latency distribution, ns — the
    /// input to the slow-query threshold autotune (trailing p99 × 4).
    /// 0 until any request has completed or when metrics are disabled.
    pub(crate) fn merged_latency_p99_ns(&self) -> u64 {
        let mut merged = self.ops[0].latency_ns.load();
        for op in &self.ops[1..] {
            merged.merge(&op.latency_ns.load());
        }
        merged.p99()
    }

    /// Instruments for the op labelled `label` (one of [`OP_LABELS`]).
    pub(crate) fn op(&self, label: &str) -> &OpInstruments {
        let i = OP_LABELS
            .iter()
            .position(|&l| l == label)
            .expect("unknown op label");
        &self.ops[i]
    }
}
