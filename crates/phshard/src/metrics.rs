//! Instrument wiring for the sharded serving layer.
//!
//! All instruments are issued by a [`phmetrics::Registry`] passed to
//! [`crate::ShardedTree::with_metrics`] /
//! [`crate::DurableSharded::open_observed`] and recorded by the one
//! engine under both stores, so both report the same families. Stores
//! built without a registry carry no-op handles, so every record call
//! below compiles to a branch on a null `Option` — the layer is
//! instrumented unconditionally and the handles decide.
//!
//! Instrument catalogue (Prometheus names):
//!
//! * `phshard_ops_total{op=...}` — counter per operation type
//!   (`insert`, `remove`, `get`, `query`, `query_count`, `knn`,
//!   `bulk_load`, `apply_run`). The cross-shard reads are counted on
//!   the [`crate::Snapshot`] that serves them, whether a store pinned
//!   it for one call or a server for a whole run.
//! * `phshard_op_latency_ns{op=...}` — log₂ latency histogram per
//!   operation type, measured at the store's API boundary.
//! * `phshard_shard_ops_total{shard=N}` — keys routed to slot `N`
//!   (single-key ops count 1, a run or bulk load counts its partition
//!   size); the live counterpart of [`crate::ShardStats::skew`]. A
//!   split registers its children's counters as it installs them.
//! * `phshard_query_fanout` — histogram of shards a read touched: per
//!   window query the shards surviving prefix-mask pruning, per kNN
//!   the shards whose root the search entered.
//!
//! Rebalancing instruments (`phshard_rebalance_*` and friends):
//!
//! * `phshard_rebalance_splits_total` — committed hot-shard splits.
//! * `phshard_rebalance_split_failures_total` — splits that errored
//!   (store failure, depth/count ceiling, lost race).
//! * `phshard_rebalance_shed_total` — writes shed with `Overloaded`
//!   because a migrating slot's backlog was full.
//! * `phshard_rebalance_migrated_entries_total` — entries copied into
//!   child shards by splits.
//! * `phshard_rebalance_backlog_drained_total` — backlogged writes
//!   replayed onto children at commit.
//! * `phshard_routing_epoch` — current routing epoch (gauge; bumps on
//!   every committed split).
//! * `phshard_migration_inflight` — migrations currently in progress
//!   (gauge; 0 or 1 per slot, splits are serialised).

use phmetrics::{Counter, Gauge, Histogram, OpTimer, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Instruments of the MVCC-lite publication machinery, shared by the
/// in-memory and durable layers:
///
/// * `phshard_root_swaps_total` — published tree versions (one root
///   swap per write/batch/split publication).
/// * `phshard_snapshot_live` — currently live [`crate::Snapshot`]
///   handles (gauge; `high_water` tracks the peak).
/// * `phshard_root_age_ns` — log₂ histogram of the age of the
///   published root at the moment a reader served from it (how stale
///   lock-free reads actually run).
pub(crate) struct SwapMetrics {
    pub(crate) root_swaps: Counter,
    pub(crate) snapshot_live: Gauge,
    pub(crate) root_age_ns: Histogram,
}

impl SwapMetrics {
    fn new(reg: &Registry) -> Self {
        SwapMetrics {
            root_swaps: reg.counter("phshard_root_swaps_total"),
            snapshot_live: reg.gauge("phshard_snapshot_live"),
            root_age_ns: reg.histogram("phshard_root_age_ns"),
        }
    }

    /// Records how old the published root a reader just served from
    /// was.
    #[inline]
    pub(crate) fn note_root_age(&self, published_at: &Instant) {
        if self.root_age_ns.is_enabled() {
            self.root_age_ns
                .record(published_at.elapsed().as_nanos() as u64);
        }
    }
}

/// Handles for one operation type: total counter + latency histogram.
pub(crate) struct OpInstruments {
    total: Counter,
    latency_ns: Histogram,
}

impl OpInstruments {
    fn new(reg: &Registry, op: &str) -> Self {
        OpInstruments {
            total: reg.counter(&format!("phshard_ops_total{{op=\"{op}\"}}")),
            latency_ns: reg.histogram(&format!("phshard_op_latency_ns{{op=\"{op}\"}}")),
        }
    }

    /// Starts the latency clock (no-op handles skip the clock read).
    #[inline]
    pub(crate) fn start(&self) -> OpTimer {
        self.latency_ns.start()
    }

    /// Counts the op and records its latency.
    #[inline]
    pub(crate) fn finish(&self, t: OpTimer) {
        self.total.inc();
        self.latency_ns.finish(t);
    }
}

/// Per-operation instruments, recorded by the engine (writes, point
/// reads) and by [`crate::Snapshot`] (cross-shard reads).
pub(crate) struct ShardMetrics {
    pub(crate) insert: OpInstruments,
    pub(crate) remove: OpInstruments,
    pub(crate) get: OpInstruments,
    pub(crate) query: OpInstruments,
    pub(crate) query_count: OpInstruments,
    pub(crate) knn: OpInstruments,
    pub(crate) bulk_load: OpInstruments,
    pub(crate) apply_run: OpInstruments,
    pub(crate) fanout: Histogram,
}

impl ShardMetrics {
    fn new(reg: &Registry) -> Self {
        ShardMetrics {
            insert: OpInstruments::new(reg, "insert"),
            remove: OpInstruments::new(reg, "remove"),
            get: OpInstruments::new(reg, "get"),
            query: OpInstruments::new(reg, "query"),
            query_count: OpInstruments::new(reg, "query_count"),
            knn: OpInstruments::new(reg, "knn"),
            bulk_load: OpInstruments::new(reg, "bulk_load"),
            apply_run: OpInstruments::new(reg, "apply_run"),
            fanout: reg.histogram("phshard_query_fanout"),
        }
    }
}

/// Instruments emitted by the online-rebalancing machinery
/// ([`crate::ShardedTree::split_shard`],
/// [`crate::DurableSharded::split_shard`], and the write-shedding
/// path). Disabled handles are no-ops, so the transitions are
/// instrumented unconditionally.
pub(crate) struct RebalanceMetrics {
    pub(crate) splits: Counter,
    pub(crate) split_failures: Counter,
    pub(crate) shed: Counter,
    pub(crate) migrated_entries: Counter,
    pub(crate) backlog_drained: Counter,
    pub(crate) routing_epoch: Gauge,
    pub(crate) migration_inflight: Gauge,
}

impl RebalanceMetrics {
    fn new(reg: &Registry) -> Self {
        RebalanceMetrics {
            splits: reg.counter("phshard_rebalance_splits_total"),
            split_failures: reg.counter("phshard_rebalance_split_failures_total"),
            shed: reg.counter("phshard_rebalance_shed_total"),
            migrated_entries: reg.counter("phshard_rebalance_migrated_entries_total"),
            backlog_drained: reg.counter("phshard_rebalance_backlog_drained_total"),
            routing_epoch: reg.gauge("phshard_routing_epoch"),
            migration_inflight: reg.gauge("phshard_migration_inflight"),
        }
    }
}

/// Everything one store records, shared (behind one `Arc`) by its
/// engine and every [`crate::Snapshot`] pinned from it. Built from a
/// disabled registry, every handle is a no-op; the two pruning tallies
/// behind [`crate::ShardStats`] are plain atomics and always count.
pub(crate) struct Probes {
    pub(crate) ops: ShardMetrics,
    pub(crate) swaps: SwapMetrics,
    pub(crate) reb: RebalanceMetrics,
    scanned: AtomicU64,
    pruned: AtomicU64,
    registry: Registry,
}

impl Probes {
    pub(crate) fn new(reg: &Registry) -> Arc<Self> {
        Arc::new(Probes {
            ops: ShardMetrics::new(reg),
            swaps: SwapMetrics::new(reg),
            reb: RebalanceMetrics::new(reg),
            scanned: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            registry: reg.clone(),
        })
    }

    /// The routed-keys counter of slot `slot`; each cell holds its own,
    /// so a split's children are counted from their first op.
    pub(crate) fn shard_ops(&self, slot: usize) -> Counter {
        self.registry
            .counter(&format!("phshard_shard_ops_total{{shard=\"{slot}\"}}"))
    }

    /// Records a window read that scanned `matched` of `shards` shards.
    pub(crate) fn note_window(&self, shards: usize, matched: usize) {
        self.scanned.fetch_add(matched as u64, Ordering::Relaxed);
        self.pruned
            .fetch_add((shards - matched) as u64, Ordering::Relaxed);
        self.ops.fanout.record(matched as u64);
    }

    /// `(shards scanned, shards pruned)` by window reads so far.
    pub(crate) fn pruning(&self) -> (u64, u64) {
        (
            self.scanned.load(Ordering::Relaxed),
            self.pruned.load(Ordering::Relaxed),
        )
    }
}
