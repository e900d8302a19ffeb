//! Instrument wiring for the sharded serving layer.
//!
//! All instruments are issued by a [`phmetrics::Registry`] passed to
//! [`crate::ShardedTree::with_metrics`] / [`crate::WorkerPool::with_metrics`].
//! Trees built without a registry carry no-op handles, so every record
//! call below compiles to a branch on a null `Option` — the layer is
//! instrumented unconditionally and the handles decide.
//!
//! Instrument catalogue (Prometheus names):
//!
//! * `phshard_ops_total{op=...}` — counter per operation type
//!   (`insert`, `remove`, `get`, `query`, `query_count`, `knn`,
//!   `bulk_load`).
//! * `phshard_op_latency_ns{op=...}` — log₂ latency histogram per
//!   operation type, measured at the `ShardedTree` API boundary.
//! * `phshard_shard_ops_total{shard=N}` — keys routed to shard `N`
//!   (single-key ops count 1, `bulk_load` counts its partition size);
//!   the live counterpart of [`crate::ShardStats::skew`].
//! * `phshard_query_fanout` — histogram of shards a read touched: per
//!   window query the shards surviving prefix-mask pruning, per kNN
//!   the shards whose root the search entered.
//! * `phshard_pool_queue_depth` (+`_peak`) — fan-out pool queue depth.
//! * `phshard_pool_tasks_total` — jobs submitted to the pool.
//! * `phshard_pool_task_panics_total` — jobs that panicked (caught;
//!   the worker survives).
//! * `phshard_pool_busy_ns_total` — cumulative worker busy time.
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
#[derive(Clone)]
pub(crate) struct SwapMetrics {
    pub(crate) root_swaps: Counter,
    pub(crate) snapshot_live: Gauge,
    pub(crate) root_age_ns: Histogram,
}

impl SwapMetrics {
    pub(crate) fn disabled() -> Self {
        SwapMetrics {
            root_swaps: Counter::noop(),
            snapshot_live: Gauge::noop(),
            root_age_ns: Histogram::noop(),
        }
    }

    pub(crate) fn new(reg: &Registry) -> Self {
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
#[derive(Clone)]
pub(crate) struct OpInstruments {
    total: Counter,
    latency_ns: Histogram,
}

impl OpInstruments {
    fn noop() -> Self {
        OpInstruments {
            total: Counter::noop(),
            latency_ns: Histogram::noop(),
        }
    }

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

/// Every instrument recorded by [`crate::ShardedTree`].
#[derive(Clone)]
pub(crate) struct ShardMetrics {
    pub(crate) insert: OpInstruments,
    pub(crate) remove: OpInstruments,
    pub(crate) get: OpInstruments,
    pub(crate) query: OpInstruments,
    pub(crate) query_count: OpInstruments,
    pub(crate) knn: OpInstruments,
    pub(crate) bulk_load: OpInstruments,
    pub(crate) fanout: Histogram,
    per_shard_ops: Vec<Counter>,
}

impl ShardMetrics {
    pub(crate) fn disabled() -> Self {
        ShardMetrics {
            insert: OpInstruments::noop(),
            remove: OpInstruments::noop(),
            get: OpInstruments::noop(),
            query: OpInstruments::noop(),
            query_count: OpInstruments::noop(),
            knn: OpInstruments::noop(),
            bulk_load: OpInstruments::noop(),
            fanout: Histogram::noop(),
            per_shard_ops: Vec::new(),
        }
    }

    pub(crate) fn new(reg: &Registry, shards: usize) -> Self {
        ShardMetrics {
            insert: OpInstruments::new(reg, "insert"),
            remove: OpInstruments::new(reg, "remove"),
            get: OpInstruments::new(reg, "get"),
            query: OpInstruments::new(reg, "query"),
            query_count: OpInstruments::new(reg, "query_count"),
            knn: OpInstruments::new(reg, "knn"),
            bulk_load: OpInstruments::new(reg, "bulk_load"),
            fanout: reg.histogram("phshard_query_fanout"),
            per_shard_ops: (0..shards)
                .map(|s| reg.counter(&format!("phshard_shard_ops_total{{shard=\"{s}\"}}")))
                .collect(),
        }
    }

    /// Counts `n` keys routed to shard `s` (no-op when disabled: the
    /// vector is empty).
    #[inline]
    pub(crate) fn add_shard_ops(&self, s: usize, n: u64) {
        if let Some(c) = self.per_shard_ops.get(s) {
            c.add(n);
        }
    }
}

/// Instruments emitted by the online-rebalancing machinery
/// ([`crate::ShardedTree::split_shard`],
/// [`crate::DurableSharded::split_shard`], and the write-shedding
/// path). Disabled handles are no-ops, so the transitions are
/// instrumented unconditionally.
#[derive(Clone)]
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
    pub(crate) fn disabled() -> Self {
        RebalanceMetrics {
            splits: Counter::noop(),
            split_failures: Counter::noop(),
            shed: Counter::noop(),
            migrated_entries: Counter::noop(),
            backlog_drained: Counter::noop(),
            routing_epoch: Gauge::noop(),
            migration_inflight: Gauge::noop(),
        }
    }

    pub(crate) fn new(reg: &Registry) -> Self {
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

/// Instruments for a [`crate::WorkerPool`] (see the module docs for
/// the catalogue). Built from a registry via
/// [`PoolMetrics::from_registry`]; [`PoolMetrics::disabled`] is the
/// no-op default every plain `WorkerPool::new` ships with.
#[derive(Clone)]
pub struct PoolMetrics {
    pub(crate) queue_depth: Gauge,
    pub(crate) tasks: Counter,
    pub(crate) panics: Counter,
    pub(crate) busy_ns: Counter,
}

impl PoolMetrics {
    /// No-op handles; records nothing.
    pub fn disabled() -> Self {
        PoolMetrics {
            queue_depth: Gauge::noop(),
            tasks: Counter::noop(),
            panics: Counter::noop(),
            busy_ns: Counter::noop(),
        }
    }

    /// Pool instruments registered under `phshard_pool_*`.
    pub fn from_registry(reg: &Registry) -> Self {
        PoolMetrics {
            queue_depth: reg.gauge("phshard_pool_queue_depth"),
            tasks: reg.counter("phshard_pool_tasks_total"),
            panics: reg.counter("phshard_pool_task_panics_total"),
            busy_ns: reg.counter("phshard_pool_busy_ns_total"),
        }
    }
}
