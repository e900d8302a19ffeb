//! A live metrics dashboard over the whole PH-tree stack.
//!
//! Runs a mixed workload — concurrent point ops, window queries and
//! kNN on a metered `ShardedTree`, plus journaled writes and
//! checkpoints on a metered `phstore::Durable` — while three layers
//! report into one `phmetrics::Registry`:
//!
//! * `phtree_*` — per-op probe telemetry (nodes visited per
//!   get/insert/query, HC↔LHC representation switches) via the
//!   `phtree::telemetry` sink (cargo feature `metrics`),
//! * `phshard_*` — per-op latency histograms, per-shard routing
//!   counters, fan-out widths, root publications and snapshot pins,
//! * `phstore_*` — WAL append volume, fsync latency, checkpoints,
//!   recovery telemetry.
//!
//! A `MetricsReporter` thread prints a one-line rate summary every
//! second; the full Prometheus exposition is dumped at shutdown.
//!
//! Run: `cargo run --release -p ph-bench --features metrics --example metrics_dashboard [seconds]`
//! (default 3; CI smoke passes 1).

use phmetrics::{Counter, Histogram, MetricsReporter, Registry};
use phshard::ShardedTree;
use phstore::{Durable, DurableConfig, StoreMetrics};
use phtree::telemetry::{self, TreeOp, TreeSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bridges the tree's telemetry sink to registry instruments.
struct RegistrySink {
    ops: [Counter; 4],
    nodes: [Histogram; 4],
    to_hc: Counter,
    to_lhc: Counter,
}

impl RegistrySink {
    fn new(reg: &Registry) -> Self {
        let mk = |op: TreeOp| {
            (
                reg.counter(&format!("phtree_ops_total{{op=\"{}\"}}", op.name())),
                reg.histogram(&format!("phtree_nodes_visited{{op=\"{}\"}}", op.name())),
            )
        };
        let (get_c, get_h) = mk(TreeOp::Get);
        let (ins_c, ins_h) = mk(TreeOp::Insert);
        let (rem_c, rem_h) = mk(TreeOp::Remove);
        let (qry_c, qry_h) = mk(TreeOp::Query);
        RegistrySink {
            ops: [get_c, ins_c, rem_c, qry_c],
            nodes: [get_h, ins_h, rem_h, qry_h],
            to_hc: reg.counter("phtree_repr_switches_total{to=\"hc\"}"),
            to_lhc: reg.counter("phtree_repr_switches_total{to=\"lhc\"}"),
        }
    }
}

fn op_idx(op: TreeOp) -> usize {
    match op {
        TreeOp::Get => 0,
        TreeOp::Insert => 1,
        TreeOp::Remove => 2,
        TreeOp::Query => 3,
    }
}

impl TreeSink for RegistrySink {
    fn op(&self, op: TreeOp, nodes_visited: u32) {
        let i = op_idx(op);
        self.ops[i].inc();
        self.nodes[i].record(nodes_visited as u64);
    }

    fn repr_switch(&self, to_hc: bool) {
        if to_hc {
            self.to_hc.inc()
        } else {
            self.to_lhc.inc()
        }
    }
}

fn main() {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let registry = Registry::new();

    // Tree-level probe telemetry: process-global sink, installed once.
    telemetry::set_sink(Box::leak(Box::new(RegistrySink::new(&registry))));

    const SHARDS: usize = 8;
    let index: Arc<ShardedTree<u64, 2>> = Arc::new(ShardedTree::with_metrics(SHARDS, &registry));

    // Durable store in a temp dir, observed by the same registry.
    let dir = std::env::temp_dir().join(format!("phmetrics-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store: Durable<u64, 2> = Durable::open_observed(
        Arc::new(phstore::vfs::StdVfs),
        &dir,
        DurableConfig {
            checkpoint_bytes: 64 * 1024,
            sync_writes: true,
            retry: None,
        },
        StoreMetrics::from_registry(&registry),
    )
    .expect("open durable store");

    // One summary line per second, off the serving threads.
    let reporter = MetricsReporter::spawn(registry.clone(), Duration::from_secs(1), |reg| {
        let s = reg.snapshot();
        let rate = |name: &str| {
            s.counters
                .iter()
                .find(|c| c.name == name)
                .and_then(|c| c.rate)
                .unwrap_or(0.0)
        };
        println!(
            "[{:>5.1}s] insert {:>8.0}/s  get {:>8.0}/s  query {:>6.0}/s  wal {:>7.0} B/s",
            s.uptime.as_secs_f64(),
            rate("phshard_ops_total{op=\"insert\"}"),
            rate("phshard_ops_total{op=\"get\"}"),
            rate("phshard_ops_total{op=\"query\"}"),
            rate("phstore_wal_append_bytes_total"),
        );
    });

    // Mixed workload until the deadline.
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(secs);
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let key = [i.wrapping_mul(0x9E3779B97F4A7C15), i];
                    index.insert(key, i);
                    if i.is_multiple_of(16) {
                        index.remove(&[i.wrapping_sub(8).wrapping_mul(0x9E3779B97F4A7C15), i - 8]);
                    }
                    i += 2;
                }
            });
        }
        for r in 0..2u64 {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    index.get(&[i.wrapping_mul(0x9E3779B97F4A7C15), i]);
                    if i.is_multiple_of(64) {
                        index.query(&[0, 0], &[u64::MAX / 4, u64::MAX]);
                        index.knn(&[i, i], 3);
                    }
                    i += 1;
                }
            });
        }
        // The durable store journals on the main thread.
        let mut j = 0u64;
        while Instant::now() < deadline {
            store.insert([j, j * 3], j).expect("journaled insert");
            j += 1;
            if j.is_multiple_of(4096) {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    store.checkpoint().expect("final checkpoint");
    reporter.stop();

    println!("\n==== final Prometheus exposition ====");
    print!("{}", registry.render_prometheus());

    let snap = registry.snapshot();
    let p99 = |name: &str| snap.histogram(name).map_or(0, |h| h.p99());
    println!("==== summary ====");
    println!(
        "entries {}  skew {:.2}  insert p99 <= {} ns  get p99 <= {} ns  fsync p99 <= {} ns",
        index.len(),
        index.stats().skew(),
        p99("phshard_op_latency_ns{op=\"insert\"}"),
        p99("phshard_op_latency_ns{op=\"get\"}"),
        p99("phstore_wal_fsync_ns"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
