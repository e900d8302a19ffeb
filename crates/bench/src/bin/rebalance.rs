//! Online rebalancing under traffic: read latency and write shedding
//! while a hot durable shard is split live.
//!
//! The workload is the paper's adversarial case for prefix routing:
//! clustered float keys (`datasets::cluster`) whose sign/exponent bits
//! coincide, so the entire ingest lands on one shard of a uniform
//! router — skew is maximal by construction. The bench then splits
//! that hot shard **while** a writer thread keeps inserting and a
//! reader thread keeps issuing point reads, and reports:
//!
//! * read latency p50/p99 at baseline vs during the live split;
//! * writer throughput, plus how many writes were shed with the typed
//!   `Overloaded` error while the migration backlog was full
//!   (`shed_rate`), and how many backlogged writes the commit drained;
//! * skew before/after and the split's wall-clock cost.
//!
//! Runs on an in-memory VFS so the numbers isolate the protocol, not
//! the disk. On a 1-core host the reader/writer threads interleave
//! rather than run in parallel — latency percentiles and shed rates
//! stay honest, throughput "during" numbers understate a multicore
//! host; `host_cores` is recorded so readers can judge.
//!
//! Usage: `cargo run --release -p ph-bench --bin rebalance --
//!         [--quick true] [--n 200000] [--split-bits 2] [--backlog 512]`

use measure::{Cli, Table};
use phmetrics::exact_percentile;
use phshard::{DurableSharded, ShardError};
use phstore::vfs::MemVfs;
use phstore::DurableConfig;
use phtree::key::point_to_key;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

type Key = [u64; 2];

/// Point-read latencies (ns) over `probes`, one synchronous read at a
/// time — the honest single-client view.
fn read_latencies(store: &DurableSharded<u32, 2>, probes: &[Key]) -> Vec<u64> {
    let mut ns = Vec::with_capacity(probes.len());
    for k in probes {
        let t = Instant::now();
        std::hint::black_box(store.get_with(k, |v| *v));
        ns.push(t.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    ns
}

fn main() {
    let cli = Cli::from_env();
    let quick = cli.get_str("quick", "false") == "true";
    let n = cli.get_u64("n", if quick { 20_000 } else { 200_000 }) as usize;
    let split_bits = cli.get_u64("split-bits", 2) as u32;
    let backlog_cap = cli.get_u64("backlog", 512) as usize;
    let seed = cli.get_u64("seed", 42);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    eprintln!(
        "rebalance: n={n} split_bits={split_bits} backlog={backlog_cap} cores={cores}{}",
        if quick { " (quick)" } else { "" }
    );

    let config = DurableConfig {
        checkpoint_bytes: u64::MAX,
        sync_writes: false,
        retry: None,
    };
    let store: Arc<DurableSharded<u32, 2>> = Arc::new(
        DurableSharded::open_with(Arc::new(MemVfs::new()), Path::new("/bench"), 4, config).unwrap(),
    );
    store.set_backlog_capacity(backlog_cap);

    // Clustered ingest: every key shares its top Z-bits, so the whole
    // load piles onto one of the 4 uniform shards.
    let pts = datasets::cluster::<2>(n, 0.5, seed);
    let keys: Vec<Key> = pts.iter().map(point_to_key).collect();
    let (_, ingest_us) = measure::time_us(|| {
        for (i, k) in keys.iter().enumerate() {
            store.insert(*k, i as u32).unwrap();
        }
    });
    let stats = store.stats();
    let skew_before = stats.skew();
    let (hot, hot_entries) = stats.hottest().expect("ingest is non-empty");

    // Baseline read latency, no migration in flight.
    let probes: Vec<Key> = keys.iter().step_by((n / 2000).max(1)).copied().collect();
    let baseline = read_latencies(&store, &probes);

    // Live split: writer + reader threads run while the main thread
    // splits the hot shard.
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let (split_report, during, split_us, fresh) = std::thread::scope(|scope| {
        let writer = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let shed = Arc::clone(&shed);
            scope.spawn(move || {
                let mut i = 0u64;
                let mut fresh = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // New keys under the hot shard's prefix (both MSBs
                    // set, like the clustered floats): they route to
                    // the migrating shard and exercise the backlog.
                    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12;
                    let key = [h | (1 << 63), (h.rotate_left(17) >> 12) | (1 << 63)];
                    match store.insert(key, i as u32) {
                        Ok(prev) => {
                            acked.fetch_add(1, Ordering::Relaxed);
                            if prev.is_none() {
                                fresh += 1;
                            }
                        }
                        Err(ShardError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("writer hit unexpected error: {e}"),
                    };
                    i += 1;
                }
                fresh
            })
        };
        let reader = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let probes = probes.clone();
            scope.spawn(move || {
                let mut ns = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    for k in probes.iter().step_by(8) {
                        let t = Instant::now();
                        std::hint::black_box(store.get_with(k, |v| *v));
                        ns.push(t.elapsed().as_nanos() as u64);
                    }
                }
                ns.sort_unstable();
                ns
            })
        };
        let t = Instant::now();
        let report = store.split_shard(hot, split_bits).unwrap();
        let split_us = t.elapsed().as_secs_f64() * 1e6;
        stop.store(true, Ordering::Relaxed);
        let fresh = writer.join().unwrap();
        let during = reader.join().unwrap();
        (report, during, split_us, fresh)
    });

    let skew_after = store.stats().skew();
    let acked = acked.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    let shed_rate = shed as f64 / (acked + shed).max(1) as f64;
    assert_eq!(
        store.len() as u64,
        n as u64 + fresh,
        "entries lost or duplicated across the live split"
    );

    let mut table = Table::new("rebalance live split read latency (ns)", "phase");
    table.add_row(
        0.0,
        &[
            ("p50", Some(exact_percentile(&baseline, 0.50))),
            ("p99", Some(exact_percentile(&baseline, 0.99))),
        ],
    );
    table.add_row(
        1.0,
        &[
            ("p50", Some(exact_percentile(&during, 0.50))),
            ("p99", Some(exact_percentile(&during, 0.99))),
        ],
    );
    print!("{}", table.render_text());
    println!("phase 0 = baseline, phase 1 = during live split");
    println!(
        "split: {hot} -> {:?} in {:.0}us  migrated {} entries, drained {} backlogged writes",
        split_report.children, split_us, split_report.migrated, split_report.backlog_drained
    );
    println!(
        "writer during split: {acked} acked, {shed} shed ({:.2}% shed rate)  skew {skew_before:.2} -> {skew_after:.2}  (host cores: {cores})",
        shed_rate * 100.0
    );
    ph_bench::write_csv("rebalance live split read latency (ns)", &table);

    let json = format!(
        "{{\n  \"workload\": {{\"n\": {n}, \"dims\": 2, \"dataset\": \"clustered\", \"seed\": {seed}, \"shards_before\": 4, \"split_bits\": {split_bits}, \"backlog_cap\": {backlog_cap}, \"ingest_us\": {ingest_us:.0}}},\n  \"host_cores\": {cores},\n  \"skew\": {{\"before\": {skew_before:.4}, \"after\": {skew_after:.4}, \"hot_shard_entries\": {hot_entries}}},\n  \"split\": {{\"src\": {hot}, \"children\": {children}, \"migrated\": {migrated}, \"backlog_drained\": {drained}, \"wall_us\": {split_us:.0}, \"epoch\": {epoch}}},\n  \"read_latency_ns\": {{\"baseline_p50\": {bp50:.0}, \"baseline_p99\": {bp99:.0}, \"during_split_p50\": {dp50:.0}, \"during_split_p99\": {dp99:.0}, \"during_samples\": {dn}}},\n  \"writes_during_split\": {{\"acked\": {acked}, \"shed\": {shed}, \"shed_rate\": {shed_rate:.6}}}\n}}\n",
        children = split_report.children.len(),
        migrated = split_report.migrated,
        drained = split_report.backlog_drained,
        epoch = split_report.epoch,
        bp50 = exact_percentile(&baseline, 0.50),
        bp99 = exact_percentile(&baseline, 0.99),
        dp50 = exact_percentile(&during, 0.50),
        dp99 = exact_percentile(&during, 0.99),
        dn = during.len(),
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("note: cannot create results/: {e}");
    } else if let Err(e) = std::fs::write("results/rebalance.json", &json) {
        eprintln!("note: cannot write results/rebalance.json: {e}");
    } else {
        eprintln!("wrote results/rebalance.json");
    }
}
