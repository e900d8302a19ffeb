//! Packed read-only artifact vs live serving: cold-start, space,
//! allocations, and page locality.
//!
//! Usage: `cargo run --release -p ph-bench --bin fig_pack --
//!         [--n 20000] [--seed 42] [--quick true]
//!         [--json BENCH_phtree.json]`
//!
//! One K=8 shard of `n` entries (CUBE keys, mixed history: bulk ingest
//! then overwrites and removes) is served three ways, and the
//! build-once serve-forever economics are measured:
//!
//! * **Cold start** — wall-clock to reopen the shard from a WAL
//!   (replay), from a snapshot (decode + rebuild), and from a packed
//!   artifact (superblock + checksum table, no tree rebuild).
//! * **Space** — packed file bytes/entry vs the live tree's
//!   `stats().total_bytes` heap bytes/entry.
//! * **Allocations** — warmed packed `get`/`query`/`knn_into` batches,
//!   pinned at zero by the counting global allocator.
//! * **Page locality** — data-page extents touched per window query
//!   and per kNN(10) on the descent-ordered layout, and the entry
//!   postfixes a kNN(10) decodes (those its quadrant table keeps).
//! * **kNN** — µs per kNN(10), packed (resident) against the live tree:
//!   the same search over two node representations.
//! * **Cold gets** — µs per `get` through an LRU holding a tenth of the
//!   data pages: mostly page faults, so this is what a fault costs
//!   (read + checksum + cache bookkeeping) on top of the descent.
//!
//! Acceptance checks are hard-asserted at the reference point
//! (n ≥ 20 000, K = 8): packed open ≥ 10× faster than WAL replay,
//! packed bytes/entry ≤ live heap bytes/entry, and zero allocations
//! per warmed read op. With `--json <path>` every metric lands in the
//! flat perf-baseline JSON along with `host_cores`.

use measure::alloc_track::{snapshot, CountingAlloc};
use measure::{Cli, Table};
use phpack::{CacheMode, KnnScratch, Packable, PackedNeighbor, PackedTree};
use phstore::vfs::StdVfs;
use phstore::{Durable, DurableConfig};
use phtree::key::point_to_key;
use phtree::IntEuclidean;
use std::hint::black_box;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const K: usize = 8;

/// Never auto-checkpoint: the WAL store must carry its whole history
/// so reopening measures a full replay.
fn wal_only() -> DurableConfig {
    DurableConfig {
        checkpoint_bytes: u64::MAX,
        sync_writes: false,
        retry: None,
    }
}

/// The shard's write history: bulk ingest, then a churn tail of
/// overwrites and removes so replay is not one pure leading-insert run.
fn apply_history(store: &mut Durable<u64, K>, items: &[([u64; K], u64)]) {
    for &(k, v) in items {
        store.insert(k, v).expect("insert");
    }
    for (i, &(k, _)) in items.iter().enumerate().take(items.len() / 10) {
        store.insert(k, i as u64 ^ 0xdead).expect("overwrite");
    }
    for &(k, _) in items.iter().step_by(20) {
        store.remove(&k).expect("remove");
    }
}

/// Best-of-`repeats` wall-clock milliseconds for one run of `open` (a
/// cold open, or a batch of reads).
fn best_ms(repeats: usize, mut open: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let (len, us) = measure::time_us(&mut open);
        black_box(len);
        best = best.min(us / 1000.0);
    }
    best
}

fn main() {
    let cli = Cli::from_env();
    ph_bench::maybe_install_counting_sink(&cli);
    let quick = cli.get_str("quick", "false") == "true";
    let seed = cli.get_u64("seed", 42);
    let n = cli.get_u64("n", 20_000) as usize;
    let repeats = if quick { 5 } else { 9 };
    let json = cli.get_str("json", "");
    let json = (!json.is_empty()).then_some(json);

    let items: Vec<([u64; K], u64)> = datasets::cube::<K>(n, seed)
        .iter()
        .enumerate()
        .map(|(i, p)| (point_to_key(p), i as u64))
        .collect();

    let base = std::env::temp_dir().join(format!("fig_pack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create bench dir");
    let wal_dir = base.join("wal");
    let snap_dir = base.join("snap");
    let pack_path = base.join("shard.phk");

    // Build the same shard state under all three serving formats.
    let mut store =
        Durable::<u64, K>::open_with(Arc::new(StdVfs), &wal_dir, wal_only()).expect("open wal");
    apply_history(&mut store, &items);
    store.sync().expect("sync");
    let live_stats = store.tree().stats();
    let pack = store.tree().pack_to(&pack_path).expect("pack");
    let entries = store.len();
    drop(store);

    let mut store =
        Durable::<u64, K>::open_with(Arc::new(StdVfs), &snap_dir, wal_only()).expect("open snap");
    apply_history(&mut store, &items);
    store.checkpoint().expect("checkpoint");
    drop(store);

    // --- Cold-start latency, best of `repeats` per format. ---
    let wal_ms = best_ms(repeats, || {
        Durable::<u64, K>::open_with(Arc::new(StdVfs), &wal_dir, wal_only())
            .expect("reopen wal")
            .len()
    });
    let snap_ms = best_ms(repeats, || {
        Durable::<u64, K>::open_with(Arc::new(StdVfs), &snap_dir, wal_only())
            .expect("reopen snap")
            .len()
    });
    let packed_ms = best_ms(repeats, || {
        PackedTree::<u64, K>::open(&pack_path, CacheMode::Resident)
            .expect("reopen packed")
            .len()
    });
    // Honesty guards: the WAL store really replays its history, the
    // snapshot store really starts from a clean log, and all three
    // formats hold the same entries.
    let reopened =
        Durable::<u64, K>::open_with(Arc::new(StdVfs), &wal_dir, wal_only()).expect("reopen wal");
    assert!(
        reopened.recovery_stats().replayed_ops > n,
        "WAL reopen replayed {} ops, want the full {}-op history",
        reopened.recovery_stats().replayed_ops,
        n
    );
    assert_eq!(reopened.len(), entries);
    drop(reopened);
    let reopened =
        Durable::<u64, K>::open_with(Arc::new(StdVfs), &snap_dir, wal_only()).expect("reopen snap");
    assert_eq!(reopened.recovery_stats().replayed_ops, 0);
    assert_eq!(reopened.len(), entries);
    drop(reopened);

    // --- Space: artifact bytes vs live heap bytes, per entry. ---
    let packed_bpe = pack.file_bytes as f64 / entries as f64;
    let live_bpe = live_stats.bytes_per_entry();

    // --- Zero allocations per warmed packed read op. ---
    let packed = PackedTree::<u64, K>::open(&pack_path, CacheMode::Resident).expect("open packed");
    let probes: Vec<[u64; K]> = items.iter().map(|(k, _)| *k).take(256).collect();
    let windows: Vec<([u64; K], [u64; K])> = probes
        .iter()
        .take(64)
        .map(|c| {
            let mut lo = *c;
            let mut hi = *c;
            for d in 0..K {
                lo[d] = c[d].saturating_sub(1 << 58);
                hi[d] = c[d].saturating_add(1 << 58);
            }
            (lo, hi)
        })
        .collect();
    let mut scratch = KnnScratch::new();
    let mut out: Vec<PackedNeighbor<u64, K>> = Vec::new();
    let mut read_batch = || {
        let mut acc = 0usize;
        for k in &probes {
            acc += packed.get(k).expect("get").is_some() as usize;
        }
        for (lo, hi) in &windows {
            for item in packed.query(lo, hi) {
                black_box(item.expect("query item"));
                acc += 1;
            }
        }
        for c in probes.iter().take(32) {
            packed
                .knn_into(c, 8, &IntEuclidean, &mut scratch, &mut out)
                .expect("knn");
            acc += out.len();
        }
        black_box(acc)
    };
    read_batch(); // warm
    let before = snapshot();
    read_batch();
    let allocs = snapshot().allocs_since(&before);
    let ops = (probes.len() + windows.len() + 32) as f64;

    // --- Page locality: data-page extents touched per window query. ---
    let fresh = PackedTree::<u64, K>::open(&pack_path, CacheMode::Resident).expect("open packed");
    let t0 = fresh.cache_stats().touches;
    let mut hits = 0usize;
    for (lo, hi) in &windows {
        for item in fresh.query(lo, hi) {
            black_box(item.expect("query item"));
            hits += 1;
        }
    }
    black_box(hits);
    let touches_per_query = (fresh.cache_stats().touches - t0) as f64 / windows.len() as f64;

    // --- kNN: pages touched and entry postfixes decoded (exact counts)
    // and time per search, the packed artifact against the live tree it
    // was packed from. ---
    let centres = &probes[..64];
    let t0 = fresh.cache_stats().touches;
    let mut decoded = 0;
    for c in centres {
        let trees = [(0.0, &fresh)];
        decoded += PackedTree::knn_forest(trees, c, 10, &IntEuclidean, &mut scratch, &mut out)
            .expect("knn")
            .decoded;
    }
    let touches_per_knn = (fresh.cache_stats().touches - t0) as f64 / centres.len() as f64;
    let decoded_per_knn = decoded as f64 / centres.len() as f64;
    let live = packed.to_tree().expect("unpack");
    let per_knn_us = 1000.0 / centres.len() as f64;
    let knn_packed_us = per_knn_us
        * best_ms(repeats, || {
            for c in centres {
                packed
                    .knn_into(c, 10, &IntEuclidean, &mut scratch, &mut out)
                    .expect("knn");
            }
            out.len()
        });
    let knn_live_us = per_knn_us
        * best_ms(repeats, || {
            centres.iter().map(|c| live.knn(c, 10).len()).sum()
        });

    // --- Cold gets: keys spread over the whole artifact, paged through
    // an LRU of a tenth of its pages. ---
    let cold_budget = (packed.data_pages() as usize / 10).max(1);
    let cold = PackedTree::<u64, K>::open(&pack_path, CacheMode::Lru { pages: cold_budget })
        .expect("open packed lru");
    let cold_keys: Vec<[u64; K]> = items
        .iter()
        .step_by((items.len() / 2048).max(1))
        .map(|(k, _)| *k)
        .collect();
    let cold_get_us = 1000.0 / cold_keys.len() as f64
        * best_ms(repeats, || {
            cold_keys
                .iter()
                .filter(|k| cold.get(k).expect("cold get").is_some())
                .count()
        });
    let faults_per_get = cold.cache_stats().misses as f64 / (repeats * cold_keys.len()) as f64;

    println!(
        "fig_pack k={K}: n={entries} open wal {wal_ms:.3} ms, snapshot {snap_ms:.3} ms, \
         packed {packed_ms:.3} ms ({:.1}x vs wal); bytes/e packed {packed_bpe:.1} vs live \
         {live_bpe:.1}; {allocs} allocs / {ops:.0} warmed ops; {touches_per_query:.1} \
         page-touches/query, {touches_per_knn:.1} /kNN ({} data pages); kNN(10) decodes \
         {decoded_per_knn:.1} entries, packed \
         {knn_packed_us:.1} us vs live {knn_live_us:.1} us; cold get {cold_get_us:.2} us at \
         {faults_per_get:.2} faults/get (lru {cold_budget} pages)",
        wal_ms / packed_ms,
        packed.data_pages()
    );

    let mut table = Table::new("fig_pack packed artifact vs live serving, CUBE", "k");
    table.add_row(
        K as f64,
        &[
            ("wal open ms", Some(wal_ms)),
            ("snap open ms", Some(snap_ms)),
            ("packed open ms", Some(packed_ms)),
            ("packed B/e", Some(packed_bpe)),
            ("live B/e", Some(live_bpe)),
            ("touches/query", Some(touches_per_query)),
            ("cold get us", Some(cold_get_us)),
        ],
    );
    print!("{}", table.render_text());
    ph_bench::write_csv("fig_pack packed artifact vs live serving", &table);

    if let Some(path) = json.as_deref() {
        for (name, v) in [
            ("fig_pack_open_wal_replay_ms", wal_ms),
            ("fig_pack_open_snapshot_ms", snap_ms),
            ("fig_pack_open_packed_ms", packed_ms),
            ("fig_pack_packed_bytes_per_entry", packed_bpe),
            ("fig_pack_live_bytes_per_entry", live_bpe),
            ("fig_pack_page_touches_per_query", touches_per_query),
            ("fig_pack_page_touches_per_knn", touches_per_knn),
            ("fig_pack_knn_decoded_per_query", decoded_per_knn),
            ("fig_pack_knn_packed_us", knn_packed_us),
            ("fig_pack_knn_live_us", knn_live_us),
            ("fig_pack_cold_get_us", cold_get_us),
            ("host_cores", ph_bench::host_cores() as f64),
        ] {
            match ph_bench::perfjson::record(path, name, v) {
                Ok(()) => eprintln!("json: {path} <- {name}"),
                Err(e) => eprintln!("note: cannot update {path}: {e}"),
            }
        }
    }

    // Acceptance (reference point only — a scaled-down --n run still
    // prints, but the claims are asserted where the issue pins them).
    if n >= 20_000 {
        assert_eq!(
            allocs, 0,
            "packed read path allocated {allocs} times across warmed ops — want zero"
        );
        assert!(
            wal_ms >= 10.0 * packed_ms,
            "packed cold-start regression: {packed_ms:.3} ms vs {wal_ms:.3} ms WAL replay \
             is only {:.1}x, want >= 10x",
            wal_ms / packed_ms
        );
        assert!(
            packed_bpe <= live_bpe,
            "packed artifact ({packed_bpe:.1} B/e) is larger than the live tree's heap \
             ({live_bpe:.1} B/e)"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}
