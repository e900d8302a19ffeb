//! The per-layer metrics of a traced run.
//!
//! After the traced rounds, the same kind of request stream is
//! replayed in-process at each seam — bare `PhTree`, a pinned
//! `ReadView` (the `phshard` read front), the `Backend` driven the way
//! the server drives it, the `proto` codec without a socket — timing
//! the calls from outside. What remains of a served op once backend
//! and codec are taken away is the server's own share.

use crate::model::{Key, Model};
use crate::quantile::{median_of, p50_us, Samples};
use crate::report::Outcome;
use crate::serve::{fatal, Built, Rounds, ServeSpec, Store, StoreKind, SHARDS};
use crate::vfs::{Device, IoCounts};
use crate::{alloc, span, Args};
use phmetrics::Snapshot as RegistrySnapshot;
use phpack::{pack_tree_in, CacheMode, PackedTree};
use phserve::{proto, Backend, ReadView, Request, Response};
use phshard::ShardMap;
use phtree::PhTree;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Every per-layer metric, in the order of `BENCHMARK.json`. A metric
/// of a layer the workload does not pass through stays 0.
pub struct Layers {
    pub values: Vec<(&'static str, f64, &'static str)>,
}

/// Name and unit of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phtree.get_ns", "ns"),
    ("phtree.insert_ns", "ns"),
    ("phtree.remove_ns", "ns"),
    ("phtree.window_ns_per_hit", "ns"),
    ("phtree.knn_ns", "ns"),
    ("phtree.bulk_load_ns_per_entry", "ns"),
    ("phtree.allocs_per_insert", "count"),
    ("phtree.allocs_per_read", "count"),
    ("phtree.heap_bytes_per_entry", "B"),
    ("phtree.entries_per_node", "count"),
    ("phtree.hc_node_share", "ratio"),
    ("phshard.get_ns", "ns"),
    ("phshard.snapshot_pin_ns", "ns"),
    ("phshard.insert_ns", "ns"),
    ("phshard.window_ns_per_hit", "ns"),
    ("phshard.knn_ns", "ns"),
    ("phshard.bulk_load_ns_per_entry", "ns"),
    ("phshard.shards_per_window", "count"),
    ("phshard.allocs_per_read", "count"),
    ("phshard.skew", "ratio"),
    ("phstore.wal_bytes_per_user_byte", "ratio"),
    ("phstore.writes_per_op", "count"),
    ("phstore.fsyncs_per_op", "count"),
    ("phstore.write_ns", "ns"),
    ("phstore.fsync_ns", "ns"),
    ("phstore.checkpoints", "count"),
    ("phstore.checkpoint_ms_max", "ms"),
    ("phstore.replay_ns_per_op", "ns"),
    ("phstore.disk_bytes_per_entry", "B"),
    ("phpack.get_ns", "ns"),
    ("phpack.window_ns_per_hit", "ns"),
    ("phpack.knn_ns", "ns"),
    ("phpack.resident_get_ns", "ns"),
    ("phpack.page_touches_per_get", "count"),
    ("phpack.page_touches_per_window", "count"),
    ("phpack.hit_ratio", "ratio"),
    ("phpack.read_bytes_per_op", "B"),
    ("phpack.file_bytes_per_entry", "B"),
    ("phpack.pack_ns_per_entry", "ns"),
    ("phpack.allocs_per_read", "count"),
    ("phserve.backend.get_ns", "ns"),
    ("phserve.backend.insert_ns", "ns"),
    ("phserve.backend.read_view_ns", "ns"),
    ("phserve.backend.calls_per_op", "count"),
    ("phserve.backend.allocs_per_op", "count"),
    ("phserve.backend.coalesced_share", "ratio"),
    ("phserve.proto.encode_req_ns", "ns"),
    ("phserve.proto.decode_req_ns", "ns"),
    ("phserve.proto.encode_resp_ns", "ns"),
    ("phserve.proto.decode_resp_ns", "ns"),
    ("phserve.proto.req_bytes_per_op", "B"),
    ("phserve.proto.resp_bytes_per_op", "B"),
    ("phserve.proto.allocs_per_op", "count"),
    ("phserve.server.d1_self_us", "us"),
    ("phserve.server.d64_self_ns", "ns"),
    ("phserve.server.share_pct", "%"),
    ("phserve.server.p99_us", "us"),
    ("phserve.server.queue_depth_peak", "count"),
    ("phserve.server.batch_size_mean", "count"),
    ("phserve.server.shed", "count"),
    ("phserve.server.allocs_per_op", "count"),
    ("phserve.server.threads", "count"),
    ("phserve.server.ctx_switches_per_op", "count"),
    ("stack.ns_per_op", "ns"),
    ("stack.insert_p50_us", "us"),
    ("stack.open_ms", "ms"),
    ("stack.peak_rss_mb", "MiB"),
    ("trace.overhead_pct", "%"),
];

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    /// Closes a traced run: writes the trace file and hands every
    /// metric to the result.
    pub fn finish(mut self, args: &Args, out: &mut Outcome) {
        self.set("stack.peak_rss_mb", crate::procfs::peak_rss_mb());
        write_trace(args, &self);
        for (name, value, unit) in self.values {
            out.push(name, value, unit);
        }
    }
}

fn per(total: u64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// I/O counters at one instant.
#[derive(Clone, Copy, Default)]
pub struct IoSnapshot {
    pub writes: u64,
    pub wal_bytes: u64,
    pub read_bytes: u64,
    pub syncs: u64,
    pub checkpoints: u64,
}

impl IoSnapshot {
    pub fn take(c: &IoCounts) -> IoSnapshot {
        IoSnapshot {
            writes: c.writes.load(Relaxed),
            wal_bytes: c.wal_bytes.load(Relaxed),
            read_bytes: c.read_bytes.load(Relaxed),
            syncs: c.fsyncs.load(Relaxed) + c.dir_syncs.load(Relaxed),
            checkpoints: c.checkpoints.load(Relaxed),
        }
    }

    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            writes: self.writes - earlier.writes,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            read_bytes: self.read_bytes - earlier.read_bytes,
            syncs: self.syncs - earlier.syncs,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

pub struct LayerInputs<'a, const K: usize> {
    pub spec: &'a ServeSpec,
    pub args: &'a Args,
    /// The store's contents when the rounds ended.
    pub model: &'a Model<K>,
    /// One `lat` script (`script_len` requests) followed by one `tput`
    /// stream, valid against those contents.
    pub replay: &'a [Request<K>],
    pub script_len: usize,
    pub built: &'a Built,
    pub bytes_per_entry: f64,
    pub rounds: &'a Rounds,
    pub registry: &'a RegistrySnapshot,
    /// I/O issued during the rounds, and the longest checkpoint.
    pub io_rounds: IoSnapshot,
    pub checkpoint_ns_max: u64,
    pub open_ms: &'a [f64],
    pub replay_ns_per_op: f64,
    pub dir: &'a Path,
    pub dev: &'a Device,
}

/// The requests of a stream by kind.
struct Classes<const K: usize> {
    gets: Vec<Key<K>>,
    windows: Vec<(Key<K>, Key<K>)>,
    knns: Vec<(Key<K>, usize)>,
}

impl<const K: usize> Classes<K> {
    fn of(ops: &[Request<K>]) -> Classes<K> {
        let mut c = Classes {
            gets: Vec::new(),
            windows: Vec::new(),
            knns: Vec::new(),
        };
        for op in ops {
            match op {
                Request::Get { key } => c.gets.push(*key),
                Request::Query { min, max } => c.windows.push((*min, *max)),
                Request::Knn { center, n } => c.knns.push((*center, *n as usize)),
                _ => {}
            }
        }
        c
    }
}

/// Times of one seam's reads: mean ns per get, ns per window hit, mean
/// ns per kNN, and allocation events per get.
struct ReadTimes {
    get_ns: f64,
    window_ns_per_hit: f64,
    knn_ns: f64,
    allocs_per_get: f64,
}

/// Times the three read kinds through `get` / `window` / `knn`, each
/// kind as one batch (a single get is below timer resolution).
fn time_reads<const K: usize>(
    layer: [&'static str; 3],
    c: &Classes<K>,
    get: impl Fn(&Key<K>) -> Option<u64>,
    window: impl Fn(&Key<K>, &Key<K>) -> usize,
    knn: impl Fn(&Key<K>, usize) -> usize,
) -> ReadTimes {
    let section = alloc::Section::start();
    let (found, get_ns) = span::timed(layer[0], c.gets.len() as u64, || {
        c.gets.iter().filter(|k| get(k).is_some()).count()
    });
    let allocs = section.allocs();
    let (hits, window_ns) = span::timed(layer[1], c.windows.len() as u64, || {
        c.windows
            .iter()
            .map(|(lo, hi)| window(lo, hi))
            .sum::<usize>()
    });
    let (nbs, knn_ns) = span::timed(layer[2], c.knns.len() as u64, || {
        c.knns.iter().map(|(k, n)| knn(k, *n)).sum::<usize>()
    });
    std::hint::black_box((found, nbs));
    ReadTimes {
        get_ns: per(get_ns, c.gets.len()),
        window_ns_per_hit: per(window_ns, hits),
        knn_ns: per(knn_ns, c.knns.len()),
        allocs_per_get: per(allocs, c.gets.len()),
    }
}

/// The bare-tree seam: builds a `PhTree` of `contents` and replays
/// `ops` on it. Returns the tree for the packed seam.
fn phtree_seam<const K: usize>(
    contents: Vec<(Key<K>, u64)>,
    ops: &[Request<K>],
    c: &Classes<K>,
    l: &mut Layers,
) -> PhTree<u64, K> {
    let n = contents.len();
    // `contents` is freed inside the load, so the live growth across
    // it is the tree alone once the input's own bytes are added back.
    let input_bytes = (contents.capacity() * std::mem::size_of::<(Key<K>, u64)>()) as i64;
    let heap = alloc::Section::start();
    let (mut tree, load_ns) =
        span::timed("phtree.bulk_load", n as u64, || PhTree::bulk_load(contents));
    let heap_bytes = heap.live_bytes() + input_bytes;
    let stats = tree.stats();
    l.set("phtree.bulk_load_ns_per_entry", per(load_ns, n));
    l.set("phtree.heap_bytes_per_entry", heap_bytes as f64 / n as f64);
    l.set("phtree.entries_per_node", stats.entries_per_node());
    l.set(
        "phtree.hc_node_share",
        stats.hc_nodes as f64 / stats.nodes.max(1) as f64,
    );

    let r = time_reads(
        ["phtree.get", "phtree.window", "phtree.knn"],
        c,
        |k| tree.get(k).copied(),
        |lo, hi| tree.query(lo, hi).count(),
        |k, n| tree.knn(k, n).len(),
    );
    l.set("phtree.get_ns", r.get_ns);
    l.set("phtree.window_ns_per_hit", r.window_ns_per_hit);
    l.set("phtree.knn_ns", r.knn_ns);
    l.set("phtree.allocs_per_read", r.allocs_per_get);

    // Writes in stream order, each timed on its own.
    let (mut ins_ns, mut ins, mut rem_ns, mut rem, mut ins_allocs) = (0u64, 0usize, 0u64, 0, 0u64);
    for op in ops {
        match op {
            Request::Insert { key, value } => {
                let section = alloc::Section::start();
                let t0 = Instant::now();
                std::hint::black_box(tree.insert(*key, *value));
                ins_ns += t0.elapsed().as_nanos() as u64;
                ins_allocs += section.allocs();
                ins += 1;
            }
            Request::Remove { key } => {
                let t0 = Instant::now();
                std::hint::black_box(tree.remove(key));
                rem_ns += t0.elapsed().as_nanos() as u64;
                rem += 1;
            }
            _ => {}
        }
    }
    l.set("phtree.insert_ns", per(ins_ns, ins));
    l.set("phtree.remove_ns", per(rem_ns, rem));
    l.set("phtree.allocs_per_insert", per(ins_allocs, ins));
    tree
}

/// What the backend seam measured, per request of the stream.
struct BackendTimes<const K: usize> {
    replies: Vec<Response<K>>,
    total_ns: u64,
    allocs: u64,
}

fn is_read<const K: usize>(r: &Request<K>) -> bool {
    matches!(
        r,
        Request::Get { .. } | Request::Query { .. } | Request::Knn { .. }
    )
}

fn reply_of<T, const K: usize>(
    r: Result<T, phshard::ShardError>,
    f: impl FnOnce(T) -> Response<K>,
) -> Response<K> {
    match r {
        Ok(v) => f(v),
        Err(e) => Response::Error {
            code: phserve::ErrorCode::Internal,
            detail: e.to_string(),
        },
    }
}

/// Drives `store` with `ops` the way a server worker does: batches of
/// `batch` requests (the mean size the server's queue produced during
/// the rounds), a run of reads answered from one pinned view, a run of
/// inserts coalesced into one `bulk_load`, the rest one call each.
fn backend_seam<B: Backend<K>, const K: usize>(
    store: &B,
    ops: &[Request<K>],
    batch: usize,
    l: &mut Layers,
) -> BackendTimes<K> {
    let mut replies: Vec<Response<K>> = Vec::with_capacity(ops.len());
    let (mut get_ns, mut gets, mut ins_ns, mut ins, mut pin_ns, mut pins) =
        (0u64, 0usize, 0u64, 0usize, 0u64, 0usize);
    let section = alloc::Section::start();
    let t_all = Instant::now();
    for batch in ops.chunks(batch) {
        let mut i = 0;
        while i < batch.len() {
            let run_of =
                |pred: fn(&Request<K>) -> bool| batch[i..].iter().take_while(|r| pred(r)).count();
            let reads = run_of(is_read);
            let inserts = run_of(|r| matches!(r, Request::Insert { .. }));
            if reads >= 2 {
                let t0 = Instant::now();
                let view = store.read_view();
                let pinned = t0.elapsed().as_nanos() as u64;
                (pin_ns, pins) = (pin_ns + pinned, pins + 1);
                // Scans are timed one by one; what is left of the run
                // is the pin and the gets.
                let mut scans_ns = 0;
                for op in &batch[i..i + reads] {
                    let t1 = Instant::now();
                    let reply = match op {
                        Request::Get { key } => {
                            gets += 1;
                            replies.push(reply_of(view.get(key), Response::Value));
                            continue;
                        }
                        Request::Query { min, max } => {
                            reply_of(view.query(min, max), Response::Entries)
                        }
                        Request::Knn { center, n } => {
                            reply_of(view.knn(center, *n as usize), Response::Neighbors)
                        }
                        _ => unreachable!("a read run holds reads"),
                    };
                    scans_ns += t1.elapsed().as_nanos() as u64;
                    replies.push(reply);
                }
                get_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(scans_ns);
                i += reads;
            } else if inserts >= 2 {
                let items = batch[i..i + inserts]
                    .iter()
                    .map(|r| match r {
                        Request::Insert { key, value } => (*key, *value),
                        _ => unreachable!("an insert run holds inserts"),
                    })
                    .collect();
                let t0 = Instant::now();
                let reply = reply_of(store.bulk_load(items), |_| Response::Ack);
                (ins_ns, ins) = (ins_ns + t0.elapsed().as_nanos() as u64, ins + inserts);
                replies.extend(std::iter::repeat_n(reply, inserts));
                i += inserts;
            } else {
                let t0 = Instant::now();
                let reply = match &batch[i] {
                    Request::Get { key } => reply_of(store.get(key), Response::Value),
                    Request::Insert { key, value } => {
                        reply_of(store.insert(*key, *value), |()| Response::Ack)
                    }
                    Request::Remove { key } => reply_of(store.remove(key), Response::Value),
                    Request::Query { min, max } => {
                        reply_of(store.query(min, max), Response::Entries)
                    }
                    Request::Knn { center, n } => {
                        reply_of(store.knn(center, *n as usize), Response::Neighbors)
                    }
                    _ => unreachable!("the streams hold data requests only"),
                };
                let ns = t0.elapsed().as_nanos() as u64;
                match &batch[i] {
                    Request::Get { .. } => (get_ns, gets) = (get_ns + ns, gets + 1),
                    Request::Insert { .. } => (ins_ns, ins) = (ins_ns + ns, ins + 1),
                    _ => {}
                }
                replies.push(reply);
                i += 1;
            }
        }
    }
    let total_ns = t_all.elapsed().as_nanos() as u64;
    let allocs = section.allocs();
    l.set("phserve.backend.get_ns", per(get_ns, gets));
    l.set("phserve.backend.insert_ns", per(ins_ns, ins));
    l.set("phserve.backend.read_view_ns", per(pin_ns, pins));
    BackendTimes {
        replies,
        total_ns,
        allocs,
    }
}

/// Codec cost of the stream: the four directions, each as one batch.
/// Returns `(ns per op over all four, allocation events per op)`.
fn proto_seam<const K: usize>(
    ops: &[Request<K>],
    replies: &[Response<K>],
    l: &mut Layers,
) -> (f64, f64) {
    let n = ops.len();
    let section = alloc::Section::start();
    let (req_bodies, enc_req) = span::timed("phserve.proto.encode_req", n as u64, || {
        ops.iter()
            .enumerate()
            .map(|(i, r)| proto::encode_request(i as u64, r))
            .collect::<Vec<_>>()
    });
    let ((), dec_req) = span::timed("phserve.proto.decode_req", n as u64, || {
        for b in &req_bodies {
            std::hint::black_box(proto::decode_request::<K>(b).expect("own encoding decodes"));
        }
    });
    let (resp_bodies, enc_resp) = span::timed("phserve.proto.encode_resp", n as u64, || {
        replies
            .iter()
            .enumerate()
            .map(|(i, r)| proto::encode_response(i as u64, r))
            .collect::<Vec<_>>()
    });
    let ((), dec_resp) = span::timed("phserve.proto.decode_resp", n as u64, || {
        for b in &resp_bodies {
            std::hint::black_box(proto::decode_response::<K>(b).expect("own encoding decodes"));
        }
    });
    let allocs = section.allocs();
    l.set("phserve.proto.encode_req_ns", per(enc_req, n));
    l.set("phserve.proto.decode_req_ns", per(dec_req, n));
    l.set("phserve.proto.encode_resp_ns", per(enc_resp, n));
    l.set("phserve.proto.decode_resp_ns", per(dec_resp, n));
    let wire = |bodies: &[Vec<u8>]| {
        bodies
            .iter()
            .map(|b| (proto::HEADER_LEN + b.len()) as u64)
            .sum::<u64>()
    };
    l.set("phserve.proto.req_bytes_per_op", per(wire(&req_bodies), n));
    l.set(
        "phserve.proto.resp_bytes_per_op",
        per(wire(&resp_bodies), n),
    );
    l.set("phserve.proto.allocs_per_op", per(allocs, n));

    (
        per(enc_req + dec_req + enc_resp + dec_resp, n),
        per(allocs, n),
    )
}

/// Single depth-1 gets: mean ns of `Backend::get`, and of encoding and
/// decoding the request and its reply.
fn single_get<B: Backend<K>, const K: usize>(store: &B, keys: &[Key<K>]) -> (f64, f64) {
    let t0 = Instant::now();
    let replies: Vec<Response<K>> = keys
        .iter()
        .map(|k| reply_of(store.get(k), Response::Value))
        .collect();
    let backend_ns = per(t0.elapsed().as_nanos() as u64, keys.len());
    let t1 = Instant::now();
    for (i, (key, reply)) in keys.iter().zip(&replies).enumerate() {
        let a = proto::encode_request(i as u64, &Request::Get { key: *key });
        std::hint::black_box(proto::decode_request::<K>(&a).expect("own encoding decodes"));
        let b = proto::encode_response(i as u64, reply);
        std::hint::black_box(proto::decode_response::<K>(&b).expect("own encoding decodes"));
    }
    (backend_ns, per(t1.elapsed().as_nanos() as u64, keys.len()))
}

/// The packed-file seam: the bare tree packed into one artifact and
/// read through `PackedTree`, demand-paged with a tenth of its pages
/// resident and then fully resident.
fn phpack_seam<const K: usize>(
    tree: &PhTree<u64, K>,
    c: &Classes<K>,
    dir: &Path,
    dev: &Device,
    l: &mut Layers,
) {
    let path = dir.join("single.phk");
    let stats = fatal(
        "pack single artifact",
        pack_tree_in(tree, dev.vfs.as_ref(), &path),
    );
    let open = |mode| {
        fatal(
            "open single artifact",
            PackedTree::<u64, K>::open_in(dev.vfs.as_ref(), &path, mode),
        )
    };
    let lru = open(CacheMode::Lru {
        pages: (stats.data_pages / 10).max(1) as usize,
    });
    let cold = lru.cache_stats();
    let section = alloc::Section::start();
    let (found, get_ns) = span::timed("phpack.get", c.gets.len() as u64, || {
        c.gets
            .iter()
            .filter(|k| matches!(lru.get(k), Ok(Some(_))))
            .count()
    });
    let allocs = section.allocs();
    let after_gets = lru.cache_stats();
    let (hits, window_ns) = span::timed("phpack.window", c.windows.len() as u64, || {
        c.windows
            .iter()
            .map(|(lo, hi)| lru.query(lo, hi).filter(Result::is_ok).count())
            .sum::<usize>()
    });
    let after_windows = lru.cache_stats();
    let (nbs, knn_ns) = span::timed("phpack.knn", c.knns.len() as u64, || {
        c.knns
            .iter()
            .map(|(k, n)| lru.knn(k, *n).map_or(0, |v| v.len()))
            .sum::<usize>()
    });
    let end = lru.cache_stats();
    drop(lru);
    let resident = open(CacheMode::Resident);
    let (found_r, resident_ns) = span::timed("phpack.resident_get", c.gets.len() as u64, || {
        c.gets
            .iter()
            .filter(|k| matches!(resident.get(k), Ok(Some(_))))
            .count()
    });
    std::hint::black_box((found, found_r, nbs));
    l.set("phpack.get_ns", per(get_ns, c.gets.len()));
    l.set("phpack.window_ns_per_hit", per(window_ns, hits));
    l.set("phpack.knn_ns", per(knn_ns, c.knns.len()));
    l.set("phpack.resident_get_ns", per(resident_ns, c.gets.len()));
    l.set(
        "phpack.page_touches_per_get",
        per(after_gets.touches - cold.touches, c.gets.len()),
    );
    l.set(
        "phpack.page_touches_per_window",
        per(after_windows.touches - after_gets.touches, c.windows.len()),
    );
    let touches = end.touches - cold.touches;
    l.set(
        "phpack.hit_ratio",
        1.0 - per(end.misses - cold.misses, touches as usize),
    );
    l.set("phpack.allocs_per_read", per(allocs, c.gets.len()));
}

fn counter(reg: &RegistrySnapshot, name: &str) -> f64 {
    reg.counter(name).unwrap_or(0) as f64
}

/// Fills every per-layer metric of a served workload. `store` is the
/// store the rounds ran on (reopened, if it is persistent).
pub fn measure<S: Store<K>, const K: usize>(
    store: &S,
    inp: &LayerInputs<'_, K>,
    out: &mut Outcome,
) {
    let mut l = Layers::new();
    let ops = inp.replay;
    alloc::set_counting(true);
    span::set_on(true);

    let contents: Vec<(Key<K>, u64)> = inp.model.map.iter().map(|(k, v)| (*k, *v)).collect();
    let entries = contents.len();
    let c = Classes::of(ops);
    let tree = phtree_seam(contents, ops, &c, &mut l);

    // phshard: reads on one pinned view, the pin itself, and single
    // writes (the script's insert-then-remove pairs, which leave the
    // store as it was).
    let ((), pin_ns) = span::timed("phshard.snapshot_pin", 2000, || {
        for _ in 0..2000 {
            std::hint::black_box(store.read_view());
        }
    });
    l.set("phshard.snapshot_pin_ns", per(pin_ns, 2000));
    let view: ReadView<K> = store.read_view();
    let r = time_reads(
        ["phshard.get", "phshard.window", "phshard.knn"],
        &c,
        |k| view.get(k).ok().flatten(),
        |lo, hi| view.query(lo, hi).map_or(0, |v| v.len()),
        |k, n| view.knn(k, n).map_or(0, |v| v.len()),
    );
    drop(view);
    l.set("phshard.get_ns", r.get_ns);
    l.set("phshard.window_ns_per_hit", r.window_ns_per_hit);
    l.set("phshard.knn_ns", r.knn_ns);
    l.set("phshard.allocs_per_read", r.allocs_per_get);
    let (mut ins_ns, mut ins) = (0u64, 0usize);
    for op in &ops[..inp.script_len] {
        match op {
            Request::Insert { key, value } => {
                let _s = span::enter("phshard.insert", 0);
                let t0 = Instant::now();
                let _ = std::hint::black_box(store.insert(*key, *value));
                ins_ns += t0.elapsed().as_nanos() as u64;
                ins += 1;
            }
            Request::Remove { key } => {
                let _ = std::hint::black_box(store.remove(key));
            }
            _ => {}
        }
    }
    l.set("phshard.insert_ns", per(ins_ns, ins));
    if inp.spec.store != StoreKind::Packed {
        l.set(
            "phshard.bulk_load_ns_per_entry",
            inp.built.preload_ns as f64 / inp.model.map.len() as f64,
        );
    }
    let map = ShardMap::<K>::uniform(SHARDS);
    let matched: usize = c
        .windows
        .iter()
        .map(|(lo, hi)| map.matching_shards(lo, hi).len())
        .sum();
    l.set(
        "phshard.shards_per_window",
        per(matched as u64, c.windows.len()),
    );
    l.set("phshard.skew", store.stats().skew());

    if inp.spec.store == StoreKind::Packed {
        phpack_seam(&tree, &c, inp.dir, inp.dev, &mut l);
        l.set("phpack.file_bytes_per_entry", inp.bytes_per_entry);
        l.set(
            "phpack.pack_ns_per_entry",
            inp.built.pack_ns as f64 / entries as f64,
        );
    }
    drop(tree);

    // Backend and codec are weighed by the `tput` stream alone: its mix
    // is what `ops_s`, and so the server's share of an op, is about.
    let tput = &ops[inp.script_len..];
    let reg = inp.registry;
    let requests: f64 = ["insert", "get", "remove", "query", "knn"]
        .iter()
        .map(|op| counter(reg, &format!("phserve_requests_total{{op=\"{op}\"}}")))
        .sum();
    let batch_size_mean = requests / counter(reg, "phserve_batches_total").max(1.0);
    let b = backend_seam(
        store,
        tput,
        (batch_size_mean.round() as usize).max(1),
        &mut l,
    );
    let (proto_ns, proto_allocs) = proto_seam(tput, &b.replies, &mut l);
    let (single_get_ns, proto_get_ns) = single_get(store, &c.gets);
    span::set_on(false);
    alloc::set_counting(false);

    // What the rounds saw.
    let r = inp.rounds;
    l.set(
        "phserve.backend.calls_per_op",
        per(r.traced_calls, r.traced_ops as usize),
    );
    if r.inserts_sent > 0 {
        l.set(
            "phserve.backend.coalesced_share",
            counter(reg, "phserve_coalesced_inserts_total") / r.inserts_sent as f64,
        );
    }
    let ops_s = median_of(&r.ops_s);
    let ns_per_op = 1e9 / ops_s;
    let backend_per_op = per(b.total_ns, tput.len());
    let d64 = ns_per_op - backend_per_op - proto_ns;
    l.set("phserve.backend.allocs_per_op", per(b.allocs, tput.len()));
    l.set("phserve.server.d64_self_ns", d64);
    l.set("phserve.server.share_pct", 100.0 * d64 / ns_per_op);
    let gets = Samples::new(r.lat.get.clone());
    let get_p50_ns = gets.median().unwrap_or(0.0);
    l.set(
        "phserve.server.d1_self_us",
        (get_p50_ns - single_get_ns - proto_get_ns) / 1000.0,
    );
    if let Some((_, v)) = gets.highest_tail() {
        l.set("phserve.server.p99_us", v / 1000.0);
    }
    if let Some(g) = reg.gauge("phserve_queue_depth") {
        l.set("phserve.server.queue_depth_peak", g.high_water as f64);
    }
    l.set("phserve.server.batch_size_mean", batch_size_mean);
    l.set("phserve.server.shed", counter(reg, "phserve_shed_total"));
    l.set(
        "phserve.server.allocs_per_op",
        per(r.traced_allocs, r.traced_ops as usize) - per(b.allocs, tput.len()) - proto_allocs,
    );
    l.set("phserve.server.threads", r.threads as f64);
    l.set(
        "phserve.server.ctx_switches_per_op",
        per(r.traced_switches, r.traced_ops as usize),
    );

    if inp.spec.store == StoreKind::Durable {
        let io = inp.io_rounds;
        let writes = r.writes_sent as usize;
        let user_bytes = (writes * (K * 8 + 8)) as f64;
        l.set(
            "phstore.wal_bytes_per_user_byte",
            io.wal_bytes as f64 / user_bytes,
        );
        l.set("phstore.writes_per_op", per(io.writes, writes));
        l.set("phstore.fsyncs_per_op", per(io.syncs, writes));
        let w = span::total("vfs.write_all_at");
        l.set("phstore.write_ns", per(w.ns, w.count as usize));
        let f = span::total("vfs.sync_all");
        l.set("phstore.fsync_ns", per(f.ns, f.count as usize));
        l.set("phstore.checkpoints", io.checkpoints as f64);
        l.set(
            "phstore.checkpoint_ms_max",
            inp.checkpoint_ns_max as f64 / 1e6,
        );
        l.set("phstore.replay_ns_per_op", inp.replay_ns_per_op);
        l.set("phstore.disk_bytes_per_entry", inp.bytes_per_entry);
    }
    if inp.spec.store == StoreKind::Packed {
        l.set(
            "phpack.read_bytes_per_op",
            per(inp.io_rounds.read_bytes, r.attempted as usize),
        );
    }

    l.set("stack.ns_per_op", ns_per_op);
    l.set("stack.insert_p50_us", p50_us(&r.lat.insert).0);
    if !inp.open_ms.is_empty() {
        l.set("stack.open_ms", median_of(inp.open_ms));
    }
    if !r.ops_s_traced.is_empty() {
        l.set(
            "trace.overhead_pct",
            100.0 * (ops_s - median_of(&r.ops_s_traced)) / ops_s,
        );
    }

    l.finish(inp.args, out);
}

/// Writes the spans and the layer metrics to `trace_<workload>.json`.
fn write_trace(args: &Args, l: &Layers) {
    let mut header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"scale\":{},\"host_cores\":{},\n\"per_layer\":{{",
        args.workload,
        args.seed,
        args.scale,
        crate::host_cores()
    );
    for (i, (name, value, unit)) in l.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        header.push_str(&format!(
            "{sep}\n\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    header.push_str("},\n\"self_times\":{");
    for (i, (name, t)) in span::self_times().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        header.push_str(&format!(
            "{sep}\n\"{name}\":{{\"spans\":{},\"self_ns\":{}}}",
            t.count, t.ns
        ));
    }
    header.push('}');
    let path = args.out_dir.join(format!("trace_{}.json", args.workload));
    fatal(
        "write trace file",
        std::fs::write(&path, span::to_json(&header)),
    );
    println!("trace written to {}", path.display());
}
