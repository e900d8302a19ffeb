//! The five served workloads: a store behind `phserve::spawn` on
//! loopback, driven closed-loop by `phserve::Client`s from this
//! process.
//!
//! A run is a sequence of rounds until `--seconds` of timed work has
//! been done. Every round has a `lat` phase (one connection, one
//! request in flight, a fixed script probing every op the store
//! supports) and a `tput` phase (two connections, the workload's own
//! mix at its pipeline depth). Requests are generated before a phase
//! is timed, replies are checked against the model after it.

use crate::affinity::OneCore;
use crate::layers::{self, LayerInputs};
use crate::model::{dataset, fixed_point, Gen, Key, Model};
use crate::quantile::{median_of, p50_us, Samples};
use crate::report::{Metric, Outcome};
use crate::vfs::Device;
use crate::{alloc, procfs, span, Args};
use phmetrics::Registry;
use phpack::CacheMode;
use phserve::{Backend, Client, PackedBackend, ReadView, Request, Response, ServerConfig};
use phshard::{
    write_packed_checkpoint, DurableSharded, PackedShards, ShardError, ShardStats, ShardedTree,
};
use phstore::DurableConfig;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub const SHARDS: usize = 8;
/// Client connections of the `tput` phase, and the most client threads
/// the benchmark runs at once.
pub const CONNS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
pub enum StoreKind {
    Mem,
    Durable,
    Packed,
}

/// Shares of the `tput` mix, per mille.
#[derive(Clone, Copy)]
pub struct Mix {
    pub get: u32,
    pub insert: u32,
    pub remove: u32,
    pub window: u32,
    pub knn: u32,
}

impl Mix {
    fn writes(&self) -> bool {
        self.insert + self.remove > 0
    }
}

/// Requests of each kind in one round's `lat` script.
#[derive(Clone, Copy)]
pub struct Probes {
    pub gets: usize,
    /// Insert-then-remove pairs of a fresh key (none on a read-only
    /// store).
    pub writes: usize,
    pub windows: usize,
    pub knns: usize,
}

pub struct ServeSpec {
    pub name: &'static str,
    pub store: StoreKind,
    /// Entries preloaded at `--scale 1`.
    pub entries: usize,
    pub mix: Mix,
    /// Whether half the mix's inserts overwrite present keys.
    pub overwrites: bool,
    /// Entries a window is sized to return.
    pub window_hits: f64,
    /// Requests in flight per connection in the `tput` phase.
    pub depth: usize,
    /// Requests per connection in one round's `tput` phase.
    pub tput_ops: usize,
    pub probes: Probes,
    /// Distinct windows asked of a store that is never written.
    pub scan_pool: usize,
}

/// Distinct kNN centres a run asks.
const KNN_POOL: usize = 64;

// --------------------------------------------------------------------
// Stores
// --------------------------------------------------------------------

/// What building a store reports besides the store.
#[derive(Default)]
pub struct Built {
    pub preload_ns: u64,
    pub pack_ns: u64,
}

/// One of the three backends the server can front.
pub trait Store<const K: usize>: Backend<K> + Sized {
    /// How often the store is dropped and opened again after the
    /// rounds. 0 for a store on the heap; a store that reopens lives in
    /// files under its directory, and its space is their size.
    const REOPENS: usize;
    /// What the store holds once `build` has loaded `items`.
    fn contents(items: Vec<(Key<K>, u64)>) -> Vec<(Key<K>, u64)> {
        items
    }
    fn build(items: &[(Key<K>, u64)], dir: &Path, dev: &Device) -> (Self, Built);
    /// Opens what `build` left in `dir`, if the store is persistent.
    fn reopen(dir: &Path, dev: &Device) -> Option<Self>;
    /// Ops replayed from the WAL by the latest open.
    fn replayed_ops(&self) -> usize {
        0
    }
}

pub fn fatal<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("stackbench: {what}: {e}");
        std::process::exit(1)
    })
}

impl<const K: usize> Store<K> for ShardedTree<u64, K> {
    const REOPENS: usize = 0;

    fn build(items: &[(Key<K>, u64)], _dir: &Path, _dev: &Device) -> (Self, Built) {
        let tree = ShardedTree::new(SHARDS);
        let t0 = Instant::now();
        tree.bulk_load(items.to_vec());
        let built = Built {
            preload_ns: t0.elapsed().as_nanos() as u64,
            ..Built::default()
        };
        (tree, built)
    }

    fn reopen(_dir: &Path, _dev: &Device) -> Option<Self> {
        None
    }
}

/// The stated flush policy of `durable_ingest_k3`: every acknowledged
/// write is fsynced (the default), and a shard checkpoints once its
/// log passes 64 KiB. At the default 1 MiB no shard would checkpoint
/// inside a ten-second run at fsync-bound rates, and the workload is
/// there to show checkpoints stalling foreground writes.
fn durable_config() -> DurableConfig {
    DurableConfig {
        checkpoint_bytes: 64 << 10,
        ..DurableConfig::default()
    }
}

impl<const K: usize> Store<K> for DurableSharded<u64, K> {
    const REOPENS: usize = 5;

    fn build(items: &[(Key<K>, u64)], dir: &Path, dev: &Device) -> (Self, Built) {
        // The initial load is journaled without a sync per write (a
        // bulk ingest an operator would run that way), checkpointed —
        // which is also the fixed point space is read at: everything
        // in snapshots, the logs empty — and the store reopened under
        // the measured flush policy.
        let relaxed = DurableConfig {
            sync_writes: false,
            ..durable_config()
        };
        let store: Self = fatal(
            "open durable store",
            DurableSharded::open_with(Arc::clone(&dev.vfs), dir, SHARDS, relaxed),
        );
        let t0 = Instant::now();
        fatal("preload durable store", store.bulk_load(items.to_vec()));
        let preload_ns = t0.elapsed().as_nanos() as u64;
        fatal("checkpoint", store.checkpoint_all());
        drop(store);
        let built = Built {
            preload_ns,
            pack_ns: 0,
        };
        let store = Self::reopen(dir, dev).expect("a durable store reopens");
        (store, built)
    }

    fn reopen(dir: &Path, dev: &Device) -> Option<Self> {
        Some(fatal(
            "reopen durable store",
            DurableSharded::open_with(Arc::clone(&dev.vfs), dir, SHARDS, durable_config()),
        ))
    }

    fn replayed_ops(&self) -> usize {
        self.recovery_stats().iter().map(|r| r.replayed_ops).sum()
    }
}

/// What the churn before freezing does to entry `i`.
pub enum Churn {
    Keep,
    Overwrite(u64),
    Remove,
}

/// A fifth of the entries are touched after the bulk load: a tenth
/// overwritten, a tenth removed.
pub fn churn(i: u64) -> Churn {
    match i % 10 {
        3 => Churn::Overwrite(i ^ 0xdead_0000_0000),
        7 => Churn::Remove,
        _ => Churn::Keep,
    }
}

pub fn churned<const K: usize>(items: &[(Key<K>, u64)]) -> Vec<(Key<K>, u64)> {
    items
        .iter()
        .filter_map(|&(k, v)| match churn(v) {
            Churn::Keep => Some((k, v)),
            Churn::Overwrite(nv) => Some((k, nv)),
            Churn::Remove => None,
        })
        .collect()
}

impl<const K: usize> Store<K> for PackedBackend<K> {
    const REOPENS: usize = 21;

    fn contents(items: Vec<(Key<K>, u64)>) -> Vec<(Key<K>, u64)> {
        churned(&items)
    }

    fn build(items: &[(Key<K>, u64)], dir: &Path, dev: &Device) -> (Self, Built) {
        let tree: ShardedTree<u64, K> = ShardedTree::new(SHARDS);
        let t0 = Instant::now();
        tree.bulk_load(items.to_vec());
        for &(k, v) in items {
            match churn(v) {
                Churn::Keep => {}
                Churn::Overwrite(nv) => {
                    tree.insert(k, nv);
                }
                Churn::Remove => {
                    tree.remove(&k);
                }
            }
        }
        let preload_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        fatal(
            "write packed checkpoint",
            write_packed_checkpoint(&tree.snapshot(), dev.vfs.as_ref(), dir),
        );
        let pack_ns = t1.elapsed().as_nanos() as u64;
        drop(tree);
        let built = Built {
            preload_ns,
            pack_ns,
        };
        let store = Self::reopen(dir, dev).expect("a packed store reopens");
        (store, built)
    }

    fn reopen(dir: &Path, dev: &Device) -> Option<Self> {
        // Each shard's LRU may keep a tenth of its data pages.
        let pages = (dev.disk.bytes_under(dir) / 4096 / SHARDS as u64 / 10).max(1) as usize;
        let shards = fatal(
            "open packed checkpoint",
            PackedShards::open_in(dev.vfs.as_ref(), dir, CacheMode::Lru { pages }),
        );
        Some(PackedBackend(Arc::new(shards)))
    }
}

/// The backend handed to `phserve::spawn` in a traced run: spans and
/// counts the calls the server really issues. Reads answered from a
/// pinned `ReadView` bypass it (the view is a concrete enum), so their
/// layer times come from the seam replay in `layers`.
pub struct Traced<B> {
    pub inner: B,
    pub calls: AtomicU64,
}

impl<B> Traced<B> {
    fn call(&self, name: &'static str) -> span::Guard {
        self.calls.fetch_add(1, Relaxed);
        span::enter(name, 0)
    }
}

impl<B: Backend<K>, const K: usize> Backend<K> for Traced<B> {
    fn insert(&self, key: Key<K>, value: u64) -> Result<(), ShardError> {
        let _s = self.call("phserve.backend.insert");
        self.inner.insert(key, value)
    }

    fn get(&self, key: &Key<K>) -> Result<Option<u64>, ShardError> {
        let _s = self.call("phserve.backend.get");
        self.inner.get(key)
    }

    fn remove(&self, key: &Key<K>) -> Result<Option<u64>, ShardError> {
        let _s = self.call("phserve.backend.remove");
        self.inner.remove(key)
    }

    fn query(&self, min: &Key<K>, max: &Key<K>) -> Result<Vec<(Key<K>, u64)>, ShardError> {
        let _s = self.call("phserve.backend.query");
        self.inner.query(min, max)
    }

    fn knn(&self, center: &Key<K>, n: usize) -> Result<Vec<(Key<K>, u64, f64)>, ShardError> {
        let _s = self.call("phserve.backend.knn");
        self.inner.knn(center, n)
    }

    fn bulk_load(&self, items: Vec<(Key<K>, u64)>) -> Result<usize, ShardError> {
        let _s = self.call("phserve.backend.bulk_load");
        self.inner.bulk_load(items)
    }

    fn stats(&self) -> ShardStats {
        self.inner.stats()
    }

    fn read_view(&self) -> ReadView<K> {
        let _s = self.call("phserve.backend.read_view");
        self.inner.read_view()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn writable(&self) -> bool {
        self.inner.writable()
    }
}

// --------------------------------------------------------------------
// Request streams
// --------------------------------------------------------------------

/// Generates the rounds' requests. A store the mix writes to is split
/// into one key namespace per connection (halves of dimension 0), so
/// every reply is a function of its own connection's request order;
/// a store that is only read has one namespace shared by both.
struct Streams<'s, const K: usize> {
    spec: &'s ServeSpec,
    gens: Vec<Gen<K>>,
    window_pool: Vec<Request<K>>,
    knn_pool: Vec<Request<K>>,
}

impl<'s, const K: usize> Streams<'s, K> {
    fn new(spec: &'s ServeSpec, items: &[(Key<K>, u64)], seed: u64) -> Self {
        let m = spec.mix;
        assert_eq!(m.get + m.insert + m.remove + m.window + m.knn, 1000);
        let edge = (spec.window_hits / items.len() as f64).powf(1.0 / K as f64);
        let halves: &[(f64, f64)] = if spec.mix.writes() {
            &[(0.0, 0.5), (0.5, 1.0)]
        } else {
            &[(0.0, 1.0)]
        };
        let mut gens: Vec<Gen<K>> = halves
            .iter()
            .enumerate()
            .map(|(i, &x0)| {
                Gen::new(
                    seed ^ (0x57ac << 8) ^ i as u64,
                    items,
                    x0,
                    edge,
                    fixed_point,
                )
            })
            .collect();
        // The model answers a kNN by scanning the whole map, and a
        // window on a store that is never written likewise once: both
        // are drawn from pools of distinct queries.
        let knn_pool = (0..KNN_POOL).map(|_| gens[0].knn()).collect();
        let window_pool = if spec.mix.writes() {
            Vec::new()
        } else {
            (0..spec.scan_pool).map(|_| gens[0].window()).collect()
        };
        Streams {
            spec,
            gens,
            window_pool,
            knn_pool,
        }
    }

    fn window(&mut self, ns: usize) -> Request<K> {
        if self.window_pool.is_empty() {
            self.gens[ns].window()
        } else {
            let i = self.gens[ns].below(self.window_pool.len());
            self.window_pool[i].clone()
        }
    }

    fn knn(&mut self, ns: usize) -> Request<K> {
        let i = self.gens[ns].below(self.knn_pool.len());
        self.knn_pool[i].clone()
    }

    /// One round's `lat` script, on namespace 0: every probe kind,
    /// shuffled, each fresh insert removed again at once so the store
    /// is left as it was.
    fn lat_script(&mut self) -> Vec<Request<K>> {
        let p = self.spec.probes;
        let writes = if self.spec.store == StoreKind::Packed {
            0
        } else {
            p.writes
        };
        let mut kinds: Vec<u8> = Vec::new();
        kinds.extend(std::iter::repeat_n(0, p.gets));
        kinds.extend(std::iter::repeat_n(1, writes));
        kinds.extend(std::iter::repeat_n(2, p.windows));
        kinds.extend(std::iter::repeat_n(3, p.knns));
        for i in (1..kinds.len()).rev() {
            let j = self.gens[0].below(i + 1);
            kinds.swap(i, j);
        }
        let mut ops = Vec::with_capacity(kinds.len() + writes);
        for kind in kinds {
            match kind {
                0 if self.gens[0].coin() => ops.push(self.gens[0].get_hit()),
                0 => ops.push(self.gens[0].get_miss()),
                1 => {
                    ops.push(self.gens[0].insert_fresh());
                    ops.push(self.gens[0].remove_last());
                }
                2 => ops.push(self.window(0)),
                _ => ops.push(self.knn(0)),
            }
        }
        ops
    }

    /// One round's `tput` stream of connection `conn`.
    fn tput_stream(&mut self, conn: usize) -> Vec<Request<K>> {
        let ns = conn % self.gens.len();
        let m = self.spec.mix;
        (0..self.spec.tput_ops)
            .map(|_| {
                let mut r = self.gens[ns].per_mille();
                let mut take = |share: u32| {
                    let hit = r < share;
                    r = r.wrapping_sub(share);
                    hit
                };
                if take(m.get) {
                    if self.gens[ns].coin() {
                        self.gens[ns].get_hit()
                    } else {
                        self.gens[ns].get_miss()
                    }
                } else if take(m.insert) {
                    if self.spec.overwrites && self.gens[ns].coin() {
                        self.gens[ns].overwrite()
                    } else {
                        self.gens[ns].insert_fresh()
                    }
                } else if take(m.remove) {
                    self.gens[ns].remove()
                } else if take(m.window) {
                    self.window(ns)
                } else {
                    self.knn(ns)
                }
            })
            .collect()
    }
}

// --------------------------------------------------------------------
// Drivers
// --------------------------------------------------------------------

/// Sends `ops` one at a time, each after the previous reply, and
/// returns the replies with each request's round-trip time in ns.
fn drive_lat<const K: usize>(
    client: &mut Client<K>,
    ops: &[Request<K>],
) -> (Vec<Response<K>>, Vec<u64>) {
    let mut replies = Vec::with_capacity(ops.len());
    let mut ns = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let _s = span::enter_client("client.call", i as u64 + 1);
        let t0 = Instant::now();
        let reply = fatal("request failed in transport", client.call(op));
        ns.push(t0.elapsed().as_nanos() as u64);
        replies.push(reply);
    }
    (replies, ns)
}

/// Sends `ops` keeping `depth` requests in flight (the next is sent
/// when the oldest is answered) and returns the replies in order.
fn drive_pipelined<const K: usize>(
    client: &mut Client<K>,
    ops: &[Request<K>],
    depth: usize,
) -> Vec<Response<K>> {
    let mut replies = Vec::with_capacity(ops.len());
    let mut inflight: VecDeque<u64> = VecDeque::with_capacity(depth);
    for op in ops {
        if inflight.len() >= depth {
            let id = inflight.pop_front().expect("depth is at least 1");
            replies.push(fatal("request failed in transport", client.recv(id)));
        }
        inflight.push_back(fatal("request failed in transport", client.send(op)));
    }
    for id in inflight {
        replies.push(fatal("request failed in transport", client.recv(id)));
    }
    replies
}

/// Process counters read while the `tput` phase's threads are alive.
#[derive(Default, Clone, Copy)]
struct ProcSample {
    threads: u64,
    switches: u64,
}

/// Runs one `tput` phase: every connection drives its stream from its
/// own thread, all released together. Returns the replies, the wall
/// time from release to the last reply, and (when `sample` is set) the
/// process counters at release and at the end.
fn drive_tput<const K: usize>(
    clients: &mut [Client<K>],
    streams: &[Vec<Request<K>>],
    depth: usize,
    sample: bool,
) -> (Vec<Vec<Response<K>>>, f64, [ProcSample; 2]) {
    let start = Barrier::new(clients.len() + 1);
    let done = Barrier::new(clients.len() + 1);
    let read = || {
        if !sample {
            return ProcSample::default();
        }
        let (threads, switches) = procfs::threads_and_switches();
        ProcSample { threads, switches }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, ops)| {
                let (start, done) = (&start, &done);
                s.spawn(move || {
                    start.wait();
                    let replies = drive_pipelined(client, ops, depth);
                    done.wait();
                    // Stay alive until the main thread has read the
                    // process counters.
                    done.wait();
                    replies
                })
            })
            .collect();
        let before = read();
        start.wait();
        let t0 = Instant::now();
        done.wait();
        let secs = t0.elapsed().as_secs_f64();
        let after = read();
        done.wait();
        let replies = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (replies, secs, [before, after])
    })
}

// --------------------------------------------------------------------
// A run
// --------------------------------------------------------------------

/// Round-trip samples of the `lat` phase by op kind, ns.
#[derive(Default)]
pub struct LatSamples {
    pub get: Vec<f64>,
    pub insert: Vec<f64>,
    pub remove: Vec<f64>,
    pub window: Vec<f64>,
    pub knn: Vec<f64>,
}

impl LatSamples {
    fn add<const K: usize>(&mut self, ops: &[Request<K>], ns: &[u64]) {
        for (op, &ns) in ops.iter().zip(ns) {
            let bucket = match op {
                Request::Get { .. } => &mut self.get,
                Request::Insert { .. } => &mut self.insert,
                Request::Remove { .. } => &mut self.remove,
                Request::Query { .. } => &mut self.window,
                _ => &mut self.knn,
            };
            bucket.push(ns as f64);
        }
    }
}

/// A store being served, with its clients.
struct Stack<B, const K: usize> {
    backend: Arc<B>,
    server: phserve::ServerHandle,
    clients: Vec<Client<K>>,
}

fn serve<B: Backend<K>, const K: usize>(backend: Arc<B>) -> Stack<B, K> {
    let server = fatal(
        "spawn server",
        phserve::spawn(
            Arc::clone(&backend),
            "127.0.0.1:0",
            None,
            Registry::new(),
            ServerConfig::default(),
        ),
    );
    let clients = (0..CONNS)
        .map(|_| fatal("connect", Client::connect(server.addr())))
        .collect();
    Stack {
        backend,
        server,
        clients,
    }
}

/// What the rounds of one run measured.
#[derive(Default)]
pub struct Rounds {
    pub attempted: u64,
    pub failed: u64,
    pub lat: LatSamples,
    /// `tput` ops per second of each round run with tracing off / on.
    pub ops_s: Vec<f64>,
    pub ops_s_traced: Vec<f64>,
    /// Over the traced `tput` phases: requests, allocation events,
    /// backend calls, context switches, peak thread count.
    pub traced_ops: u64,
    pub traced_allocs: u64,
    pub traced_calls: u64,
    pub traced_switches: u64,
    pub threads: u64,
    /// Inserts, and inserts plus removes, sent in either phase.
    pub inserts_sent: u64,
    pub writes_sent: u64,
}

fn check_all<const K: usize>(
    model: &mut Model<K>,
    ops: &[Request<K>],
    replies: &[Response<K>],
    out: &mut Rounds,
) {
    out.attempted += ops.len() as u64;
    out.failed += ops.len().abs_diff(replies.len()) as u64;
    for (op, reply) in ops.iter().zip(replies) {
        if !model.check(op, reply) {
            out.failed += 1;
        }
    }
}

/// Runs rounds until `seconds` of timed work is done. In a traced run
/// rounds alternate between tracing on (spans and allocation counting)
/// and off, which is what `trace.overhead_pct` compares.
fn run_rounds<const K: usize>(
    clients: &mut [Client<K>],
    streams: &mut Streams<'_, K>,
    model: &mut Model<K>,
    seconds: f64,
    traced: bool,
    calls: Option<&AtomicU64>,
) -> Rounds {
    let mut out = Rounds::default();
    let depth = streams.spec.depth;
    let mut timed = 0.0;
    let mut round = 0;
    // At least one round of each kind, then until the time is used.
    while timed < seconds || round < if traced { 2 } else { 1 } {
        let tracing = traced && round % 2 == 0;
        let script = streams.lat_script();
        let tput: Vec<Vec<Request<K>>> =
            (0..clients.len()).map(|c| streams.tput_stream(c)).collect();

        span::set_on(tracing);
        let t0 = Instant::now();
        let one_core = OneCore::confine();
        let (lat_replies, lat_ns) = drive_lat(&mut clients[0], &script);
        drop(one_core);
        timed += t0.elapsed().as_secs_f64();

        alloc::set_counting(tracing);
        let section = alloc::Section::start();
        let calls_before = calls.map_or(0, |c| c.load(Relaxed));
        let (replies, secs, proc) = drive_tput(clients, &tput, depth, tracing);
        let allocs = section.allocs();
        alloc::set_counting(false);
        span::set_on(false);
        timed += secs;

        let ops: u64 = tput.iter().map(|s| s.len() as u64).sum();
        if tracing {
            out.ops_s_traced.push(ops as f64 / secs);
            out.traced_ops += ops;
            out.traced_allocs += allocs;
            out.traced_calls += calls.map_or(0, |c| c.load(Relaxed)) - calls_before;
            out.traced_switches += proc[1].switches.saturating_sub(proc[0].switches);
            out.threads = out.threads.max(proc[1].threads);
        } else {
            out.ops_s.push(ops as f64 / secs);
        }
        // Latencies of traced rounds carry the span cost; the
        // end-to-end numbers use the others.
        if !tracing {
            out.lat.add(&script, &lat_ns);
        }
        for r in tput.iter().flatten().chain(&script) {
            out.inserts_sent += matches!(r, Request::Insert { .. }) as u64;
            out.writes_sent += matches!(r, Request::Insert { .. } | Request::Remove { .. }) as u64;
        }

        check_all(model, &script, &lat_replies, &mut out);
        for (ops, replies) in tput.iter().zip(&replies) {
            check_all(model, ops, replies, &mut out);
        }
        round += 1;
    }
    out
}

/// One set-up, timed: dataset generation, preload (and churn and pack
/// for a packed store) and server start. Also measures the space per
/// entry the store takes.
struct SetUp<S, const K: usize> {
    stack: Stack<S, K>,
    items: Vec<(Key<K>, u64)>,
    built: Built,
    dir: PathBuf,
    seconds: f64,
    bytes_per_entry: f64,
}

fn set_up<S: Store<K>, const K: usize>(
    spec: &ServeSpec,
    args: &Args,
    dev: &Device,
    tag: &str,
) -> SetUp<S, K> {
    let dir = PathBuf::from(format!("/{}-{tag}", spec.name));
    let n = ((spec.entries as f64 * args.scale) as usize).max(1000);
    // Counting is on for the build only: the live-byte growth across
    // it is the heap a store without files holds.
    alloc::set_counting(true);
    let t0 = Instant::now();
    let items = dataset::<K>(n, args.seed, fixed_point);
    let heap = alloc::Section::start();
    let (store, built) = S::build(&items, &dir, dev);
    let heap_bytes = heap.live_bytes();
    let stack = serve(Arc::new(store));
    let seconds = t0.elapsed().as_secs_f64();
    alloc::set_counting(false);
    let items = S::contents(items);
    let bytes = if S::REOPENS > 0 {
        dev.disk.bytes_under(&dir) as f64
    } else {
        heap_bytes as f64
    };
    SetUp {
        stack,
        bytes_per_entry: bytes / items.len() as f64,
        items,
        built,
        dir,
        seconds,
    }
}

impl<S, const K: usize> SetUp<S, K> {
    fn tear_down(self) {
        drop(self.stack.clients);
        self.stack.server.stop();
        drop(self.stack.backend);
    }
}

/// How often a run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

pub fn run<const K: usize>(spec: &ServeSpec, args: &Args) -> Outcome {
    match (spec.store, args.trace) {
        (StoreKind::Mem, false) => untraced::<ShardedTree<u64, K>, K>(spec, args),
        (StoreKind::Durable, false) => untraced::<DurableSharded<u64, K>, K>(spec, args),
        (StoreKind::Packed, false) => untraced::<PackedBackend<K>, K>(spec, args),
        (StoreKind::Mem, true) => traced::<ShardedTree<u64, K>, K>(spec, args),
        (StoreKind::Durable, true) => traced::<DurableSharded<u64, K>, K>(spec, args),
        (StoreKind::Packed, true) => traced::<PackedBackend<K>, K>(spec, args),
    }
}

/// Opens the store `times` times, each time answering one read, and
/// returns the open-to-first-answer times in ms with the last store.
fn reopen_timed<S: Store<K>, const K: usize>(
    dir: &Path,
    dev: &Device,
    probe: &Key<K>,
    times: usize,
) -> (Vec<f64>, Option<S>) {
    let mut ms = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        let Some(store) = S::reopen(dir, dev) else {
            break;
        };
        std::hint::black_box(fatal("first read after open", store.get(probe)));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(store);
    }
    (ms, last)
}

/// Whether `store` holds exactly the model's entries.
fn same_contents<B: Backend<K>, const K: usize>(store: &B, model: &Model<K>) -> bool {
    let all = fatal("scan reopened store", store.query(&[0; K], &[u64::MAX; K]));
    all.len() == model.map.len() && all.iter().all(|(k, v)| model.map.get(k) == Some(v))
}

fn untraced<S: Store<K>, const K: usize>(spec: &ServeSpec, args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut last = None;
    let mut dev = Device::new(false);
    for i in 0..SETUPS {
        if let Some(prev) = last.take() {
            SetUp::<S, K>::tear_down(prev);
            dev = Device::new(false);
        }
        let s = set_up::<S, K>(spec, args, &dev, &i.to_string());
        setup_s.push(s.seconds);
        last = Some(s);
    }
    let mut s: SetUp<S, K> = last.expect("SETUPS is at least 1");
    let mut model = Model::new(&s.items);
    let mut streams = Streams::new(spec, &s.items, args.seed);
    let mut r = run_rounds(
        &mut s.stack.clients,
        &mut streams,
        &mut model,
        args.seconds,
        false,
        None,
    );

    // A persistent store is dropped and opened again: what it holds
    // must be what was acknowledged.
    let probe = s.items[0].0;
    let (dir, bytes_per_entry) = (s.dir.clone(), s.bytes_per_entry);
    s.tear_down();
    let (open_ms, store) = reopen_timed::<S, K>(&dir, &dev, &probe, S::REOPENS);
    if let Some(store) = store {
        r.attempted += 1;
        r.failed += !same_contents(&store, &model) as u64;
    }

    let mut out = Outcome {
        attempted: r.attempted,
        failed: r.failed,
        ..Outcome::default()
    };
    out.push("setup_s", median_of(&setup_s), "s");
    out.metrics
        .push(Metric::new("ops_s", median_of(&r.ops_s), "1/s").with_samples(r.ops_s.len()));
    for (name, samples) in [
        ("get_p50_us", &r.lat.get),
        ("window_p50_us", &r.lat.window),
        ("knn_p50_us", &r.lat.knn),
    ] {
        let (v, n) = p50_us(samples);
        out.metrics.push(Metric::new(name, v, "us").with_samples(n));
    }
    out.push("bytes_per_entry", bytes_per_entry, "B");
    out.extras
        .push(Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MiB"));
    for (name, samples) in [
        ("insert_p50_us", &r.lat.insert),
        ("remove_p50_us", &r.lat.remove),
    ] {
        if !samples.is_empty() {
            let (v, n) = p50_us(samples);
            out.extras.push(Metric::new(name, v, "us").with_samples(n));
        }
    }
    if !open_ms.is_empty() {
        out.extras
            .push(Metric::new("open_ms", median_of(&open_ms), "ms").with_samples(open_ms.len()));
    }
    if let Some((q, v)) = Samples::new(r.lat.get.clone()).highest_tail() {
        out.extras.push(Metric::new(
            format!("get_p{}_us", q * 100.0),
            v / 1000.0,
            "us",
        ));
    }
    out
}

fn traced<S: Store<K>, const K: usize>(spec: &ServeSpec, args: &Args) -> Outcome {
    let dev = Device::new(true);
    let io = Arc::clone(&dev.counts);
    let s = set_up::<S, K>(spec, args, &dev, "t");
    let SetUp {
        stack,
        items,
        built,
        dir,
        bytes_per_entry,
        ..
    } = s;
    // Serve the same store again behind the call-spanning wrapper.
    drop(stack.clients);
    stack.server.stop();
    let store = Arc::into_inner(stack.backend).expect("the stopped server released the store");
    let mut stack = serve(Arc::new(Traced {
        inner: store,
        calls: AtomicU64::new(0),
    }));

    let mut model = Model::new(&items);
    let mut streams = Streams::new(spec, &items, args.seed);
    let io_before = layers::IoSnapshot::take(&io);
    let mut r = run_rounds(
        &mut stack.clients,
        &mut streams,
        &mut model,
        args.seconds,
        true,
        Some(&stack.backend.calls),
    );
    let io_rounds = layers::IoSnapshot::take(&io).since(&io_before);
    let checkpoint_ns_max = io.checkpoint_ns_max.load(Relaxed);
    let registry = stack.server.registry().snapshot();
    drop(stack.clients);
    stack.server.stop();
    let store = Arc::into_inner(stack.backend)
        .expect("the stopped server released the store")
        .inner;

    // Reopen a persistent store (checked against the model like the
    // untraced run does) and replay the seams on what was opened.
    // About a second's worth of the mix, so that the seams' means rest
    // on enough calls.
    let mut replay = streams.lat_script();
    let script_len = replay.len();
    let want = (median_of(&r.ops_s) as usize).clamp(spec.tput_ops, 50_000);
    while replay.len() - script_len < want {
        replay.extend(streams.tput_stream(0));
    }
    let probe = items[0].0;
    let mut open_ms = Vec::new();
    let mut replay_ns_per_op = 0.0;
    let store = if S::REOPENS > 0 {
        drop(store);
        let (ms, reopened) = reopen_timed::<S, K>(&dir, &dev, &probe, S::REOPENS);
        let reopened = reopened.expect("a persistent store reopens");
        r.attempted += 1;
        r.failed += !same_contents(&reopened, &model) as u64;
        let replayed = reopened.replayed_ops();
        if replayed > 0 {
            replay_ns_per_op = median_of(&ms) * 1e6 / replayed as f64;
        }
        open_ms = ms;
        reopened
    } else {
        store
    };

    let mut out = Outcome {
        attempted: r.attempted,
        failed: r.failed,
        ..Outcome::default()
    };
    let inputs = LayerInputs {
        spec,
        args,
        model: &model,
        replay: &replay,
        script_len,
        built: &built,
        bytes_per_entry,
        rounds: &r,
        registry: &registry,
        io_rounds,
        checkpoint_ns_max,
        open_ms: &open_ms,
        replay_ns_per_op,
        dir: &dir,
        dev: &dev,
    };
    layers::measure(&store, &inputs, &mut out);
    out
}
