//! Scenario load generation for `phload`.
//!
//! Each scenario opens several connections, drives a pipelined op mix
//! against a phserve endpoint, and records per-op latencies. Every
//! connection keeps a client-side **model** of its acked writes (key
//! namespaces are disjoint per scenario × connection, so models never
//! interfere); a verification pass then re-reads every touched key and
//! checks the server agrees with the model exactly — acked writes are
//! present with the acked value, shed writes are absent. That is the
//! "zero unacked-but-applied, zero acked-but-lost" contract measured
//! end to end over real TCP.
//!
//! Latency claims are single-host honest: percentiles are exact (from
//! the full per-op sample vector, not histogram buckets) and the
//! report records `host_cores` so a 1-core CI run is never mistaken
//! for a parallel-speedup measurement.

use crate::client::Client;
use crate::proto::{ErrorCode, ProtoError, Request, Response};
use phmetrics::exact_percentile;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Dimension count both binaries are compiled for.
pub const SERVE_DIMS: usize = 3;
const K: usize = SERVE_DIMS;

/// One scenario mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// 10% insert, 80% point lookup, 5% remove, 5% kNN.
    PointHeavy,
    /// 25% insert, 65% window query, 10% point lookup.
    WindowHeavy,
    /// Long pipelined insert runs (exercises coalescing into write
    /// runs) with periodic explicit bulk frames and stats.
    IngestBurst,
    /// Clustered keys with one hot cluster — drives routing skew and,
    /// with the rebalancer on, hot-shard splits under traffic.
    SkewedClustered,
    /// Deeply pipelined pure inserts against a deliberately small
    /// admission queue: measures the shed path, not throughput.
    Overload,
    /// MVCC-lite read-under-write at a 95/5 reader mix: connection 0 is
    /// a dedicated writer churning its namespace (overwrites, fresh
    /// inserts, removes) while every other connection runs 95% reads
    /// (get / window / kNN over its own seeded working set). Measures
    /// reader latency while the write path is publishing roots
    /// underneath — the figure the lock-free read path exists for.
    ReadUnderWrite95,
    /// The same shape at a 50/50 reader mix — the reader connections
    /// themselves add write pressure, so root swaps are constant.
    ReadUnderWrite50,
    /// Pure reads against a `phserve --packed` server holding the
    /// deterministic [`packed_dataset`] (written by
    /// `phload --prepare-packed`). Every connection regenerates the
    /// dataset from the seed, so gets verify exact values, near-miss
    /// gets verify absences, and the verification pass re-reads the
    /// *whole* dataset — the packed artifact must agree byte for byte.
    PackedRead,
}

impl Scenario {
    /// The standard mixes (overload runs against its own,
    /// deliberately undersized, server).
    pub fn standard() -> [Scenario; 6] {
        [
            Scenario::PointHeavy,
            Scenario::WindowHeavy,
            Scenario::IngestBurst,
            Scenario::SkewedClustered,
            Scenario::ReadUnderWrite95,
            Scenario::ReadUnderWrite50,
        ]
    }

    /// Stable name used on the CLI and in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::PointHeavy => "point_heavy",
            Scenario::WindowHeavy => "window_heavy",
            Scenario::IngestBurst => "ingest_burst",
            Scenario::SkewedClustered => "skewed_clustered",
            Scenario::Overload => "overload",
            Scenario::ReadUnderWrite95 => "read_under_write_95",
            Scenario::ReadUnderWrite50 => "read_under_write_50",
            Scenario::PackedRead => "packed_read",
        }
    }

    /// Parses a CLI scenario name.
    pub fn parse(s: &str) -> Option<Scenario> {
        match s {
            "point_heavy" => Some(Scenario::PointHeavy),
            "window_heavy" => Some(Scenario::WindowHeavy),
            "ingest_burst" => Some(Scenario::IngestBurst),
            "skewed_clustered" => Some(Scenario::SkewedClustered),
            "overload" => Some(Scenario::Overload),
            "read_under_write_95" => Some(Scenario::ReadUnderWrite95),
            "read_under_write_50" => Some(Scenario::ReadUnderWrite50),
            "packed_read" => Some(Scenario::PackedRead),
            _ => None,
        }
    }

    /// Namespace tag keeping this scenario's keys disjoint from every
    /// other scenario's.
    fn id(self) -> u64 {
        match self {
            Scenario::PointHeavy => 1,
            Scenario::WindowHeavy => 2,
            Scenario::IngestBurst => 3,
            Scenario::SkewedClustered => 4,
            Scenario::Overload => 5,
            Scenario::ReadUnderWrite95 => 6,
            Scenario::ReadUnderWrite50 => 7,
            Scenario::PackedRead => 8,
        }
    }

    /// Pipeline depth override — overload wants the queue saturated.
    fn pipeline(self, base: usize) -> usize {
        match self {
            Scenario::Overload => base.max(256),
            _ => base,
        }
    }
}

/// Entries in the deterministic packed-scenario dataset.
pub const PACKED_DATASET_ENTRIES: usize = 2_000;

/// The dataset `--prepare-packed` freezes and [`Scenario::PackedRead`]
/// verifies — reproducible from the seed alone, so the load generator
/// needs no side channel to know what the read-only server holds.
pub fn packed_dataset(seed: u64) -> Vec<([u64; K], u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_636B); // "pack"
    let mut seen: HashSet<[u64; K]> = HashSet::new();
    let mut out = Vec::with_capacity(PACKED_DATASET_ENTRIES);
    while out.len() < PACKED_DATASET_ENTRIES {
        let mut k = [0u64; K];
        for d in k.iter_mut() {
            *d = rng.gen_range(0u64..1 << 40);
        }
        if seen.insert(k) {
            out.push((k, rng.gen::<u64>()));
        }
    }
    out
}

/// Builds the packed checkpoint `phserve --packed` serves: bulk-loads
/// the deterministic dataset into a sharded tree and freezes one
/// snapshot into `dir`. Returns `(shards, entries)` packed.
pub fn prepare_packed(dir: &Path, seed: u64) -> io::Result<(usize, u64)> {
    let tree: phshard::ShardedTree<u64, K> = phshard::ShardedTree::new(4);
    tree.bulk_load(packed_dataset(seed));
    let ck = phshard::write_packed_checkpoint(&tree.snapshot(), &phstore::vfs::StdVfs, dir)
        .map_err(io::Error::other)?;
    Ok((ck.shards, ck.entries))
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections per scenario.
    pub conns: usize,
    /// Ops issued per connection.
    pub ops_per_conn: usize,
    /// Max in-flight (unanswered) requests per connection.
    pub pipeline: usize,
    /// RNG seed; runs are deterministic per (seed, scenario, conn).
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            conns: 4,
            ops_per_conn: 5000,
            pipeline: 64,
            seed: 42,
        }
    }
}

impl LoadConfig {
    /// Scaled-down variant for CI smoke runs.
    pub fn quick() -> Self {
        LoadConfig {
            conns: 2,
            ops_per_conn: 600,
            pipeline: 32,
            seed: 42,
        }
    }
}

/// Latency summary for one op type. Percentiles are exact.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Op label (`insert`, `get`, …).
    pub op: String,
    /// Replies received (including typed errors).
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Connections driven.
    pub conns: usize,
    /// Requests issued.
    pub ops_total: u64,
    /// Requests acknowledged (non-error reply).
    pub acked: u64,
    /// Requests refused with a typed `Overloaded` reply.
    pub shed: u64,
    /// Other error replies (should be zero).
    pub errors: u64,
    /// Wall-clock seconds for the op phase (excludes verification).
    pub elapsed_s: f64,
    /// Replies per second over the op phase.
    pub throughput_ops_s: f64,
    /// Per-op latency summaries.
    pub per_op: Vec<OpStats>,
    /// Keys re-read in the verification pass.
    pub verified_keys: u64,
    /// Verification mismatches (must be zero: acked-but-lost or
    /// unacked-but-applied writes).
    pub verify_failures: u64,
    /// Sum of per-connection model sizes (keys the clients believe are
    /// live) — comparable against server `stats.entries`.
    pub model_entries: u64,
}

/// Semantic effect a reply has on the connection's model.
enum Effect {
    Write([u64; K], u64),
    Remove([u64; K]),
    Bulk(Vec<([u64; K], u64)>),
    Read,
}

fn effect_of(req: &Request<K>) -> Effect {
    match req {
        Request::Insert { key, value } => Effect::Write(*key, *value),
        Request::Remove { key } => Effect::Remove(*key),
        Request::BulkLoad { items } => Effect::Bulk(items.clone()),
        _ => Effect::Read,
    }
}

/// Deterministic op plan for one connection. `ns` is the high-bits
/// namespace tag baked into `key[0]`; `base_seed` is the run-wide seed
/// (the packed scenario regenerates the shared dataset from it).
fn plan_ops(sc: Scenario, rng: &mut StdRng, ns: u64, n: usize, base_seed: u64) -> Vec<Request<K>> {
    let coord = |rng: &mut StdRng| rng.gen_range(0u64..1 << 32);
    let fresh = |rng: &mut StdRng| -> [u64; K] {
        let mut k = [0u64; K];
        k[0] = ns | coord(rng);
        for d in k.iter_mut().skip(1) {
            *d = coord(rng);
        }
        k
    };
    let mut existing: Vec<[u64; K]> = Vec::new();
    let pick = |rng: &mut StdRng, existing: &Vec<[u64; K]>| -> [u64; K] {
        if existing.is_empty() {
            fresh(rng)
        } else {
            existing[rng.gen_range(0usize..existing.len())]
        }
    };
    let mut ops = Vec::with_capacity(n);
    match sc {
        Scenario::PointHeavy => {
            for _ in 0..n {
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.10 {
                    let key = fresh(rng);
                    existing.push(key);
                    ops.push(Request::Insert {
                        key,
                        value: rng.gen::<u64>(),
                    });
                } else if roll < 0.90 {
                    ops.push(Request::Get {
                        key: pick(rng, &existing),
                    });
                } else if roll < 0.95 {
                    ops.push(Request::Remove {
                        key: pick(rng, &existing),
                    });
                } else {
                    ops.push(Request::Knn {
                        center: pick(rng, &existing),
                        n: 3,
                    });
                }
            }
        }
        Scenario::WindowHeavy => {
            for _ in 0..n {
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.25 {
                    let key = fresh(rng);
                    existing.push(key);
                    ops.push(Request::Insert {
                        key,
                        value: rng.gen::<u64>(),
                    });
                } else if roll < 0.90 {
                    let c = pick(rng, &existing);
                    let ext = rng.gen_range(1u64..1 << 20);
                    let mut min = c;
                    let mut max = c;
                    for d in 0..K {
                        min[d] = c[d].saturating_sub(ext);
                        max[d] = c[d].saturating_add(ext);
                    }
                    // Window must stay inside the namespace so hits
                    // belong to this connection only.
                    min[0] = min[0].max(ns);
                    max[0] = max[0].min(ns | ((1 << 48) - 1));
                    ops.push(Request::Query { min, max });
                } else {
                    ops.push(Request::Get {
                        key: pick(rng, &existing),
                    });
                }
            }
        }
        Scenario::IngestBurst => {
            for i in 0..n {
                if i % 80 == 79 {
                    ops.push(Request::Stats);
                } else if i % 211 == 137 {
                    let items: Vec<([u64; K], u64)> =
                        (0..64).map(|_| (fresh(rng), rng.gen::<u64>())).collect();
                    ops.push(Request::BulkLoad { items });
                } else {
                    ops.push(Request::Insert {
                        key: fresh(rng),
                        value: rng.gen::<u64>(),
                    });
                }
            }
        }
        Scenario::SkewedClustered => {
            let centers: Vec<[u64; K]> = (0..4).map(|_| fresh(rng)).collect();
            let near = |rng: &mut StdRng| -> [u64; K] {
                // 80% of traffic lands on cluster 0: a hot region the
                // rebalancer should split under load.
                let c = if rng.gen_bool(0.8) {
                    centers[0]
                } else {
                    centers[rng.gen_range(1usize..centers.len())]
                };
                let mut k = c;
                for d in k.iter_mut() {
                    *d = d.wrapping_add(rng.gen_range(0u64..4096));
                }
                k[0] = ns | (k[0] & ((1 << 48) - 1));
                k
            };
            for _ in 0..n {
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.50 {
                    let key = near(rng);
                    existing.push(key);
                    ops.push(Request::Insert {
                        key,
                        value: rng.gen::<u64>(),
                    });
                } else if roll < 0.90 {
                    ops.push(Request::Get {
                        key: pick(rng, &existing),
                    });
                } else {
                    let c = near(rng);
                    let mut min = c;
                    let mut max = c;
                    for d in 0..K {
                        min[d] = c[d].saturating_sub(8192);
                        max[d] = c[d].saturating_add(8192);
                    }
                    min[0] = min[0].max(ns);
                    max[0] = max[0].min(ns | ((1 << 48) - 1));
                    ops.push(Request::Query { min, max });
                }
            }
        }
        Scenario::Overload => {
            for _ in 0..n {
                ops.push(Request::Insert {
                    key: fresh(rng),
                    value: rng.gen::<u64>(),
                });
            }
        }
        Scenario::ReadUnderWrite95 | Scenario::ReadUnderWrite50 => {
            let read_frac = if sc == Scenario::ReadUnderWrite95 {
                0.95
            } else {
                0.50
            };
            // Connection index lives in bits 48..56 of the namespace
            // (conn + 1): connection 0 is the dedicated churn writer,
            // the rest are the measured readers.
            let writer = (ns >> 48) & 0xFF == 1;
            // Seed a working set first so the measured reads hit data.
            let seed_n = (n / 10).clamp(1, 500).min(n);
            for _ in 0..seed_n {
                let key = fresh(rng);
                existing.push(key);
                ops.push(Request::Insert {
                    key,
                    value: rng.gen::<u64>(),
                });
            }
            for _ in seed_n..n {
                let churn = if writer {
                    true
                } else {
                    rng.gen_range(0.0..1.0) >= read_frac
                };
                if churn {
                    // Overwrites dominate — every one forces a root
                    // publish the readers must never block on.
                    let roll: f64 = rng.gen_range(0.0..1.0);
                    if roll < 0.50 {
                        ops.push(Request::Insert {
                            key: pick(rng, &existing),
                            value: rng.gen::<u64>(),
                        });
                    } else if roll < 0.80 {
                        let key = fresh(rng);
                        existing.push(key);
                        ops.push(Request::Insert {
                            key,
                            value: rng.gen::<u64>(),
                        });
                    } else {
                        ops.push(Request::Remove {
                            key: pick(rng, &existing),
                        });
                    }
                } else {
                    let roll: f64 = rng.gen_range(0.0..1.0);
                    if roll < 0.80 {
                        ops.push(Request::Get {
                            key: pick(rng, &existing),
                        });
                    } else if roll < 0.95 {
                        let c = pick(rng, &existing);
                        let ext = rng.gen_range(1u64..1 << 16);
                        let mut min = c;
                        let mut max = c;
                        for d in 0..K {
                            min[d] = c[d].saturating_sub(ext);
                            max[d] = c[d].saturating_add(ext);
                        }
                        min[0] = min[0].max(ns);
                        max[0] = max[0].min(ns | ((1 << 48) - 1));
                        ops.push(Request::Query { min, max });
                    } else {
                        ops.push(Request::Knn {
                            center: pick(rng, &existing),
                            n: 3,
                        });
                    }
                }
            }
        }
        Scenario::PackedRead => {
            // Pure reads over the shared frozen dataset: point hits,
            // near-miss probes (one bit off a stored key — must answer
            // None), windows, kNN, periodic stats. No writes: the
            // server is read-only and every write would answer a typed
            // error.
            let data = packed_dataset(base_seed);
            let pick_e = |rng: &mut StdRng| data[rng.gen_range(0usize..data.len())].0;
            for i in 0..n {
                if i % 97 == 96 {
                    ops.push(Request::Stats);
                    continue;
                }
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.60 {
                    ops.push(Request::Get { key: pick_e(rng) });
                } else if roll < 0.75 {
                    let mut k = pick_e(rng);
                    k[K - 1] ^= 1;
                    ops.push(Request::Get { key: k });
                } else if roll < 0.92 {
                    let c = pick_e(rng);
                    let ext = rng.gen_range(1u64..1 << 36);
                    let mut min = c;
                    let mut max = c;
                    for d in 0..K {
                        min[d] = c[d].saturating_sub(ext);
                        max[d] = c[d].saturating_add(ext);
                    }
                    ops.push(Request::Query { min, max });
                } else {
                    ops.push(Request::Knn {
                        center: pick_e(rng),
                        n: 3,
                    });
                }
            }
        }
    }
    ops
}

/// Per-connection run outcome.
struct ConnOutcome {
    lat_ns: HashMap<&'static str, Vec<u64>>,
    acked: u64,
    shed: u64,
    errors: u64,
    verified_keys: u64,
    verify_failures: u64,
    model_entries: u64,
}

fn apply_reply(
    resp: &Response<K>,
    effect: &Effect,
    model: &mut HashMap<[u64; K], u64>,
    out: &mut ConnOutcome,
) {
    match resp {
        Response::Error { code, .. } => {
            if *code == ErrorCode::Overloaded {
                out.shed += 1;
            } else {
                out.errors += 1;
            }
        }
        _ => {
            out.acked += 1;
            match effect {
                Effect::Write(k, v) => {
                    model.insert(*k, *v);
                }
                Effect::Remove(k) => {
                    model.remove(k);
                }
                Effect::Bulk(items) => {
                    for (k, v) in items {
                        model.insert(*k, *v);
                    }
                }
                Effect::Read => {}
            }
        }
    }
}

fn conn_worker(
    addr: std::net::SocketAddr,
    sc: Scenario,
    cfg: &LoadConfig,
    conn: usize,
) -> Result<ConnOutcome, ProtoError> {
    let ns = (sc.id() << 56) | ((conn as u64 + 1) << 48);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ns.rotate_left(17)));
    let ops = plan_ops(sc, &mut rng, ns, cfg.ops_per_conn, cfg.seed);
    let pipeline = sc.pipeline(cfg.pipeline);

    let mut client: Client<K> = Client::connect(addr)?;
    let mut out = ConnOutcome {
        lat_ns: HashMap::new(),
        acked: 0,
        shed: 0,
        errors: 0,
        verified_keys: 0,
        verify_failures: 0,
        model_entries: 0,
    };
    let mut model: HashMap<[u64; K], u64> = HashMap::new();
    let mut attempted: HashSet<[u64; K]> = HashSet::new();
    if sc == Scenario::PackedRead {
        // The server is read-only and pre-filled with the frozen
        // dataset: seed the model from the seed-reproducible dataset so
        // the verification pass re-reads every stored key (plus a
        // near-miss probe per key, which must answer absent) against
        // the packed artifact.
        for (k, v) in packed_dataset(cfg.seed) {
            model.insert(k, v);
            attempted.insert(k);
            let mut miss = k;
            miss[K - 1] ^= 1;
            attempted.insert(miss);
        }
    }
    let mut inflight: VecDeque<(u64, &'static str, Effect, Instant)> = VecDeque::new();

    for req in &ops {
        if inflight.len() >= pipeline {
            let (id, label, effect, sent) = inflight.pop_front().unwrap();
            let resp = client.recv(id)?;
            out.lat_ns
                .entry(label)
                .or_default()
                .push(sent.elapsed().as_nanos() as u64);
            apply_reply(&resp, &effect, &mut model, &mut out);
        }
        let effect = effect_of(req);
        match &effect {
            Effect::Write(k, _) | Effect::Remove(k) => {
                attempted.insert(*k);
            }
            Effect::Bulk(items) => {
                for (k, _) in items {
                    attempted.insert(*k);
                }
            }
            Effect::Read => {}
        }
        let id = client.send(req)?;
        inflight.push_back((id, req.label(), effect, Instant::now()));
    }
    while let Some((id, label, effect, sent)) = inflight.pop_front() {
        let resp = client.recv(id)?;
        out.lat_ns
            .entry(label)
            .or_default()
            .push(sent.elapsed().as_nanos() as u64);
        apply_reply(&resp, &effect, &mut model, &mut out);
    }

    // Verification: every key any write touched must match the model —
    // acked value present, shed/removed keys absent.
    let mut keys: Vec<[u64; K]> = attempted.into_iter().collect();
    keys.sort_unstable();
    // An overloaded server may shed verification gets too — that is the
    // typed, safe-to-retry contract, so retry shed keys until they land.
    while !keys.is_empty() {
        let mut retry: Vec<[u64; K]> = Vec::new();
        for chunk in keys.chunks(32) {
            let ids: Vec<(u64, [u64; K])> = chunk
                .iter()
                .map(|k| client.send(&Request::Get { key: *k }).map(|id| (id, *k)))
                .collect::<Result<_, _>>()?;
            for (id, key) in ids {
                match client.recv(id)? {
                    Response::Value(got) => {
                        out.verified_keys += 1;
                        if got != model.get(&key).copied() {
                            out.verify_failures += 1;
                        }
                    }
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        ..
                    } => retry.push(key),
                    _ => {
                        return Err(ProtoError::Malformed(
                            "unexpected reply to verification get",
                        ))
                    }
                }
            }
        }
        if !retry.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        keys = retry;
    }
    out.model_entries = model.len() as u64;
    Ok(out)
}

/// Runs one scenario against `addr` and aggregates every connection's
/// outcome. Returns an error if any connection hit a transport or
/// protocol failure.
pub fn run_scenario(
    addr: std::net::SocketAddr,
    sc: Scenario,
    cfg: &LoadConfig,
) -> io::Result<ScenarioReport> {
    let started = Instant::now();
    let outcomes: Vec<Result<ConnOutcome, ProtoError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|conn| {
                let cfg = cfg.clone();
                s.spawn(move || conn_worker(addr, sc, &cfg, conn))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut lat: HashMap<&'static str, Vec<u64>> = HashMap::new();
    let mut report = ScenarioReport {
        scenario: sc.name().to_string(),
        conns: cfg.conns,
        ops_total: (cfg.conns * cfg.ops_per_conn) as u64,
        acked: 0,
        shed: 0,
        errors: 0,
        elapsed_s,
        throughput_ops_s: 0.0,
        per_op: Vec::new(),
        verified_keys: 0,
        verify_failures: 0,
        model_entries: 0,
    };
    for o in outcomes {
        let o = o.map_err(|e| io::Error::other(format!("{}: {e}", sc.name())))?;
        report.acked += o.acked;
        report.shed += o.shed;
        report.errors += o.errors;
        report.verified_keys += o.verified_keys;
        report.verify_failures += o.verify_failures;
        report.model_entries += o.model_entries;
        for (label, mut v) in o.lat_ns {
            lat.entry(label).or_default().append(&mut v);
        }
    }
    report.throughput_ops_s = report.ops_total as f64 / elapsed_s.max(1e-9);
    let mut labels: Vec<&&str> = lat.keys().collect();
    labels.sort();
    let labels: Vec<&str> = labels.into_iter().copied().collect();
    for label in labels {
        let v = lat.get_mut(label).unwrap();
        v.sort_unstable();
        let mean_us = v.iter().sum::<u64>() as f64 / (v.len() as f64) / 1000.0;
        report.per_op.push(OpStats {
            op: label.to_string(),
            count: v.len() as u64,
            p50_us: exact_percentile(v, 0.50) / 1000.0,
            p99_us: exact_percentile(v, 0.99) / 1000.0,
            mean_us,
        });
    }
    Ok(report)
}

/// Logical cores on this host — stamped into the report so claims are
/// read in context (CI runs on 1 core: no parallel-speedup claims).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "null".to_string()
    }
}

/// Renders the report set as the `results/phserve.json` document.
pub fn to_json(reports: &[ScenarioReport], backend: &str, host_cores: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"backend\": \"{backend}\",\n"));
    out.push_str(&format!("  \"dims\": {SERVE_DIMS},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"scenario\": \"{}\",\n", r.scenario));
        out.push_str(&format!("      \"conns\": {},\n", r.conns));
        out.push_str(&format!("      \"ops_total\": {},\n", r.ops_total));
        out.push_str(&format!("      \"acked\": {},\n", r.acked));
        out.push_str(&format!("      \"shed\": {},\n", r.shed));
        out.push_str(&format!("      \"errors\": {},\n", r.errors));
        out.push_str(&format!(
            "      \"shed_rate\": {},\n",
            json_f(r.shed as f64 / (r.ops_total as f64).max(1.0))
        ));
        out.push_str(&format!("      \"elapsed_s\": {},\n", json_f(r.elapsed_s)));
        out.push_str(&format!(
            "      \"throughput_ops_s\": {},\n",
            json_f(r.throughput_ops_s)
        ));
        out.push_str(&format!("      \"verified_keys\": {},\n", r.verified_keys));
        out.push_str(&format!(
            "      \"verify_failures\": {},\n",
            r.verify_failures
        ));
        out.push_str(&format!("      \"model_entries\": {},\n", r.model_entries));
        out.push_str("      \"per_op\": [\n");
        for (j, op) in r.per_op.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"op\": \"{}\", \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"mean_us\": {}}}{}\n",
                op.op,
                op.count,
                json_f(op.p50_us),
                json_f(op.p99_us),
                json_f(op.mean_us),
                if j + 1 == r.per_op.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Inserts a top-level `"trace"` object into a [`to_json`] report —
/// the `phload --trace` overhead record (A/B throughput of the same
/// scenario with the flight recorder off and on).
pub fn inject_trace_json(
    json: &str,
    enabled: bool,
    sample_every: u32,
    baseline_ops_s: f64,
    traced_ops_s: f64,
) -> String {
    let overhead_pct = if traced_ops_s > 0.0 && enabled {
        (baseline_ops_s / traced_ops_s - 1.0) * 100.0
    } else {
        0.0
    };
    let block = format!(
        "  \"trace\": {{\"enabled\": {enabled}, \"sample_every\": {sample_every}, \
         \"baseline_ops_s\": {}, \"traced_ops_s\": {}, \"overhead_pct\": {}}},\n",
        json_f(baseline_ops_s),
        json_f(traced_ops_s),
        json_f(overhead_pct),
    );
    // to_json always opens with "{\n" — splice right after it.
    json.replacen("{\n", &format!("{{\n{block}"), 1)
}

/// Human-readable results table (also the source of the README table).
pub fn render_table(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    out.push_str("| scenario | ops | throughput (op/s) | shed | op | p50 (µs) | p99 (µs) |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in reports {
        for (i, op) in r.per_op.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!(
                    "| {} | {} | {:.0} | {} | {} | {:.1} | {:.1} |\n",
                    r.scenario,
                    r.ops_total,
                    r.throughput_ops_s,
                    r.shed,
                    op.op,
                    op.p50_us,
                    op.p99_us
                ));
            } else {
                out.push_str(&format!(
                    "| | | | | {} | {:.1} | {:.1} |\n",
                    op.op, op.p50_us, op.p99_us
                ));
            }
        }
    }
    out
}
