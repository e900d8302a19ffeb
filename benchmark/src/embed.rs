//! `embed_k20`: no server, no shards — a bare `PhTree` driven through
//! the library API the way the paper's own user would.
//!
//! One round builds a tree by sequential insert, then reads it (point
//! lookups half absent, windows, kNN), removes half the entries and
//! inserts them again. Cheap ops are timed in batches of 1 024 (one is
//! below timer resolution) and the percentiles are over batch means;
//! windows and kNN are timed one by one.

use crate::layers::Layers;
use crate::model::{dataset, Gen, Key, Model};
use crate::quantile::{median_of, p50_us};
use crate::report::{Metric, Outcome};
use crate::{alloc, procfs, span, Args};
use phserve::{Request, Response};
use phtree::key::f64_to_key;
use phtree::PhTree;
use std::time::Instant;

pub struct EmbedSpec {
    /// Entries inserted at `--scale 1`.
    pub entries: usize,
    pub windows: usize,
    pub knns: usize,
    pub window_hits: f64,
}

const BATCH: usize = 1024;

/// The inputs of a round, the same every round.
struct Script<const K: usize> {
    items: Vec<(Key<K>, u64)>,
    /// Lookups, twice the entries, with the value each must find.
    gets: Vec<(Key<K>, Option<u64>)>,
    windows: Vec<Request<K>>,
    knns: Vec<Request<K>>,
}

fn script<const K: usize>(spec: &EmbedSpec, args: &Args) -> Script<K> {
    let n = ((spec.entries as f64 * args.scale) as usize).max(BATCH);
    let items = dataset::<K>(n, args.seed, f64_to_key);
    let edge = (spec.window_hits / n as f64).powf(1.0 / K as f64);
    let mut gen = Gen::new(args.seed ^ 0xe3bed, &items, (0.0, 1.0), edge, f64_to_key);
    let values: std::collections::HashMap<Key<K>, u64> = items.iter().copied().collect();
    let gets = (0..2 * n)
        .map(|_| {
            let req = if gen.coin() {
                gen.get_hit()
            } else {
                gen.get_miss()
            };
            match req {
                Request::Get { key } => (key, values.get(&key).copied()),
                _ => unreachable!("get_hit and get_miss make gets"),
            }
        })
        .collect();
    Script {
        windows: (0..spec.windows).map(|_| gen.window()).collect(),
        knns: (0..spec.knns).map(|_| gen.knn()).collect(),
        gets,
        items,
    }
}

/// Per-op times of one round, ns: batch means for the cheap ops, single
/// calls for the scans.
#[derive(Default)]
struct Times {
    insert: Vec<f64>,
    get: Vec<f64>,
    window: Vec<f64>,
    knn: Vec<f64>,
    remove: Vec<f64>,
}

struct RoundOut {
    secs: f64,
    ops: u64,
    failed: u64,
    bytes_per_entry: f64,
    heap_bytes_per_entry: f64,
    allocs_per_insert: f64,
    allocs_per_get: f64,
    entries_per_node: f64,
    hc_node_share: f64,
    window_hits: usize,
}

/// Runs `f` over `items` in batches, pushing each batch's mean ns.
fn batched<T>(name: &'static str, items: &[T], means: &mut Vec<f64>, mut f: impl FnMut(&T)) {
    for chunk in items.chunks(BATCH) {
        let ((), ns) = span::timed(name, chunk.len() as u64, || chunk.iter().for_each(&mut f));
        means.push(ns as f64 / chunk.len() as f64);
    }
}

fn round<const K: usize>(s: &Script<K>, model: &mut Model<K>, t: &mut Times) -> RoundOut {
    let n = s.items.len();
    let mut failed = 0u64;
    let t0 = Instant::now();
    let mut tree: PhTree<u64, K> = PhTree::new();

    let section = alloc::Section::start();
    batched("phtree.insert", &s.items, &mut t.insert, |&(k, v)| {
        failed += tree.insert(k, v).is_some() as u64;
    });
    let (insert_allocs, heap_bytes) = (section.allocs(), section.live_bytes());
    let stats = tree.stats();

    let section = alloc::Section::start();
    batched("phtree.get", &s.gets, &mut t.get, |(k, want)| {
        failed += (tree.get(k).copied() != *want) as u64;
    });
    let get_allocs = section.allocs();

    // Scans are collected inside the timer, as a caller would, and
    // checked after it.
    let mut window_hits = 0;
    for w in &s.windows {
        let Request::Query { min, max } = w else {
            unreachable!("the window list holds windows")
        };
        let (hits, ns) = span::timed("phtree.window", 1, || {
            tree.query(min, max)
                .map(|(k, v)| (k, *v))
                .collect::<Vec<_>>()
        });
        t.window.push(ns as f64);
        window_hits += hits.len();
        failed += !model.check(w, &Response::Entries(hits)) as u64;
    }
    for q in &s.knns {
        let Request::Knn { center, n } = q else {
            unreachable!("the kNN list holds kNN queries")
        };
        let (nbs, ns) = span::timed("phtree.knn", 1, || {
            tree.knn(center, *n as usize)
                .into_iter()
                .map(|nb| (nb.key, *nb.value, nb.dist))
                .collect::<Vec<_>>()
        });
        t.knn.push(ns as f64);
        failed += !model.check(q, &Response::Neighbors(nbs)) as u64;
    }

    let half = &s.items[..n / 2];
    batched("phtree.remove", half, &mut t.remove, |(k, v)| {
        failed += (tree.remove(k) != Some(*v)) as u64;
    });
    batched("phtree.insert", half, &mut t.insert, |&(k, v)| {
        failed += tree.insert(k, v).is_some() as u64;
    });
    let secs = t0.elapsed().as_secs_f64();

    // The tree must hold exactly the entries again.
    failed += (tree.len() != n) as u64;
    failed += s
        .items
        .iter()
        .filter(|(k, v)| tree.get(k) != Some(v))
        .count() as u64;
    RoundOut {
        secs,
        ops: (n + s.gets.len() + s.windows.len() + s.knns.len() + 2 * half.len() + 1) as u64,
        failed,
        bytes_per_entry: stats.total_bytes as f64 / n as f64,
        heap_bytes_per_entry: heap_bytes as f64 / n as f64,
        allocs_per_insert: insert_allocs as f64 / n as f64,
        allocs_per_get: get_allocs as f64 / s.gets.len() as f64,
        entries_per_node: stats.entries_per_node(),
        hc_node_share: stats.hc_nodes as f64 / stats.nodes.max(1) as f64,
        window_hits,
    }
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

pub fn run<const K: usize>(spec: &EmbedSpec, args: &Args) -> Outcome {
    // Set-up is generating the dataset and the queries; the tree is
    // built inside the timed script.
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        s = Some(script::<K>(spec, args));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("set up three times");
    let mut model = Model::new(&s.items);

    let (mut plain, mut traced) = (Times::default(), Times::default());
    let (mut ops_s, mut ops_s_traced) = (Vec::new(), Vec::new());
    let mut out = Outcome::default();
    let mut last = None;
    let mut timed = 0.0;
    let mut rounds = 0;
    while timed < args.seconds || rounds < if args.trace { 2 } else { 1 } {
        let tracing = args.trace && rounds % 2 == 0;
        span::set_on(tracing);
        alloc::set_counting(tracing);
        let r = round(
            &s,
            &mut model,
            if tracing { &mut traced } else { &mut plain },
        );
        alloc::set_counting(false);
        span::set_on(false);
        timed += r.secs;
        out.attempted += r.ops;
        out.failed += r.failed;
        let rate = r.ops as f64 / r.secs;
        if tracing {
            ops_s_traced.push(rate);
        } else {
            ops_s.push(rate);
        }
        // The counts reported come from a round of the reported kind.
        if tracing == args.trace {
            last = Some(r);
        }
        rounds += 1;
    }
    let r = last.expect("at least one round ran");

    if !args.trace {
        out.push("setup_s", median_of(&setup_s), "s");
        out.metrics
            .push(Metric::new("ops_s", median_of(&ops_s), "1/s").with_samples(ops_s.len()));
        for (name, samples) in [
            ("get_p50_us", &plain.get),
            ("window_p50_us", &plain.window),
            ("knn_p50_us", &plain.knn),
        ] {
            let (v, n) = p50_us(samples);
            out.metrics.push(Metric::new(name, v, "us").with_samples(n));
        }
        out.push("bytes_per_entry", r.bytes_per_entry, "B");
        out.extras
            .push(Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MiB"));
        for (name, samples) in [
            ("insert_p50_us", &plain.insert),
            ("remove_p50_us", &plain.remove),
        ] {
            let (v, n) = p50_us(samples);
            out.extras.push(Metric::new(name, v, "us").with_samples(n));
        }
        return out;
    }

    // The layer numbers come from the traced rounds, where allocation
    // counting was on; everything above the tree stays 0.
    let mut l = Layers::new();
    l.set("phtree.get_ns", mean(&traced.get));
    l.set("phtree.insert_ns", mean(&traced.insert));
    l.set("phtree.remove_ns", mean(&traced.remove));
    l.set(
        "phtree.window_ns_per_hit",
        traced.window.iter().sum::<f64>() / r.window_hits.max(1) as f64
            * (s.windows.len() as f64 / traced.window.len().max(1) as f64),
    );
    l.set("phtree.knn_ns", mean(&traced.knn));
    let (tree, load_ns) = span::timed("phtree.bulk_load", s.items.len() as u64, || {
        PhTree::bulk_load(s.items.clone())
    });
    drop(tree);
    l.set(
        "phtree.bulk_load_ns_per_entry",
        load_ns as f64 / s.items.len() as f64,
    );
    l.set("phtree.allocs_per_insert", r.allocs_per_insert);
    l.set("phtree.allocs_per_read", r.allocs_per_get);
    l.set("phtree.heap_bytes_per_entry", r.heap_bytes_per_entry);
    l.set("phtree.entries_per_node", r.entries_per_node);
    l.set("phtree.hc_node_share", r.hc_node_share);
    let plain_ops_s = median_of(&ops_s);
    l.set("stack.ns_per_op", 1e9 / plain_ops_s);
    l.set("stack.insert_p50_us", p50_us(&plain.insert).0);
    l.set(
        "trace.overhead_pct",
        100.0 * (plain_ops_s - median_of(&ops_s_traced)) / plain_ops_s,
    );
    l.finish(args, &mut out);
    out
}
