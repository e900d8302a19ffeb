//! `phload` — scenario load generator for phserve.
//!
//! Two modes:
//!
//! * **Spawn mode** (default): starts in-process servers on ephemeral
//!   loopback ports, drives the six standard mixes (including both
//!   read-under-write mixes with a churning writer) against a
//!   default-tuned server, then the overload mix against a deliberately
//!   undersized one (tiny admission queue + artificial per-op delay),
//!   verifies every connection's acked-op model against the server,
//!   checks server `stats.entries` equals the sum of client models,
//!   finishes with a back-to-back traced/untraced `point_heavy` A/B
//!   (the `"trace"` key), and writes `results/phserve.json` stamped
//!   with `host_cores`.
//!
//!   ```text
//!   phload [--quick] [--durable] [--out results/phserve.json]
//!   ```
//!
//! * **External mode**: drives scenarios against an already-running
//!   server (CI's serve-smoke job).
//!
//!   ```text
//!   phload --addr HOST:PORT --scenario point_heavy [--quick]
//!   ```
//!
//! * **Prepare mode**: freezes the deterministic packed dataset into a
//!   checkpoint directory for `phserve --packed DIR`; the
//!   `packed_read` scenario (external mode) then verifies the running
//!   read-only server against the same seed-reproduced dataset.
//!
//!   ```text
//!   phload --prepare-packed DIR [--seed N]
//!   ```
//!
//! * **Trace mode**: A/B overhead measurement for the flight recorder
//!   (`point_heavy` untraced, then traced at 1-in-64 sampling) plus a
//!   slow-query round trip through `/debug/slow`; the overhead lands
//!   in the JSON report's `"trace"` key. Degrades gracefully in a
//!   binary built without `--features trace`.
//!
//!   ```text
//!   phload --trace [--quick] [--out results/phserve.json]
//!   ```
//!
//! Spawn mode also runs `packed_read` end to end by itself: it packs
//! the dataset, serves it read-only in process, checks a write answers
//! the typed read-only error, and verifies every stored key.
//!
//! Exit code is non-zero on any verification failure, unexpected error
//! reply, or (spawn mode) missing shed evidence in the overload run.

use phmetrics::Registry;
use phpack::CacheMode;
use phserve::backend::PackedBackend;
use phserve::load::{
    host_cores, inject_trace_json, prepare_packed, render_table, run_scenario, to_json, LoadConfig,
    Scenario, ScenarioReport, SERVE_DIMS,
};
use phserve::proto::{ErrorCode, Request, Response};
use phserve::server::{spawn, ServerConfig, ServerHandle};
use phserve::Client;
use phshard::{DurableSharded, PackedShards, RebalancePolicy, Rebalancer, ShardedTree};
use phstore::vfs::StdVfs;
use phstore::DurableConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const K: usize = SERVE_DIMS;

fn usage() -> ! {
    eprintln!(
        "usage: phload [--quick] [--durable] [--out PATH]\n\
         \x20      phload --addr HOST:PORT --scenario NAME [--quick]\n\
         \x20      phload --prepare-packed DIR [--seed N]\n\
         \x20      phload --trace [--quick] [--out PATH]"
    );
    std::process::exit(2);
}

/// Plain-std HTTP GET against the metrics sidecar.
fn scrape(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: phload\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)?;
    match buf.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Ok(buf),
    }
}

/// Extracts a metric's value from Prometheus text exposition.
fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("phload: FAIL: {msg}");
    std::process::exit(1);
}

/// Runs one scenario and enforces the invariants every scenario must
/// uphold: zero non-shed error replies and a model-exact verification.
fn run_checked(addr: SocketAddr, sc: Scenario, cfg: &LoadConfig) -> ScenarioReport {
    eprintln!(
        "phload: running {} ({} conns x {} ops)...",
        sc.name(),
        cfg.conns,
        cfg.ops_per_conn
    );
    let report =
        run_scenario(addr, sc, cfg).unwrap_or_else(|e| fail(&format!("{} failed: {e}", sc.name())));
    if report.errors > 0 {
        fail(&format!(
            "{}: {} unexpected error replies",
            report.scenario, report.errors
        ));
    }
    if report.verify_failures > 0 {
        fail(&format!(
            "{}: {} of {} verified keys disagree with the acked-op model",
            report.scenario, report.verify_failures, report.verified_keys
        ));
    }
    eprintln!(
        "phload: {}: {:.0} op/s, {} acked, {} shed, {} keys verified",
        report.scenario, report.throughput_ops_s, report.acked, report.shed, report.verified_keys
    );
    report
}

/// Spawns a server (+rebalancer) over a fresh backend; the returned
/// path, if any, is the durable store directory to clean up after.
fn launch(
    durable: bool,
    cfg: ServerConfig,
    tag: &str,
) -> (ServerHandle, Rebalancer, Option<PathBuf>) {
    let registry = Registry::new();
    if durable {
        let dir = std::env::temp_dir().join(format!("phload-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = Arc::new(
            DurableSharded::<u64, K>::open_observed(
                Arc::new(StdVfs),
                &dir,
                8,
                DurableConfig::default(),
                &registry,
            )
            .unwrap_or_else(|e| fail(&format!("open durable store: {e}"))),
        );
        let reb = Rebalancer::spawn(Arc::clone(&backend), RebalancePolicy::default());
        let handle = spawn(
            Arc::clone(&backend),
            "127.0.0.1:0",
            Some("127.0.0.1:0"),
            registry,
            cfg,
        )
        .unwrap_or_else(|e| fail(&format!("bind: {e}")));
        (handle, reb, Some(dir))
    } else {
        let backend = Arc::new(ShardedTree::<u64, K>::with_metrics(8, &registry));
        let reb = Rebalancer::spawn(Arc::clone(&backend), RebalancePolicy::default());
        let handle = spawn(
            Arc::clone(&backend),
            "127.0.0.1:0",
            Some("127.0.0.1:0"),
            registry,
            cfg,
        )
        .unwrap_or_else(|e| fail(&format!("bind: {e}")));
        (handle, reb, None)
    }
}

fn spawn_mode(quick: bool, durable: bool, out: &str) {
    let cfg = if quick {
        LoadConfig::quick()
    } else {
        LoadConfig::default()
    };
    let mut reports: Vec<ScenarioReport> = Vec::new();

    // --- The standard mixes against a default-tuned server. ---
    let (handle, reb, cleanup) = launch(durable, ServerConfig::default(), "main");
    let addr = handle.addr();
    for sc in Scenario::standard() {
        reports.push(run_checked(addr, sc, &cfg));
    }

    // Cross-check: the server's entry count must equal the sum of the
    // per-connection models (namespaces are disjoint and the server
    // started empty) — acked writes all landed, shed writes none.
    let model_total: u64 = reports.iter().map(|r| r.model_entries).sum();
    let mut client: Client<K> = Client::connect(addr).unwrap_or_else(|e| fail(&e.to_string()));
    let stats = client.stats().unwrap_or_else(|e| fail(&e.to_string()));
    if stats.entries != model_total {
        fail(&format!(
            "server holds {} entries but client models ack {model_total}",
            stats.entries
        ));
    }
    eprintln!(
        "phload: consistency: server entries {} == sum of client models (epoch {}, skew {:.2})",
        stats.entries, stats.epoch, stats.skew
    );

    // The sidecar must expose live serving metrics.
    let maddr = handle.metrics_addr().expect("sidecar running");
    let text = scrape(maddr, "/metrics").unwrap_or_else(|e| fail(&format!("scrape: {e}")));
    for required in [
        "phserve_connections_total",
        "phserve_batches_total",
        "phserve_queue_depth_peak",
    ] {
        if metric_value(&text, required).is_none() {
            fail(&format!("/metrics is missing {required}"));
        }
    }
    drop(client);
    handle.stop();
    let splits = reb.stop();
    eprintln!(
        "phload: rebalancer performed {} split(s) under traffic",
        splits.len()
    );
    if let Some(dir) = cleanup {
        let _ = std::fs::remove_dir_all(dir);
    }

    // --- Overload against an undersized queue with a slow backend. ---
    let over_server = ServerConfig {
        queue_cap: 64,
        batch_max: 16,
        workers: 1,
        shed_wait: Duration::from_micros(500),
        op_delay: Some(Duration::from_micros(200)),
    };
    let over_cfg = LoadConfig {
        conns: 2,
        ops_per_conn: if quick { 1200 } else { 4000 },
        pipeline: 256,
        seed: cfg.seed,
    };
    let (handle, reb, cleanup) = launch(durable, over_server.clone(), "overload");
    let report = run_checked(handle.addr(), Scenario::Overload, &over_cfg);
    if report.shed == 0 {
        fail("overload scenario shed nothing — the queue never reached high water");
    }
    let maddr = handle.metrics_addr().expect("sidecar running");
    let text = scrape(maddr, "/metrics").unwrap_or_else(|e| fail(&format!("scrape: {e}")));
    let peak = metric_value(&text, "phserve_queue_depth_peak")
        .unwrap_or_else(|| fail("no queue depth peak exposed"));
    if peak > over_server.queue_cap as f64 {
        fail(&format!(
            "queue depth peaked at {peak}, above the {} bound",
            over_server.queue_cap
        ));
    }
    eprintln!(
        "phload: overload: queue depth peak {peak} stayed within the {} bound; {} of {} ops shed",
        over_server.queue_cap, report.shed, report.ops_total
    );
    reports.push(report);
    handle.stop();
    reb.stop();
    if let Some(dir) = cleanup {
        let _ = std::fs::remove_dir_all(dir);
    }

    // --- Packed read-only serving over a frozen checkpoint. ---
    let pdir = std::env::temp_dir().join(format!("phload-{}-packed", std::process::id()));
    let _ = std::fs::remove_dir_all(&pdir);
    let (pshards, pentries) =
        prepare_packed(&pdir, cfg.seed).unwrap_or_else(|e| fail(&format!("prepare packed: {e}")));
    eprintln!(
        "phload: packed checkpoint ready at {} ({pshards} shards, {pentries} entries)",
        pdir.display()
    );
    let registry = Registry::new();
    let packed = PackedShards::<u64, K>::open(&pdir, CacheMode::Resident)
        .unwrap_or_else(|e| fail(&format!("open packed checkpoint: {e}")));
    let backend = Arc::new(PackedBackend(Arc::new(packed)));
    let handle = spawn(
        backend,
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
        registry,
        ServerConfig::default(),
    )
    .unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let report = run_checked(handle.addr(), Scenario::PackedRead, &cfg);
    // A write against the packed server must answer the typed
    // read-only error — refused, not applied, not a connection kill.
    let mut client: Client<K> =
        Client::connect(handle.addr()).unwrap_or_else(|e| fail(&e.to_string()));
    match client.call(&Request::Insert {
        key: [1; K],
        value: 1,
    }) {
        Ok(Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }) => {}
        other => fail(&format!(
            "write against packed server answered {other:?}, want typed BadRequest"
        )),
    }
    if client
        .get([1; K])
        .unwrap_or_else(|e| fail(&e.to_string()))
        .is_some()
    {
        fail("refused write was applied to the packed server");
    }
    eprintln!("phload: packed_read: writes refused with typed error, reads verified");
    reports.push(report);
    drop(client);
    handle.stop();
    let _ = std::fs::remove_dir_all(&pdir);

    // --- Tracing overhead (in-memory runs): rerun point_heavy with
    // the flight recorder live at the production 1-in-64 sampling rate
    // and record the A/B against the untraced standard-pass run, so
    // the canonical results file carries the overhead number. In a
    // binary built without the `trace` feature the rerun measures
    // noise and the overhead is recorded as 0 with "enabled": false.
    let mut trace_ab: Option<(bool, f64, f64)> = None;
    if !durable {
        const SAMPLE_EVERY: u32 = 64;
        // Back-to-back A/B on an equally warm process — the standard
        // pass above ran on a cold one, which would bias the baseline.
        let (handle, reb, _) = launch(false, ServerConfig::default(), "trace-base");
        let base = run_checked(handle.addr(), Scenario::PointHeavy, &cfg);
        handle.stop();
        reb.stop();
        let base_ops = base.throughput_ops_s;
        let live = phserve::trace::init(phserve::trace::TraceConfig {
            sample_every: SAMPLE_EVERY,
            slow_threshold: phserve::trace::SlowThreshold::FixedNs(10_000_000),
            ..Default::default()
        });
        let (handle, reb, _) = launch(false, ServerConfig::default(), "trace-on");
        let mut traced = run_checked(handle.addr(), Scenario::PointHeavy, &cfg);
        traced.scenario = "point_heavy_traced".into();
        handle.stop();
        reb.stop();
        if live && phtrace::stats().sampled_requests == 0 {
            fail("tracing is live but no request was sampled");
        }
        let overhead_pct = if traced.throughput_ops_s > 0.0 {
            (base_ops / traced.throughput_ops_s - 1.0) * 100.0
        } else {
            0.0
        };
        eprintln!(
            "phload: trace overhead (1-in-{SAMPLE_EVERY}): {:.0} -> {:.0} op/s ({overhead_pct:+.2}%)",
            base_ops, traced.throughput_ops_s
        );
        trace_ab = Some((live, base_ops, traced.throughput_ops_s));
        reports.push(traced);
    }

    // --- Report. ---
    let backend_name = if durable { "durable" } else { "in-memory" };
    let mut json = to_json(&reports, backend_name, host_cores());
    if let Some((live, base_ops, traced_ops)) = trace_ab {
        json = inject_trace_json(&json, live, 64, base_ops, traced_ops);
    }
    if let Some(parent) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(out, &json).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!("{}", render_table(&reports));
    println!("phload: wrote {out} (host_cores={})", host_cores());
}

/// `phload --trace`: the flight recorder's A/B overhead measurement
/// plus a slow-query round trip. Runs `point_heavy` against an
/// untraced server, installs the recorder at the production 1-in-64
/// sampling rate, reruns the same scenario traced, then drops the slow
/// threshold to the floor and verifies a deliberately slow query shows
/// up in `/debug/slow` with a per-phase breakdown that covers its wall
/// time. The overhead record lands in the JSON report's `"trace"` key.
///
/// In a binary built without the `trace` feature every probe is a ZST
/// no-op: the A/B still runs (it then measures noise) and the overhead
/// is recorded as 0 with `"enabled": false` — the mode degrades to a
/// plain double run instead of failing, so one CI recipe works on both
/// builds.
fn trace_mode(quick: bool, out: &str) {
    const SAMPLE_EVERY: u32 = 64;
    let cfg = if quick {
        LoadConfig::quick()
    } else {
        LoadConfig::default()
    };

    // A: untraced baseline (the recorder is not installed yet, so even
    // a trace-built binary runs every probe against a dead recorder).
    let (handle, reb, _) = launch(false, ServerConfig::default(), "trace-base");
    let base = run_checked(handle.addr(), Scenario::PointHeavy, &cfg);
    handle.stop();
    reb.stop();

    // B: same scenario with the recorder live at the production rate.
    // The threshold is *pinned* (not Auto): the server autotunes an
    // Auto threshold from its own trailing p99 every 64 batches, which
    // would override the floor-threshold trick the slow-query check
    // below relies on. 10ms keeps the A/B run itself slow-free.
    let live = phserve::trace::init(phserve::trace::TraceConfig {
        sample_every: SAMPLE_EVERY,
        slow_threshold: phserve::trace::SlowThreshold::FixedNs(10_000_000),
        ..Default::default()
    });
    if !live {
        eprintln!(
            "phload: built without the `trace` feature; overhead recorded as 0 \
             (rebuild with --features trace for a live measurement)"
        );
    }
    let (handle, reb, _) = launch(false, ServerConfig::default(), "trace-on");
    let mut traced = run_checked(handle.addr(), Scenario::PointHeavy, &cfg);
    traced.scenario = "point_heavy_traced".into();
    let overhead_pct = if traced.throughput_ops_s > 0.0 {
        (base.throughput_ops_s / traced.throughput_ops_s - 1.0) * 100.0
    } else {
        0.0
    };
    eprintln!(
        "phload: trace overhead (1-in-{SAMPLE_EVERY}): {:.0} -> {:.0} op/s ({overhead_pct:+.2}%)",
        base.throughput_ops_s, traced.throughput_ops_s
    );

    if live {
        let st = phtrace::stats();
        if st.sampled_requests == 0 {
            fail("tracing is live but no request was sampled");
        }
        eprintln!(
            "phload: recorder sampled {} requests into {} ring(s) ({} records)",
            st.sampled_requests, st.rings, st.records
        );

        // Deliberately slow query: with the threshold at the floor
        // every sampled query is "slow"; 2×SAMPLE_EVERY attempts
        // guarantee at least one sampled one.
        phtrace::set_slow_threshold_ns(1_000);
        let mut client: Client<K> =
            Client::connect(handle.addr()).unwrap_or_else(|e| fail(&e.to_string()));
        for i in 0..512u64 {
            let key = [i.wrapping_mul(0x9e37_79b9); K];
            match client.call(&Request::Insert { key, value: i }) {
                Ok(Response::Ack) => {}
                other => fail(&format!("seed insert answered {other:?}")),
            }
        }
        for _ in 0..(2 * SAMPLE_EVERY) {
            match client.call(&Request::Query {
                min: [0; K],
                max: [u64::MAX; K],
            }) {
                Ok(Response::Entries(_)) => {}
                other => fail(&format!("slow query answered {other:?}")),
            }
        }
        let slow = phtrace::recent_slow();
        let q = slow
            .iter()
            .rev()
            .find(|s| matches!(s.op, phtrace::TraceOp::Query))
            .unwrap_or_else(|| fail("no sampled query reached the slow log"));
        if q.spans < 3 || q.covered_ns == 0 {
            fail(&format!(
                "slow query breakdown too thin: {} spans, covered {}ns",
                q.spans, q.covered_ns
            ));
        }
        let wall = q.wall_ns as f64;
        let covered = q.covered_ns as f64;
        if covered < wall * 0.9 || covered > wall * 1.1 {
            fail(&format!(
                "slow query phases cover {covered:.0}ns of {wall:.0}ns wall (want within 10%)"
            ));
        }
        eprintln!(
            "phload: slow query req {} — wall {}us, queue {}us fanout {}us descent {}us \
             reply {}us ({} spans, fanout {})",
            q.req_id,
            q.wall_ns / 1_000,
            q.phase_ns[phtrace::Phase::Queue as usize] / 1_000,
            q.phase_ns[phtrace::Phase::FanOut as usize] / 1_000,
            q.phase_ns[phtrace::Phase::Descent as usize] / 1_000,
            q.phase_ns[phtrace::Phase::Reply as usize] / 1_000,
            q.spans,
            q.counters.fanout,
        );

        // The same entry must come back over the sidecar.
        let maddr = handle.metrics_addr().expect("sidecar running");
        let body = scrape(maddr, "/debug/slow").unwrap_or_else(|e| fail(&format!("scrape: {e}")));
        if !body.contains("\"req_id\"") || !body.contains("\"phases\"") {
            fail(&format!("/debug/slow returned no slow queries: {body}"));
        }
        let mtext = scrape(maddr, "/metrics").unwrap_or_else(|e| fail(&format!("scrape: {e}")));
        if metric_value(&mtext, "phserve_protocol_errors_total").unwrap_or(0.0) != 0.0 {
            fail("protocol errors during the traced run");
        }
        eprintln!("phload: /debug/slow serves the breakdown; zero protocol errors");
    }
    handle.stop();
    reb.stop();

    let reports = [base, traced];
    let json = to_json(&reports, "in-memory", host_cores());
    let json = inject_trace_json(
        &json,
        live,
        SAMPLE_EVERY,
        reports[0].throughput_ops_s,
        reports[1].throughput_ops_s,
    );
    if let Some(parent) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(out, &json).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!("{}", render_table(&reports));
    println!("phload: wrote {out} (trace overhead {overhead_pct:+.2}%)");
}

fn external_mode(addr: &str, scenario: &str, quick: bool, out: Option<&str>, seed: u64) {
    let addr: SocketAddr = addr
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad --addr {addr}")));
    let sc =
        Scenario::parse(scenario).unwrap_or_else(|| fail(&format!("unknown scenario {scenario}")));
    let mut cfg = if quick {
        LoadConfig::quick()
    } else {
        LoadConfig::default()
    };
    cfg.seed = seed;
    if sc == Scenario::Overload {
        cfg.pipeline = 256;
    }
    let report = run_checked(addr, sc, &cfg);
    let reports = [report];
    if let Some(out) = out {
        let json = to_json(&reports, "external", host_cores());
        if let Some(parent) = std::path::Path::new(out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(out, &json).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    }
    println!("{}", render_table(&reports));
}

fn main() {
    let mut quick = false;
    let mut durable = false;
    let mut trace = false;
    let mut out: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut scenario: Option<String> = None;
    let mut prepare: Option<PathBuf> = None;
    let mut seed = LoadConfig::default().seed;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--durable" => durable = true,
            "--trace" => trace = true,
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--addr" => addr = Some(it.next().unwrap_or_else(|| usage())),
            "--scenario" => scenario = Some(it.next().unwrap_or_else(|| usage())),
            "--prepare-packed" => {
                prepare = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if let Some(dir) = prepare {
        let (shards, entries) =
            prepare_packed(&dir, seed).unwrap_or_else(|e| fail(&format!("prepare packed: {e}")));
        println!(
            "phload: packed checkpoint written to {} ({shards} shards, {entries} entries, seed {seed})",
            dir.display()
        );
        return;
    }
    if trace {
        if addr.is_some() || scenario.is_some() {
            usage();
        }
        trace_mode(quick, out.as_deref().unwrap_or("results/phserve.json"));
        return;
    }
    match (addr, scenario) {
        (Some(a), Some(s)) => external_mode(&a, &s, quick, out.as_deref(), seed),
        (None, None) => spawn_mode(
            quick,
            durable,
            out.as_deref().unwrap_or("results/phserve.json"),
        ),
        _ => usage(),
    }
}
