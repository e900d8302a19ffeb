//! `phserve` — the PH-tree TCP server.
//!
//! ```text
//! phserve [--addr 127.0.0.1:7070] [--metrics-addr 127.0.0.1:7071]
//!         [--durable DIR | --packed DIR] [--shards 8]
//!         [--queue-cap 1024] [--batch-max 64] [--workers 1]
//!         [--shed-wait-us 2000] [--op-delay-us 0] [--no-rebalance]
//!         [--lru-pages N] [--trace] [--trace-sample 64] [--slow-us N]
//! ```
//!
//! Serves the in-memory `ShardedTree` by default; `--durable DIR`
//! swaps in the WAL-backed `DurableSharded` (crash-recovering from
//! `DIR` on start); `--packed DIR` serves a packed checkpoint
//! (written by `phload --prepare-packed` or
//! `DurableSharded::checkpoint_packed`) **read-only** — writes answer
//! a typed error, opens take milliseconds, and `--lru-pages N` caps
//! the page cache instead of mapping everything resident. The PR 6
//! rebalancer runs in the background unless `--no-rebalance`. Bind
//! port 0 for an ephemeral port — the actual addresses are printed as
//! `phserve listening on ...` / `phserve metrics on ...` lines for
//! scripts to parse.
//!
//! `--trace` turns the flight recorder on (requires building with
//! `--features trace`; warns and serves untraced otherwise):
//! `--trace-sample N` records one request in N (default 64), and
//! `--slow-us N` pins the slow-query threshold instead of the default
//! auto policy (trailing p99 × 4). Read results back from the metrics
//! sidecar at `/debug/slow`, `/debug/trace?n=`, `/debug/dumps`.

use phmetrics::Registry;
use phpack::CacheMode;
use phserve::backend::PackedBackend;
use phserve::load::SERVE_DIMS;
use phserve::server::{spawn, ServerConfig};
use phshard::{DurableSharded, PackedShards, RebalancePolicy, Rebalancer, ShardedTree};
use phstore::vfs::StdVfs;
use phstore::DurableConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const K: usize = SERVE_DIMS;

struct Args {
    addr: String,
    metrics_addr: String,
    durable: Option<PathBuf>,
    packed: Option<PathBuf>,
    lru_pages: Option<usize>,
    shards: usize,
    cfg: ServerConfig,
    rebalance: bool,
    trace: bool,
    trace_sample: u32,
    slow_us: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: phserve [--addr A] [--metrics-addr A] [--durable DIR | --packed DIR] \
         [--lru-pages N] [--shards N] [--queue-cap N] [--batch-max N] \
         [--workers N] [--shed-wait-us N] [--op-delay-us N] [--no-rebalance] \
         [--trace] [--trace-sample N] [--slow-us N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7070".into(),
        metrics_addr: "127.0.0.1:7071".into(),
        durable: None,
        packed: None,
        lru_pages: None,
        shards: 8,
        cfg: ServerConfig::default(),
        rebalance: true,
        trace: false,
        trace_sample: 64,
        slow_us: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr"),
            "--metrics-addr" => args.metrics_addr = val("--metrics-addr"),
            "--durable" => args.durable = Some(PathBuf::from(val("--durable"))),
            "--packed" => args.packed = Some(PathBuf::from(val("--packed"))),
            "--lru-pages" => {
                args.lru_pages = Some(val("--lru-pages").parse().unwrap_or_else(|_| usage()))
            }
            "--shards" => args.shards = val("--shards").parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => {
                args.cfg.queue_cap = val("--queue-cap").parse().unwrap_or_else(|_| usage())
            }
            "--batch-max" => {
                args.cfg.batch_max = val("--batch-max").parse().unwrap_or_else(|_| usage())
            }
            "--workers" => args.cfg.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--shed-wait-us" => {
                let us: u64 = val("--shed-wait-us").parse().unwrap_or_else(|_| usage());
                args.cfg.shed_wait = Duration::from_micros(us);
            }
            "--op-delay-us" => {
                let us: u64 = val("--op-delay-us").parse().unwrap_or_else(|_| usage());
                args.cfg.op_delay = (us > 0).then(|| Duration::from_micros(us));
            }
            "--no-rebalance" => args.rebalance = false,
            "--trace" => args.trace = true,
            "--trace-sample" => {
                args.trace_sample = val("--trace-sample").parse().unwrap_or_else(|_| usage())
            }
            "--slow-us" => {
                args.slow_us = Some(val("--slow-us").parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();

    if args.trace {
        let cfg = phserve::trace::TraceConfig {
            sample_every: args.trace_sample,
            slow_threshold: match args.slow_us {
                Some(us) => phserve::trace::SlowThreshold::FixedNs(us.saturating_mul(1000)),
                None => phserve::trace::SlowThreshold::Auto,
            },
            ..phserve::trace::TraceConfig::default()
        };
        if phserve::trace::init(cfg) {
            println!(
                "phserve tracing on (sample 1-in-{}, slow threshold {})",
                args.trace_sample.max(1),
                match args.slow_us {
                    Some(us) => format!("{us}us"),
                    None => "auto (trailing p99 x 4)".into(),
                },
            );
        } else {
            eprintln!(
                "phserve: --trace requested but this binary was built without the \
                 `trace` feature; serving untraced (rebuild with --features trace)"
            );
        }
    }

    let registry = Registry::new();

    if args.packed.is_some() && args.durable.is_some() {
        eprintln!("phserve: --packed and --durable are mutually exclusive");
        usage();
    }

    // The backend is generic but the binary must pick one concrete
    // type per branch; each branch owns its server + rebalancer pair.
    let mut serving_shards = args.shards;
    let (_handle, _rebalancer) = if let Some(dir) = &args.packed {
        let mode = match args.lru_pages {
            Some(pages) => CacheMode::Lru { pages },
            None => CacheMode::Resident,
        };
        let shards = PackedShards::<u64, K>::open(dir, mode).unwrap_or_else(|e| {
            eprintln!(
                "phserve: cannot open packed checkpoint at {}: {e}",
                dir.display()
            );
            std::process::exit(1);
        });
        serving_shards = shards.stats().shards;
        let backend = Arc::new(PackedBackend(Arc::new(shards)));
        let handle = spawn(
            backend,
            &args.addr,
            Some(&args.metrics_addr),
            registry,
            args.cfg.clone(),
        )
        .unwrap_or_else(|e| {
            eprintln!("phserve: bind failed: {e}");
            std::process::exit(1);
        });
        // A packed checkpoint never splits: no rebalancer.
        (handle, None)
    } else {
        match &args.durable {
            Some(dir) => {
                let backend = Arc::new(
                    DurableSharded::<u64, K>::open_observed(
                        Arc::new(StdVfs),
                        dir,
                        args.shards,
                        DurableConfig::default(),
                        &registry,
                    )
                    .unwrap_or_else(|e| {
                        eprintln!(
                            "phserve: cannot open durable store at {}: {e}",
                            dir.display()
                        );
                        std::process::exit(1);
                    }),
                );
                let reb = args
                    .rebalance
                    .then(|| Rebalancer::spawn(Arc::clone(&backend), RebalancePolicy::default()));
                let handle = spawn(
                    backend,
                    &args.addr,
                    Some(&args.metrics_addr),
                    registry,
                    args.cfg.clone(),
                )
                .unwrap_or_else(|e| {
                    eprintln!("phserve: bind failed: {e}");
                    std::process::exit(1);
                });
                (handle, reb)
            }
            None => {
                let backend = Arc::new(ShardedTree::<u64, K>::with_metrics(args.shards, &registry));
                let reb = args
                    .rebalance
                    .then(|| Rebalancer::spawn(Arc::clone(&backend), RebalancePolicy::default()));
                let handle = spawn(
                    backend,
                    &args.addr,
                    Some(&args.metrics_addr),
                    registry,
                    args.cfg.clone(),
                )
                .unwrap_or_else(|e| {
                    eprintln!("phserve: bind failed: {e}");
                    std::process::exit(1);
                });
                (handle, reb)
            }
        }
    };

    println!("phserve listening on {}", _handle.addr());
    if let Some(m) = _handle.metrics_addr() {
        println!("phserve metrics on {m}");
    }
    println!(
        "phserve serving {} dims={K} shards={} workers={} queue_cap={}",
        if args.packed.is_some() {
            "packed-readonly"
        } else if args.durable.is_some() {
            "durable"
        } else {
            "in-memory"
        },
        serving_shards,
        args.cfg.workers,
        args.cfg.queue_cap,
    );

    // Serve until killed (CI tears the process down with SIGTERM).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
