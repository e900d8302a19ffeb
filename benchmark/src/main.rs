//! `stackbench` — the repository's benchmark. One invocation runs one
//! workload once, untraced (`--trace 0`: the end-to-end metrics) or
//! traced (`--trace 1`: the per-layer metrics), checks every reply
//! against an in-harness model, and prints every metric by name with
//! its unit; the last line of output is the result object.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions. See `benchmark/README.md`.

mod affinity;
mod alloc;
mod embed;
mod layers;
mod model;
mod procfs;
mod quantile;
mod report;
mod serve;
mod span;
mod vfs;

use embed::EmbedSpec;
use serve::{Mix, Probes, ServeSpec, StoreKind, CONNS};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::GatedAlloc = alloc::GatedAlloc;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Timed work per run.
    pub seconds: f64,
    pub trace: bool,
    /// Scales dataset sizes; 1 is the benchmark.
    pub scale: f64,
    /// Where temporary stores and the trace file go.
    pub out_dir: PathBuf,
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const SERVE_POINT_K3: ServeSpec = ServeSpec {
    name: "serve_point_k3",
    store: StoreKind::Mem,
    entries: 1_000_000,
    mix: Mix {
        get: 1000,
        insert: 0,
        remove: 0,
        window: 0,
        knn: 0,
    },
    overwrites: false,
    window_hits: 10.0,
    depth: 64,
    tput_ops: 10_000,
    probes: Probes {
        gets: 800,
        writes: 100,
        windows: 100,
        knns: 50,
    },
    scan_pool: 64,
};

const SERVE_WINDOW_K8: ServeSpec = ServeSpec {
    name: "serve_window_k8",
    store: StoreKind::Mem,
    entries: 500_000,
    mix: Mix {
        get: 0,
        insert: 0,
        remove: 0,
        window: 900,
        knn: 100,
    },
    overwrites: false,
    window_hits: 100.0,
    depth: 16,
    tput_ops: 150,
    probes: Probes {
        gets: 300,
        writes: 50,
        windows: 100,
        knns: 15,
    },
    scan_pool: 256,
};

const SERVE_MIXED_K3: ServeSpec = ServeSpec {
    name: "serve_mixed_k3",
    store: StoreKind::Mem,
    entries: 200_000,
    mix: Mix {
        get: 500,
        insert: 300,
        remove: 100,
        window: 100,
        knn: 0,
    },
    overwrites: true,
    window_hits: 10.0,
    depth: 64,
    tput_ops: 5000,
    probes: Probes {
        gets: 800,
        writes: 150,
        windows: 150,
        knns: 50,
    },
    scan_pool: 0,
};

const DURABLE_INGEST_K3: ServeSpec = ServeSpec {
    name: "durable_ingest_k3",
    store: StoreKind::Durable,
    entries: 100_000,
    mix: Mix {
        get: 0,
        insert: 900,
        remove: 100,
        window: 0,
        knn: 0,
    },
    overwrites: false,
    window_hits: 10.0,
    depth: 64,
    tput_ops: 1500,
    probes: Probes {
        gets: 1000,
        writes: 200,
        windows: 200,
        knns: 100,
    },
    scan_pool: 0,
};

const PACKED_COLD_K8: ServeSpec = ServeSpec {
    name: "packed_cold_k8",
    store: StoreKind::Packed,
    entries: 500_000,
    mix: Mix {
        get: 600,
        insert: 0,
        remove: 0,
        window: 350,
        knn: 50,
    },
    overwrites: false,
    window_hits: 50.0,
    depth: 64,
    tput_ops: 100,
    probes: Probes {
        gets: 300,
        writes: 0,
        windows: 60,
        knns: 8,
    },
    scan_pool: 256,
};

const EMBED_K20: EmbedSpec = EmbedSpec {
    entries: 10_000,
    windows: 100,
    knns: 50,
    window_hits: 100.0,
};

pub const WORKLOADS: [&str; 6] = [
    "serve_point_k3",
    "serve_window_k8",
    "serve_mixed_k3",
    "durable_ingest_k3",
    "packed_cold_k8",
    "embed_k20",
];

fn usage() -> ! {
    eprintln!(
        "usage: stackbench --workload NAME --seed N --seconds S --trace 0|1 [--scale F] [--out DIR]\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = value;
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| args.seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    args.trace = true;
                    true
                }
                _ => false,
            },
            "--scale" => value.parse().map(|v| args.scale = v).is_ok(),
            "--out" => {
                args.out_dir = PathBuf::from(value);
                true
            }
            _ => false,
        };
        if !ok {
            usage();
        }
    }
    if !(args.scale > 0.0 && args.seconds > 0.0) {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    if host_cores() < CONNS {
        eprintln!(
            "stackbench: {} core(s), but the load is {CONNS} client threads beside the server",
            host_cores()
        );
        std::process::exit(1);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("stackbench: create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let out = match args.workload.as_str() {
        "serve_point_k3" => serve::run::<3>(&SERVE_POINT_K3, &args),
        "serve_window_k8" => serve::run::<8>(&SERVE_WINDOW_K8, &args),
        "serve_mixed_k3" => serve::run::<3>(&SERVE_MIXED_K3, &args),
        "durable_ingest_k3" => serve::run::<3>(&DURABLE_INGEST_K3, &args),
        "packed_cold_k8" => serve::run::<8>(&PACKED_COLD_K8, &args),
        "embed_k20" => embed::run::<20>(&EMBED_K20, &args),
        _ => usage(),
    };
    out.print(&format!(
        "workload {} seed {} scale {} seconds {} trace {} host_cores {}",
        args.workload,
        args.seed,
        args.scale,
        args.seconds,
        args.trace as u8,
        host_cores()
    ));
}
