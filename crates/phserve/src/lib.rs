//! # phserve — a TCP serving front end for the sharded PH-tree
//!
//! The stack below this crate already serves concurrent in-process
//! callers: `phshard` routes keys to shards by Z-order prefix, splits
//! hot shards online, and (durably) journals per shard; `phmetrics`
//! instruments all of it. This crate puts a network edge on top:
//!
//! * [`proto`] — a length-prefixed, FNV-1a-checksummed binary protocol
//!   (the same checksum discipline as the phstore WAL) carrying the
//!   full op surface: insert, get, remove, window query, kNN,
//!   bulk-ingest, stats, ping. Requests carry ids, so one connection
//!   can pipeline arbitrarily many.
//! * [`server`] — std-only, a thread per connection. A connection
//!   decodes every buffered frame and serves the requests as runs: a
//!   run of reads is answered on the connection thread itself from one
//!   pinned read view (no queue, no hand-off); a run of writes enters a
//!   **shared bounded admission queue** whose workers apply each run of
//!   pipelined inserts/removes with one backend call — one WAL write
//!   and one sync per shard on the durable backend — and only then
//!   release its acks. At the queue's high-water mark admission first
//!   *blocks* the connection (backpressure via TCP flow control), then
//!   sheds with a typed `Overloaded` reply — the same not-applied,
//!   safe-to-retry contract `phshard` uses for migration backlog
//!   shedding. A Prometheus sidecar answers `GET /metrics`.
//! * [`backend`] — one trait over [`phshard::ShardedTree`],
//!   [`phshard::DurableSharded`] and the read-only
//!   [`backend::PackedBackend`] (a `phpack` packed checkpoint),
//!   flag-selected at startup.
//! * [`trace`] — bootstrap for the `phtrace` flight recorder: with the
//!   `trace` cargo feature every request carries a trace context from
//!   the wire through admission, fan-out, descent, WAL and page cache;
//!   the sidecar answers `GET /debug/slow`, `/debug/trace?n=` and
//!   `/debug/dumps`, and `/healthz` splits into `/livez` + `/readyz`.
//! * [`client`] — a blocking pipelining client.
//! * [`load`] — the `phload` scenario engine: four standard mixes plus
//!   an overload run, exact per-op percentiles, and an acked-ops model
//!   check proving no write is lost or applied without an ack.
//!
//! Binaries: `phserve` (the server) and `phload` (the load generator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod load;
mod metrics;
pub mod proto;
pub mod server;
mod sidecar;
pub mod trace;

pub use backend::{Backend, PackedBackend, ReadView};
pub use client::Client;
pub use load::{LoadConfig, Scenario, ScenarioReport, SERVE_DIMS};
pub use proto::{ErrorCode, ProtoError, Request, Response, StatsReply};
pub use server::{spawn, ServerConfig, ServerHandle};
