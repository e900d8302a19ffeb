//! The TCP server: a thread per connection that answers reads itself,
//! and a shared bounded admission queue whose workers apply writes a
//! run at a time.
//!
//! ## Data flow
//!
//! ```text
//!                              ┌─ read run ──▶ answered here, from one
//! accept loop ──▶ conn thread ─┤               pinned ReadView
//!                 (1 per conn) └─ write run ─▶ admission queue ──▶ worker(s)
//!                       ▼                      (bounded, shared)   (batch pop, one
//!                 conn output ◀───── the run's replies ◀─────────── backend call
//!                 (reused buffer + socket, mutex; one write per run)  per run)
//! ```
//!
//! A connection thread decodes every frame already buffered and serves
//! the requests as maximal runs. A run of reads (`Get`/`Query`/`Knn`/
//! `Stats`/`Ping`) never queues: the thread answers it from **one**
//! pinned [`Backend::read_view`] — a single consistent cross-shard
//! cut, zero locks on the tree read path, zero thread hand-offs —
//! framing into the connection's reused output buffer and writing it
//! once. A run of writes is admitted to the queue. Whoever drains the
//! queue — a worker, or a connection that needs its own writes
//! acknowledged before a read — pops up to [`ServerConfig::batch_max`]
//! jobs (the deeper the queue, the bigger the pop, across connections)
//! and applies each maximal run of consecutive `Insert`/`Remove` jobs
//! with one [`Backend::write_run`] call — on the durable backend one
//! WAL write and one sync per run, however many shards it spans —
//! releasing the run's replies only after it returns: **acked ⇒
//! synced**. An error reply to a run means *outcome unknown* for each
//! of its ops (a prefix of it may be in the log), except
//! `Overloaded`: none applied.
//!
//! ## Backpressure and shedding
//!
//! The queue (writes only) is bounded by [`ServerConfig::queue_cap`],
//! the high-water mark. A connection that finds it there first
//! *blocks* for up to [`ServerConfig::shed_wait`] (it stops reading,
//! TCP flow control pushes back on the client), then replies with a
//! typed `Overloaded` error — the `phshard::ShardError::Overloaded`
//! contract: not applied, safe to retry. Depth never exceeds
//! `queue_cap`; `phserve_queue_depth_peak` exposes the observed
//! maximum. A peer that stops reading its replies is closed once a
//! reply write has taken [`WRITE_TIMEOUT`].
//!
//! ## Ordering
//!
//! A connection answers a read only once every earlier write of its
//! own is acknowledged, and with the default single worker batches
//! apply one at a time in queue order: replies on one connection come
//! in request order, and a connection reads its own writes. Two
//! exceptions, both visible by request id: a shed write's `Overloaded`
//! reply is sent at once and may overtake earlier queued writes' acks,
//! and with `workers > 1` batches may complete out of order (per-key
//! linearizability still comes from the backend's shard locks). Reads
//! do not wait for *other* connections' queued writes; they see every
//! write acknowledged before they were sent.
//!
//! A malformed frame (bad checksum, oversized length, unknown opcode,
//! torn body) yields a typed [`ProtoError`], a best-effort error
//! reply, and closes **only that connection** — the server never
//! panics on input bytes.

use crate::backend::{Backend, ReadView};
use crate::metrics::ServeMetrics;
use crate::proto::{self, ErrorCode, ProtoError, Request, Response, StatsReply};
use crate::sidecar;
use phmetrics::{OpTimer, Registry};
use phshard::ShardError;
use phtree::Op;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reply write may block on a peer that is not reading
/// before the server gives the connection up.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Reply bytes a connection lets a run buffer before writing mid-run.
const FLUSH_AT: usize = 64 << 10;

/// Server tuning. Defaults suit a small host; the load generator and
/// tests shrink the queue to force the shed path deterministically.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-queue high-water mark (hard depth bound) for writes.
    /// A connection finding the queue here blocks for
    /// [`ServerConfig::shed_wait`], then sheds with a typed
    /// `Overloaded` reply.
    pub queue_cap: usize,
    /// Maximum writes a worker pops per lock acquisition — the bound on
    /// a group-committed run.
    pub batch_max: usize,
    /// Worker threads draining the admission queue. 1 (the default)
    /// preserves per-connection reply order.
    pub workers: usize,
    /// How long an admission blocks on a full queue before shedding.
    pub shed_wait: Duration,
    /// Artificial per-backend-call service delay (once per write run
    /// and per read run) — a load-testing aid to emulate an expensive
    /// backend on fast loopback hardware (the overload scenario and
    /// the shed tests use it). `None` in production.
    pub op_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 1024,
            batch_max: 64,
            workers: 1,
            shed_wait: Duration::from_millis(2),
            op_delay: None,
        }
    }
}

/// One connection's write side, shared by its own thread (read
/// replies, sheds) and the workers (write acks).
struct Conn {
    sock: TcpStream,
    out: Mutex<Out>,
    /// Signalled when `unacked` reaches 0 (or the connection dies).
    acked: Condvar,
}

#[derive(Default)]
struct Out {
    /// Framed replies not yet written; reused from run to run.
    buf: Vec<u8>,
    /// Writes of this connection admitted and not yet answered.
    unacked: usize,
    /// The peer is gone or stopped reading: replies are discarded.
    dead: bool,
}

impl Conn {
    fn out(&self) -> MutexGuard<'_, Out> {
        self.out.lock().expect("connection output lock poisoned")
    }

    /// Writes the buffered replies (one `write`, unless the peer is
    /// slow), then counts `acked` queued writes as answered. A write
    /// that fails, or has not finished [`WRITE_TIMEOUT`] after it began,
    /// closes the connection — the ops already happened; the client
    /// just never hears.
    fn flush(&self, out: &mut Out, acked: usize) {
        let deadline = Instant::now() + WRITE_TIMEOUT;
        let mut rest = &out.buf[..];
        while !out.dead && !rest.is_empty() {
            match (&self.sock).write(rest) {
                Ok(n) if n > 0 && Instant::now() < deadline => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => {
                    out.dead = true;
                    let _ = self.sock.shutdown(Shutdown::Both);
                }
            }
        }
        out.buf.clear();
        out.buf.shrink_to(FLUSH_AT);
        out.unacked -= acked;
        if out.unacked == 0 || out.dead {
            self.acked.notify_all();
        }
    }
}

/// What a request carries from decode to reply besides its payload.
struct Meta {
    req_id: u64,
    label: &'static str,
    timer: OpTimer,
    /// Wire-layer trace context (a ZST with the `trace` feature off).
    ctx: phtrace::TraceCtx,
    /// Decode timestamp on the trace clock (0 untraced) — the root
    /// span's start, and the queue-wait span's start.
    enq_ns: u64,
}

/// One admitted write awaiting a worker.
struct Job<const K: usize> {
    meta: Meta,
    req: Request<K>,
    conn: Arc<Conn>,
    /// Queue depth observed at admission, recorded on the queue span.
    depth: u32,
}

/// State shared by every server thread.
struct Shared<B: Backend<K>, const K: usize> {
    backend: Arc<B>,
    cfg: ServerConfig,
    metrics: ServeMetrics,
    queue: Mutex<VecDeque<Job<K>>>,
    /// Signals workers: the queue gained jobs (or stop flipped).
    work: Condvar,
    /// Signals blocked connections: the queue drained below high water.
    space: Condvar,
    /// Held while a batch is popped and applied when one worker is
    /// configured: batches then apply one at a time, in queue order,
    /// whichever thread applies them.
    turn: Mutex<()>,
    stop: AtomicBool,
    /// Live connections (by connection id) so shutdown can unblock
    /// their threads.
    conns: Mutex<HashMap<usize, Arc<Conn>>>,
    /// Runs served, read and write; paces the slow-threshold retune.
    runs: AtomicU64,
}

impl<B: Backend<K>, const K: usize> Shared<B, K> {
    fn stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Admits a connection's run of writes, in order. A job that finds
    /// the queue at high water (or the server stopping) blocks for the
    /// bounded backpressure wait, then is shed with a typed
    /// `Overloaded` reply. Never blocks unboundedly. `wake` is false
    /// when the connection goes on to a read run, which applies the
    /// queue itself ([`Shared::answer`]) sooner than a woken worker.
    fn admit(&self, conn: &Arc<Conn>, run: Vec<(Meta, Request<K>)>, wake: bool) {
        conn.out().unacked += run.len();
        let mut shed = Vec::new();
        let cap = self.cfg.queue_cap;
        let mut q = self.queue.lock().unwrap();
        for (meta, req) in run {
            if q.len() >= cap {
                self.metrics.queue_depth.set(q.len() as i64);
                self.work.notify_one();
                q = self
                    .space
                    .wait_timeout_while(q, self.cfg.shed_wait, |q| q.len() >= cap && !self.stop())
                    .unwrap()
                    .0;
            }
            // Workers leave once the queue is empty and `stop` is set,
            // both observed under this lock: nothing may enter then.
            if q.len() >= cap || self.stop() {
                shed.push(meta);
                continue;
            }
            let depth = q.len() as u32;
            q.push_back(Job {
                meta,
                req,
                conn: Arc::clone(conn),
                depth,
            });
        }
        self.metrics.queue_depth.set(q.len() as i64);
        drop(q);
        if wake {
            self.work.notify_one();
        }
        if shed.is_empty() {
            return;
        }
        let mut out = conn.out();
        let n = shed.len();
        for meta in shed {
            self.metrics.shed.inc();
            phtrace::trigger_dump(&format!(
                "admission shed: op {} (req {}) with queue at high water ({cap})",
                meta.label, meta.req_id,
            ));
            let resp = Response::Error {
                code: ErrorCode::Overloaded,
                detail: format!("admission queue at high water ({cap})"),
            };
            self.reply(&mut out, meta, &resp);
        }
        conn.flush(&mut out, n);
    }

    /// Frames the reply into the connection's output buffer (a `Reply`
    /// trace span) and closes out the op's instruments and its root
    /// span: if decode→now crossed the slow threshold, `finish_root`
    /// assembles the per-phase breakdown into the slow-query log.
    fn reply(&self, out: &mut Out, meta: Meta, resp: &Response<K>) {
        if !out.dead {
            let _t = meta.ctx.attach();
            let reply_span = phtrace::span(phtrace::Phase::Reply);
            let before = out.buf.len();
            proto::frame_response(&mut out.buf, meta.req_id, resp);
            self.metrics
                .bytes_written
                .add((out.buf.len() - before) as u64);
            drop(reply_span);
            phtrace::finish_root(meta.ctx, meta.enq_ns);
        }
        let inst = self.metrics.op(meta.label);
        inst.total.inc();
        inst.latency_ns.finish(meta.timer);
    }

    /// Maps a backend failure to its wire error, counting backend
    /// sheds separately from admission sheds.
    fn err_response(&self, e: &ShardError) -> Response<K> {
        let code = match e {
            ShardError::Overloaded { .. } => {
                self.metrics.backend_overloaded.inc();
                ErrorCode::Overloaded
            }
            // Structurally unserviceable (packed read-only backend),
            // not a backend failure: don't retry, don't page anyone.
            ShardError::ReadOnly => ErrorCode::BadRequest,
            _ => ErrorCode::Internal,
        };
        Response::Error {
            code,
            detail: e.to_string(),
        }
    }

    /// Counts one `phserve_batches_total` batch and, every 64, retunes
    /// the Auto slow-query threshold from live traffic: trailing merged
    /// p99 × 4 (1ms floor so loopback latencies don't flag every op).
    fn note_run(&self, len: usize) {
        self.metrics.batches.inc();
        self.metrics.batch_size.record(len as u64);
        let done = self.runs.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(64) && phtrace::slow_threshold_is_auto() {
            let p99 = self.metrics.merged_latency_p99_ns();
            if p99 > 0 {
                phtrace::set_slow_threshold_ns(p99.saturating_mul(4).max(1_000_000));
            }
        }
    }

    /// Answers a maximal run of reads on the calling connection thread
    /// from **one** read view, pinned once the connection's own earlier
    /// writes are all acknowledged: each read sees them, and every
    /// write any connection had acknowledged before the read was sent.
    fn answer(&self, conn: &Conn, run: impl Iterator<Item = (Meta, Request<K>)>) {
        // Earlier writes first — applied here, with whatever else is
        // queued, rather than slept on until a worker has: a mixed
        // stream then costs no hand-off per write→read boundary. An
        // empty queue means a worker holds them (with one worker, has
        // already finished them: `drain` waited its turn).
        let mut out = conn.out();
        while out.unacked > 0 && !out.dead {
            drop(out);
            let applied = self.drain();
            out = conn.out();
            if !applied && out.unacked > 0 && !out.dead {
                out = conn.acked.wait(out).unwrap();
            }
        }
        // Nobody else touches this output while `unacked` is 0, so the
        // lock is held (uncontended) for the rest of the run.
        if let Some(d) = self.cfg.op_delay {
            std::thread::sleep(d);
        }
        let mut view: Option<ReadView<K>> = None;
        let mut served = 0;
        for (meta, req) in run {
            // Queue-wait span: decode → execution start (earlier
            // writes, any configured op delay, position in the run).
            phtrace::record_queue_wait(meta.ctx, meta.enq_ns, 0);
            let resp = {
                let _t = meta.ctx.attach();
                let view = view.get_or_insert_with(|| self.backend.read_view());
                match &req {
                    Request::Get { key } => view.get(key).map(Response::Value),
                    Request::Query { min, max } => view.query(min, max).map(Response::Entries),
                    Request::Knn { center, n } => {
                        view.knn(center, *n as usize).map(Response::Neighbors)
                    }
                    Request::Stats => {
                        let s = view.stats();
                        Ok(Response::Stats(StatsReply {
                            shards: s.shards as u32,
                            entries: s.entries as u64,
                            epoch: s.epoch,
                            skew: s.skew(),
                        }))
                    }
                    Request::Ping => Ok(Response::Pong),
                    _ => unreachable!("a read run holds no writes"),
                }
                .unwrap_or_else(|e| self.err_response(&e))
            };
            self.reply(&mut out, meta, &resp);
            if out.buf.len() >= FLUSH_AT {
                conn.flush(&mut out, 0);
            }
            served += 1;
        }
        conn.flush(&mut out, 0);
        self.note_run(served);
    }

    /// Makes a write run's backend call. Every job gets its queue-wait
    /// span (decode → now: head-of-line wait, any configured op delay,
    /// batch position); the call executes once, so its fan-out, WAL
    /// and descent spans go to the run's first sampled request (the
    /// rest still carry queue + reply phases).
    fn execute<R>(&self, run: &[Job<K>], call: impl FnOnce() -> R) -> R {
        if let Some(d) = self.cfg.op_delay {
            std::thread::sleep(d);
        }
        for job in run {
            phtrace::record_queue_wait(job.meta.ctx, job.meta.enq_ns, job.depth);
        }
        let ctx = run
            .iter()
            .map(|j| j.meta.ctx)
            .find(|c| c.sampled())
            .unwrap_or_else(phtrace::TraceCtx::off);
        let _t = ctx.attach();
        call()
    }

    /// Releases a run's replies, in order, with one socket write per
    /// connection in the run (a connection's later flushes find its
    /// buffer empty).
    fn finish(&self, run: Vec<Job<K>>, mut resp_of: impl FnMut(&Request<K>) -> Response<K>) {
        let conns: Vec<Arc<Conn>> = run
            .into_iter()
            .map(|job| {
                let resp = resp_of(&job.req);
                self.reply(&mut job.conn.out(), job.meta, &resp);
                job.conn
            })
            .collect();
        for conn in conns {
            conn.flush(&mut conn.out(), 1);
        }
    }

    /// Applies a maximal run of consecutive inserts and removes (or one
    /// bulk load) with one backend call and acknowledges it only
    /// afterwards.
    fn write_run(&self, mut run: Vec<Job<K>>) {
        if let Request::BulkLoad { items } = &mut run[0].req {
            let items = std::mem::take(items);
            let resp = match self.execute(&run, || self.backend.bulk_load(items)) {
                Ok(new) => Response::Loaded { new: new as u32 },
                Err(e) => self.err_response(&e),
            };
            return self.finish(run, |_| resp.clone());
        }
        let ops: Vec<Op<u64, K>> = run
            .iter()
            .map(|job| match job.req {
                Request::Insert { key, value } => Op::Insert { key, value },
                Request::Remove { key } => Op::Remove { key },
                _ => unreachable!("a write run holds inserts and removes"),
            })
            .collect();
        if run.len() > 1 {
            let inserts = ops.iter().filter(|op| matches!(op, Op::Insert { .. }));
            self.metrics.coalesced_inserts.add(inserts.count() as u64);
        }
        let (prevs, status) = self.execute(&run, || self.backend.write_run(ops));
        let failed = status.err().map(|e| self.err_response(&e));
        let mut prevs = prevs.into_iter();
        self.finish(run, |req| match (prevs.next(), req) {
            (Some(_), Request::Insert { .. }) => Response::Ack,
            (Some(prev), _) => Response::Value(prev),
            (None, _) => failed.clone().expect("a run cut short carries its error"),
        });
    }

    /// Pops up to `batch_max` queued writes and applies them run by
    /// run; false if the queue was empty. Called by the workers and by
    /// connections that need their own writes acknowledged.
    fn drain(&self) -> bool {
        let _turn = (self.cfg.workers <= 1).then(|| self.turn.lock().unwrap());
        let batch: Vec<Job<K>> = {
            let mut q = self.queue.lock().unwrap();
            let take = q.len().min(self.cfg.batch_max);
            let batch = q.drain(..take).collect();
            self.metrics.queue_depth.set(q.len() as i64);
            if !q.is_empty() {
                self.work.notify_one(); // more than one batch's worth
            }
            batch
        };
        if batch.is_empty() {
            return false;
        }
        self.space.notify_all();
        self.note_run(batch.len());
        let bulk = |job: &Job<K>| matches!(job.req, Request::BulkLoad { .. });
        let mut rest = batch.into_iter().peekable();
        while let Some(first) = rest.next() {
            let mut run = vec![first];
            if !bulk(&run[0]) {
                run.extend(std::iter::from_fn(|| rest.next_if(|job| !bulk(job))));
            }
            self.write_run(run);
        }
        true
    }

    /// Applies queued writes nobody is waiting on; leaves once the
    /// queue is drained and the server is stopping.
    fn worker_loop(&self) {
        loop {
            let idle = |q: &mut VecDeque<Job<K>>| q.is_empty() && !self.stop();
            let q = self.queue.lock().unwrap();
            let q = self
                .work
                .wait_timeout_while(q, Duration::from_millis(50), idle)
                .unwrap()
                .0;
            if q.is_empty() && self.stop() {
                return;
            }
            drop(q);
            self.drain();
        }
    }

    /// One connection's thread: decodes every frame already buffered,
    /// serves the requests as maximal read and write runs, reads
    /// again. Returns when the peer closes, the frame stream turns
    /// malformed, or the server stops.
    fn serve_conn(&self, mut stream: TcpStream, conn: &Arc<Conn>) {
        let mut inbuf = vec![0u8; 16 << 10];
        let (mut lo, mut hi) = (0usize, 0usize);
        let mut reqs: Vec<(Meta, Request<K>)> = Vec::new();
        let bad: Option<ProtoError> = loop {
            let bad = loop {
                let (body, used) = match proto::split_frame(&inbuf[lo..hi]) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                };
                match proto::decode_request::<K>(body) {
                    Ok((req_id, req)) => {
                        let label = req.label();
                        let meta = Meta {
                            req_id,
                            label,
                            timer: self.metrics.op(label).latency_ns.start(),
                            ctx: phtrace::start_request(
                                req_id,
                                phtrace::TraceOp::from_label(label),
                            ),
                            enq_ns: phtrace::now_ns(),
                        };
                        reqs.push((meta, req));
                    }
                    Err(e) => break Some(e),
                }
                self.metrics.bytes_read.add(used as u64);
                lo += used;
            };
            let mut run = reqs.drain(..).peekable();
            while let Some((_, first)) = run.peek() {
                let writes = first.is_write();
                let mut same = std::iter::from_fn(|| run.next_if(|(_, r)| r.is_write() == writes));
                match writes {
                    true => {
                        let jobs = same.collect();
                        self.admit(conn, jobs, run.peek().is_none());
                    }
                    false => self.answer(conn, &mut same),
                }
            }
            drop(run);
            if bad.is_some() || self.stop() || conn.out().dead {
                break bad;
            }
            // Every whole frame is served: make room and read on. The
            // buffer only grows for a frame larger than itself, and
            // `split_frame` has bounded that frame by `MAX_FRAME`.
            inbuf.copy_within(lo..hi, 0);
            (lo, hi) = (0, hi - lo);
            if hi == inbuf.len() {
                inbuf.resize(2 * hi, 0);
            }
            match stream.read(&mut inbuf[hi..]) {
                Ok(0) if hi == 0 => break None, // clean close at a frame boundary
                Ok(0) => break Some(ProtoError::Truncated),
                Ok(n) => hi += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break None, // reset / our own shutdown
            }
        };
        if let Some(e) = bad.filter(|_| !self.stop()) {
            // Count the malformed frame and best-effort send a typed
            // error reply (request id 0 — the frame's id is
            // untrustworthy) before closing the connection.
            self.metrics.protocol_errors.inc();
            phtrace::trigger_dump(&format!("protocol error: {e}"));
            let resp: Response<K> = Response::Error {
                code: ErrorCode::BadRequest,
                detail: e.to_string(),
            };
            let mut out = conn.out();
            proto::frame_response(&mut out.buf, 0, &resp);
            conn.flush(&mut out, 0);
        }
    }
}

/// A running server. Dropping the handle stops it; [`ServerHandle::stop`]
/// does the same explicitly and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    registry: Registry,
    stop_fn: Option<Box<dyn FnOnce() + Send>>,
    threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// Address the server accepted on (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address of the Prometheus sidecar, if one was started.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The registry every server instrument records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Stops accepting, unblocks and joins every thread. Queued
    /// requests are drained (and answered) before workers exit.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(f) = self.stop_fn.take() {
            f();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conn_threads.lock().unwrap());
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn named(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let spawned = std::thread::Builder::new().name(name).spawn(body);
    spawned.expect("spawn server thread")
}

/// Binds `addr` (use port 0 for an ephemeral port), spawns the accept
/// loop, `cfg.workers` queue workers and — when `metrics_addr` is
/// given — an HTTP sidecar answering `GET /metrics` (Prometheus text
/// exposition from `registry`), `/healthz` + `/livez` (liveness),
/// `/readyz` (readiness JSON) and the `/debug/slow`, `/debug/trace`,
/// `/debug/dumps` tracing endpoints (see [`crate::sidecar`]).
pub fn spawn<B: Backend<K>, const K: usize>(
    backend: Arc<B>,
    addr: &str,
    metrics_addr: Option<&str>,
    registry: Registry,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        backend,
        metrics: ServeMetrics::new(&registry),
        cfg: cfg.clone(),
        queue: Mutex::new(VecDeque::with_capacity(cfg.queue_cap.min(4096))),
        work: Condvar::new(),
        space: Condvar::new(),
        turn: Mutex::new(()),
        stop: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        runs: AtomicU64::new(0),
    });

    let mut threads = Vec::new();
    for w in 0..cfg.workers.max(1) {
        let sh = Arc::clone(&shared);
        threads.push(named(format!("phserve-worker-{w}"), move || {
            sh.worker_loop()
        }));
    }

    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let (sh, ct) = (Arc::clone(&shared), Arc::clone(&conn_threads));
    threads.push(named("phserve-accept".into(), move || {
        for (conn_id, stream) in listener.incoming().enumerate() {
            if sh.stop() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Ok(sock) = stream.try_clone() else {
                continue;
            };
            let _ = sock.set_nodelay(true);
            let _ = sock.set_write_timeout(Some(WRITE_TIMEOUT));
            let conn = Arc::new(Conn {
                sock,
                out: Mutex::default(),
                acked: Condvar::new(),
            });
            sh.metrics.connections_total.inc();
            sh.metrics.connections.add(1);
            sh.conns.lock().unwrap().insert(conn_id, Arc::clone(&conn));
            let conn_shared = Arc::clone(&sh);
            let handle = named(format!("phserve-conn-{conn_id}"), move || {
                conn_shared.serve_conn(stream, &conn);
                conn_shared.conns.lock().unwrap().remove(&conn_id);
                conn_shared.metrics.connections.add(-1);
            });
            let mut ct = ct.lock().unwrap();
            // Let go of finished connection threads so a long-lived
            // server doesn't hoard handles.
            ct.retain(|h| !h.is_finished());
            ct.push(handle);
        }
    }));

    let metrics_local = match metrics_addr {
        Some(maddr) => {
            let mlistener = TcpListener::bind(maddr)?;
            let mlocal = mlistener.local_addr()?;
            let reg = registry.clone();
            let sh = Arc::clone(&shared);
            threads.push(named("phserve-metrics".into(), move || {
                sidecar::serve(
                    &mlistener,
                    &reg,
                    || sh.stop(),
                    || {
                        let depth = sh.queue.lock().unwrap().len();
                        sidecar::readiness_json(!sh.stop(), &*sh.backend, depth, &reg)
                    },
                )
            }));
            Some(mlocal)
        }
        None => None,
    };

    let stop_shared = Arc::clone(&shared);
    let stop_fn = Box::new(move || {
        stop_shared.stop.store(true, Ordering::SeqCst);
        stop_shared.work.notify_all();
        stop_shared.space.notify_all();
        for c in stop_shared.conns.lock().unwrap().values() {
            let _ = c.sock.shutdown(Shutdown::Both);
        }
        // Wake the (blocking) accept loops.
        let _ = TcpStream::connect(local);
        if let Some(m) = metrics_local {
            let _ = TcpStream::connect(m);
        }
    });

    Ok(ServerHandle {
        addr: local,
        metrics_addr: metrics_local,
        registry,
        stop_fn: Some(stop_fn),
        threads,
        conn_threads,
    })
}
