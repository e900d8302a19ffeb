//! A blocking, pipelining client for the phserve wire protocol.
//!
//! [`Client::send`] queues a framed request and returns its id without
//! waiting; [`Client::recv`] reads frames until the wanted id arrives,
//! stashing any other replies for later `recv` calls — so a caller may
//! keep dozens of requests in flight on one connection and the server
//! serves them a run at a time (reads in place, writes group-committed
//! off the admission queue). [`Client::call`] is the
//! one-shot send + flush + receive convenience.

use crate::proto::{self, ProtoError, Request, Response, StatsReply};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One protocol connection. Not thread-safe — use one client per
/// thread (the server copes with any number of connections).
pub struct Client<const K: usize> {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    next_id: u64,
    /// Replies that arrived while waiting for a different id.
    stash: HashMap<u64, Response<K>>,
}

impl<const K: usize> Client<K> {
    /// Connects to a phserve endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            r: BufReader::new(stream),
            w: BufWriter::new(write_half),
            next_id: 1,
            stash: HashMap::new(),
        })
    }

    /// Sets a read timeout for replies (None = block forever).
    pub fn set_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.r.get_ref().set_read_timeout(d)
    }

    /// Queues `req` (buffered, not flushed) and returns its request id.
    pub fn send(&mut self, req: &Request<K>) -> Result<u64, ProtoError> {
        let id = self.next_id;
        self.next_id += 1;
        proto::write_frame(&mut self.w, &proto::encode_request(id, req))?;
        Ok(id)
    }

    /// Flushes every queued request to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Waits for the reply to request `id`, stashing out-of-order
    /// replies. Flushes first so a bare `send`+`recv` cannot deadlock.
    pub fn recv(&mut self, id: u64) -> Result<Response<K>, ProtoError> {
        if let Some(resp) = self.stash.remove(&id) {
            return Ok(resp);
        }
        self.w.flush()?;
        loop {
            let body = proto::read_frame(&mut self.r)?.ok_or_else(|| {
                ProtoError::Io(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "server closed the connection while replies were pending",
                ))
            })?;
            let (rid, resp) = proto::decode_response::<K>(&body)?;
            if rid == id {
                return Ok(resp);
            }
            self.stash.insert(rid, resp);
        }
    }

    /// Sends `req`, flushes, and waits for its reply.
    pub fn call(&mut self, req: &Request<K>) -> Result<Response<K>, ProtoError> {
        let id = self.send(req)?;
        self.recv(id)
    }

    // Typed conveniences for the common ops. Each maps an unexpected
    // reply shape to `ProtoError::Malformed` and a typed server error
    // to `Err` via `expect`-style matching in the caller if needed.

    /// Upserts `key` → `value`. `Ok(())` on ack, the error reply
    /// otherwise.
    pub fn insert(&mut self, key: [u64; K], value: u64) -> Result<Response<K>, ProtoError> {
        self.call(&Request::Insert { key, value })
    }

    /// Point lookup.
    pub fn get(&mut self, key: [u64; K]) -> Result<Option<u64>, ProtoError> {
        match self.call(&Request::Get { key })? {
            Response::Value(v) => Ok(v),
            _ => Err(ProtoError::Malformed("unexpected reply to get")),
        }
    }

    /// Removes `key`, returning the removed value.
    pub fn remove(&mut self, key: [u64; K]) -> Result<Response<K>, ProtoError> {
        self.call(&Request::Remove { key })
    }

    /// Window query over `[min, max]`.
    pub fn query(
        &mut self,
        min: [u64; K],
        max: [u64; K],
    ) -> Result<Vec<([u64; K], u64)>, ProtoError> {
        match self.call(&Request::Query { min, max })? {
            Response::Entries(e) => Ok(e),
            _ => Err(ProtoError::Malformed("unexpected reply to query")),
        }
    }

    /// `n` nearest neighbours of `center`, nearest first.
    pub fn knn(
        &mut self,
        center: [u64; K],
        n: u32,
    ) -> Result<Vec<([u64; K], u64, f64)>, ProtoError> {
        match self.call(&Request::Knn { center, n })? {
            Response::Neighbors(h) => Ok(h),
            _ => Err(ProtoError::Malformed("unexpected reply to knn")),
        }
    }

    /// Batch upsert through the server's bulk-admission path.
    pub fn bulk_load(&mut self, items: Vec<([u64; K], u64)>) -> Result<Response<K>, ProtoError> {
        self.call(&Request::BulkLoad { items })
    }

    /// Server statistics snapshot.
    pub fn stats(&mut self) -> Result<StatsReply, ProtoError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ProtoError::Malformed("unexpected reply to stats")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ProtoError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ProtoError::Malformed("unexpected reply to ping")),
        }
    }
}
