//! The phserve wire protocol: length-prefixed, CRC-checked binary
//! frames over TCP.
//!
//! ## Frame layout
//!
//! ```text
//! len   u32 LE   body length in bytes (0 < len <= MAX_FRAME)
//! crc   u64 LE   FNV-1a of the body (same checksum discipline as the
//!                phstore WAL frames)
//! body  len bytes
//! ```
//!
//! A request body is `req_id u64 LE | opcode u8 | payload`; a response
//! body is `req_id u64 LE | opcode u8 | payload` with the request's id
//! echoed back, so clients may pipeline arbitrarily many requests on
//! one connection and match replies by id. Key-carrying ops embed a
//! dimension byte so a server can reject a client compiled for a
//! different `K` with a typed error instead of misreading key bytes.
//!
//! Every decode failure is a typed [`ProtoError`] — truncated,
//! oversized, bit-flipped and garbage frames must never panic the
//! peer; the server closes (only) the offending connection.

use phstore::fnv1a;
use std::io::{self, Read, Write};

/// Hard bound on a frame body. Larger `len` prefixes are rejected with
/// [`ProtoError::Oversized`] *before* any allocation, so a corrupt or
/// hostile length prefix cannot OOM the server.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of `len` + `crc` preceding every body.
pub const HEADER_LEN: usize = 12;

// Request opcodes.
const OP_INSERT: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_REMOVE: u8 = 0x03;
const OP_QUERY: u8 = 0x04;
const OP_KNN: u8 = 0x05;
const OP_BULK: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_PING: u8 = 0x08;

// Response opcodes (high bit set).
const RP_ACK: u8 = 0x81;
const RP_VALUE: u8 = 0x82;
const RP_ENTRIES: u8 = 0x84;
const RP_NEIGHBORS: u8 = 0x85;
const RP_LOADED: u8 = 0x86;
const RP_STATS: u8 = 0x87;
const RP_PONG: u8 = 0x88;
const RP_ERROR: u8 = 0xE0;

/// Everything that can go wrong turning bytes into frames and frames
/// into ops. One variant per failure mode so the server's protocol
/// error counter and the tests can tell them apart.
#[derive(Debug)]
pub enum ProtoError {
    /// The stream ended (or the body was shorter than a field needs)
    /// mid-frame — a torn frame, not a clean close.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Length the prefix claimed.
        len: usize,
        /// The enforced bound.
        max: usize,
    },
    /// Body bytes do not match the frame checksum.
    BadCrc {
        /// Checksum carried by the frame.
        expect: u64,
        /// Checksum of the bytes actually received.
        got: u64,
    },
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Key-carrying op for a different dimension count than this
    /// server/client was built for.
    BadDims {
        /// Dimension byte in the frame.
        got: u8,
        /// Dimension count of this endpoint.
        want: u8,
    },
    /// Structurally invalid payload (bad tag, trailing bytes, count
    /// that disagrees with the body length, …).
    Malformed(&'static str),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte bound")
            }
            ProtoError::BadCrc { expect, got } => {
                write!(
                    f,
                    "frame checksum mismatch (frame {expect:#x}, body {got:#x})"
                )
            }
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadDims { got, want } => {
                write!(f, "frame is {got}-dimensional, this endpoint serves {want}")
            }
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Error codes a server can attach to an [`Response::Error`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue (or a migrating shard's backlog) is past
    /// its high-water mark; the op was **not** applied and is safe to
    /// retry. The serving-layer contract of
    /// `phshard::ShardError::Overloaded` carried over the wire.
    Overloaded,
    /// The request was well-formed at the frame level but unserviceable
    /// (e.g. dimension mismatch).
    BadRequest,
    /// The backend failed (store I/O, corruption). Not retryable
    /// blindly.
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtoError> {
        match b {
            1 => Ok(ErrorCode::Overloaded),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Internal),
            _ => Err(ProtoError::Malformed("unknown error code")),
        }
    }
}

/// One client request. Values are `u64` — the serving tier stores ids,
/// not payloads (the paper's PH-tree maps keys to references).
#[derive(Debug, Clone, PartialEq)]
pub enum Request<const K: usize> {
    /// Upsert `key` → `value`, acked without the previous value.
    Insert {
        /// Key to upsert.
        key: [u64; K],
        /// Value to store.
        value: u64,
    },
    /// Point lookup.
    Get {
        /// Key to look up.
        key: [u64; K],
    },
    /// Remove `key`, returning the removed value.
    Remove {
        /// Key to remove.
        key: [u64; K],
    },
    /// Window query over the axis-aligned box `[min, max]` (inclusive).
    Query {
        /// Lower corner.
        min: [u64; K],
        /// Upper corner.
        max: [u64; K],
    },
    /// `n` nearest neighbours of `center`.
    Knn {
        /// Query point.
        center: [u64; K],
        /// Neighbour count.
        n: u32,
    },
    /// Batch upsert, routed through the backend's bulk-admission seam.
    BulkLoad {
        /// Key/value pairs (last write wins on duplicates).
        items: Vec<([u64; K], u64)>,
    },
    /// Server statistics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
}

impl<const K: usize> Request<K> {
    /// Whether the request mutates the store: the server queues
    /// writes for its workers and answers everything else in place.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Insert { .. } | Request::Remove { .. } | Request::BulkLoad { .. }
        )
    }

    /// Short op label for metrics/latency series.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Insert { .. } => "insert",
            Request::Get { .. } => "get",
            Request::Remove { .. } => "remove",
            Request::Query { .. } => "query",
            Request::Knn { .. } => "knn",
            Request::BulkLoad { .. } => "bulk_load",
            Request::Stats => "stats",
            Request::Ping => "ping",
        }
    }
}

/// Statistics payload of a [`Response::Stats`] reply.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// Live shard count.
    pub shards: u32,
    /// Total entries.
    pub entries: u64,
    /// Routing epoch (bumps on every committed hot-shard split).
    pub epoch: u64,
    /// Max-to-mean shard occupancy (1.0 = balanced).
    pub skew: f64,
}

/// One server reply. Carries the request's id on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response<const K: usize> {
    /// Insert applied.
    Ack,
    /// Get / remove result.
    Value(Option<u64>),
    /// Window query hits, in global Z-order.
    Entries(Vec<([u64; K], u64)>),
    /// kNN hits, nearest first, with distances.
    Neighbors(Vec<([u64; K], u64, f64)>),
    /// Bulk load applied; `new` keys were not previously present.
    Loaded {
        /// Newly inserted key count.
        new: u32,
    },
    /// Statistics snapshot.
    Stats(StatsReply),
    /// Liveness reply.
    Pong,
    /// Typed failure; see [`ErrorCode`].
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable context.
        detail: String,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_key<const K: usize>(out: &mut Vec<u8>, key: &[u64; K]) {
    for d in key {
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// Encodes a request body (no frame header).
pub fn encode_request<const K: usize>(req_id: u64, req: &Request<K>) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + K * 8);
    out.extend_from_slice(&req_id.to_le_bytes());
    match req {
        Request::Insert { key, value } => {
            out.push(OP_INSERT);
            out.push(K as u8);
            put_key(&mut out, key);
            out.extend_from_slice(&value.to_le_bytes());
        }
        Request::Get { key } => {
            out.push(OP_GET);
            out.push(K as u8);
            put_key(&mut out, key);
        }
        Request::Remove { key } => {
            out.push(OP_REMOVE);
            out.push(K as u8);
            put_key(&mut out, key);
        }
        Request::Query { min, max } => {
            out.push(OP_QUERY);
            out.push(K as u8);
            put_key(&mut out, min);
            put_key(&mut out, max);
        }
        Request::Knn { center, n } => {
            out.push(OP_KNN);
            out.push(K as u8);
            put_key(&mut out, center);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Request::BulkLoad { items } => {
            out.push(OP_BULK);
            out.push(K as u8);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for (k, v) in items {
                put_key(&mut out, k);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Request::Stats => out.push(OP_STATS),
        Request::Ping => out.push(OP_PING),
    }
    out
}

/// Encodes a response body (no frame header).
pub fn encode_response<const K: usize>(req_id: u64, resp: &Response<K>) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_response(&mut out, req_id, resp);
    out
}

/// Appends one whole response frame — header and body — to `out`,
/// encoding the body in place: a connection's replies accumulate in
/// one reused buffer, without a `Vec` per body and per frame.
pub fn frame_response<const K: usize>(out: &mut Vec<u8>, req_id: u64, resp: &Response<K>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    put_response(out, req_id, resp);
    let body = start + HEADER_LEN;
    debug_assert!(out.len() - body <= MAX_FRAME);
    let len = (out.len() - body) as u32;
    let crc = fnv1a(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
}

fn put_response<const K: usize>(out: &mut Vec<u8>, req_id: u64, resp: &Response<K>) {
    out.extend_from_slice(&req_id.to_le_bytes());
    match resp {
        Response::Ack => out.push(RP_ACK),
        Response::Value(v) => {
            out.push(RP_VALUE);
            match v {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        Response::Entries(entries) => {
            out.push(RP_ENTRIES);
            out.push(K as u8);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (k, v) in entries {
                put_key(out, k);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Neighbors(hits) => {
            out.push(RP_NEIGHBORS);
            out.push(K as u8);
            out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
            for (k, v, d) in hits {
                put_key(out, k);
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
        }
        Response::Loaded { new } => {
            out.push(RP_LOADED);
            out.extend_from_slice(&new.to_le_bytes());
        }
        Response::Stats(s) => {
            out.push(RP_STATS);
            out.extend_from_slice(&s.shards.to_le_bytes());
            out.extend_from_slice(&s.entries.to_le_bytes());
            out.extend_from_slice(&s.epoch.to_le_bytes());
            out.extend_from_slice(&s.skew.to_bits().to_le_bytes());
        }
        Response::Pong => out.push(RP_PONG),
        Response::Error { code, detail } => {
            out.push(RP_ERROR);
            out.push(code.to_byte());
            let bytes = detail.as_bytes();
            let n = bytes.len().min(u16::MAX as usize);
            out.extend_from_slice(&(n as u16).to_le_bytes());
            out.extend_from_slice(&bytes[..n]);
        }
    }
}

/// Wraps a body in the length + checksum frame header.
pub fn frame(body: &[u8]) -> Vec<u8> {
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Byte cursor over one frame body; every read is bounds-checked into
/// [`ProtoError::Truncated`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let s = self
            .buf
            .get(self.pos..self.pos.checked_add(n).ok_or(ProtoError::Truncated)?)
            .ok_or(ProtoError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn key<const K: usize>(&mut self) -> Result<[u64; K], ProtoError> {
        let mut key = [0u64; K];
        for d in key.iter_mut() {
            *d = self.u64()?;
        }
        Ok(key)
    }

    fn dims<const K: usize>(&mut self) -> Result<(), ProtoError> {
        let got = self.u8()?;
        if got as usize != K {
            return Err(ProtoError::BadDims { got, want: K as u8 });
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Decodes one request body into `(req_id, request)`.
pub fn decode_request<const K: usize>(body: &[u8]) -> Result<(u64, Request<K>), ProtoError> {
    let mut c = Cursor::new(body);
    let req_id = c.u64()?;
    let op = c.u8()?;
    let req = match op {
        OP_INSERT => {
            c.dims::<K>()?;
            Request::Insert {
                key: c.key()?,
                value: c.u64()?,
            }
        }
        OP_GET => {
            c.dims::<K>()?;
            Request::Get { key: c.key()? }
        }
        OP_REMOVE => {
            c.dims::<K>()?;
            Request::Remove { key: c.key()? }
        }
        OP_QUERY => {
            c.dims::<K>()?;
            Request::Query {
                min: c.key()?,
                max: c.key()?,
            }
        }
        OP_KNN => {
            c.dims::<K>()?;
            Request::Knn {
                center: c.key()?,
                n: c.u32()?,
            }
        }
        OP_BULK => {
            c.dims::<K>()?;
            let n = c.u32()? as usize;
            // An item is K coordinates + a value; a count that cannot
            // fit the remaining body is a lie, not an allocation hint.
            if n.checked_mul((K + 1) * 8)
                .is_none_or(|need| need > body.len() - c.pos)
            {
                return Err(ProtoError::Malformed("bulk count exceeds body"));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push((c.key()?, c.u64()?));
            }
            Request::BulkLoad { items }
        }
        OP_STATS => Request::Stats,
        OP_PING => Request::Ping,
        other => return Err(ProtoError::BadOpcode(other)),
    };
    c.finish()?;
    Ok((req_id, req))
}

/// Decodes one response body into `(req_id, response)`.
pub fn decode_response<const K: usize>(body: &[u8]) -> Result<(u64, Response<K>), ProtoError> {
    let mut c = Cursor::new(body);
    let req_id = c.u64()?;
    let op = c.u8()?;
    let resp = match op {
        RP_ACK => Response::Ack,
        RP_VALUE => match c.u8()? {
            0 => Response::Value(None),
            1 => Response::Value(Some(c.u64()?)),
            _ => return Err(ProtoError::Malformed("bad value tag")),
        },
        RP_ENTRIES => {
            c.dims::<K>()?;
            let n = c.u32()? as usize;
            if n.checked_mul((K + 1) * 8)
                .is_none_or(|need| need > body.len() - c.pos)
            {
                return Err(ProtoError::Malformed("entry count exceeds body"));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((c.key()?, c.u64()?));
            }
            Response::Entries(entries)
        }
        RP_NEIGHBORS => {
            c.dims::<K>()?;
            let n = c.u32()? as usize;
            if n.checked_mul((K + 2) * 8)
                .is_none_or(|need| need > body.len() - c.pos)
            {
                return Err(ProtoError::Malformed("neighbor count exceeds body"));
            }
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                hits.push((c.key()?, c.u64()?, f64::from_bits(c.u64()?)));
            }
            Response::Neighbors(hits)
        }
        RP_LOADED => Response::Loaded { new: c.u32()? },
        RP_STATS => Response::Stats(StatsReply {
            shards: c.u32()?,
            entries: c.u64()?,
            epoch: c.u64()?,
            skew: f64::from_bits(c.u64()?),
        }),
        RP_PONG => Response::Pong,
        RP_ERROR => {
            let code = ErrorCode::from_byte(c.u8()?)?;
            let n = c.u16()? as usize;
            let detail = std::str::from_utf8(c.take(n)?)
                .map_err(|_| ProtoError::Malformed("error detail not utf-8"))?
                .to_string();
            Response::Error { code, detail }
        }
        other => return Err(ProtoError::BadOpcode(other)),
    };
    c.finish()?;
    Ok((req_id, resp))
}

// ---------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------

/// Parses a frame header into `(body length, checksum)`, enforcing
/// the length bounds before anything is allocated or awaited.
fn parse_header(header: &[u8]) -> Result<(usize, u64), ProtoError> {
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let crc = u64::from_le_bytes(header[4..12].try_into().unwrap());
    if len == 0 {
        return Err(ProtoError::Malformed("empty frame body"));
    }
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    Ok((len, crc))
}

fn check_crc(body: &[u8], crc: u64) -> Result<(), ProtoError> {
    let got = fnv1a(body);
    if got != crc {
        return Err(ProtoError::BadCrc { expect: crc, got });
    }
    Ok(())
}

/// Reads one frame from `r`, verifying length bound and checksum.
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary
/// (the peer closed between requests); EOF anywhere else is
/// [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let (len, crc) = parse_header(&header)?;
    let mut body = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut body) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        });
    }
    check_crc(&body, crc)?;
    Ok(Some(body))
}

/// Splits the first frame off `buf` — bytes already read from a
/// stream — verifying length bound and checksum: `(body, bytes
/// consumed)`, or `Ok(None)` while the frame is still incomplete. The
/// server drains every buffered frame this way before it reads again.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    let Some(header) = buf.get(..HEADER_LEN) else {
        return Ok(None);
    };
    let (len, crc) = parse_header(header)?;
    let Some(body) = buf.get(HEADER_LEN..HEADER_LEN + len) else {
        return Ok(None);
    };
    check_crc(body, crc)?;
    Ok(Some((body, HEADER_LEN + len)))
}

/// Writes one framed body to `w`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&frame(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_op() {
        let reqs: Vec<Request<3>> = vec![
            Request::Insert {
                key: [1, 2, u64::MAX],
                value: 9,
            },
            Request::Get { key: [0; 3] },
            Request::Remove { key: [5; 3] },
            Request::Query {
                min: [0; 3],
                max: [10; 3],
            },
            Request::Knn {
                center: [7; 3],
                n: 4,
            },
            Request::BulkLoad {
                items: vec![([1, 1, 1], 1), ([2, 2, 2], 2)],
            },
            Request::Stats,
            Request::Ping,
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let body = encode_request(i as u64, &req);
            let (id, back) = decode_request::<3>(&body).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(back, req);
        }
        let resps: Vec<Response<3>> = vec![
            Response::Ack,
            Response::Value(None),
            Response::Value(Some(3)),
            Response::Entries(vec![([1, 2, 3], 4)]),
            Response::Neighbors(vec![([1, 2, 3], 4, 2.5)]),
            Response::Loaded { new: 17 },
            Response::Stats(StatsReply {
                shards: 8,
                entries: 100,
                epoch: 2,
                skew: 1.25,
            }),
            Response::Pong,
            Response::Error {
                code: ErrorCode::Overloaded,
                detail: "queue full".into(),
            },
        ];
        for (i, resp) in resps.into_iter().enumerate() {
            let body = encode_response(i as u64, &resp);
            let (id, back) = decode_response::<3>(&body).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn framed_stream_roundtrip_and_clean_eof() {
        let a = encode_request(1, &Request::<3>::Ping);
        let b = encode_request(2, &Request::<3>::Stats);
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn in_place_framing_matches_and_splits_back() {
        let resps: [Response<3>; 3] = [
            Response::Ack,
            Response::Value(Some(7)),
            Response::Entries(vec![([1, 2, 3], 4), ([5, 6, 7], 8)]),
        ];
        let (mut stream, mut expect) = (Vec::new(), Vec::new());
        for (i, resp) in resps.iter().enumerate() {
            frame_response(&mut stream, i as u64, resp);
            expect.extend(frame(&encode_response(i as u64, resp)));
        }
        assert_eq!(stream, expect, "same bytes as encode + frame");
        let mut rest = &stream[..];
        for (i, resp) in resps.iter().enumerate() {
            assert!(split_frame(&rest[..rest.len().min(HEADER_LEN + 3)])
                .unwrap()
                .is_none());
            let (body, used) = split_frame(rest).unwrap().expect("a whole frame");
            assert_eq!(
                decode_response::<3>(body).unwrap(),
                (i as u64, resp.clone())
            );
            rest = &rest[used..];
        }
        assert!(split_frame(rest).unwrap().is_none(), "drained");
        stream[HEADER_LEN] ^= 1;
        assert!(matches!(
            split_frame(&stream),
            Err(ProtoError::BadCrc { .. })
        ));
    }

    #[test]
    fn dims_mismatch_is_typed() {
        let body = encode_request(1, &Request::<3>::Get { key: [1, 2, 3] });
        match decode_request::<4>(&body) {
            Err(ProtoError::BadDims { got: 3, want: 4 }) => {}
            other => panic!("expected BadDims, got {other:?}"),
        }
    }

    #[test]
    fn oversized_len_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_frame(&mut &buf[..]) {
            Err(ProtoError::Oversized { .. }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}
