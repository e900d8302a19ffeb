//! Write-ahead log of logical tree mutations.
//!
//! The paper's outlook argues the PH-tree suits persistence because
//! every update touches at most two nodes — so a durable layer need not
//! re-serialise structure per update. We go one step smaller: the WAL
//! journals *logical* ops ([`phtree::Op`]) — a key and maybe a value —
//! and recovery replays them onto the last snapshot. Replay is
//! order-dependent but canonical: the PH-tree reaches the identical
//! structure regardless of how the same content was produced.
//!
//! ## File format
//!
//! Header (24 bytes):
//!
//! ```text
//! [magic b"PHWAL001" (8)][generation u64 LE (8)][fnv1a(magic‖gen) (8)]
//! ```
//!
//! then zero or more frames:
//!
//! ```text
//! [len u32 LE][fnv1a(payload) u64 LE][payload: len bytes]
//! payload = [op u8: 1=Insert 2=Remove][key: K × u64 LE][value: ValueCodec]
//! ```
//!
//! The `generation` ties the log to the snapshot it extends: a log
//! whose generation is older than the snapshot's is stale (its ops are
//! already checkpointed) and is discarded on recovery.
//!
//! ## Torn tails
//!
//! A crash can leave a partial frame at the end of the log (and, on a
//! bit flip, a corrupt frame anywhere). [`recover`] scans frames from
//! the start and stops at the first frame that is truncated, oversized
//! or checksum-mismatched — everything before it is replayable,
//! everything from it on is discarded by truncating the file. A torn
//! tail is an expected artefact of crashing, **never** an error.

use crate::codec::ValueCodec;
use crate::error::{Corruption, StoreError};
use crate::metrics::StoreMetrics;
use crate::vfs::{Vfs, VfsFile};
use phtree::Op;
use std::path::Path;

/// WAL file magic (8 bytes, versioned).
pub const WAL_MAGIC: &[u8; 8] = b"PHWAL001";
/// Header size in bytes: magic + generation + checksum.
pub const WAL_HEADER: u64 = 24;
const FRAME_HEADER: usize = 4 + 8;
/// Upper bound on a single frame payload; anything larger in a length
/// prefix is treated as corruption (stops the scan).
const MAX_FRAME: u32 = 64 * 1024 * 1024;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

fn header_bytes(generation: u64) -> [u8; WAL_HEADER as usize] {
    let mut h = [0u8; WAL_HEADER as usize];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..16].copy_from_slice(&generation.to_le_bytes());
    let sum = crate::fnv1a(&h[..16]);
    h[16..24].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Appends one frame for the op `tag`/`key`/`value` to `buf`: header
/// space first, payload encoded in place, then length and checksum
/// patched in — no intermediate payload or frame allocation.
fn put_frame<V: ValueCodec, const K: usize>(
    buf: &mut Vec<u8>,
    tag: u8,
    key: &[u64; K],
    value: Option<&V>,
) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_HEADER]);
    buf.push(tag);
    for d in key {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    if let Some(v) = value {
        v.encode(buf);
    }
    let payload = start + FRAME_HEADER;
    let len = (buf.len() - payload) as u32;
    let sum = crate::fnv1a(&buf[payload..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..payload].copy_from_slice(&sum.to_le_bytes());
}

/// Appends ops to a write-ahead log file.
pub struct WalWriter {
    file: Box<dyn VfsFile>,
    offset: u64,
    sync_writes: bool,
    metrics: StoreMetrics,
    /// Frames of the append in progress, reused across appends.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Creates a fresh log at `path` stamped with `generation` and
    /// syncs the header. Truncates anything previously at `path`.
    pub fn create(
        vfs: &dyn Vfs,
        path: &Path,
        generation: u64,
        sync_writes: bool,
    ) -> Result<WalWriter, StoreError> {
        let mut file = vfs.create(path)?;
        file.write_all_at(&header_bytes(generation), 0)?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            offset: WAL_HEADER,
            sync_writes,
            metrics: StoreMetrics::disabled(),
            buf: Vec::new(),
        })
    }

    /// Resumes appending to an already-validated log: `file` must hold
    /// a good header and `offset` must point just past the last valid
    /// frame (as reported by [`recover`]).
    pub fn resume(
        mut file: Box<dyn VfsFile>,
        offset: u64,
        sync_writes: bool,
    ) -> Result<WalWriter, StoreError> {
        // Discard any torn tail so new frames start on a clean boundary.
        file.set_len(offset)?;
        Ok(WalWriter {
            file,
            offset,
            sync_writes,
            metrics: StoreMetrics::disabled(),
            buf: Vec::new(),
        })
    }

    /// Wires the writer to record appended frames/bytes and fsync
    /// latency (`phstore_wal_*`).
    pub fn set_metrics(&mut self, metrics: StoreMetrics) {
        self.metrics = metrics;
    }

    /// Bytes in the log so far (header + valid frames).
    pub fn bytes(&self) -> u64 {
        self.offset
    }

    /// Writes the `frames` frames encoded in `self.buf` with one
    /// write and (when `sync_writes`) one sync — the WAL phase of a
    /// traced request, the durability cost a slow-query breakdown
    /// attributes.
    fn commit(&mut self, frames: u64) -> Result<(), StoreError> {
        let _w = phtrace::span(phtrace::Phase::Wal);
        self.file.write_all_at(&self.buf, self.offset)?;
        self.metrics.wal_append_frames.add(frames);
        self.metrics.wal_append_bytes.add(self.buf.len() as u64);
        if self.sync_writes {
            let t = self.metrics.wal_fsync_ns.start();
            self.file.sync_all()?;
            self.metrics.wal_fsync_ns.finish(t);
        }
        self.offset += self.buf.len() as u64;
        Ok(())
    }

    /// Journals an insert. Durable (if `sync_writes`) once this returns.
    pub fn append_insert<V: ValueCodec, const K: usize>(
        &mut self,
        key: &[u64; K],
        value: &V,
    ) -> Result<(), StoreError> {
        self.buf.clear();
        put_frame(&mut self.buf, OP_INSERT, key, Some(value));
        self.commit(1)
    }

    /// Journals a remove. Durable (if `sync_writes`) once this returns.
    pub fn append_remove<const K: usize>(&mut self, key: &[u64; K]) -> Result<(), StoreError> {
        self.buf.clear();
        put_frame::<(), K>(&mut self.buf, OP_REMOVE, key, None);
        self.commit(1)
    }

    /// Journals `ops` in order as one group commit: every frame is
    /// encoded into one buffer, written with one write and (if
    /// `sync_writes`) made durable by one sync. The bytes are those of
    /// `ops.len()` single appends, so a crash mid-write leaves a frame
    /// prefix of the batch — recovery replays the ops before the tear.
    pub fn append_batch<V: ValueCodec, const K: usize>(
        &mut self,
        ops: &[Op<V, K>],
    ) -> Result<(), StoreError> {
        if ops.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        for op in ops {
            match op {
                Op::Insert { key, value } => put_frame(&mut self.buf, OP_INSERT, key, Some(value)),
                Op::Remove { key } => put_frame::<V, K>(&mut self.buf, OP_REMOVE, key, None),
            }
        }
        self.commit(ops.len() as u64)
    }

    /// Forces buffered frames to stable storage (no-op when every
    /// append already syncs).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let _w = phtrace::span(phtrace::Phase::Wal);
        let t = self.metrics.wal_fsync_ns.start();
        self.file.sync_all()?;
        self.metrics.wal_fsync_ns.finish(t);
        Ok(())
    }
}

/// Outcome of scanning a WAL file.
pub struct WalRecovery<V, const K: usize> {
    /// Generation from the header, or `None` when the header itself is
    /// missing or damaged (the whole log is then unusable/stale).
    pub generation: Option<u64>,
    /// Ops decoded from the valid frame prefix, in append order.
    pub ops: Vec<Op<V, K>>,
    /// Bytes covered by the header + valid frames; the replay-safe
    /// prefix. Resume appending here after truncating to this length.
    pub valid_bytes: u64,
    /// Total file length found on disk (≥ `valid_bytes`; the gap is the
    /// torn/corrupt tail).
    pub total_bytes: u64,
}

fn decode_payload<V: ValueCodec, const K: usize>(payload: &[u8]) -> Option<Op<V, K>> {
    let (&tag, rest) = payload.split_first()?;
    if rest.len() < K * 8 {
        return None;
    }
    let mut key = [0u64; K];
    for (i, k) in key.iter_mut().enumerate() {
        *k = u64::from_le_bytes(rest[i * 8..i * 8 + 8].try_into().unwrap());
    }
    let rest = &rest[K * 8..];
    match tag {
        OP_INSERT => {
            let (value, used) = V::decode(rest)?;
            if used != rest.len() {
                return None;
            }
            Some(Op::Insert { key, value })
        }
        OP_REMOVE => {
            if !rest.is_empty() {
                return None;
            }
            Some(Op::Remove { key })
        }
        _ => None,
    }
}

/// Scans the log at `path`, decoding the valid frame prefix.
///
/// Torn or corrupt tails are *not* errors — the scan just stops there
/// and reports how far it got. Only real I/O failures (and a missing
/// file) error.
pub fn recover<V: ValueCodec, const K: usize>(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<WalRecovery<V, K>, StoreError> {
    let mut file = vfs.open(path)?;
    let total_bytes = file.len()?;
    let mut rec = WalRecovery {
        generation: None,
        ops: Vec::new(),
        valid_bytes: 0,
        total_bytes,
    };
    if total_bytes < WAL_HEADER {
        return Ok(rec); // torn before the header finished — stale log
    }
    let mut header = [0u8; WAL_HEADER as usize];
    file.read_exact_at(&mut header, 0)?;
    if &header[..8] != WAL_MAGIC
        || u64::from_le_bytes(header[16..24].try_into().unwrap()) != crate::fnv1a(&header[..16])
    {
        return Ok(rec); // damaged header — stale log
    }
    rec.generation = Some(u64::from_le_bytes(header[8..16].try_into().unwrap()));
    rec.valid_bytes = WAL_HEADER;

    let mut pos = WAL_HEADER;
    loop {
        if pos + FRAME_HEADER as u64 > total_bytes {
            break; // torn inside a frame header
        }
        let mut fh = [0u8; FRAME_HEADER];
        file.read_exact_at(&mut fh, pos)?;
        let len = u32::from_le_bytes(fh[..4].try_into().unwrap());
        let sum = u64::from_le_bytes(fh[4..12].try_into().unwrap());
        if len > MAX_FRAME || pos + FRAME_HEADER as u64 + len as u64 > total_bytes {
            break; // oversized length prefix or torn payload
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact_at(&mut payload, pos + FRAME_HEADER as u64)?;
        if crate::fnv1a(&payload) != sum {
            break; // bit rot or torn overwrite
        }
        match decode_payload(&payload) {
            Some(op) => rec.ops.push(op),
            None => break, // checksum ok but payload undecodable: stop
        }
        pos += FRAME_HEADER as u64 + len as u64;
        rec.valid_bytes = pos;
    }
    Ok(rec)
}

/// Opens the log at `path` for appending after a [`recover`] scan:
/// truncates the torn tail (if any) and returns a writer positioned at
/// the end of the valid prefix.
pub fn resume_writer(
    vfs: &dyn Vfs,
    path: &Path,
    valid_bytes: u64,
    sync_writes: bool,
) -> Result<WalWriter, StoreError> {
    debug_assert!(valid_bytes >= WAL_HEADER);
    let file = vfs.open(path)?;
    WalWriter::resume(file, valid_bytes, sync_writes)
}

/// Validates a recovered WAL generation against the snapshot's.
///
/// * equal → the log extends the snapshot: replay it.
/// * older (or unreadable header) → stale: already checkpointed,
///   discard.
/// * newer → impossible under the checkpoint protocol (the snapshot is
///   always rotated before the log): the store is corrupt.
pub fn classify_generation(
    wal_gen: Option<u64>,
    snapshot_gen: u64,
) -> Result<WalDisposition, StoreError> {
    match wal_gen {
        Some(g) if g == snapshot_gen => Ok(WalDisposition::Replay),
        Some(g) if g > snapshot_gen => Err(Corruption::new(
            "wal generation newer than snapshot (rotation protocol violated)",
        )
        .into()),
        _ => Ok(WalDisposition::Stale),
    }
}

/// What to do with a recovered log (see [`classify_generation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalDisposition {
    /// Log matches the snapshot generation: replay its ops.
    Replay,
    /// Log predates the snapshot (or has no readable header): discard.
    Stale,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn write_sample(vfs: &MemVfs, path: &Path, generation: u64) -> Vec<Op<u32, 2>> {
        let mut w = WalWriter::create(vfs, path, generation, true).unwrap();
        let mut ops = Vec::new();
        for i in 0..50u64 {
            if i % 7 == 3 {
                w.append_remove(&[i, i * 2]).unwrap();
                ops.push(Op::Remove { key: [i, i * 2] });
            } else {
                w.append_insert(&[i, i * 2], &(i as u32)).unwrap();
                ops.push(Op::Insert {
                    key: [i, i * 2],
                    value: i as u32,
                });
            }
        }
        ops
    }

    #[test]
    fn roundtrip_all_frames() {
        let vfs = MemVfs::new();
        let path = Path::new("/wal/log");
        let ops = write_sample(&vfs, path, 7);
        let rec = recover::<u32, 2>(&vfs, path).unwrap();
        assert_eq!(rec.generation, Some(7));
        assert_eq!(rec.ops, ops);
        assert_eq!(rec.valid_bytes, rec.total_bytes);
    }

    /// Group commit changes how many writes and syncs carry the
    /// frames, never the frames: the log after batch appends is the
    /// log after the same ops appended one by one, byte for byte.
    #[test]
    fn batch_append_is_byte_identical_to_single_appends() {
        let singles = MemVfs::new();
        let path = Path::new("/wal/log");
        let ops = write_sample(&singles, path, 7);
        let batched = MemVfs::new();
        let mut w = WalWriter::create(&batched, path, 7, true).unwrap();
        w.append_batch::<u32, 2>(&[]).unwrap();
        for chunk in ops.chunks(7) {
            w.append_batch(chunk).unwrap();
        }
        assert_eq!(batched.read_file(path), singles.read_file(path));
        assert_eq!(w.bytes(), singles.read_file(path).unwrap().len() as u64);
        let rec = recover::<u32, 2>(&batched, path).unwrap();
        assert_eq!(rec.ops, ops);
        assert_eq!(rec.valid_bytes, rec.total_bytes);
    }

    #[test]
    fn torn_tail_truncates_cleanly_at_every_cut() {
        let vfs = MemVfs::new();
        let path = Path::new("/wal/log");
        let ops = write_sample(&vfs, path, 1);
        let full = vfs.read_file(path).unwrap();
        // Cut the file at every length: recovery must never error, must
        // report a monotone op count, and valid_bytes must be ≤ cut.
        let mut last_n = 0;
        for cut in 0..=full.len() {
            vfs.write_file(path, full[..cut].to_vec());
            let rec = recover::<u32, 2>(&vfs, path).unwrap();
            assert!(rec.valid_bytes <= cut as u64);
            assert_eq!(rec.total_bytes, cut as u64);
            if cut < WAL_HEADER as usize {
                assert_eq!(rec.generation, None);
            } else {
                assert_eq!(rec.generation, Some(1));
            }
            assert!(rec.ops.len() >= last_n || cut == 0, "op count regressed");
            assert_eq!(rec.ops[..], ops[..rec.ops.len()]);
            last_n = rec.ops.len();
        }
        assert_eq!(last_n, ops.len());
    }

    #[test]
    fn bit_flip_stops_scan_at_flipped_frame() {
        let vfs = MemVfs::new();
        let path = Path::new("/wal/log");
        let ops = write_sample(&vfs, path, 2);
        let full_len = vfs.read_file(path).unwrap().len() as u64;
        // Flip one payload byte somewhere in the middle.
        let mid = WAL_HEADER + (full_len - WAL_HEADER) / 2;
        assert!(vfs.corrupt(path, mid, 0x40));
        let rec = recover::<u32, 2>(&vfs, path).unwrap();
        assert!(rec.ops.len() < ops.len(), "scan must stop early");
        assert_eq!(rec.ops[..], ops[..rec.ops.len()]);
        assert!(rec.valid_bytes <= mid);
        // Resume after truncation and append more: the log is whole again.
        let mut w = resume_writer(&vfs, path, rec.valid_bytes, true).unwrap();
        w.append_insert(&[99, 98], &77u32).unwrap();
        let rec2 = recover::<u32, 2>(&vfs, path).unwrap();
        assert_eq!(rec2.ops.len(), rec.ops.len() + 1);
        assert_eq!(rec2.valid_bytes, rec2.total_bytes);
        assert_eq!(
            rec2.ops.last(),
            Some(&Op::Insert {
                key: [99, 98],
                value: 77u32
            })
        );
    }

    #[test]
    fn damaged_header_is_stale_not_error() {
        let vfs = MemVfs::new();
        let path = Path::new("/wal/log");
        write_sample(&vfs, path, 3);
        vfs.corrupt(path, 3, 0xFF); // inside the magic
        let rec = recover::<u32, 2>(&vfs, path).unwrap();
        assert_eq!(rec.generation, None);
        assert!(rec.ops.is_empty());
        assert_eq!(rec.valid_bytes, 0);
    }

    #[test]
    fn generation_classification() {
        assert_eq!(
            classify_generation(Some(5), 5).unwrap(),
            WalDisposition::Replay
        );
        assert_eq!(
            classify_generation(Some(4), 5).unwrap(),
            WalDisposition::Stale
        );
        assert_eq!(classify_generation(None, 5).unwrap(), WalDisposition::Stale);
        assert!(classify_generation(Some(6), 5).is_err());
    }

    #[test]
    fn oversized_length_prefix_stops_scan() {
        let vfs = MemVfs::new();
        let path = Path::new("/wal/log");
        let mut w = WalWriter::create(&vfs, path, 1, true).unwrap();
        w.append_insert(&[1u64, 2], &9u32).unwrap();
        let good = w.bytes();
        // Append garbage claiming a huge frame.
        let mut f = vfs.open(path).unwrap();
        let mut junk = Vec::new();
        junk.extend_from_slice(&u32::MAX.to_le_bytes());
        junk.extend_from_slice(&[0xABu8; 64]);
        f.write_all_at(&junk, good).unwrap();
        let rec = recover::<u32, 2>(&vfs, path).unwrap();
        assert_eq!(rec.ops.len(), 1);
        assert_eq!(rec.valid_bytes, good);
    }
}
