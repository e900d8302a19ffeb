//! The device under the persistent stores, and a `Vfs` that counts and
//! spans the I/O the storage layers issue on it (traced runs only).
//!
//! The device is modelled, not real. The disk of the box the benchmark
//! runs on is rate-limited by its host: measured back to back, the
//! median `fsync` moved between 0.1 ms and 6 ms within minutes, so no
//! fsync-bound number taken on it repeats within any bound. [`SimDisk`]
//! keeps files in memory (`phstore`'s `MemVfs`) and makes every sync
//! block its caller for a fixed time, which keeps what a code change
//! can move — how many syncs and bytes an op costs, and what blocks
//! behind them — and leaves out what it cannot.

use crate::span;
use phstore::vfs::{MemVfs, Vfs, VfsFile};
use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a `sync_all` / `sync_dir` blocks: a fast NVMe flush.
const SYNC_COST: Duration = Duration::from_micros(100);

/// Blocks the caller for [`SYNC_COST`], yielding the core meanwhile.
/// Not `thread::sleep`: the box has no high-resolution timers, and a
/// 100 µs sleep takes a millisecond there.
fn sync_wait() {
    let until = Instant::now() + SYNC_COST;
    while Instant::now() < until {
        std::thread::yield_now();
    }
}

/// An in-memory filesystem whose syncs take [`SYNC_COST`].
#[derive(Default)]
pub struct SimDisk {
    mem: MemVfs,
}

impl SimDisk {
    /// Bytes of the files under `dir`.
    pub fn bytes_under(&self, dir: &Path) -> u64 {
        self.mem
            .paths()
            .iter()
            .filter(|p| p.starts_with(dir))
            .filter_map(|p| self.mem.open(p).ok()?.len().ok())
            .sum()
    }
}

struct SimFile(Box<dyn VfsFile>);

impl VfsFile for SimFile {
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<()> {
        self.0.read_exact_at(buf, off)
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        self.0.write_all_at(buf, off)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.0.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        sync_wait();
        self.0.sync_all()
    }
}

impl Vfs for SimDisk {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(SimFile(self.mem.create(path)?)))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(SimFile(self.mem.open(path)?)))
    }

    fn exists(&self, path: &Path) -> bool {
        self.mem.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.mem.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.mem.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.mem.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        sync_wait();
        self.mem.sync_dir(path)
    }
}

#[derive(Default)]
pub struct IoCounts {
    pub writes: AtomicU64,
    /// Bytes written to files named `wal.log*`.
    pub wal_bytes: AtomicU64,
    pub read_bytes: AtomicU64,
    pub fsyncs: AtomicU64,
    pub dir_syncs: AtomicU64,
    /// Checkpoints: renames onto `snapshot.pht`.
    pub checkpoints: AtomicU64,
    /// Longest time from staging a snapshot to rotating the WAL.
    pub checkpoint_ns_max: AtomicU64,
}

pub struct CountingVfs {
    inner: Arc<SimDisk>,
    pub counts: Arc<IoCounts>,
}

impl CountingVfs {
    pub fn new(inner: Arc<SimDisk>) -> CountingVfs {
        CountingVfs {
            inner,
            counts: Arc::default(),
        }
    }
}

thread_local! {
    /// When this thread staged the snapshot of a checkpoint under way.
    static CHECKPOINT_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<IoCounts>,
    is_wal: bool,
}

fn named(path: &Path, prefix: &str) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with(prefix))
}

impl VfsFile for CountingFile {
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<()> {
        let _s = span::enter("vfs.read_exact_at", 0);
        self.counts.read_bytes.fetch_add(buf.len() as u64, Relaxed);
        self.inner.read_exact_at(buf, off)
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        let _s = span::enter("vfs.write_all_at", 0);
        self.counts.writes.fetch_add(1, Relaxed);
        if self.is_wal {
            self.counts.wal_bytes.fetch_add(buf.len() as u64, Relaxed);
        }
        self.inner.write_all_at(buf, off)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let _s = span::enter("vfs.sync_all", 0);
        self.counts.fsyncs.fetch_add(1, Relaxed);
        self.inner.sync_all()
    }
}

impl CountingVfs {
    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            counts: Arc::clone(&self.counts),
            is_wal: named(path, "wal.log"),
        })
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if named(path, "snapshot.pht.tmp") {
            CHECKPOINT_START.with(|c| c.set(Some(Instant::now())));
        }
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open(path)?))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _s = span::enter("vfs.rename", 0);
        let r = self.inner.rename(from, to);
        if named(to, "snapshot.pht") {
            self.counts.checkpoints.fetch_add(1, Relaxed);
        } else if named(to, "wal.log") {
            if let Some(t0) = CHECKPOINT_START.with(Cell::take) {
                let ns = t0.elapsed().as_nanos() as u64;
                self.counts.checkpoint_ns_max.fetch_max(ns, Relaxed);
            }
        }
        r
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let _s = span::enter("vfs.sync_dir", 0);
        self.counts.dir_syncs.fetch_add(1, Relaxed);
        self.inner.sync_dir(path)
    }
}

/// The device a run's stores live on: the disk, and the `Vfs` the
/// stores are given — the disk itself, or the counting wrapper.
pub struct Device {
    pub disk: Arc<SimDisk>,
    pub vfs: Arc<dyn Vfs>,
    pub counts: Arc<IoCounts>,
}

impl Device {
    pub fn new(counting: bool) -> Device {
        let disk = Arc::new(SimDisk::default());
        if !counting {
            return Device {
                vfs: Arc::clone(&disk) as Arc<dyn Vfs>,
                disk,
                counts: Arc::default(),
            };
        }
        let wrapper = CountingVfs::new(Arc::clone(&disk));
        Device {
            disk,
            counts: Arc::clone(&wrapper.counts),
            vfs: Arc::new(wrapper),
        }
    }
}
