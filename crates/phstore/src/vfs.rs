//! Virtual filesystem abstraction for fault-injectable I/O.
//!
//! Everything `phstore` writes — pages, records, WAL frames, snapshot
//! rotations — goes through [`Vfs`]/[`VfsFile`] so that tests can swap
//! the real filesystem ([`StdVfs`]) for a deterministic in-memory one
//! ([`MemVfs`]) and wrap either in a fault injector ([`FaultVfs`]) that
//! cuts a workload's writes at an arbitrary byte (torn writes), fails
//! `sync`, or fails `rename` — then "recovers" by reopening the
//! surviving bytes. This is what makes the crash-point sweep in
//! `tests/crash.rs` possible: every byte offset of the write stream is
//! a simulated power cut.
//!
//! The crash model: writes reach stable storage in issue order and a
//! crash preserves an arbitrary *prefix* of the remaining write stream
//! (byte-granular, so page writes can tear). `sync` is a durability
//! barrier on the real filesystem; in the in-memory model writes are
//! immediately durable and the cut point models the crash instead.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open random-access file.
///
/// `Send + Sync` so containers holding file handles (e.g. a
/// [`crate::Durable`] inside a sharded layer's reader-writer cell) can
/// be shared across threads; all methods take `&mut self`, so `Sync`
/// costs implementors nothing.
#[allow(clippy::len_without_is_empty)] // emptiness is meaningless for file handles
pub trait VfsFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes at absolute offset `off`.
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<()>;
    /// Writes all of `buf` at absolute offset `off`, extending the file
    /// if needed.
    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// Truncates (or extends with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Durability barrier: all prior writes reach stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// A filesystem namespace: open/create/rename/remove files.
pub trait Vfs: Send + Sync {
    /// Creates (truncating) a writable file.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for reading and writing.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file (ok if absent is an error, like `std::fs`).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Durability barrier on a *directory*: renames/creates within it
    /// reach stable storage (fsync of the directory fd on real files).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------- Std

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

struct StdFile(fs::File);

impl VfsFile for StdFile {
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(off))?;
        self.0.read_exact(buf)
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(off))?;
        self.0.write_all(buf)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = fs::OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the portable
        // Unix way to make renames within it durable.
        #[cfg(unix)]
        {
            fs::File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }
}

// ---------------------------------------------------------------- Mem

type MemFileData = Arc<Mutex<Vec<u8>>>;

/// A deterministic in-memory filesystem, shared by cloning.
///
/// Open handles hold the file *content* (like POSIX fds), so renaming
/// or unlinking a path does not invalidate handles. Writes are
/// immediately durable — crash simulation is the fault injector's job.
#[derive(Clone, Default)]
pub struct MemVfs {
    files: Arc<Mutex<HashMap<PathBuf, MemFileData>>>,
}

struct MemFile {
    data: MemFileData,
}

impl VfsFile for MemFile {
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<()> {
        let data = self.data.lock().unwrap();
        let off = off as usize;
        if off + buf.len() > data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "mem read past end of file",
            ));
        }
        buf.copy_from_slice(&data[off..off + buf.len()]);
        Ok(())
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        let mut data = self.data.lock().unwrap();
        let off = off as usize;
        if data.len() < off + buf.len() {
            data.resize(off + buf.len(), 0);
        }
        data[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.data.lock().unwrap().len() as u64)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.data.lock().unwrap().resize(len as usize, 0);
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl MemVfs {
    /// A fresh, empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of a file's bytes (test helper).
    pub fn read_file(&self, path: &Path) -> Option<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(path)
            .map(|d| d.lock().unwrap().clone())
    }

    /// Overwrites a file's bytes wholesale (test helper).
    pub fn write_file(&self, path: &Path, bytes: Vec<u8>) {
        self.files
            .lock()
            .unwrap()
            .insert(path.to_path_buf(), Arc::new(Mutex::new(bytes)));
    }

    /// XORs `mask` into the byte at `offset` — bit-flip fault injection.
    pub fn corrupt(&self, path: &Path, offset: u64, mask: u8) -> bool {
        let files = self.files.lock().unwrap();
        match files.get(path) {
            Some(d) => {
                let mut data = d.lock().unwrap();
                match data.get_mut(offset as usize) {
                    Some(b) => {
                        *b ^= mask;
                        true
                    }
                    None => false,
                }
            }
            None => false,
        }
    }

    /// All current file paths (test helper).
    pub fn paths(&self) -> Vec<PathBuf> {
        self.files.lock().unwrap().keys().cloned().collect()
    }

    /// A deep copy: the clone's files no longer share content with
    /// `self` (simulates re-reading the disk after a crash elsewhere).
    pub fn deep_clone(&self) -> MemVfs {
        let files = self.files.lock().unwrap();
        let copied = files
            .iter()
            .map(|(p, d)| (p.clone(), Arc::new(Mutex::new(d.lock().unwrap().clone()))))
            .collect();
        MemVfs {
            files: Arc::new(Mutex::new(copied)),
        }
    }
}

impl Vfs for MemVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let data: MemFileData = Arc::new(Mutex::new(Vec::new()));
        self.files
            .lock()
            .unwrap()
            .insert(path.to_path_buf(), Arc::clone(&data));
        Ok(Box::new(MemFile { data }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let files = self.files.lock().unwrap();
        match files.get(path) {
            Some(data) => Ok(Box::new(MemFile {
                data: Arc::clone(data),
            })),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("mem file not found: {}", path.display()),
            )),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.files.lock().unwrap().contains_key(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        match files.remove(from) {
            Some(data) => {
                files.insert(to.to_path_buf(), data);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("mem rename source not found: {}", from.display()),
            )),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.files.lock().unwrap().remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("mem remove target not found: {}", path.display()),
            )),
        }
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

// -------------------------------------------------------------- Fault

/// What to break, and when. All budgets count only operations on files
/// whose *full path* contains [`FaultConfig::target`] (every file when
/// `target` is `None`). Full-path matching lets a sweep target one
/// shard's files — e.g. `"shard-001/wal"` — while siblings write freely;
/// bare file-name substrings like `"wal"` still match as before.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Substring selecting which files the budgets apply to.
    pub target: Option<String>,
    /// Total matched bytes writable before the crash. The write that
    /// crosses the budget is *torn*: its prefix up to the boundary is
    /// applied, the rest is lost.
    pub write_budget: Option<u64>,
    /// Matched `sync_all` calls allowed before one fails (and crashes).
    pub sync_budget: Option<u64>,
    /// Matched renames allowed before one fails (and crashes). The
    /// failing rename does not move the file — the atomicity test.
    pub rename_budget: Option<u64>,
}

#[derive(Debug, Default)]
struct FaultState {
    cfg: FaultConfig,
    bytes_written: u64,
    writes: u64,
    syncs: u64,
    renames: u64,
    crashed: bool,
}

fn crashed_err() -> io::Error {
    io::Error::other("fault injection: simulated crash")
}

/// A [`Vfs`] wrapper that injects faults per [`FaultConfig`]. After the
/// first injected fault the whole VFS acts crashed: every subsequent
/// operation fails, like a dead process. The wrapped VFS retains
/// whatever bytes survived — reopen it directly to "recover".
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// Wraps `inner`, applying `cfg`'s budgets.
    pub fn new(inner: Arc<dyn Vfs>, cfg: FaultConfig) -> Self {
        FaultVfs {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                cfg,
                ..Default::default()
            })),
        }
    }

    /// Whether an injected fault has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Matched bytes written so far (for sizing sweep budgets).
    pub fn bytes_written(&self) -> u64 {
        self.state.lock().unwrap().bytes_written
    }

    /// Matched `write_all_at` calls so far.
    pub fn writes(&self) -> u64 {
        self.state.lock().unwrap().writes
    }

    /// Matched `sync_all` calls that succeeded so far.
    pub fn syncs(&self) -> u64 {
        self.state.lock().unwrap().syncs
    }

    fn matches(&self, path: &Path) -> bool {
        let state = self.state.lock().unwrap();
        match &state.cfg.target {
            None => true,
            Some(t) => path.to_string_lossy().contains(t.as_str()),
        }
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.state.lock().unwrap().crashed {
            Err(crashed_err())
        } else {
            Ok(())
        }
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<FaultState>>,
    matched: bool,
}

impl VfsFile for FaultFile {
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<()> {
        if self.state.lock().unwrap().crashed {
            return Err(crashed_err());
        }
        self.inner.read_exact_at(buf, off)
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        let allowed = {
            let mut state = self.state.lock().unwrap();
            if state.crashed {
                return Err(crashed_err());
            }
            if !self.matched {
                buf.len() as u64
            } else {
                state.writes += 1;
                match state.cfg.write_budget {
                    None => {
                        state.bytes_written += buf.len() as u64;
                        buf.len() as u64
                    }
                    Some(budget) => {
                        let left = budget.saturating_sub(state.bytes_written);
                        let take = left.min(buf.len() as u64);
                        state.bytes_written += take;
                        if take < buf.len() as u64 {
                            state.crashed = true;
                        }
                        take
                    }
                }
            }
        };
        // Apply the surviving prefix (torn write), then report the
        // crash if the write was cut short.
        if allowed > 0 {
            self.inner.write_all_at(&buf[..allowed as usize], off)?;
        }
        if allowed < buf.len() as u64 {
            Err(crashed_err())
        } else {
            Ok(())
        }
    }

    fn len(&mut self) -> io::Result<u64> {
        if self.state.lock().unwrap().crashed {
            return Err(crashed_err());
        }
        self.inner.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.state.lock().unwrap().crashed {
            return Err(crashed_err());
        }
        self.inner.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        {
            let mut state = self.state.lock().unwrap();
            if state.crashed {
                return Err(crashed_err());
            }
            if self.matched {
                if state.cfg.sync_budget.is_some_and(|b| state.syncs >= b) {
                    state.crashed = true;
                    return Err(crashed_err());
                }
                state.syncs += 1;
            }
        }
        self.inner.sync_all()
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_alive()?;
        let matched = self.matches(path);
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            state: Arc::clone(&self.state),
            matched,
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_alive()?;
        let matched = self.matches(path);
        Ok(Box::new(FaultFile {
            inner: self.inner.open(path)?,
            state: Arc::clone(&self.state),
            matched,
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_alive()?;
        if self.matches(from) || self.matches(to) {
            let mut state = self.state.lock().unwrap();
            if let Some(budget) = state.cfg.rename_budget {
                if state.renames >= budget {
                    state.crashed = true;
                    return Err(crashed_err());
                }
                state.renames += 1;
            }
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.sync_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_roundtrip_and_rename() {
        let vfs = MemVfs::new();
        let a = Path::new("/x/a");
        let b = Path::new("/x/b");
        {
            let mut f = vfs.create(a).unwrap();
            f.write_all_at(b"hello", 0).unwrap();
            f.write_all_at(b"!", 5).unwrap();
            assert_eq!(f.len().unwrap(), 6);
        }
        vfs.rename(a, b).unwrap();
        assert!(!vfs.exists(a));
        let mut f = vfs.open(b).unwrap();
        let mut buf = [0u8; 6];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"hello!");
        // Handles survive renames (POSIX-style).
        let mut held = vfs.open(b).unwrap();
        vfs.rename(b, a).unwrap();
        held.write_all_at(b"H", 0).unwrap();
        assert_eq!(vfs.read_file(a).unwrap(), b"Hello!");
    }

    #[test]
    fn mem_vfs_read_past_end_fails() {
        let vfs = MemVfs::new();
        let p = Path::new("/f");
        vfs.create(p).unwrap().write_all_at(b"abc", 0).unwrap();
        let mut f = vfs.open(p).unwrap();
        let mut buf = [0u8; 4];
        assert!(f.read_exact_at(&mut buf, 0).is_err());
        assert!(f.read_exact_at(&mut buf[..2], 2).is_err());
    }

    #[test]
    fn fault_write_budget_tears_the_crossing_write() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                write_budget: Some(7),
                ..Default::default()
            },
        );
        let p = Path::new("/w");
        let mut f = faulty.create(p).unwrap();
        f.write_all_at(b"aaaa", 0).unwrap(); // 4 of 7
        let err = f.write_all_at(b"bbbb", 4).unwrap_err(); // torn at 7
        assert_eq!(err.to_string(), crashed_err().to_string());
        assert!(faulty.crashed());
        // Everything afterwards fails.
        assert!(f.write_all_at(b"c", 0).is_err());
        assert!(faulty.create(Path::new("/other")).is_err());
        // Surviving bytes: 4 + 3-byte torn prefix.
        assert_eq!(mem.read_file(p).unwrap(), b"aaaabbb");
    }

    #[test]
    fn fault_target_scopes_budget_to_matching_files() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                target: Some("wal".into()),
                write_budget: Some(2),
                ..Default::default()
            },
        );
        let mut other = faulty.create(Path::new("/dir/snapshot.pht")).unwrap();
        other.write_all_at(&[9u8; 100], 0).unwrap(); // unmetered
        let mut wal = faulty.create(Path::new("/dir/wal.log")).unwrap();
        assert!(wal.write_all_at(&[1u8; 3], 0).is_err()); // torn at 2
        assert_eq!(mem.read_file(Path::new("/dir/wal.log")).unwrap(), [1, 1]);
    }

    #[test]
    fn fault_target_matches_full_path_for_per_shard_scoping() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                target: Some("shard-001/wal".into()),
                write_budget: Some(2),
                ..Default::default()
            },
        );
        // Same file name under a different shard dir: unmetered.
        let mut other = faulty.create(Path::new("/db/shard-000/wal.log")).unwrap();
        other.write_all_at(&[9u8; 50], 0).unwrap();
        let mut hot = faulty.create(Path::new("/db/shard-001/wal.log")).unwrap();
        assert!(hot.write_all_at(&[1u8; 3], 0).is_err()); // torn at 2
        assert_eq!(
            mem.read_file(Path::new("/db/shard-001/wal.log")).unwrap(),
            [1, 1]
        );
    }

    #[test]
    fn fault_sync_and_rename_budgets() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                sync_budget: Some(1),
                rename_budget: Some(0),
                ..Default::default()
            },
        );
        let p = Path::new("/s");
        let mut f = faulty.create(p).unwrap();
        f.sync_all().unwrap();
        assert!(f.sync_all().is_err());
        assert!(faulty.crashed());

        let faulty2 = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultConfig {
                rename_budget: Some(0),
                ..Default::default()
            },
        );
        faulty2.create(Path::new("/a")).unwrap();
        assert!(faulty2.rename(Path::new("/a"), Path::new("/b")).is_err());
        assert!(mem.exists(Path::new("/a")), "failed rename must not move");
        assert!(!mem.exists(Path::new("/b")));
    }

    #[test]
    fn deep_clone_detaches_content() {
        let vfs = MemVfs::new();
        let p = Path::new("/f");
        vfs.create(p).unwrap().write_all_at(b"abc", 0).unwrap();
        let copy = vfs.deep_clone();
        vfs.corrupt(p, 0, 0xFF);
        assert_eq!(copy.read_file(p).unwrap(), b"abc");
        assert_ne!(vfs.read_file(p).unwrap(), b"abc");
    }
}
