//! A counting `StoreIo`: passes every call through to the real file
//! system and counts the device work — bytes written, write calls and
//! `sync_data` calls — without touching `fgdb-durability`.

use fgdb_durability::{real_io, StoreFile, StoreIo};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Running device counters. Plain statistics: `Relaxed` is enough, they
/// publish no other data.
#[derive(Default)]
pub struct IoCounters {
    bytes: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoCount {
    /// Bytes handed to `write_all`.
    pub bytes: u64,
    /// `write_all` calls.
    pub writes: u64,
    /// `sync_data` calls.
    pub syncs: u64,
}

impl IoCount {
    /// Work done between `earlier` and `self`.
    pub fn since(self, earlier: IoCount) -> IoCount {
        IoCount {
            bytes: self.bytes - earlier.bytes,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

impl IoCounters {
    /// Reads all three counters.
    pub fn read(&self) -> IoCount {
        IoCount {
            bytes: self.bytes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

/// The counting wrapper around the production I/O layer.
pub struct CountingIo {
    inner: Arc<dyn StoreIo>,
    counters: Arc<IoCounters>,
}

/// Wraps the real file system; returns the handle to mount stores with
/// and the counters it feeds.
pub fn counting_io() -> (Arc<dyn StoreIo>, Arc<IoCounters>) {
    let counters = Arc::new(IoCounters::default());
    let io = CountingIo {
        inner: real_io(),
        counters: Arc::clone(&counters),
    };
    (Arc::new(io), counters)
}

impl CountingIo {
    fn wrap(&self, file: Box<dyn StoreFile>) -> Box<dyn StoreFile> {
        Box::new(CountingFile {
            inner: file,
            counters: Arc::clone(&self.counters),
        })
    }
}

struct CountingFile {
    inner: Box<dyn StoreFile>,
    counters: Arc<IoCounters>,
}

impl StoreFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counters
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
}

impl StoreIo for CountingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(self.wrap(self.inner.create(path)?))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(self.wrap(self.inner.open_rw(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}
