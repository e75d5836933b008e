//! Storage abstraction under the LSM engine.
//!
//! Two implementations of one flat-namespace file API:
//!
//! - [`DiskStorage`] — real files under a root directory, `fsync` via
//!   `sync_data`, atomic manifest swaps via write-temp + rename +
//!   directory sync. Used by durable deployments and the hardware
//!   throughput bench.
//! - [`SimStorage`] — an in-memory device that tracks the *fsynced
//!   prefix* of every file and supports a seeded **kill switch**: the
//!   n-th mutating operation fails (tearing an in-flight append at a
//!   seeded byte) and every later mutation fails too, then
//!   [`SimStorage::crash`] discards all unsynced bytes. This is what
//!   lets the crash-recovery property suite kill the engine *between*
//!   an append and its fsync, mid-SST-flush, or mid-manifest-swap —
//!   points a process-level kill could only hit by luck.
//!
//! The durability contract both implementations honor:
//!
//! - `append` data is volatile until a `sync` on the same file returns
//!   `Ok`; a crash keeps an arbitrary prefix of unsynced bytes.
//! - `write_atomic` is all-or-nothing *and* immediately durable (the
//!   rename trick): after a crash the file holds either the old or the
//!   new content, never a mix.

use crate::{StoreError, StoreResult};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Random-access read handle to one file, valid even if the file is
/// later removed from the namespace (POSIX unlink semantics — live
/// SST readers survive compaction deleting their inputs).
pub trait RandomAccess: Send + Sync {
    /// Reads exactly `len` bytes at `offset`. Short reads are errors.
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Bytes>;
    /// File size at open time.
    fn len(&self) -> u64;
    /// True when the file had no bytes at open time.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Flat-namespace file storage with explicit sync points.
pub trait Storage: Send + Sync {
    /// Appends bytes to `name`, creating it if absent. The bytes are
    /// volatile until [`Storage::sync`].
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()>;
    /// Makes all previously appended bytes of `name` durable.
    fn sync(&self, name: &str) -> StoreResult<()>;
    /// Atomically replaces `name` with `data`, durably: after return
    /// (or after a crash at any point) the file is either the old
    /// content or exactly `data`.
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()>;
    /// Durably truncates `name` to `len` bytes (WAL torn-tail repair).
    fn truncate(&self, name: &str, len: u64) -> StoreResult<()>;
    /// Reads the whole file; `None` if it does not exist.
    fn read(&self, name: &str) -> StoreResult<Option<Bytes>>;
    /// Opens a random-access handle; errors if the file is absent.
    fn open(&self, name: &str) -> StoreResult<Arc<dyn RandomAccess>>;
    /// Size in bytes; `None` if the file does not exist.
    fn size(&self, name: &str) -> StoreResult<Option<u64>>;
    /// All file names, sorted.
    fn list(&self) -> StoreResult<Vec<String>>;
    /// Removes a file (idempotent).
    fn remove(&self, name: &str) -> StoreResult<()>;
}

// ---------------------------------------------------------------------------
// Simulated storage
// ---------------------------------------------------------------------------

struct SimFile {
    data: Vec<u8>,
    /// Bytes `[0, synced)` survive a crash; the rest is torn away.
    synced: usize,
}

struct SimInner {
    files: BTreeMap<String, SimFile>,
    /// Mutating ops executed so far.
    ops: u64,
    /// 1-based index of the mutating op that kills the device.
    kill_at: Option<u64>,
    /// xorshift64 state for tearing the killed append at a seeded byte.
    tear_rng: u64,
    killed: bool,
}

impl SimInner {
    /// Counts one mutating op; returns `true` when this op is the kill
    /// point (the device is dead from here on).
    fn tick(&mut self) -> Result<bool, StoreError> {
        if self.killed {
            return Err(StoreError::Killed);
        }
        self.ops += 1;
        if self.kill_at.is_some_and(|n| self.ops >= n) {
            self.killed = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn tear_roll(&mut self, bound: usize) -> usize {
        // xorshift64 — deterministic, dependency-free.
        let mut x = self.tear_rng.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.tear_rng = x;
        (x % (bound as u64 + 1)) as usize
    }
}

/// In-memory [`Storage`] with fsync-prefix tracking and a seeded kill
/// switch. Cloning shares the device.
#[derive(Clone)]
pub struct SimStorage {
    inner: Arc<Mutex<SimInner>>,
}

impl Default for SimStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl SimStorage {
    /// An empty device.
    pub fn new() -> Self {
        SimStorage {
            inner: Arc::new(Mutex::new(SimInner {
                files: BTreeMap::new(),
                ops: 0,
                kill_at: None,
                tear_rng: 0x9E37_79B9_7F4A_7C15,
                killed: false,
            })),
        }
    }

    /// Arms the kill switch: the `nth` (1-based) mutating operation
    /// from now fails — an append additionally tears, leaving a
    /// `tear_seed`-derived prefix of its bytes on the device — and all
    /// later mutations fail with [`StoreError::Killed`] until
    /// [`SimStorage::crash`].
    pub fn arm_kill(&self, nth: u64, tear_seed: u64) {
        let mut inner = self.inner.lock();
        let at = inner.ops + nth.max(1);
        inner.kill_at = Some(at);
        inner.tear_rng = tear_seed | 1;
    }

    /// Mutating operations executed so far (kill-point calibration).
    pub fn ops(&self) -> u64 {
        self.inner.lock().ops
    }

    /// Simulates power loss: every file loses its unsynced suffix, and
    /// the device comes back writable (kill switch disarmed).
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        for file in inner.files.values_mut() {
            file.data.truncate(file.synced);
        }
        inner.kill_at = None;
        inner.killed = false;
    }

    /// Test hook: flips one byte at `offset` of `name` (models media
    /// corruption under the CRC checks). No-op if out of range.
    pub fn corrupt_byte(&self, name: &str, offset: usize) {
        let mut inner = self.inner.lock();
        if let Some(file) = inner.files.get_mut(name) {
            if let Some(b) = file.data.get_mut(offset) {
                *b ^= 0xFF;
            }
        }
    }
}

struct SimHandle {
    name: String,
    /// Snapshot of the file content at open time. SSTs are immutable
    /// once written, so a snapshot handle matches POSIX semantics
    /// (reads keep working after unlink) without tracking inodes.
    data: Bytes,
}

impl RandomAccess for SimHandle {
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Bytes> {
        let start = offset as usize;
        let end = start.checked_add(len).filter(|&e| e <= self.data.len());
        match end {
            Some(end) => Ok(self.data.slice(start..end)),
            None => Err(StoreError::Corrupt {
                file: self.name.clone(),
                offset,
                detail: "read past end of file",
            }),
        }
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

impl Storage for SimStorage {
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        let kill = inner.tick()?;
        let keep = if kill {
            inner.tear_roll(data.len())
        } else {
            data.len()
        };
        let file = inner.files.entry(name.to_owned()).or_insert(SimFile {
            data: Vec::new(),
            synced: 0,
        });
        file.data.extend_from_slice(&data[..keep]);
        if kill {
            return Err(StoreError::Killed);
        }
        Ok(())
    }

    fn sync(&self, name: &str) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        if inner.tick()? {
            return Err(StoreError::Killed);
        }
        if let Some(file) = inner.files.get_mut(name) {
            file.synced = file.data.len();
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        if inner.tick()? {
            // Atomic swap: the kill leaves the *old* content intact.
            return Err(StoreError::Killed);
        }
        let len = data.len();
        inner.files.insert(
            name.to_owned(),
            SimFile {
                data: data.to_vec(),
                synced: len,
            },
        );
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        if inner.tick()? {
            return Err(StoreError::Killed);
        }
        if let Some(file) = inner.files.get_mut(name) {
            file.data.truncate(len as usize);
            file.synced = len as usize;
        }
        Ok(())
    }

    fn read(&self, name: &str) -> StoreResult<Option<Bytes>> {
        let inner = self.inner.lock();
        Ok(inner.files.get(name).map(|f| Bytes::from(f.data.clone())))
    }

    fn open(&self, name: &str) -> StoreResult<Arc<dyn RandomAccess>> {
        let inner = self.inner.lock();
        match inner.files.get(name) {
            Some(f) => Ok(Arc::new(SimHandle {
                name: name.to_owned(),
                data: Bytes::from(f.data.clone()),
            })),
            None => Err(StoreError::Io(format!("open {name}: not found"))),
        }
    }

    fn size(&self, name: &str) -> StoreResult<Option<u64>> {
        let inner = self.inner.lock();
        Ok(inner.files.get(name).map(|f| f.data.len() as u64))
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        let inner = self.inner.lock();
        Ok(inner.files.keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        if inner.tick()? {
            return Err(StoreError::Killed);
        }
        inner.files.remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Disk storage
// ---------------------------------------------------------------------------

/// Real-file [`Storage`] rooted at a directory. Append handles are
/// cached so the WAL hot path is write + fsync, no reopen.
pub struct DiskStorage {
    root: PathBuf,
    handles: Mutex<HashMap<String, File>>,
}

impl DiskStorage {
    /// Opens (creating if needed) a storage root.
    pub fn open(root: impl Into<PathBuf>) -> StoreResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(io_err("create storage root"))?;
        Ok(DiskStorage {
            root,
            handles: Mutex::new(HashMap::new()),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Best-effort directory fsync so renames/creates are durable.
    fn sync_dir(&self) {
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> StoreError {
    move |e| StoreError::Io(format!("{what}: {e}"))
}

struct DiskHandle {
    name: String,
    file: File,
    len: u64,
}

impl RandomAccess for DiskHandle {
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Bytes> {
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file
                .read_exact_at(&mut buf, offset)
                .map_err(|e| StoreError::Io(format!("read_at {}: {e}", self.name)))?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self
                .file
                .try_clone()
                .map_err(|e| StoreError::Io(format!("clone {}: {e}", self.name)))?;
            f.seek(SeekFrom::Start(offset))
                .and_then(|_| f.read_exact(&mut buf))
                .map_err(|e| StoreError::Io(format!("read_at {}: {e}", self.name)))?;
        }
        Ok(Bytes::from(buf))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl Storage for DiskStorage {
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let mut handles = self.handles.lock();
        if !handles.contains_key(name) {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))
                .map_err(io_err("open append"))?;
            handles.insert(name.to_owned(), file);
            self.sync_dir();
        }
        let file = handles.get_mut(name).expect("inserted above");
        file.write_all(data).map_err(io_err("append"))
    }

    fn sync(&self, name: &str) -> StoreResult<()> {
        let handles = self.handles.lock();
        match handles.get(name) {
            Some(file) => file.sync_data().map_err(io_err("fsync")),
            None => Ok(()), // nothing appended yet — vacuously durable
        }
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        let mut file = File::create(&tmp).map_err(io_err("create tmp"))?;
        file.write_all(data).map_err(io_err("write tmp"))?;
        file.sync_data().map_err(io_err("fsync tmp"))?;
        drop(file);
        std::fs::rename(&tmp, self.path(name)).map_err(io_err("rename"))?;
        self.sync_dir();
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> StoreResult<()> {
        // Drop the cached append handle first: append mode repositions
        // per write, but the handle may buffer a stale length.
        self.handles.lock().remove(name);
        let file = OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(io_err("open truncate"))?;
        file.set_len(len).map_err(io_err("truncate"))?;
        file.sync_data().map_err(io_err("fsync truncate"))
    }

    fn read(&self, name: &str) -> StoreResult<Option<Bytes>> {
        match std::fs::read(self.path(name)) {
            Ok(data) => Ok(Some(Bytes::from(data))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(format!("read {name}: {e}"))),
        }
    }

    fn open(&self, name: &str) -> StoreResult<Arc<dyn RandomAccess>> {
        let file =
            File::open(self.path(name)).map_err(|e| StoreError::Io(format!("open {name}: {e}")))?;
        let len = file.metadata().map_err(io_err("stat"))?.len();
        Ok(Arc::new(DiskHandle {
            name: name.to_owned(),
            file,
            len,
        }))
    }

    fn size(&self, name: &str) -> StoreResult<Option<u64>> {
        match std::fs::metadata(self.path(name)) {
            Ok(meta) => Ok(Some(meta.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(format!("stat {name}: {e}"))),
        }
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.root).map_err(io_err("read_dir"))?;
        for entry in entries {
            let entry = entry.map_err(io_err("read_dir entry"))?;
            if entry.file_type().map_err(io_err("file_type"))?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    // Leftover atomic-write temps are crash garbage.
                    if !name.ends_with(".tmp") {
                        out.push(name.to_owned());
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn remove(&self, name: &str) -> StoreResult<()> {
        self.handles.lock().remove(name);
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(format!("remove {name}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_crash_discards_unsynced_suffix() {
        let dev = SimStorage::new();
        dev.append("wal", b"aaaa").unwrap();
        dev.sync("wal").unwrap();
        dev.append("wal", b"bbbb").unwrap();
        dev.crash();
        assert_eq!(dev.read("wal").unwrap().unwrap().as_ref(), b"aaaa");
    }

    #[test]
    fn sim_kill_tears_append_and_poisons_device() {
        let dev = SimStorage::new();
        dev.append("wal", b"good").unwrap();
        dev.sync("wal").unwrap();
        dev.arm_kill(1, 7);
        let err = dev.append("wal", b"torn-record").unwrap_err();
        assert_eq!(err, StoreError::Killed);
        // Device dead until crash().
        assert_eq!(dev.sync("wal").unwrap_err(), StoreError::Killed);
        dev.crash();
        // Unsynced (torn) bytes gone; synced prefix intact.
        assert_eq!(dev.read("wal").unwrap().unwrap().as_ref(), b"good");
        dev.append("wal", b"!").unwrap();
    }

    #[test]
    fn sim_write_atomic_survives_crash_whole() {
        let dev = SimStorage::new();
        dev.write_atomic("manifest", b"v1").unwrap();
        dev.append("manifest-not", b"x").unwrap();
        dev.crash();
        assert_eq!(dev.read("manifest").unwrap().unwrap().as_ref(), b"v1");
    }

    #[test]
    fn sim_atomic_kill_keeps_old_content() {
        let dev = SimStorage::new();
        dev.write_atomic("manifest", b"v1").unwrap();
        dev.arm_kill(1, 3);
        assert_eq!(
            dev.write_atomic("manifest", b"v2").unwrap_err(),
            StoreError::Killed
        );
        dev.crash();
        assert_eq!(dev.read("manifest").unwrap().unwrap().as_ref(), b"v1");
    }

    #[test]
    fn sim_open_handle_survives_remove() {
        let dev = SimStorage::new();
        dev.write_atomic("sst", b"immutable").unwrap();
        let handle = dev.open("sst").unwrap();
        dev.remove("sst").unwrap();
        assert_eq!(handle.read_at(0, 9).unwrap().as_ref(), b"immutable");
        assert!(handle.read_at(5, 10).is_err());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "fk-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dev = DiskStorage::open(&dir).unwrap();
        dev.append("wal", b"hello ").unwrap();
        dev.append("wal", b"world").unwrap();
        dev.sync("wal").unwrap();
        assert_eq!(dev.read("wal").unwrap().unwrap().as_ref(), b"hello world");
        dev.truncate("wal", 5).unwrap();
        assert_eq!(dev.read("wal").unwrap().unwrap().as_ref(), b"hello");
        dev.write_atomic("manifest", b"m1").unwrap();
        let names = dev.list().unwrap();
        assert_eq!(names, vec!["manifest".to_string(), "wal".to_string()]);
        let h = dev.open("manifest").unwrap();
        assert_eq!(h.read_at(0, 2).unwrap().as_ref(), b"m1");
        assert_eq!(h.len(), 2);
        dev.remove("wal").unwrap();
        dev.remove("wal").unwrap(); // idempotent
        assert!(dev.read("wal").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
