//! The LSM engine: WAL + memtable + leveled SSTs behind one handle.
//!
//! ## Commit protocol and crash argument
//!
//! A mutation batch is **acknowledged** iff its WAL record is appended
//! and fsynced ([`FsyncPolicy::Always`]). Flush and compaction never
//! ack anything; they only move already-acked data, and every
//! transition commits through one atomically-swapped `MANIFEST` file:
//!
//! 1. new SST bytes are appended and fsynced;
//! 2. the manifest naming the new file set (and the active WAL) is
//!    swapped atomically;
//! 3. only then are superseded files deleted.
//!
//! A kill at any point therefore leaves either the old manifest (new
//! SSTs are unreferenced garbage, the old WAL still holds the data) or
//! the new manifest (data lives in the new SSTs, the old WAL is
//! unreferenced garbage). [`Lsm::open`] deletes unreferenced files,
//! replays the active WAL into the memtable (repairing a torn tail),
//! and the acknowledged state is byte-identical either way — the
//! property the seeded crash-recovery suite checks at every kill
//! point.
//!
//! ## Levels
//!
//! L0 files are whole memtable flushes (newest first, may overlap).
//! When L0 reaches [`LsmConfig::l0_compact_trigger`], all of L0 + L1
//! merge into fresh non-overlapping L1 runs split at
//! [`LsmConfig::sst_target_bytes`]; tombstones are dropped there
//! (bottom level — nothing older can resurrect a shadowed key).
//! Compaction runs inline by default (deterministic for the property
//! suites) or on a background thread when
//! [`LsmConfig::background_compaction`] is set.

use crate::compaction::{EntrySource, MergeIter};
use crate::memtable::Memtable;
use crate::sst::{SstBuilder, SstMeta, SstReader};
use crate::storage::Storage;
use crate::wal::{self, WalEntry, WalWriter};
use crate::{crc32, varint, DiskFault, InjectorHandle, StoreError, StoreResult};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_VERSION: u64 = 1;

/// When acknowledged writes become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync every WAL append (one fsync per *batch* — group commit).
    /// An `Ok` ack means the batch survives any crash.
    Always,
    /// Never fsync the WAL from the hot path. Throughput mode for
    /// benches; a crash may lose recently acked batches (still no
    /// corruption — replay stops at the torn tail).
    Never,
}

/// Engine tuning knobs.
#[derive(Clone)]
pub struct LsmConfig {
    /// Memtable flush threshold in bytes.
    pub memtable_bytes: usize,
    /// SST block payload target in bytes.
    pub block_bytes: usize,
    /// Compaction output file split size in bytes.
    pub sst_target_bytes: usize,
    /// L0 file count that triggers a full L0→L1 compaction.
    pub l0_compact_trigger: usize,
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// Run compactions on a dedicated thread instead of inline.
    pub background_compaction: bool,
    /// Chaos hook for the disk fault points.
    pub injector: Option<InjectorHandle>,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 4 << 20,
            block_bytes: 4096,
            sst_target_bytes: 4 << 20,
            l0_compact_trigger: 4,
            fsync: FsyncPolicy::Always,
            background_compaction: false,
            injector: None,
        }
    }
}

/// Counters exposed for gates and debugging.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// WAL records replayed by the last [`Lsm::open`].
    pub records_replayed: u64,
    /// Whether that replay discarded a torn tail.
    pub torn_tail_recovered: bool,
    /// Unreferenced files (crash garbage) removed at open.
    pub garbage_files_removed: u64,
    /// Completed memtable flushes.
    pub flushes: u64,
    /// Flush attempts that failed (fault or kill); data stays in the
    /// memtable + WAL and the flush retries later.
    pub flush_failures: u64,
    /// Completed L0→L1 compactions.
    pub compactions: u64,
    /// Compaction attempts that failed; inputs retained.
    pub compaction_failures: u64,
    /// Current L0 file count.
    pub l0_files: u64,
    /// Current L1 file count.
    pub l1_files: u64,
    /// Approximate memtable bytes.
    pub memtable_bytes: u64,
    /// Acknowledged WAL bytes in the active log.
    pub wal_bytes: u64,
}

struct TableHandle {
    name: String,
    meta: SstMeta,
    reader: Arc<SstReader>,
}

/// Live file set: L0 newest-first, L1 sorted by key range.
struct TableSet {
    l0: Vec<Arc<TableHandle>>,
    l1: Vec<Arc<TableHandle>>,
    next_file_id: u64,
    wal_seq: u64,
}

impl TableSet {
    fn manifest_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        varint::write(&mut payload, MANIFEST_VERSION);
        varint::write(&mut payload, self.next_file_id);
        varint::write(&mut payload, self.wal_seq);
        for level in [&self.l0, &self.l1] {
            varint::write(&mut payload, level.len() as u64);
            for table in level {
                varint::write(&mut payload, table.name.len() as u64);
                payload.extend_from_slice(table.name.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// Decoded manifest: file names only (readers open later).
struct ManifestData {
    next_file_id: u64,
    wal_seq: u64,
    levels: [Vec<String>; 2],
}

fn decode_manifest(data: &[u8]) -> Option<ManifestData> {
    if data.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(data[0..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(data[4..8].try_into().ok()?);
    let payload = data.get(8..8 + len)?;
    if data.len() != 8 + len || crc32(payload) != crc {
        return None;
    }
    let mut pos = 0usize;
    if varint::read(payload, &mut pos)? != MANIFEST_VERSION {
        return None;
    }
    let next_file_id = varint::read(payload, &mut pos)?;
    let wal_seq = varint::read(payload, &mut pos)?;
    let mut levels: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for level in &mut levels {
        let n = varint::read(payload, &mut pos)? as usize;
        for _ in 0..n {
            let len = varint::read(payload, &mut pos)? as usize;
            let name = String::from_utf8(payload.get(pos..pos + len)?.to_vec()).ok()?;
            pos += len;
            level.push(name);
        }
    }
    (pos == payload.len()).then_some(ManifestData {
        next_file_id,
        wal_seq,
        levels,
    })
}

fn wal_name(seq: u64) -> String {
    format!("wal_{seq:06}")
}

fn sst_name(id: u64) -> String {
    format!("sst_{id:06}")
}

struct Inner {
    storage: Arc<dyn Storage>,
    config: LsmConfig,
    /// Write lock: WAL append order == memtable apply order. Held
    /// across flush (rare) so rotation is quiescent.
    wal: Mutex<WalWriter>,
    mem: RwLock<Memtable>,
    tables: RwLock<TableSet>,
    /// Serializes manifest rewrites (flush vs background compaction).
    manifest_lock: Mutex<()>,
    // Background compaction plumbing.
    compact_signal: Mutex<bool>,
    compact_cv: Condvar,
    shutdown: AtomicBool,
    // Stats.
    records_replayed: u64,
    torn_tail_recovered: bool,
    garbage_files_removed: u64,
    flushes: AtomicU64,
    flush_failures: AtomicU64,
    compactions: AtomicU64,
    compaction_failures: AtomicU64,
}

/// The embedded LSM engine. Cloning shares the engine.
#[derive(Clone)]
pub struct Lsm {
    inner: Arc<Inner>,
    bg: Arc<Mutex<Option<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for Lsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lsm").field("stats", &self.stats()).finish()
    }
}

impl Lsm {
    /// Opens (or creates) an engine on `storage`, running recovery:
    /// load the manifest, delete unreferenced crash garbage, open the
    /// live SSTs, replay the active WAL into the memtable (repairing a
    /// torn tail).
    pub fn open(storage: Arc<dyn Storage>, config: LsmConfig) -> StoreResult<Lsm> {
        let manifest = match storage.read(MANIFEST)? {
            Some(data) => Some(decode_manifest(&data).ok_or(StoreError::Corrupt {
                file: MANIFEST.to_owned(),
                offset: 0,
                detail: "manifest failed crc or parse",
            })?),
            None => None,
        };
        let manifest = manifest.unwrap_or(ManifestData {
            next_file_id: 1,
            wal_seq: 1,
            levels: [Vec::new(), Vec::new()],
        });

        // Remove files the manifest doesn't reference: partially
        // written SSTs and superseded WALs from a kill mid-transition.
        let active_wal = wal_name(manifest.wal_seq);
        let mut garbage_files_removed = 0u64;
        for name in storage.list()? {
            let referenced = name == MANIFEST
                || name == active_wal
                || manifest.levels.iter().any(|l| l.contains(&name));
            if !referenced {
                storage.remove(&name)?;
                garbage_files_removed += 1;
            }
        }

        let open_level = |names: &[String]| -> StoreResult<Vec<Arc<TableHandle>>> {
            names
                .iter()
                .map(|name| {
                    let reader = SstReader::open(storage.as_ref(), name)?;
                    // Re-derive the meta from the table itself.
                    let mut entries = 0u64;
                    let mut smallest: Option<String> = None;
                    let mut largest: Option<String> = None;
                    for entry in reader.entries_from("") {
                        let (k, _) = entry?;
                        if smallest.is_none() {
                            smallest = Some(k.clone());
                        }
                        largest = Some(k);
                        entries += 1;
                    }
                    let bytes = storage.size(name)?.unwrap_or(0);
                    Ok(Arc::new(TableHandle {
                        name: name.clone(),
                        meta: SstMeta {
                            smallest: smallest.unwrap_or_default(),
                            largest: largest.unwrap_or_default(),
                            entries,
                            bytes,
                        },
                        reader: Arc::new(reader),
                    }))
                })
                .collect()
        };
        let l0 = open_level(&manifest.levels[0])?;
        let l1 = open_level(&manifest.levels[1])?;

        // Replay the active WAL into a fresh memtable.
        let replay = wal::replay(storage.as_ref(), &active_wal)?;
        let mut mem = Memtable::new();
        let records_replayed = replay.entries.len() as u64;
        for (key, value) in replay.entries {
            mem.insert(key, value);
        }
        let writer = WalWriter::open(
            Arc::clone(&storage),
            active_wal,
            replay.good_len,
            replay.torn,
            config.fsync == FsyncPolicy::Always,
            config.injector.clone(),
        )?;

        let background = config.background_compaction;
        let inner = Arc::new(Inner {
            storage,
            config,
            wal: Mutex::new(writer),
            mem: RwLock::new(mem),
            tables: RwLock::new(TableSet {
                l0,
                l1,
                next_file_id: manifest.next_file_id,
                wal_seq: manifest.wal_seq,
            }),
            manifest_lock: Mutex::new(()),
            compact_signal: Mutex::new(false),
            compact_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            records_replayed,
            torn_tail_recovered: replay.torn,
            garbage_files_removed,
            flushes: AtomicU64::new(0),
            flush_failures: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_failures: AtomicU64::new(0),
        });
        let bg = background.then(|| {
            let worker = Arc::clone(&inner);
            std::thread::spawn(move || background_loop(worker))
        });
        Ok(Lsm {
            inner,
            bg: Arc::new(Mutex::new(bg)),
        })
    }

    /// Writes one key (acked durable on return per the fsync policy).
    pub fn put(&self, key: &str, value: Bytes) -> StoreResult<()> {
        self.write_batch(vec![(key.to_owned(), Some(value))])
    }

    /// Deletes one key (tombstone; idempotent).
    pub fn delete(&self, key: &str) -> StoreResult<()> {
        self.write_batch(vec![(key.to_owned(), None)])
    }

    /// Applies a batch atomically: one WAL record, one fsync. Either
    /// every entry is acked-durable or none is.
    pub fn write_batch(&self, entries: Vec<WalEntry>) -> StoreResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let inner = &self.inner;
        let mut wal = inner.wal.lock();
        wal.append_batch(&entries)?;
        {
            let mut mem = inner.mem.write();
            for (key, value) in entries {
                mem.insert(key, value);
            }
        }
        let full = inner.mem.read().approx_bytes() >= inner.config.memtable_bytes;
        if full {
            // Data is already acked; a failed flush retries later.
            if let Err(_e) = flush_locked(inner, &mut wal) {
                inner.flush_failures.fetch_add(1, Ordering::Relaxed);
            } else {
                self.maybe_compact();
            }
        }
        Ok(())
    }

    /// Point read: memtable, then L0 newest→oldest, then L1.
    pub fn get(&self, key: &str) -> StoreResult<Option<Bytes>> {
        let inner = &self.inner;
        if let Some(hit) = inner.mem.read().get(key) {
            return Ok(hit);
        }
        let (l0, l1) = {
            let tables = inner.tables.read();
            (tables.l0.clone(), tables.l1.clone())
        };
        for table in &l0 {
            if let Some(hit) = table.reader.get(key)? {
                return Ok(hit);
            }
        }
        // L1 runs are disjoint: at most one file can contain the key.
        let idx = l1.partition_point(|t| t.meta.smallest.as_str() <= key);
        if idx > 0 {
            let table = &l1[idx - 1];
            if key <= table.meta.largest.as_str() {
                if let Some(hit) = table.reader.get(key)? {
                    return Ok(hit);
                }
            }
        }
        Ok(None)
    }

    /// All live entries whose key starts with `prefix`, sorted —
    /// a streaming newest-wins merge across memtable and every level,
    /// tombstones applied.
    pub fn scan_prefix(&self, prefix: &str) -> StoreResult<Vec<(String, Bytes)>> {
        let inner = &self.inner;
        let mem = inner.mem.read();
        let (l0, l1) = {
            let tables = inner.tables.read();
            (tables.l0.clone(), tables.l1.clone())
        };
        let mut sources: Vec<EntrySource<'_>> = Vec::with_capacity(2 + l0.len());
        sources.push(Box::new(
            mem.scan_prefix(prefix)
                .map(|(k, v)| Ok((k.clone(), v.clone()))),
        ));
        let owned_prefix = prefix.to_owned();
        for table in &l0 {
            let p = owned_prefix.clone();
            sources.push(Box::new(table.reader.entries_from(prefix).take_while(
                move |e| match e {
                    Ok((k, _)) => k.starts_with(&p),
                    Err(_) => true,
                },
            )));
        }
        let p = owned_prefix.clone();
        sources.push(Box::new(
            l1.iter()
                .skip(
                    l1.partition_point(|t| t.meta.smallest.as_str() <= prefix)
                        .saturating_sub(1),
                )
                .flat_map(move |t| t.reader.entries_from(&owned_prefix))
                .take_while(move |e| match e {
                    Ok((k, _)) => k.starts_with(&p),
                    Err(_) => true,
                }),
        ));
        let merge = MergeIter::new(sources, false)?;
        let mut out = Vec::new();
        for entry in merge {
            let (key, value) = entry?;
            if let Some(value) = value {
                if key.starts_with(prefix) {
                    // A table's value is a slice of its block read (on
                    // `SimStorage`, of the whole file snapshot): copy it
                    // once here so a returned value keeps neither alive.
                    out.push((key, Bytes::copy_from_slice(&value)));
                }
            }
        }
        Ok(out)
    }

    /// Forces a memtable flush (no-op when empty).
    pub fn flush(&self) -> StoreResult<()> {
        let inner = &self.inner;
        let mut wal = inner.wal.lock();
        if inner.mem.read().is_empty() {
            return Ok(());
        }
        match flush_locked(inner, &mut wal) {
            Ok(()) => Ok(()),
            Err(e) => {
                inner.flush_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Forces an L0+L1 → L1 compaction (flushes first).
    pub fn compact(&self) -> StoreResult<()> {
        self.flush()?;
        match compact_once(&self.inner) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.inner
                    .compaction_failures
                    .fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn maybe_compact(&self) {
        let inner = &self.inner;
        let over = inner.tables.read().l0.len() >= inner.config.l0_compact_trigger;
        if !over {
            return;
        }
        if inner.config.background_compaction {
            let mut pending = inner.compact_signal.lock();
            *pending = true;
            inner.compact_cv.notify_one();
        } else if compact_once(inner).is_err() {
            inner.compaction_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> LsmStats {
        let inner = &self.inner;
        let (l0, l1) = {
            let tables = inner.tables.read();
            (tables.l0.len() as u64, tables.l1.len() as u64)
        };
        LsmStats {
            records_replayed: inner.records_replayed,
            torn_tail_recovered: inner.torn_tail_recovered,
            garbage_files_removed: inner.garbage_files_removed,
            flushes: inner.flushes.load(Ordering::Relaxed),
            flush_failures: inner.flush_failures.load(Ordering::Relaxed),
            compactions: inner.compactions.load(Ordering::Relaxed),
            compaction_failures: inner.compaction_failures.load(Ordering::Relaxed),
            l0_files: l0,
            l1_files: l1,
            memtable_bytes: inner.mem.read().approx_bytes() as u64,
            wal_bytes: inner.wal.lock().len(),
        }
    }

    /// Stops the background compactor (if any) and joins it. Called
    /// automatically when the last clone drops.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut pending = self.inner.compact_signal.lock();
            *pending = true;
            self.inner.compact_cv.notify_all();
        }
        if let Some(handle) = self.bg.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Lsm {
    fn drop(&mut self) {
        // Last clone (the bg handle map itself holds no Lsm clone).
        if Arc::strong_count(&self.inner) == if self.bg.lock().is_some() { 2 } else { 1 } {
            self.shutdown();
        }
    }
}

fn background_loop(inner: Arc<Inner>) {
    loop {
        {
            let mut pending = inner.compact_signal.lock();
            while !*pending {
                inner.compact_cv.wait(&mut pending);
            }
            *pending = false;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if compact_once(&inner).is_err() {
            inner.compaction_failures.fetch_add(1, Ordering::Relaxed);
            // Don't spin on a persistently failing device.
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

/// Writes `bytes` as a new SST file, honoring the partial-write fault
/// point. On failure a best-effort remove keeps the namespace tidy
/// (recovery would drop the garbage anyway).
fn write_sst_file(
    storage: &dyn Storage,
    injector: &Option<InjectorHandle>,
    name: &str,
    bytes: &[u8],
) -> StoreResult<()> {
    if injector
        .as_ref()
        .is_some_and(|i| i.fire(DiskFault::SstPartial))
    {
        let keep = (crc32(bytes) as usize) % bytes.len().max(1);
        let _ = storage.append(name, &bytes[..keep]);
        let _ = storage.remove(name);
        return Err(StoreError::Io("injected partial sst write".into()));
    }
    let write = storage
        .append(name, bytes)
        .and_then(|()| storage.sync(name));
    if let Err(e) = write {
        let _ = storage.remove(name);
        return Err(e);
    }
    Ok(())
}

fn open_table(storage: &dyn Storage, name: String, meta: SstMeta) -> StoreResult<Arc<TableHandle>> {
    let reader = SstReader::open(storage, &name)?;
    Ok(Arc::new(TableHandle {
        name,
        meta,
        reader: Arc::new(reader),
    }))
}

/// Memtable → new L0 SST + WAL rotation. Caller holds the WAL lock,
/// so the write path is quiescent. See the module docs for why each
/// step may be killed without losing acked data.
fn flush_locked(inner: &Inner, wal: &mut WalWriter) -> StoreResult<()> {
    let _manifest_guard = inner.manifest_lock.lock();
    let (sst_id, new_seq) = {
        let tables = inner.tables.read();
        (tables.next_file_id, tables.wal_seq + 1)
    };
    let name = sst_name(sst_id);

    // 1. Serialize the memtable (snapshot under read lock; the WAL
    //    lock already excludes writers).
    let mut builder = SstBuilder::new(inner.config.block_bytes);
    {
        let mem = inner.mem.read();
        for (key, value) in mem.iter() {
            builder.add(key, value.clone());
        }
    }
    let Some((bytes, meta)) = builder.finish() else {
        return Ok(()); // empty memtable, nothing to do
    };

    // 2. Durable SST bytes, then 3. atomic manifest swap.
    write_sst_file(
        inner.storage.as_ref(),
        &inner.config.injector,
        &name,
        &bytes,
    )?;
    let handle = open_table(inner.storage.as_ref(), name, meta)?;
    let old_wal = wal.name().to_owned();
    // Built before the manifest swap: once the manifest names the new
    // WAL seq, the writer must already be switched over (construction
    // does no I/O, so this cannot fail post-commit).
    let new_writer = WalWriter::open(
        Arc::clone(&inner.storage),
        wal_name(new_seq),
        0,
        false,
        inner.config.fsync == FsyncPolicy::Always,
        inner.config.injector.clone(),
    )?;
    {
        let mut tables = inner.tables.write();
        tables.l0.insert(0, handle);
        tables.next_file_id = sst_id + 1;
        tables.wal_seq = new_seq;
        let manifest = tables.manifest_bytes();
        if let Err(e) = inner.storage.write_atomic(MANIFEST, &manifest) {
            // Roll back the in-memory set; the orphan SST is garbage.
            let orphan = tables.l0.remove(0);
            tables.next_file_id = sst_id;
            tables.wal_seq = new_seq - 1;
            let _ = inner.storage.remove(&orphan.name);
            return Err(e);
        }
    }

    // 4. Fresh WAL + memtable, 5. drop the superseded log.
    *wal = new_writer;
    *inner.mem.write() = Memtable::new();
    let _ = inner.storage.remove(&old_wal);
    inner.flushes.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Merges all of L0 + L1 into fresh L1 runs (tombstone GC at the
/// bottom). Inputs stay live until the manifest swap; concurrent
/// flushes may prepend new L0 files, which are preserved.
fn compact_once(inner: &Inner) -> StoreResult<()> {
    let _manifest_guard = inner.manifest_lock.lock();
    let (l0, l1, first_id) = {
        let tables = inner.tables.read();
        if tables.l0.is_empty() && tables.l1.len() <= 1 {
            return Ok(()); // nothing worth merging
        }
        (tables.l0.clone(), tables.l1.clone(), tables.next_file_id)
    };

    // Newest first: L0 in order, then L1 chained as one run.
    let mut sources: Vec<EntrySource<'_>> = Vec::with_capacity(l0.len() + 1);
    for table in &l0 {
        sources.push(Box::new(table.reader.entries_from("")));
    }
    sources.push(Box::new(l1.iter().flat_map(|t| t.reader.entries_from(""))));
    let merge = MergeIter::new(sources, true)?;

    // Split outputs at the target size.
    let mut outputs: Vec<(String, SstMeta)> = Vec::new();
    let mut builder = SstBuilder::new(inner.config.block_bytes);
    let mut next_id = first_id;
    let mut seal = |builder: &mut SstBuilder, next_id: &mut u64| -> StoreResult<()> {
        let done = std::mem::replace(builder, SstBuilder::new(inner.config.block_bytes));
        if let Some((bytes, meta)) = done.finish() {
            let name = sst_name(*next_id);
            *next_id += 1;
            write_sst_file(
                inner.storage.as_ref(),
                &inner.config.injector,
                &name,
                &bytes,
            )?;
            outputs.push((name, meta));
        }
        Ok(())
    };
    let run = (|| -> StoreResult<()> {
        for entry in merge {
            let (key, value) = entry?;
            builder.add(&key, value);
            if builder.approx_bytes() >= inner.config.sst_target_bytes {
                seal(&mut builder, &mut next_id)?;
            }
        }
        seal(&mut builder, &mut next_id)
    })();
    if let Err(e) = run {
        for (name, _) in &outputs {
            let _ = inner.storage.remove(name);
        }
        return Err(e);
    }

    // Commit: swap the manifest, keep L0 files flushed meanwhile.
    let compacted_l0: Vec<String> = l0.iter().map(|t| t.name.clone()).collect();
    {
        let mut tables = inner.tables.write();
        let kept_l0: Vec<Arc<TableHandle>> = tables
            .l0
            .iter()
            .filter(|t| !compacted_l0.contains(&t.name))
            .cloned()
            .collect();
        let new_l1 = outputs
            .iter()
            .map(|(name, meta)| open_table(inner.storage.as_ref(), name.clone(), meta.clone()))
            .collect::<StoreResult<Vec<_>>>();
        let new_l1 = match new_l1 {
            Ok(v) => v,
            Err(e) => {
                for (name, _) in &outputs {
                    let _ = inner.storage.remove(name);
                }
                return Err(e);
            }
        };
        let old_l0 = std::mem::replace(&mut tables.l0, kept_l0);
        let old_l1 = std::mem::replace(&mut tables.l1, new_l1);
        tables.next_file_id = next_id;
        let manifest = tables.manifest_bytes();
        if let Err(e) = inner.storage.write_atomic(MANIFEST, &manifest) {
            // Restore; outputs become garbage.
            tables.l0 = old_l0;
            tables.l1 = old_l1;
            tables.next_file_id = first_id;
            for (name, _) in &outputs {
                let _ = inner.storage.remove(name);
            }
            return Err(e);
        }
        // Committed: superseded inputs can go.
        for table in old_l0.iter().filter(|t| compacted_l0.contains(&t.name)) {
            let _ = inner.storage.remove(&table.name);
        }
        for table in &old_l1 {
            let _ = inner.storage.remove(&table.name);
        }
    }
    inner.compactions.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;

    fn engine(config: LsmConfig) -> (SimStorage, Lsm) {
        let dev = SimStorage::new();
        let lsm = Lsm::open(Arc::new(dev.clone()), config).unwrap();
        (dev, lsm)
    }

    fn small_config() -> LsmConfig {
        LsmConfig {
            memtable_bytes: 1024,
            block_bytes: 256,
            sst_target_bytes: 2048,
            l0_compact_trigger: 3,
            ..LsmConfig::default()
        }
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (_dev, lsm) = engine(LsmConfig::default());
        lsm.put("/a", Bytes::from_static(b"1")).unwrap();
        assert_eq!(lsm.get("/a").unwrap(), Some(Bytes::from_static(b"1")));
        lsm.delete("/a").unwrap();
        assert_eq!(lsm.get("/a").unwrap(), None);
        assert_eq!(lsm.get("/missing").unwrap(), None);
    }

    #[test]
    fn reads_span_memtable_and_all_levels() {
        let (_dev, lsm) = engine(small_config());
        for i in 0..200 {
            lsm.put(
                &format!("/k/{i:04}"),
                Bytes::from(format!("v{i}").into_bytes()),
            )
            .unwrap();
        }
        let stats = lsm.stats();
        assert!(stats.flushes > 0, "expected flushes: {stats:?}");
        assert!(stats.compactions > 0, "expected compactions: {stats:?}");
        for i in 0..200 {
            assert_eq!(
                lsm.get(&format!("/k/{i:04}")).unwrap(),
                Some(Bytes::from(format!("v{i}").into_bytes())),
                "key {i}"
            );
        }
    }

    #[test]
    fn reopen_replays_wal() {
        let dev = SimStorage::new();
        {
            let lsm = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
            lsm.put("/a", Bytes::from_static(b"1")).unwrap();
            lsm.put("/b", Bytes::from_static(b"2")).unwrap();
            lsm.delete("/a").unwrap();
        }
        let lsm = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
        assert_eq!(lsm.stats().records_replayed, 3);
        assert_eq!(lsm.get("/a").unwrap(), None);
        assert_eq!(lsm.get("/b").unwrap(), Some(Bytes::from_static(b"2")));
    }

    #[test]
    fn reopen_after_flush_reads_from_ssts() {
        let dev = SimStorage::new();
        {
            let lsm = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
            for i in 0..50 {
                lsm.put(&format!("/k/{i:02}"), Bytes::from(vec![i as u8; 10]))
                    .unwrap();
            }
            lsm.flush().unwrap();
        }
        let lsm = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
        assert_eq!(lsm.stats().records_replayed, 0);
        assert_eq!(lsm.stats().l0_files, 1);
        for i in 0..50 {
            assert_eq!(
                lsm.get(&format!("/k/{i:02}")).unwrap(),
                Some(Bytes::from(vec![i as u8; 10]))
            );
        }
    }

    #[test]
    fn scan_prefix_merges_levels_and_applies_tombstones() {
        let (_dev, lsm) = engine(small_config());
        for i in 0..60 {
            lsm.put(&format!("/tree/{i:03}"), Bytes::from_static(b"x"))
                .unwrap();
        }
        lsm.put("/other", Bytes::from_static(b"y")).unwrap();
        lsm.delete("/tree/005").unwrap();
        lsm.put("/tree/010", Bytes::from_static(b"updated"))
            .unwrap();
        let got = lsm.scan_prefix("/tree/").unwrap();
        assert_eq!(got.len(), 59);
        assert!(got.iter().all(|(k, _)| k.starts_with("/tree/")));
        assert!(!got.iter().any(|(k, _)| k == "/tree/005"));
        let updated = got.iter().find(|(k, _)| k == "/tree/010").unwrap();
        assert_eq!(updated.1, Bytes::from_static(b"updated"));
        // Sorted.
        let mut sorted = got.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got, sorted);
    }

    #[test]
    fn tombstones_gced_at_bottom_level() {
        let (_dev, lsm) = engine(small_config());
        lsm.put("/gone", Bytes::from_static(b"data")).unwrap();
        lsm.delete("/gone").unwrap();
        lsm.compact().unwrap();
        // After full compaction the tombstone must not survive in L1.
        let tables = lsm.inner.tables.read();
        for t in &tables.l1 {
            for entry in t.reader.entries_from("") {
                let (k, v) = entry.unwrap();
                assert!(v.is_some(), "tombstone for {k} survived bottom level");
            }
        }
    }

    #[test]
    fn batch_is_atomic_across_kill() {
        // Kill during the batch's fsync: the whole batch must vanish.
        let dev = SimStorage::new();
        let lsm = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
        lsm.put("/keep", Bytes::from_static(b"1")).unwrap();
        dev.arm_kill(2, 42); // append ok, fsync killed
        let err = lsm
            .write_batch(vec![
                ("/x".into(), Some(Bytes::from_static(b"x"))),
                ("/y".into(), Some(Bytes::from_static(b"y"))),
            ])
            .unwrap_err();
        assert_eq!(err, StoreError::Killed);
        dev.crash();
        let lsm2 = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
        assert_eq!(lsm2.get("/keep").unwrap(), Some(Bytes::from_static(b"1")));
        assert_eq!(lsm2.get("/x").unwrap(), None);
        assert_eq!(lsm2.get("/y").unwrap(), None);
    }

    #[test]
    fn background_compaction_converges() {
        let config = LsmConfig {
            background_compaction: true,
            ..small_config()
        };
        let (_dev, lsm) = engine(config);
        for i in 0..300 {
            lsm.put(&format!("/k/{i:04}"), Bytes::from(vec![0u8; 16]))
                .unwrap();
        }
        // Wait for the background worker to drain the trigger.
        for _ in 0..200 {
            if lsm.stats().compactions > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        for i in 0..300 {
            assert_eq!(
                lsm.get(&format!("/k/{i:04}")).unwrap(),
                Some(Bytes::from(vec![0u8; 16])),
                "key {i}"
            );
        }
        lsm.shutdown();
    }

    #[test]
    fn corrupt_manifest_is_clean_error() {
        let dev = SimStorage::new();
        {
            let lsm = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
            lsm.put("/a", Bytes::from_static(b"1")).unwrap();
            lsm.flush().unwrap();
        }
        dev.corrupt_byte(MANIFEST, 10);
        let err = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }
}
