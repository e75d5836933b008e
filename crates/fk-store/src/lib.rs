//! `fk-store` — an embedded LSM storage engine.
//!
//! Every other backend in this workspace is either in-memory or a
//! *modeled* cloud service; this crate is the native durability tier
//! (ROADMAP open item 1): a single-node persistent key-value engine
//! running at hardware speed, so deployments and benches get a latency
//! class that isn't synthetic.
//!
//! Architecture (classic LSM, see `docs/storage.md` for the on-disk
//! format and the recovery argument):
//!
//! - **WAL** ([`wal`]): every mutation batch is appended to an
//!   append-only log as one CRC-framed record and fsynced before the
//!   write is acknowledged (group commit: one fsync covers the whole
//!   batch). Recovery replays the log into the memtable; a torn tail
//!   (truncated or CRC-mismatched final record) is detected and
//!   discarded cleanly.
//! - **Memtable** ([`memtable`]): a sorted in-memory map of the most
//!   recent writes, with tombstones for deletes.
//! - **SSTs** ([`sst`]): when the memtable exceeds its budget it is
//!   flushed to an immutable sorted-string-table file — block-based
//!   with per-block CRCs, a sparse index (one entry per block), and a
//!   bloom filter over all keys. A block is one read of payload and
//!   CRC; a value leaving the engine keeps at most its block alive.
//! - **Checksums** ([`crc32`]): every WAL record and SST block is
//!   framed by a CRC-32 computed slicing-by-16 (16 tables from one
//!   `const fn`, byte-wise tail) — the same ISO-HDLC polynomial and the
//!   same bytes on disk as a one-lookup-per-byte loop, at a fraction of
//!   the host time. One portable path: no `unsafe`, no CPU dispatch.
//! - **Compaction** ([`compaction`]): L0 files (overlapping, newest
//!   wins) are merged with the bottom level into non-overlapping L1
//!   runs; tombstones are garbage-collected when they reach the bottom
//!   level. Compaction can run inline (deterministic tests) or on a
//!   background thread ([`LsmConfig::background_compaction`]).
//! - **Manifest**: an atomically-rewritten file naming the live SSTs
//!   and the active WAL. Files on disk but absent from the manifest
//!   (e.g. a partially-written SST from a crash mid-flush) are ignored
//!   and removed on open.
//!
//! The engine is deliberately independent of the rest of the
//! workspace: it depends only on `bytes`/`parking_lot`, so both
//! `fk-cloud` (durable system store) and `fk-core` (durable user
//! store) can layer on top of it. Fault injection is wired through the
//! object-safe [`FaultInjector`] hook rather than a dependency on
//! `fk-cloud::chaos`; the deployment layer adapts its chaos engine
//! onto this trait.

pub mod bloom;
pub mod compaction;
pub mod lsm;
pub mod memtable;
pub mod sst;
pub mod storage;
pub mod wal;

pub use lsm::{FsyncPolicy, Lsm, LsmConfig, LsmStats};
pub use storage::{DiskStorage, SimStorage, Storage};

use std::fmt;
use std::sync::Arc;

/// Errors surfaced by the storage engine. All corruption and I/O
/// conditions decode to one of these — the engine never panics on bad
/// bytes and never silently drops data it acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying storage I/O failed (disk error, injected fsync
    /// failure, partial write). The triggering mutation was **not**
    /// acknowledged; callers may retry.
    Io(String),
    /// A frame failed its CRC or length check. Carries the file and
    /// offset for diagnostics. During recovery a corrupt *tail* is
    /// expected (torn write) and handled internally; this error
    /// escapes only when corruption is found where it cannot be a torn
    /// tail (e.g. an SST block).
    Corrupt {
        /// File the bad frame was read from.
        file: String,
        /// Byte offset of the frame.
        offset: u64,
        /// What failed (length, magic, CRC...).
        detail: &'static str,
    },
    /// The simulated storage was killed at a seeded kill point: every
    /// subsequent mutation fails with this error until
    /// [`SimStorage::crash`] resets the device. Test-only by
    /// construction ([`DiskStorage`] never returns it).
    Killed,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StoreError::Corrupt {
                file,
                offset,
                detail,
            } => {
                write!(f, "corrupt frame in {file} at offset {offset}: {detail}")
            }
            StoreError::Killed => write!(f, "storage killed at injected kill point"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias for engine operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Disk fault points the engine exposes for chaos testing. The
/// deployment layer maps its chaos schedule onto these via
/// [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The fsync after a WAL append fails. The append is not
    /// acknowledged; the record may or may not be durable, so recovery
    /// must tolerate replaying a retried record twice (it does:
    /// records are full puts/deletes, replay is idempotent).
    FsyncFail,
    /// A WAL append tears mid-record: only a prefix of the frame
    /// reaches the device and the append fails. The writer repairs by
    /// truncating back to the last good offset before the next append;
    /// recovery detects the torn frame by CRC and stops cleanly.
    WalTear,
    /// An SST write stops partway through the file. The flush or
    /// compaction aborts (memtable retained, inputs retained); the
    /// garbage file is not referenced by the manifest and is removed
    /// on the next open.
    SstPartial,
}

impl DiskFault {
    /// Stable label for metering / assert messages.
    pub fn label(self) -> &'static str {
        match self {
            DiskFault::FsyncFail => "disk_fsync_fail",
            DiskFault::WalTear => "disk_wal_tear",
            DiskFault::SstPartial => "disk_sst_partial",
        }
    }
}

/// Object-safe fault-injection hook. `fire` returns `true` when the
/// fault should trigger at this call site; the engine then emulates
/// the failure (partial bytes on the device + an [`StoreError::Io`]
/// to the caller). A `None` injector on [`LsmConfig`] compiles to
/// plain straight-line code.
pub trait FaultInjector: Send + Sync {
    /// Rolls for one fault point. Implementations decide probability
    /// and budget; the engine only asks.
    fn fire(&self, fault: DiskFault) -> bool;
}

/// Shared injector handle.
pub type InjectorHandle = Arc<dyn FaultInjector>;

/// Reflected ISO-HDLC CRC-32 polynomial (the `crc32fast`/zlib variant).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte-wise table,
/// and `CRC_TABLES[k][b]` is the CRC contribution of byte `b` followed
/// by `k` zero bytes, so one 16-byte chunk folds in with 16 independent
/// lookups instead of 16 dependent ones.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 (ISO-HDLC polynomial, the `crc32fast`/zlib variant) used to
/// frame every WAL record and SST block. Slicing-by-16 over whole
/// 16-byte chunks, byte-wise over the tail: the same value as the
/// one-lookup-per-byte loop, so every checksum on disk is unchanged.
/// Portable, no `unsafe`, no deps.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let c: &[u8; 16] = chunk.try_into().expect("16-byte chunk");
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Little-endian varint (LEB128) encoding, matching the framing style
/// of fk-core's binary codec. Public so the layers above can reuse the
/// exact framing for their own durable payloads.
pub mod varint {
    /// Appends `v` to `out` as a LEB128 varint.
    pub fn write(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                break;
            }
            out.push(byte | 0x80);
        }
    }

    /// Reads a varint from `buf` at `*pos`, advancing it. Returns
    /// `None` on truncation or overlong encoding (> 10 bytes).
    pub fn read(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *buf.get(*pos)?;
            *pos += 1;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one table lookup per byte, with its own table —
    /// the kernel every file on disk was written with before the sliced
    /// one.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        const fn table() -> [u32; 256] {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    k += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        }
        static TABLE: [u32; 256] = table();
        let mut crc = !0u32;
        for &b in data {
            crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the ISO-HDLC CRC-32.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    #[test]
    fn crc32_matches_bytewise_on_every_short_length() {
        let data: Vec<u8> = (0..256u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..=256 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn crc32_matches_bytewise_on_random_buffers() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3_2032);
        let mut buf = vec![0u8; 64 * 1024 + 16];
        for case in 0..2_000 {
            let len: usize = rng.gen_range(0..=64 * 1024);
            let start = case % 16;
            rng.fill_bytes(&mut buf[start..start + len]);
            let data = &buf[start..start + len];
            assert_eq!(
                crc32(data),
                crc32_bytewise(data),
                "case {case}, len {len}, start {start}"
            );
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            varint::write(&mut buf, v);
            let mut pos = 0;
            assert_eq!(varint::read(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncation_is_none() {
        let mut buf = Vec::new();
        varint::write(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(varint::read(&buf[..cut], &mut pos), None);
        }
    }

    #[test]
    fn error_display() {
        let e = StoreError::Corrupt {
            file: "wal_000001".into(),
            offset: 42,
            detail: "crc mismatch",
        };
        assert!(e.to_string().contains("wal_000001"));
        assert!(e.to_string().contains("42"));
    }
}
