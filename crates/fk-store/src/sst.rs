//! Immutable sorted-string tables.
//!
//! On-disk layout (all integers little-endian, varints LEB128):
//!
//! ```text
//! file   := block* · meta · footer
//! block  := payload · crc32(payload) u32
//! payload:= varint n · n × entry                  (keys sorted, unique)
//! entry  := tag u8 (1 = value, 2 = tombstone) · varint key_len · key
//!           · (value only) varint val_len · val
//! meta   := bloom · index
//! index  := varint n_blocks · n × (varint first_key_len · first_key
//!           · varint offset · varint payload_len)
//! footer := meta_offset u64 · meta_len u32 · crc32(meta) u32
//!           · magic u32 (= 0x464B_5331 "FKS1")
//! ```
//!
//! The sparse index holds one entry per block (first key + extent);
//! point reads touch the footer/meta once at open, then exactly one
//! block per lookup after the bloom filter passes. Every byte of the
//! file is covered by a CRC (blocks individually, meta via the footer
//! checksum), so a torn or bit-flipped SST surfaces as
//! [`StoreError::Corrupt`] — never a panic, never silently wrong data.
//!
//! **Byte path.** A block costs one `read_at` of its payload and CRC
//! together (one `pread` on [`DiskStorage`](crate::DiskStorage)); the
//! payload is checked with the sliced [`crc32`] kernel, which yields
//! the same checksums as the byte-wise one. A point read walks the
//! block in place and copies out only the hit's value. The iterator
//! decodes a block once and hands out its values as slices of the
//! block read, which the builder and compaction consume without a copy.
//! A value that leaves the engine (`Lsm::get`, `Lsm::scan_prefix`)
//! keeps at most its own block alive, never a whole table: on
//! [`SimStorage`](crate::SimStorage) a block read is a slice of the
//! whole-file snapshot, so such a value is copied once, at the exit.

use crate::bloom::Bloom;
use crate::storage::{RandomAccess, Storage};
use crate::{crc32, varint, StoreError, StoreResult};
use bytes::Bytes;
use std::ops::Range;
use std::sync::Arc;

/// Footer magic: "FKS1".
pub const MAGIC: u32 = 0x464B_5331;
/// Fixed footer size in bytes.
pub const FOOTER: usize = 20;

const TAG_VALUE: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;

/// One decoded SST entry (tombstones carry `None`).
pub type SstEntry = (String, Option<Bytes>);

fn encode_entry(out: &mut Vec<u8>, key: &str, value: &Option<Bytes>) {
    match value {
        Some(value) => {
            out.push(TAG_VALUE);
            varint::write(out, key.len() as u64);
            out.extend_from_slice(key.as_bytes());
            varint::write(out, value.len() as u64);
            out.extend_from_slice(value);
        }
        None => {
            out.push(TAG_TOMBSTONE);
            varint::write(out, key.len() as u64);
            out.extend_from_slice(key.as_bytes());
        }
    }
}

/// Parses the entry at `*pos` in place, advancing past it: the key's
/// bytes and the value's extent within `payload` (`None` = tombstone).
/// `None` on a malformed entry.
fn next_entry<'a>(payload: &'a [u8], pos: &mut usize) -> Option<(&'a [u8], Option<Range<usize>>)> {
    let tag = *payload.get(*pos)?;
    *pos += 1;
    let key_len = varint::read(payload, pos)? as usize;
    let key = payload.get(*pos..pos.checked_add(key_len)?)?;
    *pos += key_len;
    match tag {
        TAG_VALUE => {
            let val_len = varint::read(payload, pos)? as usize;
            let end = pos
                .checked_add(val_len)
                .filter(|&end| end <= payload.len())?;
            let value = *pos..end;
            *pos = end;
            Some((key, Some(value)))
        }
        TAG_TOMBSTONE => Some((key, None)),
        _ => None,
    }
}

/// Decodes a whole block. Values are slices of `payload`, not copies.
fn decode_entries(payload: &Bytes) -> Option<Vec<SstEntry>> {
    let mut pos = 0usize;
    let n = varint::read(payload, &mut pos)? as usize;
    let mut out = Vec::with_capacity(n.min(payload.len()));
    for _ in 0..n {
        let (key, value) = next_entry(payload, &mut pos)?;
        let key = std::str::from_utf8(key).ok()?.to_owned();
        out.push((key, value.map(|value| payload.slice(value))));
    }
    (pos == payload.len()).then_some(out)
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Streams sorted entries into the serialized SST byte image.
pub struct SstBuilder {
    target_block: usize,
    file: Vec<u8>,
    // Current block under construction.
    block_entries: Vec<u8>,
    block_count: u64,
    block_first_key: Option<String>,
    // Index rows: (first_key, offset, payload_len).
    index: Vec<(String, u64, u64)>,
    keys: Vec<Vec<u8>>,
    smallest: Option<String>,
    largest: Option<String>,
    entries: u64,
}

impl SstBuilder {
    /// A builder splitting blocks at ~`target_block` payload bytes.
    pub fn new(target_block: usize) -> Self {
        SstBuilder {
            target_block: target_block.max(64),
            file: Vec::new(),
            block_entries: Vec::new(),
            block_count: 0,
            block_first_key: None,
            index: Vec::new(),
            keys: Vec::new(),
            smallest: None,
            largest: None,
            entries: 0,
        }
    }

    /// Adds the next entry; keys must arrive strictly ascending.
    pub fn add(&mut self, key: &str, value: Option<Bytes>) {
        debug_assert!(
            self.largest.as_deref().is_none_or(|last| last < key),
            "SST keys must be strictly ascending"
        );
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key.to_owned());
        }
        encode_entry(&mut self.block_entries, key, &value);
        self.block_count += 1;
        self.keys.push(key.as_bytes().to_vec());
        if self.smallest.is_none() {
            self.smallest = Some(key.to_owned());
        }
        self.largest = Some(key.to_owned());
        self.entries += 1;
        if self.block_entries.len() >= self.target_block {
            self.finish_block();
        }
    }

    fn finish_block(&mut self) {
        if self.block_count == 0 {
            return;
        }
        // The payload is built in place at the end of the file buffer.
        let offset = self.file.len();
        varint::write(&mut self.file, self.block_count);
        self.file.extend_from_slice(&self.block_entries);
        self.block_entries.clear();
        let crc = crc32(&self.file[offset..]);
        let len = self.file.len() - offset;
        self.file.extend_from_slice(&crc.to_le_bytes());
        self.index.push((
            self.block_first_key.take().expect("non-empty block"),
            offset as u64,
            len as u64,
        ));
        self.block_count = 0;
    }

    /// Entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Serialized size so far (flushed blocks only).
    pub fn approx_bytes(&self) -> usize {
        self.file.len() + self.block_entries.len()
    }

    /// Seals the table. Returns `None` if no entry was added.
    pub fn finish(mut self) -> Option<(Vec<u8>, SstMeta)> {
        self.finish_block();
        if self.entries == 0 {
            return None;
        }
        let meta_offset = self.file.len() as u64;
        let mut meta = Vec::new();
        let bloom = Bloom::build(self.keys.iter().map(|k| k.as_slice()), self.keys.len());
        bloom.encode(&mut meta);
        varint::write(&mut meta, self.index.len() as u64);
        for (first_key, offset, len) in &self.index {
            varint::write(&mut meta, first_key.len() as u64);
            meta.extend_from_slice(first_key.as_bytes());
            varint::write(&mut meta, *offset);
            varint::write(&mut meta, *len);
        }
        let meta_crc = crc32(&meta);
        let meta_len = meta.len() as u32;
        self.file.extend_from_slice(&meta);
        self.file.extend_from_slice(&meta_offset.to_le_bytes());
        self.file.extend_from_slice(&meta_len.to_le_bytes());
        self.file.extend_from_slice(&meta_crc.to_le_bytes());
        self.file.extend_from_slice(&MAGIC.to_le_bytes());
        let sst_meta = SstMeta {
            smallest: self.smallest.expect("entries > 0"),
            largest: self.largest.expect("entries > 0"),
            entries: self.entries,
            bytes: self.file.len() as u64,
        };
        Some((self.file, sst_meta))
    }
}

/// Summary of a sealed table (manifest row material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SstMeta {
    /// Smallest key in the table.
    pub smallest: String,
    /// Largest key in the table.
    pub largest: String,
    /// Entry count (tombstones included).
    pub entries: u64,
    /// File size in bytes.
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct IndexRow {
    first_key: String,
    offset: u64,
    len: u64,
}

/// Open handle to one immutable table: bloom + sparse index in memory,
/// blocks read on demand.
pub struct SstReader {
    name: String,
    handle: Arc<dyn RandomAccess>,
    bloom: Bloom,
    index: Vec<IndexRow>,
}

impl std::fmt::Debug for SstReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SstReader")
            .field("name", &self.name)
            .field("blocks", &self.index.len())
            .finish()
    }
}

impl SstReader {
    /// Opens and validates footer + meta. Any truncation or bit flip
    /// in the meta section is a clean [`StoreError::Corrupt`].
    pub fn open(storage: &dyn Storage, name: &str) -> StoreResult<SstReader> {
        let handle = storage.open(name)?;
        let size = handle.len();
        let corrupt = |offset: u64, detail: &'static str| StoreError::Corrupt {
            file: name.to_owned(),
            offset,
            detail,
        };
        if (size as usize) < FOOTER {
            return Err(corrupt(0, "file shorter than footer"));
        }
        let footer = handle.read_at(size - FOOTER as u64, FOOTER)?;
        let magic = u32::from_le_bytes(footer[16..20].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(corrupt(size - 4, "bad footer magic"));
        }
        let meta_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let meta_len = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes")) as u64;
        let meta_crc = u32::from_le_bytes(footer[12..16].try_into().expect("4 bytes"));
        if meta_offset
            .checked_add(meta_len)
            .and_then(|v| v.checked_add(FOOTER as u64))
            != Some(size)
        {
            return Err(corrupt(size - FOOTER as u64, "meta extent out of bounds"));
        }
        let meta = handle.read_at(meta_offset, meta_len as usize)?;
        if crc32(&meta) != meta_crc {
            return Err(corrupt(meta_offset, "meta crc mismatch"));
        }
        let mut pos = 0usize;
        let mut parse = || -> Option<(Bloom, Vec<IndexRow>)> {
            let bloom = Bloom::decode(&meta, &mut pos)?;
            let n = varint::read(&meta, &mut pos)? as usize;
            let mut index = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let key_len = varint::read(&meta, &mut pos)? as usize;
                let first_key = String::from_utf8(meta.get(pos..pos + key_len)?.to_vec()).ok()?;
                pos += key_len;
                let offset = varint::read(&meta, &mut pos)?;
                let len = varint::read(&meta, &mut pos)?;
                // The block's payload and its CRC end before the meta.
                if offset
                    .checked_add(len)
                    .and_then(|end| end.checked_add(4))
                    .is_none_or(|end| end > meta_offset)
                {
                    return None;
                }
                index.push(IndexRow {
                    first_key,
                    offset,
                    len,
                });
            }
            (pos == meta.len()).then_some((bloom, index))
        };
        let (bloom, index) = parse().ok_or_else(|| corrupt(meta_offset, "meta failed to parse"))?;
        Ok(SstReader {
            name: name.to_owned(),
            handle,
            bloom,
            index,
        })
    }

    /// Table file name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One read of the block's payload and CRC together; returns the
    /// CRC-checked payload.
    fn read_block(&self, row: &IndexRow) -> StoreResult<Bytes> {
        let len = row.len as usize;
        let block = self.handle.read_at(row.offset, len + 4)?;
        let crc = u32::from_le_bytes(block[len..].try_into().expect("4 bytes"));
        if crc32(&block[..len]) != crc {
            return Err(StoreError::Corrupt {
                file: self.name.clone(),
                offset: row.offset,
                detail: "block crc mismatch",
            });
        }
        Ok(block.slice(0..len))
    }

    fn unparsable(&self, row: &IndexRow) -> StoreError {
        StoreError::Corrupt {
            file: self.name.clone(),
            offset: row.offset,
            detail: "crc-valid block failed to parse",
        }
    }

    fn decode_block(&self, row: &IndexRow) -> StoreResult<Vec<SstEntry>> {
        let payload = self.read_block(row)?;
        decode_entries(&payload).ok_or_else(|| self.unparsable(row))
    }

    /// Point lookup. Outer `None` = key not in this table; `Some(None)`
    /// = tombstone.
    pub fn get(&self, key: &str) -> StoreResult<Option<Option<Bytes>>> {
        if !self.bloom.may_contain(key.as_bytes()) {
            return Ok(None);
        }
        // Last block whose first key ≤ key.
        let idx = self
            .index
            .partition_point(|row| row.first_key.as_str() <= key);
        if idx == 0 {
            return Ok(None);
        }
        // Walk the block in place; only the hit's value is copied out, so
        // it keeps no block or file snapshot alive.
        let row = &self.index[idx - 1];
        let payload = self.read_block(row)?;
        let mut pos = 0usize;
        let n = varint::read(&payload, &mut pos).ok_or_else(|| self.unparsable(row))?;
        for _ in 0..n {
            let (k, value) = next_entry(&payload, &mut pos).ok_or_else(|| self.unparsable(row))?;
            if k == key.as_bytes() {
                return Ok(Some(value.map(|v| Bytes::copy_from_slice(&payload[v]))));
            }
        }
        if pos != payload.len() {
            return Err(self.unparsable(row));
        }
        Ok(None)
    }

    /// All entries with key ≥ `start`, in key order, reading blocks
    /// lazily. The caller stops consuming once past its range.
    pub fn entries_from(&self, start: &str) -> SstIter<'_> {
        let block = self
            .index
            .partition_point(|row| row.first_key.as_str() <= start)
            .saturating_sub(1);
        SstIter {
            reader: self,
            block,
            current: Vec::new().into_iter(),
            start: start.to_owned(),
            skipping: true,
        }
    }

    /// Entry count per the index (blocks are trusted; full count needs
    /// a scan).
    pub fn blocks(&self) -> usize {
        self.index.len()
    }
}

/// Lazy block-by-block iterator; yields `Err` once and stops on
/// corruption.
pub struct SstIter<'a> {
    reader: &'a SstReader,
    block: usize,
    current: std::vec::IntoIter<SstEntry>,
    start: String,
    skipping: bool,
}

impl Iterator for SstIter<'_> {
    type Item = StoreResult<SstEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.current.next() {
                if self.skipping && entry.0.as_str() < self.start.as_str() {
                    continue;
                }
                self.skipping = false;
                return Some(Ok(entry));
            }
            if self.block >= self.reader.index.len() {
                return None;
            }
            match self.reader.decode_block(&self.reader.index[self.block]) {
                Ok(entries) => {
                    self.block += 1;
                    self.current = entries.into_iter();
                }
                Err(e) => {
                    self.block = self.reader.index.len();
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;

    fn build(entries: &[(&str, Option<&[u8]>)], block: usize) -> (SimStorage, SstMeta) {
        let dev = SimStorage::new();
        let mut b = SstBuilder::new(block);
        for (k, v) in entries {
            b.add(k, v.map(|v| Bytes::from(v.to_vec())));
        }
        let (bytes, meta) = b.finish().unwrap();
        dev.append("sst", &bytes).unwrap();
        dev.sync("sst").unwrap();
        (dev, meta)
    }

    #[test]
    fn point_reads_across_blocks() {
        let entries: Vec<(String, Vec<u8>)> = (0..500)
            .map(|i| (format!("/n/{i:04}"), format!("value-{i}").into_bytes()))
            .collect();
        let refs: Vec<(&str, Option<&[u8]>)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_slice())))
            .collect();
        let (dev, meta) = build(&refs, 256);
        assert_eq!(meta.entries, 500);
        assert_eq!(meta.smallest, "/n/0000");
        assert_eq!(meta.largest, "/n/0499");
        let r = SstReader::open(&dev, "sst").unwrap();
        assert!(r.blocks() > 1, "expected multiple blocks");
        for (k, v) in &entries {
            assert_eq!(
                r.get(k).unwrap(),
                Some(Some(Bytes::from(v.clone()))),
                "key {k}"
            );
        }
        assert_eq!(r.get("/absent").unwrap(), None);
        assert_eq!(r.get("/a").unwrap(), None); // before first block
    }

    #[test]
    fn tombstones_roundtrip() {
        let (dev, _) = build(
            &[("/a", Some(b"1")), ("/b", None), ("/c", Some(b"3"))],
            4096,
        );
        let r = SstReader::open(&dev, "sst").unwrap();
        assert_eq!(r.get("/b").unwrap(), Some(None));
        let all: Vec<SstEntry> = r.entries_from("").map(|e| e.unwrap()).collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1], ("/b".to_owned(), None));
    }

    #[test]
    fn entries_from_mid_table() {
        let entries: Vec<String> = (0..100).map(|i| format!("/k/{i:03}")).collect();
        let refs: Vec<(&str, Option<&[u8]>)> = entries
            .iter()
            .map(|k| (k.as_str(), Some(b"v".as_slice())))
            .collect();
        let (dev, _) = build(&refs, 128);
        let r = SstReader::open(&dev, "sst").unwrap();
        let from: Vec<String> = r.entries_from("/k/090").map(|e| e.unwrap().0).collect();
        assert_eq!(from.len(), 10);
        assert_eq!(from[0], "/k/090");
    }

    #[test]
    fn truncated_file_is_clean_error_at_every_cut() {
        let (dev, _) = build(&[("/a", Some(b"aaaa")), ("/b", Some(b"bbbb"))], 64);
        let full = dev.read("sst").unwrap().unwrap();
        for cut in 0..full.len() {
            let dev2 = SimStorage::new();
            dev2.append("sst", &full[..cut]).unwrap();
            // Either open fails cleanly or every subsequent read does.
            if let Ok(r) = SstReader::open(&dev2, "sst") {
                let _ = r.get("/a");
                let _: Vec<_> = r.entries_from("").collect();
            }
        }
    }

    #[test]
    fn corrupt_block_byte_is_corrupt_error_not_wrong_data() {
        let entries: Vec<String> = (0..200).map(|i| format!("/k/{i:03}")).collect();
        let refs: Vec<(&str, Option<&[u8]>)> = entries
            .iter()
            .map(|k| (k.as_str(), Some(b"vvvv".as_slice())))
            .collect();
        let (dev, _) = build(&refs, 256);
        // Flip one byte inside the first block's payload.
        dev.corrupt_byte("sst", 10);
        let r = SstReader::open(&dev, "sst").unwrap();
        let err = r.get("/k/000").unwrap_err();
        assert!(matches!(
            err,
            StoreError::Corrupt {
                detail: "block crc mismatch",
                ..
            }
        ));
        // Iterator surfaces the error once, then stops.
        let results: Vec<_> = r.entries_from("").collect();
        assert!(results[0].is_err());
    }

    #[test]
    fn corrupt_meta_fails_open_cleanly() {
        let (dev, meta) = build(&[("/a", Some(b"1"))], 4096);
        // Flip a byte in the meta section (between blocks and footer).
        dev.corrupt_byte("sst", meta.bytes as usize - FOOTER - 2);
        let err = SstReader::open(&dev, "sst").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn empty_builder_yields_none() {
        assert!(SstBuilder::new(4096).finish().is_none());
    }

    /// 200 keys over 256-byte blocks: several blocks, values of 4 bytes.
    fn multi_block() -> (SimStorage, Vec<(String, Bytes)>) {
        let entries: Vec<(String, Bytes)> = (0..200)
            .map(|i| (format!("/k/{i:03}"), Bytes::from(format!("v{i:03}"))))
            .collect();
        let refs: Vec<(&str, Option<&[u8]>)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_ref())))
            .collect();
        (build(&refs, 256).0, entries)
    }

    fn is_crc_mismatch(err: &StoreError) -> bool {
        matches!(
            err,
            StoreError::Corrupt {
                detail: "block crc mismatch",
                ..
            }
        )
    }

    #[test]
    fn flipped_block_crc_byte_is_crc_mismatch() {
        let (dev, _) = multi_block();
        let row = &SstReader::open(&dev, "sst").unwrap().index[1];
        let (crc_at, first_key) = ((row.offset + row.len) as usize, row.first_key.clone());
        let full = dev.read("sst").unwrap().unwrap();
        for i in 0..4 {
            let dev2 = SimStorage::new();
            dev2.append("sst", &full).unwrap();
            dev2.corrupt_byte("sst", crc_at + i);
            let r = SstReader::open(&dev2, "sst").unwrap();
            let err = r.get(&first_key).unwrap_err();
            assert!(is_crc_mismatch(&err), "crc byte {i}: {err:?}");
            let err = r.entries_from(&first_key).next().unwrap().unwrap_err();
            assert!(is_crc_mismatch(&err), "crc byte {i}: {err:?}");
        }
    }

    /// Opens `image` and reads everything back: `Ok` data must be the
    /// written data, and every failure must be a clean `Corrupt`.
    fn corrupt_or_correct(image: &[u8], entries: &[(String, Bytes)]) {
        let dev = SimStorage::new();
        dev.append("sst", image).unwrap();
        let r = match SstReader::open(&dev, "sst") {
            Ok(r) => r,
            Err(err) => {
                assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
                return;
            }
        };
        for (key, value) in entries {
            match r.get(key) {
                Ok(got) => assert_eq!(got, Some(Some(value.clone())), "key {key}"),
                Err(err) => assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}"),
            }
        }
        for (got, (key, value)) in r.entries_from("").zip(entries) {
            match got {
                Ok(got) => assert_eq!(got, (key.clone(), Some(value.clone()))),
                Err(err) => assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}"),
            }
        }
    }

    #[test]
    fn cut_inside_block_crc_is_corrupt() {
        let (dev, entries) = multi_block();
        let r = SstReader::open(&dev, "sst").unwrap();
        let full = dev.read("sst").unwrap().unwrap();
        let meta_offset = r.index.last().map(|row| row.offset + row.len + 4).unwrap() as usize;
        for row in &r.index {
            let crc_at = (row.offset + row.len) as usize;
            for k in 1..=4 {
                // The file ends inside the block's CRC.
                corrupt_or_correct(&full[..crc_at + 4 - k], &entries);
                // The block's CRC loses its last `k` bytes, and the meta
                // and a footer naming its new offset follow.
                let mut image = full[..crc_at + 4 - k].to_vec();
                image.extend_from_slice(&full[crc_at + 4..]);
                let footer = image.len() - FOOTER;
                let moved = (meta_offset - k) as u64;
                image[footer..footer + 8].copy_from_slice(&moved.to_le_bytes());
                corrupt_or_correct(&image, &entries);
            }
        }
    }

    #[test]
    fn sst_and_wal_bytes_are_unchanged() {
        // Pinned from the byte-at-a-time CRC kernel: files written with
        // either kernel are the same bytes.
        let entries: Vec<(String, Option<Bytes>)> = (0..300u32)
            .map(|i| {
                let value = (i % 7 != 3).then(|| {
                    (0..(i * 13) % 97 + 1)
                        .map(|j| (i * 31 + j * 7) as u8)
                        .collect::<Bytes>()
                });
                (format!("/golden/{i:04}"), value)
            })
            .collect();
        let mut b = SstBuilder::new(256);
        for (k, v) in &entries {
            b.add(k, v.clone());
        }
        let (image, meta) = b.finish().unwrap();
        assert_eq!(meta.entries, 300);
        assert_eq!((image.len(), crc32(&image)), (18_650, 0x7090_741A));
        let frame = crate::wal::encode_record(&entries);
        assert_eq!((frame.len(), crc32(&frame)), (16_984, 0x4E41_C779));
    }
}
