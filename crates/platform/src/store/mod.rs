//! Embedded storage: segment log, chat store, KV store.
//!
//! Both logs — the chat store's segments and the KV write-ahead log —
//! write one record frame, `[len u32 LE][crc32 u32 LE][payload]`, and
//! only `frame.rs` encodes, scans, appends or reads it: appends land
//! at the log's tracked end and a failed one is trimmed, and a scan
//! stops at the first short or CRC-failing frame (the torn tail that
//! opening a log truncates).
//!
//! Three layers, each crash-safe on its own terms:
//!
//! * [`SegmentLog`] — an append-only log of frames split across
//!   size-bounded segments. Torn tails are truncated on open;
//!   [`SegmentLog::compact`] rewrites live records into fresh segments
//!   and deletes the old ones, reclaiming bytes left behind by
//!   overwrites.
//! * [`ChatStore`] — per-video chat replays on the segment log, with a
//!   scan-built index, a read-through decoded-record cache, and
//!   live/dead byte accounting that drives [`ChatStore::compact`]
//!   (re-crawled videos orphan their previous records).
//! * [`KvStore`] — the refined red-dot state: one JSON snapshot
//!   fronted by an fsynced write-ahead log. Writes are O(op) — a merge
//!   logs only its JSON Merge Patch; the snapshot holds materialized
//!   values and its rewrites are amortized by fixed op/byte
//!   thresholds. It reads one layout, strictly: a corrupt snapshot,
//!   or a directory of the old `shard-NN.json` layout, is an error,
//!   never a silently empty store.

mod chatstore;
mod fault;
pub mod format;
mod frame;
mod kv;
mod log;

pub use chatstore::{ChatStore, CompactStats};
pub use fault::{Fault, FaultInjector, FaultKind};
pub use format::TokenizedRecord;
pub use kv::{KvStats, KvStore};
pub use log::{CompactionOutcome, RecordId, SegmentLog};

/// `fsync` a directory so just-renamed/created/deleted entries inside
/// it survive a crash (file-level fsync alone does not cover the
/// directory entry).
pub(crate) fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// CRC-32 (IEEE) over a byte slice — integrity check for log records.
///
/// Slice-by-16: 16 lookup tables let each iteration fold 16 bytes with
/// independent loads, ~8× the byte-at-a-time throughput. Every log
/// read re-verifies its record's CRC, so this sits directly on the
/// cold corpus-load path (a v3 tokenized record is ~100 KB).
pub fn crc32(bytes: &[u8]) -> u32 {
    // 16 tables × 256 entries; table k advances a byte by k+1 positions.
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 16]>> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for k in 1..16 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let c = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let d = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xFF) as usize]
            ^ t[2][((d >> 8) & 0xFF) as usize]
            ^ t[1][((d >> 16) & 0xFF) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_logs_write_the_pinned_frame_bytes() {
        // `[len u32 LE][crc32 u32 LE][payload]`, byte for byte: data
        // dirs written by earlier builds must stay readable.
        let dir = std::env::temp_dir().join(format!(
            "lightor-frame-golden-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut log = SegmentLog::open(dir.join("log"), 1 << 20).unwrap();
        log.append(b"hello").unwrap();
        log.sync().unwrap();
        let mut kv = KvStore::open(dir.join("kv")).unwrap();
        kv.put("k", &1u64).unwrap();
        let segment = std::fs::read(dir.join("log/segment-000000.log"));
        let wal = std::fs::read(dir.join("kv/wal.log"));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            segment.unwrap(),
            [&[5, 0, 0, 0, 0x86, 0xA6, 0x10, 0x36][..], b"hello"].concat()
        );
        assert_eq!(
            wal.unwrap(),
            [
                &[11, 0, 0, 0, 0xDC, 0xDD, 0x30, 0x74][..],
                br#"["p","k",1]"#
            ]
            .concat()
        );
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_sliced_matches_bytewise_reference() {
        // The slice-by-16 fast path must agree with the canonical
        // byte-at-a-time recurrence at every length that exercises the
        // chunked loop, the remainder loop, and their seam.
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            crc ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for len in (0..64).chain([255, 256, 257, 1000, 1024]) {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }
}
