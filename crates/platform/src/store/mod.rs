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
/// Every log read re-verifies its record's CRC and every append
/// computes one, so this sits directly on the crawl and cold-load
/// paths (a first sight writes a ~120 KB chat record and companion).
///
/// An input of `CRC_LANES_MIN` (4 KiB) or more is split into four
/// equal blocks, each a multiple of 16 bytes, folded as four
/// independent slice-by-16 lanes in one loop: the lanes' table loads
/// do not wait on each other, so the CPU overlaps them. The lane CRCs
/// are then joined as zlib's `crc32_combine` does, by multiplying each
/// running CRC by x^(8·block) mod P, and the last < 64 bytes run
/// through the serial loop. A shorter input runs the serial loop alone.
/// Both give the same CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < CRC_LANES_MIN {
        return crc32_serial(bytes);
    }
    let t = crc_tables();
    let block = bytes.len() / 64 * 16;
    let (a, rest) = bytes.split_at(block);
    let (b, rest) = rest.split_at(block);
    let (c, rest) = rest.split_at(block);
    let (d, tail) = rest.split_at(block);
    let mut lanes = [!0u32, 0, 0, 0];
    let (a, b, c, d) = (
        a.as_chunks().0,
        b.as_chunks().0,
        c.as_chunks().0,
        d.as_chunks().0,
    );
    for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
        lanes[0] = fold16(&t.slice, lanes[0], a);
        lanes[1] = fold16(&t.slice, lanes[1], b);
        lanes[2] = fold16(&t.slice, lanes[2], c);
        lanes[3] = fold16(&t.slice, lanes[3], d);
    }
    // CRC(A ‖ B) = CRC(A)·x^(8·|B|) ⊕ CRC₀(B), where CRC₀ starts from 0.
    let shift = t.x_pow_8n(block);
    let joined = lanes[1..]
        .iter()
        .fold(lanes[0], |crc, &lane| gf2_mul(shift, crc) ^ lane);
    !crc32_update(&t.slice, joined, tail)
}

/// [`crc32`] through the serial slice-by-16 loop alone: what it runs
/// below `CRC_LANES_MIN` and on the tail. Only the `store_crc` bench
/// calls it, as the baseline the lanes are measured against; the store
/// itself always calls [`crc32`].
#[doc(hidden)]
pub fn crc32_serial(bytes: &[u8]) -> u32 {
    !crc32_update(&crc_tables().slice, !0, bytes)
}

/// Inputs this long or longer take [`crc32`]'s four lanes. On a 2-vCPU
/// Xeon (baseline x86-64 build) the lanes, join included, break even
/// with the serial loop near 512 bytes and take 0.67x its time at
/// 1 KiB and 0.43x at 4 KiB. The cutoff sits above the measured
/// crossover on purpose: it keeps the KV write-ahead log's frames
/// (0.1–3 KB) on the serial loop they have always run, so the write
/// path (the `ingest_mixed` benchmark workload) is unchanged, and the
/// lanes would save those frames under 0.6 µs each. Moving it down to
/// ~1 KiB waits on a measured `ingest_mixed` run (ROADMAP item 12).
const CRC_LANES_MIN: usize = 4096;

/// The reflected CRC-32 (IEEE) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// The CRC's constant tables, built once per process.
struct CrcTables {
    /// Slice-by-16: table k advances a byte by k+1 positions.
    slice: [[u32; 256]; 16],
    /// x^(2^k) mod P for k in 0..64 (zlib's `x2n_table`): a block of
    /// a slice is under 2^61 bytes, so x^(8·block) needs k < 64.
    x2n: [u32; 64],
}

impl CrcTables {
    /// x^(8·n) mod P: the factor that shifts a CRC past `n` bytes.
    fn x_pow_8n(&self, n: usize) -> u32 {
        let (mut n, mut k, mut p) = (n, 3usize, 1u32 << 31);
        while n != 0 {
            if n & 1 != 0 {
                p = gf2_mul(self.x2n[k], p);
            }
            n >>= 1;
            k += 1;
        }
        p
    }
}

fn crc_tables() -> &'static CrcTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<CrcTables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new(CrcTables {
            slice: [[0; 256]; 16],
            x2n: [0; 64],
        });
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t.slice[0][i] = c;
        }
        for k in 1..16 {
            for i in 0..256usize {
                let prev = t.slice[k - 1][i];
                t.slice[k][i] = t.slice[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        // x^1 in the reflected bit order, where bit 31 is x^0.
        let mut p = 1u32 << 30;
        for x2n in &mut t.x2n {
            *x2n = p;
            p = gf2_mul(p, p);
        }
        t
    })
}

/// a·b mod P, over GF(2) in the reflected bit order (zlib's
/// `multmodp`), with no branch on the data.
fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    for i in 0..32 {
        p ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
        b = (b >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(b & 1));
    }
    p
}

/// Advance a raw (un-inverted) CRC register over `bytes`, 16 bytes per
/// step and then a byte at a time.
fn crc32_update(t: &[[u32; 256]; 16], mut crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, rest) = bytes.as_chunks::<16>();
    for chunk in chunks {
        crc = fold16(t, crc, chunk);
    }
    for &b in rest {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// One slice-by-16 step: the register advanced over 16 bytes, with
/// 16 independent table loads.
#[inline(always)]
fn fold16(t: &[[u32; 256]; 16], crc: u32, chunk: &[u8; 16]) -> u32 {
    let word = |i: usize| u32::from_le_bytes([chunk[i], chunk[i + 1], chunk[i + 2], chunk[i + 3]]);
    let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
    t[15][(a & 0xFF) as usize]
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
        ^ t[0][(d >> 24) as usize]
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The four-lane path against the byte-at-a-time recurrence on
        /// random bytes: every length from 64 below the lane cutoff to
        /// 192 past it, and the last 65 prefixes of a longer input.
        /// Lane blocks grow by 16 bytes at each multiple of 64, so this
        /// moves every lane seam and takes every tail length (0..64) on
        /// both sides of the cutoff.
        #[test]
        fn crc32_lanes_match_the_bytewise_reference(
            data in proptest::collection::vec(
                proptest::prelude::any::<u8>(),
                CRC_LANES_MIN + 192..40_000,
            ),
        ) {
            // The reference register after every prefix, in one pass.
            let mut crc = 0xFFFF_FFFFu32;
            let mut after = vec![crc];
            for &b in &data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
                }
                after.push(crc);
            }
            let lens = (CRC_LANES_MIN - 64..CRC_LANES_MIN + 192).chain(data.len() - 64..=data.len());
            for len in lens {
                proptest::prop_assert_eq!(crc32(&data[..len]), !after[len], "len {}", len);
                proptest::prop_assert_eq!(crc32_serial(&data[..len]), !after[len], "len {}", len);
            }
        }
    }
}
