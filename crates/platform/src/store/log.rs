//! A CRC-checked append-only segment log.
//!
//! Records are [`frame`](super::frame)s. Segments roll over at a
//! configurable size; a torn final record (partial write at crash) is
//! detected by length/CRC and truncated away on open, and a failed
//! append is trimmed at once, so the next record lands where the failed
//! one started.
//!
//! Logical overwrites (a caller appending a fresh record and forgetting
//! the old `RecordId`) leave dead bytes behind; [`SegmentLog::compact`]
//! rewrites the caller's live set into fresh segments and deletes the
//! old files. Segment numbering keeps climbing across compactions, so
//! `RecordId`s never alias.

use super::frame::{self, Frames};
use super::{sync_dir, FaultInjector};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Stable address of one record in the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Segment number.
    pub segment: u32,
    /// Byte offset of the record header inside the segment.
    pub offset: u64,
}

/// An append-only log split across size-bounded segment files.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    max_segment_bytes: u64,
    active: u32,
    active_file: File,
    active_len: u64,
    /// Total on-disk bytes across all segments (valid prefixes).
    total_bytes: u64,
    fault: FaultInjector,
}

/// What one [`SegmentLog::compact`] run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Old address → new address for every surviving record.
    pub remap: HashMap<RecordId, RecordId>,
    /// Log size before compaction.
    pub bytes_before: u64,
    /// Log size after compaction.
    pub bytes_after: u64,
    /// Records dropped (dead at compaction time).
    pub dropped_records: usize,
}

impl CompactionOutcome {
    /// Bytes the compaction gave back to the filesystem.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

fn segment_path(dir: &Path, n: u32) -> PathBuf {
    dir.join(format!("segment-{n:06}.log"))
}

/// The segment numbers present in `dir`, ascending.
fn segments(dir: &Path) -> std::io::Result<Vec<u32>> {
    let mut segments: Vec<u32> = fs::read_dir(dir)?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("segment-")?
                .strip_suffix(".log")?
                .parse()
                .ok()
        })
        .collect();
    segments.sort_unstable();
    Ok(segments)
}

impl SegmentLog {
    /// Open (or create) a log in `dir`. Existing segments are validated;
    /// a torn tail record in the newest segment is truncated.
    pub fn open(dir: impl Into<PathBuf>, max_segment_bytes: u64) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segments = segments(&dir)?;
        let active = segments.last().copied().unwrap_or(0);

        let (active_file, valid) = frame::open_trimmed(&segment_path(&dir, active))?;
        let valid_len = valid.len() as u64;
        // Only the active (last-written) segment can carry a torn tail,
        // so older segments contribute their full on-disk size.
        let mut total_bytes = valid_len;
        for &seg in &segments {
            if seg != active {
                total_bytes += fs::metadata(segment_path(&dir, seg))?.len();
            }
        }

        Ok(SegmentLog {
            dir,
            max_segment_bytes,
            active,
            active_file,
            active_len: valid_len,
            total_bytes,
            fault: FaultInjector::new(),
        })
    }

    /// Append one record; returns its stable address.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<RecordId> {
        self.append_with_point(payload, "log.append.write")
    }

    /// [`SegmentLog::append`] with a caller-chosen fault-injection point
    /// name, so stores can distinguish write classes sharing one log
    /// (e.g. the chat store's tokenized-companion writes arm
    /// `log.tok.write` without tearing chat appends).
    pub fn append_with_point(
        &mut self,
        payload: &[u8],
        point: &'static str,
    ) -> std::io::Result<RecordId> {
        if self.active_len + (frame::HEADER + payload.len()) as u64 > self.max_segment_bytes
            && self.active_len > 0
        {
            self.roll()?;
        }
        let id = RecordId {
            segment: self.active,
            offset: self.active_len,
        };
        let framed = frame::append(
            &self.fault,
            &mut self.active_file,
            self.active_len,
            payload,
            point,
            None,
            "log.append.trim",
        )?;
        self.active_len += framed;
        self.total_bytes += framed;
        Ok(id)
    }

    /// Force buffered data to the OS.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.active_file.flush()?;
        self.fault.sync_data("log.sync", &self.active_file)
    }

    /// The log's fault injector (no-op unless faults are armed).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Route this log's instrumented I/O through `injector`.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = injector;
    }

    fn roll(&mut self) -> std::io::Result<()> {
        self.sync()?;
        self.active += 1;
        let path = segment_path(&self.dir, self.active);
        self.active_file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false) // fresh segment; nothing to truncate
            .open(path)?;
        self.active_len = 0;
        Ok(())
    }

    /// Read one record by address, verifying its CRC.
    pub fn read(&self, id: RecordId) -> std::io::Result<Vec<u8>> {
        let mut f = File::open(segment_path(&self.dir, id.segment))?;
        frame::read_at(&self.fault, &mut f, id.offset, "log.read")
    }

    /// Visit every valid record in log order as `(id, payload)` without
    /// copying payloads — each callback borrows straight from the
    /// segment read buffer. Index-rebuild scans (which only *sniff*
    /// records) should use this instead of [`SegmentLog::scan`].
    pub fn scan_with(&self, mut visit: impl FnMut(RecordId, &[u8])) -> std::io::Result<()> {
        for seg in 0..=self.active {
            let path = segment_path(&self.dir, seg);
            if !path.exists() {
                continue;
            }
            let buf = fs::read(&path)?;
            for (offset, payload) in Frames::new(&buf) {
                visit(
                    RecordId {
                        segment: seg,
                        offset,
                    },
                    payload,
                );
            }
        }
        Ok(())
    }

    /// Iterate every valid record in log order as owned `(id, payload)`
    /// pairs (a copying convenience over [`SegmentLog::scan_with`]).
    pub fn scan(&self) -> std::io::Result<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(|id, payload| out.push((id, payload.to_vec())))?;
        Ok(out)
    }

    /// Current active segment number.
    pub fn active_segment(&self) -> u32 {
        self.active
    }

    /// Total on-disk bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Rewrite the records in `live` into fresh segments and delete the
    /// old files, reclaiming dead bytes. Returns the old → new address
    /// remap, which the caller must apply to its index.
    ///
    /// Crash safety: live records are copied and synced into *new*
    /// segments (numbered after the current active one) before any old
    /// file is deleted. A crash mid-copy leaves both generations on
    /// disk; index-rebuild scans run in segment order, so the new
    /// (higher-numbered) copies win exactly like re-crawl overwrites
    /// do. A crash mid-delete just leaves some dead segments for the
    /// next compaction.
    pub fn compact(&mut self, live: &HashSet<RecordId>) -> std::io::Result<CompactionOutcome> {
        let bytes_before = self.total_bytes;
        let old_segments = segments(&self.dir)?;

        // Open a fresh tail after the current active segment, then copy
        // the live set across in log order (preserving relative record
        // order within and across segments).
        self.sync()?;
        self.roll()?;
        self.total_bytes = 0;
        let mut remap = HashMap::with_capacity(live.len());
        let mut dropped = 0usize;
        for &seg in &old_segments {
            let buf = fs::read(segment_path(&self.dir, seg))?;
            for (offset, payload) in Frames::new(&buf) {
                let id = RecordId {
                    segment: seg,
                    offset,
                };
                if live.contains(&id) {
                    let new_id = self.append(payload)?;
                    remap.insert(id, new_id);
                } else {
                    dropped += 1;
                }
            }
        }
        // Durability barrier before the point of no return: the copies
        // must be on disk before the originals go away.
        self.sync()?;
        sync_dir(&self.dir)?;
        for &seg in &old_segments {
            fs::remove_file(segment_path(&self.dir, seg))?;
        }
        sync_dir(&self.dir)?;

        Ok(CompactionOutcome {
            remap,
            bytes_before,
            bytes_after: self.total_bytes,
            dropped_records: dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "lightor-log-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn append_read_round_trip() {
        let dir = TempDir::new("rt");
        let mut log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
        let a = log.append(b"hello").unwrap();
        let b = log.append(b"world!").unwrap();
        assert_eq!(log.read(a).unwrap(), b"hello");
        assert_eq!(log.read(b).unwrap(), b"world!");
        assert_ne!(a, b);
    }

    #[test]
    fn segments_roll_over() {
        let dir = TempDir::new("roll");
        let mut log = SegmentLog::open(&dir.0, 64).unwrap();
        for i in 0..10 {
            log.append(format!("record-{i:02}-padding-padding").as_bytes())
                .unwrap();
        }
        assert!(log.active_segment() >= 2, "no rollover happened");
        let all = log.scan().unwrap();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].1, b"record-00-padding-padding");
        assert_eq!(all[9].1, b"record-09-padding-padding");
    }

    #[test]
    fn reopen_preserves_records() {
        let dir = TempDir::new("reopen");
        let id = {
            let mut log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
            let id = log.append(b"persistent").unwrap();
            log.sync().unwrap();
            id
        };
        let log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
        assert_eq!(log.read(id).unwrap(), b"persistent");
        assert_eq!(log.scan().unwrap().len(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = TempDir::new("torn");
        {
            let mut log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
            log.append(b"good record").unwrap();
            log.sync().unwrap();
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let seg = segment_path(&dir.0, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAB, 0xCD, 0x12]).unwrap();
        drop(f);

        let mut log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
        let records = log.scan().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1, b"good record");
        // And appending after recovery still works.
        let id = log.append(b"after recovery").unwrap();
        assert_eq!(log.read(id).unwrap(), b"after recovery");
    }

    #[test]
    fn corrupt_payload_is_rejected_on_read() {
        let dir = TempDir::new("corrupt");
        let mut log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
        let id = log.append(b"to be corrupted").unwrap();
        log.sync().unwrap();
        // Flip a payload byte on disk.
        let seg = segment_path(&dir.0, 0);
        let mut buf = fs::read(&seg).unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        fs::write(&seg, &buf).unwrap();
        assert!(log.read(id).is_err());
    }

    #[test]
    fn empty_log_scans_empty() {
        let dir = TempDir::new("empty");
        let log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
        assert!(log.scan().unwrap().is_empty());
    }

    #[test]
    fn compact_reclaims_dead_bytes_and_remaps() {
        let dir = TempDir::new("compact");
        let mut log = SegmentLog::open(&dir.0, 128).unwrap();
        // Ten records; only every third survives.
        let ids: Vec<RecordId> = (0..10)
            .map(|i| {
                log.append(format!("record-{i:02}-padding-padding").as_bytes())
                    .unwrap()
            })
            .collect();
        let live: HashSet<RecordId> = ids.iter().copied().step_by(3).collect();
        let before = log.total_bytes();

        let outcome = log.compact(&live).unwrap();
        assert_eq!(outcome.bytes_before, before);
        assert_eq!(outcome.remap.len(), 4);
        assert_eq!(outcome.dropped_records, 6);
        assert!(outcome.bytes_reclaimed() >= before / 2);
        assert_eq!(log.total_bytes(), outcome.bytes_after);

        // Every live record reads back byte-for-byte at its new address.
        for (i, old) in ids.iter().enumerate().step_by(3) {
            let new_id = outcome.remap[old];
            assert_eq!(
                log.read(new_id).unwrap(),
                format!("record-{i:02}-padding-padding").as_bytes()
            );
        }
        // Appends keep working, and everything survives a reopen.
        let extra = log.append(b"post-compaction").unwrap();
        log.sync().unwrap();
        drop(log);
        let log = SegmentLog::open(&dir.0, 128).unwrap();
        assert_eq!(log.read(extra).unwrap(), b"post-compaction");
        assert_eq!(log.scan().unwrap().len(), 5);
    }

    #[test]
    fn compact_with_everything_live_is_lossless() {
        let dir = TempDir::new("compact-all");
        let mut log = SegmentLog::open(&dir.0, 1 << 20).unwrap();
        let ids: Vec<RecordId> = (0..5)
            .map(|i| log.append(format!("keep-{i}").as_bytes()).unwrap())
            .collect();
        let live: HashSet<RecordId> = ids.iter().copied().collect();
        let outcome = log.compact(&live).unwrap();
        assert_eq!(outcome.dropped_records, 0);
        // Same payload bytes → same framed size.
        assert_eq!(outcome.bytes_before, outcome.bytes_after);
        for (i, old) in ids.iter().enumerate() {
            assert_eq!(
                log.read(outcome.remap[old]).unwrap(),
                format!("keep-{i}").as_bytes()
            );
        }
    }
}
