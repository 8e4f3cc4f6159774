//! Per-video chat storage on top of the segment log.
//!
//! One log record = one video's full chat replay (crawls are per-video,
//! so batching amortizes framing overhead). The in-memory index maps
//! `VideoId → (RecordId, framed size)` and is rebuilt by scanning the
//! log on open — recovery is the scan (torn tail records are truncated
//! by [`SegmentLog::open`], and the scan itself skips anything that
//! fails CRC or record-level validation).
//!
//! # Compaction
//!
//! Re-crawls overwrite by appending, so each one orphans the video's
//! previous record. The index's size column keeps a live-byte tally,
//! making [`ChatStore::dead_bytes`] O(1); [`ChatStore::compact`]
//! rewrites the live set into fresh segments (via
//! [`SegmentLog::compact`]) and remaps the index, and
//! [`ChatStore::maybe_compact`] gates that work behind dead-ratio/byte
//! thresholds so callers (the crawler's re-crawl pass) can invoke it
//! unconditionally.
//!
//! # Record formats
//!
//! Records are self-describing and two kinds share one log (see
//! [`format`](super::format) for the byte-level layouts):
//!
//! * **v2 (chat)** — columnar: a magic/version header, then parallel
//!   `ts`/`user`/`text_end` arrays and one contiguous UTF-8 blob. Text
//!   offsets are `u32`, and a record decodes into a zero-copy
//!   [`ChatLogView`] with O(1) allocations.
//! * **v3 (tokenized companion)** — not chat data: a per-video
//!   tokenized-corpus record written *after* (and indexed next to) the
//!   video's chat record, so reopening a store never re-tokenizes raw
//!   text. A separate `VideoId → entry` index tracks them; writing a
//!   fresh chat record for a video **orphans** its v3 companion (the
//!   tokenization is stale), both at write time and — because the scan
//!   runs in log order — across a reopen. Companions whose chat record
//!   vanished are dropped by the scan too.
//!
//! # Read path
//!
//! [`ChatStore::get_chat_view`] is the fast path: a read-through LRU
//! cache of decoded views sits in front of the log, so repeated opens
//! of a hot video cost a hash lookup plus an `Arc` bump. The owned
//! [`ChatStore::get_chat`] materializes from the same view. Writes go
//! through [`ChatStore::put_chat`] and [`ChatStore::put_chat_view`],
//! or [`ChatStore::put_chats`] to batch many videos into one `sync`.
//! The online crawl writes with
//! [`ChatStore::put_chat_view_with_companion`]: the chat record and
//! the tokenized companion built from the same view, appended back to
//! back under one `sync`. A single synced put (a crawl or an imported
//! record) leaves the view of the bytes it wrote in the cache (for a
//! view put, the caller's view itself, whose sections the record
//! copies verbatim), so reading a just-written video never touches
//! the log; a failed append or sync leaves the cache and index on the
//! previous durable record. Batched puts evict instead.
//!
//! [`ChatStore::get_tokenized`] reads a companion from the log each
//! time: neither the record nor the corpus the service builds from it
//! is held in memory. The companion is a cache of the chat record, so
//! a read that fails or a record that does not decode counts as
//! absent, and the caller re-tokenizes.

use super::format::{self, Format, TokenizedRecord};
use super::frame;
use super::log::{RecordId, SegmentLog};
use super::FaultInjector;
use crate::cache::LruCache;
use lightor_types::{ChatLog, ChatLogView, VideoId};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Decoded-record cache size: hot working set of a serving node; at
/// ~100 KB per decoded replay this bounds cache memory to a few MB.
const RECORD_CACHE_CAP: usize = 64;

/// Size at which the log starts a new segment.
const SEGMENT_BYTES: u64 = 8 << 20;

/// Frame overhead the log adds per record (length + CRC header).
const FRAME_OVERHEAD: u64 = frame::HEADER as u64;

/// One live record in the index: where it is and how big it is on disk
/// (framed), so dead bytes can be computed without rescanning the log.
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    id: RecordId,
    framed_bytes: u64,
}

/// What one [`ChatStore::compact`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Bytes given back to the filesystem.
    pub reclaimed_bytes: u64,
    /// Dead records dropped.
    pub dropped_records: usize,
    /// Live records carried over.
    pub live_records: usize,
}

/// Durable chat storage with a per-video index and a read-through
/// record cache.
#[derive(Debug)]
pub struct ChatStore {
    log: SegmentLog,
    index: HashMap<VideoId, IndexEntry>,
    /// Live v3 tokenized-companion records, keyed by video. An entry
    /// here is only valid while the video's chat record is unchanged —
    /// chat writes orphan it.
    tok_index: HashMap<VideoId, IndexEntry>,
    /// Decoded views by video; interior mutability so reads stay `&self`.
    cache: Mutex<LruCache<VideoId, ChatLogView>>,
    /// Framed bytes of all live records (chat + tokenized entries).
    live_bytes: u64,
    /// Cumulative bytes reclaimed by compactions since open.
    reclaimed_bytes: u64,
}

impl ChatStore {
    /// Open (or create) a store in `dir`, rebuilding the index by scan.
    ///
    /// The scan sniffs each record's format without materializing
    /// messages; later records win, so a re-crawl replaces a video's
    /// chat record.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with_segment_bytes(dir, SEGMENT_BYTES)
    }

    fn open_with_segment_bytes(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> std::io::Result<Self> {
        let log = SegmentLog::open(dir, segment_bytes)?;
        let mut index: HashMap<VideoId, IndexEntry> = HashMap::new();
        let mut tok_index: HashMap<VideoId, IndexEntry> = HashMap::new();
        log.scan_with(|id, payload| {
            if let Some(info) = format::sniff(payload) {
                let entry = IndexEntry {
                    id,
                    framed_bytes: payload.len() as u64 + FRAME_OVERHEAD,
                };
                if info.format == Format::V3 {
                    // Tokenized companion: later records win, exactly
                    // like chat overwrites.
                    tok_index.insert(info.video, entry);
                    return;
                }
                // Later records win: re-crawls overwrite. A fresh chat
                // record also orphans any earlier tokenized companion —
                // its ids describe the *previous* chat bytes.
                index.insert(info.video, entry);
                tok_index.remove(&info.video);
            }
        })?;
        // A companion whose chat record is gone is useless: drop it.
        tok_index.retain(|video, _| index.contains_key(video));
        let live_bytes = index
            .values()
            .chain(tok_index.values())
            .map(|e| e.framed_bytes)
            .sum();
        Ok(ChatStore {
            log,
            index,
            tok_index,
            cache: Mutex::new(LruCache::new(RECORD_CACHE_CAP)),
            live_bytes,
            reclaimed_bytes: 0,
        })
    }

    /// Point a video's index entry at a fresh record, keeping the
    /// live-byte tally consistent (a replaced record becomes dead).
    /// A fresh chat record also orphans the video's tokenized
    /// companion: its ids describe the bytes just replaced.
    fn index_insert(&mut self, video: VideoId, id: RecordId, payload_len: usize) {
        let framed = payload_len as u64 + FRAME_OVERHEAD;
        if let Some(old) = self.index.insert(
            video,
            IndexEntry {
                id,
                framed_bytes: framed,
            },
        ) {
            self.live_bytes -= old.framed_bytes;
        }
        self.live_bytes += framed;
        if let Some(tok) = self.tok_index.remove(&video) {
            self.live_bytes -= tok.framed_bytes;
        }
    }

    /// Store (or replace) a video's chat replay from an owned log: the
    /// view put of its columns.
    pub fn put_chat(&mut self, video: VideoId, chat: &ChatLog) -> std::io::Result<()> {
        self.put_chat_view(video, &ChatLogView::from_chat_log(chat))
    }

    /// Store (or replace) a video's chat replay from a zero-copy view:
    /// [`ChatStore::put_chat_view_with_companion`] without a companion.
    pub fn put_chat_view(&mut self, video: VideoId, chat: &ChatLogView) -> std::io::Result<()> {
        self.put_chat_view_with_companion(video, chat, None)
            .map(drop)
    }

    /// Store (or replace) a video's chat replay from a zero-copy view,
    /// together with the tokenized companion built from that same view
    /// (an encoded v3 payload for `video`, see
    /// [`format::encode_v3_columns`]), under **one** `sync`: the online
    /// crawl's write. The view is already columnar, so the chat record
    /// is section copies with no per-message materialization. Returns
    /// whether the companion landed.
    ///
    /// Failures keep the order of a chat put followed by a companion
    /// put. A failed chat append is an error and writes nothing else.
    /// A failed companion append is trimmed and swallowed: the
    /// companion is a cache of the chat record, and the chat record is
    /// still written. A failed sync is an error and indexes neither
    /// record, leaving readers on the previous durable record; that
    /// includes the sync of a segment roll between the two appends.
    ///
    /// Once synced, the chat record's bytes are the view's sections
    /// verbatim, so the view itself goes into the record cache: the
    /// next read of the video is a cache hit, with no decode.
    pub fn put_chat_view_with_companion(
        &mut self,
        video: VideoId,
        chat: &ChatLogView,
        companion: Option<&[u8]>,
    ) -> std::io::Result<bool> {
        if let Some(payload) = companion {
            check_companion(video, payload)?;
        }
        let payload = format::encode_v2_view(video, chat);
        let id = self.log.append(&payload)?;
        let tok = match companion {
            Some(c) => {
                // A roll here syncs the segment holding the chat record,
                // so its error is this put's: only the companion's own
                // write may fail quietly.
                self.log.make_room(c.len())?;
                let id = self.log.append_with_point(c, "log.tok.write").ok();
                id.map(|id| (id, c.len()))
            }
            None => None,
        };
        self.log.sync()?;
        self.index_insert(video, id, payload.len());
        if let Some((id, len)) = tok {
            self.tok_index_insert(video, id, len);
        }
        self.cache.lock().insert(video, chat.clone());
        Ok(tok.is_some())
    }

    /// Append one record and make it durable *before* publishing it in
    /// the index: a failed sync must leave readers on the previous
    /// durable record, never serving bytes a crash could lose.
    ///
    /// Once synced, the written bytes *are* the durable record, so their
    /// view goes straight into the record cache: the next read of the
    /// imported video is a cache hit instead of a log read, CRC check
    /// and decode.
    fn put_one_synced(&mut self, payload: Vec<u8>, video: VideoId) -> std::io::Result<()> {
        let payload: Arc<[u8]> = payload.into();
        let id = self.log.append(&payload)?;
        self.log.sync()?;
        self.index_insert(video, id, payload.len());
        let mut cache = self.cache.lock();
        match format::decode_v2(&payload) {
            Some((_, view)) => cache.insert(video, view),
            None => {
                cache.remove(&video);
            }
        }
        Ok(())
    }

    /// Batch append: store many replays with a **single** `sync` at the
    /// end, amortizing the durability barrier across the batch (the
    /// offline crawler's shape). Returns the number of records written.
    pub fn put_chats<'a, I>(&mut self, items: I) -> std::io::Result<usize>
    where
        I: IntoIterator<Item = (VideoId, &'a ChatLogView)>,
    {
        let mut written = 0usize;
        for (video, chat) in items {
            self.put_payload(format::encode_v2_view(video, chat), video)?;
            written += 1;
        }
        if written > 0 {
            self.log.sync()?;
        }
        Ok(written)
    }

    fn put_payload(&mut self, payload: Vec<u8>, video: VideoId) -> std::io::Result<()> {
        let id = self.log.append(&payload)?;
        self.index_insert(video, id, payload.len());
        self.cache.lock().remove(&video);
        Ok(())
    }

    /// Export a video's live chat record as raw (already encoded)
    /// payload bytes — the migration-bundle path. The bytes are exactly
    /// what [`ChatStore::import_record`] on the destination appends, so
    /// a shipped record reads back byte-for-byte identical (format
    /// version included).
    pub fn export_record(&self, video: VideoId) -> std::io::Result<Option<Vec<u8>>> {
        match self.index.get(&video) {
            Some(entry) => self.log.read(entry.id).map(Some),
            None => Ok(None),
        }
    }

    /// Import a raw record payload (from a migration bundle) for
    /// `video`, durably, replacing any record the store already holds
    /// for it; returns whether it appended. Idempotent: a byte-identical
    /// record already live is not appended again, so re-importing a
    /// bundle does not grow the log. The payload must sniff as a chat
    /// record for this video — a bundle routed to the wrong video id is
    /// rejected as `InvalidData` rather than silently indexed under the
    /// wrong key.
    pub fn import_record(&mut self, video: VideoId, payload: Vec<u8>) -> std::io::Result<bool> {
        Self::check_record(video, &payload)?;
        if self.export_record(video)?.as_deref() == Some(payload.as_slice()) {
            return Ok(false);
        }
        self.put_one_synced(payload, video)?;
        Ok(true)
    }

    /// The check [`ChatStore::import_record`] makes of its payload.
    pub(crate) fn check_record(video: VideoId, payload: &[u8]) -> std::io::Result<()> {
        match format::sniff(payload) {
            Some(info) if info.format == Format::V2 && info.video == video => Ok(()),
            Some(info) if info.format == Format::V2 => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "bundle record for video {} arrived under video {}",
                    info.video.0, video.0
                ),
            )),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bundle record does not sniff as a chat record",
            )),
        }
    }

    /// Store (or replace) a video's tokenized-corpus companion record,
    /// durably: [`ChatStore::put_companion`] of its v3 encoding.
    pub fn put_tokenized(&mut self, record: &TokenizedRecord) -> std::io::Result<()> {
        self.put_companion(record.video, &format::encode_v3(record))
    }

    /// Store (or replace) a video's tokenized companion, given as an
    /// encoded v3 payload for `video` (see
    /// [`format::encode_v3_columns`]), durably. The video's chat record
    /// must already be stored: a companion without chat data is
    /// meaningless and would be dropped on reopen anyway.
    pub fn put_companion(&mut self, video: VideoId, payload: &[u8]) -> std::io::Result<()> {
        if !self.index.contains_key(&video) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "tokenized companion for video {} has no chat record",
                    video.0
                ),
            ));
        }
        check_companion(video, payload)?;
        self.put_tokenized_payload(video, payload)
    }

    /// Append a pre-encoded v3 payload for `video`, durably, replacing
    /// any companion the store already holds for it.
    fn put_tokenized_payload(&mut self, video: VideoId, payload: &[u8]) -> std::io::Result<()> {
        let id = self.log.append_with_point(payload, "log.tok.write")?;
        self.log.sync()?;
        self.tok_index_insert(video, id, payload.len());
        Ok(())
    }

    /// Point a video's companion entry at a fresh record, keeping the
    /// live-byte tally consistent (a replaced companion becomes dead).
    fn tok_index_insert(&mut self, video: VideoId, id: RecordId, payload_len: usize) {
        let framed = payload_len as u64 + FRAME_OVERHEAD;
        if let Some(old) = self.tok_index.insert(
            video,
            IndexEntry {
                id,
                framed_bytes: framed,
            },
        ) {
            self.live_bytes -= old.framed_bytes;
        }
        self.live_bytes += framed;
    }

    /// Fetch a video's tokenized-corpus companion, if one is live and
    /// readable.
    ///
    /// The companion is a cache of the chat record, so anything that
    /// keeps it from being used counts as absent: a read that fails
    /// (an I/O error, a CRC mismatch, a missing segment) and a record
    /// the v3 decoder refuses both give `None`, and callers re-tokenize
    /// the chat record.
    pub fn get_tokenized(&self, video: VideoId) -> Option<TokenizedRecord> {
        let entry = self.tok_index.get(&video)?;
        format::decode_v3(&self.log.read(entry.id).ok()?)
    }

    /// Whether a live tokenized companion exists for `video`.
    pub fn has_tokenized(&self, video: VideoId) -> bool {
        self.tok_index.contains_key(&video)
    }

    /// Export a video's live tokenized companion as raw payload bytes
    /// (the migration-bundle path; `None` if the video has no live
    /// companion).
    pub fn export_tokenized(&self, video: VideoId) -> std::io::Result<Option<Vec<u8>>> {
        match self.tok_index.get(&video) {
            Some(entry) => self.log.read(entry.id).map(Some),
            None => Ok(None),
        }
    }

    /// Import a raw v3 payload (from a migration bundle) for `video`;
    /// returns whether it appended.
    ///
    /// Idempotent: if the store already holds a byte-identical
    /// companion, nothing is appended — re-importing the same bundle
    /// must not grow the log. The payload must sniff as a v3 record for
    /// this video, and the chat record must be imported first (bundles
    /// list chat before tokenized sections).
    pub fn import_tokenized(&mut self, video: VideoId, payload: Vec<u8>) -> std::io::Result<bool> {
        Self::check_tokenized(video, &payload)?;
        if !self.index.contains_key(&video) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "tokenized companion for video {} has no chat record",
                    video.0
                ),
            ));
        }
        if self.export_tokenized(video)?.as_deref() == Some(payload.as_slice()) {
            return Ok(false);
        }
        self.put_tokenized_payload(video, &payload)?;
        Ok(true)
    }

    /// The sniff check [`ChatStore::import_tokenized`] makes of its
    /// payload.
    pub(crate) fn check_tokenized(video: VideoId, payload: &[u8]) -> std::io::Result<()> {
        match format::sniff(payload) {
            Some(info) if info.format == Format::V3 && info.video == video => Ok(()),
            Some(info) if info.format == Format::V3 => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "bundle tokenized record for video {} arrived under video {}",
                    info.video.0, video.0
                ),
            )),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bundle payload does not sniff as a tokenized (v3) record",
            )),
        }
    }

    /// Fetch a video's chat replay as a zero-copy view, if crawled.
    ///
    /// The fast path: a cache hit is a hash lookup plus an `Arc` bump;
    /// a miss reads one record and decodes it with O(1) allocations.
    pub fn get_chat_view(&self, video: VideoId) -> std::io::Result<Option<ChatLogView>> {
        let Some(entry) = self.index.get(&video) else {
            return Ok(None);
        };
        let id = entry.id;
        if let Some(view) = self.cache.lock().get(&video) {
            return Ok(Some(view));
        }
        let payload: Arc<[u8]> = self.log.read(id)?.into();
        let Some((_, view)) = format::decode_v2(&payload) else {
            return Ok(None);
        };
        self.cache.lock().insert(video, view.clone());
        Ok(Some(view))
    }

    /// Fetch a video's chat replay as an owned [`ChatLog`], if crawled.
    pub fn get_chat(&self, video: VideoId) -> std::io::Result<Option<ChatLog>> {
        Ok(self.get_chat_view(video)?.map(|v| v.to_chat_log()))
    }

    /// Whether a video's chat is already stored.
    pub fn contains(&self, video: VideoId) -> bool {
        self.index.contains_key(&video)
    }

    /// Number of distinct videos stored.
    pub fn video_count(&self) -> usize {
        self.index.len()
    }

    /// Every video with a stored chat record, sorted by id — the
    /// migration driver's catalog of what a full bundle must carry.
    pub fn videos(&self) -> Vec<VideoId> {
        let mut ids: Vec<VideoId> = self.index.keys().copied().collect();
        ids.sort_unstable_by_key(|v| v.0);
        ids
    }

    /// The backing log's fault injector (no-op unless faults are armed).
    pub fn fault_injector(&self) -> &FaultInjector {
        self.log.fault_injector()
    }

    /// Route the backing log's instrumented I/O through `injector`.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.log.set_fault_injector(injector);
    }

    /// Record-cache `(hits, misses)` counters since open.
    pub fn cache_stats(&self) -> (u64, u64) {
        let cache = self.cache.lock();
        (cache.hits(), cache.misses())
    }

    /// Total on-disk bytes of the backing log.
    pub fn total_bytes(&self) -> u64 {
        self.log.total_bytes()
    }

    /// Bytes occupied by records no index entry points at (re-crawled
    /// videos orphan their previous record; torn tails, skipped frames).
    pub fn dead_bytes(&self) -> u64 {
        self.log.total_bytes().saturating_sub(self.live_bytes)
    }

    /// Cumulative bytes reclaimed by compactions since open.
    pub fn reclaimed_bytes(&self) -> u64 {
        self.reclaimed_bytes
    }

    /// Rewrite every live record into fresh segments, drop the dead
    /// ones, and remap the index. Live replays read back byte-for-byte
    /// identical afterwards (the cache stays valid — it is keyed by
    /// video, and payloads are unchanged).
    pub fn compact(&mut self) -> std::io::Result<CompactStats> {
        let live: HashSet<RecordId> = self
            .index
            .values()
            .chain(self.tok_index.values())
            .map(|e| e.id)
            .collect();
        let outcome = self.log.compact(&live)?;
        for entry in self.index.values_mut().chain(self.tok_index.values_mut()) {
            entry.id = *outcome
                .remap
                .get(&entry.id)
                .expect("compaction must remap every live record");
        }
        self.reclaimed_bytes += outcome.bytes_reclaimed();
        Ok(CompactStats {
            reclaimed_bytes: outcome.bytes_reclaimed(),
            dropped_records: outcome.dropped_records,
            live_records: self.index.len() + self.tok_index.len(),
        })
    }

    /// Compact only when at least `min_dead_bytes` are dead *and* the
    /// dead fraction exceeds `min_dead_ratio` — the crawler's re-crawl
    /// path calls this after overwriting stored videos so reclaim work
    /// is amortized instead of running on every pass.
    pub fn maybe_compact(
        &mut self,
        min_dead_ratio: f64,
        min_dead_bytes: u64,
    ) -> std::io::Result<Option<CompactStats>> {
        let total = self.total_bytes();
        let dead = self.dead_bytes();
        if total == 0 || dead < min_dead_bytes || (dead as f64) < min_dead_ratio * total as f64 {
            return Ok(None);
        }
        self.compact().map(Some)
    }
}

/// Refuse a companion payload that is not a v3 record of `video`.
fn check_companion(video: VideoId, payload: &[u8]) -> std::io::Result<()> {
    match format::sniff(payload) {
        Some(info) if info.format == Format::V3 && info.video == video => Ok(()),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("companion is not a tokenized record of video {}", video.0),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Fault, FaultKind};
    use lightor_types::{ChatMessage, UserId};
    use proptest::prelude::*;
    use std::fs;
    use std::io::Write as _;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "lightor-chatstore-{tag}-{}-{}",
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

    fn sample_chat() -> ChatLog {
        ChatLog::new(vec![
            ChatMessage::new(1.5, UserId(7), "first message"),
            ChatMessage::new(3.25, UserId(8), "second 消息 with unicode"),
            ChatMessage::new(9.0, UserId::BOT, "spam spam"),
        ])
    }

    #[test]
    fn put_get_round_trip() {
        let dir = TempDir::new("rt");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let chat = sample_chat();
        store.put_chat(VideoId(42), &chat).unwrap();
        let back = store.get_chat(VideoId(42)).unwrap().unwrap();
        assert_eq!(back, chat);
        assert!(store.contains(VideoId(42)));
        assert!(!store.contains(VideoId(43)));
        assert!(store.get_chat(VideoId(43)).unwrap().is_none());
        // The view path agrees and is zero-copy v2.
        let view = store.get_chat_view(VideoId(42)).unwrap().unwrap();
        assert_eq!(view, chat);
    }

    #[test]
    fn reopen_recovers_index() {
        let dir = TempDir::new("recover");
        {
            let mut store = ChatStore::open(&dir.0).unwrap();
            store.put_chat(VideoId(1), &sample_chat()).unwrap();
            store.put_chat(VideoId(2), &ChatLog::empty()).unwrap();
        }
        let store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.video_count(), 2);
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
        assert_eq!(
            store.get_chat(VideoId(2)).unwrap().unwrap(),
            ChatLog::empty()
        );
    }

    #[test]
    fn recrawl_overwrites() {
        let dir = TempDir::new("overwrite");
        let mut store = ChatStore::open(&dir.0).unwrap();
        store.put_chat(VideoId(1), &ChatLog::empty()).unwrap();
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
        assert_eq!(store.video_count(), 1);

        // The overwrite must also win across a reopen (later record wins).
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
    }

    #[test]
    fn put_chats_batches_with_one_sync() {
        let dir = TempDir::new("batch");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let a = ChatLogView::from_chat_log(&sample_chat());
        let b = ChatLogView::empty();
        let n = store
            .put_chats([(VideoId(1), &a), (VideoId(2), &b), (VideoId(1), &a)])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(store.video_count(), 2);
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), a);
        assert_eq!(store.get_chat(VideoId(2)).unwrap().unwrap(), b);
        // Batch contents survive a reopen (the single sync covered all).
        drop(store);
        let mut store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.video_count(), 2);
        assert_eq!(store.put_chats(std::iter::empty()).ok(), Some(0));
    }

    #[test]
    fn record_cache_serves_repeat_reads() {
        let dir = TempDir::new("cache");
        let mut store = ChatStore::open(&dir.0).unwrap();
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        let first = store.get_chat_view(VideoId(1)).unwrap().unwrap();
        let second = store.get_chat_view(VideoId(1)).unwrap().unwrap();
        // Cache hit: both views share one payload buffer.
        assert!(Arc::ptr_eq(first.buffer(), second.buffer()));
        // The synced put cached the view of the bytes it wrote, so
        // neither read went to the log.
        let (hits, misses) = store.cache_stats();
        assert_eq!((hits, misses), (2, 0));
        // A re-put replaces the cached view.
        store.put_chat(VideoId(1), &ChatLog::empty()).unwrap();
        let fresh = store.get_chat_view(VideoId(1)).unwrap().unwrap();
        assert!(fresh.is_empty());
        // A reopened store starts cold: the first read misses, the
        // second hits.
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        store.get_chat_view(VideoId(1)).unwrap().unwrap();
        store.get_chat_view(VideoId(1)).unwrap().unwrap();
        assert_eq!(store.cache_stats(), (1, 1));
    }

    #[test]
    fn failed_put_leaves_previous_record_cached() {
        let dir = TempDir::new("cache-fault");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let chat = sample_chat();
        store.put_chat(VideoId(1), &chat).unwrap();
        for point in ["log.append.write", "log.sync"] {
            store
                .fault_injector()
                .arm(Fault::once(point, FaultKind::Error));
            assert!(store.put_chat(VideoId(1), &ChatLog::empty()).is_err());
            let view = store.get_chat_view(VideoId(1)).unwrap().unwrap();
            assert_eq!(view.to_chat_log(), chat, "after a failed {point}");
        }
        // Still the written view: no read went to the log.
        assert_eq!(store.cache_stats(), (2, 0));
    }

    #[test]
    fn failed_appends_never_cost_a_later_acknowledged_write() {
        let kinds = [
            FaultKind::Error,
            FaultKind::TornWrite { keep: 1 },
            FaultKind::TornWrite { keep: 9 },
        ];
        for point in ["log.append.write", "log.tok.write"] {
            for kind in kinds {
                let case = format!("{point} {kind:?}");
                let dir = TempDir::new("fail-then-ack");
                let mut store = ChatStore::open(&dir.0).unwrap();
                store.put_chat(VideoId(1), &sample_chat()).unwrap();
                store.fault_injector().arm(Fault::once(point, kind));
                let failed = match point {
                    "log.tok.write" => store.put_tokenized(&sample_tokenized(VideoId(1))),
                    _ => store.put_chat(VideoId(1), &ChatLog::empty()),
                };
                assert!(failed.is_err(), "{case}");
                assert_eq!(store.fault_injector().fired(point), 1, "{case}");

                // The next synced writes are acknowledged and must read
                // back from the log itself, not the record cache …
                store.put_chat(VideoId(2), &sample_chat()).unwrap();
                store.put_tokenized(&sample_tokenized(VideoId(2))).unwrap();
                *store.cache.lock() = LruCache::new(RECORD_CACHE_CAP);
                for vid in [VideoId(1), VideoId(2)] {
                    assert_eq!(
                        store.get_chat(vid).unwrap().unwrap(),
                        sample_chat(),
                        "{case}: video {}",
                        vid.0
                    );
                }
                let rec = sample_tokenized(VideoId(2));
                assert_eq!(store.get_tokenized(VideoId(2)), Some(rec.clone()));
                assert_eq!(store.dead_bytes(), 0, "{case}: failed frame trimmed");

                // … and after a reopen.
                drop(store);
                let store = ChatStore::open(&dir.0).unwrap();
                assert_eq!(store.video_count(), 2, "{case}");
                assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
                assert_eq!(store.get_chat(VideoId(2)).unwrap().unwrap(), sample_chat());
                assert_eq!(store.get_tokenized(VideoId(2)), Some(rec));
                assert!(!store.has_tokenized(VideoId(1)), "{case}");
            }
        }
    }

    #[test]
    fn a_crawl_and_its_companion_share_one_sync() {
        let dir = TempDir::new("crawl-companion");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let view = ChatLogView::from_chat_log(&sample_chat());
        let rec = sample_tokenized(VideoId(1));
        let companion = format::encode_v3(&rec);
        store
            .fault_injector()
            .arm(Fault::nth("log.sync", 1, FaultKind::Error));
        assert!(store
            .put_chat_view_with_companion(VideoId(1), &view, Some(&companion))
            .unwrap());
        assert_eq!(store.fault_injector().fired("log.sync"), 0);
        assert_eq!(store.get_tokenized(VideoId(1)), Some(rec.clone()));
        // The stored view went into the record cache as it was given.
        let cached = store.get_chat_view(VideoId(1)).unwrap().unwrap();
        assert!(Arc::ptr_eq(cached.buffer(), view.buffer()));
        assert_eq!(store.cache_stats(), (1, 0));
        assert_eq!(store.dead_bytes(), 0);
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
        assert_eq!(store.get_tokenized(VideoId(1)), Some(rec));
        // A companion of another video is refused before any write.
        let mut store = store;
        let bytes = store.total_bytes();
        let err = store
            .put_chat_view_with_companion(VideoId(2), &view, Some(&companion))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(store.total_bytes(), bytes);
    }

    #[test]
    fn crawl_with_companion_fails_in_the_order_of_two_puts() {
        let view = ChatLogView::from_chat_log(&sample_chat());
        let companion = format::encode_v3(&sample_tokenized(VideoId(1)));
        for (point, kind) in [
            ("log.append.write", FaultKind::Error),
            ("log.tok.write", FaultKind::TornWrite { keep: 9 }),
            ("log.sync", FaultKind::Error),
        ] {
            let dir = TempDir::new("crawl-faults");
            let mut store = ChatStore::open(&dir.0).unwrap();
            store.fault_injector().arm(Fault::once(point, kind));
            let put = store.put_chat_view_with_companion(VideoId(1), &view, Some(&companion));
            assert_eq!(store.fault_injector().fired(point), 1, "{point}");
            match point {
                // A torn companion is trimmed and swallowed; the chat
                // record is written.
                "log.tok.write" => {
                    assert!(!put.unwrap(), "{point}");
                    assert!(store.contains(VideoId(1)));
                    assert!(!store.has_tokenized(VideoId(1)));
                    assert_eq!(store.dead_bytes(), 0, "torn frame trimmed");
                }
                // A failed chat append writes nothing else; a failed
                // sync indexes neither record.
                _ => {
                    assert!(put.is_err(), "{point}");
                    assert!(!store.contains(VideoId(1)), "{point}");
                    assert!(!store.has_tokenized(VideoId(1)), "{point}");
                    assert!(store.get_chat_view(VideoId(1)).unwrap().is_none());
                }
            }
            if point == "log.append.write" {
                assert_eq!(
                    store.total_bytes(),
                    0,
                    "no companion after a failed chat append"
                );
            }
        }
    }

    #[test]
    fn a_roll_between_crawl_and_companion_fails_the_put_on_a_failed_sync() {
        // Segments sized so the chat record fits and its companion does
        // not: the companion append rolls, and the roll syncs the
        // segment holding the chat record.
        let view = ChatLogView::from_chat_log(&sample_chat());
        let companion = format::encode_v3(&sample_tokenized(VideoId(1)));
        let chat_framed = format::encode_v2_view(VideoId(1), &view).len() as u64 + FRAME_OVERHEAD;
        let segment_bytes = chat_framed + FRAME_OVERHEAD + companion.len() as u64 - 1;
        let dir = TempDir::new("crawl-roll-sync");
        let mut store = ChatStore::open_with_segment_bytes(&dir.0, segment_bytes).unwrap();
        store
            .fault_injector()
            .arm(Fault::once("log.sync", FaultKind::Error));
        let put = store.put_chat_view_with_companion(VideoId(1), &view, Some(&companion));
        assert_eq!(store.fault_injector().fired("log.sync"), 1);
        assert!(put.is_err());
        assert!(!store.contains(VideoId(1)));
        assert!(!store.has_tokenized(VideoId(1)));
        assert!(store.get_chat_view(VideoId(1)).unwrap().is_none());
        assert_eq!(store.log.active_segment(), 0, "no companion written");

        // With the fault spent the same put rolls, lands both records
        // and reads them back after a reopen.
        assert!(store
            .put_chat_view_with_companion(VideoId(1), &view, Some(&companion))
            .unwrap());
        assert!(store.log.active_segment() > 0);
        drop(store);
        let store = ChatStore::open_with_segment_bytes(&dir.0, segment_bytes).unwrap();
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
        assert_eq!(
            store.get_tokenized(VideoId(1)),
            Some(sample_tokenized(VideoId(1)))
        );
    }

    #[test]
    fn long_messages_survive_v2_intact() {
        // v2's u32 offsets hold texts past 65 535 bytes: the full text
        // round-trips.
        let dir = TempDir::new("long");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let long_text = "x".repeat(70_000);
        let chat = ChatLog::new(vec![ChatMessage::new(0.0, UserId(1), long_text.clone())]);
        store.put_chat(VideoId(9), &chat).unwrap();
        let back = store.get_chat(VideoId(9)).unwrap().unwrap();
        assert_eq!(back.messages()[0].text, long_text);
    }

    #[test]
    fn export_import_ships_records_byte_for_byte() {
        let src_dir = TempDir::new("export-src");
        let dst_dir = TempDir::new("export-dst");
        let mut src = ChatStore::open(&src_dir.0).unwrap();
        let chat = sample_chat();
        src.put_chat(VideoId(1), &chat).unwrap();
        src.put_chat(VideoId(2), &ChatLog::empty()).unwrap();
        assert!(src.export_record(VideoId(99)).unwrap().is_none());

        let mut dst = ChatStore::open(&dst_dir.0).unwrap();
        for vid in [VideoId(1), VideoId(2)] {
            let payload = src.export_record(vid).unwrap().unwrap();
            dst.import_record(vid, payload).unwrap();
        }
        assert_eq!(dst.get_chat(VideoId(1)).unwrap().unwrap(), chat);
        assert_eq!(dst.get_chat(VideoId(2)).unwrap().unwrap(), ChatLog::empty());
        // The shipped bytes are identical to the source's (same format,
        // same payload) and durable across a destination reopen.
        assert_eq!(
            src.export_record(VideoId(1)).unwrap(),
            dst.export_record(VideoId(1)).unwrap()
        );
        drop(dst);
        let dst = ChatStore::open(&dst_dir.0).unwrap();
        assert_eq!(dst.get_chat(VideoId(1)).unwrap().unwrap(), chat);
    }

    #[test]
    fn import_rejects_mismatched_or_garbage_records() {
        let dir = TempDir::new("import-bad");
        let mut store = ChatStore::open(&dir.0).unwrap();
        // A record encoded for video 1 must not import under video 2.
        let payload =
            format::encode_v2_view(VideoId(1), &ChatLogView::from_chat_log(&sample_chat()));
        let err = store.import_record(VideoId(2), payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Garbage bytes are rejected before touching the log, and so is
        // a tokenized companion, which holds no chat data.
        let err = store
            .import_record(VideoId(1), b"not a chat record".to_vec())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let companion = format::encode_v3(&sample_tokenized(VideoId(1)));
        let err = store.import_record(VideoId(1), companion).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(store.video_count(), 0);
    }

    fn sample_tokenized(video: VideoId) -> TokenizedRecord {
        TokenizedRecord {
            video,
            dim: 4,
            token_ends: vec![2, 3, 5],
            token_ids: vec![0, 1, 2, 3, 0],
            word_counts: vec![2, 1, 2],
        }
    }

    #[test]
    fn tokenized_companion_round_trips_and_survives_reopen() {
        let dir = TempDir::new("tok-rt");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let rec = sample_tokenized(VideoId(1));
        // No chat record yet → the companion is refused.
        assert_eq!(
            store.put_tokenized(&rec).unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        store.put_tokenized(&rec).unwrap();
        assert!(store.has_tokenized(VideoId(1)));
        assert_eq!(store.get_tokenized(VideoId(1)).unwrap(), rec);
        assert!(store.get_tokenized(VideoId(2)).is_none());
        // The companion is rebuilt from the scan on reopen, and the
        // chat record still reads as chat.
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.get_tokenized(VideoId(1)).unwrap(), rec);
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
        assert_eq!(store.video_count(), 1);
    }

    #[test]
    fn recrawl_orphans_tokenized_companion() {
        let dir = TempDir::new("tok-orphan");
        let mut store = ChatStore::open(&dir.0).unwrap();
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        store.put_tokenized(&sample_tokenized(VideoId(1))).unwrap();
        // A re-crawl invalidates the tokenization, immediately...
        store.put_chat(VideoId(1), &ChatLog::empty()).unwrap();
        assert!(!store.has_tokenized(VideoId(1)));
        assert!(store.get_tokenized(VideoId(1)).is_none());
        // ...and across a reopen (scan order: chat record came later).
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        assert!(!store.has_tokenized(VideoId(1)));
        // The orphaned companion is dead bytes; compaction drops it.
        let mut store = store;
        let stats = store.compact().unwrap();
        assert_eq!(stats.live_records, 1);
        assert!(stats.dropped_records >= 2, "old chat + orphaned companion");
    }

    #[test]
    fn compaction_carries_tokenized_companions() {
        let dir = TempDir::new("tok-compact");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let rec = sample_tokenized(VideoId(1));
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        store.put_tokenized(&rec).unwrap();
        store.put_chat(VideoId(2), &sample_chat()).unwrap();
        store.put_chat(VideoId(2), &sample_chat()).unwrap(); // dead bytes
        let stats = store.compact().unwrap();
        assert_eq!(stats.live_records, 3, "2 chat + 1 companion");
        assert_eq!(store.get_tokenized(VideoId(1)).unwrap(), rec);
        assert_eq!(store.dead_bytes(), 0);
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.get_tokenized(VideoId(1)).unwrap(), rec);
        assert_eq!(store.get_chat(VideoId(2)).unwrap().unwrap(), sample_chat());
    }

    #[test]
    fn import_tokenized_is_idempotent_and_validated() {
        let dir = TempDir::new("tok-import");
        let mut store = ChatStore::open(&dir.0).unwrap();
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        let payload = format::encode_v3(&sample_tokenized(VideoId(1)));
        // Wrong video id and non-v3 payloads are rejected.
        assert_eq!(
            store
                .import_tokenized(VideoId(2), payload.clone())
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::InvalidData
        );
        assert_eq!(
            store
                .import_tokenized(
                    VideoId(1),
                    format::encode_v2_view(VideoId(1), &ChatLogView::from_chat_log(&sample_chat()))
                )
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::InvalidData
        );
        store.import_tokenized(VideoId(1), payload.clone()).unwrap();
        let bytes_after_first = store.total_bytes();
        // Re-importing the identical payload must not grow the log.
        store.import_tokenized(VideoId(1), payload.clone()).unwrap();
        assert_eq!(store.total_bytes(), bytes_after_first);
        // A *different* companion does replace the live one.
        let mut changed = sample_tokenized(VideoId(1));
        changed.word_counts = vec![9, 9, 9];
        store
            .import_tokenized(VideoId(1), format::encode_v3(&changed))
            .unwrap();
        assert_eq!(store.get_tokenized(VideoId(1)).unwrap(), changed);
        assert!(store.total_bytes() > bytes_after_first);
        // Export ships exactly the live bytes.
        assert_eq!(
            store.export_tokenized(VideoId(1)).unwrap().unwrap(),
            format::encode_v3(&changed)
        );
        assert!(store.export_tokenized(VideoId(7)).unwrap().is_none());
    }

    #[test]
    fn torn_tail_record_is_dropped_on_reopen() {
        // Crash mid-append: the chat-store level view of SegmentLog's
        // torn-tail recovery. Good records survive, the torn one is
        // truncated away, and the store keeps accepting writes.
        let dir = TempDir::new("torn");
        {
            let mut store = ChatStore::open(&dir.0).unwrap();
            store.put_chat(VideoId(1), &sample_chat()).unwrap();
        }
        // Append half a record by hand: a frame header promising more
        // bytes than were written.
        let seg = dir.0.join("segment-000000.log");
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        let garbage = [0xFFu8, 0xFF, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0xAB];
        f.write_all(&garbage).unwrap();
        drop(f);

        let mut store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.video_count(), 1);
        assert_eq!(store.get_chat(VideoId(1)).unwrap().unwrap(), sample_chat());
        // Appending after recovery still works and survives reopen.
        store.put_chat(VideoId(2), &ChatLog::empty()).unwrap();
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.video_count(), 2);
    }

    #[test]
    fn recrawl_accumulates_dead_bytes_and_compact_reclaims() {
        let dir = TempDir::new("compact");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let chat = sample_chat();
        for vid in 1..=4u64 {
            store.put_chat(VideoId(vid), &chat).unwrap();
        }
        assert_eq!(store.dead_bytes(), 0);
        // Re-crawl every video twice: 2/3 of the log is now dead.
        for _ in 0..2 {
            for vid in 1..=4u64 {
                store.put_chat(VideoId(vid), &chat).unwrap();
            }
        }
        let dead = store.dead_bytes();
        assert!(dead * 3 >= store.total_bytes() * 2 - 8, "dead={dead}");

        let stats = store.compact().unwrap();
        assert_eq!(stats.live_records, 4);
        assert_eq!(stats.dropped_records, 8);
        assert_eq!(stats.reclaimed_bytes, dead);
        assert_eq!(store.dead_bytes(), 0);
        assert_eq!(store.reclaimed_bytes(), dead);

        // All live reads intact, through compaction AND a reopen.
        for vid in 1..=4u64 {
            assert_eq!(store.get_chat(VideoId(vid)).unwrap().unwrap(), chat);
        }
        drop(store);
        let store = ChatStore::open(&dir.0).unwrap();
        assert_eq!(store.video_count(), 4);
        assert_eq!(store.dead_bytes(), 0);
        for vid in 1..=4u64 {
            assert_eq!(store.get_chat(VideoId(vid)).unwrap().unwrap(), chat);
        }
    }

    #[test]
    fn maybe_compact_respects_thresholds() {
        let dir = TempDir::new("maybe");
        let mut store = ChatStore::open(&dir.0).unwrap();
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        // Nothing dead → no compaction.
        assert!(store.maybe_compact(0.25, 1).unwrap().is_none());
        store.put_chat(VideoId(1), &sample_chat()).unwrap();
        // Half the log is dead but under the byte floor → still no-op.
        assert!(store.maybe_compact(0.25, 1 << 30).unwrap().is_none());
        // Over both thresholds → compacts.
        let stats = store.maybe_compact(0.25, 1).unwrap().unwrap();
        assert_eq!(stats.dropped_records, 1);
        assert_eq!(store.dead_bytes(), 0);
    }

    /// Unicode palette for the round-trip property: ASCII, combining
    /// and multi-byte characters, an emoji, a space, and NUL.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', 'é', 'ß', '消', '息', '✓', '🎉', '\u{0}', '\n',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn v2_round_trip_arbitrary_unicode(
            msgs in proptest::collection::vec(
                (0.0..86_400.0f64, 0u64..1000, proptest::collection::vec(0usize..12, 0..16)),
                0..40,
            ),
        ) {
            // 0..16-char texts (including empty) over the unicode palette;
            // 0..40 messages (including the empty log).
            let chat = ChatLog::new(
                msgs.iter()
                    .map(|(ts, user, idx)| {
                        let text: String = idx.iter().map(|&i| CHARS[i % CHARS.len()]).collect();
                        ChatMessage::new(*ts, UserId(*user), text)
                    })
                    .collect(),
            );
            let payload: Arc<[u8]> =
                format::encode_v2_view(VideoId(77), &ChatLogView::from_chat_log(&chat)).into();
            let (video, view) = format::decode_v2(&payload).expect("encoder output must decode");
            prop_assert_eq!(video, VideoId(77));
            prop_assert!(view == chat, "view/log mismatch");
            prop_assert_eq!(view.to_chat_log(), chat);
            // And the store round-trips it through disk.
            let dir = TempDir::new("prop");
            let mut store = ChatStore::open(&dir.0).unwrap();
            store.put_chat(VideoId(77), &view.to_chat_log()).unwrap();
            prop_assert_eq!(store.get_chat(VideoId(77)).unwrap().unwrap(), view.to_chat_log());
        }

        #[test]
        fn compaction_preserves_live_records_across_interleavings(
            // A random interleaving of appends and re-crawls over a small
            // video-id space: (video 0..6, chat variant 0..8) per op.
            ops in proptest::collection::vec((0u64..6, 0usize..8), 1..32),
            compact_at in proptest::collection::vec(0usize..32, 0..3),
        ) {
            fn variant_chat(v: usize) -> ChatLog {
                ChatLog::new(
                    (0..v + 1)
                        .map(|i| {
                            ChatMessage::new(
                                i as f64 * 2.5,
                                UserId(i as u64),
                                format!("variant-{v} message-{i} 消息✓"),
                            )
                        })
                        .collect(),
                )
            }
            let dir = TempDir::new("prop-compact");
            let mut store = ChatStore::open(&dir.0).unwrap();
            // The oracle: what each video's chat must read back as.
            let mut expect: std::collections::HashMap<VideoId, ChatLog> =
                std::collections::HashMap::new();
            for (i, &(vid, variant)) in ops.iter().enumerate() {
                let chat = variant_chat(variant);
                store.put_chat(VideoId(vid), &chat).unwrap();
                expect.insert(VideoId(vid), chat);
                if compact_at.contains(&i) {
                    store.compact().unwrap();
                    prop_assert_eq!(store.dead_bytes(), 0);
                }
            }
            store.compact().unwrap();
            prop_assert_eq!(store.video_count(), expect.len());
            // Every live record survives byte-for-byte: the decoded log
            // must equal the last chat written for that video...
            for (vid, chat) in &expect {
                prop_assert_eq!(&store.get_chat(*vid).unwrap().unwrap(), chat);
            }
            // ...including after an index rebuild from the compacted log.
            drop(store);
            let store = ChatStore::open(&dir.0).unwrap();
            for (vid, chat) in &expect {
                prop_assert_eq!(&store.get_chat(*vid).unwrap().unwrap(), chat);
            }
        }
    }
}
