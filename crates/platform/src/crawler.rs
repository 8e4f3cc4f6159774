//! The chat crawler (paper Section VI-A).
//!
//! "The offline crawling periodically checks a given list of popular
//! channels. If new videos are uploaded in those channels, their chat
//! messages will be crawled accordingly. The online crawling will crawl
//! the chat messages on the fly... triggered if the chat messages of a
//! video do not exist in the database."
//!
//! Re-crawls ([`Crawler::recrawl_pass`]) refresh *already stored*
//! videos (moderation edits, late chat arrivals), overwriting their
//! records in the store. Each overwrite orphans the previous record, so
//! the pass finishes by asking the store to compact once the dead
//! fraction crosses a threshold — reclaim is amortized across passes
//! instead of paid on every one.

use crate::store::{ChatStore, CompactStats};
use lightor_chatsim::SimPlatform;
use lightor_types::{ChannelId, VideoId};

/// Dead fraction of the chat log at which a re-crawl pass compacts.
const RECRAWL_COMPACT_RATIO: f64 = 0.3;
/// Dead-byte floor below which a re-crawl pass never compacts.
const RECRAWL_COMPACT_MIN_BYTES: u64 = 64 << 10;

/// Outcome counters for a crawl pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Videos whose chat was fetched and stored.
    pub crawled: usize,
    /// Videos skipped because the store already had them.
    pub skipped: usize,
    /// Total chat messages fetched.
    pub messages: usize,
    /// Bytes reclaimed by the compaction a re-crawl pass triggered
    /// (zero when the pass stayed under the dead-byte thresholds).
    pub reclaimed_bytes: u64,
}

/// What one online crawl ([`Crawler::crawl_video`]) did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnlineCrawl {
    /// The platform does not know the video.
    Unknown,
    /// The store already held the video's chat; nothing was written.
    AlreadyStored,
    /// The chat was fetched and stored, durably.
    Stored {
        /// Whether the tokenized companion landed with it.
        companion: bool,
    },
}

/// Crawls chat replays from the (simulated) platform into a [`ChatStore`].
#[derive(Debug)]
pub struct Crawler<'a> {
    platform: &'a SimPlatform,
}

impl<'a> Crawler<'a> {
    /// A crawler bound to one platform.
    pub fn new(platform: &'a SimPlatform) -> Self {
        Crawler { platform }
    }

    /// Offline pass: crawl every not-yet-stored video of the given
    /// channels. The whole pass is written as one batch with a single
    /// durability `sync` ([`ChatStore::put_chats`]).
    pub fn offline_pass(
        &self,
        channels: &[ChannelId],
        store: &mut ChatStore,
    ) -> std::io::Result<CrawlStats> {
        let mut stats = CrawlStats::default();
        let mut batch = Vec::new();
        for &ch in channels {
            for &vid in self.platform.recent_videos(ch) {
                if store.contains(vid) {
                    stats.skipped += 1;
                    continue;
                }
                if let Some(chat) = self.platform.fetch_chat(vid) {
                    batch.push((vid, chat));
                    stats.crawled += 1;
                    stats.messages += chat.len();
                }
            }
        }
        store.put_chats(batch)?;
        Ok(stats)
    }

    /// Re-crawl pass: fetch *every* known video of the given channels
    /// again, overwriting stored replays, then reclaim the dead bytes
    /// the overwrites left behind (compaction runs only past the
    /// dead-ratio/byte thresholds; see [`ChatStore::maybe_compact`]).
    pub fn recrawl_pass(
        &self,
        channels: &[ChannelId],
        store: &mut ChatStore,
    ) -> std::io::Result<CrawlStats> {
        let mut stats = CrawlStats::default();
        let mut batch = Vec::new();
        for &ch in channels {
            for &vid in self.platform.recent_videos(ch) {
                if let Some(chat) = self.platform.fetch_chat(vid) {
                    batch.push((vid, chat));
                    stats.crawled += 1;
                    stats.messages += chat.len();
                }
            }
        }
        store.put_chats(batch)?;
        if let Some(CompactStats {
            reclaimed_bytes, ..
        }) = store.maybe_compact(RECRAWL_COMPACT_RATIO, RECRAWL_COMPACT_MIN_BYTES)?
        {
            stats.reclaimed_bytes = reclaimed_bytes;
        }
        Ok(stats)
    }

    /// Online crawl of one video, triggered by its first viewer: a video
    /// the store already holds is not rewritten; otherwise its chat
    /// replay is fetched and stored, with `companion` (the encoded v3
    /// record of the corpus tokenized from this platform's replay of
    /// `video`, if the caller built one) appended beside it under the
    /// same single sync ([`ChatStore::put_chat_view_with_companion`]).
    pub fn crawl_video(
        &self,
        video: VideoId,
        store: &mut ChatStore,
        companion: Option<&[u8]>,
    ) -> std::io::Result<OnlineCrawl> {
        if store.contains(video) {
            return Ok(OnlineCrawl::AlreadyStored);
        }
        match self.platform.fetch_chat(video) {
            Some(chat) => {
                let companion = store.put_chat_view_with_companion(video, chat, companion)?;
                Ok(OnlineCrawl::Stored { companion })
            }
            None => Ok(OnlineCrawl::Unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightor_types::GameKind;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "lightor-crawler-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn offline_pass_crawls_everything_once() {
        let platform = SimPlatform::top_channels(GameKind::Dota2, 3, 4, 61);
        let dir = TempDir::new("offline");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let crawler = Crawler::new(&platform);
        let channels: Vec<ChannelId> = platform.channels().iter().map(|c| c.id).collect();

        let first = crawler.offline_pass(&channels, &mut store).unwrap();
        assert_eq!(first.crawled, 12);
        assert_eq!(first.skipped, 0);
        assert!(first.messages > 0);

        // Second pass: everything already stored.
        let second = crawler.offline_pass(&channels, &mut store).unwrap();
        assert_eq!(second.crawled, 0);
        assert_eq!(second.skipped, 12);
    }

    #[test]
    fn recrawl_pass_overwrites_and_reclaims() {
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 3, 64);
        let dir = TempDir::new("recrawl");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let crawler = Crawler::new(&platform);
        let channels: Vec<ChannelId> = platform.channels().iter().map(|c| c.id).collect();

        crawler.offline_pass(&channels, &mut store).unwrap();
        let stored = store.video_count();
        assert_eq!(store.dead_bytes(), 0);

        // Each re-crawl overwrites every record; by the second pass the
        // dead fraction is ≥ 2/3 and compaction must have fired (real
        // chats here are well past the 64 KiB floor).
        crawler.recrawl_pass(&channels, &mut store).unwrap();
        let second = crawler.recrawl_pass(&channels, &mut store).unwrap();
        assert_eq!(second.crawled, stored);
        assert!(
            second.reclaimed_bytes > 0,
            "re-crawl pass did not compact (dead={} total={})",
            store.dead_bytes(),
            store.total_bytes()
        );
        assert_eq!(store.video_count(), stored);
        // Live reads intact after reclaim.
        for &ch in &channels {
            for &vid in platform.recent_videos(ch) {
                assert_eq!(
                    &store.get_chat(vid).unwrap().unwrap(),
                    platform.fetch_chat(vid).unwrap()
                );
            }
        }
    }

    #[test]
    fn online_crawl_on_miss() {
        let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 62);
        let dir = TempDir::new("online");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let crawler = Crawler::new(&platform);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];

        assert!(!store.contains(vid));
        assert_eq!(
            crawler.crawl_video(vid, &mut store, None).unwrap(),
            OnlineCrawl::Stored { companion: false }
        );
        assert!(store.contains(vid));
        // A stored video is not rewritten.
        let bytes = store.total_bytes();
        assert_eq!(
            crawler.crawl_video(vid, &mut store, None).unwrap(),
            OnlineCrawl::AlreadyStored
        );
        assert_eq!(store.total_bytes(), bytes);
        // Unknown video.
        assert_eq!(
            crawler
                .crawl_video(VideoId(424242), &mut store, None)
                .unwrap(),
            OnlineCrawl::Unknown
        );
    }

    #[test]
    fn crawled_chat_matches_platform() {
        let platform = SimPlatform::top_channels(GameKind::Lol, 1, 1, 63);
        let dir = TempDir::new("verify");
        let mut store = ChatStore::open(&dir.0).unwrap();
        let crawler = Crawler::new(&platform);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        crawler.crawl_video(vid, &mut store, None).unwrap();
        let stored = store.get_chat(vid).unwrap().unwrap();
        assert_eq!(&stored, platform.fetch_chat(vid).unwrap());
    }
}
