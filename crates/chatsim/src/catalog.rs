//! Channel catalog and platform facade.
//!
//! Section VII-D crawls the twenty most recent videos of the top-10 Dota2
//! channels and plots chat-rate and viewer CDFs; Section VI's crawler
//! polls channels for new videos. [`SimPlatform`] is the stand-in for
//! Twitch in both roles: a set of channels with popularity levels, each
//! with a list of recorded videos whose chat can be "crawled".

use crate::chat::{ChatGenerator, SimVideo};
use crate::game::GameProfile;
use crate::video::VideoGenerator;
use lightor_simkit::dist::log_uniform;
use lightor_simkit::SeedTree;
use lightor_types::{ChannelId, ChatLogView, GameKind, VideoId, VideoMeta};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A broadcaster channel with a popularity multiplier.
///
/// Popularity scales both the chat rate and the viewer count of the
/// channel's videos; it is log-uniform because channel audiences span
/// orders of magnitude.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    /// Channel identifier.
    pub id: ChannelId,
    /// Game the channel streams.
    pub game: GameKind,
    /// Popularity multiplier applied to chat rate and viewers.
    pub popularity: f64,
}

/// The simulated live-streaming platform: channels and recorded videos.
#[derive(Clone, Debug)]
pub struct SimPlatform {
    channels: Vec<Channel>,
    videos: HashMap<VideoId, SimVideo>,
    by_channel: HashMap<ChannelId, Vec<VideoId>>,
}

/// Popularity multiplier range for top channels. Even "top" channels vary,
/// but the big spread is per-video (time of day, tournament vs ladder), so
/// this range is mild.
const POPULARITY_RANGE: (f64, f64) = (0.8, 1.25);

/// Per-video background chat rate (messages/second) on catalog videos.
/// Wider than the labelled-dataset profile: the applicability study
/// (Figure 9a) needs the low-rate tail where LIGHTOR stops applying —
/// roughly 15-20% of crawled videos fall under 500 messages/hour.
const VIDEO_RATE_RANGE: (f64, f64) = (0.07, 0.60);

impl SimPlatform {
    /// Build a platform with `n_channels` top channels of `game`, each
    /// holding `videos_per_channel` recorded videos.
    /// Video generation (the expensive part) fans out over rayon; each
    /// video derives its RNG from its own `SeedTree` node, so the
    /// catalog is bit-identical for any thread count.
    pub fn top_channels(
        game: GameKind,
        n_channels: usize,
        videos_per_channel: usize,
        seed: u64,
    ) -> Self {
        let profile = Arc::new(GameProfile::for_game(game));
        let vg = VideoGenerator::new(profile.clone());
        let cg = ChatGenerator::new(profile);
        let root = SeedTree::new(seed).child("platform");

        // Channels (and their popularity draws) are cheap and ordered;
        // lay out every (video id, channel, popularity, seed node) job
        // first, then generate the videos in parallel.
        let mut channels = Vec::with_capacity(n_channels);
        let mut jobs: Vec<(VideoId, ChannelId, f64, SeedTree)> =
            Vec::with_capacity(n_channels * videos_per_channel);
        let mut next_video = 0u64;
        for c in 0..n_channels {
            let ch_node = root.child("channel").index(c as u64);
            let mut ch_rng = ch_node.rng();
            let popularity = log_uniform(&mut ch_rng, POPULARITY_RANGE.0, POPULARITY_RANGE.1);
            let channel = Channel {
                id: ChannelId(c as u64),
                game,
                popularity,
            };
            for v in 0..videos_per_channel {
                let vid = VideoId(next_video);
                next_video += 1;
                jobs.push((
                    vid,
                    channel.id,
                    popularity,
                    ch_node.child("video").index(v as u64),
                ));
            }
            channels.push(channel);
        }

        let sims: Vec<SimVideo> = jobs
            .par_iter()
            .map(|&(vid, ch, popularity, v_node)| {
                let mut vrng = v_node.child("spec").rng();
                let mut spec = vg.generate(vid, ch, &mut vrng);
                // Catalog videos draw their chat intensity from the wide
                // per-video range, scaled by channel popularity; audience
                // scales with popularity too, floored well above the
                // paper's 100-viewer observation.
                spec.background_rate =
                    log_uniform(&mut vrng, VIDEO_RATE_RANGE.0, VIDEO_RATE_RANGE.1) * popularity;
                spec.meta.viewers = ((spec.meta.viewers as f64 * popularity) as u32).max(120);
                let mut crng = v_node.child("chat").rng();
                cg.generate(spec, &mut crng)
            })
            .collect();

        let mut videos = HashMap::with_capacity(sims.len());
        let mut by_channel: HashMap<ChannelId, Vec<VideoId>> = HashMap::new();
        for sim in sims {
            let (vid, ch) = (sim.video.meta.id, sim.video.meta.channel);
            by_channel.entry(ch).or_default().push(vid);
            videos.insert(vid, sim);
        }

        SimPlatform {
            channels,
            videos,
            by_channel,
        }
    }

    /// All channels, in id order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The recorded videos of `channel`, most recent last.
    pub fn recent_videos(&self, channel: ChannelId) -> &[VideoId] {
        self.by_channel
            .get(&channel)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Metadata for a video, if it exists.
    pub fn video_meta(&self, id: VideoId) -> Option<&VideoMeta> {
        self.videos.get(&id).map(|v| &v.video.meta)
    }

    /// "Crawl" the chat replay of a video (what the Section VI web crawler
    /// fetches through platform APIs). Zero-copy: the returned view
    /// borrows the generator's columnar buffer.
    pub fn fetch_chat(&self, id: VideoId) -> Option<&ChatLogView> {
        self.videos.get(&id).map(|v| &v.video.chat)
    }

    /// Full simulated video including ground truth (evaluation only — a
    /// real platform has no labels).
    pub fn ground_truth(&self, id: VideoId) -> Option<&SimVideo> {
        self.videos.get(&id)
    }

    /// Iterate over every video on the platform, in hash order, which
    /// changes from process to process. A caller that needs a stable
    /// order sorts, or walks [`Self::channels`] and
    /// [`Self::recent_videos`].
    pub fn all_videos(&self) -> impl Iterator<Item = &SimVideo> {
        self.videos.values()
    }

    /// Total number of recorded videos.
    pub fn video_count(&self) -> usize {
        self.videos.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> SimPlatform {
        SimPlatform::top_channels(GameKind::Dota2, 4, 5, 21)
    }

    #[test]
    fn builds_requested_shape() {
        let p = platform();
        assert_eq!(p.channels().len(), 4);
        assert_eq!(p.video_count(), 20);
        for ch in p.channels() {
            assert_eq!(p.recent_videos(ch.id).len(), 5);
        }
    }

    #[test]
    fn popularity_in_range() {
        let p = platform();
        for ch in p.channels() {
            assert!(
                (POPULARITY_RANGE.0..=POPULARITY_RANGE.1).contains(&ch.popularity),
                "popularity {}",
                ch.popularity
            );
        }
    }

    #[test]
    fn all_videos_have_at_least_100_viewers() {
        // Paper Figure 9b: every crawled video has >100 viewers.
        let p = SimPlatform::top_channels(GameKind::Dota2, 10, 20, 22);
        for v in p.all_videos() {
            assert!(
                v.video.meta.viewers >= 100,
                "viewers {}",
                v.video.meta.viewers
            );
        }
    }

    #[test]
    fn majority_exceed_500_messages_per_hour() {
        // Paper Figure 9a: >80% of videos have ≥500 chat messages/hour.
        let p = SimPlatform::top_channels(GameKind::Dota2, 10, 20, 23);
        let ok = p
            .all_videos()
            .filter(|v| v.video.chat_rate() >= 500.0)
            .count();
        let total = p.video_count();
        assert!(
            ok as f64 / total as f64 >= 0.75,
            "{ok}/{total} above threshold"
        );
        // ...but not literally all of them: the long tail exists.
        assert!(ok < total, "every video above threshold is implausible");
    }

    #[test]
    fn crawl_api_round_trips() {
        let p = platform();
        let ch = p.channels()[0].id;
        let vid = p.recent_videos(ch)[0];
        let meta = p.video_meta(vid).unwrap();
        assert_eq!(meta.id, vid);
        assert_eq!(meta.channel, ch);
        let chat = p.fetch_chat(vid).unwrap();
        assert!(!chat.is_empty());
        assert!(p.ground_truth(vid).is_some());
        assert!(p.fetch_chat(VideoId(9999)).is_none());
        assert!(p.recent_videos(ChannelId(99)).is_empty());
    }

    #[test]
    fn construction_is_deterministic() {
        let a = SimPlatform::top_channels(GameKind::Lol, 2, 3, 7);
        let b = SimPlatform::top_channels(GameKind::Lol, 2, 3, 7);
        let ids_a: Vec<_> = a.channels().iter().map(|c| c.popularity).collect();
        let ids_b: Vec<_> = b.channels().iter().map(|c| c.popularity).collect();
        assert_eq!(ids_a, ids_b);
        for ch in a.channels() {
            for vid in a.recent_videos(ch.id) {
                assert_eq!(a.fetch_chat(*vid).unwrap(), b.fetch_chat(*vid).unwrap());
            }
        }
    }
}
