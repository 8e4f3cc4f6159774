//! Chat replay synthesis.
//!
//! A video's chat is the superposition of four event processes:
//!
//! 1. **Background chatter** — homogeneous Poisson at the video's base
//!    rate, mostly medium-length messages with occasional stray reactions.
//! 2. **Reaction bursts** — one per ground-truth highlight. Viewers can
//!    only comment on a highlight *after* seeing it (Section IV-C1), so
//!    the burst window opens a reaction delay after the highlight starts
//!    and its rate follows a triangular profile (ramp up, peak, decay):
//!    the message-count peak the adjustment stage anchors on.
//! 3. **Bot bursts** — advertisement spam: many long, near-identical
//!    messages in a few seconds (the false-positive family that defeats
//!    the count-only detector, Section IV-C1).
//! 4. **Off-topic bursts** — conversation flare-ups: many short but
//!    lexically diverse messages (the family the similarity feature
//!    defeats, Section VII-B).
//!
//! # Allocation-free generation, pinned determinism
//!
//! The event-process walk is written once (`ChatGenerator::synthesize`)
//! against a small sink trait, and instantiated twice:
//!
//! * the **fast path** ([`ChatGenerator::generate`]) appends message
//!   text through the [`CompiledLexicon`] writers into a per-video
//!   [`ChatLogBuilder`] bump buffer and finishes straight into a
//!   [`ChatLogView`] — no per-message `String`, no intermediate owned
//!   `ChatLog`;
//! * the **reference path** ([`ChatGenerator::generate_reference`])
//!   materializes one owned `String` per message and an owned
//!   [`ChatLog`] — the pre-refactor *cost model*, kept as the bench
//!   baseline and as the oracle proving the bump buffer is lossless.
//!
//! Both sinks consume the RNG in the identical sequence, so their
//! output is **bit-identical** for any seed (pinned here and in
//! `tests/dataset_determinism.rs`). Event times come from the
//! count-then-uniform Poisson sampler
//! ([`PoissonProcess::sample_times_unsorted`]) since the global
//! timestamp sort happens once at the end anyway.
//!
//! **Seed-compat:** PR 5 changed the generator's draw sequence (direct
//! gap-constrained highlight placement, count-then-uniform arrivals,
//! multiply-mapped lexicon picks, one-roll kind mixing). Corpora for a
//! fixed seed therefore differ from PR ≤ 4 — same distributions, new
//! stream; see CHANGES.md.

use crate::game::GameProfile;
use crate::lexicon::{CompiledLexicon, FocusSet, MessageKind};
use crate::video::VideoSpec;
use lightor_simkit::dist::{coin, uniform, uniform_index, PoissonProcess, TruncNormal};
use lightor_simkit::SimRng;
use lightor_types::{
    ts_order_key, ChatLog, ChatLogBuilder, ChatLogView, ChatMessage, GameKind, LabeledVideo,
    TimeRange, UserId,
};
use rand::Rng;
use rand_distr::{Distribution, Poisson};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A fully generated video: the labelled dataset unit plus the generator's
/// ground truth about *chat* (which the paper's human labellers produced by
/// watching: "is this window talking about a highlight?").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimVideo {
    /// Metadata, chat replay and highlight labels.
    pub video: LabeledVideo,
    /// Reaction-burst window per highlight (index-aligned with
    /// `video.highlights`) — the analog of human window labels.
    pub response_ranges: Vec<TimeRange>,
    /// True reaction delay per highlight, in seconds.
    pub reaction_delays: Vec<f64>,
}

impl SimVideo {
    /// True if `range` overlaps any highlight's reaction burst — the
    /// window-labelling rule used to train and score the prediction stage.
    pub fn window_is_highlight(&self, range: TimeRange) -> bool {
        self.response_ranges.iter().any(|r| r.overlaps(&range))
    }
}

/// Synthesizes chat replays for [`VideoSpec`]s.
///
/// Cheap to clone and `Sync`: the game profile is `Arc`-shared and the
/// lexicon is the process-wide compiled table, so corpus-scale fan-out
/// never deep-copies either.
#[derive(Clone, Debug)]
pub struct ChatGenerator {
    profile: Arc<GameProfile>,
    lexicon: &'static CompiledLexicon,
}

/// Fraction of the reaction-burst window at which the message rate peaks.
const BURST_PEAK_FRAC: f64 = 0.35;

/// Where one event-walk message lands: the fast path writes fragments
/// into a bump buffer, the reference path materializes `String`s. Both
/// must consume the RNG identically (the whole point of the trait).
trait ChatSink {
    /// A burst's sampled focus tokens.
    type Focus;

    /// Sample the focus set of one reaction burst.
    fn sample_focus(&mut self, rng: &mut SimRng, game: GameKind) -> Self::Focus;

    /// Emit one message of `kind`.
    fn message(
        &mut self,
        ts: f64,
        user: UserId,
        kind: MessageKind,
        game: GameKind,
        rng: &mut SimRng,
    );

    /// Emit one focused reaction-burst message.
    fn hype_focused(&mut self, ts: f64, user: UserId, focus: &Self::Focus, rng: &mut SimRng);
}

/// The allocation-free sink: compiled-lexicon writers over a bump
/// buffer.
struct FastSink {
    builder: ChatLogBuilder,
    lexicon: &'static CompiledLexicon,
}

impl ChatSink for FastSink {
    type Focus = FocusSet;

    fn sample_focus(&mut self, rng: &mut SimRng, game: GameKind) -> FocusSet {
        self.lexicon.sample_focus(rng, game)
    }

    fn message(
        &mut self,
        ts: f64,
        user: UserId,
        kind: MessageKind,
        game: GameKind,
        rng: &mut SimRng,
    ) {
        self.lexicon
            .write_message(rng, kind, game, self.builder.text_buf());
        self.builder.commit(ts, user);
    }

    fn hype_focused(&mut self, ts: f64, user: UserId, focus: &FocusSet, rng: &mut SimRng) {
        self.lexicon
            .write_hype_focused(rng, focus, self.builder.text_buf());
        self.builder.commit(ts, user);
    }
}

/// The owned-materialization sink: one `String` per message collected
/// into a `Vec<ChatMessage>` — the pre-refactor cost model (kept as
/// the pinning oracle and the benchmark baseline). Identical draws to
/// [`FastSink`], so identical bytes.
struct ReferenceSink {
    messages: Vec<ChatMessage>,
    lexicon: &'static CompiledLexicon,
}

impl ChatSink for ReferenceSink {
    type Focus = FocusSet;

    fn sample_focus(&mut self, rng: &mut SimRng, game: GameKind) -> FocusSet {
        self.lexicon.sample_focus(rng, game)
    }

    fn message(
        &mut self,
        ts: f64,
        user: UserId,
        kind: MessageKind,
        game: GameKind,
        rng: &mut SimRng,
    ) {
        let mut text = String::new();
        self.lexicon.write_message(rng, kind, game, &mut text);
        self.messages.push(ChatMessage::new(ts, user, text));
    }

    fn hype_focused(&mut self, ts: f64, user: UserId, focus: &FocusSet, rng: &mut SimRng) {
        let mut text = String::new();
        self.lexicon.write_hype_focused(rng, focus, &mut text);
        self.messages.push(ChatMessage::new(ts, user, text));
    }
}

impl ChatGenerator {
    /// A generator for the given game profile (`GameProfile` or
    /// `Arc<GameProfile>` — sharing the `Arc` keeps corpus-scale
    /// generation from copying the profile per video).
    pub fn new(profile: impl Into<Arc<GameProfile>>) -> Self {
        ChatGenerator {
            profile: profile.into(),
            lexicon: CompiledLexicon::shared(),
        }
    }

    /// Generate the chat replay for `spec`, emitting the columnar
    /// [`ChatLogView`] directly. Consumes the spec: its metadata and
    /// highlights move into the result instead of being cloned.
    pub fn generate(&self, spec: VideoSpec, rng: &mut SimRng) -> SimVideo {
        let dur = spec.meta.duration.0;
        // Expected messages ≈ background·dur plus the burst families;
        // 1.6× covers the bursts for both profiles without waste.
        let est_msgs = (spec.background_rate * dur * 1.6) as usize + 64;
        let mut sink = FastSink {
            builder: ChatLogBuilder::with_capacity(est_msgs, est_msgs * 32),
            lexicon: self.lexicon,
        };
        let (response_ranges, reaction_delays) = self.synthesize(&spec, &mut sink, rng);
        let chat = sink.builder.finish_sorted();
        debug_assert!(chat.iter().all(|m| m.ts.0 >= 0.0 && m.ts.0 <= dur));
        Self::assemble(spec, chat, response_ranges, reaction_delays)
    }

    /// The owned-materialization generator: per-message `String`s
    /// collected into an owned [`ChatLog`], then columnarized — the
    /// pre-refactor cost model over the same draw stream. Retained as
    /// the pinning oracle (bump buffer is lossless) and the bench
    /// baseline.
    pub fn generate_reference(&self, spec: VideoSpec, rng: &mut SimRng) -> SimVideo {
        let mut sink = ReferenceSink {
            messages: Vec::new(),
            lexicon: self.lexicon,
        };
        let (response_ranges, reaction_delays) = self.synthesize(&spec, &mut sink, rng);
        let chat = ChatLogView::from_chat_log(&ChatLog::new(sink.messages));
        Self::assemble(spec, chat, response_ranges, reaction_delays)
    }

    fn assemble(
        spec: VideoSpec,
        chat: ChatLogView,
        response_ranges: Vec<TimeRange>,
        reaction_delays: Vec<f64>,
    ) -> SimVideo {
        let VideoSpec {
            meta, highlights, ..
        } = spec;
        SimVideo {
            video: LabeledVideo {
                meta,
                chat,
                highlights,
            },
            response_ranges,
            reaction_delays,
        }
    }

    /// Run the four event processes into `sink`, in two phases:
    ///
    /// 1. **Event layout** — sample every process's event times (and
    ///    per-candidate burst thinning) into one tagged event list,
    ///    then sort it by `(timestamp, insertion order)`.
    /// 2. **Message writing** — walk the sorted events, drawing each
    ///    message's author and text in final timestamp order.
    ///
    /// Writing in sorted order means the sink's bump buffer is already
    /// laid out — finishing is a sequential serialization instead of a
    /// permuted gather over the text blob. The RNG draw sequence here
    /// is the determinism contract — any change breaks seed
    /// compatibility and must be called out in CHANGES.md.
    fn synthesize<S: ChatSink>(
        &self,
        spec: &VideoSpec,
        sink: &mut S,
        rng: &mut SimRng,
    ) -> (Vec<TimeRange>, Vec<f64>) {
        const TAG_BACKGROUND: u32 = 0;
        const TAG_BOT: u32 = 1;
        const TAG_OFFTOPIC: u32 = 2;
        const TAG_BURST0: u32 = 3;

        let p = &*self.profile;
        let game = p.game;
        let dur = spec.meta.duration.0;

        // ---- Phase 1: event layout -------------------------------------
        // (total-order key, insertion seq, tag, timestamp); sorting the
        // tuple lexicographically is a stable timestamp sort.
        let mut events: Vec<(u64, u32, u32, f64)> = Vec::new();
        let mut times: Vec<f64> = Vec::new();
        let push_events = |events: &mut Vec<(u64, u32, u32, f64)>, times: &[f64], tag: u32| {
            events.reserve(times.len());
            for &t in times {
                events.push((ts_order_key(t), events.len() as u32, tag, t));
            }
        };

        // Background chatter.
        PoissonProcess::new(spec.background_rate).sample_times_unsorted(0.0, dur, rng, &mut times);
        push_events(&mut events, &times, TAG_BACKGROUND);

        // Reaction bursts: one per highlight, thinned against the
        // triangular envelope; the focus set is sampled per burst.
        let delay_dist = TruncNormal::new(
            p.reaction_delay_mean,
            p.reaction_delay_std,
            p.reaction_delay_bounds.0,
            p.reaction_delay_bounds.1,
        );
        let mut windows = Vec::with_capacity(spec.highlights.len());
        let mut delays = Vec::with_capacity(spec.highlights.len());
        let mut focuses = Vec::with_capacity(spec.highlights.len());
        for (b, h) in spec.highlights.iter().enumerate() {
            let delay = delay_dist.sample(rng);
            let burst_len = uniform(rng, p.burst_len.0, p.burst_len.1);
            let start = (h.start().0 + delay).min(dur - 1.0);
            let end = (start + burst_len).min(dur);
            windows.push(TimeRange::from_secs(start, end));
            delays.push(delay);

            // Everyone reacts to the same moment: the burst concentrates
            // on a few focus tokens (the similarity feature's signal).
            focuses.push(sink.sample_focus(rng, game));
            let mult = uniform(rng, p.burst_multiplier.0, p.burst_multiplier.1);
            // Thinning against the triangular envelope: expected message
            // count = background_rate * mult * burst_len.
            let max_rate = spec.background_rate * mult * 2.0;
            PoissonProcess::new(max_rate).sample_times_unsorted(start, end, rng, &mut times);
            let span = (end - start).max(1e-9);
            events.reserve(times.len());
            for &t in &*times {
                let x = (t - start) / span;
                let envelope = if x < BURST_PEAK_FRAC {
                    x / BURST_PEAK_FRAC
                } else {
                    (1.0 - x) / (1.0 - BURST_PEAK_FRAC)
                };
                if coin(rng, envelope) {
                    events.push((
                        ts_order_key(t),
                        events.len() as u32,
                        TAG_BURST0 + b as u32,
                        t,
                    ));
                }
            }
        }

        // Advertisement-bot bursts.
        let hours = dur / 3600.0;
        let n_bot = sample_count(p.bot_bursts_per_hour * hours, rng);
        for _ in 0..n_bot {
            let start = uniform(rng, 0.0, (dur - 30.0).max(1.0));
            let len = uniform(rng, 8.0, 18.0);
            let rate = uniform(rng, 0.9, 2.2);
            PoissonProcess::new(rate).sample_times_unsorted(
                start,
                (start + len).min(dur),
                rng,
                &mut times,
            );
            push_events(&mut events, &times, TAG_BOT);
        }

        // Off-topic conversation flare-ups.
        let n_off = sample_count(p.offtopic_bursts_per_hour * hours, rng);
        for _ in 0..n_off {
            let start = uniform(rng, 0.0, (dur - 40.0).max(1.0));
            let len = uniform(rng, 15.0, 30.0);
            let rate = spec.background_rate * uniform(rng, 2.5, 5.0);
            PoissonProcess::new(rate).sample_times_unsorted(
                start,
                (start + len).min(dur),
                rng,
                &mut times,
            );
            push_events(&mut events, &times, TAG_OFFTOPIC);
        }

        events.sort_unstable_by_key(|e| (e.0, e.1));

        // ---- Phase 2: write messages in timestamp order ----------------
        for &(_, _, tag, t) in &events {
            match tag {
                TAG_BACKGROUND => {
                    // Mostly chatter; a sprinkle of stray reactions and
                    // questions keeps single hype tokens from being a
                    // perfect highlight tell. One roll against the
                    // cumulative mix (8% hype, 5% off-topic).
                    let roll: f64 = rng.gen();
                    let kind = if roll < 0.08 {
                        MessageKind::Hype
                    } else if roll < 0.13 {
                        MessageKind::OffTopic
                    } else {
                        MessageKind::Background
                    };
                    let user = self.random_user(rng);
                    sink.message(t, user, kind, game, rng);
                }
                TAG_BOT => sink.message(t, UserId::BOT, MessageKind::Bot, game, rng),
                TAG_OFFTOPIC => {
                    let user = self.random_user(rng);
                    sink.message(t, user, MessageKind::OffTopic, game, rng);
                }
                burst => {
                    let user = self.random_user(rng);
                    if coin(rng, 0.88) {
                        let focus = &focuses[(burst - TAG_BURST0) as usize];
                        sink.hype_focused(t, user, focus, rng);
                    } else {
                        sink.message(t, user, MessageKind::Background, game, rng);
                    }
                }
            }
        }

        (windows, delays)
    }

    /// A uniformly random chatter: one 64-bit draw multiply-mapped onto
    /// the pool (no divide).
    fn random_user(&self, rng: &mut SimRng) -> UserId {
        UserId(uniform_index(rng, self.profile.chatter_pool as usize) as u64)
    }
}

fn sample_count(mean: f64, rng: &mut SimRng) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    Poisson::new(mean).expect("positive mean").sample(rng) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::VideoGenerator;
    use lightor_simkit::SeedTree;
    use lightor_types::{ChannelId, VideoId};

    fn gen_sim(profile: GameProfile, idx: u64, seed: u64) -> SimVideo {
        let profile = Arc::new(profile);
        let vg = VideoGenerator::new(profile.clone());
        let cg = ChatGenerator::new(profile);
        let root = SeedTree::new(seed);
        let mut vrng = root.child("video").index(idx).rng();
        let spec = vg.generate(VideoId(idx), ChannelId(0), &mut vrng);
        let mut crng = root.child("chat").index(idx).rng();
        cg.generate(spec, &mut crng)
    }

    #[test]
    fn message_counts_match_paper_band() {
        // Paper Section VII-A: 800-4300 messages per video. Allow modest
        // slack since our counts are random draws.
        for i in 0..12 {
            let sv = gen_sim(GameProfile::dota2(), i, 11);
            let n = sv.video.chat.len();
            assert!(
                (550..=5200).contains(&n),
                "video {i}: {n} messages, duration {}",
                sv.video.meta.duration
            );
        }
    }

    #[test]
    fn chat_is_sorted_and_in_range() {
        let sv = gen_sim(GameProfile::lol(), 0, 12);
        let chat = &sv.video.chat;
        assert!((1..chat.len()).all(|i| chat.ts(i - 1).0 <= chat.ts(i).0));
        let dur = sv.video.meta.duration.0;
        assert!(chat.iter().all(|m| (0.0..=dur).contains(&m.ts.0)));
    }

    #[test]
    fn bursts_follow_highlights_with_delay() {
        let sv = gen_sim(GameProfile::dota2(), 1, 13);
        for (h, (w, d)) in sv
            .video
            .highlights
            .iter()
            .zip(sv.response_ranges.iter().zip(&sv.reaction_delays))
        {
            assert!(
                (6.0..=26.0).contains(d),
                "delay {d} outside truncation bounds"
            );
            assert!((w.start.0 - (h.start().0 + d)).abs() < 1.5);
            assert!(w.end.0 > w.start.0);
        }
    }

    #[test]
    fn burst_windows_have_elevated_rate() {
        let sv = gen_sim(GameProfile::dota2(), 2, 14);
        let chat = &sv.video.chat;
        let dur = sv.video.meta.duration.0;
        // Compare burst-window rate against the whole-video average rate.
        let avg_rate = chat.len() as f64 / dur;
        let mut elevated = 0;
        for w in &sv.response_ranges {
            let n = chat.count_in(*w) as f64;
            let rate = n / w.duration().0.max(1e-9);
            if rate > 1.5 * avg_rate {
                elevated += 1;
            }
        }
        // The vast majority of bursts must be visibly elevated.
        assert!(
            elevated * 10 >= sv.response_ranges.len() * 7,
            "{elevated}/{} bursts elevated",
            sv.response_ranges.len()
        );
    }

    #[test]
    fn hype_messages_are_shorter_in_bursts() {
        let sv = gen_sim(GameProfile::dota2(), 3, 15);
        let mut burst_len = Vec::new();
        let mut other_len = Vec::new();
        for m in sv.video.chat.iter() {
            let in_burst = sv.response_ranges.iter().any(|w| w.contains(m.ts));
            if in_burst {
                burst_len.push(m.word_count() as f64);
            } else {
                other_len.push(m.word_count() as f64);
            }
        }
        let bm = lightor_simkit::mean(&burst_len).unwrap();
        let om = lightor_simkit::mean(&other_len).unwrap();
        assert!(bm < om, "burst mean len {bm} vs other {om}");
    }

    #[test]
    fn window_is_highlight_matches_ranges() {
        let sv = gen_sim(GameProfile::lol(), 4, 16);
        let w = sv.response_ranges[0];
        assert!(sv.window_is_highlight(w));
        assert!(sv.window_is_highlight(TimeRange::from_secs(w.start.0 - 5.0, w.start.0 + 1.0)));
        // A window long before the first highlight cannot be labelled.
        assert!(!sv.window_is_highlight(TimeRange::from_secs(0.0, 10.0)));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen_sim(GameProfile::dota2(), 5, 17);
        let b = gen_sim(GameProfile::dota2(), 5, 17);
        assert_eq!(a.video.chat, b.video.chat);
        assert_eq!(a.response_ranges, b.response_ranges);
    }

    #[test]
    fn fast_path_pins_to_owned_reference() {
        // The bump-buffer path must be bit-identical to the retained
        // owned-String materialization of the same sampler: same
        // messages, same timestamp bits, same ground truth — proving
        // the zero-copy rewrite changes cost, not content.
        for (profile, seed) in [(GameProfile::dota2(), 20), (GameProfile::lol(), 21)] {
            let profile = Arc::new(profile);
            let vg = VideoGenerator::new(profile.clone());
            let cg = ChatGenerator::new(profile);
            let root = SeedTree::new(seed);
            let spec = {
                let mut vrng = root.child("video").rng();
                vg.generate(VideoId(0), ChannelId(0), &mut vrng)
            };
            let fast = cg.generate(spec.clone(), &mut root.child("chat").rng());
            let reference = cg.generate_reference(spec, &mut root.child("chat").rng());
            assert_eq!(fast.video.chat, reference.video.chat);
            assert_eq!(fast.response_ranges, reference.response_ranges);
            assert_eq!(fast.reaction_delays, reference.reaction_delays);
        }
    }

    #[test]
    fn bot_messages_present_and_long() {
        // Across several videos, bots must appear (they are the noise the
        // prediction stage exists to reject).
        let mut bot_msgs = 0usize;
        let mut total = 0usize;
        for i in 0..6 {
            let sv = gen_sim(GameProfile::dota2(), i, 18);
            for m in sv.video.chat.iter() {
                total += 1;
                if m.user == UserId::BOT {
                    bot_msgs += 1;
                    assert!(m.word_count() >= 14, "bot msg too short: {:?}", m.text);
                }
            }
        }
        assert!(bot_msgs > 20, "only {bot_msgs} bot messages in {total}");
    }
}
