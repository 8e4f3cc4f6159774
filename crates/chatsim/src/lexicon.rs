//! Message text generation.
//!
//! Four message families, engineered so each of the paper's three window
//! features has discriminative work to do (Section IV-C2, Figure 2b):
//!
//! * **Hype** — what viewers type right after a highlight: 1–4 tokens,
//!   heavy repetition, emotes. Short length, high mutual similarity.
//! * **Background** — ordinary chatter: 4–14 words over a broad
//!   vocabulary. Medium length, low similarity.
//! * **Bot** — advertisement spam: 14–24 words from a tiny template pool.
//!   High message *count* and high similarity, but long — the
//!   message-length feature is what defeats these (the paper's first
//!   false-positive family).
//! * **Off-topic** — a conversation flare-up (someone asked a question,
//!   the chat piles on): short messages over a broad vocabulary. High
//!   count, short length, but low similarity — the similarity feature is
//!   what defeats these.
//!
//! # Compiled sampling tables
//!
//! All text flows through [`CompiledLexicon`]: the phrase pools above
//! compiled once into a single interned fragment blob with per-class
//! index tables (the hype-class mix is a cumulative-weight table walked
//! with one uniform roll — the build-once/sample-many trick of weighted
//! text generators), and *writer* methods that append a message's
//! fragments straight into a caller-supplied buffer. No `format!`, no
//! per-message `String`, no `Vec<&str>` join; fragment picks map one
//! 64-bit draw by multiply-shift instead of a hardware divide.
//!
//! [`generate`] is the owned-`String` convenience wrapper over the same
//! writers (identical draws, identical bytes) — what the pre-refactor
//! per-message-allocating generator has collapsed into.

use lightor_simkit::dist::uniform_index;
use lightor_types::GameKind;
use rand::Rng;
use std::ops::Range;
use std::sync::OnceLock;

/// Emotes shared by every stream.
const EMOTES: &[&str] = &[
    "PogChamp",
    "Kreygasm",
    "LUL",
    "OMEGALUL",
    "monkaS",
    "EZ",
    "Clap",
    "KEKW",
    "Pog",
    "PepeHands",
    "5Head",
    "Jebaited",
    "GIGACHAD",
];

/// Short hype exclamations shared by every game.
const HYPE_COMMON: &[&str] = &[
    "wow",
    "omg",
    "gg",
    "wtf",
    "insane",
    "clutch",
    "lol",
    "no way",
    "sick",
    "what a play",
    "unreal",
    "holy",
];

/// Dota2-specific hype tokens.
const HYPE_DOTA2: &[&str] = &[
    "rampage",
    "ultrakill",
    "black hole",
    "echo slam",
    "divine rapier",
    "aegis",
    "roshan",
    "buyback",
    "megacreeps",
    "chrono",
    "ravage",
];

/// LoL-specific hype tokens.
const HYPE_LOL: &[&str] = &[
    "pentakill",
    "quadra",
    "baron steal",
    "ace",
    "backdoor",
    "elder steal",
    "flash ult",
    "outplayed",
    "1v5",
    "nexus race",
];

/// Broad background vocabulary (game talk, small talk). Wide on purpose:
/// ordinary chatter must be lexically scattered so the similarity
/// feature separates it from focused reaction bursts.
const BACKGROUND: &[&str] = &[
    "the",
    "a",
    "this",
    "that",
    "stream",
    "game",
    "team",
    "player",
    "build",
    "item",
    "why",
    "how",
    "when",
    "today",
    "tomorrow",
    "really",
    "think",
    "draft",
    "pick",
    "ban",
    "mid",
    "lane",
    "jungle",
    "support",
    "carry",
    "farm",
    "gold",
    "level",
    "early",
    "late",
    "push",
    "fight",
    "objective",
    "map",
    "vision",
    "ward",
    "chat",
    "anyone",
    "watching",
    "from",
    "where",
    "what",
    "again",
    "still",
    "music",
    "song",
    "food",
    "pizza",
    "coffee",
    "work",
    "school",
    "weekend",
    "favorite",
    "best",
    "worst",
    "ever",
    "never",
    "always",
    "maybe",
    "probably",
    "definitely",
    "guys",
    "hello",
    "everyone",
    "good",
    "bad",
    "nice",
    "fine",
    "yesterday",
    "tonight",
    "morning",
    "evening",
    "minute",
    "hour",
    "second",
    "match",
    "series",
    "finals",
    "group",
    "stage",
    "bracket",
    "winner",
    "loser",
    "score",
    "point",
    "damage",
    "heal",
    "tank",
    "range",
    "melee",
    "spell",
    "cooldown",
    "mana",
    "health",
    "buff",
    "nerf",
    "patch",
    "meta",
    "version",
    "update",
    "server",
    "lag",
    "ping",
    "fps",
    "camera",
    "replay",
    "clip",
    "channel",
    "subscribe",
    "follow",
    "prime",
    "emote",
    "keyboard",
    "mouse",
    "headset",
    "chair",
    "desk",
    "setup",
    "monitor",
    "screen",
    "brother",
    "sister",
    "friend",
    "roommate",
    "dog",
    "cat",
    "homework",
    "exam",
    "class",
    "job",
    "boss",
    "meeting",
    "vacation",
    "holiday",
    "birthday",
    "party",
    "movie",
    "series2",
    "episode",
    "season",
    "book",
    "story",
    "news",
    "weather",
    "rain",
    "snow",
    "summer",
    "winter",
    "spring",
    "autumn",
    "city",
    "country",
    "travel",
    "flight",
    "train",
    "bus",
    "car",
    "bike",
    "walk",
    "run",
    "gym",
    "sleep",
    "tired",
    "awake",
    "hungry",
    "thirsty",
    "water",
    "tea",
    "juice",
    "soda",
    "burger",
    "pasta",
    "salad",
    "chicken",
    "noodles",
    "rice",
    "bread",
    "cheese",
    "sauce",
    "spicy",
    "sweet",
    "sour",
];

/// Advertisement templates bots cycle through (near-identical, long).
const BOT_TEMPLATES: &[&str] = &[
    "follow my channel for free skins giveaway every day click the link in my profile to win big prizes now",
    "best cheap game keys and skins at our store visit the link in bio use code WIN for ten percent off today",
    "join our discord server for daily giveaways free coaching and exclusive drops link in the description below right now",
];

/// The four message families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Ordinary chatter.
    Background,
    /// Highlight reaction.
    Hype,
    /// Advertisement bot spam.
    Bot,
    /// Conversation flare-up unrelated to gameplay.
    OffTopic,
}

/// The focus tokens of one reaction burst, as compiled fragment ids
/// (never materialized as strings on the hot path; see
/// [`focus_tokens`] for the diagnostic view).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FocusSet([u32; 4]);

/// The phrase pools compiled into one contiguous blob with per-class
/// sampling tables.
///
/// * `blob`/`spans` — every fragment of every pool interned once into a
///   single `String`; a fragment is a `(start, end)` byte span.
/// * class ranges — each message class samples uniformly from its span
///   range with one multiply-mapped 64-bit draw.
/// * `hype_mix` — the hype token-source mix as a cumulative-weight
///   table: one uniform roll walks `(cum_weight, class)` entries.
///
/// Writer methods append into a caller-owned buffer, so a generated
/// corpus performs zero text allocations after the buffer warms up.
#[derive(Debug)]
pub struct CompiledLexicon {
    blob: String,
    /// `(start, end)` byte spans into `blob`; every fragment is
    /// interned with one trailing space (`"word "`), so a message is
    /// written as N space-suffixed appends plus ONE final truncate —
    /// no per-word separator branch. `end` includes the space.
    spans: Vec<(u32, u32)>,
    emotes: Range<usize>,
    hype_common: Range<usize>,
    hype_dota2: Range<usize>,
    hype_lol: Range<usize>,
    background: Range<usize>,
    bot_templates: Range<usize>,
    /// Cumulative-weight rows for the hype token-source mix; the class
    /// range is resolved per game at sample time.
    hype_mix: [(f64, HypeSource); 3],
    /// Precomposed message pools (see [`MessagePool`]): sampled classes
    /// collapse to one draw + one copy. Bots are *exact* (all 9
    /// template×tag combinations, still uniform); the other pools are a
    /// large finite approximation of their fragment-product spaces.
    background_pool: MessagePool,
    offtopic_pool: MessagePool,
    hype_pool_dota2: MessagePool,
    hype_pool_lol: MessagePool,
    bot_pool: MessagePool,
}

/// Width of the fixed-size fragment copy in
/// [`CompiledLexicon::write_frag`]; covers every word/emote fragment
/// (longest: "divine rapier " at 14 bytes) with room to spare.
const FIXED_COPY: usize = 16;

/// Precomposed messages per sampled pool (background / off-topic /
/// hype). Large enough that two identical texts landing in one sliding
/// window is rare (<1% of windows at realistic chat rates), small
/// enough to stay cache-resident.
const POOL_SIZE: usize = 8192;

/// A pool of fully precomposed messages: sampling one message is a
/// single 64-bit draw plus one contiguous copy — the alias-table
/// endgame of build-once/sample-many text generation.
#[derive(Debug, Default)]
struct MessagePool {
    blob: String,
    spans: Vec<(u32, u32)>,
}

impl MessagePool {
    fn push(&mut self, write: impl FnOnce(&mut String)) {
        let s = self.blob.len() as u32;
        write(&mut self.blob);
        self.spans.push((s, self.blob.len() as u32));
    }

    #[inline]
    fn write_one<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut String) {
        let (s, e) = self.spans[uniform_index(rng, self.spans.len())];
        out.push_str(&self.blob[s as usize..e as usize]);
    }
}

/// Where one hype token is drawn from.
#[derive(Clone, Copy, Debug)]
enum HypeSource {
    Emote,
    Common,
    GameSpecific,
}

impl CompiledLexicon {
    /// The process-wide compiled lexicon (compiled once, shared by
    /// every generator).
    pub fn shared() -> &'static CompiledLexicon {
        static SHARED: OnceLock<CompiledLexicon> = OnceLock::new();
        SHARED.get_or_init(CompiledLexicon::compile)
    }

    fn compile() -> Self {
        let mut blob = String::new();
        let mut spans = Vec::new();
        let mut intern = |pool: &[&str]| -> Range<usize> {
            let start = spans.len();
            for frag in pool {
                let s = blob.len() as u32;
                blob.push_str(frag);
                blob.push(' ');
                spans.push((s, blob.len() as u32));
            }
            start..spans.len()
        };
        let emotes = intern(EMOTES);
        let hype_common = intern(HYPE_COMMON);
        let hype_dota2 = intern(HYPE_DOTA2);
        let hype_lol = intern(HYPE_LOL);
        let background = intern(BACKGROUND);
        let bot_templates = intern(BOT_TEMPLATES);
        // Tail padding so the fixed-width over-copy in `write_frag`
        // can always read `FIXED_COPY` bytes from a fragment start.
        for _ in 0..FIXED_COPY {
            blob.push(' ');
        }
        let mut lex = CompiledLexicon {
            blob,
            spans,
            emotes,
            hype_common,
            hype_dota2,
            hype_lol,
            background,
            bot_templates,
            // Mirrors the reference `hype`: roll < 0.20 → emote,
            // < 0.45 → common exclamation, else game-specific meme.
            hype_mix: [
                (0.20, HypeSource::Emote),
                (0.45, HypeSource::Common),
                (1.0, HypeSource::GameSpecific),
            ],
            background_pool: MessagePool::default(),
            offtopic_pool: MessagePool::default(),
            hype_pool_dota2: MessagePool::default(),
            hype_pool_lol: MessagePool::default(),
            bot_pool: MessagePool::default(),
        };

        // Precompose the sampled pools from the fragment writers with a
        // fixed internal seed: compiled once per process, every message
        // afterwards is one draw + one copy. Bots enumerate all nine
        // template×tag combinations — a uniform pick over them is
        // *exactly* the uniform-template × uniform-tag distribution.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut pool_rng = StdRng::seed_from_u64(0x1EC5_1C0A_u64);
        let mut bg = MessagePool::default();
        let mut off = MessagePool::default();
        for _ in 0..POOL_SIZE {
            bg.push(|out| lex.write_pool_words(&mut pool_rng, lex.background.clone(), 4..=14, out));
            off.push(|out| lex.write_pool_words(&mut pool_rng, lex.background.clone(), 2..=6, out));
        }
        let mut hype_d = MessagePool::default();
        let mut hype_l = MessagePool::default();
        for _ in 0..POOL_SIZE / 2 {
            hype_d.push(|out| lex.write_hype(&mut pool_rng, GameKind::Dota2, out));
            hype_l.push(|out| lex.write_hype(&mut pool_rng, GameKind::Lol, out));
        }
        let mut bots = MessagePool::default();
        for template in lex.bot_templates.clone() {
            for tag in 0..3u8 {
                bots.push(|out| {
                    out.push_str(lex.frag(template));
                    out.push_str(" code");
                    out.push((b'0' + tag) as char);
                });
            }
        }
        lex.background_pool = bg;
        lex.offtopic_pool = off;
        lex.hype_pool_dota2 = hype_d;
        lex.hype_pool_lol = hype_l;
        lex.bot_pool = bots;
        lex
    }

    /// Fragment text *without* the interned trailing space.
    fn frag(&self, id: usize) -> &str {
        let (s, e) = self.spans[id];
        &self.blob[s as usize..e as usize - 1]
    }

    fn specific(&self, game: GameKind) -> Range<usize> {
        match game {
            GameKind::Dota2 => self.hype_dota2.clone(),
            GameKind::Lol => self.hype_lol.clone(),
        }
    }

    /// One uniform fragment pick from a class range: one 64-bit draw
    /// mapped by multiply-shift (`⌊x·len / 2⁶⁴⌋`) — the branch- and
    /// division-free uniform index map. `gen_range`'s modulo costs a
    /// hardware divide per pick, and picks are the single hottest op in
    /// corpus generation (~10 per background message).
    fn pick<R: Rng + ?Sized>(&self, rng: &mut R, class: Range<usize>) -> usize {
        class.start + uniform_index(rng, class.len())
    }

    /// Append the space-suffixed fragment. Callers write a message as a
    /// run of these and then [`CompiledLexicon::trim_last_space`] once.
    ///
    /// Short fragments (every word/emote; bot templates excepted) are
    /// appended as one *fixed-width* copy then truncated to the real
    /// length: a compile-time-sized copy inlines to a couple of moves,
    /// where a variable-length `push_str` of a handful of bytes is a
    /// `memcpy` call. The over-read stays inside the padded blob and
    /// every pool byte is ASCII, so both the slice and the truncate
    /// stay on char boundaries.
    #[inline]
    fn write_frag(&self, id: usize, out: &mut String) {
        let (s, e) = self.spans[id];
        let (s, e) = (s as usize, e as usize);
        if e - s <= FIXED_COPY {
            let keep = out.len() + (e - s);
            out.push_str(&self.blob[s..s + FIXED_COPY]);
            out.truncate(keep);
        } else {
            out.push_str(&self.blob[s..e]);
        }
    }

    /// Drop the trailing separator the last [`write_frag`] appended.
    /// Safe unconditionally: every writer appends at least one
    /// fragment, and the separator is 1-byte ASCII.
    ///
    /// [`write_frag`]: CompiledLexicon::write_frag
    #[inline]
    fn trim_last_space(out: &mut String) {
        let n = out.len() - 1;
        debug_assert_eq!(out.as_bytes()[n], b' ');
        out.truncate(n);
    }

    /// Append one message of the given kind to `out` (the writer analog
    /// of [`generate`]; identical text for an identical RNG state).
    ///
    /// One 64-bit draw mapped onto the class's precomposed pool, one
    /// contiguous copy. The bot pool is exact; the sampled pools
    /// approximate their distribution with a finite table of
    /// precomposed messages.
    #[inline]
    pub fn write_message<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        kind: MessageKind,
        game: GameKind,
        out: &mut String,
    ) {
        let pool = match (kind, game) {
            (MessageKind::Background, _) => &self.background_pool,
            (MessageKind::OffTopic, _) => &self.offtopic_pool,
            (MessageKind::Bot, _) => &self.bot_pool,
            (MessageKind::Hype, GameKind::Dota2) => &self.hype_pool_dota2,
            (MessageKind::Hype, GameKind::Lol) => &self.hype_pool_lol,
        };
        pool.write_one(rng, out);
    }

    /// Background / off-topic body: `n` uniform picks from one pool
    /// (compile-time pool precompose only).
    fn write_pool_words<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pool: Range<usize>,
        n_range: std::ops::RangeInclusive<usize>,
        out: &mut String,
    ) {
        // Word count via the same multiply map as fragment picks (the
        // modulo in `gen_range` is a hardware divide).
        let (lo, hi) = (*n_range.start(), *n_range.end());
        let n = lo + uniform_index(rng, hi - lo + 1);
        for _ in 0..n {
            let id = self.pick(rng, pool.clone());
            self.write_frag(id, out);
        }
        Self::trim_last_space(out);
    }

    fn write_hype<R: Rng + ?Sized>(&self, rng: &mut R, game: GameKind, out: &mut String) {
        let n = rng.gen_range(1..=3);
        for _ in 0..n {
            let roll: f64 = rng.gen();
            let mut class = self.specific(game);
            for &(cum, source) in &self.hype_mix {
                if roll < cum {
                    class = match source {
                        HypeSource::Emote => self.emotes.clone(),
                        HypeSource::Common => self.hype_common.clone(),
                        HypeSource::GameSpecific => self.specific(game),
                    };
                    break;
                }
            }
            let id = self.pick(rng, class);
            self.write_frag(id, out);
            // Repetition: sometimes double the token.
            if rng.gen_bool(0.3) {
                self.write_frag(id, out);
            }
        }
        Self::trim_last_space(out);
    }

    /// Sample a burst's focus tokens: three game-specific picks plus
    /// one emote.
    pub fn sample_focus<R: Rng + ?Sized>(&self, rng: &mut R, game: GameKind) -> FocusSet {
        let specific = self.specific(game);
        FocusSet([
            self.pick(rng, specific.clone()) as u32,
            self.pick(rng, specific.clone()) as u32,
            self.pick(rng, specific) as u32,
            self.pick(rng, self.emotes.clone()) as u32,
        ])
    }

    /// Append one reaction-burst message concentrated on the `focus`
    /// tokens of [`Self::sample_focus`].
    pub fn write_hype_focused<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        focus: &FocusSet,
        out: &mut String,
    ) {
        let n = rng.gen_range(1..=3);
        for _ in 0..n {
            let id = if rng.gen_bool(0.85) {
                focus.0[rng.gen_range(0..focus.0.len())] as usize
            } else {
                // A stray generic exclamation.
                self.pick(rng, self.hype_common.clone())
            };
            self.write_frag(id, out);
            if rng.gen_bool(0.35) {
                self.write_frag(id, out);
            }
        }
        Self::trim_last_space(out);
    }
}

/// Generate one message of the given kind as an owned `String`.
///
/// Convenience wrapper over [`CompiledLexicon::write_message`] (same
/// draws, same bytes); the hot path writes into a caller-owned buffer
/// instead of allocating per message.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, kind: MessageKind, game: GameKind) -> String {
    let mut out = String::new();
    CompiledLexicon::shared().write_message(rng, kind, game, &mut out);
    out
}

/// The focus tokens of a [`FocusSet`], resolved to the interned text
/// (diagnostics/tests; the hot path never materializes them).
pub fn focus_tokens(focus: &FocusSet) -> Vec<&'static str> {
    let lex = CompiledLexicon::shared();
    focus.0.iter().map(|&id| lex.frag(id as usize)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightor_simkit::SeedTree;

    fn word_count(s: &str) -> usize {
        s.split_whitespace().count()
    }

    #[test]
    fn hype_is_short() {
        let mut rng = SeedTree::new(1).rng();
        let lens: Vec<f64> = (0..300)
            .map(|_| word_count(&generate(&mut rng, MessageKind::Hype, GameKind::Dota2)) as f64)
            .collect();
        // Individual messages can reach ~9 words (3 multi-word phrases,
        // doubled), but the *mean* must sit well below background's mean
        // of 9 — that contrast is the message-length feature.
        assert!(lens.iter().all(|&n| n <= 12.0));
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        assert!(mean < 5.5, "hype mean length {mean}");
    }

    #[test]
    fn bot_is_long() {
        let mut rng = SeedTree::new(2).rng();
        for _ in 0..50 {
            let m = generate(&mut rng, MessageKind::Bot, GameKind::Dota2);
            assert!(word_count(&m) >= 14, "bot too short: {m:?}");
        }
    }

    #[test]
    fn background_is_medium() {
        let mut rng = SeedTree::new(3).rng();
        for _ in 0..100 {
            let n = word_count(&generate(&mut rng, MessageKind::Background, GameKind::Lol));
            assert!((4..=14).contains(&n));
        }
    }

    #[test]
    fn offtopic_is_short_but_diverse() {
        let mut rng = SeedTree::new(4).rng();
        let msgs: Vec<String> = (0..100)
            .map(|_| generate(&mut rng, MessageKind::OffTopic, GameKind::Lol))
            .collect();
        assert!(msgs.iter().all(|m| word_count(m) <= 6));
        // Diversity: many distinct messages.
        let distinct: std::collections::HashSet<&String> = msgs.iter().collect();
        assert!(distinct.len() > 60, "only {} distinct", distinct.len());
    }

    #[test]
    fn bots_are_mutually_similar() {
        let mut rng = SeedTree::new(5).rng();
        let msgs: Vec<String> = (0..30)
            .map(|_| generate(&mut rng, MessageKind::Bot, GameKind::Dota2))
            .collect();
        // At most 3 templates x 3 tags = 9 distinct strings.
        let distinct: std::collections::HashSet<&String> = msgs.iter().collect();
        assert!(distinct.len() <= 9);
    }

    #[test]
    fn game_specific_hype_differs() {
        let mut rng = SeedTree::new(6).rng();
        let dota: String = (0..300)
            .map(|_| generate(&mut rng, MessageKind::Hype, GameKind::Dota2))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(dota.contains("rampage") || dota.contains("roshan") || dota.contains("aegis"));
        let lol: String = (0..300)
            .map(|_| generate(&mut rng, MessageKind::Hype, GameKind::Lol))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(lol.contains("pentakill") || lol.contains("baron") || lol.contains("ace"));
    }

    #[test]
    fn generate_dispatches() {
        let mut rng = SeedTree::new(7).rng();
        for kind in [
            MessageKind::Background,
            MessageKind::Hype,
            MessageKind::Bot,
            MessageKind::OffTopic,
        ] {
            let m = generate(&mut rng, kind, GameKind::Lol);
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn generate_wrapper_matches_writer_bytes() {
        // The owned-String wrapper and the buffer writer must be the
        // same sampler: same seed, same bytes, same RNG stream.
        let lex = CompiledLexicon::shared();
        for game in [GameKind::Dota2, GameKind::Lol] {
            let mut a = SeedTree::new(99).child("w").rng();
            let mut b = SeedTree::new(99).child("w").rng();
            let mut buf = String::new();
            for i in 0..400 {
                let kind = match i % 4 {
                    0 => MessageKind::Background,
                    1 => MessageKind::Hype,
                    2 => MessageKind::Bot,
                    _ => MessageKind::OffTopic,
                };
                let owned = generate(&mut a, kind, game);
                buf.clear();
                lex.write_message(&mut b, kind, game, &mut buf);
                assert_eq!(buf, owned, "{game} message {i} ({kind:?})");
            }
        }
    }

    #[test]
    fn focused_bursts_concentrate_on_focus_tokens() {
        let lex = CompiledLexicon::shared();
        let mut rng = SeedTree::new(123).rng();
        for game in [GameKind::Dota2, GameKind::Lol] {
            let focus = lex.sample_focus(&mut rng, game);
            let tokens = focus_tokens(&focus);
            assert_eq!(tokens.len(), 4);
            // Count how many burst messages contain at least one focus
            // token: with the 0.85 focus bias this must dominate.
            let mut buf = String::new();
            let mut hits = 0;
            for _ in 0..200 {
                buf.clear();
                lex.write_hype_focused(&mut rng, &focus, &mut buf);
                assert!(!buf.is_empty());
                if tokens.iter().any(|t| buf.contains(t)) {
                    hits += 1;
                }
            }
            assert!(hits >= 140, "{game}: only {hits}/200 messages on focus");
        }
    }

    #[test]
    fn compiled_lexicon_interns_every_pool() {
        let lex = CompiledLexicon::shared();
        let total = EMOTES.len()
            + HYPE_COMMON.len()
            + HYPE_DOTA2.len()
            + HYPE_LOL.len()
            + BACKGROUND.len()
            + BOT_TEMPLATES.len();
        assert_eq!(lex.spans.len(), total);
        // Spot-check blob integrity: first emote and last bot template.
        assert_eq!(lex.frag(lex.emotes.start), EMOTES[0]);
        assert_eq!(
            lex.frag(lex.bot_templates.end - 1),
            BOT_TEMPLATES[BOT_TEMPLATES.len() - 1]
        );
    }

    #[test]
    fn picks_cover_their_class_uniformly() {
        // The multiply-shift index map must reach every fragment of a
        // class and stay inside it.
        let lex = CompiledLexicon::shared();
        let mut rng = SeedTree::new(321).rng();
        let mut seen = vec![0u32; lex.spans.len()];
        for _ in 0..5000 {
            let id = lex.pick(&mut rng, lex.emotes.clone());
            assert!(lex.emotes.contains(&id));
            seen[id] += 1;
        }
        for id in lex.emotes.clone() {
            assert!(seen[id] > 0, "emote {id} never drawn");
        }
    }
}
