//! Tokenize-once chat corpus and the incremental window featurizer.
//!
//! The Highlight Initializer must featurize every sliding window of
//! every video. The naive path ([`WindowFeatures::compute`]) re-tokenizes
//! each message once per overlapping window and allocates a dense center
//! vector per window; at corpus scale that dominates the whole pipeline.
//! This module makes featurization incremental:
//!
//! * [`TokenizedChat`] — built **once** per chat log by one kernel
//!   ([`TokenizedChat::build_from_iter`]; [`TokenizedChat::build`] and
//!   [`TokenizedChat::build_from_view`] feed it): every message's
//!   sorted-unique token ids stored in one flat CSR column, cached word
//!   counts (returned by the tokenizer in the same pass, never
//!   re-split), and prefix sums over word counts. Index-aligned with
//!   `ChatLog::messages()`. A message's ids are assembled without a
//!   comparison sort in the common case: repeats are dropped by a
//!   per-id stamp as the ids arrive, and a message with at most 32
//!   distinct ids places each at its rank (simulated chat has at most
//!   23; a longer message is sorted).
//! * [`TokenizedChat::featurize_windows`] — slides over a sorted window
//!   list with two monotone message pointers, maintaining a sparse
//!   token-count window ([`LooWindow`]) by adding entering messages and
//!   removing leaving ones. `msg_num`/`msg_len` come from pointer
//!   arithmetic and prefix sums in O(1); `msg_sim` reuses the rolling
//!   counts; the message peak is computed from the same pass. The pass
//!   runs on the caller's thread: a video's windows cost a few hundred
//!   microseconds, less than fanning them out would, and the callers
//!   already run in parallel one level up (the request pool when
//!   serving, one task per video in training and the experiments).
//!
//! # Corpus-local term ids
//!
//! Each build interns into a fresh [`WordInterner`] (a raw-word table
//! in front of a fresh term table), so term ids are dense and local to
//! the corpus: `0..dim`, where `dim` is the corpus's
//! distinct-term count. A video's scoring memory (one count per term in
//! [`LooWindow`]) therefore depends only on its own chat, never on what
//! else the process has tokenized; live chat has an open vocabulary
//! (usernames, typos, new emotes), and nothing is shared or kept
//! between builds. The same term may get different ids in two corpora,
//! and nothing outside a corpus reads them: persisted ids (the store's
//! v3 records, [`TokenizedChat::from_columns`]) are only ever read back
//! as the corpus they were written from.
//!
//! Equivalence with the naive path is exact, not approximate: every
//! aggregate that depends on summation order is accumulated in integers
//! over term counts (see [`lightor_mlcore::kmeans`]), which also makes
//! the features invariant under any one-to-one id remapping. The
//! property tests in this module assert *bit-identical* features, and
//! `red_dots` output is unchanged whichever path scored the windows.

use crate::features::WindowFeatures;
use lightor_mlcore::text::WordInterner;
use lightor_mlcore::LooWindow;
use lightor_types::{ChatLog, ChatLogView, Sec, TimeRange};

/// A chat log tokenized exactly once, with the aggregates window
/// featurization needs.
#[derive(Clone, Debug, Default)]
pub struct TokenizedChat {
    /// Flat CSR token storage: every message's sorted-unique token ids
    /// concatenated; message `i` owns `token_ids[offsets[i]..offsets[i+1]]`.
    /// One allocation for the whole corpus instead of one `Vec` per
    /// message — the difference between a decode-bound cold load and a
    /// malloc-bound one.
    token_ids: Vec<u32>,
    /// Length `n + 1`, `offsets[0] == 0`, monotone non-decreasing.
    offsets: Vec<u32>,
    word_counts: Vec<u32>,
    /// Prefix sums of `word_counts`; `word_prefix[i]` = words in
    /// messages `0..i`. Length `n + 1`.
    word_prefix: Vec<u64>,
    /// Message timestamps (sorted, mirrors `ChatLog` order).
    ts: Vec<f64>,
    /// Dense term-space size: every vector index is `< dim`. A build
    /// sets it to the corpus's distinct-term count (ids are
    /// corpus-local, see the module docs). Feeds the rolling
    /// count-array size, under which features are invariant to any
    /// injective id remapping.
    dim: usize,
}

impl TokenizedChat {
    /// Tokenize and index a chat log (see
    /// [`TokenizedChat::build_from_iter`]).
    pub fn build(chat: &ChatLog) -> Self {
        Self::build_from_iter(
            chat.len(),
            chat.messages().iter().map(|m| (m.ts.0, m.text.as_str())),
        )
    }

    /// Tokenize straight out of a zero-copy [`ChatLogView`]. Message
    /// texts are borrowed from the view's shared buffer (see
    /// [`ChatLogView::ts_texts`]), skipping the per-message `String`
    /// materialization an owned [`ChatLog`] would cost.
    pub fn build_from_view(view: &ChatLogView) -> Self {
        Self::build_from_iter(view.len(), view.ts_texts())
    }

    /// The one build kernel: tokenize a `(timestamp, text)` stream in
    /// one pass. Each message is tokenized exactly once through a
    /// fresh corpus-local [`WordInterner`], which normalizes and
    /// interns each distinct raw word once and serves every repeat
    /// from one table lookup; the ids are those interning every token
    /// in a fresh [`Vocab`](lightor_mlcore::text::Vocab) would give.
    /// Its word count comes from the same pass.
    ///
    /// A message's binary bag-of-words vector is its distinct ids in
    /// increasing order. An id is kept the first time the message
    /// names it: a stamp per id, indexed by id and valid for this
    /// build, records the last message that kept it, so a repeat costs
    /// one load and compare. The kept ids then go straight to their
    /// place in the column: with at most 32 of them, each one's place
    /// is its rank, a branchless count of the smaller ids; more are
    /// sorted. Messages must arrive in non-decreasing timestamp order
    /// (both [`ChatLog`] and store-written views guarantee this).
    pub fn build_from_iter<S, I>(n_hint: usize, messages: I) -> Self
    where
        S: AsRef<str>,
        I: Iterator<Item = (f64, S)>,
    {
        let mut words = WordInterner::new();
        let mut token_ids = Vec::new();
        let mut offsets = Vec::with_capacity(n_hint + 1);
        let mut word_counts = Vec::with_capacity(n_hint);
        let mut word_prefix = Vec::with_capacity(n_hint + 1);
        let mut ts = Vec::with_capacity(n_hint);
        let mut idx: Vec<u32> = Vec::new();
        // `kept_by[id] == stamp` when this message already kept `id`.
        let mut kept_by: Vec<usize> = Vec::new();
        word_prefix.push(0u64);
        offsets.push(0u32);
        for (message, (t, text)) in messages.enumerate() {
            let stamp = message + 1;
            idx.clear();
            let wc = words.for_each_id(text.as_ref(), |id| {
                let i = id as usize;
                if i >= kept_by.len() {
                    kept_by.resize(i + 1, 0);
                }
                if kept_by[i] != stamp {
                    kept_by[i] = stamp;
                    idx.push(id);
                }
            }) as u32;
            extend_sorted(&mut token_ids, &idx);
            offsets.push(token_ids.len() as u32);
            word_counts.push(wc);
            word_prefix.push(word_prefix.last().unwrap() + u64::from(wc));
            debug_assert!(
                ts.last().is_none_or(|&prev| prev <= t),
                "messages must be timestamp-sorted"
            );
            ts.push(t);
        }
        TokenizedChat {
            token_ids,
            offsets,
            word_counts,
            word_prefix,
            ts,
            dim: words.len(),
        }
    }

    /// Reassemble a corpus from persisted columns (the v3 tokenized
    /// record decode path). `token_offsets` is the cumulative end of
    /// each message's sorted-unique token ids inside `token_ids`
    /// (length `n`); timestamps come from the paired chat view. The
    /// decoded id column is taken by value and kept as the corpus's
    /// own, so a load copies it once, in the decode.
    /// Returns `None` when the columns are mutually inconsistent, when
    /// any id is `>= dim`, or when a message's ids are not strictly
    /// increasing (the writer persists sorted-unique ids, so anything
    /// else is corruption — callers fall back to re-tokenizing).
    pub fn from_columns(
        ts: Vec<f64>,
        word_counts: Vec<u32>,
        token_offsets: &[u32],
        token_ids: Vec<u32>,
        dim: usize,
    ) -> Option<Self> {
        let n = ts.len();
        if word_counts.len() != n || token_offsets.len() != n {
            return None;
        }
        if n > 0 && *token_offsets.last().unwrap() as usize != token_ids.len() {
            return None;
        }
        if n == 0 && !token_ids.is_empty() {
            return None;
        }
        if token_ids.iter().max().is_some_and(|&id| id as usize >= dim) {
            return None;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut start = 0usize;
        for &end in token_offsets {
            let end = end as usize;
            if end < start || end > token_ids.len() {
                return None;
            }
            if token_ids[start..end].windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            offsets.push(end as u32);
            start = end;
        }
        let mut word_prefix = Vec::with_capacity(n + 1);
        word_prefix.push(0u64);
        for &wc in &word_counts {
            word_prefix.push(word_prefix.last().unwrap() + u64::from(wc));
        }
        Some(TokenizedChat {
            token_ids,
            offsets,
            word_counts,
            word_prefix,
            ts,
            dim,
        })
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        // `Default` leaves `offsets` empty (no leading 0 sentinel).
        self.offsets.len().saturating_sub(1)
    }

    /// True when the corpus holds no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense term-space size (every vector index is `< dim`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Message `i`'s sorted-unique token ids, index-aligned with
    /// `ChatLog::messages()`.
    pub fn vector(&self, i: usize) -> &[u32] {
        &self.token_ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The flat token-id column: every message's ids concatenated.
    /// Together with [`TokenizedChat::token_ends`], this is exactly the
    /// v3 on-disk layout — persisting a corpus is two bulk copies.
    pub fn token_ids(&self) -> &[u32] {
        &self.token_ids
    }

    /// Cumulative end of each message's span inside
    /// [`TokenizedChat::token_ids`] (length `len()`).
    pub fn token_ends(&self) -> &[u32] {
        &self.offsets[1..]
    }

    /// Message timestamps, index-aligned with `ChatLog::messages()`.
    pub fn timestamps(&self) -> &[f64] {
        &self.ts
    }

    /// Cached per-message word counts.
    pub fn word_counts(&self) -> &[u32] {
        &self.word_counts
    }

    /// Message index range `[lo, hi)` covered by a closed time range
    /// (same inclusive-endpoints semantics as [`ChatLog::slice`]).
    pub fn msg_range(&self, range: TimeRange) -> (usize, usize) {
        let lo = self.ts.partition_point(|&t| t < range.start.0);
        let hi = self.ts.partition_point(|&t| t <= range.end.0);
        (lo, hi)
    }

    /// Total words in messages `lo..hi` — O(1) via prefix sums.
    pub fn words_in(&self, lo: usize, hi: usize) -> u64 {
        self.word_prefix[hi] - self.word_prefix[lo]
    }

    /// Featurize every window (and locate its message peak) with one
    /// incremental rolling pass on the caller's thread. Output is
    /// index-aligned with `windows`.
    ///
    /// `peak_bin` is the histogram bin width used for peak location
    /// (see [`crate::initializer::window_peak`]).
    pub fn featurize_windows(&self, windows: &[TimeRange], peak_bin: f64) -> Vec<FeaturizedWindow> {
        let mut roll = RollingWindow::new(self);
        let mut peak_bins: Vec<u32> = Vec::new();
        windows
            .iter()
            .map(|&range| {
                let (lo, hi) = self.msg_range(range);
                roll.slide_to(lo, hi);
                FeaturizedWindow {
                    range,
                    features: roll.features(),
                    peak: self.peak_in(range, lo, hi, peak_bin, &mut peak_bins),
                }
            })
            .collect()
    }

    /// Message-count peak inside `range` for messages `lo..hi`,
    /// mirroring the `Histogram`-based [`crate::initializer::window_peak`]
    /// arithmetic exactly, but reusing `bins` as scratch (no per-window
    /// allocation).
    fn peak_in(
        &self,
        range: TimeRange,
        lo: usize,
        hi: usize,
        bin: f64,
        bins: &mut Vec<u32>,
    ) -> Sec {
        if lo == hi {
            return range.midpoint();
        }
        let (start, end) = (range.start.0, range.end.0);
        // Same domain construction as Histogram::with_bin_width: the
        // last bin may extend past `end`.
        let n_bins = (((end - start) / bin).ceil() as usize).max(1);
        let hist_hi = start + n_bins as f64 * bin;
        let width = (hist_hi - start) / n_bins as f64;
        bins.clear();
        bins.resize(n_bins, 0);
        for &t in &self.ts[lo..hi] {
            if t.is_finite() && t >= start && t <= hist_hi {
                let idx = (((t - start) / width) as usize).min(n_bins - 1);
                bins[idx] += 1;
            }
        }
        // Histogram::peak_bin keeps the *last* bin on ties (iterator
        // `max_by` semantics); `>=` reproduces that.
        let mut best: Option<(usize, u32)> = None;
        for (i, &c) in bins.iter().enumerate() {
            if best.is_none_or(|(_, bc)| c >= bc) {
                best = Some((i, c));
            }
        }
        match best {
            Some((i, c)) if c > 0 => Sec((start + (i as f64 + 0.5) * width).clamp(start, end)),
            _ => range.midpoint(),
        }
    }
}

/// Messages with at most this many distinct ids are placed by rank.
/// Placing k ids costs k² compares, so longer messages are sorted.
/// On a 2-vCPU Xeon, on messages of k distinct ids in random order,
/// rank placement takes 0.46–0.9x the time of `sort_unstable` for k in
/// 8..=32 except 1.1x at k = 28, and 1.06–1.5x for k ≥ 40. Simulated
/// chat has at most 23 distinct ids in a message; on the four bench
/// videos the whole build takes 0.87–0.91x its time with a sort in
/// place of the ranks.
const RANK_MAX: usize = 32;

/// Append the distinct `ids` to `out` in increasing order: each id at
/// its rank, the number of smaller ids, or by a sort past
/// [`RANK_MAX`].
fn extend_sorted(out: &mut Vec<u32>, ids: &[u32]) {
    let start = out.len();
    if ids.len() > RANK_MAX {
        out.extend_from_slice(ids);
        out[start..].sort_unstable();
        return;
    }
    out.resize(start + ids.len(), 0);
    let placed = &mut out[start..];
    for &id in ids {
        let rank: u32 = ids.iter().map(|&other| u32::from(other < id)).sum();
        placed[rank as usize] = id;
    }
}

/// One featurized sliding window: features plus the message peak found
/// in the same rolling pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeaturizedWindow {
    /// The window interval.
    pub range: TimeRange,
    /// Raw (unscaled) window features.
    pub features: WindowFeatures,
    /// Message-count peak position inside the window.
    pub peak: Sec,
}

/// The sparse rolling state: current message span `[lo, hi)` plus the
/// incremental token counts feeding the leave-one-out similarity.
struct RollingWindow<'a> {
    corpus: &'a TokenizedChat,
    loo: LooWindow,
    lo: usize,
    hi: usize,
}

impl<'a> RollingWindow<'a> {
    fn new(corpus: &'a TokenizedChat) -> Self {
        RollingWindow {
            corpus,
            loo: LooWindow::new(corpus.dim),
            lo: 0,
            hi: 0,
        }
    }

    /// Move the window to `[lo, hi)`, incrementally adding entering
    /// messages and removing leaving ones. Handles arbitrary movement
    /// (both directions), amortized O(messages touched).
    fn slide_to(&mut self, lo: usize, hi: usize) {
        // Disjoint jump: drop everything, rebuild from empty — cheaper
        // than walking out and back in.
        if lo >= self.hi || hi <= self.lo {
            for i in self.lo..self.hi {
                self.loo.remove_ids(self.corpus.vector(i));
            }
            self.lo = lo;
            self.hi = lo;
        }
        while self.lo > lo {
            self.lo -= 1;
            self.loo.add_ids(self.corpus.vector(self.lo));
        }
        while self.lo < lo {
            self.loo.remove_ids(self.corpus.vector(self.lo));
            self.lo += 1;
        }
        while self.hi > hi {
            self.hi -= 1;
            self.loo.remove_ids(self.corpus.vector(self.hi));
        }
        while self.hi < hi {
            self.loo.add_ids(self.corpus.vector(self.hi));
            self.hi += 1;
        }
    }

    /// Features of the current window — `msg_num` from the span width,
    /// `msg_len` from prefix sums, `msg_sim` from the rolling counts.
    fn features(&self) -> WindowFeatures {
        let n = self.hi - self.lo;
        if n == 0 {
            return WindowFeatures::default();
        }
        let words = self.corpus.words_in(self.lo, self.hi);
        let msg_sim = self
            .loo
            .mean_loo_ids((self.lo..self.hi).map(|i| self.corpus.vector(i)));
        WindowFeatures {
            msg_num: n as f64,
            msg_len: words as f64 / n as f64,
            msg_sim,
        }
    }
}

/// An empty stand-in for the process-wide vocabulary that corpus builds
/// no longer use. It exists only for the in-process replay of the
/// standalone `loadbench` package, which still calls
/// [`TokenizedChat::build_from_view_global`], and goes with the next
/// change to that benchmark. Nothing else should name it.
#[derive(Clone, Copy, Debug, Default)]
pub struct GlobalVocab;

impl GlobalVocab {
    /// The stand-in value (see the type docs).
    pub fn new() -> Self {
        GlobalVocab
    }
}

impl TokenizedChat {
    /// [`TokenizedChat::build_from_view`] under its former name, kept
    /// only for `loadbench`'s replay (see [`GlobalVocab`]).
    pub fn build_from_view_global(view: &ChatLogView, _vocab: &GlobalVocab) -> (Self, ()) {
        (Self::build_from_view(view), ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initializer::window_peak;
    use crate::window::sliding_windows;
    use lightor_mlcore::text::Tokenizer;
    use lightor_types::{ChatMessage, UserId};
    use proptest::prelude::*;

    #[test]
    fn build_from_view_matches_build() {
        let c = chat(&[
            (1.0, "gg wp"),
            (2.5, "what a play"),
            (2.5, ""),
            (9.0, "消息 ✓ pog"),
        ]);
        let view = ChatLogView::from_chat_log(&c);
        let from_log = TokenizedChat::build(&c);
        let from_view = TokenizedChat::build_from_view(&view);
        assert_eq!(from_view.len(), from_log.len());
        assert_eq!(from_view.timestamps(), from_log.timestamps());
        assert_eq!(from_view.word_counts(), from_log.word_counts());
        assert_eq!(from_view.token_ids(), from_log.token_ids());
        assert_eq!(from_view.token_ends(), from_log.token_ends());
        assert_eq!(from_view.dim(), from_log.dim());
    }

    /// Assert the view build equals the per-message lossy decode
    /// (`ChatLogView::text` for every message) column for column and
    /// feature for feature.
    fn check_view_builds_match_lossy_reference(view: &ChatLogView) {
        let reference = TokenizedChat::build_from_iter(
            view.len(),
            (0..view.len()).map(|i| (view.ts(i).0, view.text(i))),
        );
        let windows =
            crate::window::sliding_windows_from_ts(reference.timestamps(), Sec(60.0), 8.0, 0.5);
        let expected = reference.featurize_windows(&windows, 5.0);
        let built = TokenizedChat::build_from_view(view);
        assert_eq!(built.timestamps(), reference.timestamps());
        assert_eq!(built.word_counts(), reference.word_counts());
        assert_eq!(built.token_ids(), reference.token_ids());
        assert_eq!(built.token_ends(), reference.token_ends());
        assert_eq!(built.dim(), reference.dim());
        assert_eq!(built.featurize_windows(&windows, 5.0), expected);
    }

    #[test]
    fn view_builds_decode_multibyte_text_like_the_reference() {
        let c = chat(&[
            (1.0, "Straße ＡＢＣ gg"),
            (2.0, "消息 ✓ pog 消息"),
            (2.0, "İ\u{85}ß\u{A0}e\u{301}"),
            (7.5, "\u{1F600} pog ǅ"),
            (9.0, ""),
            (12.0, "ＡＢＣ straße"),
        ]);
        let view = ChatLogView::from_chat_log(&c);
        assert!(std::str::from_utf8(view.text_section()).is_ok());
        check_view_builds_match_lossy_reference(&view);
    }

    #[test]
    fn view_builds_decode_invalid_utf8_like_the_reference() {
        let c = chat(&[
            (1.0, "gg wp"),
            (2.0, "消息 pog"),
            (4.0, "kill kill"),
            (9.0, "what a play"),
        ]);
        let view = ChatLogView::from_chat_log(&c);
        let mut raw = view.buffer().to_vec();
        let text_off = raw.len() - view.text_section().len();
        // A stray byte in the first message, and the lead byte of the
        // second message's "消" overwritten so its tail bytes dangle.
        raw[text_off + 2] = 0xFF;
        raw[text_off + 5] = b'x';
        let layout = lightor_types::ColumnarLayout {
            n: view.len(),
            ts_off: 0,
            user_off: 8 * view.len(),
            ends_off: 16 * view.len(),
            text_off,
            text_len: view.text_section().len(),
        };
        let corrupt = ChatLogView::new(raw.into(), layout).unwrap();
        assert!(std::str::from_utf8(corrupt.text_section()).is_err());
        assert!(corrupt.text(0).contains('\u{FFFD}'));
        assert!(corrupt.text(1).contains('\u{FFFD}'));
        check_view_builds_match_lossy_reference(&corrupt);
    }

    fn chat(messages: &[(f64, &str)]) -> ChatLog {
        ChatLog::new(
            messages
                .iter()
                .map(|&(t, s)| ChatMessage::new(t, UserId(1), s))
                .collect(),
        )
    }

    fn naive_features(chat: &ChatLog, w: TimeRange) -> WindowFeatures {
        WindowFeatures::compute(chat.slice(w))
    }

    #[test]
    fn from_columns_takes_a_builds_columns_and_rejects_inconsistent_ones() {
        let c = chat(&[(1.0, "gg wp gg"), (2.0, ""), (3.0, "kill gg")]);
        let built = TokenizedChat::build(&c);
        let load = |ends: &[u32], ids: Vec<u32>, dim: usize| {
            TokenizedChat::from_columns(
                built.timestamps().to_vec(),
                built.word_counts().to_vec(),
                ends,
                ids,
                dim,
            )
        };
        let loaded = load(built.token_ends(), built.token_ids().to_vec(), built.dim()).unwrap();
        assert_eq!(loaded.token_ids(), built.token_ids());
        assert_eq!(loaded.token_ends(), built.token_ends());
        assert_eq!(loaded.words_in(0, 3), built.words_in(0, 3));
        // ids [0 1] [] [0 2], dim 3.
        assert_eq!(built.token_ids(), &[0, 1, 0, 2]);
        assert!(load(&[2, 2, 4], vec![0, 1, 0, 2], 2).is_none(), "id >= dim");
        assert!(
            load(&[2, 2, 4], vec![1, 0, 0, 2], 3).is_none(),
            "not increasing"
        );
        assert!(
            load(&[2, 2, 4], vec![0, 0, 0, 2], 3).is_none(),
            "duplicate id"
        );
        assert!(
            load(&[2, 1, 4], vec![0, 1, 0, 2], 3).is_none(),
            "ends go back"
        );
        assert!(
            load(&[2, 2, 5], vec![0, 1, 0, 2], 3).is_none(),
            "ends past ids"
        );
        assert!(
            load(&[2, 4], vec![0, 1, 0, 2], 3).is_none(),
            "one end short"
        );
    }

    #[test]
    fn corpus_indexes_align_with_chat() {
        let c = chat(&[(1.0, "gg wp"), (2.0, "kill"), (30.0, "what a play")]);
        let tc = TokenizedChat::build(&c);
        assert_eq!(tc.len(), 3);
        assert_eq!(tc.word_counts(), &[2, 1, 3]);
        assert_eq!(tc.words_in(0, 3), 6);
        assert_eq!(tc.words_in(1, 2), 1);
        assert_eq!(tc.msg_range(TimeRange::from_secs(0.0, 2.0)), (0, 2));
        assert_eq!(tc.msg_range(TimeRange::from_secs(2.0, 40.0)), (1, 3));
        assert_eq!(tc.dim(), 6); // gg wp kill what a play
    }

    #[test]
    fn features_match_naive_on_fixed_windows() {
        let c = chat(&[
            (1.0, "kill kill"),
            (2.0, "kill"),
            (3.0, "kill wow"),
            (10.0, "anyone know the song"),
            (11.0, "pizza time"),
            (26.0, "gg"),
        ]);
        let tc = TokenizedChat::build(&c);
        let windows = [
            TimeRange::from_secs(0.0, 5.0),
            TimeRange::from_secs(5.0, 15.0),
            TimeRange::from_secs(15.0, 25.0), // empty
            TimeRange::from_secs(25.0, 30.0), // single message
        ];
        let fast = tc.featurize_windows(&windows, 5.0);
        for (f, w) in fast.iter().zip(&windows) {
            assert_eq!(f.features, naive_features(&c, *w), "window {w}");
            assert_eq!(f.peak, window_peak(&c, *w, 5.0), "peak {w}");
        }
    }

    #[test]
    fn rolling_handles_backward_and_disjoint_motion() {
        let c = chat(&[
            (1.0, "a b"),
            (2.0, "b c"),
            (3.0, "c d"),
            (4.0, "d e"),
            (50.0, "x y z"),
        ]);
        let tc = TokenizedChat::build(&c);
        // Deliberately unsorted window sequence: forward, backward,
        // disjoint jump.
        let windows = [
            TimeRange::from_secs(1.0, 3.0),
            TimeRange::from_secs(0.0, 4.0),
            TimeRange::from_secs(2.0, 3.0),
            TimeRange::from_secs(45.0, 55.0),
            TimeRange::from_secs(0.0, 60.0),
        ];
        let fast = tc.featurize_windows(&windows, 5.0);
        for (f, w) in fast.iter().zip(&windows) {
            assert_eq!(f.features, naive_features(&c, *w), "window {w}");
        }
    }

    proptest! {
        #[test]
        fn incremental_equals_naive_on_random_logs(
            times in proptest::collection::vec(0.0..300.0f64, 0..120),
            seed in 0u64..1000,
        ) {
            // Random messages built from a tiny token pool so windows
            // share vocabulary (the interesting case for msg_sim).
            let pool = ["gg", "kill", "wow", "nice", "play", "pog", "lol"];
            let texts: Vec<String> = times
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    let k = 1 + ((seed as usize + i * 7) % 4);
                    (0..k)
                        .map(|j| pool[(i * 3 + j * 5 + seed as usize) % pool.len()])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let c = ChatLog::new(
                times
                    .iter()
                    .zip(&texts)
                    .map(|(&t, s)| ChatMessage::new(t, UserId(1), s.as_str()))
                    .collect(),
            );
            let tc = TokenizedChat::build(&c);
            let windows = sliding_windows(&c, lightor_types::Sec(300.0), 25.0, 0.5);
            let fast = tc.featurize_windows(&windows, 5.0);
            prop_assert_eq!(fast.len(), windows.len());
            for (f, w) in fast.iter().zip(&windows) {
                let naive = naive_features(&c, *w);
                // Integer accumulation makes the match exact, not just
                // within 1e-9.
                prop_assert_eq!(f.features, naive, "window {}", w);
                prop_assert_eq!(f.peak, window_peak(&c, *w, 5.0), "peak {}", w);
            }
        }
    }

    /// The build kernel before the raw-word table: every token through
    /// `for_each_token` and `Vocab::intern`, then sort and dedup. The
    /// oracle the kernel must match column for column.
    fn per_token_reference(texts: &[String]) -> (Vec<u32>, Vec<u32>, Vec<u32>, usize) {
        use lightor_mlcore::text::Vocab;
        let mut vocab = Vocab::new();
        let (mut ids, mut ends, mut words) = (Vec::new(), Vec::new(), Vec::new());
        let mut idx: Vec<u32> = Vec::new();
        for text in texts {
            idx.clear();
            let n = Tokenizer.for_each_token(text, |tok| idx.push(vocab.intern(tok)));
            idx.sort_unstable();
            idx.dedup();
            ids.extend_from_slice(&idx);
            ends.push(ids.len() as u32);
            words.push(n as u32);
        }
        (ids, ends, words, vocab.len())
    }

    /// Assert the kernel's columns equal the per-token reference's on
    /// `texts`, and that its windows featurize bit-identically to a
    /// corpus assembled from the reference's columns.
    fn check_kernel_against_the_per_token_reference(texts: &[String]) {
        let ts: Vec<f64> = (0..texts.len()).map(|i| i as f64).collect();
        let built = TokenizedChat::build_from_iter(
            texts.len(),
            ts.iter().zip(texts).map(|(&t, s)| (t, s.as_str())),
        );
        let (ids, ends, words, dim) = per_token_reference(texts);
        assert_eq!(built.token_ids(), &ids[..]);
        assert_eq!(built.token_ends(), &ends[..]);
        assert_eq!(built.word_counts(), &words[..]);
        assert_eq!(built.dim(), dim);
        let reference = TokenizedChat::from_columns(ts, words, &ends, ids, dim)
            .expect("the reference columns are consistent");
        let windows =
            crate::window::sliding_windows_from_ts(reference.timestamps(), Sec(12.0), 4.0, 0.5);
        assert_eq!(
            built.featurize_windows(&windows, 2.0),
            reference.featurize_windows(&windows, 2.0)
        );
    }

    proptest! {
        /// The kernel against the per-token reference on chat whose
        /// words repeat within and across messages, run past 16 bytes,
        /// normalize to nothing, are non-ASCII, and are split by
        /// Unicode whitespace; on messages whose words are all distinct;
        /// and on messages of up to 48 words drawn from a pool of a few
        /// thousand, so a message can take more than 32 ids, most of
        /// them first named by earlier messages in another order.
        #[test]
        fn kernel_columns_equal_the_per_token_reference(
            picks in proptest::collection::vec(
                (0u32..4, proptest::collection::vec((0usize..14, 0u32..300), 0..48)),
                0..40,
            ),
        ) {
            const WORDS: [&str; 14] = [
                "gg", "GG", "gg!!", "PogChamp", "<3", ":-)", "!!!",
                "supercalifragilistic", "SUPERCALIFRAGILISTIC?", "ＡＢＣＤＥＦＧ",
                "Straße", "İstanbul", "\u{85}", "\u{3000}",
            ];
            // Mode 0 repeats the fixed words, mode 1 makes every word
            // new to the corpus, mode 2 draws every word from the pool,
            // and mode 3 alternates fixed and pool words.
            let mut fresh = 0u32;
            let mut word = |mode: u32, j: usize, (w, r): (usize, u32)| match mode {
                0 => WORDS[w].to_owned(),
                1 => {
                    fresh += 1;
                    format!("{}x{fresh}", WORDS[w])
                }
                _ if mode == 3 && j.is_multiple_of(2) => WORDS[w].to_owned(),
                _ => format!("{}y{r}", WORDS[w]),
            };
            let texts: Vec<String> = picks
                .iter()
                .map(|(mode, words)| {
                    let words: Vec<String> = words
                        .iter()
                        .enumerate()
                        .map(|(j, &pick)| word(*mode, j, pick))
                        .collect();
                    words.join(" ")
                })
                .collect();
            check_kernel_against_the_per_token_reference(&texts);
        }
    }

    proptest! {
        /// The view build (the one the service scores with) against the
        /// naive per-window path on arbitrary unicode chat: identical
        /// word counts, a `dim` equal to the chat's distinct-term count,
        /// and bit-identical features and peaks in every window.
        #[test]
        fn view_build_features_bit_equal_naive_on_unicode(
            texts in proptest::collection::vec("\\PC{0,24}", 0..40),
        ) {
            let msgs: Vec<(f64, &str)> =
                texts.iter().enumerate().map(|(i, s)| (i as f64, s.as_str())).collect();
            let c = chat(&msgs);
            let tc = TokenizedChat::build_from_view(&ChatLogView::from_chat_log(&c));

            prop_assert_eq!(tc.len(), c.len());
            for (i, m) in c.messages().iter().enumerate() {
                prop_assert_eq!(tc.word_counts()[i] as usize, m.word_count());
            }
            let distinct: std::collections::HashSet<String> = texts
                .iter()
                .flat_map(|t| Tokenizer.tokenize(t))
                .collect();
            prop_assert_eq!(tc.dim(), distinct.len());

            let windows = sliding_windows(&c, Sec(40.0), 8.0, 0.5);
            let fast = tc.featurize_windows(&windows, 5.0);
            for (f, w) in fast.iter().zip(&windows) {
                prop_assert_eq!(f.features, naive_features(&c, *w), "window {}", w);
                prop_assert_eq!(f.peak, window_peak(&c, *w, 5.0), "peak {}", w);
            }
        }
    }
}
