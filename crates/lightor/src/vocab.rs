//! Shared interned vocabulary for tokenize-once corpus construction.
//!
//! [`crate::corpus::TokenizedChat`]'s original build interns each
//! video's messages into a *per-corpus* [`lightor_mlcore::text::Vocab`]:
//! correct, but every cold rescore re-tokenizes the raw text from
//! scratch and every video pays the full hashing cost even for terms
//! the process has seen thousands of times. This module provides the
//! process-wide alternative:
//!
//! * [`GlobalVocab`] — an append-only, `Arc`-shareable term table with
//!   **stable u32 ids**: once a term is interned its id never changes
//!   for the lifetime of the process. Corpus builds intern through a
//!   [`VocabSession`] (one write-lock acquisition per corpus, not per
//!   token) and receive a [`VocabDelta`] naming exactly the terms that
//!   corpus added — the unit persisted next to tokenized columns so a
//!   restarted process can re-warm its vocabulary.
//! * [`FragmentTable`] — pre-tokenized fragments for generated chat:
//!   each fragment of a `CompiledLexicon`-style blob maps to its global
//!   token ids and whitespace word count once (both from one tokenizer
//!   pass), so a simulated corpus tokenizes by table lookup instead of
//!   re-splitting message text.
//!
//! Scoring stays bit-exact under the id change: every feature
//! aggregate is accumulated in integers over term *counts* (see
//! [`lightor_mlcore::kmeans::LooWindow`]), which makes the features
//! invariant under any injective term-id remapping as long as the
//! dense count array covers the largest id. The proptests in this
//! module pin that equivalence on arbitrary unicode chat.
//!
//! Hash and lock: the table is a [`Vocab`], which hashes terms with a
//! keyed folded-multiply hash under a random per-process key (chat
//! text is outside input) but assigns ids in first-seen order. Two
//! processes fed the same token stream therefore assign the same ids,
//! whatever their keys. Every build takes the table's write lock once
//! for its whole run (see [`GlobalVocab::session`]).
//!
//! Persistence note: a [`VocabDelta`] records terms in *id order*, so
//! replaying deltas in write order reconstructs the exact table. After
//! a crash-and-restart the store may replay deltas in a different
//! order than the original process interned them (videos are touched
//! on demand); ids may therefore differ across process lifetimes.
//! That is by design — persisted token ids are self-consistent within
//! their record (scoring needs only intra-corpus consistency plus
//! `dim`), and absorbing deltas is purely a warm-up for *future*
//! builds.

use lightor_mlcore::text::{Tokenizer, Vocab};
use std::sync::{RwLock, RwLockWriteGuard};

/// A process-wide append-only term table with stable u32 ids.
///
/// Cheap to share (`Arc<GlobalVocab>`). The table is a [`Vocab`] — the
/// same keyed-hash interner a per-corpus build uses, so ids are
/// assigned in first-seen order whatever the process's hash key is —
/// behind one [`RwLock`]. Readers share the lock; interning goes
/// through [`GlobalVocab::session`], so a whole corpus build takes the
/// write lock once, not once per token, and concurrent builds
/// serialize on it.
#[derive(Debug, Default)]
pub struct GlobalVocab {
    inner: RwLock<Vocab>,
}

impl GlobalVocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        GlobalVocab::default()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.inner.read().expect("vocab lock poisoned").len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a term's id without interning.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.inner.read().expect("vocab lock poisoned").get(token)
    }

    /// The interned spelling of `id`, if assigned.
    pub fn term(&self, id: u32) -> Option<String> {
        self.inner
            .read()
            .expect("vocab lock poisoned")
            .term(id)
            .map(str::to_owned)
    }

    /// Begin an interning session: takes the write lock once and holds
    /// it until the session is dropped or [`VocabSession::finish`]ed.
    /// Use one session per corpus build.
    pub fn session(&self) -> VocabSession<'_> {
        let guard = self.inner.write().expect("vocab lock poisoned");
        let base = guard.len() as u32;
        VocabSession { guard, base }
    }

    /// Intern every term of a persisted [`VocabDelta`] (or any term
    /// list), warming the table for future builds. Returns how many
    /// terms were actually new. Ids are assigned in current-table
    /// order and may differ from the ids the delta's writer saw — see
    /// the module docs for why that is sound.
    pub fn absorb<S: AsRef<str>>(&self, terms: &[S]) -> usize {
        let mut inner = self.inner.write().expect("vocab lock poisoned");
        let before = inner.len();
        for t in terms {
            inner.intern(t.as_ref());
        }
        inner.len() - before
    }
}

/// A single-writer interning window over a [`GlobalVocab`].
///
/// Holds the vocabulary write lock for its lifetime; keep sessions
/// short (one corpus build) and never hold one across another lock
/// acquisition.
pub struct VocabSession<'a> {
    guard: RwLockWriteGuard<'a, Vocab>,
    /// Table length when the session opened — the delta base.
    base: u32,
}

impl VocabSession<'_> {
    /// Get or assign the id of `token`.
    pub fn intern(&mut self, token: &str) -> u32 {
        self.guard.intern(token)
    }

    /// Tokenize `text` with the standard [`Tokenizer`], append the
    /// (unsorted, possibly repeated) term ids to `out`, and return the
    /// text's whitespace word count (counted by the tokenizer in the
    /// same pass).
    pub fn tokenize_into(&mut self, text: &str, out: &mut Vec<u32>) -> usize {
        let vocab = &mut *self.guard;
        Tokenizer.for_each_token(text, |tok| {
            out.push(vocab.intern(tok));
        })
    }

    /// Current table length (terms interned so far, globally).
    pub fn len(&self) -> usize {
        self.guard.len()
    }

    /// True when no term has ever been interned into the table.
    pub fn is_empty(&self) -> bool {
        self.guard.is_empty()
    }

    /// Close the session, returning the terms it added (in id order)
    /// as a persistable [`VocabDelta`].
    pub fn finish(self) -> VocabDelta {
        let end = self.guard.len() as u32;
        VocabDelta {
            base: self.base,
            terms: (self.base..end)
                .map(|id| self.guard.term(id).expect("id below len").to_owned())
                .collect(),
        }
    }
}

/// The terms one interning session appended to a [`GlobalVocab`]:
/// `terms[i]` received id `base + i`. This is the unit persisted in a
/// v3 tokenized record so a fresh process can re-warm its vocabulary
/// from the store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VocabDelta {
    /// First id this session assigned.
    pub base: u32,
    /// Newly interned terms, in id order.
    pub terms: Vec<String>,
}

impl VocabDelta {
    /// True when the session interned nothing new.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Pre-tokenized fragments: each fragment's global token ids and
/// whitespace word count, computed once per (lexicon, vocab) pair.
///
/// Generated chat composes messages by concatenating fragments from an
/// interned blob (each fragment ends the message or is followed by
/// more fragments; the generator separates them so tokens never merge
/// across a fragment boundary). Given the fragment-id runs recorded at
/// generation time, a whole corpus tokenizes by table lookup.
#[derive(Clone, Debug, Default)]
pub struct FragmentTable {
    /// Flat token ids, fragment-major (unsorted, repeats kept).
    ids: Vec<u32>,
    /// Cumulative end of each fragment's ids (length = fragment count).
    ends: Vec<u32>,
    /// Whitespace word count of each fragment's text.
    word_counts: Vec<u32>,
}

impl FragmentTable {
    /// Tokenize every fragment against `vocab` (one session), taking
    /// each fragment's word count from the same tokenizer pass. Fragment
    /// ids are positional: fragment `i` of the iterator is id `i`.
    pub fn build<'a>(fragments: impl IntoIterator<Item = &'a str>, vocab: &GlobalVocab) -> Self {
        let mut sess = vocab.session();
        let mut table = FragmentTable::default();
        for text in fragments {
            let words = sess.tokenize_into(text, &mut table.ids);
            table.ends.push(table.ids.len() as u32);
            table.word_counts.push(words as u32);
        }
        table
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the table holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Global token ids of fragment `frag` (unsorted, repeats kept).
    pub fn tokens(&self, frag: u32) -> &[u32] {
        let i = frag as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.ids[start..self.ends[i] as usize]
    }

    /// Whitespace word count of fragment `frag`.
    pub fn word_count(&self, frag: u32) -> u32 {
        self.word_counts[frag as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::TokenizedChat;
    use lightor_types::{ChatLog, ChatMessage, UserId};
    use proptest::prelude::*;

    #[test]
    fn stable_ids_across_sessions() {
        let v = GlobalVocab::new();
        let mut s = v.session();
        let kill = s.intern("kill");
        let gg = s.intern("gg");
        let d1 = s.finish();
        assert_eq!(d1.base, 0);
        assert_eq!(d1.terms, vec!["kill".to_string(), "gg".to_string()]);

        let mut s = v.session();
        assert_eq!(s.intern("kill"), kill);
        let wow = s.intern("wow");
        let d2 = s.finish();
        assert_eq!(d2.base, 2);
        assert_eq!(d2.terms, vec!["wow".to_string()]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.get("gg"), Some(gg));
        assert_eq!(v.term(wow).as_deref(), Some("wow"));
    }

    #[test]
    fn absorb_warms_without_duplicates() {
        let v = GlobalVocab::new();
        assert_eq!(v.absorb(&["a", "b", "a"]), 2);
        assert_eq!(v.absorb(&["b", "c"]), 1);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn fragment_table_tokenizes_like_tokenizer() {
        let v = GlobalVocab::new();
        let t = FragmentTable::build(["gg wp ", "what a PLAY!! ", ""], &v);
        assert_eq!(t.len(), 3);
        assert_eq!(t.tokens(0).len(), 2);
        assert_eq!(t.word_count(0), 2);
        assert_eq!(t.tokens(1).len(), 3);
        assert_eq!(t.word_count(1), 3);
        assert!(t.tokens(2).is_empty());
        assert_eq!(t.word_count(2), 0);
        // "gg" and "wp" interned before "what"/"a"/"play".
        assert_eq!(v.get("gg"), Some(0));
        assert_eq!(v.get("play"), Some(4));
    }

    fn chat(messages: &[(f64, &str)]) -> ChatLog {
        ChatLog::new(
            messages
                .iter()
                .map(|&(t, s)| ChatMessage::new(t, UserId(1), s))
                .collect(),
        )
    }

    #[test]
    fn global_build_on_fresh_vocab_equals_oracle_exactly() {
        let c = chat(&[
            (1.0, "gg wp"),
            (2.5, "what a play"),
            (2.5, ""),
            (9.0, "消息 ✓ pog"),
        ]);
        let view = lightor_types::ChatLogView::from_chat_log(&c);
        let oracle = TokenizedChat::build(&c);
        let vocab = GlobalVocab::new();
        let (global, delta) = TokenizedChat::build_from_view_global(&view, &vocab);
        // A fresh vocab assigns ids in the same first-seen order as the
        // per-corpus build, so every column matches bit-for-bit.
        assert_eq!(global.token_ids(), oracle.token_ids());
        assert_eq!(global.token_ends(), oracle.token_ends());
        assert_eq!(global.word_counts(), oracle.word_counts());
        assert_eq!(global.timestamps(), oracle.timestamps());
        assert_eq!(global.dim(), oracle.dim());
        assert_eq!(delta.base, 0);
        assert_eq!(delta.terms.len(), vocab.len());
    }

    #[test]
    fn frag_run_build_equals_global_view_build_exactly() {
        // Generated chat tokenized by fragment-table lookup must equal
        // the view-based global build column for column. Ordering
        // matters: the FragmentTable is built FIRST, so the view build
        // finds every term already interned and assigns identical ids.
        use lightor_chatsim::{ChatGenerator, CompiledLexicon, GameProfile, VideoGenerator};
        use lightor_simkit::SeedTree;
        use lightor_types::{ChannelId, VideoId};
        use std::sync::Arc;

        let lex = CompiledLexicon::shared();
        let profile = Arc::new(GameProfile::dota2());
        let vg = VideoGenerator::new(profile.clone());
        let cg = ChatGenerator::new(profile);
        let root = SeedTree::new(42);
        let spec = {
            let mut vrng = root.child("video").rng();
            vg.generate(VideoId(0), ChannelId(0), &mut vrng)
        };
        let (sim, runs) = cg.generate_tokenized(spec, &mut root.child("chat").rng());
        let view = &sim.video.chat;

        let vocab = GlobalVocab::new();
        let table = FragmentTable::build(lex.fragment_texts(), &vocab);
        assert_eq!(table.len(), lex.fragment_count());

        let from_table = TokenizedChat::build_from_frag_runs(view, &runs, &table);
        let (from_view, delta) = TokenizedChat::build_from_view_global(view, &vocab);
        // Every message term comes from a fragment, so the view build
        // interned nothing new...
        assert!(delta.is_empty(), "unexpected new terms: {:?}", delta.terms);
        // ...and the corpora agree bit-for-bit.
        assert_eq!(from_table.token_ids(), from_view.token_ids());
        assert_eq!(from_table.token_ends(), from_view.token_ends());
        assert_eq!(from_table.word_counts(), from_view.word_counts());
        assert_eq!(from_table.timestamps(), from_view.timestamps());
        assert_eq!(from_table.dim(), from_view.dim());
    }

    proptest! {
        /// The tentpole pin: interned-vocab tokenization scores
        /// bit-exactly like the word-split per-corpus oracle on
        /// arbitrary unicode chat — even when the global vocab is
        /// pre-warmed so the term ids differ wildly from corpus-local
        /// ids.
        #[test]
        fn interned_features_bit_equal_oracle_on_unicode(
            texts in proptest::collection::vec("\\PC{0,24}", 0..40),
            warm in proptest::collection::vec("[a-z]{1,6}", 0..30),
        ) {
            let msgs: Vec<(f64, &str)> =
                texts.iter().enumerate().map(|(i, s)| (i as f64, s.as_str())).collect();
            let c = chat(&msgs);
            let view = lightor_types::ChatLogView::from_chat_log(&c);
            let oracle = TokenizedChat::build(&c);

            let vocab = GlobalVocab::new();
            let warm_refs: Vec<&str> = warm.iter().map(|s| s.as_str()).collect();
            vocab.absorb(&warm_refs);
            let (global, delta) = TokenizedChat::build_from_view_global(&view, &vocab);

            prop_assert_eq!(global.len(), oracle.len());
            prop_assert_eq!(global.word_counts(), oracle.word_counts());
            // Same per-message distinct-token counts under remapping.
            for i in 0..global.len() {
                prop_assert_eq!(global.vector(i).len(), oracle.vector(i).len());
            }
            // Every delta term really is new relative to the warm set.
            for t in &delta.terms {
                prop_assert!(!warm_refs.contains(&t.as_str()));
            }

            // Feature pin: identical windows, bit-identical features
            // and peaks despite the id remap.
            let windows = crate::window::sliding_windows(
                &c, lightor_types::Sec(40.0), 8.0, 0.5);
            let a = oracle.featurize_windows(&windows, 5.0);
            let b = global.featurize_windows(&windows, 5.0);
            prop_assert_eq!(a, b);
        }
    }
}
