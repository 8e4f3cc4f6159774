//! Text vectorization for chat messages: tokenizer, vocabulary and binary
//! bag-of-words vectors (paper Section IV-C2, the message-similarity
//! feature: "We use Bag of Words to represent each message as a binary
//! vector").

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// Lowercasing, punctuation-stripping whitespace tokenizer.
///
/// The normalization rule, exactly:
///
/// 1. split the text on Unicode `White_Space` (the set
///    [`char::is_whitespace`] and [`str::split_whitespace`] use);
/// 2. within each word keep only `Alphabetic | Numeric` characters
///    ([`char::is_alphanumeric`]), dropping punctuation and symbols;
/// 3. replace every kept character by its full lowercase mapping
///    ([`char::to_lowercase`], so `İ` becomes two chars);
/// 4. drop words left empty.
///
/// Emote tokens like `PogChamp` or `<3` survive as `pogchamp` and `3`.
/// [`Tokenizer::for_each_token`] also returns the whitespace word count
/// (what `split_whitespace().count()` gives), counted in the same pass,
/// which is the paper's message-length feature.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tokenizer;

/// How one character of a word is treated.
#[derive(Clone, Copy)]
enum CharClass {
    /// Ends the current word.
    Space,
    /// Kept, and already its own lowercase.
    Kept,
    /// Kept, but its lowercase mapping differs.
    Lowered,
    /// Not alphanumeric: dropped from the token.
    Dropped,
}

impl Tokenizer {
    /// Split `text` into normalized tokens.
    pub fn tokenize(self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(text, |tok| out.push(tok.to_owned()));
        out
    }

    /// Visit each normalized token in order and return the whitespace
    /// word count, in one pass over `text`'s bytes.
    ///
    /// Each character takes one of two branches. An ASCII byte is
    /// classified and lowercased with byte operations, and the loop
    /// tests first for the common byte: a lowercase letter or digit
    /// that extends the current token. The ASCII whitespace set is
    /// exactly `\t \n \x0B \x0C \r` and space, as in
    /// [`char::is_whitespace`] (which, unlike
    /// [`u8::is_ascii_whitespace`], includes `\x0B`). A non-ASCII
    /// character is decoded and goes through [`char::is_whitespace`],
    /// [`char::is_alphanumeric`] and [`char::to_lowercase`].
    ///
    /// Nothing is allocated per token: a token made of one contiguous
    /// run of already-lowercase characters is handed out as a slice of
    /// `text`, and any other token is built in one scratch buffer
    /// reused across the text.
    pub fn for_each_token(self, text: &str, mut f: impl FnMut(&str)) -> usize {
        let bytes = text.as_bytes();
        let mut buf = String::new();
        let mut words = 0usize;
        let mut in_word = false;
        // The current token is `text[start..end]` until a char needs
        // rewriting, or a kept char follows a dropped one; from then on
        // (`owned`) it lives in `buf`. An empty token sits where the
        // next char starts, so a kept char extends it iff `end == i`.
        let (mut start, mut end, mut owned) = (0usize, 0usize, false);
        let mut i = 0usize;
        loop {
            let b = bytes.get(i).copied();
            if end == i && !owned && matches!(b, Some(b'a'..=b'z' | b'0'..=b'9')) {
                end = i + 1;
                words += usize::from(!in_word);
                in_word = true;
                i += 1;
                continue;
            }
            let (c, len, class) = match b {
                // The end of the text closes the last word.
                None => (' ', 0, CharClass::Space),
                Some(b) if b.is_ascii() => {
                    let class = match b {
                        b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ' => CharClass::Space,
                        b'a'..=b'z' | b'0'..=b'9' => CharClass::Kept,
                        b'A'..=b'Z' => CharClass::Lowered,
                        _ => CharClass::Dropped,
                    };
                    (char::from(b), 1, class)
                }
                Some(_) => {
                    let c = text[i..].chars().next().expect("i is on a char boundary");
                    let class = if c.is_whitespace() {
                        CharClass::Space
                    } else if !c.is_alphanumeric() {
                        CharClass::Dropped
                    } else {
                        let mut lower = c.to_lowercase();
                        if lower.len() == 1 && lower.next() == Some(c) {
                            CharClass::Kept
                        } else {
                            CharClass::Lowered
                        }
                    };
                    (c, c.len_utf8(), class)
                }
            };
            match class {
                CharClass::Space => {
                    if in_word {
                        let tok = if owned { &buf } else { &text[start..end] };
                        if !tok.is_empty() {
                            f(tok);
                        }
                        (owned, in_word) = (false, false);
                    }
                    if len == 0 {
                        return words;
                    }
                    (start, end) = (i + len, i + len);
                }
                CharClass::Dropped if start == end => (start, end) = (i + len, i + len),
                CharClass::Dropped => {}
                CharClass::Kept if !owned && end == i => end = i + len,
                CharClass::Kept | CharClass::Lowered => {
                    if !owned {
                        buf.clear();
                        buf.push_str(&text[start..end]);
                        owned = true;
                    }
                    match class {
                        CharClass::Kept => buf.push(c),
                        _ if c.is_ascii() => buf.push(c.to_ascii_lowercase()),
                        _ => buf.extend(c.to_lowercase()),
                    }
                }
            }
            if !matches!(class, CharClass::Space) {
                words += usize::from(!in_word);
                in_word = true;
            }
            i += len;
        }
    }
}

/// A token → dense-id interner: ids are assigned in first-seen order,
/// and every id keeps its spelling ([`Vocab::term`]).
///
/// This is the one term table of the workspace: a per-corpus
/// vocabulary on its own, and the table behind the serving path's
/// shared `GlobalVocab`. A known token is looked up without
/// allocating; only a new token is copied, once. Nothing iterates the
/// hash map, so ids never depend on the hash key.
///
/// Tokens come from chat text, which is outside input, so the map
/// hashes with a keyed folded-multiply hash whose key is drawn once
/// per process: collisions cannot be crafted ahead of time.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    index: HashMap<Arc<str>, u32, TermHashKey>,
    /// Term text by id; `terms[id as usize]` is the interned spelling.
    terms: Vec<Arc<str>>,
}

impl Vocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocab::default()
    }

    /// Build from an iterator of texts using [`Tokenizer`].
    pub fn build<'a>(texts: impl IntoIterator<Item = &'a str>) -> Self {
        let mut v = Vocab::new();
        let tk = Tokenizer;
        for text in texts {
            tk.for_each_token(text, |tok| {
                v.intern(tok);
            });
        }
        v
    }

    /// Get or assign the index of `token`.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.index.get(token) {
            return id;
        }
        let id = u32::try_from(self.terms.len()).expect("vocabulary exceeds u32 ids");
        let term: Arc<str> = Arc::from(token);
        self.index.insert(term.clone(), id);
        self.terms.push(term);
        id
    }

    /// Look up a token without inserting.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// The interned spelling of `id`, if assigned.
    pub fn term(&self, id: u32) -> Option<&str> {
        self.terms.get(id as usize).map(|t| &**t)
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no tokens are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Encode a text into a binary bag-of-words vector over this
    /// vocabulary (unknown tokens are ignored).
    pub fn encode(&self, text: &str) -> BowVector {
        let mut idx: Vec<u32> = Vec::new();
        Tokenizer.for_each_token(text, |t| {
            if let Some(i) = self.get(t) {
                idx.push(i);
            }
        });
        idx.sort_unstable();
        idx.dedup();
        BowVector { indices: idx }
    }

    /// Intern every token of `text` and encode it in the same pass —
    /// the tokenize-once entry point for corpus construction. Unlike
    /// [`Vocab::encode`], unknown tokens extend the vocabulary instead
    /// of being dropped. Also returns the text's whitespace word count,
    /// which the tokenizer counts in the same pass.
    pub fn intern_text(&mut self, text: &str) -> (BowVector, usize) {
        let mut idx: Vec<u32> = Vec::new();
        let words = Tokenizer.for_each_token(text, |t| idx.push(self.intern(t)));
        idx.sort_unstable();
        idx.dedup();
        (BowVector { indices: idx }, words)
    }
}

/// The hash key of every [`Vocab`] in this process: two random words
/// drawn once from std's [`RandomState`].
fn process_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let state = RandomState::new();
        [state.hash_one(PI_0), state.hash_one(PI_1)]
    })
}

/// First fractional digits of pi: nothing-up-my-sleeve constants.
const PI_0: u64 = 0x243f_6a88_85a3_08d3;
const PI_1: u64 = 0x1319_8a2e_0370_7344;
/// The PCG multiplier, which mixes a word in one multiply.
const MUL: u64 = 0x5851_f42d_4c95_7f2d;

/// Builds a [`TermHasher`] per lookup from the process key.
#[derive(Clone, Copy, Debug)]
struct TermHashKey([u64; 2]);

impl Default for TermHashKey {
    fn default() -> Self {
        TermHashKey(process_key())
    }
}

impl BuildHasher for TermHashKey {
    type Hasher = TermHasher;

    fn build_hasher(&self) -> TermHasher {
        TermHasher {
            acc: self.0[0],
            key: self.0[1],
        }
    }
}

/// The low and high halves of the 128-bit product, folded by XOR.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn read_u32(b: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(b[..4].try_into().expect("4 bytes")))
}

/// A keyed folded-multiply hash for short strings, in the style of
/// aHash's fallback and foldhash: each 16-byte block costs one
/// 64×64→128-bit multiply of the block's halves, each mixed with the
/// key and the running state. Chat tokens are mostly 1–16 bytes, one
/// block. Much cheaper than std's SipHash-1-3 per lookup, and still
/// keyed, unlike an Fx or FNV hash.
#[derive(Clone, Copy, Debug)]
struct TermHasher {
    acc: u64,
    key: u64,
}

impl Hasher for TermHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let mut acc = self.acc.wrapping_add(len as u64).wrapping_mul(MUL);
        let (a, b) = match len {
            0 => (0, 0),
            1..=3 => {
                let (x, y, z) = (bytes[0], bytes[len / 2], bytes[len - 1]);
                (u64::from(x) | u64::from(y) << 8 | u64::from(z) << 16, 0)
            }
            4..=8 => (read_u32(bytes), read_u32(&bytes[len - 4..])),
            9..=16 => (read_u64(bytes), read_u64(&bytes[len - 8..])),
            _ => {
                let mut rest = bytes;
                while rest.len() > 16 {
                    acc = folded_multiply(read_u64(rest) ^ acc, read_u64(&rest[8..]) ^ self.key);
                    rest = &rest[16..];
                }
                (read_u64(&bytes[len - 16..]), read_u64(&bytes[len - 8..]))
            }
        };
        self.acc = folded_multiply(a ^ acc, b ^ self.key);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.acc = folded_multiply(self.acc ^ i, MUL ^ self.key);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, self.key ^ PI_1).rotate_left((self.acc & 63) as u32)
    }
}

/// A binary bag-of-words vector, stored sparsely as sorted unique indices.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BowVector {
    indices: Vec<u32>,
}

impl BowVector {
    /// Construct from raw indices (sorted + deduplicated internally).
    pub fn from_indices(mut indices: Vec<u32>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        BowVector { indices }
    }

    /// The sorted unique token indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Number of distinct tokens present.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True when the vector is all-zero (no known tokens).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Euclidean norm of a binary vector = sqrt(nnz).
    pub fn norm(&self) -> f64 {
        (self.indices.len() as f64).sqrt()
    }

    /// Dot product with a dense vector.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.indices
            .iter()
            .map(|&i| dense.get(i as usize).copied().unwrap_or(0.0))
            .sum()
    }

    /// Dot product with another binary vector (= intersection size).
    pub fn dot(&self, other: &BowVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += 1.0;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tokenizer_normalizes() {
        let tk = Tokenizer;
        assert_eq!(tk.tokenize("What a PLAY!!"), vec!["what", "a", "play"]);
        assert_eq!(tk.tokenize("PogChamp <3 :-)"), vec!["pogchamp", "3"]);
        assert!(tk.tokenize("!!! ???").is_empty());
        assert!(tk.tokenize("").is_empty());
    }

    /// The tokenizer loop before the one-pass kernel, verbatim: the
    /// oracle the kernel must match token for token.
    fn oracle_for_each_token(text: &str, mut f: impl FnMut(&str)) {
        let mut buf = String::new();
        for raw in text.split_whitespace() {
            buf.clear();
            for c in raw.chars().filter(|c| c.is_alphanumeric()) {
                buf.extend(c.to_lowercase());
            }
            if !buf.is_empty() {
                f(&buf);
            }
        }
    }

    /// Assert the kernel's tokens and word count against the oracle.
    fn check_against_oracle(text: &str) {
        let mut expected = Vec::new();
        oracle_for_each_token(text, |t| expected.push(t.to_owned()));
        let mut got = Vec::new();
        let words = Tokenizer.for_each_token(text, |t| got.push(t.to_owned()));
        assert_eq!(got, expected, "tokens of {text:?}");
        assert_eq!(words, text.split_whitespace().count(), "words of {text:?}");
    }

    #[test]
    fn kernel_matches_oracle_on_edge_cases() {
        for text in [
            // Whitespace: U+000B is whitespace for `char` but not for
            // `u8::is_ascii_whitespace`; the rest are non-ASCII spaces.
            "\x0B",
            "a\x0Bb",
            "a\x0Cb",
            "\u{85}",
            "a\u{85}b",
            "\u{A0}",
            "x\u{A0}y",
            "\u{3000}",
            "\u{1680}\u{2000}\u{2028}\u{2029}\u{202F}\u{205F}",
            // Case mappings that change length or are not ASCII.
            "İ",
            "ß",
            "ǅ",
            "Straße",
            "ＡＢＣ",
            "٣",
            "e\u{301}",
            // ASCII mixes: emotes, punctuation gaps, empty.
            "PogChamp<3",
            "!!!",
            "",
            "a!b",
            "ab!",
            "!ab",
            "AB!cd",
            "gg wp \t\r\n GG",
            "  leading and trailing  ",
        ] {
            check_against_oracle(text);
        }
        assert_eq!(Tokenizer.for_each_token("a\x0Bb\u{A0}!!!", |_| {}), 3);
        assert_eq!(Tokenizer.tokenize("İ"), vec!["i\u{307}"]);
        assert_eq!(Tokenizer.tokenize("ＡＢＣ"), vec!["ａｂｃ"]);
        assert_eq!(Tokenizer.tokenize("PogChamp<3"), vec!["pogchamp3"]);
    }

    #[test]
    fn vocab_interning_is_stable() {
        let mut v = Vocab::new();
        let a = v.intern("kill");
        let b = v.intern("gg");
        assert_ne!(a, b);
        assert_eq!(v.intern("kill"), a);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get("kill"), Some(a));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn ids_do_not_depend_on_the_hash_key() {
        // Enough distinct tokens to grow the table several times, of
        // every length class the hasher branches on.
        let stream: Vec<String> = (0..4000u32)
            .map(|i| {
                let n = (i * 7919) % 1213;
                "x".repeat((n % 40) as usize) + &n.to_string()
            })
            .collect();
        let ids_under = |key: [u64; 2]| {
            let mut v = Vocab {
                index: HashMap::with_hasher(TermHashKey(key)),
                terms: Vec::new(),
            };
            let ids: Vec<u32> = stream.iter().map(|t| v.intern(t)).collect();
            (ids, v)
        };
        let (a, va) = ids_under([1, 2]);
        let (b, _) = ids_under([0x9e37_79b9_7f4a_7c15, 0xdead_beef]);
        let mut process = Vocab::new();
        let c: Vec<u32> = stream.iter().map(|t| process.intern(t)).collect();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(va.len(), 1213);
        // First-seen order: id i is the i-th distinct token.
        assert_eq!(va.term(0), Some(stream[0].as_str()));
        assert_eq!(va.get(&stream[5]), Some(a[5]));
        // The key really keys the hash.
        assert_ne!(
            TermHashKey([1, 2]).hash_one("pogchamp"),
            TermHashKey([3, 4]).hash_one("pogchamp")
        );
    }

    #[test]
    fn encode_ignores_unknown_and_dedups() {
        let v = Vocab::build(["kill kill gg"]);
        let enc = v.encode("KILL gg wow");
        assert_eq!(enc.nnz(), 2); // "wow" unknown, "kill" deduped
    }

    #[test]
    fn bow_dot_counts_shared_tokens() {
        let v = Vocab::build(["a b c d"]);
        let x = v.encode("a b c");
        let y = v.encode("b c d");
        assert_eq!(x.dot(&y), 2.0);
        assert_eq!(x.dot(&x), 3.0);
        assert_eq!(x.norm(), 3.0f64.sqrt());
    }

    #[test]
    fn bow_dot_dense() {
        let x = BowVector::from_indices(vec![0, 2]);
        assert_eq!(x.dot_dense(&[0.5, 9.0, 0.25]), 0.75);
        // Out-of-range indices contribute zero.
        let y = BowVector::from_indices(vec![10]);
        assert_eq!(y.dot_dense(&[1.0]), 0.0);
    }

    #[test]
    fn from_indices_normalizes() {
        let x = BowVector::from_indices(vec![3, 1, 3, 2]);
        assert_eq!(x.indices(), &[1, 2, 3]);
    }

    proptest! {
        #[test]
        fn dot_is_symmetric(
            a in proptest::collection::vec(0u32..64, 0..16),
            b in proptest::collection::vec(0u32..64, 0..16),
        ) {
            let x = BowVector::from_indices(a);
            let y = BowVector::from_indices(b);
            prop_assert_eq!(x.dot(&y), y.dot(&x));
        }

        #[test]
        fn dot_bounded_by_nnz(
            a in proptest::collection::vec(0u32..64, 0..16),
            b in proptest::collection::vec(0u32..64, 0..16),
        ) {
            let x = BowVector::from_indices(a);
            let y = BowVector::from_indices(b);
            let d = x.dot(&y);
            prop_assert!(d <= x.nnz().min(y.nnz()) as f64);
            prop_assert!(d >= 0.0);
        }

        #[test]
        fn tokenize_encode_never_panics(s in "\\PC{0,64}") {
            let v = Vocab::build([s.as_str()]);
            let enc = v.encode(&s);
            prop_assert!(enc.nnz() <= v.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn kernel_matches_oracle_on_arbitrary_unicode(
            picks in proptest::collection::vec((0u32..8, any::<u32>()), 0..48),
        ) {
            // Characters that stress the whitespace and case rules.
            const TRICKY: [char; 16] = [
                '\x0B', '\x0C', '\u{85}', '\u{A0}', '\u{2028}', '\u{3000}', 'İ', 'ß',
                'ǅ', 'Σ', 'Ａ', '٣', '\u{301}', '中', '∞', '\u{1F600}',
            ];
            let text: String = picks
                .iter()
                .map(|&(kind, r)| match kind {
                    0 | 1 => char::from((r % 0x80) as u8),
                    2 => TRICKY[r as usize % TRICKY.len()],
                    3 => char::from_u32(r % 0x1_0000).unwrap_or('\u{FFFD}'),
                    4 => char::from_u32(r % 0x11_0000).unwrap_or('\u{FFFD}'),
                    5 => [' ', '\t', '\n'][r as usize % 3],
                    _ => char::from(b"aZ9 !<"[r as usize % 6]),
                })
                .collect();
            check_against_oracle(&text);
        }
    }
}
