//! Text vectorization for chat messages: tokenizer, vocabulary, the
//! raw-word interner corpus builds tokenize through, and binary
//! bag-of-words vectors (paper Section IV-C2, the message-similarity
//! feature: "We use Bag of Words to represent each message as a binary
//! vector").

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::OnceLock;

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
///
/// The rule is two functions, each written once: the word splitter
/// ([`Tokenizer::for_each_word`], steps 1 and the word count) and the
/// word normalizer ([`Tokenizer::normalize_word`], steps 2–4). A token
/// is therefore a pure function of its raw word, which is what lets
/// [`WordInterner`] normalize each distinct raw word once.
/// [`Tokenizer::for_each_token`] is the two composed; it also returns
/// the whitespace word count (what `split_whitespace().count()` gives),
/// which is the paper's message-length feature.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// Split `text` into normalized tokens.
    pub fn tokenize(self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(text, |tok| out.push(tok.to_owned()));
        out
    }

    /// Visit each normalized token in order and return the whitespace
    /// word count: every word of [`Tokenizer::for_each_word`] through
    /// [`Tokenizer::normalize_word`], skipping the ones left empty.
    /// Nothing is allocated per token; a rewritten token is built in
    /// one scratch buffer reused across the text.
    pub fn for_each_token(self, text: &str, mut f: impl FnMut(&str)) -> usize {
        let mut buf = String::new();
        self.for_each_word(text, |word| {
            let tok = self.normalize_word(word, &mut buf);
            if !tok.is_empty() {
                f(tok);
            }
        })
    }

    /// Visit each whitespace-delimited word of `text` in order (never
    /// empty) and return how many there were.
    ///
    /// A word is scanned eight bytes at a time: one load and a few
    /// integer operations find the first byte that may end it (ASCII
    /// space or control, or non-ASCII), so a typical chat word costs
    /// one step. Only such a byte is classified on its own. An ASCII
    /// byte is whitespace exactly when it is `\t \n \x0B \x0C \r`
    /// or space, as in [`char::is_whitespace`] (which, unlike
    /// [`u8::is_ascii_whitespace`], includes `\x0B`); a non-ASCII
    /// character is decoded and goes through [`char::is_whitespace`].
    pub fn for_each_word(self, text: &str, mut f: impl FnMut(&str)) -> usize {
        let bytes = text.as_bytes();
        let mut words = 0usize;
        let mut i = 0usize;
        loop {
            let start = loop {
                let Some(&b) = bytes.get(i) else {
                    return words;
                };
                match char_at(text, i, b) {
                    (true, len) => i += len,
                    (false, _) => break i,
                }
            };
            let end = loop {
                if let Some(chunk) = bytes.get(i..i + 8) {
                    let run = printable_ascii_run(chunk.try_into().expect("8 bytes"));
                    i += run;
                    if run == 8 {
                        continue;
                    }
                }
                match bytes.get(i) {
                    None => break i,
                    Some(&b) => match char_at(text, i, b) {
                        (true, _) => break i,
                        (false, len) => i += len,
                    },
                }
            };
            f(&text[start..end]);
            words += 1;
        }
    }

    /// The token one whitespace-free `word` contributes: its
    /// alphanumeric characters, lowercased, or `""` when none survive.
    ///
    /// A word made only of lowercase ASCII letters and digits is its
    /// own token and is returned as is; any other word is rewritten
    /// into `buf`. ASCII characters are classified and lowercased with
    /// byte operations; the rest go through [`char::is_alphanumeric`]
    /// and [`char::to_lowercase`].
    pub fn normalize_word<'a>(self, word: &'a str, buf: &'a mut String) -> &'a str {
        if word.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9')) {
            return word;
        }
        buf.clear();
        for c in word.chars() {
            match c {
                'a'..='z' | '0'..='9' => buf.push(c),
                'A'..='Z' => buf.push(c.to_ascii_lowercase()),
                _ if c.is_ascii() => {}
                _ if c.is_alphanumeric() => buf.extend(c.to_lowercase()),
                _ => {}
            }
        }
        buf
    }
}

/// Whether the character starting at byte `i` of `text` (whose first
/// byte is `b`) is whitespace, and its length in bytes.
#[inline]
fn char_at(text: &str, i: usize, b: u8) -> (bool, usize) {
    if b.is_ascii() {
        (matches!(b, b'\t'..=b'\r' | b' '), 1)
    } else {
        let c = text[i..].chars().next().expect("i is on a char boundary");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// How many leading bytes of `chunk` lie in `0x21..=0x7F`, none of
/// which can end a word: the index of the first byte below `0x21` or
/// at least `0x80`, found without a branch per byte. Subtracting `0x21` from every byte sets the high bit of the first
/// byte below `0x21` (a borrow only ever moves the flag to higher
/// bytes); OR-ing the bytes themselves flags every byte `≥ 0x80`.
#[inline]
fn printable_ascii_run(chunk: [u8; 8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let x = u64::from_le_bytes(chunk);
    let stops = (x.wrapping_sub(0x21 * ONES) & !x | x) & HIGH;
    (stops.trailing_zeros() / 8) as usize
}

/// A token → dense-id interner: ids are assigned in first-seen order,
/// `0..len()`.
///
/// This is the one term table of the workspace; every corpus build
/// interns into a fresh one (through a [`WordInterner`]), so ids are
/// local to that corpus. A known token is looked up without
/// allocating; only a new token is copied, once. Nothing iterates the
/// hash map, so ids never depend on the hash key.
///
/// Tokens come from chat text, which is outside input, so the map
/// hashes with a keyed folded-multiply hash whose key is drawn once
/// per process: collisions cannot be crafted ahead of time.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    index: HashMap<Box<str>, u32, TermHashKey>,
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
        let id = u32::try_from(self.index.len()).expect("vocabulary exceeds u32 ids");
        self.index.insert(Box::from(token), id);
        id
    }

    /// Look up a token without inserting.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no tokens are interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
}

/// Raw words at most this long are keys of a [`WordInterner`]'s table.
const INLINE_WORD: usize = 16;

/// Term ids straight from raw text: the tokenizer front end of a
/// corpus build.
///
/// A token is a pure function of its whitespace-delimited raw word
/// (see [`Tokenizer`]). So each raw word is looked up as it stands,
/// and only a word seen for the first time is normalized
/// ([`Tokenizer::normalize_word`]) and interned in the [`Vocab`]; the
/// table then maps the word to that term id, or to "no term" when it
/// normalizes to nothing. A word of up to 16 bytes is keyed by value,
/// as two `u64`s that cover its bytes plus its length, and hashed with
/// one keyed folded multiply, so a lookup hashes and compares integers
/// and chases no pointer. Longer words skip the table: they are
/// normalized and interned every time.
///
/// This pays off only when raw words repeat. The simulated chat does:
/// the bench video has 265 distinct raw words in 14.7k, and its build
/// takes 0.62x the CPU of normalizing and interning every token. On
/// the same chat with each word suffixed by its message index, so
/// nearly every raw word is new, each word pays for a lookup and an
/// insert on top, and the build takes 1.25–1.3x
/// (`corpus_persist/mixed_vocab_*` in the platform benches).
///
/// Ids come from the [`Vocab`], in the first-seen order of *tokens*,
/// exactly as interning every token would assign them; the table only
/// caches them, so ids never depend on its hash key. The table hashes
/// under the same process key as the [`Vocab`].
#[derive(Clone, Debug, Default)]
pub struct WordInterner {
    vocab: Vocab,
    /// Raw word → its token's id.
    words: HashMap<RawWord, Option<u32>, WordHashKey>,
    /// Normalization scratch for first-seen and long words.
    buf: String,
}

impl WordInterner {
    /// An empty interner over a fresh [`Vocab`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Visit the term id of each token of `text` in order and return
    /// the whitespace word count: the ids
    /// [`Tokenizer::for_each_token`] followed by [`Vocab::intern`]
    /// would give, at one table lookup per word.
    pub fn for_each_id(&mut self, text: &str, mut f: impl FnMut(u32)) -> usize {
        Tokenizer.for_each_word(text, |word| {
            if let Some(id) = self.word_id(word) {
                f(id);
            }
        })
    }

    /// The term id of one raw (whitespace-free) word's token, or `None`
    /// when the word normalizes to nothing.
    fn word_id(&mut self, word: &str) -> Option<u32> {
        let bytes = word.as_bytes();
        if bytes.len() > INLINE_WORD {
            return self.intern_word(word);
        }
        let (lo, hi) = short_words(bytes);
        let key = RawWord {
            lo,
            hi,
            len: bytes.len() as u32,
        };
        if let Some(&id) = self.words.get(&key) {
            return id;
        }
        let id = self.intern_word(word);
        self.words.insert(key, id);
        id
    }

    /// Normalize `word` and intern its token (`None` if it is empty).
    fn intern_word(&mut self, word: &str) -> Option<u32> {
        let tok = Tokenizer.normalize_word(word, &mut self.buf);
        (!tok.is_empty()).then(|| self.vocab.intern(tok))
    }

    /// Number of distinct terms interned so far: a corpus's `dim`.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// True when no term is interned yet.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }
}

/// A raw word of at most 16 bytes, by value: the two words
/// [`short_words`] folds it into and its length, which together
/// determine its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RawWord {
    lo: u64,
    hi: u64,
    len: u32,
}

impl Hash for RawWord {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(u128::from(self.lo) | u128::from(self.hi) << 64);
        state.write_u32(self.len);
    }
}

/// Builds a [`WordHasher`] per lookup from the process key, as
/// [`TermHashKey`] builds a [`TermHasher`].
#[derive(Clone, Copy, Debug)]
struct WordHashKey([u64; 2]);

impl Default for WordHashKey {
    fn default() -> Self {
        WordHashKey(process_key())
    }
}

impl BuildHasher for WordHashKey {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            key: self.0,
            words: 0,
            len: 0,
        }
    }
}

/// The hash of a [`RawWord`]: one keyed folded multiply, the shape
/// foldhash gives a string of at most 16 bytes. Each of the word's two
/// `u64`s is mixed with one half of the key, and the first half is
/// rotated by the length, so words of different lengths that fold into
/// the same two `u64`s do not collide under every key. It hashes
/// nothing but a [`RawWord`].
#[derive(Clone, Copy, Debug)]
struct WordHasher {
    key: [u64; 2],
    words: u128,
    len: u32,
}

impl Hasher for WordHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the raw-word table hashes only `RawWord` keys")
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.words = i;
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.len = i;
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(
            self.words as u64 ^ self.key[0].rotate_right(self.len),
            (self.words >> 64) as u64 ^ self.key[1],
        )
    }
}

/// The hash key of every [`Vocab`] and [`WordInterner`] in this
/// process: two random words drawn once from std's [`RandomState`].
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
/// keyed, unlike an Fx or FNV hash. The [`Vocab`] hashes its tokens
/// with it; a [`WordInterner`]'s table, whose keys are already folded
/// into two words, skips the per-write mixing and `finish` and uses
/// [`WordHasher`].
#[derive(Clone, Copy, Debug)]
struct TermHasher {
    acc: u64,
    key: u64,
}

/// The two words a string of at most 16 bytes folds into. Each length
/// class reads windows that together cover every byte (the first,
/// middle and last byte; the first and last 4; the first and last 8),
/// so the words plus the length determine the string exactly.
#[inline]
fn short_words(bytes: &[u8]) -> (u64, u64) {
    let len = bytes.len();
    match len {
        0 => (0, 0),
        1..=3 => {
            let (x, y, z) = (bytes[0], bytes[len / 2], bytes[len - 1]);
            (u64::from(x) | u64::from(y) << 8 | u64::from(z) << 16, 0)
        }
        4..=8 => (read_u32(bytes), read_u32(&bytes[len - 4..])),
        _ => (read_u64(bytes), read_u64(&bytes[len - 8..])),
    }
}

impl Hasher for TermHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let mut acc = self.acc.wrapping_add(len as u64).wrapping_mul(MUL);
        let (a, b) = if len <= 16 {
            short_words(bytes)
        } else {
            let mut rest = bytes;
            while rest.len() > 16 {
                acc = folded_multiply(read_u64(rest) ^ acc, read_u64(&rest[8..]) ^ self.key);
                rest = &rest[16..];
            }
            (read_u64(&bytes[len - 16..]), read_u64(&bytes[len - 8..]))
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

    /// Assert that a [`WordInterner`] gives every message of `texts`
    /// the ids, and the word count, that the oracle's tokens interned
    /// one by one into a fresh [`Vocab`] give.
    fn check_interner_against_oracle(texts: &[&str]) {
        let mut vocab = Vocab::new();
        let mut words = WordInterner::new();
        for text in texts {
            let mut expected = Vec::new();
            oracle_for_each_token(text, |t| expected.push(vocab.intern(t)));
            let mut got = Vec::new();
            let n = words.for_each_id(text, |id| got.push(id));
            assert_eq!(got, expected, "ids of {text:?}");
            assert_eq!(n, text.split_whitespace().count(), "words of {text:?}");
        }
        assert_eq!(words.len(), vocab.len());
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
        check_interner_against_oracle(&[
            "PogChamp <3 :-) !!! gg GG gg! Straße",
            "supercalifragilisticexpialidocious SUPERcalifragilisticEXPIALIDOCIOUS!",
            "ＡＢＣＤＥＦ ａｂｃｄｅｆ ＡＢＣ",
            "gg\u{85}wp\u{A0}gg\u{3000}wp\u{2028}İİİİİİİİİ",
            "",
            "   ",
            "!!!!!!!!!!!!!!!!!!!! ?? 0123456789abcdef 0123456789abcdefg",
        ]);
        assert_eq!(Tokenizer.for_each_token("a\x0Bb\u{A0}!!!", |_| {}), 3);
        assert_eq!(Tokenizer.tokenize("İ"), vec!["i\u{307}"]);
        assert_eq!(Tokenizer.tokenize("ＡＢＣ"), vec!["ａｂｃ"]);
        assert_eq!(Tokenizer.tokenize("PogChamp<3"), vec!["pogchamp3"]);
    }

    #[test]
    fn printable_run_stops_at_exactly_the_first_possible_word_end() {
        // Every byte value at every position, behind a run of letters
        // and ahead of assorted bytes (a borrow must not move the stop).
        for b in 0..=255u8 {
            for pos in 0..8 {
                for tail in [b'a', 0x00, 0x20, 0x21, 0x80, 0xFF] {
                    let mut chunk = [b'x'; 8];
                    chunk[pos] = b;
                    chunk[pos + 1..].fill(tail);
                    let stops = |c: u8| !(0x21..0x80).contains(&c);
                    let expected = chunk.iter().position(|&c| stops(c)).unwrap_or(8);
                    assert_eq!(printable_ascii_run(chunk), expected, "{chunk:?}");
                }
            }
        }
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
        assert_eq!(va.get(&stream[0]), Some(0));
        assert_eq!(va.get(&stream[5]), Some(a[5]));
        // The raw-word table in front of it: raw spellings of the same
        // tokens, short and long, under two keys and the process key,
        // give the ids interning the tokens gives.
        let raw: Vec<String> = stream
            .iter()
            .enumerate()
            .map(|(i, t)| match i % 3 {
                0 => t.clone(),
                1 => t.to_uppercase(),
                _ => format!("{t}!"),
            })
            .collect();
        let words_under = |mut words: WordInterner| -> Vec<Option<u32>> {
            raw.iter().map(|w| words.word_id(w)).collect()
        };
        let keyed = |key: [u64; 2]| WordInterner {
            vocab: Vocab {
                index: HashMap::with_hasher(TermHashKey(key)),
            },
            words: HashMap::with_hasher(WordHashKey(key)),
            buf: String::new(),
        };
        let wa = words_under(keyed([1, 2]));
        let wb = words_under(keyed([0x9e37_79b9_7f4a_7c15, 0xdead_beef]));
        let wc = words_under(WordInterner::new());
        assert_eq!(wa, wb);
        assert_eq!(wa, wc);
        assert_eq!(wa, a.iter().map(|&id| Some(id)).collect::<Vec<_>>());
        // The key really keys the hash.
        assert_ne!(
            TermHashKey([1, 2]).hash_one("pogchamp"),
            TermHashKey([3, 4]).hash_one("pogchamp")
        );
        let (lo, hi) = short_words(b"pogchamp");
        let word = RawWord { lo, hi, len: 8 };
        assert_ne!(
            WordHashKey([1, 2]).hash_one(word),
            WordHashKey([3, 4]).hash_one(word)
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

        #[test]
        fn interner_matches_oracle_on_repeated_unicode_words(
            lexicon in proptest::collection::vec(
                proptest::collection::vec((0u32..6, any::<u32>()), 1..24),
                1..12,
            ),
            messages in proptest::collection::vec(
                proptest::collection::vec((any::<u32>(), 0u32..6), 0..12),
                0..24,
            ),
        ) {
            // A small lexicon of words, some over 16 bytes, some that
            // normalize to nothing, joined by assorted whitespace, so
            // words repeat (table hits) across messages.
            const TRICKY: [char; 12] = [
                'İ', 'ß', 'ǅ', 'Σ', 'Ａ', '٣', '\u{301}', '中', '∞', '\u{1F600}', 'é', 'Z',
            ];
            const SPACES: [&str; 6] = [" ", "\t", "\u{85}", "\u{A0}", "\u{3000}", "\x0B"];
            let words: Vec<String> = lexicon
                .iter()
                .map(|chars| {
                    chars
                        .iter()
                        .map(|&(kind, r)| match kind {
                            0 | 1 => char::from(b"abcxyz019"[r as usize % 9]),
                            2 => char::from(b"ABZ!?<-"[r as usize % 7]),
                            3 => TRICKY[r as usize % TRICKY.len()],
                            4 => char::from_u32(r % 0x1_0000)
                                .filter(|c| !c.is_whitespace())
                                .unwrap_or('x'),
                            _ => char::from(b"!.:;()"[r as usize % 6]),
                        })
                        .collect()
                })
                .collect();
            let texts: Vec<String> = messages
                .iter()
                .map(|msg| {
                    msg.iter()
                        .map(|&(w, sp)| format!("{}{}", words[w as usize % words.len()], SPACES[sp as usize]))
                        .collect()
                })
                .collect();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            check_interner_against_oracle(&refs);
        }
    }
}
