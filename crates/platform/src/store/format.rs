//! The chat record codec: versioned payload formats for [`super::ChatStore`].
//!
//! Records are self-describing: each starts with a magic and a version,
//! so the two record kinds share one log.
//!
//! **v2 (chat)** — a header followed by parallel arrays and one
//! contiguous text blob (all little-endian):
//!
//! ```text
//! [magic: u32 = "LCv2"][version: u16 = 2][flags: u16 = 0]
//! [video_id: u64][n: u32]
//! [ts: f64 × n][user: u64 × n][text_end: u32 × n]
//! [blob_len: u32][utf8 blob]
//! ```
//!
//! `text_end[i]` is the cumulative end offset of message `i`'s text in
//! the blob (u32, so texts up to 4 GiB aggregate). A v2 record decodes
//! into a zero-copy [`ChatLogView`] with O(1) allocations: the view
//! `Arc`s the payload buffer and reads the arrays in place.
//!
//! **v3 (tokenized corpus, companion record)** — not a chat format: a
//! v3 record rides in the same log *next to* a video's v2 chat record
//! and persists the tokenized corpus (its term ids) so reopening a
//! store never re-tokenizes raw text. Layout (all little-endian):
//!
//! ```text
//! [magic: u32 = "LTv3"][version: u16 = 3][flags: u16 = 0]
//! [video_id: u64][n: u32][dim: u32][token_total: u32]
//! [token_end: u32 × n][token_id: u32 × token_total][word_count: u32 × n]
//! [vocab_base: u32 = 0][vocab_count: u32 = 0][blob_len: u32 = 0]
//! ```
//!
//! `token_end[i]` is the cumulative end offset of message `i`'s term
//! ids in the `token_id` array (same framing idea as v2's `text_end`);
//! `dim` is the dense feature dimension the ids were built against
//! (every id < `dim`). Term ids are corpus-local (see
//! `lightor::corpus`): dense from 0, assigned by the one tokenizer
//! build, and meaningful only inside their own record.
//!
//! The trailer is always empty. Records written before ids became
//! corpus-local used it for a *vocab delta*: `vocab_count` term ends
//! (`u32` each) followed by a UTF-8 term blob, naming the terms a
//! process-wide vocabulary interned while tokenizing the record. Those
//! records still sniff as v3, so existing data dirs and migration
//! bundles index, orphan, compact and import as before, but
//! [`decode_v3`] returns `None` for any trailer that is not empty:
//! their ids came from a shared table, so the service re-tokenizes the
//! chat record once and overwrites the companion. The companion is a
//! cache of the chat record, so it is rebuilt, not migrated.
//!
//! v3 records are written **lazily**: the first time a corpus is built
//! from a v2 chat record (a "cold" tokenization), the service persists
//! the result as a v3 companion. Re-crawling a video orphans its v3
//! record (the chat bytes changed, so the tokenization is stale);
//! the store's scan enforces that by log order. Decoding a v3 record
//! validates every length equation, offset monotonicity and the id
//! bound — a corrupt record decodes to `None` and the service falls
//! back to re-tokenizing the chat record.
//!
//! Format detection ([`sniff`]) accepts a payload as v2 or v3 only when
//! its magic, version and exact length equations all hold; anything
//! else is not a record of this store.

use bytes::{Buf, BufMut};
use lightor_types::{ChatLog, ChatLogView, ColumnarLayout, VideoId};
use std::sync::Arc;

/// v2 header magic: `b"LCv2"` read as a little-endian u32.
pub const V2_MAGIC: u32 = u32::from_le_bytes(*b"LCv2");
/// Current record format version.
pub const V2_VERSION: u16 = 2;
/// Byte length of the fixed v2 header (magic + version + flags + video + n).
const V2_HEADER: usize = 4 + 2 + 2 + 8 + 4;

/// v3 header magic: `b"LTv3"` read as a little-endian u32 ("T" for
/// tokenized — distinct from the chat magic so sniffing never confuses
/// the two).
pub const V3_MAGIC: u32 = u32::from_le_bytes(*b"LTv3");
/// Tokenized-corpus record format version.
pub const V3_VERSION: u16 = 3;
/// Fixed v3 header (magic + version + flags + video + n + dim + token_total).
const V3_HEADER: usize = 4 + 2 + 2 + 8 + 4 + 4 + 4;

/// Which codec a record was written with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Columnar zero-copy chat records.
    V2,
    /// Tokenized-corpus companion records (not chat data).
    V3,
}

/// Cheap per-record metadata extracted without materializing messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordInfo {
    /// The video the record stores.
    pub video: VideoId,
    /// Codec the record was written with.
    pub format: Format,
}

/// Encode a chat replay as a v2 (columnar) record.
pub fn encode_v2(video: VideoId, chat: &ChatLog) -> Vec<u8> {
    let n = chat.len();
    let blob_len: usize = chat.messages().iter().map(|m| m.text.len()).sum();
    let mut buf = Vec::with_capacity(V2_HEADER + 20 * n + 4 + blob_len);
    buf.put_u32_le(V2_MAGIC);
    buf.put_u16_le(V2_VERSION);
    buf.put_u16_le(0); // flags, reserved
    buf.put_u64_le(video.0);
    buf.put_u32_le(n as u32);
    for m in chat.messages() {
        buf.put_f64_le(m.ts.0);
    }
    for m in chat.messages() {
        buf.put_u64_le(m.user.0);
    }
    let mut end = 0u32;
    for m in chat.messages() {
        end += m.text.len() as u32;
        buf.put_u32_le(end);
    }
    buf.put_u32_le(blob_len as u32);
    for m in chat.messages() {
        buf.put_slice(m.text.as_bytes());
    }
    buf
}

/// Encode a zero-copy view as a v2 (columnar) record.
///
/// The view is already columnar, so this is header + four raw section
/// copies — no per-message walk, no UTF-8 revalidation, no `String`s.
/// This is the crawler's hot path now that generators emit views
/// directly. (Unlike a `to_chat_log()` round trip, invalid UTF-8 bytes
/// are preserved verbatim rather than lossy-replaced.)
pub fn encode_v2_view(video: VideoId, chat: &ChatLogView) -> Vec<u8> {
    let n = chat.len();
    let text = chat.text_section();
    let mut buf = Vec::with_capacity(V2_HEADER + 20 * n + 4 + text.len());
    buf.put_u32_le(V2_MAGIC);
    buf.put_u16_le(V2_VERSION);
    buf.put_u16_le(0); // flags, reserved
    buf.put_u64_le(video.0);
    buf.put_u32_le(n as u32);
    buf.put_slice(chat.ts_section());
    buf.put_slice(chat.user_section());
    buf.put_slice(chat.ends_section());
    buf.put_u32_le(text.len() as u32);
    buf.put_slice(text);
    buf
}

/// Compute the v2 layout of `payload` if (and only if) it is a valid v2
/// record. Pure offset arithmetic — no per-message work.
fn v2_layout(payload: &[u8]) -> Option<(VideoId, ColumnarLayout)> {
    if payload.len() < V2_HEADER + 4 {
        return None;
    }
    let mut p = payload;
    if p.get_u32_le() != V2_MAGIC || p.get_u16_le() != V2_VERSION {
        return None;
    }
    let _flags = p.get_u16_le();
    let video = VideoId(p.get_u64_le());
    let n = p.get_u32_le() as usize;
    let ts_off = V2_HEADER;
    let user_off = ts_off.checked_add(n.checked_mul(8)?)?;
    let ends_off = user_off.checked_add(n.checked_mul(8)?)?;
    let blob_len_off = ends_off.checked_add(n.checked_mul(4)?)?;
    let text_off = blob_len_off.checked_add(4)?;
    if text_off > payload.len() {
        return None;
    }
    let text_len = read_u32_at(payload, blob_len_off) as usize;
    // Exact length equation: nothing may trail the blob.
    if text_off.checked_add(text_len)? != payload.len() {
        return None;
    }
    Some((
        video,
        ColumnarLayout {
            n,
            ts_off,
            user_off,
            ends_off,
            text_off,
            text_len,
        },
    ))
}

fn read_u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked"))
}

/// Decode a v2 record into a zero-copy view sharing `payload`.
pub fn decode_v2(payload: &Arc<[u8]>) -> Option<(VideoId, ChatLogView)> {
    let (video, layout) = v2_layout(payload)?;
    let view = ChatLogView::new(payload.clone(), layout)?;
    Some((video, view))
}

/// Decoded contents of a v3 tokenized-corpus record.
///
/// Columns mirror `lightor::TokenizedChat::from_columns` inputs:
/// `token_ends[i]` frames message `i`'s slice of `token_ids`, every id
/// is `< dim`, and `word_counts[i]` is the message's whitespace word
/// count (the paper's message-length feature).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenizedRecord {
    /// The video whose corpus this record persists.
    pub video: VideoId,
    /// Dense feature dimension the ids were built against.
    pub dim: u32,
    /// Cumulative per-message end offsets into `token_ids` (length n).
    pub token_ends: Vec<u32>,
    /// Interned term ids, all messages concatenated.
    pub token_ids: Vec<u32>,
    /// Per-message whitespace word counts (length n).
    pub word_counts: Vec<u32>,
}

impl TokenizedRecord {
    /// Number of messages the record covers.
    pub fn len(&self) -> usize {
        self.token_ends.len()
    }

    /// Whether the record covers zero messages.
    pub fn is_empty(&self) -> bool {
        self.token_ends.is_empty()
    }
}

/// Encode a tokenized corpus as a v3 record, with an empty trailer.
pub fn encode_v3(record: &TokenizedRecord) -> Vec<u8> {
    encode_v3_columns(
        record.video,
        record.dim,
        &record.token_ends,
        &record.token_ids,
        &record.word_counts,
    )
}

/// [`encode_v3`] from borrowed columns (a corpus's own), so persisting
/// a freshly built corpus copies each column once, into the record.
pub fn encode_v3_columns(
    video: VideoId,
    dim: u32,
    token_ends: &[u32],
    token_ids: &[u32],
    word_counts: &[u32],
) -> Vec<u8> {
    let n = token_ends.len();
    debug_assert_eq!(word_counts.len(), n);
    debug_assert_eq!(
        token_ends.last().copied().unwrap_or(0) as usize,
        token_ids.len()
    );
    let mut buf = Vec::with_capacity(V3_HEADER + 4 * (2 * n + token_ids.len()) + 12);
    buf.put_u32_le(V3_MAGIC);
    buf.put_u16_le(V3_VERSION);
    buf.put_u16_le(0); // flags, reserved
    buf.put_u64_le(video.0);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(dim);
    buf.put_u32_le(token_ids.len() as u32);
    for column in [token_ends, token_ids, word_counts] {
        for &x in column {
            buf.put_u32_le(x);
        }
    }
    // The empty trailer: vocab base, vocab count and blob length.
    buf.put_u32_le(0);
    buf.put_u32_le(0);
    buf.put_u32_le(0);
    buf
}

/// Section offsets of a v3 record, computed (and bounds-checked)
/// without materializing anything. `None` unless every length equation
/// holds exactly.
struct V3Layout {
    video: VideoId,
    n: usize,
    dim: u32,
    token_total: usize,
    ends_off: usize,
    ids_off: usize,
    wc_off: usize,
    /// Whether the trailer is empty (base, count and blob length all
    /// 0), as every record written with corpus-local ids has it.
    empty_trailer: bool,
}

fn v3_layout(payload: &[u8]) -> Option<V3Layout> {
    if payload.len() < V3_HEADER {
        return None;
    }
    let mut p = payload;
    if p.get_u32_le() != V3_MAGIC || p.get_u16_le() != V3_VERSION {
        return None;
    }
    let _flags = p.get_u16_le();
    let video = VideoId(p.get_u64_le());
    let n = p.get_u32_le() as usize;
    let dim = p.get_u32_le();
    let token_total = p.get_u32_le() as usize;
    let ends_off = V3_HEADER;
    let ids_off = ends_off.checked_add(n.checked_mul(4)?)?;
    let wc_off = ids_off.checked_add(token_total.checked_mul(4)?)?;
    let vocab_off = wc_off.checked_add(n.checked_mul(4)?)?;
    let term_ends_off = vocab_off.checked_add(8)?;
    if term_ends_off > payload.len() {
        return None;
    }
    let vocab_count = read_u32_at(payload, vocab_off + 4) as usize;
    let blob_len_off = term_ends_off.checked_add(vocab_count.checked_mul(4)?)?;
    let blob_off = blob_len_off.checked_add(4)?;
    if blob_off > payload.len() {
        return None;
    }
    let blob_len = read_u32_at(payload, blob_len_off) as usize;
    // Exact length equation: nothing may trail the term blob.
    if blob_off.checked_add(blob_len)? != payload.len() {
        return None;
    }
    Some(V3Layout {
        video,
        n,
        dim,
        token_total,
        ends_off,
        ids_off,
        wc_off,
        empty_trailer: read_u32_at(payload, vocab_off) == 0 && vocab_count == 0 && blob_len == 0,
    })
}

/// `count` little-endian `u32`s starting at `off` (bounds checked by
/// the layout): one slice, then a loop the compiler can vectorize.
fn read_u32s(payload: &[u8], off: usize, count: usize) -> Vec<u32> {
    payload[off..off + 4 * count]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect()
}

/// Decode (and fully validate) a v3 tokenized-corpus record.
///
/// Beyond the layout equations this checks offset monotonicity and the
/// `id < dim` bound. A record that fails any check decodes to `None`,
/// and so does one with a non-empty trailer (its ids came from a
/// process-wide vocabulary, see the module docs); callers fall back to
/// re-tokenizing the chat record.
pub fn decode_v3(payload: &[u8]) -> Option<TokenizedRecord> {
    let l = v3_layout(payload)?;
    if !l.empty_trailer {
        return None;
    }
    let token_ends = read_u32s(payload, l.ends_off, l.n);
    let mut prev = 0u32;
    for &end in &token_ends {
        if end < prev {
            return None;
        }
        prev = end;
    }
    if prev as usize != l.token_total {
        return None;
    }
    let token_ids = read_u32s(payload, l.ids_off, l.token_total);
    if token_ids.iter().max().is_some_and(|&id| id >= l.dim) {
        return None;
    }
    Some(TokenizedRecord {
        video: l.video,
        dim: l.dim,
        token_ends,
        token_ids,
        word_counts: read_u32s(payload, l.wc_off, l.n),
    })
}

/// Identify a record and extract its metadata without materializing
/// messages — the index-rebuild path (`ChatStore::open`) runs this over
/// every record, so it must not allocate per message.
pub fn sniff(payload: &[u8]) -> Option<RecordInfo> {
    if let Some((video, _)) = v2_layout(payload) {
        return Some(RecordInfo {
            video,
            format: Format::V2,
        });
    }
    v3_layout(payload).map(|l| RecordInfo {
        video: l.video,
        format: Format::V3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightor_types::{ChatMessage, UserId};

    fn sample_chat() -> ChatLog {
        ChatLog::new(vec![
            ChatMessage::new(1.5, UserId(7), "first message"),
            ChatMessage::new(3.25, UserId(8), "second 消息 with unicode"),
            ChatMessage::new(9.0, UserId::BOT, "spam spam"),
        ])
    }

    #[test]
    fn v2_round_trip_zero_copy() {
        let chat = sample_chat();
        let payload: Arc<[u8]> = encode_v2(VideoId(42), &chat).into();
        let (video, view) = decode_v2(&payload).expect("valid v2");
        assert_eq!(video, VideoId(42));
        assert_eq!(view, chat);
        // Zero-copy: the view shares the payload allocation.
        assert!(Arc::ptr_eq(view.buffer(), &payload));
    }

    #[test]
    fn v2_view_encode_matches_chat_log_encode() {
        let chat = sample_chat();
        let view = ChatLogView::from_chat_log(&chat);
        // Byte-for-byte the same record either way in.
        assert_eq!(
            encode_v2_view(VideoId(42), &view),
            encode_v2(VideoId(42), &chat)
        );
        let payload: Arc<[u8]> = encode_v2_view(VideoId(42), &view).into();
        let (video, back) = decode_v2(&payload).expect("valid v2");
        assert_eq!(video, VideoId(42));
        assert_eq!(back, chat);
        // Empty view round-trips too.
        let empty: Arc<[u8]> = encode_v2_view(VideoId(7), &ChatLogView::empty()).into();
        assert!(decode_v2(&empty).unwrap().1.is_empty());
    }

    #[test]
    fn v2_empty_log() {
        let payload: Arc<[u8]> = encode_v2(VideoId(1), &ChatLog::empty()).into();
        let (video, view) = decode_v2(&payload).unwrap();
        assert_eq!(video, VideoId(1));
        assert!(view.is_empty());
    }

    #[test]
    fn sniff_identifies_both_formats() {
        let chat = sample_chat();
        let v2 = encode_v2(VideoId(5), &chat);
        let v3 = encode_v3(&sample_tokenized());
        assert_eq!(
            sniff(&v2),
            Some(RecordInfo {
                video: VideoId(5),
                format: Format::V2,
            })
        );
        assert_eq!(
            sniff(&v3),
            Some(RecordInfo {
                video: VideoId(42),
                format: Format::V3,
            })
        );
        assert_eq!(sniff(&[]), None);
        assert_eq!(sniff(&v2[..v2.len() - 1]), None);
    }

    fn sample_tokenized() -> TokenizedRecord {
        TokenizedRecord {
            video: VideoId(42),
            dim: 7,
            token_ends: vec![2, 2, 5],
            token_ids: vec![0, 3, 6, 6, 1],
            word_counts: vec![2, 0, 3],
        }
    }

    /// `record` encoded with the trailer of a record written against a
    /// process-wide vocabulary: `base`, then `terms` framed by their
    /// ends and followed by their UTF-8 blob.
    fn with_vocab_delta(record: &TokenizedRecord, base: u32, terms: &[&str]) -> Vec<u8> {
        let mut raw = encode_v3(record);
        raw.truncate(raw.len() - 12);
        raw.extend_from_slice(&base.to_le_bytes());
        raw.extend_from_slice(&(terms.len() as u32).to_le_bytes());
        let mut end = 0u32;
        for t in terms {
            end += t.len() as u32;
            raw.extend_from_slice(&end.to_le_bytes());
        }
        raw.extend_from_slice(&end.to_le_bytes());
        for t in terms {
            raw.extend_from_slice(t.as_bytes());
        }
        raw
    }

    #[test]
    fn v3_round_trip() {
        let rec = sample_tokenized();
        let payload = encode_v3(&rec);
        assert_eq!(payload[payload.len() - 12..], [0; 12], "empty trailer");
        assert_eq!(decode_v3(&payload), Some(rec.clone()));
        assert_eq!(
            sniff(&payload),
            Some(RecordInfo {
                video: VideoId(42),
                format: Format::V3,
            })
        );
        // An empty corpus (zero messages) round-trips too.
        let empty = TokenizedRecord {
            video: VideoId(7),
            dim: 0,
            token_ends: vec![],
            token_ids: vec![],
            word_counts: vec![],
        };
        assert_eq!(decode_v3(&encode_v3(&empty)), Some(empty));
    }

    #[test]
    fn v3_with_a_vocab_delta_sniffs_but_does_not_decode() {
        // Records written against a process-wide vocabulary stay
        // records of this store (index, orphan, compact, import), but
        // their ids are not corpus-local, so they never decode.
        let rec = sample_tokenized();
        for (base, terms) in [
            (4, &["pog", "消息", "gg"][..]),
            (0, &["pog"][..]),
            (9, &[][..]),
        ] {
            let raw = with_vocab_delta(&rec, base, terms);
            assert_eq!(
                sniff(&raw),
                Some(RecordInfo {
                    video: VideoId(42),
                    format: Format::V3,
                }),
                "base {base}, terms {terms:?}"
            );
            assert!(decode_v3(&raw).is_none(), "base {base}, terms {terms:?}");
        }
        // The same bytes with the empty trailer are the current encoding.
        assert_eq!(with_vocab_delta(&rec, 0, &[]), encode_v3(&rec));
    }

    #[test]
    fn v3_is_not_a_chat_record() {
        let payload: Arc<[u8]> = encode_v3(&sample_tokenized()).into();
        assert!(decode_v2(&payload).is_none(), "v3 must not decode as chat");
        // And the chat format is not v3.
        assert!(decode_v3(&encode_v2(VideoId(1), &sample_chat())).is_none());
    }

    #[test]
    fn v3_truncations_and_corruptions_are_rejected() {
        let good = encode_v3(&sample_tokenized());
        for cut in 1..good.len() {
            assert!(decode_v3(&good[..good.len() - cut]).is_none(), "cut {cut}");
        }
        assert!(decode_v3(&[]).is_none());
        // Non-monotone token_ends.
        let mut bad = sample_tokenized();
        bad.token_ends = vec![3, 2, 5];
        assert!(decode_v3(&encode_v3(&bad)).is_none());
        // Token id out of the declared dimension.
        let mut bad = sample_tokenized();
        bad.dim = 5; // ids contain 6
        assert!(decode_v3(&encode_v3(&bad)).is_none());
        // Bytes after the empty trailer.
        let mut raw = encode_v3(&sample_tokenized());
        raw.push(0);
        assert!(decode_v3(&raw).is_none());
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let chat = sample_chat();
        let v2 = encode_v2(VideoId(5), &chat);
        for cut in [1, 3, v2.len() - 1] {
            let arc: Arc<[u8]> = v2[..v2.len() - cut].to_vec().into();
            assert!(decode_v2(&arc).is_none(), "cut {cut} bytes");
        }
    }
}
