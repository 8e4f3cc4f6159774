//! Zero-copy columnar views over chat replays.
//!
//! A [`ChatLogView`] is the read side of the platform's columnar record
//! format: one shared byte buffer (`Arc<[u8]>`) holding parallel
//! timestamp / user / text-offset arrays plus a single contiguous UTF-8
//! text blob, described by a [`ColumnarLayout`]. Decoding a stored chat
//! into a view costs O(1) allocations — the view *borrows* the payload
//! via the `Arc` instead of materializing one owned `String` per
//! message — while still exposing per-message access, iteration, range
//! queries, and on-demand materialization into an owned [`ChatLog`].
//!
//! Views are also the *write* side of dataset construction:
//! [`ChatLogBuilder`] accumulates messages into column vectors plus one
//! growing text blob (generators append text fragments straight into
//! the blob — no per-message `String`), then
//! [`ChatLogBuilder::finish_sorted`] lays the columns out
//! timestamp-sorted in a single contiguous buffer. The whole replay
//! costs O(1) allocations amortized instead of O(messages).
//!
//! Invariants are checked once at construction ([`ChatLogView::new`]):
//! every section lies inside the buffer, text end-offsets are monotone,
//! and the last end-offset equals the blob length. After that, all
//! accessors are infallible and allocation-free (text access returns
//! `Cow::Borrowed` for valid UTF-8, falling back to a lossy owned copy
//! for corrupt bytes, mirroring the v1 decode behaviour).

use crate::chat::{ChatLog, ChatMessage, UserId};
use crate::time::{Sec, TimeRange};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// Section placement of one columnar chat record inside its buffer.
///
/// All offsets are byte offsets into the shared buffer; the arrays are
/// little-endian and index-aligned (entry `i` of each array describes
/// message `i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnarLayout {
    /// Number of messages.
    pub n: usize,
    /// Offset of the `f64` timestamp array (8·n bytes).
    pub ts_off: usize,
    /// Offset of the `u64` user-id array (8·n bytes).
    pub user_off: usize,
    /// Offset of the `u32` cumulative text end-offset array (4·n bytes).
    /// Entry `i` is the end of message `i`'s text inside the blob; its
    /// start is entry `i-1` (or 0 for the first message).
    pub ends_off: usize,
    /// Offset of the UTF-8 text blob.
    pub text_off: usize,
    /// Byte length of the text blob.
    pub text_len: usize,
}

/// A zero-copy view of one video's chat replay.
///
/// Cheap to clone (an `Arc` bump plus a few words), `Send + Sync`, and
/// safe to cache — the underlying buffer is immutable.
#[derive(Clone, Debug)]
pub struct ChatLogView {
    buf: Arc<[u8]>,
    layout: ColumnarLayout,
}

/// One message as seen through a [`ChatLogView`] — text borrows the
/// view's buffer when it is valid UTF-8.
#[derive(Clone, Debug, PartialEq)]
pub struct ChatMessageRef<'a> {
    /// When the message was posted, in video time.
    pub ts: Sec,
    /// Author of the message.
    pub user: UserId,
    /// Message text.
    pub text: Cow<'a, str>,
}

impl ChatMessageRef<'_> {
    /// Number of whitespace-separated words — the paper's message
    /// length (mirrors [`ChatMessage::word_count`]).
    pub fn word_count(&self) -> usize {
        self.text.split_whitespace().count()
    }
}

/// Map a timestamp to a `u64` whose unsigned order is exactly
/// `f64::total_cmp` order — the integer sort key shared by
/// [`ChatLogBuilder::finish_sorted`] and the chat generator's event
/// layout (the two must order identically or generated logs would
/// disagree with re-sorted ones).
#[inline]
pub fn ts_order_key(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | (1 << 63))
}

fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked"))
}

fn read_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("bounds checked"))
}

/// Per-message fragment-id runs, parallel to a [`ChatLogView`]'s
/// message order.
///
/// A *fragment id* is an opaque `u32` whose meaning belongs to the
/// producer (e.g. a compiled-lexicon span id in `lightor-chatsim`):
/// message `i` was written as the concatenation of `run(i)`'s
/// fragments, in order. Consumers that can map a fragment id to its
/// token ids (a table lookup) can tokenize a whole generated corpus
/// without ever re-splitting the message text into words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FragRuns {
    /// Flat fragment ids, message-major.
    ids: Vec<u32>,
    /// Cumulative end offset of each message's run inside `ids`
    /// (length = number of messages).
    ends: Vec<u32>,
}

impl FragRuns {
    /// Number of messages covered.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no message has a recorded run.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The fragment ids message `i` was written from, in write order.
    pub fn run(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.ids[start..self.ends[i] as usize]
    }

    /// Iterate every message's run, in message order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |i| self.run(i))
    }
}

/// An append-only chat accumulator that finishes into a [`ChatLogView`].
///
/// Message text is written *incrementally* into one shared blob:
/// callers append fragments through [`ChatLogBuilder::text_buf`] (or
/// [`ChatLogBuilder::push_str`]) and then seal the message with
/// [`ChatLogBuilder::commit`]. Messages may arrive in any timestamp
/// order; [`ChatLogBuilder::finish_sorted`] applies a stable
/// timestamp sort (ties keep insertion order — the same contract as
/// [`ChatLog::new`]) while laying out the final columnar buffer.
///
/// Builders created with [`ChatLogBuilder::recording_frags`] also
/// accumulate a [`FragRuns`] — producers push the fragment ids each
/// message was composed from ([`ChatLogBuilder::push_frag`]) and
/// [`ChatLogBuilder::finish_sorted_with_runs`] returns the runs in the
/// same final (sorted) message order as the view.
#[derive(Clone, Debug, Default)]
pub struct ChatLogBuilder {
    ts: Vec<f64>,
    users: Vec<u64>,
    /// Cumulative end offset of each committed message inside `text`.
    ends: Vec<u32>,
    text: String,
    /// Fragment-run accumulator, present only when recording.
    frags: Option<FragRuns>,
}

impl ChatLogBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ChatLogBuilder::default()
    }

    /// An empty builder with pre-sized columns (`messages` entries,
    /// `text_bytes` blob bytes).
    pub fn with_capacity(messages: usize, text_bytes: usize) -> Self {
        ChatLogBuilder {
            ts: Vec::with_capacity(messages),
            users: Vec::with_capacity(messages),
            ends: Vec::with_capacity(messages),
            text: String::with_capacity(text_bytes),
            frags: None,
        }
    }

    /// Like [`ChatLogBuilder::with_capacity`], but also records the
    /// fragment-id run of every message (see [`FragRuns`]). Producers
    /// push ids through [`ChatLogBuilder::push_frag`] or the vector
    /// handed out by [`ChatLogBuilder::text_and_frags`]; runs are
    /// sealed by the same [`ChatLogBuilder::commit`] as the text.
    pub fn recording_frags(messages: usize, text_bytes: usize) -> Self {
        let mut b = ChatLogBuilder::with_capacity(messages, text_bytes);
        b.frags = Some(FragRuns {
            ids: Vec::with_capacity(messages * 2),
            ends: Vec::with_capacity(messages),
        });
        b
    }

    /// True when this builder records fragment runs.
    pub fn records_frags(&self) -> bool {
        self.frags.is_some()
    }

    /// Append one fragment id to the in-progress message's run.
    /// No-op on builders that are not recording.
    pub fn push_frag(&mut self, id: u32) {
        if let Some(f) = &mut self.frags {
            f.ids.push(id);
        }
    }

    /// Borrow-split accessor: the text blob tail plus (when recording)
    /// the flat fragment-id accumulator, so writers can append to both
    /// without fighting the borrow checker.
    pub fn text_and_frags(&mut self) -> (&mut String, Option<&mut Vec<u32>>) {
        (&mut self.text, self.frags.as_mut().map(|f| &mut f.ids))
    }

    /// The blob tail for the message currently being written. Append
    /// fragments freely; nothing is a message until [`commit`] seals it.
    ///
    /// [`commit`]: ChatLogBuilder::commit
    pub fn text_buf(&mut self) -> &mut String {
        &mut self.text
    }

    /// Append one text fragment of the in-progress message.
    pub fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
    }

    /// Seal everything appended since the last commit as one message.
    ///
    /// Panics when the accumulated blob exceeds the columnar format's
    /// `u32` offset space — a wrapped end-offset would corrupt every
    /// later message, so this is a hard limit, not a debug check.
    pub fn commit(&mut self, ts: f64, user: UserId) {
        assert!(self.text.len() <= u32::MAX as usize, "text blob overflow");
        self.ts.push(ts);
        self.users.push(user.0);
        self.ends.push(self.text.len() as u32);
        if let Some(f) = &mut self.frags {
            f.ends.push(f.ids.len() as u32);
        }
    }

    /// Convenience: append a whole message at once.
    pub fn push_message(&mut self, ts: f64, user: UserId, text: &str) {
        self.text.push_str(text);
        self.commit(ts, user);
    }

    /// Number of committed messages.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when no message has been committed.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Finish into a view, stably sorting messages by timestamp (ties
    /// keep insertion order, matching [`ChatLog::new`]). One pass lays
    /// the ts/user/end columns and the reordered blob into a single
    /// contiguous buffer.
    pub fn finish_sorted(mut self) -> ChatLogView {
        // Committed-in-order logs (the chat generator sorts its event
        // layout before writing text) skip the permutation entirely:
        // the columns and blob are already final, so finishing is one
        // sequential serialization pass.
        if self.ts.windows(2).all(|w| w[0] <= w[1]) {
            self.frags = None;
            return self.finish_ordered();
        }
        let order = self.sort_order();
        self.finish_permuted(&order)
    }

    /// Like [`ChatLogBuilder::finish_sorted`], but also returns the
    /// recorded [`FragRuns`] permuted into the same final message
    /// order as the view. Runs are empty when the builder was not
    /// created with [`ChatLogBuilder::recording_frags`].
    pub fn finish_sorted_with_runs(mut self) -> (ChatLogView, FragRuns) {
        let frags = self.frags.take().unwrap_or_default();
        if self.ts.windows(2).all(|w| w[0] <= w[1]) {
            return (self.finish_ordered(), frags);
        }
        let order = self.sort_order();
        if frags.is_empty() {
            return (self.finish_permuted(&order), frags);
        }
        let mut permuted = FragRuns {
            ids: Vec::with_capacity(frags.ids.len()),
            ends: Vec::with_capacity(frags.ends.len()),
        };
        for &i in &order {
            permuted.ids.extend_from_slice(frags.run(i as usize));
            permuted.ends.push(permuted.ids.len() as u32);
        }
        (self.finish_permuted(&order), permuted)
    }

    /// Stable timestamp sort order over the committed messages.
    ///
    /// Packs each message as (total-order key, insertion index) and
    /// sorts the pairs unstably: the key mapping reproduces
    /// `f64::total_cmp` exactly, indices are distinct so ties break
    /// by insertion order (= a stable sort), and integer compares on
    /// contiguous pairs are several times cheaper than indirect
    /// `total_cmp` through an index permutation.
    fn sort_order(&self) -> Vec<u32> {
        let mut order: Vec<(u64, u32)> = self
            .ts
            .iter()
            .enumerate()
            .map(|(i, &t)| (ts_order_key(t), i as u32))
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, i)| i).collect()
    }

    /// Serialize the columns and blob in `order`'s message order.
    fn finish_permuted(self, order: &[u32]) -> ChatLogView {
        let n = self.ts.len();
        let text_len = self.text.len();
        let ts_off = 0;
        let user_off = ts_off + 8 * n;
        let ends_off = user_off + 8 * n;
        let text_off = ends_off + 4 * n;
        let mut buf = Vec::with_capacity(text_off + text_len);
        for &i in order {
            buf.extend_from_slice(&self.ts[i as usize].to_le_bytes());
        }
        for &i in order {
            buf.extend_from_slice(&self.users[i as usize].to_le_bytes());
        }
        let mut end = 0u32;
        for &i in order {
            let i = i as usize;
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            end += self.ends[i] - start;
            buf.extend_from_slice(&end.to_le_bytes());
        }
        for &i in order {
            let i = i as usize;
            let start = if i == 0 { 0 } else { self.ends[i - 1] } as usize;
            buf.extend_from_slice(&self.text.as_bytes()[start..self.ends[i] as usize]);
        }
        let layout = ColumnarLayout {
            n,
            ts_off,
            user_off,
            ends_off,
            text_off,
            text_len,
        };
        ChatLogView::new(buf.into(), layout).expect("self-built layout is valid")
    }

    /// Serialize columns already committed in timestamp order.
    fn finish_ordered(self) -> ChatLogView {
        let n = self.ts.len();
        let text_len = self.text.len();
        let ts_off = 0;
        let user_off = ts_off + 8 * n;
        let ends_off = user_off + 8 * n;
        let text_off = ends_off + 4 * n;
        let mut buf = Vec::with_capacity(text_off + text_len);
        for &t in &self.ts {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        for &u in &self.users {
            buf.extend_from_slice(&u.to_le_bytes());
        }
        for &e in &self.ends {
            buf.extend_from_slice(&e.to_le_bytes());
        }
        buf.extend_from_slice(self.text.as_bytes());
        let layout = ColumnarLayout {
            n,
            ts_off,
            user_off,
            ends_off,
            text_off,
            text_len,
        };
        ChatLogView::new(buf.into(), layout).expect("self-built layout is valid")
    }
}

impl ChatLogView {
    /// Wrap a buffer, validating the layout. Returns `None` when any
    /// section falls outside the buffer, the end-offset array is not
    /// monotone, or the final end-offset disagrees with `text_len`.
    pub fn new(buf: Arc<[u8]>, layout: ColumnarLayout) -> Option<Self> {
        let n = layout.n;
        let sect = |off: usize, len: usize| {
            off.checked_add(len)
                .is_some_and(|end| end <= buf.len())
                .then_some(())
        };
        sect(layout.ts_off, n.checked_mul(8)?)?;
        sect(layout.user_off, n.checked_mul(8)?)?;
        sect(layout.ends_off, n.checked_mul(4)?)?;
        sect(layout.text_off, layout.text_len)?;
        let mut prev = 0u32;
        for c in buf[layout.ends_off..layout.ends_off + 4 * n].chunks_exact(4) {
            let end = u32::from_le_bytes(c.try_into().expect("chunks_exact(4)"));
            if end < prev {
                return None;
            }
            prev = end;
        }
        if prev as usize != layout.text_len {
            return None;
        }
        // Timestamps must be non-decreasing (and not NaN): the range
        // queries binary-search this column, so sortedness is as
        // load-bearing as the offset invariants above.
        let mut prev_ts = f64::NEG_INFINITY;
        for c in buf[layout.ts_off..layout.ts_off + 8 * n].chunks_exact(8) {
            let t = f64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
            if t.is_nan() || t < prev_ts {
                return None;
            }
            prev_ts = t;
        }
        Some(ChatLogView { buf, layout })
    }

    /// Build an owned columnar view from a [`ChatLog`] (the reference
    /// chat sink and tests; O(total text) one-time cost).
    pub fn from_chat_log(chat: &ChatLog) -> Self {
        let n = chat.len();
        let text_len: usize = chat.messages().iter().map(|m| m.text.len()).sum();
        let ts_off = 0;
        let user_off = ts_off + 8 * n;
        let ends_off = user_off + 8 * n;
        let text_off = ends_off + 4 * n;
        let mut buf = Vec::with_capacity(text_off + text_len);
        for m in chat.messages() {
            buf.extend_from_slice(&m.ts.0.to_le_bytes());
        }
        for m in chat.messages() {
            buf.extend_from_slice(&m.user.0.to_le_bytes());
        }
        let mut end = 0u32;
        for m in chat.messages() {
            end += m.text.len() as u32;
            buf.extend_from_slice(&end.to_le_bytes());
        }
        for m in chat.messages() {
            buf.extend_from_slice(m.text.as_bytes());
        }
        let layout = ColumnarLayout {
            n,
            ts_off,
            user_off,
            ends_off,
            text_off,
            text_len,
        };
        ChatLogView::new(buf.into(), layout).expect("self-built layout is valid")
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.layout.n
    }

    /// True when the view holds no messages.
    pub fn is_empty(&self) -> bool {
        self.layout.n == 0
    }

    /// Timestamp of message `i`.
    pub fn ts(&self, i: usize) -> Sec {
        assert!(i < self.layout.n, "message index out of range");
        Sec(f64::from_le_bytes(
            self.buf[self.layout.ts_off + 8 * i..self.layout.ts_off + 8 * i + 8]
                .try_into()
                .expect("bounds checked"),
        ))
    }

    /// Author of message `i`.
    pub fn user(&self, i: usize) -> UserId {
        assert!(i < self.layout.n, "message index out of range");
        UserId(read_u64(&self.buf, self.layout.user_off + 8 * i))
    }

    /// Text of message `i` — borrowed when valid UTF-8.
    pub fn text(&self, i: usize) -> Cow<'_, str> {
        assert!(i < self.layout.n, "message index out of range");
        let start = if i == 0 {
            0
        } else {
            read_u32(&self.buf, self.layout.ends_off + 4 * (i - 1)) as usize
        };
        let end = read_u32(&self.buf, self.layout.ends_off + 4 * i) as usize;
        String::from_utf8_lossy(&self.buf[self.layout.text_off + start..self.layout.text_off + end])
    }

    /// Message `i` as a borrowing reference.
    pub fn get(&self, i: usize) -> ChatMessageRef<'_> {
        ChatMessageRef {
            ts: self.ts(i),
            user: self.user(i),
            text: self.text(i),
        }
    }

    /// Iterate messages in stored (timestamp) order.
    pub fn iter(&self) -> impl Iterator<Item = ChatMessageRef<'_>> + '_ {
        (0..self.layout.n).map(move |i| self.get(i))
    }

    /// Iterate `(timestamp, text)` of every message in stored order,
    /// skipping the user column — what tokenizing a corpus reads.
    ///
    /// The text blob is checked as UTF-8 once and each message is then
    /// sliced out of it by the end-offset column, borrowing. A message
    /// falls back to [`ChatLogView::text`]'s per-message lossy decode
    /// only when the blob is not valid UTF-8 or the message's offsets
    /// split a character, so every text equals `self.text(i)`.
    pub fn ts_texts(&self) -> impl Iterator<Item = (f64, Cow<'_, str>)> + '_ {
        let blob = self.text_section();
        let valid = std::str::from_utf8(blob).ok();
        let mut start = 0usize;
        self.ts_section()
            .chunks_exact(8)
            .zip(self.ends_section().chunks_exact(4))
            .map(move |(t, e)| {
                let t = f64::from_le_bytes(t.try_into().expect("chunks_exact(8)"));
                let end = u32::from_le_bytes(e.try_into().expect("chunks_exact(4)")) as usize;
                let text = match valid.and_then(|s| s.get(start..end)) {
                    Some(s) => Cow::Borrowed(s),
                    None => String::from_utf8_lossy(&blob[start..end]),
                };
                start = end;
                (t, text)
            })
    }

    /// Message index range `[lo, hi)` covered by a closed time range
    /// (the same inclusive-endpoints semantics as [`ChatLog::slice`]).
    pub fn msg_range(&self, range: TimeRange) -> (usize, usize) {
        let lo = self.partition_point(|t| t < range.start.0);
        let hi = self.partition_point(|t| t <= range.end.0);
        (lo, hi)
    }

    /// First index whose timestamp does NOT satisfy `pred`, assuming
    /// timestamps are sorted (store-written and builder-built views
    /// guarantee this).
    fn partition_point(&self, pred: impl Fn(f64) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.layout.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.ts(mid).0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Iterate the messages inside a closed time range.
    pub fn iter_range(&self, range: TimeRange) -> impl Iterator<Item = ChatMessageRef<'_>> + '_ {
        let (lo, hi) = self.msg_range(range);
        (lo..hi).map(move |i| self.get(i))
    }

    /// Number of messages inside `range`.
    pub fn count_in(&self, range: TimeRange) -> usize {
        let (lo, hi) = self.msg_range(range);
        hi - lo
    }

    /// Average messages per hour over `video_len` (the Section VII-D
    /// applicability statistic; LIGHTOR wants ≥ 500 messages/hour).
    pub fn rate_per_hour(&self, video_len: Sec) -> f64 {
        if video_len.0 <= 0.0 {
            return 0.0;
        }
        self.layout.n as f64 / (video_len.0 / 3600.0)
    }

    /// Copy the timestamp column into a `Vec` (for callers that need a
    /// contiguous `&[f64]`, e.g. window layout).
    pub fn timestamps_vec(&self) -> Vec<f64> {
        (0..self.layout.n).map(|i| self.ts(i).0).collect()
    }

    /// Timestamp of the last message, if any.
    pub fn last_ts(&self) -> Option<Sec> {
        self.layout.n.checked_sub(1).map(|i| self.ts(i))
    }

    /// Materialize into an owned [`ChatLog`] (allocates per message).
    pub fn to_chat_log(&self) -> ChatLog {
        ChatLog::new(
            self.iter()
                .map(|m| ChatMessage::new(m.ts, m.user, m.text.into_owned()))
                .collect(),
        )
    }

    /// The shared payload buffer the view borrows.
    pub fn buffer(&self) -> &Arc<[u8]> {
        &self.buf
    }

    /// The raw timestamp column (little-endian `f64 × n`).
    pub fn ts_section(&self) -> &[u8] {
        &self.buf[self.layout.ts_off..self.layout.ts_off + 8 * self.layout.n]
    }

    /// The raw user-id column (little-endian `u64 × n`).
    pub fn user_section(&self) -> &[u8] {
        &self.buf[self.layout.user_off..self.layout.user_off + 8 * self.layout.n]
    }

    /// The raw cumulative text end-offset column (little-endian
    /// `u32 × n`).
    pub fn ends_section(&self) -> &[u8] {
        &self.buf[self.layout.ends_off..self.layout.ends_off + 4 * self.layout.n]
    }

    /// The raw UTF-8 text blob (all message texts, concatenated).
    pub fn text_section(&self) -> &[u8] {
        &self.buf[self.layout.text_off..self.layout.text_off + self.layout.text_len]
    }
}

impl PartialEq<ChatLog> for ChatLogView {
    fn eq(&self, other: &ChatLog) -> bool {
        self.len() == other.len()
            && self.iter().zip(other.messages()).all(|(a, b)| {
                a.ts.0.to_bits() == b.ts.0.to_bits() && a.user == b.user && a.text == b.text
            })
    }
}

impl PartialEq<ChatLogView> for ChatLog {
    fn eq(&self, other: &ChatLogView) -> bool {
        other == self
    }
}

impl PartialEq for ChatLogView {
    /// Bit-exact message equality (timestamp bits, user, text) —
    /// buffer layout details (e.g. section offsets) do not matter.
    fn eq(&self, other: &ChatLogView) -> bool {
        self.len() == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| {
                a.ts.0.to_bits() == b.ts.0.to_bits() && a.user == b.user && a.text == b.text
            })
    }
}

impl Default for ChatLogView {
    fn default() -> Self {
        ChatLogBuilder::new().finish_sorted()
    }
}

impl ChatLogView {
    /// A view holding no messages.
    pub fn empty() -> Self {
        ChatLogView::default()
    }

    /// Build a view from owned messages (sorts by timestamp, stable).
    pub fn from_messages(messages: Vec<ChatMessage>) -> Self {
        let mut b = ChatLogBuilder::with_capacity(
            messages.len(),
            messages.iter().map(|m| m.text.len()).sum(),
        );
        for m in &messages {
            b.push_message(m.ts.0, m.user, &m.text);
        }
        b.finish_sorted()
    }
}

impl FromIterator<ChatMessage> for ChatLogView {
    fn from_iter<T: IntoIterator<Item = ChatMessage>>(iter: T) -> Self {
        ChatLogView::from_messages(iter.into_iter().collect())
    }
}

// Serialized exactly like [`ChatLog`] (an object with a `messages`
// array), so persisted labelled videos keep their JSON shape across
// the owned→view migration.
impl Serialize for ChatLogView {
    fn to_value(&self) -> serde::Value {
        self.to_chat_log().to_value()
    }
}

impl Deserialize for ChatLogView {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        ChatLog::from_value(v).map(|log| ChatLogView::from_chat_log(&log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChatLog {
        ChatLog::new(vec![
            ChatMessage::new(1.5, UserId(7), "first"),
            ChatMessage::new(3.25, UserId(8), "第二 unicode ✓"),
            ChatMessage::new(3.25, UserId(9), ""),
            ChatMessage::new(9.0, UserId::BOT, "spam spam"),
        ])
    }

    #[test]
    fn from_chat_log_round_trip() {
        let chat = sample();
        let view = ChatLogView::from_chat_log(&chat);
        assert_eq!(view.len(), 4);
        assert_eq!(view, chat);
        assert_eq!(view.to_chat_log(), chat);
        assert_eq!(view.last_ts(), chat.last_ts());
        assert_eq!(view.text(1), "第二 unicode ✓");
        assert_eq!(view.text(2), "");
        assert!(matches!(view.text(0), Cow::Borrowed("first")));
    }

    #[test]
    fn empty_view() {
        let chat = ChatLog::empty();
        let view = ChatLogView::from_chat_log(&chat);
        assert!(view.is_empty());
        assert_eq!(view.last_ts(), None);
        assert_eq!(view.to_chat_log(), chat);
    }

    #[test]
    fn bad_layouts_are_rejected() {
        let view = ChatLogView::from_chat_log(&sample());
        let buf = view.buffer().clone();
        let good = view.layout;
        // Section out of bounds.
        assert!(ChatLogView::new(
            buf.clone(),
            ColumnarLayout {
                text_len: good.text_len + 1,
                ..good
            }
        )
        .is_none());
        assert!(ChatLogView::new(
            buf.clone(),
            ColumnarLayout {
                n: good.n + 1000,
                ..good
            }
        )
        .is_none());
        // Non-monotone ends: swap two end entries.
        let mut raw = buf.to_vec();
        let a = good.ends_off;
        let b = good.ends_off + 4;
        for k in 0..4 {
            raw.swap(a + k, b + k);
        }
        assert!(ChatLogView::new(raw.into(), good).is_none());
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let view = ChatLogView::from_chat_log(&sample());
        let mut raw = view.buffer().to_vec();
        // Corrupt the first text byte.
        raw[view.layout.text_off] = 0xFF;
        let corrupt = ChatLogView::new(raw.into(), view.layout).unwrap();
        let text = corrupt.text(0);
        assert!(text.contains('\u{FFFD}'), "lossy replacement expected");
    }

    #[test]
    fn ts_texts_equal_per_message_decode() {
        let check = |view: &ChatLogView| {
            let got: Vec<(f64, Cow<'_, str>)> = view.ts_texts().collect();
            assert_eq!(got.len(), view.len());
            for (i, (t, text)) in got.iter().enumerate() {
                assert_eq!(t.to_bits(), view.ts(i).0.to_bits());
                assert_eq!(*text, view.text(i), "message {i}");
            }
        };
        let view = ChatLogView::from_chat_log(&sample());
        check(&view);
        assert!(view.ts_texts().all(|(_, t)| matches!(t, Cow::Borrowed(_))));

        // An invalid blob: every message takes the lossy decode.
        let mut raw = view.buffer().to_vec();
        raw[view.layout.text_off + 6] = 0xFF;
        check(&ChatLogView::new(raw.into(), view.layout).unwrap());

        // A valid blob whose end offsets split a character: "é" is two
        // bytes, and the first message ends after its first byte.
        let split = ChatLogView::from_chat_log(&ChatLog::new(vec![
            ChatMessage::new(1.0, UserId(1), "é"),
            ChatMessage::new(2.0, UserId(2), "x"),
        ]));
        let mut raw = split.buffer().to_vec();
        raw[split.layout.ends_off..split.layout.ends_off + 4].copy_from_slice(&1u32.to_le_bytes());
        let split = ChatLogView::new(raw.into(), split.layout).unwrap();
        assert!(std::str::from_utf8(split.text_section()).is_ok());
        check(&split);
        assert_eq!(split.text(0), "\u{FFFD}");
    }

    #[test]
    fn clone_shares_buffer() {
        let view = ChatLogView::from_chat_log(&sample());
        let clone = view.clone();
        assert!(Arc::ptr_eq(view.buffer(), clone.buffer()));
        assert_eq!(clone, sample());
    }

    #[test]
    fn builder_matches_from_chat_log_and_sorts_stably() {
        // Insert out of order with a timestamp tie: finish_sorted must
        // reproduce ChatLog::new's stable ordering exactly.
        let mut b = ChatLogBuilder::with_capacity(4, 32);
        b.push_message(9.0, UserId::BOT, "spam spam");
        b.push_str("fir");
        b.push_str("st");
        b.commit(1.5, UserId(7));
        b.push_message(3.25, UserId(8), "第二 unicode ✓");
        b.push_message(3.25, UserId(9), "");
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        let view = b.finish_sorted();
        let expected = ChatLog::new(vec![
            ChatMessage::new(9.0, UserId::BOT, "spam spam"),
            ChatMessage::new(1.5, UserId(7), "first"),
            ChatMessage::new(3.25, UserId(8), "第二 unicode ✓"),
            ChatMessage::new(3.25, UserId(9), ""),
        ]);
        assert_eq!(view, expected);
        // Tie order: user 8 (inserted before user 9) stays first.
        assert_eq!(view.user(1), UserId(8));
        assert_eq!(view.user(2), UserId(9));
    }

    #[test]
    fn range_queries_match_chat_log_slice() {
        let chat = sample();
        let view = ChatLogView::from_chat_log(&chat);
        for range in [
            TimeRange::from_secs(0.0, 100.0),
            TimeRange::from_secs(1.5, 3.25),
            TimeRange::from_secs(3.25, 3.25),
            TimeRange::from_secs(50.0, 60.0),
        ] {
            assert_eq!(view.count_in(range), chat.count_in(range), "{range}");
            let texts: Vec<String> = view
                .iter_range(range)
                .map(|m| m.text.into_owned())
                .collect();
            let expected: Vec<&str> = chat.slice(range).iter().map(|m| m.text.as_str()).collect();
            assert_eq!(texts, expected, "{range}");
        }
        assert_eq!(
            view.rate_per_hour(Sec::from_hours(0.5)),
            chat.rate_per_hour(Sec::from_hours(0.5))
        );
        assert_eq!(view.timestamps_vec(), vec![1.5, 3.25, 3.25, 9.0]);
        assert_eq!(view.get(0).word_count(), 1);
    }

    #[test]
    fn empty_and_from_messages() {
        assert!(ChatLogView::empty().is_empty());
        assert_eq!(
            ChatLogView::empty().rate_per_hour(Sec::from_hours(1.0)),
            0.0
        );
        let v = ChatLogView::from_messages(vec![
            ChatMessage::new(2.0, UserId(1), "b"),
            ChatMessage::new(1.0, UserId(2), "a"),
        ]);
        assert_eq!(v.text(0), "a");
        let collected: ChatLogView = vec![ChatMessage::new(0.5, UserId(3), "c")]
            .into_iter()
            .collect();
        assert_eq!(collected.len(), 1);
    }

    #[test]
    fn serde_round_trips_in_chat_log_shape() {
        let view = ChatLogView::from_chat_log(&sample());
        let js = serde_json::to_string(&view).unwrap();
        // Same wire shape as the owned log.
        assert_eq!(js, serde_json::to_string(&sample()).unwrap());
        let back: ChatLogView = serde_json::from_str(&js).unwrap();
        assert_eq!(back, view);
    }
}
