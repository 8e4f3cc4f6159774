//! Wire DTOs for the browser-extension front end (paper Figure 5).
//!
//! The extension speaks JSON to the back end: it sends the video id on
//! page load, receives the red dots to render, and streams interaction
//! events back. These types pin that contract.

use lightor_types::{Interaction, RedDot, Sec, Session, UserId, VideoId};
use serde::{Deserialize, Serialize};

/// `GET /video/{id}/dots` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DotsResponse {
    /// The requested video.
    pub video: u64,
    /// Dots to draw on the progress bar.
    pub dots: Vec<DotDto>,
}

/// One red dot on the progress bar.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DotDto {
    /// Position in seconds.
    pub at_seconds: f64,
    /// Model confidence (0..1), usable for dot styling.
    pub score: f64,
}

impl From<RedDot> for DotDto {
    fn from(d: RedDot) -> Self {
        DotDto {
            at_seconds: d.at.0,
            score: d.score,
        }
    }
}

impl From<DotDto> for RedDot {
    fn from(d: DotDto) -> Self {
        RedDot::new(d.at_seconds, d.score)
    }
}

/// One player event as the extension reports it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum EventDto {
    /// Playback started.
    Play {
        /// Position in seconds.
        at: f64,
    },
    /// Playback paused.
    Pause {
        /// Position in seconds.
        at: f64,
    },
    /// Progress bar dragged.
    Seek {
        /// Position before the drag.
        from: f64,
        /// Position after the drag.
        to: f64,
    },
    /// Player closed.
    Leave {
        /// Position in seconds.
        at: f64,
    },
}

impl From<Interaction> for EventDto {
    fn from(i: Interaction) -> Self {
        match i {
            Interaction::Play { video_ts } => EventDto::Play { at: video_ts.0 },
            Interaction::Pause { video_ts } => EventDto::Pause { at: video_ts.0 },
            Interaction::SeekForward { from, to } | Interaction::SeekBackward { from, to } => {
                EventDto::Seek {
                    from: from.0,
                    to: to.0,
                }
            }
            Interaction::Leave { video_ts } => EventDto::Leave { at: video_ts.0 },
        }
    }
}

impl From<EventDto> for Interaction {
    fn from(e: EventDto) -> Self {
        match e {
            EventDto::Play { at } => Interaction::Play { video_ts: Sec(at) },
            EventDto::Pause { at } => Interaction::Pause { video_ts: Sec(at) },
            EventDto::Seek { from, to } => {
                if to >= from {
                    Interaction::SeekForward {
                        from: Sec(from),
                        to: Sec(to),
                    }
                } else {
                    Interaction::SeekBackward {
                        from: Sec(from),
                        to: Sec(to),
                    }
                }
            }
            EventDto::Leave { at } => Interaction::Leave { video_ts: Sec(at) },
        }
    }
}

/// Per-route HTTP serving counters, as `GET /stats` reports them.
///
/// One entry per route the front end exposes (plus a catch-all
/// `"other"` bucket for unroutable requests). Latency fields are
/// cumulative so dashboards can derive rates and means from any two
/// snapshots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteStatsDto {
    /// Route template, e.g. `"GET /video/{id}/dots"`.
    pub route: String,
    /// Requests routed here since the server started.
    pub requests: u64,
    /// Responses with a 4xx/5xx status.
    pub errors: u64,
    /// Total handler latency, microseconds (cumulative).
    pub latency_total_us: u64,
    /// Largest single-request handler latency, microseconds.
    pub latency_max_us: u64,
}

/// `GET /stats` response: serving counters for dashboards.
/// [`LightorService::stats`](crate::LightorService::stats) fills the
/// service fields; the HTTP front end adds `accept_errors`, the
/// `stream_*` counters and `http`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Videos with chat stored.
    pub stored_videos: usize,
    /// Videos with live refinement state.
    pub tracked_videos: usize,
    /// Always 0: the service holds no corpus cache. Kept only because
    /// the load driver still reads it.
    pub corpus_cache_hits: u64,
    /// Always 0, like `corpus_cache_hits`: every corpus load goes to
    /// storage and is counted by `tokenized_hits` or
    /// `tokenized_misses`.
    pub corpus_cache_misses: u64,
    /// Corpus loads decoded from persisted v3 tokenized records — zero
    /// re-tokenization.
    pub tokenized_hits: u64,
    /// Corpus loads that re-tokenized raw chat (no usable v3 record).
    pub tokenized_misses: u64,
    /// Cold tokenizations lazily persisted as v3 records (v2→v3
    /// upgrades).
    pub tokenized_lazy_upgrades: u64,
    /// Boot-time training wall time, milliseconds (0 when unreported).
    pub train_boot_ms: u64,
    /// Chat records served from the decoded-record cache.
    pub record_cache_hits: u64,
    /// Chat records decoded from the log.
    pub record_cache_misses: u64,
    /// Bytes pending in the KV write-ahead log (durable, not yet
    /// folded into the snapshot).
    pub kv_wal_bytes: u64,
    /// KV WAL appends since open.
    pub kv_wal_appends: u64,
    /// KV snapshot rewrites since open.
    pub kv_shard_rewrites: u64,
    /// Chat-log bytes orphaned by re-crawls, not yet compacted.
    pub chat_dead_bytes: u64,
    /// Chat-log bytes reclaimed by compactions since open.
    pub chat_reclaimed_bytes: u64,
    /// Whether the backend is in degraded read-only mode (storage I/O
    /// failed; warm reads keep working, writes are refused with 503).
    pub degraded: bool,
    /// Listener `accept()` failures since the server started (resource
    /// exhaustion, interrupted syscalls) — nonzero means the accept
    /// loop has been shedding connections.
    pub accept_errors: u64,
    /// NDJSON lines accepted on `POST /sessions` and
    /// `POST /sessions/stream` since start.
    /// (`serde(default)` on the stream counters keeps pre-streaming
    /// stats JSON parseable.)
    #[serde(default)]
    pub stream_lines_accepted: u64,
    /// NDJSON lines rejected with a typed per-line error.
    #[serde(default)]
    pub stream_lines_rejected: u64,
    /// Event batches folded into refinement state (both session
    /// routes share one handler and `refine_batch`).
    #[serde(default)]
    pub stream_batches_folded: u64,
    /// Batches recognized as idempotent replays (sequence at or below
    /// the per-session watermark) and skipped.
    #[serde(default)]
    pub stream_batches_replayed: u64,
    /// Streams currently open (headers received, body still arriving).
    #[serde(default)]
    pub stream_open: u64,
    /// Per-route HTTP counters, when an HTTP front end is serving.
    /// Empty for embedded (in-process) deployments.
    pub http: Vec<RouteStatsDto>,
}

/// One backend shard as the router's `GET /stats` reports it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackendStatsDto {
    /// The backend's address, e.g. `"127.0.0.1:7879"`.
    pub addr: String,
    /// Health-state name: `"healthy"`, `"suspect"`, `"down"`, or
    /// `"recovering"`.
    pub health: String,
    /// Requests the router proxied to this backend.
    pub proxied: u64,
    /// Proxied requests that failed at the transport level (after
    /// retries, where eligible).
    pub proxy_errors: u64,
    /// Retry attempts spent on this backend (beyond first tries).
    pub retries: u64,
    /// Active health probes that failed.
    pub probe_failures: u64,
    /// Times the circuit breaker tripped this backend into `down`.
    pub breaker_trips: u64,
    /// True when the aggregation sweep could not reach this backend
    /// (down, or the sweep request failed) — the aggregate is partial,
    /// not failed, and this marker says which slice is missing.
    pub unreachable: bool,
    /// The backend's own `/stats`, when it answered the aggregation
    /// sweep; `None` for a shard that is down.
    pub stats: Option<StatsResponse>,
}

/// Router `GET /stats` response: per-shard health and counters plus
/// each live backend's own stats.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouterStatsResponse {
    /// Requests the router accepted (all routes).
    pub requests: u64,
    /// Responses the router answered 5xx (shard down, retries
    /// exhausted, backend transport failure).
    pub errors_5xx: u64,
    /// Listener `accept()` failures at the router itself.
    pub accept_errors: u64,
    /// Version of the ring currently routing (bumps on every applied
    /// `POST /admin/ring`).
    pub ring_version: u64,
    /// Retries the router's retry budget denied because it was empty:
    /// a rising count means failures are not being retried.
    pub retries_denied: u64,
    /// One entry per configured backend, in ring order.
    pub backends: Vec<BackendStatsDto>,
}

/// One backend's health as the router's `GET /healthz` reports it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackendHealthDto {
    /// The backend's address.
    pub addr: String,
    /// Health-state name: `"healthy"`, `"suspect"`, `"down"`, or
    /// `"recovering"`.
    pub health: String,
    /// Milliseconds since this backend last changed health state —
    /// how long it has been in `health`. A supervisor comparing
    /// replication lag against shard health needs to know whether
    /// "down" means "down for 80 ms" (probe blip) or "down for 20 s"
    /// (promote now). `serde(default)` keeps pre-supervisor health
    /// JSON parseable.
    #[serde(default)]
    pub last_transition_ms: u64,
}

/// Router `GET /healthz` response: overall status plus per-shard
/// health. The router itself is `"ok"` as long as it can answer;
/// `degraded` flags that at least one shard is not healthy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouterHealthzResponse {
    /// `"ok"` when every shard is healthy, `"degraded"` otherwise.
    pub status: String,
    /// Version of the ring currently routing (bumps on every applied
    /// `POST /admin/ring`).
    pub ring_version: u64,
    /// Per-shard health, in ring order.
    pub backends: Vec<BackendHealthDto>,
}

/// `POST /video/{id}/rescore` request body (optional: an empty body
/// means "the service's configured k").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RescoreRequest {
    /// How many red dots to place.
    pub k: usize,
}

/// `POST /admin/compact` response.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompactResponse {
    /// Bytes given back to the filesystem.
    pub reclaimed_bytes: u64,
    /// Dead records dropped.
    pub dropped_records: usize,
    /// Live records carried over.
    pub live_records: usize,
}

impl From<crate::store::CompactStats> for CompactResponse {
    fn from(s: crate::store::CompactStats) -> Self {
        CompactResponse {
            reclaimed_bytes: s.reclaimed_bytes,
            dropped_records: s.dropped_records,
            live_records: s.live_records,
        }
    }
}

/// `POST /admin/export` request body: which slice of this backend's
/// state to bundle up for migration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExportRequest {
    /// Video ids to export; empty means every video this backend
    /// tracks.
    pub videos: Vec<u64>,
    /// Export only state mutated after this KV watermark (`0` = full
    /// export, including chat records). A delta export against a
    /// nonzero watermark ships refinement-state changes only — chat
    /// records are immutable once crawled, so the bulk copy already
    /// has them.
    pub since_seq: u64,
    /// Freeze writes to the exported videos for up to this many
    /// milliseconds (`0` = no freeze). The freeze is the cutover
    /// window: frozen videos answer writes with `503 Retry-After`
    /// until the TTL expires or the freeze is lifted, bounding how
    /// long a migration can block refinement.
    pub freeze_ms: u64,
}

/// One video's migratable state inside a [`BundleDto`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BundleEntryDto {
    /// The video this entry belongs to.
    pub video: u64,
    /// The video's refinement state (`video:{id}` KV value), when it
    /// changed since the request's watermark.
    pub state: Option<serde_json::Value>,
    /// The video's raw chat record, hex-encoded (the JSON layer has no
    /// binary transport). `None` on delta exports and for videos whose
    /// chat was never crawled.
    pub chat_hex: Option<String>,
    /// The video's raw v3 tokenized-corpus record, hex-encoded, so the
    /// destination never re-tokenizes migrated chat. `None` on delta
    /// exports and for videos not yet tokenized on the source
    /// (`serde(default)` keeps pre-v2 bundle JSON parseable).
    #[serde(default)]
    pub tokenized_hex: Option<String>,
}

/// The bundle layout this build writes and accepts. Version 2 added
/// the per-entry tokenized section and folded it into the CRC.
pub const BUNDLE_FORMAT_VERSION: u32 = 2;

/// A consistent migration bundle: the `POST /admin/export` response,
/// shippable verbatim as the `POST /admin/import` request body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BundleDto {
    /// Bundle layout version ([`BUNDLE_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The source's KV op watermark at export time — pass as
    /// `since_seq` on the next delta export to ship only what changed
    /// after this bundle.
    pub as_of_seq: u64,
    /// Per-video state, sorted by video id.
    pub entries: Vec<BundleEntryDto>,
    /// CRC-32 over the canonical serialization of `entries` (see
    /// [`bundle_crc`]); verified on import before anything is applied.
    pub crc32: u32,
}

/// `POST /admin/import` response.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ImportResponse {
    /// Entries in the bundle.
    pub videos: usize,
    /// Refinement states applied to the KV store.
    pub states_applied: usize,
    /// Chat records appended to the chat store.
    pub chats_applied: usize,
    /// Tokenized (v3) companion records appended (byte-identical
    /// re-imports are skipped, like chat records).
    #[serde(default)]
    pub tokenized_applied: usize,
}

/// `POST /admin/ring` request body: the new backend set. The router
/// rebuilds the ring from these addresses, carrying over the health
/// state and connection pools of addresses it already knows.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RingUpdateRequest {
    /// Backend addresses (`host:port`) of the new ring, in ring order.
    pub backends: Vec<String>,
}

/// `POST /admin/ring` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RingUpdateResponse {
    /// The new ring's version (monotonic; the boot ring is version 1).
    pub version: u64,
    /// The addresses now routing.
    pub backends: Vec<String>,
}

/// One replicated range as the supervisor's `GET /stats` reports it:
/// a primary, its warm standby, and how far behind the standby is.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStatusDto {
    /// The primary's address (`host:port`) — the ring member being
    /// shadowed.
    pub primary: String,
    /// The warm standby's address — receives bulk + delta bundles and
    /// is promoted into the ring if the primary dies.
    pub standby: String,
    /// Lifecycle phase: `"bootstrapping"` (no bulk copy yet),
    /// `"replicating"` (delta loop running), `"promoting"` (primary
    /// down, promotion in flight), `"promoted"` (standby swapped into
    /// the ring), or `"retired"` (primary left the ring without a
    /// promotion — a manual ring update superseded the supervisor).
    pub phase: String,
    /// The primary's KV watermark as of the last bundle the standby
    /// imported (`as_of_seq` of that bundle). 0 until bootstrapped.
    pub synced_seq: u64,
    /// KV ops the standby was behind at the last observation: the
    /// primary's watermark minus `synced_seq`. 0 while fully caught
    /// up, and frozen at its last value once the primary is gone.
    pub lag_ops: u64,
    /// Milliseconds since the standby last imported a bundle. Grows
    /// between delta ticks; resets on every successful sync.
    pub lag_ms: u64,
    /// Delta bundles shipped since the supervisor started.
    pub deltas_shipped: u64,
    /// Bulk (full) syncs since the supervisor started — 1 after a
    /// clean bootstrap, more if the standby was re-seeded.
    pub bulk_syncs: u64,
}

/// One completed promotion as the supervisor's `GET /stats` reports
/// it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PromotionDto {
    /// The dead primary the ring dropped.
    pub from: String,
    /// The standby that took over its range.
    pub to: String,
    /// The ring version the swap produced.
    pub ring_version: u64,
    /// Milliseconds since the promotion completed.
    pub ms_ago: u64,
    /// Where the final pre-swap delta came from: `"live"` (the primary
    /// still answered `/admin/export`), `"data_dir"` (rebuilt from the
    /// dead primary's data directory via WAL-tail replay), or `"none"`
    /// (neither reachable — the standby was promoted at its last
    /// synced watermark).
    pub final_delta_source: String,
}

/// Supervisor `GET /stats` response: the reconciliation loop's
/// counters plus one [`ReplicaStatusDto`] per watched range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SupervisorStatsResponse {
    /// Reconciliation ticks (observe → plan → act) completed.
    pub ticks: u64,
    /// Actions executed (bulk syncs + deltas + promotions + retires).
    pub actions: u64,
    /// Promotions driven to completion since start.
    pub promotions: u64,
    /// The most recent completed promotion, if any.
    pub last_promotion: Option<PromotionDto>,
    /// Per-range replication status, in configuration order.
    pub ranges: Vec<ReplicaStatusDto>,
}

/// CRC-32 over the canonical serialization of a bundle's entries:
/// per entry, the decimal video id, the state's JSON text (or `-`),
/// the chat hex (or `-`), and the tokenized hex (or `-`), each
/// newline-terminated. Deterministic across processes — the JSON tree
/// preserves map order end to end — so the importer can verify the
/// shipped bytes before applying any of them.
pub fn bundle_crc(entries: &[BundleEntryDto]) -> u32 {
    let mut buf = Vec::new();
    for e in entries {
        buf.extend_from_slice(e.video.to_string().as_bytes());
        buf.push(b'\n');
        match &e.state {
            Some(v) => buf.extend_from_slice(serde_json::value_to_string(v).as_bytes()),
            None => buf.push(b'-'),
        }
        buf.push(b'\n');
        match &e.chat_hex {
            Some(h) => buf.extend_from_slice(h.as_bytes()),
            None => buf.push(b'-'),
        }
        buf.push(b'\n');
        match &e.tokenized_hex {
            Some(h) => buf.extend_from_slice(h.as_bytes()),
            None => buf.push(b'-'),
        }
        buf.push(b'\n');
    }
    crate::store::crc32(&buf)
}

/// Lowercase hex encoding — how bundles carry raw chat-record bytes
/// through JSON (no binary or base64 support in the vendored layer).
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[usize::from(b >> 4)] as char);
        s.push(HEX[usize::from(b & 0xF)] as char);
    }
    s
}

/// Decode [`hex_encode`] output; `None` on odd length or a non-hex
/// digit (case-insensitive).
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// Why a [`StreamBatchDto`] line was rejected (a semantic error: the
/// JSON was well-formed, the content is not a foldable batch).
///
/// The paper's pipeline filters *abnormal* viewer behaviour
/// statistically (Section V-B), but non-finite or negative timestamps
/// are not behaviour at all — they are client bugs, and letting them
/// into the play buffers would poison every downstream aggregate
/// (`f64` comparisons against NaN are always false, so a single NaN
/// play survives every filter). They are rejected at the wire edge,
/// as is a batch without the `seq` that makes its retry safe.
#[derive(Clone, Debug, PartialEq)]
pub enum UploadError {
    /// The batch carries no `seq` (absent or `null`): its ack could
    /// not be retried without folding it twice.
    MissingSeq,
    /// An event carries a NaN or infinite timestamp.
    NonFiniteTimestamp {
        /// Index of the offending event in `events`.
        event: usize,
    },
    /// An event carries a negative timestamp (video time starts at 0).
    NegativeTimestamp {
        /// Index of the offending event in `events`.
        event: usize,
    },
    /// The batch has no events — nothing to learn from.
    NoEvents,
    /// The server does not track this video (fetch its dots first).
    ///
    /// Never produced by [`StreamBatchDto::validate`] (the DTO cannot
    /// know the catalog); the serving layer raises it when the lookup
    /// misses.
    UnknownVideo {
        /// The id the client sent.
        video: u64,
    },
    /// The line names another video than the stream's first batch.
    /// A stream is routed by its first batch's video, so it carries
    /// that one video only; raised by the serving layer.
    VideoMismatch {
        /// The id the line sent.
        video: u64,
        /// The video the stream's first batch named.
        stream_video: u64,
    },
}

impl UploadError {
    /// Stable machine-readable code for error payloads.
    pub fn code(&self) -> &'static str {
        match self {
            UploadError::MissingSeq => "missing_seq",
            UploadError::NonFiniteTimestamp { .. } => "non_finite_timestamp",
            UploadError::NegativeTimestamp { .. } => "negative_timestamp",
            UploadError::NoEvents => "no_events",
            UploadError::UnknownVideo { .. } => "unknown_video",
            UploadError::VideoMismatch { .. } => "video_mismatch",
        }
    }
}

impl std::fmt::Display for UploadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UploadError::MissingSeq => write!(f, "batch carries no seq"),
            UploadError::NonFiniteTimestamp { event } => {
                write!(f, "event {event} has a NaN or infinite timestamp")
            }
            UploadError::NegativeTimestamp { event } => {
                write!(f, "event {event} has a negative timestamp")
            }
            UploadError::NoEvents => write!(f, "session carries no events"),
            UploadError::UnknownVideo { video } => {
                write!(f, "video {video} is not tracked; fetch its dots first")
            }
            UploadError::VideoMismatch {
                video,
                stream_video,
            } => write!(
                f,
                "video {video} in a stream of video {stream_video}; open one stream per video"
            ),
        }
    }
}

impl std::error::Error for UploadError {}

/// The body of `POST /sessions` (one line) and each NDJSON line of
/// `POST /sessions/stream`: an event batch for one video from one
/// client, with the client-assigned sequence that makes a retried
/// batch safe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamBatchDto {
    /// The video being watched.
    pub video: u64,
    /// Anonymous client id (the replay watermark is per
    /// `(video, client)`).
    pub client: u64,
    /// Client-assigned batch sequence, strictly increasing per
    /// `(video, client)` session. A batch at or below the acknowledged
    /// watermark is recognized as a replay and not folded twice.
    /// Required: a line without it (absent or `null`) is rejected
    /// `missing_seq`. The `Option` stays only for the in-process
    /// replay in `loadbench/`, and goes with ROADMAP item 2's
    /// benchmark change.
    #[serde(default)]
    pub seq: Option<u64>,
    /// Ordered player events in this batch.
    pub events: Vec<EventDto>,
}

impl StreamBatchDto {
    /// Check the batch has a `seq` and events, and that every event
    /// timestamp is finite and non-negative.
    ///
    /// Returns the first offending event, in upload order, so clients
    /// get an actionable pointer instead of a blanket rejection.
    pub fn validate(&self) -> Result<(), UploadError> {
        if self.seq.is_none() {
            return Err(UploadError::MissingSeq);
        }
        if self.events.is_empty() {
            return Err(UploadError::NoEvents);
        }
        for (event, e) in self.events.iter().enumerate() {
            let ts: &[f64] = match e {
                EventDto::Play { at } | EventDto::Pause { at } | EventDto::Leave { at } => {
                    std::slice::from_ref(at)
                }
                EventDto::Seek { from, to } => &[*from, *to],
            };
            for &t in ts {
                if !t.is_finite() {
                    return Err(UploadError::NonFiniteTimestamp { event });
                }
                if t < 0.0 {
                    return Err(UploadError::NegativeTimestamp { event });
                }
            }
        }
        Ok(())
    }

    /// Validate, then convert into the domain session type, moving the
    /// events rather than copying them.
    ///
    /// This is the ingestion path: a bad batch comes back as a typed
    /// [`UploadError`] (a rejected line at the HTTP edge) instead of
    /// poisoning the play buffers.
    pub fn try_into_session(self) -> Result<(VideoId, Session), UploadError> {
        self.validate()?;
        let events = self.events.into_iter().map(Interaction::from).collect();
        Ok((
            VideoId(self.video),
            Session::new(UserId(self.client), events),
        ))
    }

    /// A clone of this batch. Only `loadbench/src/replay.rs` calls it;
    /// it goes with the `Option` on [`StreamBatchDto::seq`] in
    /// ROADMAP item 2's benchmark change.
    #[doc(hidden)]
    pub fn as_upload(&self) -> Self {
        self.clone()
    }
}

/// One rejected NDJSON line inside a [`StreamAccepted`] ack.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LineRejectDto {
    /// 1-based line number within the stream.
    pub line: u64,
    /// Stable machine-readable code (`bad_json`, `line_too_long`, the
    /// [`UploadError`] codes, …).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// `POST /sessions` and `POST /sessions/stream` success ack (200):
/// per-stream totals plus every rejected line. Rejected lines do not
/// fail the stream until the error budget is exhausted. `Default` is
/// the zero-line ack of an empty or all-blank stream.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamAccepted {
    /// NDJSON lines accepted and folded (or recognized as replays).
    pub lines_accepted: u64,
    /// Lines rejected with a typed per-line error.
    pub lines_rejected: u64,
    /// Batches folded into refinement state.
    pub batches_folded: u64,
    /// Batches recognized as idempotent replays and skipped.
    pub batches_replayed: u64,
    /// Plays buffered against dots across the stream.
    pub plays_buffered: u64,
    /// Refinement rounds completed across the stream.
    pub dots_refined: u64,
    /// Highest sequence among the stream's acknowledged lines, folded
    /// or replayed (0 when none was) — the client resumes replay from
    /// the next sequence after a crash.
    pub last_seq: u64,
    /// The rejected lines, in stream order.
    pub rejected: Vec<LineRejectDto>,
}

/// `POST /sessions` and `POST /sessions/stream` terminal failure (the
/// stream was cut):
/// which line ended it and everything rejected up to that point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamRejected {
    /// Stable machine-readable code (`error_budget_exhausted`, …).
    pub error: String,
    /// 1-based line number the stream died on.
    pub line: u64,
    /// The rejected lines, in stream order.
    pub rejected: Vec<LineRejectDto>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_round_trip() {
        let dot = RedDot::new(123.5, 0.87);
        let dto: DotDto = dot.into();
        let back: RedDot = dto.into();
        assert_eq!(dot, back);
        let js = serde_json::to_string(&dto).unwrap();
        assert!(js.contains("123.5"));
    }

    #[test]
    fn seek_direction_is_inferred() {
        let fwd: Interaction = EventDto::Seek {
            from: 10.0,
            to: 50.0,
        }
        .into();
        assert!(matches!(fwd, Interaction::SeekForward { .. }));
        let back: Interaction = EventDto::Seek {
            from: 50.0,
            to: 10.0,
        }
        .into();
        assert!(matches!(back, Interaction::SeekBackward { .. }));
    }

    #[test]
    fn session_upload_converts() {
        let batch = StreamBatchDto {
            video: 7,
            client: 99,
            seq: Some(1),
            events: vec![
                EventDto::Play { at: 100.0 },
                EventDto::Seek {
                    from: 110.0,
                    to: 90.0,
                },
                EventDto::Pause { at: 120.0 },
            ],
        };
        let js = serde_json::to_string(&batch).unwrap();
        let parsed: StreamBatchDto = serde_json::from_str(&js).unwrap();
        let (vid, session) = parsed.try_into_session().unwrap();
        assert_eq!(vid, VideoId(7));
        assert_eq!(session.user, UserId(99));
        assert_eq!(session.plays().len(), 2);
    }

    #[test]
    fn stats_response_round_trips() {
        let dto = StatsResponse {
            stored_videos: 3,
            tracked_videos: 2,
            corpus_cache_hits: 10,
            corpus_cache_misses: 3,
            tokenized_hits: 6,
            tokenized_misses: 2,
            tokenized_lazy_upgrades: 2,
            train_boot_ms: 1234,
            record_cache_hits: 7,
            record_cache_misses: 4,
            kv_wal_bytes: 512,
            kv_wal_appends: 21,
            kv_shard_rewrites: 2,
            chat_dead_bytes: 4096,
            chat_reclaimed_bytes: 8192,
            degraded: true,
            ..Default::default()
        };
        let js = serde_json::to_string(&dto).unwrap();
        let back: StatsResponse = serde_json::from_str(&js).unwrap();
        assert_eq!(dto, back);
        assert_eq!(back.stored_videos, 3);
        assert_eq!(back.corpus_cache_hits, 10);
        assert_eq!(back.kv_wal_appends, 21);
        assert_eq!(back.kv_shard_rewrites, 2);
        assert_eq!(back.chat_reclaimed_bytes, 8192);
        assert_eq!(back.tokenized_hits, 6);
        assert_eq!(back.tokenized_lazy_upgrades, 2);
        assert_eq!(back.train_boot_ms, 1234);
        assert!(back.degraded);
        assert_eq!(back.accept_errors, 0);
        assert_eq!(back.stream_lines_accepted, 0);

        // Pre-streaming stats JSON (no stream_* fields) must parse
        // with the counters defaulted, not fail.
        let js = js
            .split(",\"stream_lines_accepted\"")
            .next()
            .unwrap()
            .to_string()
            + ",\"http\":[]}";
        let old: StatsResponse = serde_json::from_str(&js).unwrap();
        assert_eq!(old.stream_open, 0);
        assert_eq!(old.stored_videos, 3);
    }

    #[test]
    fn stream_dtos_round_trip() {
        let batch = StreamBatchDto {
            video: 7,
            client: 99,
            seq: Some(3),
            events: vec![EventDto::Play { at: 1.0 }, EventDto::Pause { at: 9.0 }],
        };
        let js = serde_json::to_string(&batch).unwrap();
        let back: StreamBatchDto = serde_json::from_str(&js).unwrap();
        assert_eq!(batch, back);
        // A line with no `seq` key, or `"seq": null`, parses with None
        // and fails validation.
        for line in [
            r#"{"video":7,"client":99,"events":[{"type":"play","at":1.0}]}"#,
            r#"{"video":7,"client":99,"seq":null,"events":[{"type":"play","at":1.0}]}"#,
        ] {
            let unseq: StreamBatchDto = serde_json::from_str(line).unwrap();
            assert_eq!(unseq.seq, None);
            assert_eq!(unseq.validate(), Err(UploadError::MissingSeq));
        }

        let ack = StreamAccepted {
            lines_accepted: 5,
            lines_rejected: 2,
            batches_folded: 4,
            batches_replayed: 1,
            plays_buffered: 40,
            dots_refined: 2,
            last_seq: 5,
            rejected: vec![LineRejectDto {
                line: 3,
                code: "bad_json".into(),
                message: "line 3 is not valid JSON".into(),
            }],
        };
        let back: StreamAccepted =
            serde_json::from_str(&serde_json::to_string(&ack).unwrap()).unwrap();
        assert_eq!(ack, back);

        let cut = StreamRejected {
            error: "error_budget_exhausted".into(),
            line: 19,
            rejected: Vec::new(),
        };
        let back: StreamRejected =
            serde_json::from_str(&serde_json::to_string(&cut).unwrap()).unwrap();
        assert_eq!(cut, back);
    }

    #[test]
    fn router_stats_round_trip() {
        let dto = RouterStatsResponse {
            requests: 100,
            errors_5xx: 3,
            accept_errors: 1,
            ring_version: 2,
            retries_denied: 4,
            backends: vec![
                BackendStatsDto {
                    addr: "127.0.0.1:7879".into(),
                    health: "healthy".into(),
                    proxied: 60,
                    proxy_errors: 0,
                    retries: 2,
                    probe_failures: 0,
                    breaker_trips: 0,
                    unreachable: false,
                    stats: Some(StatsResponse {
                        stored_videos: 1,
                        ..Default::default()
                    }),
                },
                BackendStatsDto {
                    addr: "127.0.0.1:7880".into(),
                    health: "down".into(),
                    proxied: 40,
                    proxy_errors: 3,
                    retries: 6,
                    probe_failures: 9,
                    breaker_trips: 1,
                    unreachable: true,
                    stats: None,
                },
            ],
        };
        let js = serde_json::to_string(&dto).unwrap();
        let back: RouterStatsResponse = serde_json::from_str(&js).unwrap();
        assert_eq!(dto, back);
        assert_eq!(back.ring_version, 2);
        assert!(back.backends[0].stats.is_some());
        assert!(!back.backends[0].unreachable);
        assert!(back.backends[1].stats.is_none(), "down shard has no stats");
        assert!(back.backends[1].unreachable, "partial aggregate is marked");
    }

    #[test]
    fn router_healthz_round_trip() {
        let dto = RouterHealthzResponse {
            status: "degraded".into(),
            ring_version: 1,
            backends: vec![
                BackendHealthDto {
                    addr: "127.0.0.1:7879".into(),
                    health: "healthy".into(),
                    last_transition_ms: 12_500,
                },
                BackendHealthDto {
                    addr: "127.0.0.1:7880".into(),
                    health: "suspect".into(),
                    last_transition_ms: 80,
                },
            ],
        };
        let js = serde_json::to_string(&dto).unwrap();
        let back: RouterHealthzResponse = serde_json::from_str(&js).unwrap();
        assert_eq!(dto, back);
        assert!(js.contains("\"suspect\""), "{js}");
        assert!(js.contains("\"last_transition_ms\":80"), "{js}");
        // Pre-supervisor health rows have no transition stamp; the
        // field must default rather than fail the parse.
        let old: BackendHealthDto =
            serde_json::from_str(r#"{"addr":"127.0.0.1:7879","health":"down"}"#).unwrap();
        assert_eq!(old.last_transition_ms, 0);
    }

    #[test]
    fn supervisor_stats_round_trip() {
        let dto = SupervisorStatsResponse {
            ticks: 412,
            actions: 39,
            promotions: 1,
            last_promotion: Some(PromotionDto {
                from: "127.0.0.1:7881".into(),
                to: "127.0.0.1:7891".into(),
                ring_version: 2,
                ms_ago: 1_800,
                final_delta_source: "data_dir".into(),
            }),
            ranges: vec![
                ReplicaStatusDto {
                    primary: "127.0.0.1:7880".into(),
                    standby: "127.0.0.1:7890".into(),
                    phase: "replicating".into(),
                    synced_seq: 941,
                    lag_ops: 3,
                    lag_ms: 120,
                    deltas_shipped: 37,
                    bulk_syncs: 1,
                },
                ReplicaStatusDto {
                    primary: "127.0.0.1:7881".into(),
                    standby: "127.0.0.1:7891".into(),
                    phase: "promoted".into(),
                    synced_seq: 502,
                    lag_ops: 0,
                    lag_ms: 1_900,
                    deltas_shipped: 12,
                    bulk_syncs: 1,
                },
            ],
        };
        let js = serde_json::to_string(&dto).unwrap();
        let back: SupervisorStatsResponse = serde_json::from_str(&js).unwrap();
        assert_eq!(dto, back);
        assert!(js.contains("\"phase\":\"promoted\""), "{js}");
        assert!(js.contains("\"final_delta_source\":\"data_dir\""), "{js}");

        // No promotion yet: the option serializes as null and parses
        // back.
        let quiet = SupervisorStatsResponse {
            ticks: 1,
            actions: 0,
            promotions: 0,
            last_promotion: None,
            ranges: Vec::new(),
        };
        let js = serde_json::to_string(&quiet).unwrap();
        let back: SupervisorStatsResponse = serde_json::from_str(&js).unwrap();
        assert_eq!(quiet, back);
    }

    #[test]
    fn event_json_is_tagged() {
        let js = serde_json::to_string(&EventDto::Play { at: 1.0 }).unwrap();
        assert!(js.contains("\"type\":\"play\""), "{js}");
    }

    fn upload(events: Vec<EventDto>) -> StreamBatchDto {
        StreamBatchDto {
            video: 7,
            client: 99,
            seq: Some(1),
            events,
        }
    }

    #[test]
    fn bad_payload_matrix_is_rejected_with_typed_errors() {
        // (events, expected code, offending index) — every way a client
        // can hand us garbage timestamps, plus the empty batch.
        let cases: Vec<(Vec<EventDto>, &str, Option<usize>)> = vec![
            (vec![], "no_events", None),
            (
                vec![EventDto::Play { at: f64::NAN }],
                "non_finite_timestamp",
                Some(0),
            ),
            (
                vec![
                    EventDto::Play { at: 1.0 },
                    EventDto::Pause { at: f64::INFINITY },
                ],
                "non_finite_timestamp",
                Some(1),
            ),
            (
                vec![EventDto::Leave {
                    at: f64::NEG_INFINITY,
                }],
                "non_finite_timestamp",
                Some(0),
            ),
            (
                vec![
                    EventDto::Play { at: 5.0 },
                    EventDto::Seek {
                        from: 5.0,
                        to: f64::NAN,
                    },
                ],
                "non_finite_timestamp",
                Some(1),
            ),
            (
                vec![EventDto::Play { at: -0.5 }],
                "negative_timestamp",
                Some(0),
            ),
            (
                vec![
                    EventDto::Play { at: 0.0 },
                    EventDto::Seek {
                        from: -3.0,
                        to: 9.0,
                    },
                ],
                "negative_timestamp",
                Some(1),
            ),
            (
                vec![EventDto::Pause { at: -1e9 }],
                "negative_timestamp",
                Some(0),
            ),
        ];
        for (events, code, index) in cases {
            let up = upload(events);
            let err = up.validate().expect_err(code);
            assert_eq!(err.code(), code, "{err}");
            match (&err, index) {
                (UploadError::NonFiniteTimestamp { event }, Some(i))
                | (UploadError::NegativeTimestamp { event }, Some(i)) => {
                    assert_eq!(*event, i, "{err}")
                }
                (UploadError::NoEvents, None) => {}
                other => panic!("unexpected error shape: {other:?}"),
            }
            // try_into_session must agree with validate.
            assert_eq!(up.try_into_session().unwrap_err().code(), code);
        }
        // A missing seq is reported before any event is looked at.
        let unsequenced = StreamBatchDto {
            seq: None,
            ..upload(vec![])
        };
        assert_eq!(unsequenced.validate(), Err(UploadError::MissingSeq));
        assert_eq!(UploadError::MissingSeq.code(), "missing_seq");
    }

    #[test]
    fn good_payload_passes_validation() {
        let up = upload(vec![
            EventDto::Play { at: 0.0 },
            EventDto::Seek {
                from: 10.0,
                to: 700.5,
            },
            EventDto::Pause { at: 725.0 },
            EventDto::Leave { at: 725.0 },
        ]);
        up.validate().unwrap();
        let (vid, session) = up.try_into_session().unwrap();
        assert_eq!(vid, VideoId(7));
        assert_eq!(session.events.len(), 4);
    }

    #[test]
    fn upload_error_display_and_codes_are_stable() {
        let e = UploadError::UnknownVideo { video: 42 };
        assert_eq!(e.code(), "unknown_video");
        assert!(e.to_string().contains("42"));
        assert!(UploadError::NoEvents.to_string().contains("no events"));
        let e = UploadError::VideoMismatch {
            video: 9,
            stream_video: 7,
        };
        assert_eq!(e.code(), "video_mismatch");
        assert!(e.to_string().contains("video 9 in a stream of video 7"));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let all: Vec<u8> = (0..=255u8).collect();
        let hex = hex_encode(&all);
        assert_eq!(hex.len(), 512);
        assert_eq!(hex_decode(&hex).unwrap(), all);
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert_eq!(hex_decode(&hex.to_ascii_uppercase()).unwrap(), all);
        assert!(hex_decode("abc").is_none(), "odd length");
        assert!(hex_decode("zz").is_none(), "non-hex digit");
    }

    #[test]
    fn bundle_round_trips_and_crc_detects_tampering() {
        let entries = vec![
            BundleEntryDto {
                video: 7,
                state: Some(serde_json::Value::Map(vec![(
                    "dots".to_owned(),
                    serde_json::Value::Seq(vec![serde_json::Value::F64(12.5)]),
                )])),
                chat_hex: Some(hex_encode(b"raw chat record bytes")),
                tokenized_hex: Some(hex_encode(b"raw v3 record bytes")),
            },
            BundleEntryDto {
                video: 9,
                state: None,
                chat_hex: None,
                tokenized_hex: None,
            },
        ];
        let dto = BundleDto {
            format_version: 2,
            as_of_seq: 42,
            crc32: bundle_crc(&entries),
            entries,
        };
        let js = serde_json::to_string(&dto).unwrap();
        let back: BundleDto = serde_json::from_str(&js).unwrap();
        assert_eq!(dto, back);
        // The CRC survives the wire round trip (the canonical form is
        // process-independent)...
        assert_eq!(bundle_crc(&back.entries), back.crc32);
        // ...and flips when any entry is altered.
        let mut tampered = back.clone();
        tampered.entries[0].video = 8;
        assert_ne!(bundle_crc(&tampered.entries), tampered.crc32);
        let mut tampered = back.clone();
        tampered.entries[0].chat_hex = Some(hex_encode(b"other bytes"));
        assert_ne!(bundle_crc(&tampered.entries), tampered.crc32);
        let mut tampered = back.clone();
        tampered.entries[0].tokenized_hex = None;
        assert_ne!(
            bundle_crc(&tampered.entries),
            tampered.crc32,
            "the tokenized section is covered by the CRC"
        );
    }

    #[test]
    fn export_import_ring_dtos_round_trip() {
        let req = ExportRequest {
            videos: vec![3, 5],
            since_seq: 17,
            freeze_ms: 400,
        };
        let back: ExportRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(req, back);

        let resp = ImportResponse {
            videos: 2,
            states_applied: 2,
            chats_applied: 1,
            tokenized_applied: 1,
        };
        let back: ImportResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(resp, back);

        let ring = RingUpdateRequest {
            backends: vec!["127.0.0.1:7801".into(), "127.0.0.1:7802".into()],
        };
        let back: RingUpdateRequest =
            serde_json::from_str(&serde_json::to_string(&ring).unwrap()).unwrap();
        assert_eq!(ring, back);

        let resp = RingUpdateResponse {
            version: 2,
            backends: ring.backends.clone(),
        };
        let back: RingUpdateResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn route_stats_round_trip() {
        let dto = RouteStatsDto {
            route: "GET /video/{id}/dots".into(),
            requests: 12,
            errors: 1,
            latency_total_us: 3400,
            latency_max_us: 900,
        };
        let js = serde_json::to_string(&dto).unwrap();
        let back: RouteStatsDto = serde_json::from_str(&js).unwrap();
        assert_eq!(dto, back);
    }
}
