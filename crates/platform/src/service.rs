//! The web-service core (paper Section VI-A, Figure 5).
//!
//! Request flow: a viewer opens a recorded video → the service looks the
//! chat up in the store (crawling on miss) → the Highlight Initializer
//! places red dots → the front end renders them → viewer interactions
//! stream back in → each ripe dot runs one Algorithm 2 step
//! ([`lightor::HighlightExtractor::step`], the same step the offline loop
//! runs) over the plays accumulated for it, and the updated positions
//! are persisted.
//!
//! # Concurrency
//!
//! The hot path is sharded so concurrent viewers don't serialize:
//!
//! * per-video refinement state lives behind its own `VideoEntry`
//!   (a mutex'd [`VideoState`] plus an RCU-published read snapshot),
//!   reached through an `RwLock`'d map — sessions and refinement
//!   rounds on *different* videos proceed in parallel, and the map's
//!   write lock is only taken on first sight of a video;
//! * dot *reads* never touch the per-video state mutex: every path
//!   that installs an entry or changes dot positions (first sight, a
//!   round that steps a dot, a bundle import, a restart's reload)
//!   publishes an immutable snapshot of the dots *and* their encoded
//!   [`DotsResponse`] body (an RCU-style swap). The encode runs once
//!   per publish, on the publishing thread: a warm `GET
//!   /video/{id}/dots` ([`LightorService::dots_body`]) shares the
//!   published body and encodes nothing, and
//!   [`LightorService::cached_dots`] copies the dots. A refinement
//!   round folding a large batch cannot stall either;
//! * the storage pair (chat log + KV snapshots) sits behind a single
//!   mutex, touched only on cold opens, re-scores and state
//!   persistence; a first sight tokenizes the platform's replay before
//!   taking it, and holds it only for the one crawl that stores the
//!   chat record and its tokenized companion under a single chat-log
//!   sync;
//! * no corpus is held in memory: each re-score
//!   ([`LightorService::rescore_video`]) builds its corpus from the
//!   video's persisted v3 companion, so it never re-tokenizes.
//!
//! Lock order is strictly `videos map → per-video state → stores`;
//! the freeze map and each entry's snapshot lock are leaf locks. No
//! path acquires them in any other order, which rules out deadlock.
//!
//! # Incremental ingestion
//!
//! [`LightorService::refine_batch`] is the only ingestion entry point;
//! the one HTTP session handler calls it once per NDJSON line. It
//! buffers one event batch against the nearest dots, steps
//! every dot with at least `min_plays_per_round` buffered plays,
//! republishes the dot snapshot, and persists *before* the caller
//! acknowledges — buffered plays and per-session sequence watermarks
//! are part of [`VideoState`], so a SIGKILL loses only unacknowledged
//! batches and an acknowledged batch replayed after a crash (same
//! `(client, seq)`) is recognized and not folded twice. Plays near a
//! converged dot are dropped, so a video whose dots have all converged
//! stops growing its persisted state.
//!
//! The durable record of an ack is the change it made, not the video:
//! one [`KvStore::merge`] patch holding the acknowledging client's
//! watermark, plus the `dots` array only when the batch buffered a
//! play or changed a dot. An ack on a video whose dots have converged
//! therefore logs a few dozen bytes however large its audience. The KV
//! store applies each patch to its materialized value, so snapshots,
//! recovery and migration exports still see whole states. First-sight
//! initialization and bundle imports write whole states with `put`, as
//! does the next persist after a failed one.

use crate::crawler::{Crawler, OnlineCrawl};
use crate::store::{format, ChatStore, FaultInjector, KvStore};
use crate::wire::{
    self, BundleDto, BundleEntryDto, DotsResponse, ExportRequest, ImportResponse, StatsResponse,
    BUNDLE_FORMAT_VERSION,
};
use lightor::{DotProgress, ModelBundle, TokenizedChat};
use lightor_chatsim::SimPlatform;
use lightor_types::{ChatLogView, Play, PlaySet, RedDot, Sec, Session, VideoId};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Red dots per video.
    pub top_k: usize,
    /// Minimum buffered plays before a dot runs a refinement round.
    pub min_plays_per_round: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            top_k: 5,
            min_plays_per_round: 8,
        }
    }
}

/// Persistent per-dot refinement state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DotState {
    /// The dot as the Initializer placed it.
    pub initial: RedDot,
    /// Current (refined) position.
    pub current: Sec,
    /// Extracted end boundary, once a Type II round succeeded.
    pub end: Option<Sec>,
    /// Start of the previous Type II boundary (convergence detection).
    pub last_type2_start: Option<Sec>,
    /// Refinement rounds run so far.
    pub rounds: usize,
    /// Whether Algorithm 2 has stopped for this dot (the convergence
    /// rule of [`lightor::HighlightExtractor::step`]).
    pub converged: bool,
    /// Plays accumulated since the last round. Persisted (with
    /// `default` for pre-streaming states, which never wrote them):
    /// an acknowledged batch whose plays have not yet crossed the
    /// refinement threshold must survive a crash, or its idempotent
    /// replay would be skipped *and* its plays lost.
    #[serde(default)]
    pending: Vec<Play>,
}

/// The acknowledged batch-sequence watermark of one `(video, client)`
/// streaming session: a batch at or below `seq` has already been
/// folded (and made durable), so replaying it is a recognized no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSeq {
    /// The client id the watermark belongs to.
    pub client: u64,
    /// Highest acknowledged batch sequence.
    pub seq: u64,
}

/// Refinement state of one video.
///
/// Persisted as `{"dots": [...], "sessions": {"<client>": seq, ...}}`:
/// keying the watermarks by client id lets an ack's merge patch touch
/// one watermark without restating the others. A state with no
/// `sessions` (written before streaming ingest) has no watermarks; a
/// `sessions` in any other form than that object does not decode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VideoState {
    /// Per-dot state, in initializer rank order.
    pub dots: Vec<DotState>,
    /// Per-client acknowledged batch sequences, sorted by client id.
    pub sessions: Vec<SessionSeq>,
}

/// The merge-patch form of one watermark: `{"<client>": seq}`.
fn watermark_field(s: &SessionSeq) -> (String, serde_json::Value) {
    (s.client.to_string(), serde_json::Value::U64(s.seq))
}

impl Serialize for VideoState {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Map(vec![
            ("dots".to_owned(), self.dots.to_value()),
            (
                "sessions".to_owned(),
                serde_json::Value::Map(self.sessions.iter().map(watermark_field).collect()),
            ),
        ])
    }
}

impl Deserialize for VideoState {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde::Error> {
        let mut sessions = match v.get_key("sessions") {
            None => Vec::new(),
            Some(serde_json::Value::Map(entries)) => entries
                .iter()
                .map(|(client, seq)| {
                    Ok(SessionSeq {
                        client: client.parse().map_err(|_| {
                            serde::Error::custom(format!("bad session client id `{client}`"))
                        })?,
                        seq: u64::from_value(seq)?,
                    })
                })
                .collect::<Result<Vec<_>, serde::Error>>()?,
            Some(_) => return Err(serde::Error::custom("`sessions` is not an object")),
        };
        sessions.sort_unstable_by_key(|s| s.client);
        Ok(VideoState {
            dots: serde::get_field(v, "dots")?,
            sessions,
        })
    }
}

/// What one [`LightorService::refine_batch`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Plays buffered against dots by this batch.
    pub plays_buffered: usize,
    /// Dots that ran a refinement round.
    pub dots_refined: usize,
    /// The batch's sequence was at or below the acknowledged
    /// watermark: nothing was folded (idempotent replay).
    pub replayed: bool,
}

/// One tracked video: its mutable refinement state plus what readers
/// share. Writers mutate `state` under its mutex and republish; readers
/// copy out of `published` without ever touching the state mutex
/// (RCU-style: the snapshot is swapped under a leaf lock held for
/// nanoseconds).
struct VideoEntry {
    video: VideoId,
    state: Mutex<VideoState>,
    published: RwLock<Snapshot>,
    /// Set when persisting `state` failed, so the stored value may lag
    /// it: the next persist writes the whole state instead of a patch.
    /// Only read or written with the `state` mutex held, which orders
    /// every access, so `Relaxed` suffices.
    stored_behind: AtomicBool,
}

/// The read side of one video, built once per publish: the dots and
/// their encoded [`DotsResponse`] body. A warm `GET /video/{id}/dots`
/// shares `body` and encodes nothing.
struct Snapshot {
    dots: Vec<RedDot>,
    body: Arc<[u8]>,
}

impl Snapshot {
    /// The read-side projection of a state (current positions, initial
    /// scores) and its JSON body.
    fn of(video: VideoId, state: &VideoState) -> Self {
        let dots: Vec<RedDot> = state
            .dots
            .iter()
            .map(|d| RedDot::new(d.current, d.initial.score))
            .collect();
        let body = serde_json::to_vec(&DotsResponse {
            video: video.0,
            dots: dots.iter().map(|&d| d.into()).collect(),
        })
        .expect("wire DTOs always serialize");
        Snapshot {
            dots,
            body: body.into(),
        }
    }
}

impl VideoEntry {
    /// An entry publishing `state`. Built before the entry is shared,
    /// so the encode runs on the installing thread, never on a reader.
    fn new(video: VideoId, state: VideoState) -> Arc<Self> {
        let published = RwLock::new(Snapshot::of(video, &state));
        Arc::new(VideoEntry {
            video,
            state: Mutex::new(state),
            published,
            stored_behind: AtomicBool::new(false),
        })
    }

    /// Build and swap in a fresh snapshot. Callers hold the state
    /// mutex, which serializes publishers; readers never wait on it,
    /// and the encode runs before the swap's write lock is taken.
    fn publish(&self, state: &VideoState) {
        let fresh = Snapshot::of(self.video, state);
        let _old = std::mem::replace(&mut *self.published.write(), fresh);
    }

    /// The published dots (never blocks on the state mutex).
    fn dots(&self) -> Vec<RedDot> {
        self.published.read().dots.clone()
    }

    /// The published response body, shared, not copied.
    fn body(&self) -> Arc<[u8]> {
        self.published.read().body.clone()
    }
}

/// The KV key prefix of every video's refinement state.
const VIDEO_PREFIX: &str = "video:";

/// The KV key holding `video`'s refinement state.
fn video_key(video: VideoId) -> String {
    format!("{VIDEO_PREFIX}{}", video.0)
}

/// The video a KV key holds the state of, if it is a video key.
fn video_of_key(key: &str) -> Option<VideoId> {
    key.strip_prefix(VIDEO_PREFIX)?.parse().ok().map(VideoId)
}

/// The storage pair: cold opens, re-scores and persistence only.
struct Stores {
    chat: ChatStore,
    kv: KvStore,
}

/// The LIGHTOR web service.
pub struct LightorService {
    models: ModelBundle,
    cfg: ServiceConfig,
    platform: SimPlatform,
    stores: Mutex<Stores>,
    videos: RwLock<HashMap<VideoId, Arc<VideoEntry>>>,
    /// Corpus loads decoded from persisted v3 records (no tokenizing).
    tok_hits: AtomicU64,
    /// Corpus loads that re-tokenized chat (then upgraded lazily).
    tok_misses: AtomicU64,
    /// v3 companions persisted by the lazy-upgrade path.
    tok_upgrades: AtomicU64,
    /// Boot-time training wall time, reported by the serve binary.
    train_boot_ms: AtomicU64,
    /// One injector shared by both stores — the chaos/recovery tests'
    /// handle into the storage I/O of a live service.
    fault: FaultInjector,
    /// Set when persistence hits an I/O error: warm reads keep working,
    /// writes are refused until storage recovers (successful compact).
    degraded: AtomicBool,
    /// Per-video write-freeze deadlines — the migration cutover window.
    /// Frozen videos answer writes with 503 + Retry-After at the HTTP
    /// edge until the deadline passes (expiry is lazy, on lookup), so a
    /// stalled migration can never block refinement for longer than the
    /// TTL it asked for. Leaf lock: never held across any other lock.
    frozen: Mutex<HashMap<VideoId, Instant>>,
}

impl LightorService {
    /// Open the service with storage under `dir`, trained `models`, and a
    /// platform to crawl from. Previously persisted dot states are
    /// reloaded from the KV store.
    pub fn open(
        dir: &Path,
        models: ModelBundle,
        platform: SimPlatform,
        cfg: ServiceConfig,
    ) -> std::io::Result<Self> {
        let mut chat = ChatStore::open(dir.join("chat"))?;
        let mut kv = KvStore::open(dir.join("state"))?;
        // Both stores share one injector so a test can arm chat-log and
        // KV faults through a single handle on the live service.
        let fault = FaultInjector::new();
        chat.set_fault_injector(fault.clone());
        kv.set_fault_injector(fault.clone());
        // A state that does not decode fails the open: skipping it would
        // let the video's next first sight overwrite it, watermarks and
        // all, and a replayed batch would then be folded twice.
        let mut videos = HashMap::new();
        for (key, stored) in kv.with_prefix(VIDEO_PREFIX) {
            let undecodable =
                |why| invalid_data(format!("stored state {key} does not decode: {why}"));
            let video =
                video_of_key(key).ok_or_else(|| undecodable("not a video id".to_owned()))?;
            let state =
                serde_json::from_value_ref(stored).map_err(|e| undecodable(e.to_string()))?;
            videos.insert(video, VideoEntry::new(video, state));
        }
        Ok(LightorService {
            models,
            cfg,
            platform,
            stores: Mutex::new(Stores { chat, kv }),
            videos: RwLock::new(videos),
            tok_hits: AtomicU64::new(0),
            tok_misses: AtomicU64::new(0),
            tok_upgrades: AtomicU64::new(0),
            train_boot_ms: AtomicU64::new(0),
            fault,
            degraded: AtomicBool::new(false),
            frozen: Mutex::new(HashMap::new()),
        })
    }

    /// Handle a "viewer opened video X" request: returns the current red
    /// dots, crawling chat and initializing dots on first sight.
    /// `Ok(None)` means the platform does not know the video.
    pub fn open_video(&self, video: VideoId) -> std::io::Result<Option<Vec<RedDot>>> {
        Ok(self.open_entry(video, true)?.map(|entry| entry.dots()))
    }

    /// The `GET /video/{id}/dots` body of `video`: its [`DotsResponse`]
    /// as JSON, encoded when its dots were published and shared by
    /// every read until the next publish. A tracked video's body comes
    /// straight from its snapshot, without the per-video state mutex.
    /// An untracked one runs a first sight when `first_sight` is set
    /// and answers with the body that first publish built. `Ok(None)`
    /// when the platform does not know the video, or when it is not
    /// tracked and `first_sight` is unset (degraded mode, where a
    /// first sight's persist cannot run).
    pub fn dots_body(
        &self,
        video: VideoId,
        first_sight: bool,
    ) -> std::io::Result<Option<Arc<[u8]>>> {
        Ok(self
            .open_entry(video, first_sight)?
            .map(|entry| entry.body()))
    }

    /// The entry of `video`, running its first sight when it is not
    /// tracked yet and `first_sight` is set.
    fn open_entry(
        &self,
        video: VideoId,
        first_sight: bool,
    ) -> std::io::Result<Option<Arc<VideoEntry>>> {
        // Warm path: the published snapshot, no storage or model work —
        // and no per-video state mutex either.
        if let Some(entry) = self.videos.read().get(&video) {
            return Ok(Some(entry.clone()));
        }
        if !first_sight {
            return Ok(None);
        }

        // First sight: load the corpus through the shared path, or, for
        // a video the store does not hold yet, crawl it: its replay is
        // tokenized with no lock held, then one online crawl stores the
        // chat record and its v3 companion under one sync (see
        // `crawl_corpus`). Scoring runs without any service-wide lock
        // held.
        let loaded = match self.corpus_for(video)? {
            Some(loaded) => Some(loaded),
            None => self.crawl_corpus(video)?,
        };
        let Some((corpus, duration)) = loaded else {
            return Ok(None);
        };
        let dots = self
            .models
            .initializer
            .red_dots_corpus(&corpus, duration, self.cfg.top_k);
        let state = VideoState {
            dots: dots
                .into_iter()
                .map(|d| DotState {
                    initial: d,
                    current: d.at,
                    end: None,
                    last_type2_start: None,
                    rounds: 0,
                    converged: false,
                    pending: Vec::new(),
                })
                .collect(),
            sessions: Vec::new(),
        };
        // Publish, then persist under the published state's own lock so
        // a racing refinement round cannot be overwritten by this
        // fresh-init snapshot. The entry (and its encoded body) is
        // built before the map's write lock is taken. If another thread
        // won the publish race, serve (and never persist over) its
        // state.
        let entry = VideoEntry::new(video, state);
        let mut map = self.videos.write();
        if let Some(existing) = map.get(&video) {
            return Ok(Some(existing.clone()));
        }
        map.insert(video, entry.clone());
        let published = entry.state.lock();
        drop(map);
        self.persist(video, &entry, &published, None)?;
        drop(published);
        Ok(Some(entry))
    }

    /// Re-run the Initializer for an already-stored video (model refresh,
    /// changed `k`, …) without touching refinement state. The corpus is
    /// decoded from the video's v3 companion, so a re-score never
    /// re-tokenizes; `Ok(None)` when the video has no stored chat.
    pub fn rescore_video(&self, video: VideoId, k: usize) -> std::io::Result<Option<Vec<RedDot>>> {
        let Some((corpus, duration)) = self.corpus_for(video)? else {
            return Ok(None);
        };
        Ok(Some(
            self.models
                .initializer
                .red_dots_corpus(&corpus, duration, k),
        ))
    }

    /// The scoring corpus of a stored video, with its duration.
    ///
    /// Resolution order — the first step strictly cheaper than the
    /// second: persisted v3 tokenized record (decode only, zero
    /// re-tokenization) → tokenize the chat view (corpus-local ids, see
    /// [`lightor::corpus`]) and lazily persist the result as a v3
    /// companion so no future load (this process or the next) pays the
    /// tokenization again. A companion the store cannot read or the
    /// decoder refuses (corrupt, or written with process-wide ids) is
    /// absent to this path, which rebuilds and overwrites it. Companion
    /// write failures are swallowed: the corpus is correct either way,
    /// and the upgrade retries on the next load — a read path must
    /// not flip the service into degraded mode over an optional cache
    /// write.
    fn corpus_for(&self, video: VideoId) -> std::io::Result<Option<(TokenizedChat, Sec)>> {
        let (view, tok) = {
            let stores = self.stores.lock();
            match stores.chat.get_chat_view(video)? {
                Some(v) => (v, stores.chat.get_tokenized(video)),
                None => return Ok(None),
            }
        };
        if let Some(rec) = tok {
            // The store orphans companions on chat overwrite, so a
            // mismatched message count means corruption — reject and
            // rebuild rather than serve misaligned columns.
            if rec.len() == view.len() {
                let ts: Vec<f64> = (0..view.len()).map(|i| view.ts(i).0).collect();
                if let Some(corpus) = TokenizedChat::from_columns(
                    ts,
                    rec.word_counts,
                    &rec.token_ends,
                    rec.token_ids,
                    rec.dim as usize,
                ) {
                    self.tok_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some((corpus, self.duration(video, &view))));
                }
            }
        }
        let corpus = TokenizedChat::build_from_view(&view);
        let companion = Self::companion(video, &corpus);
        let upgraded = self
            .stores
            .lock()
            .chat
            .put_companion(video, &companion)
            .is_ok();
        Ok(Some(self.retokenized(video, corpus, upgraded, &view)))
    }

    /// First sight of a video the store does not hold: tokenize the
    /// platform's replay with no lock held, then let one online crawl
    /// ([`Crawler::crawl_video`]) store its chat record and the v3
    /// companion of that corpus under one sync. The chat record is the
    /// view's sections copied verbatim, so the corpus is exactly the
    /// one a later load of the stored record would build. Counted like
    /// any re-tokenization. `Ok(None)` when the platform does not know
    /// the video.
    fn crawl_corpus(&self, video: VideoId) -> std::io::Result<Option<(TokenizedChat, Sec)>> {
        let Some(view) = self.platform.fetch_chat(video) else {
            return Ok(None);
        };
        let corpus = TokenizedChat::build_from_view(view);
        let companion = Self::companion(video, &corpus);
        let crawled = {
            let mut stores = self.stores.lock();
            Crawler::new(&self.platform).crawl_video(video, &mut stores.chat, Some(&companion))?
        };
        match crawled {
            OnlineCrawl::Stored { companion } => {
                Ok(Some(self.retokenized(video, corpus, companion, view)))
            }
            // A racing first sight stored it first: load what it stored.
            OnlineCrawl::AlreadyStored => self.corpus_for(video),
            OnlineCrawl::Unknown => Ok(None),
        }
    }

    /// A freshly built corpus as a v3 companion payload: the corpus CSR
    /// layout is the v3 column layout.
    fn companion(video: VideoId, corpus: &TokenizedChat) -> Vec<u8> {
        format::encode_v3_columns(
            video,
            corpus.dim() as u32,
            corpus.token_ends(),
            corpus.token_ids(),
            corpus.word_counts(),
        )
    }

    /// Count a re-tokenization: one tokenized miss, plus one lazy
    /// upgrade when its companion landed.
    fn retokenized(
        &self,
        video: VideoId,
        corpus: TokenizedChat,
        upgraded: bool,
        view: &ChatLogView,
    ) -> (TokenizedChat, Sec) {
        self.tok_misses.fetch_add(1, Ordering::Relaxed);
        if upgraded {
            self.tok_upgrades.fetch_add(1, Ordering::Relaxed);
        }
        (corpus, self.duration(video, view))
    }

    /// The duration of a video whose chat is `view`: the platform's,
    /// or else the last message's time.
    fn duration(&self, video: VideoId, view: &ChatLogView) -> Sec {
        self.platform
            .video_meta(video)
            .map_or_else(|| view.last_ts().unwrap_or(Sec::ZERO), |m| m.duration)
    }

    /// Make sure every stored video has a v3 companion, decoding none:
    /// returns `(loaded, rebuilt)`. A video whose companion the chat
    /// store indexes counts as `loaded`, and its corpus is decoded only
    /// when a first sight or a re-score asks for it. A video without
    /// one is re-tokenized and its companion persisted, so it counts as
    /// `rebuilt`. The serve binary prints this as its corpus readiness
    /// line; on a restart over a populated data dir the whole catalog
    /// should be `loaded`.
    pub fn warm_corpora(&self) -> std::io::Result<(usize, usize)> {
        let (stored, bare) = {
            let stores = self.stores.lock();
            let videos = stores.chat.videos();
            let bare: Vec<VideoId> = videos
                .iter()
                .copied()
                .filter(|&v| !stores.chat.has_tokenized(v))
                .collect();
            (videos.len(), bare)
        };
        let mut rebuilt = 0usize;
        for &video in &bare {
            rebuilt += usize::from(self.corpus_for(video)?.is_some());
        }
        Ok((stored - bare.len(), rebuilt))
    }

    /// Record the boot-time training pass's wall time (serve binary).
    pub fn set_train_boot_ms(&self, ms: u64) {
        self.train_boot_ms.store(ms, Ordering::Relaxed);
    }

    /// Buffer one session's plays against the nearest dots (within the
    /// extractor's Δ neighbourhood). A play whose nearest dot has
    /// converged is dropped: Algorithm 2 has stopped for that dot, so
    /// its plays would only grow the persisted state. Caller holds the
    /// video's state lock.
    fn buffer_plays(&self, state: &mut VideoState, session: &Session) -> usize {
        let delta = self.models.extractor.config().neighborhood;
        let mut buffered = 0;
        for play in session.plays() {
            let nearest = state.dots.iter_mut().min_by(|a, b| {
                play.range
                    .distance_to(a.current)
                    .total_cmp(&play.range.distance_to(b.current))
            });
            if let Some(dot) = nearest {
                if !dot.converged && play.range.distance_to(dot.current).0 <= delta {
                    dot.pending.push(play);
                    buffered += 1;
                }
            }
        }
        buffered
    }

    /// One refinement round: an Algorithm 2 [`step`] on every dot with
    /// enough buffered plays. Converged dots get no new plays, but a
    /// state written before that rule can still carry some: they are
    /// cleared here. Returns how many dots stepped and whether any
    /// stale plays were cleared. Caller holds the video's state lock;
    /// caller republishes if any dot stepped, and persists the dots if
    /// either happened.
    ///
    /// [`step`]: lightor::HighlightExtractor::step
    fn refine_locked(&self, state: &mut VideoState) -> (usize, bool) {
        let extractor = &self.models.extractor;
        let mut updated = 0;
        let mut cleared = false;
        for dot in &mut state.dots {
            if dot.converged {
                cleared |= !dot.pending.is_empty();
                dot.pending = Vec::new();
                continue;
            }
            if dot.pending.len() < self.cfg.min_plays_per_round {
                continue;
            }
            let raw = PlaySet::new(std::mem::take(&mut dot.pending));
            let mut progress = DotProgress {
                current: dot.current,
                end: dot.end,
                last_type2_start: dot.last_type2_start,
                converged: false,
            };
            extractor.step(&mut progress, &raw);
            dot.current = progress.current;
            dot.end = progress.end;
            dot.last_type2_start = progress.last_type2_start;
            dot.converged = progress.converged;
            dot.rounds += 1;
            updated += 1;
        }
        (updated, cleared)
    }

    /// Fold one event batch into a video's refinement state: the unit
    /// of ingestion behind both HTTP session paths, one call per
    /// NDJSON line. Buffers the batch's plays, runs a
    /// refinement round over whatever has accumulated, republishes the
    /// dot snapshot if anything moved, and persists *before* returning
    /// so the caller's acknowledgement is durable.
    ///
    /// The persisted record is a merge patch of what the batch changed
    /// (one WAL append and one `sync_data`): `{"sessions": {"<client>":
    /// seq}}` for a sequenced batch, plus `"dots": [...]` when the batch
    /// buffered a play, stepped a dot, or cleared stale plays from a
    /// converged dot. A batch that changed nothing persistent (an
    /// unsequenced batch whose plays all missed) writes nothing.
    ///
    /// With `seq = Some(n)`, the batch carries a per-`(video, client)`
    /// sequence number: a batch at or below the acknowledged watermark
    /// is recognized as an idempotent replay (`replayed: true`,
    /// nothing folded) — a client resuming from its last ack after a
    /// crash introduces no duplicate refinement. `seq = None` batches
    /// are unsequenced and always folded; the HTTP edge never passes
    /// one (it rejects a line without a `seq`). Only in-process callers
    /// do, `loadbench/`'s replay among them, and the branch goes with
    /// ROADMAP item 2's benchmark change.
    ///
    /// `Ok(None)` when the video is not tracked (no one has fetched
    /// its dots yet); the HTTP edge turns that into a typed 422.
    pub fn refine_batch(
        &self,
        video: VideoId,
        seq: Option<u64>,
        session: &Session,
    ) -> std::io::Result<Option<BatchOutcome>> {
        let Some(entry) = self.videos.read().get(&video).cloned() else {
            return Ok(None);
        };
        let mut state = entry.state.lock();
        let mut patch = Vec::new();
        if let Some(seq) = seq {
            let mark = SessionSeq {
                client: session.user.0,
                seq,
            };
            match state
                .sessions
                .binary_search_by_key(&mark.client, |s| s.client)
            {
                Ok(i) if state.sessions[i].seq >= seq => {
                    return Ok(Some(BatchOutcome {
                        replayed: true,
                        ..Default::default()
                    }));
                }
                Ok(i) => state.sessions[i].seq = seq,
                Err(i) => state.sessions.insert(i, mark),
            }
            patch.push((
                "sessions".to_owned(),
                serde_json::Value::Map(vec![watermark_field(&mark)]),
            ));
        }
        let plays_buffered = self.buffer_plays(&mut state, session);
        let (dots_refined, cleared) = self.refine_locked(&mut state);
        if dots_refined > 0 {
            entry.publish(&state);
        }
        if plays_buffered > 0 || dots_refined > 0 || cleared {
            patch.push(("dots".to_owned(), state.dots.to_value()));
        }
        // Durable before ack: the watermark and any buffered pending
        // plays survive a SIGKILL even when no dot crossed the
        // refinement threshold. A persist error flips degraded mode
        // and the batch is never acknowledged.
        if !patch.is_empty() {
            self.persist(video, &entry, &state, Some(serde_json::Value::Map(patch)))?;
        }
        Ok(Some(BatchOutcome {
            plays_buffered,
            dots_refined,
            replayed: false,
        }))
    }

    /// The current red dots of a video that is already tracked in
    /// memory — the warm read that must keep working in degraded mode
    /// (it touches no storage). Reads the RCU-published snapshot and
    /// never takes the per-video state mutex, so a refinement round
    /// folding a large batch cannot stall it. `None` when the video is
    /// not tracked.
    pub fn cached_dots(&self, video: VideoId) -> Option<Vec<RedDot>> {
        self.videos.read().get(&video).map(|entry| entry.dots())
    }

    /// Whether the service is in degraded read-only mode: a persistence
    /// I/O error was observed and storage has not recovered since. Warm
    /// reads stay correct (state is in memory); writes would lose data
    /// on a crash, so the HTTP edge refuses them with 503.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The fault injector shared by both stores — the chaos/recovery
    /// tests' handle into the live service's storage I/O. No-op unless
    /// faults are armed.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Snapshot of a video's refinement state.
    pub fn video_state(&self, video: VideoId) -> Option<VideoState> {
        self.videos
            .read()
            .get(&video)
            .map(|entry| entry.state.lock().clone())
    }

    /// Number of videos with chat stored.
    pub fn stored_videos(&self) -> usize {
        self.stores.lock().chat.video_count()
    }

    /// The service's tuning knobs (the HTTP edge reads `top_k` as the
    /// default for re-score requests without an explicit `k`).
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Serving counters: store/caches state for dashboards and tests.
    /// The HTTP-edge fields (`accept_errors`, `stream_*`, `http`) are
    /// left zero for the front end to fill in.
    pub fn stats(&self) -> StatsResponse {
        let (record_hits, record_misses, stored, kv, dead, reclaimed) = {
            let stores = self.stores.lock();
            let (h, m) = stores.chat.cache_stats();
            (
                h,
                m,
                stores.chat.video_count(),
                stores.kv.stats(),
                stores.chat.dead_bytes(),
                stores.chat.reclaimed_bytes(),
            )
        };
        StatsResponse {
            stored_videos: stored,
            tracked_videos: self.videos.read().len(),
            tokenized_hits: self.tok_hits.load(Ordering::Relaxed),
            tokenized_misses: self.tok_misses.load(Ordering::Relaxed),
            tokenized_lazy_upgrades: self.tok_upgrades.load(Ordering::Relaxed),
            train_boot_ms: self.train_boot_ms.load(Ordering::Relaxed),
            record_cache_hits: record_hits,
            record_cache_misses: record_misses,
            kv_wal_bytes: kv.wal_bytes,
            kv_wal_appends: kv.wal_appends,
            kv_shard_rewrites: kv.snapshot_rewrites,
            chat_dead_bytes: dead,
            chat_reclaimed_bytes: reclaimed,
            degraded: self.is_degraded(),
            ..StatsResponse::default()
        }
    }

    /// Maintenance hook: compact the chat log (reclaiming bytes orphaned
    /// by re-crawls) and force the KV store's pending WAL into its
    /// snapshot. Safe to call any time; returns the chat compaction
    /// outcome.
    pub fn compact_storage(&self) -> std::io::Result<crate::store::CompactStats> {
        let mut stores = self.stores.lock();
        let stats = stores.chat.compact()?;
        stores.kv.snapshot()?;
        // Storage just proved it can write and sync again: leave
        // degraded mode (entered when a persist hit an I/O error).
        self.degraded.store(false, Ordering::Relaxed);
        Ok(stats)
    }

    /// Freeze writes to `videos` for `ttl` — the migration cutover
    /// window. While frozen, the HTTP edge refuses session uploads for
    /// those videos with `503 Retry-After` so the final WAL-tail delta
    /// the exporter ships is complete. The TTL structurally bounds the
    /// window: a crashed or stalled migration driver cannot leave a
    /// video frozen forever.
    pub fn freeze_videos(&self, videos: &[VideoId], ttl: Duration) {
        let now = Instant::now();
        let deadline = now + ttl;
        let mut frozen = self.frozen.lock();
        // Sweep expired deadlines while we hold the lock anyway:
        // `frozen_for` only reaps the video it looks up, so a
        // supervisor freezing different subsets on every delta tick
        // would otherwise grow the map without bound.
        frozen.retain(|_, d| *d > now);
        for &v in videos {
            frozen.insert(v, deadline);
        }
    }

    /// Videos currently frozen (expired deadlines swept first).
    pub fn frozen_count(&self) -> usize {
        let now = Instant::now();
        let mut frozen = self.frozen.lock();
        frozen.retain(|_, d| *d > now);
        frozen.len()
    }

    /// Remaining freeze time on `video`, or `None` when it is not
    /// frozen. Expired freezes are reaped on lookup.
    pub fn frozen_for(&self, video: VideoId) -> Option<Duration> {
        let mut frozen = self.frozen.lock();
        let deadline = *frozen.get(&video)?;
        let now = Instant::now();
        if now >= deadline {
            frozen.remove(&video);
            return None;
        }
        Some(deadline - now)
    }

    /// Lift every active freeze — the handoff completed (or was
    /// abandoned) before the TTLs ran out.
    pub fn unfreeze_all(&self) {
        self.frozen.lock().clear();
    }

    /// Export a consistent migration bundle: per-video refinement state
    /// newer than `req.since_seq` plus (on full exports, `since_seq ==
    /// 0`) the raw chat records, CRC-framed. `req.freeze_ms > 0` arms
    /// the write freeze on the exported videos first, so the returned
    /// bundle is the final word on their state for the freeze window —
    /// the cutover protocol is: bulk export (no freeze) → import →
    /// freeze + delta export (`since_seq` = bulk's `as_of_seq`) →
    /// import delta → swap ring → unfreeze.
    pub fn export_bundle(&self, req: &ExportRequest) -> std::io::Result<BundleDto> {
        let mut requested: Vec<VideoId> = req.videos.iter().copied().map(VideoId).collect();
        requested.sort_unstable_by_key(|v| v.0);
        requested.dedup();
        if req.freeze_ms == 0 {
            // Freeze-less exports (a replication delta loop hits this
            // path every tick) still sweep expired freeze deadlines,
            // so earlier frozen cutovers don't linger in the map.
            // Freezing exports sweep inside `freeze_videos`.
            let now = Instant::now();
            self.frozen.lock().retain(|_, d| *d > now);
        } else {
            let targets: Vec<VideoId> = if requested.is_empty() {
                self.videos.read().keys().copied().collect()
            } else {
                requested.clone()
            };
            self.freeze_videos(&targets, Duration::from_millis(req.freeze_ms));
        }
        let stores = self.stores.lock();
        Self::build_bundle(&stores.chat, &stores.kv, requested, req.since_seq)
    }

    /// Apply a migration bundle: verify its CRC, decode and check every
    /// entry, then append chat records (and their tokenized v3
    /// companions, when the bundle carries them), persist refinement
    /// states, and publish them to the in-memory map so reads serve the
    /// migrated videos immediately. A bad entry refuses the bundle
    /// before anything is written. When a write fails part way, the
    /// states already stored are still published, so no first sight
    /// overwrites them. Idempotent — byte-identical chat and tokenized
    /// records already stored are skipped (re-imports don't orphan log
    /// bytes) and state re-puts are plain overwrites.
    pub fn import_bundle(&self, bundle: &BundleDto) -> std::io::Result<ImportResponse> {
        if bundle.format_version != BUNDLE_FORMAT_VERSION {
            return Err(invalid_data(format!(
                "unsupported bundle format_version {} (this build speaks {BUNDLE_FORMAT_VERSION})",
                bundle.format_version
            )));
        }
        if wire::bundle_crc(&bundle.entries) != bundle.crc32 {
            return Err(invalid_data(
                "bundle CRC mismatch — refusing to apply corrupted entries".to_owned(),
            ));
        }
        let mut applied = ImportResponse {
            videos: bundle.entries.len(),
            states_applied: 0,
            chats_applied: 0,
            tokenized_applied: 0,
        };
        let mut restored: Vec<(VideoId, VideoState)> = Vec::new();
        let written = {
            let mut stores = self.stores.lock();
            let entries = bundle
                .entries
                .iter()
                .map(|entry| check_entry(&stores.chat, entry))
                .collect::<std::io::Result<Vec<_>>>()?;
            entries.into_iter().try_for_each(|entry| {
                if let Some(bytes) = entry.chat {
                    let fresh = stores.chat.import_record(entry.video, bytes)?;
                    applied.chats_applied += usize::from(fresh);
                }
                // Tokenized companion after the chat record (the store
                // requires the chat to exist first).
                if let Some(bytes) = entry.tokenized {
                    let fresh = stores.chat.import_tokenized(entry.video, bytes)?;
                    applied.tokenized_applied += usize::from(fresh);
                }
                if let Some(state) = entry.state {
                    stores.kv.put(&video_key(entry.video), &state)?;
                    applied.states_applied += 1;
                    restored.push((entry.video, state));
                }
                Ok(())
            })
        };
        // Publish after the stores lock is released (lock order is
        // videos map → stores; never the reverse), and also when a write
        // failed: a stored state left unpublished would be overwritten
        // by the video's next first sight. The entries, and their
        // encoded bodies, are built before the map's write lock is taken.
        if !restored.is_empty() {
            let entries: Vec<(VideoId, Arc<VideoEntry>)> = restored
                .into_iter()
                .map(|(video, state)| (video, VideoEntry::new(video, state)))
                .collect();
            self.videos.write().extend(entries);
        }
        written.map(|()| applied)
    }

    /// Rebuild a full migration bundle straight from a (possibly dead)
    /// service's data directory — the crash-replacement source when the
    /// owning process is gone. Opening the stores replays the KV WAL
    /// tail and drops any torn chat-log tail, so the bundle reflects
    /// exactly the acknowledged state at the crash: "last snapshot +
    /// WAL tail" with no live process required.
    pub fn bundle_from_dir(dir: &Path) -> std::io::Result<BundleDto> {
        let chat = ChatStore::open(dir.join("chat"))?;
        let kv = KvStore::open(dir.join("state"))?;
        Self::build_bundle(&chat, &kv, Vec::new(), 0)
    }

    /// The one bundle builder: an entry per video in `requested` (every
    /// stored video when empty) carrying its state when it changed
    /// after `since_seq` and, on full bundles (`since_seq == 0`), its
    /// raw chat and tokenized records; then the CRC over the entries.
    fn build_bundle(
        chat: &ChatStore,
        kv: &KvStore,
        requested: Vec<VideoId>,
        since_seq: u64,
    ) -> std::io::Result<BundleDto> {
        let ids = if requested.is_empty() {
            Self::all_video_ids(chat, kv)
        } else {
            requested
        };
        let mut changed: HashMap<VideoId, serde_json::Value> = kv
            .export_since(VIDEO_PREFIX, since_seq)
            .into_iter()
            .filter_map(|(key, state)| Some((video_of_key(&key)?, state)))
            .collect();
        let mut entries = Vec::new();
        for v in ids {
            let state = changed.remove(&v);
            let (chat_hex, tokenized_hex) = if since_seq == 0 {
                (
                    chat.export_record(v)?.map(|b| wire::hex_encode(&b)),
                    chat.export_tokenized(v)?.map(|b| wire::hex_encode(&b)),
                )
            } else {
                (None, None)
            };
            if state.is_some() || chat_hex.is_some() {
                entries.push(BundleEntryDto {
                    video: v.0,
                    state,
                    chat_hex,
                    tokenized_hex,
                });
            }
        }
        let crc32 = wire::bundle_crc(&entries);
        Ok(BundleDto {
            format_version: BUNDLE_FORMAT_VERSION,
            as_of_seq: kv.current_seq(),
            entries,
            crc32,
        })
    }

    /// Union of videos with stored chat and videos with persisted
    /// refinement state, sorted by id.
    fn all_video_ids(chat: &ChatStore, kv: &KvStore) -> Vec<VideoId> {
        let mut ids = chat.videos();
        ids.extend(
            kv.with_prefix(VIDEO_PREFIX)
                .filter_map(|(k, _)| video_of_key(k)),
        );
        ids.sort_unstable_by_key(|v| v.0);
        ids.dedup();
        ids
    }

    /// Make `state` durable: merge `patch` (the change the caller just
    /// made) into the stored value, or put the whole state when there
    /// is no patch or an earlier persist of this video failed. Caller
    /// holds `entry`'s state lock and passes its guarded `state`.
    fn persist(
        &self,
        video: VideoId,
        entry: &VideoEntry,
        state: &VideoState,
        patch: Option<serde_json::Value>,
    ) -> std::io::Result<()> {
        let key = video_key(video);
        let result = {
            let mut stores = self.stores.lock();
            match patch {
                Some(patch) if !entry.stored_behind.load(Ordering::Relaxed) => {
                    stores.kv.merge(&key, patch)
                }
                _ => stores.kv.put(&key, state),
            }
        };
        entry
            .stored_behind
            .store(result.is_err(), Ordering::Relaxed);
        if result.is_err() {
            // Refinement state could not be made durable: flip into
            // read-only mode so the HTTP edge stops acknowledging
            // writes it cannot keep. The in-memory state stays valid
            // for warm reads.
            self.degraded.store(true, Ordering::Relaxed);
        }
        result
    }
}

/// An `InvalidData` error: stored or shipped bytes that do not decode.
fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// One bundle entry, decoded and checked: what
/// [`LightorService::import_bundle`] writes.
struct CheckedEntry {
    video: VideoId,
    chat: Option<Vec<u8>>,
    tokenized: Option<Vec<u8>>,
    state: Option<VideoState>,
}

/// Decode `entry`'s payloads and state and check them against what the
/// stores require, writing nothing; `InvalidData` names what is wrong.
fn check_entry(chat: &ChatStore, entry: &BundleEntryDto) -> std::io::Result<CheckedEntry> {
    let video = VideoId(entry.video);
    let bad = |what: &str, why: &str| {
        invalid_data(format!("bundle {what} for video {}{why}", entry.video))
    };
    let unhex = |hex: &Option<String>, what: &str| {
        hex.as_deref()
            .map(|h| wire::hex_decode(h).ok_or_else(|| bad(what, " is not hex")))
            .transpose()
    };
    let chat_bytes = unhex(&entry.chat_hex, "chat payload")?;
    if let Some(bytes) = &chat_bytes {
        ChatStore::check_record(video, bytes)?;
    }
    let tokenized = unhex(&entry.tokenized_hex, "tokenized payload")?;
    if let Some(bytes) = &tokenized {
        ChatStore::check_tokenized(video, bytes)?;
        if chat_bytes.is_none() && !chat.contains(video) {
            return Err(bad("tokenized payload", " has no chat record"));
        }
    }
    let state = entry
        .state
        .as_ref()
        .map(|v| serde_json::from_value_ref(v).map_err(|e| bad("state", &format!(": {e}"))))
        .transpose()?;
    Ok(CheckedEntry {
        video,
        chat: chat_bytes,
        tokenized,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Fault, FaultKind};
    use lightor::{
        DotType, ExtractorConfig, FeatureSet, HighlightExtractor, HighlightInitializer,
        InitializerConfig, PlayPositionFeatures, TrainingVideo, TypeClassifier,
    };
    use lightor_chatsim::dota2_dataset;
    use lightor_crowdsim::Campaign;
    use lightor_types::{ChatLog, ChatMessage, GameKind, UserId};
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "lightor-service-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn models() -> ModelBundle {
        let data = dota2_dataset(2, 91);
        let views: Vec<TrainingVideo> = data
            .videos
            .iter()
            .map(|v| TrainingVideo {
                chat: &v.video.chat,
                duration: v.video.meta.duration,
                highlights: &v.video.highlights,
                label_ranges: &v.response_ranges,
            })
            .collect();
        let initializer =
            HighlightInitializer::train(&views, FeatureSet::Full, InitializerConfig::default());
        let mut examples = Vec::new();
        for i in 0..30 {
            let j = (i % 7) as f64;
            examples.push((
                PlayPositionFeatures {
                    after: 5.0 + j,
                    before: 0.0,
                    across: 1.0 + j / 2.0,
                },
                DotType::TypeII,
            ));
            examples.push((
                PlayPositionFeatures {
                    after: 1.0,
                    before: 3.0 + j,
                    across: 2.0,
                },
                DotType::TypeI,
            ));
        }
        let extractor =
            HighlightExtractor::new(TypeClassifier::train(&examples), ExtractorConfig::default());
        ModelBundle {
            initializer,
            extractor,
            provenance: "service-test".into(),
        }
    }

    fn service(dir: &Path) -> LightorService {
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        LightorService::open(dir, models(), platform, ServiceConfig::default()).unwrap()
    }

    #[test]
    fn open_video_crawls_and_initializes() {
        let dir = TempDir::new("open");
        let svc = service(&dir.0);
        let vid = {
            let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            p.recent_videos(p.channels()[0].id)[0]
        };
        let dots = svc.open_video(vid).unwrap().unwrap();
        assert!(!dots.is_empty());
        assert_eq!(svc.stored_videos(), 1);
        // Second open returns the same dots without recrawl.
        let again = svc.open_video(vid).unwrap().unwrap();
        assert_eq!(dots.len(), again.len());
        assert_eq!(svc.stored_videos(), 1);
        // Unknown video.
        assert!(svc.open_video(VideoId(999_999)).unwrap().is_none());
    }

    #[test]
    fn first_sight_reads_no_record_back() {
        let dir = TempDir::new("first-sight-cache");
        let svc = service(&dir.0);
        let vid = {
            let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            p.recent_videos(p.channels()[0].id)[0]
        };
        let before = svc.stats();
        svc.open_video(vid).unwrap().unwrap();
        // The first sight tokenized the platform's replay before the
        // crawl stored it, so the record cache saw neither a hit nor a
        // miss; the crawl left the view it stored there for later
        // reads.
        let after = svc.stats();
        assert_eq!(after.record_cache_hits, before.record_cache_hits);
        assert_eq!(after.record_cache_misses, before.record_cache_misses);
        assert!(svc.stores.lock().chat.get_chat_view(vid).unwrap().is_some());
        assert_eq!(svc.stats().record_cache_hits, before.record_cache_hits + 1);
    }

    #[test]
    fn first_sight_syncs_the_chat_log_once() {
        // The chat record and its companion share one sync: with the
        // chat log's second sync armed to fail, a first sight never
        // reaches it and still persists its companion.
        let dir = TempDir::new("first-sight-sync");
        let svc = service(&dir.0);
        let vid = {
            let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            p.recent_videos(p.channels()[0].id)[0]
        };
        svc.fault_injector()
            .arm(Fault::nth("log.sync", 1, FaultKind::Error));
        svc.open_video(vid).unwrap().unwrap();
        assert_eq!(svc.fault_injector().fired("log.sync"), 0);
        let stats = svc.stats();
        assert_eq!(stats.tokenized_misses, 1);
        assert_eq!(stats.tokenized_lazy_upgrades, 1);
        assert!(!svc.is_degraded());
        assert!(svc.stores.lock().chat.has_tokenized(vid));
    }

    #[test]
    fn an_unreadable_companion_is_retokenized_once() {
        // A companion read that fails its CRC is a cache miss, not an
        // I/O error: the corpus is rebuilt and the companion rewritten
        // once, and the service stays healthy.
        let dir = TempDir::new("short-read");
        let svc = service(&dir.0);
        let vid = {
            let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            p.recent_videos(p.channels()[0].id)[0]
        };
        let dots = svc.open_video(vid).unwrap().unwrap();
        let k = ServiceConfig::default().top_k;
        svc.fault_injector().arm(Fault::once(
            "log.read",
            FaultKind::ShortRead { drop_bytes: 4 },
        ));
        let before = svc.stats();
        assert_eq!(svc.rescore_video(vid, k).unwrap().unwrap(), dots);
        assert_eq!(svc.fault_injector().fired("log.read"), 1);
        let after = svc.stats();
        assert_eq!(after.tokenized_misses, before.tokenized_misses + 1);
        assert_eq!(after.tokenized_hits, before.tokenized_hits);
        assert_eq!(
            after.tokenized_lazy_upgrades,
            before.tokenized_lazy_upgrades + 1
        );
        assert!(!svc.is_degraded());
        // The rewritten companion decodes on the next load.
        assert_eq!(svc.rescore_video(vid, k).unwrap().unwrap(), dots);
        let again = svc.stats();
        assert_eq!(again.tokenized_hits, after.tokenized_hits + 1);
        assert_eq!(again.tokenized_misses, after.tokenized_misses);
    }

    #[test]
    fn interactions_refine_dots() {
        let dir = TempDir::new("refine");
        let svc = service(&dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        let truth = platform.ground_truth(vid).unwrap().clone();

        let dots = svc.open_video(vid).unwrap().unwrap();
        let mut campaign = Campaign::new(150, 93);
        // Three rounds of viewers, each session folded as it arrives.
        for _ in 0..3 {
            for dot in &dots {
                let result = campaign.run_task(&truth.video, dot.at, 12);
                for session in &result.sessions {
                    svc.refine_batch(vid, None, session).unwrap().unwrap();
                }
            }
        }
        let state = svc.video_state(vid).unwrap();
        assert!(state.dots.iter().any(|d| d.rounds > 0));
        assert!(
            state.dots.iter().any(|d| d.end.is_some()),
            "no dot extracted an end boundary"
        );
    }

    #[test]
    fn state_persists_across_restart() {
        let dir = TempDir::new("restart");
        let vid;
        {
            let svc = service(&dir.0);
            let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            vid = p.recent_videos(p.channels()[0].id)[0];
            svc.open_video(vid).unwrap().unwrap();
        }
        // Reopen: the dot state must come back from the KV store.
        let svc2 = service(&dir.0);
        let state = svc2.video_state(vid).expect("state survived restart");
        assert!(!state.dots.is_empty());
    }

    #[test]
    fn concurrent_session_logging_is_safe() {
        let dir = TempDir::new("concurrent");
        let svc = service(&dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        let truth = platform.ground_truth(vid).unwrap().clone();
        let dots = svc.open_video(vid).unwrap().unwrap();

        let mut campaign = Campaign::new(64, 94);
        let sessions: Vec<_> = (0..4)
            .flat_map(|_| campaign.run_task(&truth.video, dots[0].at, 16).sessions)
            .collect();

        let updated: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = sessions
                .chunks(16)
                .map(|chunk| {
                    let svc = &svc;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|s| svc.refine_batch(vid, None, s).unwrap().unwrap())
                            .map(|o| o.dots_refined)
                            .sum::<usize>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });

        // All buffered plays are attributable to dots; refinement runs.
        assert!(updated >= 1, "no dot had enough plays after 64 sessions");
    }

    #[test]
    fn rescores_decode_the_companion_each_time() {
        let dir = TempDir::new("rescore");
        let svc = service(&dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        let k = ServiceConfig::default().top_k;

        let dots = svc.open_video(vid).unwrap().unwrap();
        // Rescoring with the service's own k must reproduce the initial
        // placement: each rescore decodes the persisted companion once
        // and never tokenizes again.
        for _ in 0..2 {
            let before = svc.stats();
            assert_eq!(svc.rescore_video(vid, k).unwrap().unwrap(), dots);
            let after = svc.stats();
            assert_eq!(after.tokenized_hits, before.tokenized_hits + 1);
            assert_eq!(after.tokenized_misses, before.tokenized_misses);
        }
        // Unknown video.
        assert!(svc.rescore_video(VideoId(999_999), 5).unwrap().is_none());
    }

    #[test]
    fn boot_decodes_no_corpus() {
        // A restart over stored videos reads no companion: each one the
        // chat store indexes counts as loaded, and its corpus is decoded
        // only when a rescore (or first sight) asks for it.
        let dir = TempDir::new("boot");
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vids: Vec<VideoId> = platform
            .channels()
            .iter()
            .flat_map(|c| platform.recent_videos(c.id).to_vec())
            .collect();
        assert!(vids.len() >= 3);
        let dots: Vec<Vec<RedDot>> = {
            let svc = service(&dir.0);
            vids.iter()
                .map(|&v| svc.open_video(v).unwrap().unwrap())
                .collect()
        };
        let svc = service(&dir.0);
        let before = svc.stats();
        assert_eq!(svc.warm_corpora().unwrap(), (vids.len(), 0));
        let booted = svc.stats();
        assert_eq!(booted.tokenized_hits, before.tokenized_hits);
        assert_eq!(booted.tokenized_misses, before.tokenized_misses);
        let k = ServiceConfig::default().top_k;
        assert_eq!(svc.rescore_video(vids[0], k).unwrap().unwrap(), dots[0]);
        let after = svc.stats();
        assert_eq!(after.tokenized_hits, booted.tokenized_hits + 1);
        assert_eq!(after.tokenized_misses, booted.tokenized_misses);
    }

    #[test]
    fn each_corpus_sizes_its_term_space_by_its_own_chat() {
        // Term ids are corpus-local: a video's `dim` is its own
        // distinct-term count, however many terms the service has
        // tokenized before it.
        let dir = TempDir::new("local-ids");
        let svc = service(&dir.0);
        let fresh: Vec<ChatMessage> = (0..2000u64)
            .map(|i| ChatMessage::new(i as f64, UserId(i), format!("user{i} typo{i}x gg")))
            .collect();
        let small = ChatLog::new(vec![
            ChatMessage::new(1.0, UserId(1), "gg wp"),
            ChatMessage::new(2.0, UserId(2), "what a PLAY!!"),
            ChatMessage::new(3.0, UserId(3), "gg"),
        ]);
        let (big_vid, small_vid) = (VideoId(1_000_001), VideoId(1_000_002));
        {
            let mut stores = svc.stores.lock();
            stores.chat.put_chat(big_vid, &ChatLog::new(fresh)).unwrap();
            stores.chat.put_chat(small_vid, &small).unwrap();
        }
        let (big, _) = svc.corpus_for(big_vid).unwrap().unwrap();
        assert_eq!(big.dim(), 2 * 2000 + 1);
        let (corpus, _) = svc.corpus_for(small_vid).unwrap().unwrap();
        assert_eq!(corpus.dim(), 5, "gg wp what a play");
        // The persisted companion loads with the same term space.
        let hits = svc.stats().tokenized_hits;
        let (loaded, _) = svc.corpus_for(small_vid).unwrap().unwrap();
        assert_eq!(svc.stats().tokenized_hits, hits + 1);
        assert_eq!(loaded.dim(), 5);
    }

    #[test]
    fn a_companion_with_process_wide_ids_is_retokenized_once() {
        // A v3 record whose trailer carries a vocab delta was written
        // with ids from a process-wide table. The first load
        // re-tokenizes the chat and overwrites the record; the next
        // load decodes the rewritten record.
        let dir = TempDir::new("legacy-v3");
        let svc = service(&dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        let dots = svc.open_video(vid).unwrap().unwrap();
        {
            let mut stores = svc.stores.lock();
            let mut raw = stores.chat.export_tokenized(vid).unwrap().unwrap();
            // The header holds n at byte 16 and the token total at
            // byte 24; the trailer follows the token ends, the ids and
            // the word counts.
            let word = |off: usize| u32::from_le_bytes(raw[off..off + 4].try_into().unwrap());
            let trailer = 28 + 4 * (2 * word(16) + word(24)) as usize;
            raw.truncate(trailer);
            // base 7, one term ending at byte 2, a 2-byte blob: "gg".
            for w in [7u32, 1, 2, 2] {
                raw.extend_from_slice(&w.to_le_bytes());
            }
            raw.extend_from_slice(b"gg");
            stores.chat.import_tokenized(vid, raw).unwrap();
        }
        let k = ServiceConfig::default().top_k;
        let before = svc.stats();
        assert_eq!(svc.rescore_video(vid, k).unwrap().unwrap(), dots);
        let after = svc.stats();
        assert_eq!(after.tokenized_misses, before.tokenized_misses + 1);
        assert_eq!(
            after.tokenized_lazy_upgrades,
            before.tokenized_lazy_upgrades + 1
        );
        assert_eq!(after.tokenized_hits, before.tokenized_hits);

        assert_eq!(svc.rescore_video(vid, k).unwrap().unwrap(), dots);
        let again = svc.stats();
        assert_eq!(again.tokenized_hits, after.tokenized_hits + 1);
        assert_eq!(again.tokenized_misses, after.tokenized_misses);
    }

    #[test]
    fn a_corrupt_companion_is_rejected_and_retokenized_once() {
        // `decode_v3` reads a companion's layout only; the corpus build
        // (`TokenizedChat::from_columns`) refuses inconsistent columns.
        // Either way the load re-tokenizes the chat once and rewrites
        // the companion, and the next load decodes it.
        type Corrupt = fn(&mut format::TokenizedRecord);
        let corruptions: [(&str, Corrupt); 2] = [
            ("non-monotone token ends", |rec| {
                let ends = &mut rec.token_ends;
                let i = (0..ends.len() - 2)
                    .find(|&i| ends[i] < ends[i + 1])
                    .unwrap();
                ends.swap(i, i + 1);
            }),
            ("an id past dim", |rec| {
                rec.dim = *rec.token_ids.iter().max().unwrap();
            }),
        ];
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        let k = ServiceConfig::default().top_k;
        for (what, corrupt) in corruptions {
            let dir = TempDir::new("corrupt-v3");
            let svc = service(&dir.0);
            let dots = svc.open_video(vid).unwrap().unwrap();
            {
                let mut stores = svc.stores.lock();
                let raw = stores.chat.export_tokenized(vid).unwrap().unwrap();
                let mut rec = format::decode_v3(&raw).unwrap();
                corrupt(&mut rec);
                let bad = format::encode_v3(&rec);
                assert!(format::decode_v3(&bad).is_some(), "{what}: layout decodes");
                stores.chat.import_tokenized(vid, bad).unwrap();
            }
            let before = svc.stats();
            assert_eq!(svc.rescore_video(vid, k).unwrap().unwrap(), dots, "{what}");
            let after = svc.stats();
            assert_eq!(
                after.tokenized_misses,
                before.tokenized_misses + 1,
                "{what}"
            );
            assert_eq!(
                after.tokenized_lazy_upgrades,
                before.tokenized_lazy_upgrades + 1,
                "{what}"
            );
            assert_eq!(after.tokenized_hits, before.tokenized_hits, "{what}");

            assert_eq!(svc.rescore_video(vid, k).unwrap().unwrap(), dots, "{what}");
            let again = svc.stats();
            assert_eq!(again.tokenized_hits, after.tokenized_hits + 1, "{what}");
            assert_eq!(again.tokenized_misses, after.tokenized_misses, "{what}");
        }
    }

    #[test]
    fn concurrent_open_different_videos() {
        // Sharded locks: opens and refinement on distinct videos must be
        // safe (and not serialize through one service-wide mutex).
        let dir = TempDir::new("shards");
        let svc = service(&dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vids: Vec<VideoId> = platform
            .channels()
            .iter()
            .flat_map(|c| platform.recent_videos(c.id).to_vec())
            .collect();
        assert!(vids.len() >= 4);

        std::thread::scope(|scope| {
            for &vid in &vids {
                let svc = &svc;
                scope.spawn(move || {
                    let dots = svc.open_video(vid).unwrap().unwrap();
                    assert!(!dots.is_empty());
                    // Racing double-open must agree with itself.
                    let again = svc.open_video(vid).unwrap().unwrap();
                    assert_eq!(dots, again);
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.tracked_videos, vids.len());
        assert_eq!(stats.stored_videos, vids.len());
    }

    #[test]
    fn freeze_expires_by_ttl_and_lifts_on_unfreeze() {
        let dir = TempDir::new("freeze");
        let svc = service(&dir.0);
        let vid = VideoId(42);
        assert!(svc.frozen_for(vid).is_none());

        svc.freeze_videos(&[vid], std::time::Duration::from_millis(40));
        let remaining = svc.frozen_for(vid).expect("freeze is armed");
        assert!(remaining <= std::time::Duration::from_millis(40));
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(svc.frozen_for(vid).is_none(), "TTL bounds the freeze");

        svc.freeze_videos(&[vid], std::time::Duration::from_secs(60));
        assert!(svc.frozen_for(vid).is_some());
        svc.unfreeze_all();
        assert!(svc.frozen_for(vid).is_none());
    }

    #[test]
    fn freeze_map_is_swept_by_repeated_freezes_and_exports() {
        let dir = TempDir::new("freeze-sweep");
        let svc = service(&dir.0);

        // A supervisor freezing a different subset on every cutover
        // must not accumulate expired deadlines: each `freeze_videos`
        // sweeps what already lapsed.
        svc.freeze_videos(
            &[VideoId(1), VideoId(2), VideoId(3)],
            std::time::Duration::from_millis(30),
        );
        assert_eq!(svc.frozen_count(), 3);
        std::thread::sleep(std::time::Duration::from_millis(50));
        svc.freeze_videos(&[VideoId(4)], std::time::Duration::from_secs(60));
        assert_eq!(
            svc.frozen_count(),
            1,
            "expired freezes swept on the next freeze, not retained"
        );

        // A freeze-less export (the delta-loop path) sweeps too.
        svc.freeze_videos(&[VideoId(5)], std::time::Duration::from_millis(30));
        svc.unfreeze_all();
        svc.freeze_videos(&[VideoId(6)], std::time::Duration::from_millis(30));
        std::thread::sleep(std::time::Duration::from_millis(50));
        svc.export_bundle(&crate::wire::ExportRequest {
            videos: vec![],
            since_seq: 0,
            freeze_ms: 0,
        })
        .unwrap();
        assert_eq!(svc.frozen.lock().len(), 0, "export swept the lapsed freeze");
    }

    #[test]
    fn export_beyond_watermark_returns_a_well_formed_empty_delta() {
        let dir = TempDir::new("exp-edge-seq");
        let svc = service(&dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        svc.open_video(vid).unwrap().unwrap();

        let full = svc
            .export_bundle(&crate::wire::ExportRequest {
                videos: vec![],
                since_seq: 0,
                freeze_ms: 0,
            })
            .unwrap();
        assert!(!full.entries.is_empty());

        // `since_seq` at the watermark: nothing changed since — the
        // supervisor's steady-state delta tick. Must be empty, not a
        // full re-export.
        let at = svc
            .export_bundle(&crate::wire::ExportRequest {
                videos: vec![],
                since_seq: full.as_of_seq,
                freeze_ms: 0,
            })
            .unwrap();
        assert!(at.entries.is_empty(), "no writes since the watermark");
        assert_eq!(at.as_of_seq, full.as_of_seq, "watermark still reported");

        // `since_seq` beyond the watermark (e.g. the primary was
        // restored from an older snapshot): still a well-formed empty
        // bundle, not an error.
        let beyond = svc
            .export_bundle(&crate::wire::ExportRequest {
                videos: vec![],
                since_seq: full.as_of_seq + 1_000_000,
                freeze_ms: 0,
            })
            .unwrap();
        assert!(beyond.entries.is_empty());
        assert_eq!(beyond.format_version, 2);
        assert_eq!(beyond.as_of_seq, full.as_of_seq);
        assert_eq!(beyond.crc32, crate::wire::bundle_crc(&[]));

        // The empty delta is importable — a delta loop ships whatever
        // it exported without inspecting it first.
        let dst_dir = TempDir::new("exp-edge-dst");
        let dst = service(&dst_dir.0);
        let applied = dst.import_bundle(&beyond).unwrap();
        assert_eq!(applied.videos, 0);
        assert_eq!(applied.states_applied, 0);
    }

    #[test]
    fn export_of_unknown_videos_returns_a_well_formed_empty_bundle() {
        let dir = TempDir::new("exp-edge-vids");
        let svc = service(&dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        svc.open_video(vid).unwrap().unwrap();

        // Unknown ids: nothing to ship, full export or delta alike.
        for since in [0, 10_000] {
            let bundle = svc
                .export_bundle(&crate::wire::ExportRequest {
                    videos: vec![999_991, 999_992],
                    since_seq: since,
                    freeze_ms: 0,
                })
                .unwrap();
            assert!(bundle.entries.is_empty(), "since_seq={since}");
            assert_eq!(bundle.format_version, 2);
            assert_eq!(bundle.crc32, crate::wire::bundle_crc(&[]));
            assert!(bundle.as_of_seq > 0, "watermark reflects real state");
        }

        // An empty video list on a service with no tracked videos at
        // all (fresh data dir) is the supervisor bootstrapping against
        // an idle primary — empty bundle, zero watermark.
        let idle_dir = TempDir::new("exp-edge-idle");
        let idle = service(&idle_dir.0);
        let bundle = idle
            .export_bundle(&crate::wire::ExportRequest {
                videos: vec![],
                since_seq: 0,
                freeze_ms: 0,
            })
            .unwrap();
        assert!(bundle.entries.is_empty());
        assert_eq!(bundle.as_of_seq, 0);
    }

    #[test]
    fn export_import_migrates_a_video_with_its_refined_state() {
        let src_dir = TempDir::new("exp-src");
        let dst_dir = TempDir::new("exp-dst");
        let src = service(&src_dir.0);
        let dst = service(&dst_dir.0);
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        let truth = platform.ground_truth(vid).unwrap().clone();

        // Refine on the source so the bundle carries non-initial state.
        let dots = src.open_video(vid).unwrap().unwrap();
        let mut campaign = Campaign::new(60, 95);
        for dot in &dots {
            let result = campaign.run_task(&truth.video, dot.at, 12);
            for session in &result.sessions {
                src.refine_batch(vid, None, session).unwrap().unwrap();
            }
        }
        let refined = src.cached_dots(vid).unwrap();

        // Bulk copy: full bundle (chat + state), no freeze.
        let bulk = src
            .export_bundle(&crate::wire::ExportRequest {
                videos: vec![vid.0],
                since_seq: 0,
                freeze_ms: 0,
            })
            .unwrap();
        assert_eq!(bulk.entries.len(), 1);
        assert!(bulk.entries[0].state.is_some());
        assert!(bulk.entries[0].chat_hex.is_some());
        let applied = dst.import_bundle(&bulk).unwrap();
        assert_eq!(applied.states_applied, 1);
        assert_eq!(applied.chats_applied, 1);
        assert_eq!(dst.cached_dots(vid).unwrap(), refined);
        assert_eq!(dst.stored_videos(), 1);

        // More refinement lands on the source after the bulk copy …
        for dot in &refined {
            let result = campaign.run_task(&truth.video, dot.at, 12);
            for session in &result.sessions {
                src.refine_batch(vid, None, session).unwrap().unwrap();
            }
        }

        // … and the frozen delta ships only the state that changed.
        let delta = src
            .export_bundle(&crate::wire::ExportRequest {
                videos: vec![vid.0],
                since_seq: bulk.as_of_seq,
                freeze_ms: 500,
            })
            .unwrap();
        assert!(src.frozen_for(vid).is_some(), "delta export armed freeze");
        assert_eq!(delta.entries.len(), 1);
        assert!(delta.entries[0].state.is_some());
        assert!(
            delta.entries[0].chat_hex.is_none(),
            "chat is immutable post-crawl; deltas ship state only"
        );
        dst.import_bundle(&delta).unwrap();
        assert_eq!(dst.cached_dots(vid).unwrap(), src.cached_dots(vid).unwrap());
        src.unfreeze_all();

        // Re-import is idempotent: no new chat bytes appended.
        let again = dst.import_bundle(&bulk).unwrap();
        assert_eq!(again.chats_applied, 0);
    }

    #[test]
    fn import_refuses_corrupted_bundles() {
        let src_dir = TempDir::new("crc-src");
        let dst_dir = TempDir::new("crc-dst");
        let src = service(&src_dir.0);
        let dst = service(&dst_dir.0);
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        src.open_video(vid).unwrap().unwrap();

        let mut bundle = src
            .export_bundle(&crate::wire::ExportRequest {
                videos: vec![],
                since_seq: 0,
                freeze_ms: 0,
            })
            .unwrap();
        bundle.entries[0].video ^= 1;
        let err = dst.import_bundle(&bundle).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(dst.stored_videos(), 0, "nothing applied from a bad bundle");

        bundle.entries[0].video ^= 1;
        bundle.format_version = 99;
        let err = dst.import_bundle(&bundle).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn bundle_from_dir_restores_a_dead_services_state() {
        let dead_dir = TempDir::new("dead");
        let fresh_dir = TempDir::new("fresh");
        let vid;
        let refined;
        {
            let svc = service(&dead_dir.0);
            let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            vid = platform.recent_videos(platform.channels()[0].id)[0];
            let truth = platform.ground_truth(vid).unwrap().clone();
            let dots = svc.open_video(vid).unwrap().unwrap();
            let mut campaign = Campaign::new(60, 96);
            for dot in &dots {
                let result = campaign.run_task(&truth.video, dot.at, 12);
                for session in &result.sessions {
                    svc.refine_batch(vid, None, session).unwrap().unwrap();
                }
            }
            refined = svc.cached_dots(vid).unwrap();
            // Dropped here: the "dead" process. Its directory is all
            // that survives.
        }
        let bundle = LightorService::bundle_from_dir(&dead_dir.0).unwrap();
        assert!(!bundle.entries.is_empty());
        let fresh = service(&fresh_dir.0);
        let applied = fresh.import_bundle(&bundle).unwrap();
        assert_eq!(applied.states_applied, 1);
        assert_eq!(applied.chats_applied, 1);
        assert_eq!(
            fresh.cached_dots(vid).unwrap(),
            refined,
            "refined dots survive the crash-restore"
        );
    }

    #[test]
    fn dot_reads_bypass_the_state_mutex() {
        // The RCU contract: `cached_dots` reads the published snapshot
        // and must complete even while another thread holds the
        // per-video state mutex (e.g. a refinement round folding a
        // large batch).
        let dir = TempDir::new("rcu");
        let svc = service(&dir.0);
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        let dots = svc.open_video(vid).unwrap().unwrap();

        let entry = svc.videos.read().get(&vid).cloned().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let result = std::thread::scope(|scope| {
            let guard = entry.state.lock(); // a writer mid-fold
            let svc_ref = &svc;
            scope.spawn(move || {
                let _ = tx.send(svc_ref.cached_dots(vid));
            });
            let read = rx.recv_timeout(Duration::from_secs(5));
            // Drop the writer before asserting so a regression fails
            // the test instead of deadlocking the scope join.
            drop(guard);
            read
        });
        let read = result.expect("dot read completed while the state mutex was held");
        assert_eq!(read.unwrap(), dots);
    }

    /// `video`'s published body must be the JSON of its cached dots:
    /// the bytes the HTTP edge encoded on every read before bodies were
    /// published.
    fn assert_body_encodes_cached_dots(svc: &LightorService, video: VideoId) {
        let expected = serde_json::to_vec(&DotsResponse {
            video: video.0,
            dots: svc
                .cached_dots(video)
                .unwrap()
                .into_iter()
                .map(Into::into)
                .collect(),
        })
        .unwrap();
        let body = svc.dots_body(video, false).unwrap().unwrap();
        assert_eq!(&*body, expected.as_slice());
    }

    /// Fold crowd sessions around `video`'s dots until a round steps
    /// one.
    fn step_a_dot(svc: &LightorService, video: VideoId, seed: u64) {
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let truth = platform.ground_truth(video).unwrap().clone();
        let mut campaign = Campaign::new(60, seed);
        for dot in svc.cached_dots(video).unwrap() {
            for session in &campaign.run_task(&truth.video, dot.at, 12).sessions {
                let outcome = svc.refine_batch(video, None, session).unwrap().unwrap();
                if outcome.dots_refined > 0 {
                    return;
                }
            }
        }
        panic!("no round stepped a dot");
    }

    #[test]
    fn the_published_body_encodes_the_cached_dots() {
        use lightor_types::UserId;
        let dir = TempDir::new("body");
        let dst_dir = TempDir::new("body-dst");
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        let other = p.recent_videos(p.channels()[1].id)[0];
        let served = {
            let svc = service(&dir.0);
            // First sight.
            assert!(svc.dots_body(vid, false).unwrap().is_none());
            let first = svc.dots_body(vid, true).unwrap().unwrap();
            assert_body_encodes_cached_dots(&svc, vid);
            assert_eq!(first, svc.dots_body(vid, false).unwrap().unwrap());
            // A round that steps a dot.
            step_a_dot(&svc, vid, 97);
            assert_body_encodes_cached_dots(&svc, vid);
            // Degraded mode: the body is still served from memory; an
            // untracked video gets none and runs no first sight.
            svc.fault_injector()
                .arm(Fault::once("kv.wal.sync", FaultKind::Error));
            svc.refine_batch(vid, Some(1), &Session::new(UserId(9), Vec::new()))
                .unwrap_err();
            assert!(svc.is_degraded());
            assert_body_encodes_cached_dots(&svc, vid);
            assert!(svc.dots_body(other, false).unwrap().is_none());
            assert_eq!(svc.stored_videos(), 1);
            svc.compact_storage().unwrap();
            // Import into a second service.
            let bundle = svc
                .export_bundle(&crate::wire::ExportRequest {
                    videos: vec![vid.0],
                    since_seq: 0,
                    freeze_ms: 0,
                })
                .unwrap();
            let dst = service(&dst_dir.0);
            dst.import_bundle(&bundle).unwrap();
            assert_body_encodes_cached_dots(&dst, vid);
            let served = svc.dots_body(vid, false).unwrap().unwrap();
            assert_eq!(dst.dots_body(vid, false).unwrap().unwrap(), served);
            served
        };
        // A restart.
        let svc = service(&dir.0);
        assert_body_encodes_cached_dots(&svc, vid);
        assert_eq!(svc.dots_body(vid, false).unwrap().unwrap(), served);
    }

    #[test]
    fn warm_reads_share_one_body_until_a_round_steps_a_dot() {
        use lightor_types::UserId;
        let dir = TempDir::new("body-share");
        let svc = service(&dir.0);
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        // The first sight answers with the body its publish built, and
        // every warm read after it shares that one allocation.
        let first = svc.dots_body(vid, true).unwrap().unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &svc.dots_body(vid, true).unwrap().unwrap()
        ));
        assert!(Arc::ptr_eq(
            &first,
            &svc.dots_body(vid, false).unwrap().unwrap()
        ));
        // A batch that steps no dot publishes nothing.
        let outcome = svc
            .refine_batch(vid, Some(1), &Session::new(UserId(9), Vec::new()))
            .unwrap()
            .unwrap();
        assert_eq!(outcome.dots_refined, 0);
        assert!(Arc::ptr_eq(
            &first,
            &svc.dots_body(vid, false).unwrap().unwrap()
        ));
        // A stepped round publishes a new body, shared in turn.
        step_a_dot(&svc, vid, 98);
        let stepped = svc.dots_body(vid, false).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first, &stepped));
        assert!(Arc::ptr_eq(
            &stepped,
            &svc.dots_body(vid, true).unwrap().unwrap()
        ));
    }

    #[test]
    fn refine_batch_is_idempotent_and_matches_the_buffered_path() {
        let dir_a = TempDir::new("batch-a");
        let dir_b = TempDir::new("batch-b");
        let a = service(&dir_a.0); // sequenced, batch-at-a-time
        let b = service(&dir_b.0); // unsequenced
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = platform.recent_videos(platform.channels()[0].id)[0];
        let truth = platform.ground_truth(vid).unwrap().clone();
        let dots = a.open_video(vid).unwrap().unwrap();
        b.open_video(vid).unwrap().unwrap();

        let mut campaign = Campaign::new(80, 97);
        let sessions: Vec<Session> = dots
            .iter()
            .flat_map(|dot| campaign.run_task(&truth.video, dot.at, 12).sessions)
            .collect();

        let mut acked = Vec::new();
        for (i, session) in sessions.iter().enumerate() {
            let seq = (i + 1) as u64;
            let oa = a.refine_batch(vid, Some(seq), session).unwrap().unwrap();
            let ob = b.refine_batch(vid, None, session).unwrap().unwrap();
            assert_eq!(oa, ob, "batch {i}: sequenced and unsequenced agree");
            assert!(!oa.replayed);
            acked.push((seq, session));
        }
        // Streamed and buffered ingestion produce bit-identical dot
        // state (watermarks differ by design — compare the dots).
        let sa = a.video_state(vid).unwrap();
        let sb = b.video_state(vid).unwrap();
        assert_eq!(
            serde_json::to_string(&sa.dots).unwrap(),
            serde_json::to_string(&sb.dots).unwrap(),
            "both paths refine to bit-identical dot state"
        );

        // Full replay (a client resuming from seq 0 after losing its
        // ack log): every batch is recognized, nothing folds twice.
        let before = serde_json::to_string(&a.video_state(vid).unwrap()).unwrap();
        for (seq, session) in acked {
            let o = a.refine_batch(vid, Some(seq), session).unwrap().unwrap();
            assert!(o.replayed, "seq {seq} recognized as a replay");
            assert_eq!(o.plays_buffered, 0);
            assert_eq!(o.dots_refined, 0);
        }
        let after = serde_json::to_string(&a.video_state(vid).unwrap()).unwrap();
        assert_eq!(before, after, "replays changed nothing");

        // Untracked video: typed None, not a panic or silent drop.
        assert!(a
            .refine_batch(vid, Some(1), &sessions[0])
            .unwrap()
            .is_some());
        assert!(a
            .refine_batch(VideoId(999_999), Some(1), &sessions[0])
            .unwrap()
            .is_none());
    }

    #[test]
    fn pending_plays_and_watermarks_survive_restart() {
        use lightor_types::{Interaction, UserId};
        let dir = TempDir::new("batch-restart");
        let vid;
        let dot_at;
        {
            let svc = service(&dir.0);
            let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            vid = p.recent_videos(p.channels()[0].id)[0];
            let dots = svc.open_video(vid).unwrap().unwrap();
            dot_at = dots[0].at;
            // One small sequenced batch: too few plays to trigger a
            // refinement round, but acknowledged — so both the buffered
            // plays and the watermark must be durable before the ack.
            let session = Session::new(
                UserId(7),
                vec![
                    Interaction::Play {
                        video_ts: Sec(dot_at.0 - 1.0),
                    },
                    Interaction::Pause {
                        video_ts: Sec(dot_at.0 + 5.0),
                    },
                ],
            );
            let o = svc.refine_batch(vid, Some(1), &session).unwrap().unwrap();
            assert_eq!(o.plays_buffered, 1);
            assert_eq!(o.dots_refined, 0, "below min_plays_per_round");
            // Dropped here: the SIGKILL stand-in.
        }
        let svc = service(&dir.0);
        let state = svc.video_state(vid).unwrap();
        assert_eq!(
            state.dots.iter().map(|d| d.pending.len()).sum::<usize>(),
            1,
            "acknowledged-but-unrefined plays survive the crash"
        );
        assert_eq!(
            state.sessions,
            vec![SessionSeq { client: 7, seq: 1 }],
            "the ack watermark survives the crash"
        );
        // Replaying the acknowledged batch after restart is a no-op.
        let session = Session::new(
            UserId(7),
            vec![Interaction::Play {
                video_ts: Sec(dot_at.0 - 1.0),
            }],
        );
        let o = svc.refine_batch(vid, Some(1), &session).unwrap().unwrap();
        assert!(o.replayed);
        let state = svc.video_state(vid).unwrap();
        assert_eq!(
            state.dots.iter().map(|d| d.pending.len()).sum::<usize>(),
            1,
            "replay buffered nothing"
        );
    }

    #[test]
    fn unsequenced_pending_plays_survive_a_crash() {
        use lightor_types::{Interaction, UserId};
        let dir = TempDir::new("unsequenced-restart");
        let vid;
        let acked;
        {
            let svc = service(&dir.0);
            let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
            vid = p.recent_videos(p.channels()[0].id)[0];
            let dots = svc.open_video(vid).unwrap().unwrap();
            // Fewer plays than `min_plays_per_round`, no sequence: no dot
            // steps, yet the batch is acknowledged with its plays
            // buffered, so they must be durable.
            let events = (0..3)
                .flat_map(|j| {
                    let s = dots[0].at.0 - 1.0 + j as f64;
                    [
                        Interaction::Play { video_ts: Sec(s) },
                        Interaction::Pause {
                            video_ts: Sec(s + 6.0),
                        },
                    ]
                })
                .collect();
            let o = svc
                .refine_batch(vid, None, &Session::new(UserId(3), events))
                .unwrap()
                .unwrap();
            assert_eq!((o.plays_buffered, o.dots_refined), (3, 0));
            acked = svc.video_state(vid).unwrap();
            // Dropped here without any shutdown: the SIGKILL stand-in.
        }
        let svc = service(&dir.0);
        let state = svc.video_state(vid).unwrap();
        assert_eq!(
            state.dots.iter().map(|d| d.pending.len()).sum::<usize>(),
            3,
            "acknowledged unsequenced plays survive the crash"
        );
        assert_eq!(state, acked);
    }

    /// `state`'s value with its watermarks in the array form
    /// `[{"client": c, "seq": s}, ...]`, which no longer decodes.
    fn array_form_value(state: &VideoState) -> serde_json::Value {
        let serde_json::Value::Map(mut fields) = serde_json::to_value(state).unwrap() else {
            panic!("a state encodes as an object");
        };
        for (name, value) in &mut fields {
            if name == "sessions" {
                *value = serde_json::to_value(&state.sessions).unwrap();
            }
        }
        serde_json::Value::Map(fields)
    }

    /// Every file under `dir` with its bytes, sorted by path.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn open_refuses_an_undecodable_state_and_leaves_it_stored() {
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        let mut marked = VideoState::default();
        marked.sessions.push(SessionSeq { client: 42, seq: 9 });
        let cases = [
            (
                video_key(vid),
                serde_json::from_str(r#"{"dots": 7}"#).unwrap(),
            ),
            (video_key(vid), array_form_value(&marked)),
            ("video:x".to_owned(), serde_json::to_value(&marked).unwrap()),
        ];
        for (i, (key, value)) in cases.into_iter().enumerate() {
            let dir = TempDir::new("undecodable");
            {
                // Odd cases sit in the snapshot, even ones in the WAL.
                let mut kv = KvStore::open(dir.0.join("state")).unwrap();
                kv.put(&key, &value).unwrap();
                if i % 2 == 1 {
                    kv.snapshot().unwrap();
                }
            }
            let stored = dir_bytes(&dir.0.join("state"));
            let Err(err) = LightorService::open(
                &dir.0,
                models(),
                SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92),
                ServiceConfig::default(),
            ) else {
                panic!("case {i}: open skipped the undecodable {key}");
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "case {i}");
            assert!(err.to_string().contains(&key), "case {i}: {err}");
            assert_eq!(dir_bytes(&dir.0.join("state")), stored, "case {i}");
        }
    }

    #[test]
    fn a_bundle_with_a_bad_state_is_refused_before_any_write() {
        use lightor_types::UserId;
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vids = p.recent_videos(p.channels()[0].id).to_vec();
        let (a, b) = (vids[0], vids[1]);
        let src_dir = TempDir::new("bad-bundle-src");
        let src = service(&src_dir.0);
        src.open_video(a).unwrap().unwrap();
        src.open_video(b).unwrap().unwrap();
        let quiet = Session::new(UserId(42), Vec::new());
        src.refine_batch(a, Some(9), &quiet).unwrap().unwrap();
        let good = src
            .export_bundle(&ExportRequest {
                videos: vec![a.0],
                since_seq: 0,
                freeze_ms: 0,
            })
            .unwrap();
        let bad_states = [
            serde_json::from_str(r#"{"dots": 7}"#).unwrap(),
            array_form_value(&src.video_state(b).unwrap()),
        ];
        for bad in bad_states {
            // Entry A is whole and good; entry B's state does not decode.
            let mut entries = good.entries.clone();
            entries.push(BundleEntryDto {
                video: b.0,
                state: Some(bad),
                chat_hex: None,
                tokenized_hex: None,
            });
            let crc32 = wire::bundle_crc(&entries);
            let bundle = BundleDto {
                entries,
                crc32,
                ..good.clone()
            };
            let dst_dir = TempDir::new("bad-bundle-dst");
            let dst = service(&dst_dir.0);
            let err = dst.import_bundle(&bundle).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&b.0.to_string()), "{err}");
            // Nothing of entry A was written, so its first sight below
            // persists over nothing the bundle shipped.
            assert_eq!(dst.stored_videos(), 0);
            assert!(dst.stores.lock().kv.is_empty());
            assert_eq!(dst.video_state(a), None);
            dst.open_video(a).unwrap().unwrap();
            assert!(dst.video_state(a).unwrap().sessions.is_empty());
        }
    }

    #[test]
    fn a_failed_write_still_publishes_the_states_already_stored() {
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vids = p.recent_videos(p.channels()[0].id).to_vec();
        let (a, b) = (vids[0], vids[1]);
        let src_dir = TempDir::new("half-import-src");
        let src = service(&src_dir.0);
        src.open_video(a).unwrap().unwrap();
        src.open_video(b).unwrap().unwrap();
        let bundle = src
            .export_bundle(&ExportRequest {
                videos: vec![a.0, b.0],
                since_seq: 0,
                freeze_ms: 0,
            })
            .unwrap();
        let dst_dir = TempDir::new("half-import-dst");
        let dst = service(&dst_dir.0);
        // A's state put lands; B's fails.
        dst.fault_injector()
            .arm(Fault::nth("kv.wal.write", 1, FaultKind::Error));
        assert!(dst.import_bundle(&bundle).is_err());
        // A is stored, so it must be published: a first sight would
        // otherwise overwrite it.
        assert_eq!(dst.video_state(a), src.video_state(a));
        assert_eq!(dst.video_state(b), None);
        dst.fault_injector().disarm_all();
        let applied = dst.import_bundle(&bundle).unwrap();
        assert_eq!(applied.states_applied, 2);
        assert_eq!(dst.video_state(b), src.video_state(b));
    }

    #[test]
    fn an_ack_logs_its_watermark_not_the_audience() {
        use lightor_types::{Interaction, UserId};
        let dir = TempDir::new("ack-patch");
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        let before = {
            let svc = service(&dir.0);
            let dots = svc.open_video(vid).unwrap().unwrap();
            // Converge every dot (as in the test above), then let 1000
            // clients with realistic 64-bit ids each acknowledge a batch.
            for dot in &dots {
                let events = (0..8)
                    .flat_map(|j| {
                        let s = dot.at.0 + 1.0 + 0.1 * j as f64;
                        [
                            Interaction::Play { video_ts: Sec(s) },
                            Interaction::Pause {
                                video_ts: Sec(s + 15.0),
                            },
                        ]
                    })
                    .collect();
                svc.refine_batch(vid, None, &Session::new(UserId(1), events))
                    .unwrap()
                    .unwrap();
            }
            assert!(svc
                .video_state(vid)
                .unwrap()
                .dots
                .iter()
                .all(|d| d.converged));
            let client = |i: u64| UserId(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
            for i in 0..1000 {
                let o = svc
                    .refine_batch(vid, Some(i + 1), &Session::new(client(i), Vec::new()))
                    .unwrap()
                    .unwrap();
                assert!(!o.replayed);
            }
            let full = serde_json::to_string(&svc.video_state(vid).unwrap()).unwrap();
            assert!(full.len() > 20_000, "full state is {} bytes", full.len());

            // Retire the WAL so the next ack's frame is all it holds.
            svc.compact_storage().unwrap();
            assert_eq!(svc.stats().kv_wal_bytes, 0);
            let o = svc
                .refine_batch(vid, Some(5000), &Session::new(client(500), Vec::new()))
                .unwrap()
                .unwrap();
            assert!(!o.replayed);
            let logged = svc.stats().kv_wal_bytes;
            assert!(logged < 256, "one ack logged {logged} bytes");
            svc.video_state(vid).unwrap()
            // Dropped here without any shutdown: the SIGKILL stand-in.
        };
        let svc = service(&dir.0);
        assert_eq!(svc.video_state(vid).unwrap(), before);
    }

    #[test]
    fn the_persist_after_a_failed_one_writes_the_whole_state() {
        use crate::store::{Fault, FaultKind};
        use lightor_types::{Interaction, UserId};
        let dir = TempDir::new("behind");
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        let before = {
            let svc = service(&dir.0);
            let dots = svc.open_video(vid).unwrap().unwrap();
            let plays = Session::new(
                UserId(1),
                vec![
                    Interaction::Play {
                        video_ts: Sec(dots[0].at.0 - 1.0),
                    },
                    Interaction::Pause {
                        video_ts: Sec(dots[0].at.0 + 5.0),
                    },
                ],
            );
            // The batch's plays are buffered in memory, but its merge
            // never becomes durable.
            svc.fault_injector()
                .arm(Fault::once("kv.wal.sync", FaultKind::Error));
            svc.refine_batch(vid, Some(1), &plays).unwrap_err();
            assert!(svc.is_degraded());
            svc.compact_storage().unwrap();
            // The next ack changes only a watermark, yet must carry the
            // whole state: the stored value lags the buffered plays.
            svc.refine_batch(vid, Some(1), &Session::new(UserId(2), Vec::new()))
                .unwrap()
                .unwrap();
            svc.video_state(vid).unwrap()
        };
        assert_eq!(
            before.dots.iter().map(|d| d.pending.len()).sum::<usize>(),
            1
        );
        let svc = service(&dir.0);
        assert_eq!(svc.video_state(vid).unwrap(), before);
    }

    /// One session replaying `plays` verbatim: a play/pause pair each.
    fn session_of(plays: &PlaySet) -> Session {
        use lightor_types::{Interaction, UserId};
        let events = plays
            .iter()
            .flat_map(|p| {
                [
                    Interaction::Play {
                        video_ts: p.start(),
                    },
                    Interaction::Pause { video_ts: p.end() },
                ]
            })
            .collect();
        Session::new(UserId(1), events)
    }

    /// Post each of `rounds` to the service as one batch and check that
    /// dot `k` of `vid` follows the offline trajectory `refined`, round
    /// by round: position, end boundary, and convergence.
    fn assert_follows(
        svc: &LightorService,
        vid: VideoId,
        k: usize,
        rounds: &[PlaySet],
        refined: &lightor::Refined,
    ) {
        let max = svc.models.extractor.config().max_iterations;
        assert!(refined.iterations() < max, "offline loop must converge");
        assert_eq!(rounds.len(), refined.iterations());
        let mut end = None;
        for (i, plays) in rounds.iter().enumerate() {
            svc.refine_batch(vid, None, &session_of(plays))
                .unwrap()
                .unwrap();
            let last = i + 1 == rounds.len();
            let next = if last {
                refined.start
            } else {
                refined.history[i + 1].dot
            };
            if let Some((_, e)) = refined.history[i].boundary {
                end = Some(e);
            }
            let dot = svc.video_state(vid).unwrap().dots[k].clone();
            assert_eq!(
                (dot.rounds, dot.current, dot.end, dot.converged),
                (i + 1, next, end, last),
                "round {i}"
            );
        }
        assert_eq!(end, refined.end);
    }

    #[test]
    fn service_folds_follow_the_offline_refine_trajectory() {
        let dir = TempDir::new("pin");
        let models = models();
        let extractor = models.extractor.clone();
        let delta = extractor.config().neighborhood;
        let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        // One play in scope is enough for a round, as in the offline loop.
        let cfg = ServiceConfig {
            min_plays_per_round: 1,
            ..ServiceConfig::default()
        };
        let svc = LightorService::open(&dir.0, models, platform.clone(), cfg).unwrap();
        let videos: Vec<VideoId> = platform
            .channels()
            .iter()
            .flat_map(|c| platform.recent_videos(c.id).to_vec())
            .collect();

        // Start 45 s after an initializer dot, so the crowd hunts
        // backward and the trajectory takes a Type I move before it
        // converges. The start must be more than 2Δ from every other dot
        // of its video, so each round's plays are buffered to it alone.
        let (vid, k, start, rounds, refined) = videos
            .iter()
            .flat_map(|&vid| {
                let dots = svc.open_video(vid).unwrap().unwrap();
                (0..dots.len())
                    .map(|k| (vid, k, Sec(dots[k].at.0 + 45.0)))
                    .filter(|&(_, k, start)| {
                        dots.iter()
                            .enumerate()
                            .all(|(j, d)| j == k || (d.at.0 - start.0).abs() > 2.0 * delta)
                    })
                    .collect::<Vec<_>>()
            })
            .find_map(|(vid, k, start)| {
                let truth = platform.ground_truth(vid).unwrap().clone();
                let mut campaign = Campaign::new(150, 98);
                let mut rounds = Vec::new();
                let refined = extractor.refine(RedDot::new(start.0, 1.0), &mut |at| {
                    let plays = campaign.run_task(&truth.video, at, 12).plays;
                    rounds.push(plays.clone());
                    plays
                });
                let walked = refined.history[0].classified == DotType::TypeI;
                let converged = refined.iterations() < extractor.config().max_iterations;
                (walked && converged).then_some((vid, k, start, rounds, refined))
            })
            .expect("an isolated dot whose trajectory starts with a Type I move");
        let entry = svc.videos.read().get(&vid).cloned().unwrap();
        entry.state.lock().dots[k].current = start;
        assert_follows(&svc, vid, k, &rounds, &refined);

        // The 0 s clamp: a dot 10 s in, whose plays are all too short to
        // survive the filter, moves back to 0 s, cannot move further,
        // and converges with no boundary (|s − s′| < ε).
        let vid = *videos.iter().find(|&&v| v != vid).unwrap();
        svc.open_video(vid).unwrap().unwrap();
        let entry = svc.videos.read().get(&vid).cloned().unwrap();
        entry.state.lock().dots[0].current = Sec(10.0);
        let short: PlaySet = (0..3).map(|_| Play::from_secs(9.0, 11.0)).collect();
        let mut rounds = Vec::new();
        let refined = extractor.refine(RedDot::new(10.0, 1.0), &mut |_| {
            rounds.push(short.clone());
            short.clone()
        });
        assert_eq!(
            (refined.iterations(), refined.start, refined.end),
            (2, Sec(0.0), None)
        );
        assert_follows(&svc, vid, 0, &rounds, &refined);
    }

    #[test]
    fn converged_dots_stop_growing_the_persisted_state() {
        use lightor_types::{Interaction, UserId};
        let dir = TempDir::new("converged");
        let svc = service(&dir.0);
        let p = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
        let vid = p.recent_videos(p.channels()[0].id)[0];
        let dots = svc.open_video(vid).unwrap().unwrap();
        // Eight plays starting just after a dot: a Type II round whose
        // boundary start lies within ε of the dot, so it converges.
        let batch = |client: u64, at: Sec| {
            let events = (0..8)
                .flat_map(|j| {
                    let s = at.0 + 1.0 + 0.1 * j as f64;
                    [
                        Interaction::Play { video_ts: Sec(s) },
                        Interaction::Pause {
                            video_ts: Sec(s + 15.0),
                        },
                    ]
                })
                .collect();
            Session::new(UserId(client), events)
        };
        for dot in &dots {
            svc.refine_batch(vid, None, &batch(1, dot.at))
                .unwrap()
                .unwrap();
        }
        assert!(svc
            .video_state(vid)
            .unwrap()
            .dots
            .iter()
            .all(|d| d.converged));

        let persisted = || {
            let stores = svc.stores.lock();
            let key = video_key(vid);
            let (_, stored) = stores
                .kv
                .with_prefix(&key)
                .find(|(k, _)| *k == key)
                .unwrap();
            let state: VideoState = serde_json::from_value_ref(stored).unwrap();
            (serde_json::to_string(&state).unwrap(), state)
        };
        // Two-digit sequence numbers keep the watermark's own length
        // fixed, so any growth would be the dots'.
        svc.refine_batch(vid, Some(10), &batch(7, dots[0].at))
            .unwrap()
            .unwrap();
        let (json, state) = persisted();
        let mut seq = 10;
        for _ in 0..3 {
            for dot in &dots {
                seq += 1;
                let o = svc
                    .refine_batch(vid, Some(seq), &batch(7, dot.at))
                    .unwrap()
                    .unwrap();
                assert_eq!(
                    (o.replayed, o.plays_buffered, o.dots_refined),
                    (false, 0, 0)
                );
                let (json_now, state_now) = persisted();
                assert_eq!(json_now.len(), json.len(), "seq {seq}: state grew");
                assert_eq!(state_now.dots, state.dots);
                assert_eq!(state_now.sessions, vec![SessionSeq { client: 7, seq }]);
            }
        }

        // A state persisted before converged dots dropped their plays
        // still carries them; the next fold clears them.
        let entry = svc.videos.read().get(&vid).cloned().unwrap();
        entry.state.lock().dots[0]
            .pending
            .push(Play::from_secs(dots[0].at.0, dots[0].at.0 + 9.0));
        svc.refine_batch(vid, Some(seq + 1), &batch(7, dots[0].at))
            .unwrap()
            .unwrap();
        assert_eq!(persisted().1.dots, state.dots);
    }
}
