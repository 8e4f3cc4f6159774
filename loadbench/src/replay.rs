//! The traced in-process replay: the requests a run sent, replayed
//! through the program's public functions with a span around each call.
//!
//! One service is opened on a fresh directory with the seed's models
//! and platform, and sees every request in the order the server did, so
//! it holds the state the server held. Requests that change state go
//! down one of two paths, alternating by request id: the worker's path
//! (parse the recorded bytes, `router::dispatch`, encode the response),
//! or the same request one layer down as direct calls (`open_video`,
//! `refine_batch`, …) beside the library calls those are built from
//! (`put_chat_view`, tokenize, score, one Algorithm 2 step,
//! `KvStore::put` into a bench-owned store). Reads take both paths. A
//! second thread reads `cached_dots` while the replay writes, timing the
//! RCU read under writes.

use crate::phase::{Kind, Op};
use crate::trace::Tracer;
use lightor::{
    aggregate_type2, filter_plays, play_position_features, DotType, GlobalVocab, ModelBundle,
    TokenizedChat,
};
use lightor_chatsim::SimPlatform;
use lightor_platform::store::{ChatStore, KvStore};
use lightor_platform::wire::{DotsResponse, StreamBatchDto};
use lightor_platform::{LightorService, ServiceConfig, VideoState};
use lightor_server::{HttpMetrics, Limits, RequestParser};
use lightor_types::{Play, PlaySet, RedDot, Sec, VideoId};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What the reader thread shares.
struct Services {
    svc: LightorService,
    metrics: HttpMetrics,
}

/// What the replaying thread owns.
struct Bench {
    chat: ChatStore,
    kv: KvStore,
    vocab: GlobalVocab,
    models: ModelBundle,
    tracer: Tracer,
    /// Plays buffered per `(video, dot rank)`, as the service buffers
    /// them, to time one Algorithm 2 step when a dot has enough.
    pending: HashMap<(u64, usize), Vec<Play>>,
    mismatches: Vec<String>,
}

pub struct Replay<'p> {
    svc: Services,
    bench: Bench,
    platform: &'p SimPlatform,
    dir: std::path::PathBuf,
    next_id: u32,
    t0: Instant,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("replay {what}: {e}")
}

impl<'p> Replay<'p> {
    pub fn new(
        dir: &Path,
        platform: &'p SimPlatform,
        models: &ModelBundle,
        t0: Instant,
    ) -> Result<Self, String> {
        let svc = LightorService::open(
            &dir.join("service"),
            models.clone(),
            platform.clone(),
            ServiceConfig::default(),
        )
        .map_err(io("open service"))?;
        Ok(Replay {
            svc: Services {
                svc,
                metrics: HttpMetrics::new(),
            },
            bench: Bench {
                chat: ChatStore::open(dir.join("chat")).map_err(io("open chat store"))?,
                kv: KvStore::open(dir.join("kv")).map_err(io("open kv store"))?,
                vocab: GlobalVocab::new(),
                models: models.clone(),
                tracer: Tracer::new(t0),
                pending: HashMap::new(),
                mismatches: Vec::new(),
            },
            platform,
            dir: dir.to_path_buf(),
            next_id: 0,
            t0,
        })
    }

    /// Replay `ops` in order while a second thread times `cached_dots`
    /// on `read_videos` (only reads that find the video are recorded).
    pub fn run(&mut self, ops: &[Op], read_videos: &[u64]) {
        let stop = AtomicBool::new(false);
        let svc = &self.svc;
        let bench = &mut self.bench;
        let platform = self.platform;
        let first_id = self.next_id;
        let t0 = self.t0;
        let reads = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut t = Tracer::new(t0);
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) && !read_videos.is_empty() {
                    let v = VideoId(read_videos[i % read_videos.len()]);
                    let start = Instant::now();
                    let dots = svc.svc.cached_dots(v);
                    let end = Instant::now();
                    if black_box(dots).is_some() {
                        t.record("service.cached_dots", i as u32, start, end);
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                t
            });
            for (k, op) in ops.iter().enumerate() {
                replay_op(svc, bench, platform, t0, first_id + k as u32, op);
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("replay reader panicked")
        });
        self.bench.tracer.absorb(reads);
        self.next_id += ops.len() as u32;
    }

    /// `n` 4 KiB appends, each followed by `sync_data`, on the
    /// data-dir filesystem: the disk floor under every durable write.
    pub fn fsync_floor(&mut self, n: usize) -> Result<(), String> {
        let path = self.dir.join("fsync-floor.bin");
        let mut f = std::fs::File::create(&path).map_err(io("fsync floor"))?;
        let block = [0x5Au8; 4096];
        for i in 0..n {
            self.bench
                .tracer
                .span("store.fsync", i as u32, |_| {
                    f.write_all(&block).and_then(|_| f.sync_data())
                })
                .map_err(io("fsync floor"))?;
        }
        Ok(())
    }

    /// The replayed service's current dots for `video`.
    pub fn dots(&self, video: u64) -> Option<Vec<RedDot>> {
        self.svc.svc.cached_dots(VideoId(video))
    }

    /// The replayed service's refinement state of `video`.
    pub fn state(&self, video: u64) -> Option<VideoState> {
        self.svc.svc.video_state(VideoId(video))
    }

    pub fn tracer(&self) -> &Tracer {
        &self.bench.tracer
    }

    pub fn into_tracer(self) -> Tracer {
        self.bench.tracer
    }

    pub fn mismatches(&self) -> &[String] {
        &self.bench.mismatches
    }
}

fn replay_op(svc: &Services, b: &mut Bench, platform: &SimPlatform, t0: Instant, id: u32, op: &Op) {
    let root = match op.kind {
        Kind::Dots => "op.dots",
        Kind::FirstSight => "op.first_sight",
        Kind::Stream => "op.stream",
    };
    let dispatch = match op.kind {
        Kind::Dots | Kind::FirstSight => "router.dispatch.dots",
        Kind::Stream => "router.dispatch.stream",
    };
    let mut tracer = std::mem::replace(&mut b.tracer, Tracer::new(t0));
    tracer.span(root, id, |t| {
        let req = t.span("http.parse", id, |_| {
            let mut parser = RequestParser::new(Limits::default());
            parser.extend(&op.raw);
            parser.try_next()
        });
        let req = match req {
            Ok(Some(r)) => r,
            other => {
                b.mismatches.push(format!(
                    "op {id}: recorded request did not parse: {other:?}"
                ));
                return;
            }
        };
        // A read takes both paths; a write takes one, so the service
        // sees each request exactly once.
        let worker_path = op.kind == Kind::Dots || id.is_multiple_of(2);
        if worker_path {
            let (_, resp) = t.span(dispatch, id, |_| {
                lightor_server::router::dispatch(&svc.svc, &svc.metrics, &req)
            });
            let mut wire = Vec::new();
            t.span("http.encode", id, |_| resp.write_to(&mut wire, true))
                .expect("writing to a Vec never fails");
            if resp.status != 200 {
                b.mismatches.push(format!(
                    "op {id}: in-process dispatch answered {}",
                    resp.status
                ));
                return;
            }
        }
        match op.kind {
            Kind::Dots => {
                let dots = svc.svc.cached_dots(VideoId(op.video)).unwrap_or_default();
                encode_dots(t, id, op.video, dots);
            }
            Kind::FirstSight if !worker_path => first_sight(t, svc, b, platform, id, op.video),
            Kind::Stream if !worker_path => {
                for line in req.body.split(|&c| c == b'\n').filter(|l| !l.is_empty()) {
                    stream_line(t, svc, b, id, line);
                }
            }
            Kind::FirstSight | Kind::Stream => {}
        }
    });
    b.tracer = tracer;
}

fn encode_dots(t: &mut Tracer, id: u32, video: u64, dots: Vec<RedDot>) -> String {
    t.span("wire.dots_encode", id, |_| {
        serde_json::to_string(&DotsResponse {
            video,
            dots: dots.into_iter().map(Into::into).collect(),
        })
        .expect("DotsResponse serializes")
    })
}

/// One first sight, as the service call and as its parts.
fn first_sight(
    t: &mut Tracer,
    svc: &Services,
    b: &mut Bench,
    platform: &SimPlatform,
    id: u32,
    video: u64,
) {
    let vid = VideoId(video);
    let dots = t.span("service.open_video_first", id, |_| svc.svc.open_video(vid));
    let dots = match dots {
        Ok(Some(d)) => d,
        other => {
            b.mismatches
                .push(format!("video {video}: open_video gave {other:?}"));
            return;
        }
    };
    let (Some(chat), Some(meta)) = (platform.fetch_chat(vid), platform.video_meta(vid)) else {
        b.mismatches
            .push(format!("video {video}: not on the platform"));
        return;
    };
    if let Err(e) = t.span("store.chat_put", id, |_| b.chat.put_chat_view(vid, chat)) {
        b.mismatches.push(format!("video {video}: chat put: {e}"));
    }
    let (corpus, _delta) = t.span("lightor.tokenize", id, |_| {
        TokenizedChat::build_from_view_global(chat, &b.vocab)
    });
    let top_k = svc.svc.config().top_k;
    let scored = t.span("lightor.score", id, |_| {
        b.models
            .initializer
            .red_dots_corpus(&corpus, meta.duration, top_k)
    });
    if scored != dots {
        b.mismatches.push(format!(
            "video {video}: scoring the parts disagrees with open_video"
        ));
    }
    put_state(t, svc, b, id, video);
    encode_dots(t, id, video, dots);
}

fn put_state(t: &mut Tracer, svc: &Services, b: &mut Bench, id: u32, video: u64) {
    if let Some(state) = svc.svc.video_state(VideoId(video)) {
        let key = format!("video:{video}");
        if let Err(e) = t.span("store.kv_put", id, |_| b.kv.put(&key, &state)) {
            b.mismatches.push(format!("video {video}: kv put: {e}"));
        }
    }
}

/// One NDJSON batch: decode, fold through the service, and time one
/// Algorithm 2 step whenever a dot has buffered a round's worth of plays.
fn stream_line(t: &mut Tracer, svc: &Services, b: &mut Bench, id: u32, line: &[u8]) {
    let decoded = t.span("wire.batch_decode", id, |_| {
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        let batch: StreamBatchDto = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let seq = batch.seq;
        batch
            .as_upload()
            .try_into_session()
            .map(|(v, s)| (v, seq, s))
            .map_err(|e| e.to_string())
    });
    let (video, seq, session) = match decoded {
        Ok(x) => x,
        Err(e) => {
            b.mismatches
                .push(format!("op {id}: batch did not decode: {e}"));
            return;
        }
    };
    let dots = svc.svc.cached_dots(video).unwrap_or_default();
    match t.span("service.refine_batch", id, |_| {
        svc.svc.refine_batch(video, seq, &session)
    }) {
        Ok(Some(outcome)) if !outcome.replayed => {}
        other => b
            .mismatches
            .push(format!("video {}: refine_batch gave {other:?}", video.0)),
    }
    let cfg = *b.models.extractor.config();
    let round = svc.svc.config().min_plays_per_round;
    for play in session.plays() {
        let nearest = dots
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, c)| {
                play.range
                    .distance_to(a.at)
                    .total_cmp(&play.range.distance_to(c.at))
            })
            .filter(|(_, d)| play.range.distance_to(d.at).0 <= cfg.neighborhood);
        let Some((rank, dot)) = nearest else { continue };
        let buf = b.pending.entry((video.0, rank)).or_default();
        buf.push(play);
        if buf.len() >= round {
            let plays = PlaySet::new(std::mem::take(buf));
            refine_step(t, b, id, dot.at, plays);
        }
    }
    put_state(t, svc, b, id, video.0);
}

/// One Algorithm 2 round on one dot: filter, features, classify, and
/// (Type II) aggregate — the step `refine_batch` runs per ripe dot.
fn refine_step(t: &mut Tracer, b: &Bench, id: u32, dot: Sec, plays: PlaySet) {
    let cfg = *b.models.extractor.config();
    let classifier = b.models.extractor.classifier();
    t.span("lightor.refine_step", id, |t| {
        let filtered = t.span("lightor.filter", id, |_| filter_plays(&plays, dot, &cfg));
        if filtered.is_empty() {
            return;
        }
        let feats = t.span("lightor.features", id, |_| {
            play_position_features(&filtered, dot)
        });
        let kind = t.span("lightor.classify", id, |_| classifier.classify(&feats));
        if kind == DotType::TypeII {
            black_box(t.span("lightor.aggregate", id, |_| aggregate_type2(&filtered, dot)));
        }
    });
}
