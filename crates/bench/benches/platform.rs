//! Serving-path benches: record decode, warm vs cold service scoring,
//! and crowd-task simulation.
//!
//! These are the targets whose medians get recorded in
//! `BENCH_platform.json` (run with `CRITERION_JSON=BENCH_platform.json`),
//! starting the serving-path perf trajectory:
//!
//! * `chatstore_decode` — zero-copy v2 view decode and the two v2
//!   encoders (owned `ChatLog` vs view sections) on the bench corpus;
//! * `service_open_video_warm` — warm `open_video` (state-map hit) and
//!   warm vs cold `rescore_video` (corpus-cache hit vs re-tokenize);
//! * `campaign_run_task` — one crowd task / one batched round, at one
//!   forced worker thread and at the environment's thread count (the
//!   two series expose the multi-core speedup on multi-core hosts);
//! * `kv_put_throughput` — a WAL-amortized `KvStore::put` at 1k
//!   resident keys vs the pre-shard design's whole-store JSON rewrite
//!   (replicated inline as the baseline); and one acknowledged batch
//!   on a 300-client video logged as the service logs it, a one-
//!   watermark `KvStore::merge` patch (`ack_patch_300_clients`), vs a
//!   `put` of the whole `VideoState` (`ack_full_state_300_clients`,
//!   the ack's record before merge patches; budget: patch ≤ 0.5×);
//! * `segmentlog_compact` — one steady-state re-crawl cycle: overwrite
//!   a stored replay, then compact the chat log back to zero dead
//!   bytes;
//! * `http_serve` — the network edge over a real loopback socket: one
//!   keep-alive client doing warm `GET /video/{id}/dots` and
//!   `POST /sessions` round trips (one sequenced batch each, every one
//!   folded) against the `lightor_server` front
//!   end (median_ns is the p50 request latency; requests/sec is its
//!   reciprocal);
//! * `router_proxy` — the same warm dots GET measured directly against
//!   one backend and again through a `lightor-router` in front of it;
//!   the `via_router` / `direct` ratio is the proxy hop's overhead
//!   (budget: ≤ 2×);
//! * `corpus_persist` — the cold-scoring fix at store level: rebuild a
//!   scoring corpus by re-tokenizing the stored replay's raw text
//!   (`rebuild_raw`, the pre-v3 cold path) vs decoding the persisted
//!   v3 tokenized section into the same corpus (`load_v3`); the
//!   `rebuild_raw` / `load_v3` ratio is the persistence win. A third
//!   row, `tokenize_per_token_reference`, builds the same columns
//!   with the kernel's old per-token loop (`for_each_token` +
//!   `Vocab::intern` + sort/dedup); `rebuild_raw` / reference is the
//!   raw-word table's win (budget: ≤ 0.9×, fastest samples). The
//!   `mixed_vocab_build` / `mixed_vocab_per_token_reference` pair runs
//!   the kernel and that reference on the same replay with every word
//!   suffixed by its message index, so nearly every raw word is fresh:
//!   the other side of the table's property (printed, not gated). The
//!   `wide_messages_build` / `wide_messages_per_token_reference` pair
//!   runs both on the replay with every six messages joined into one,
//!   so 58% of messages carry more than 32 distinct ids: the other
//!   side of the kernel's rank-placement cutoff (printed, not gated);
//! * `store_crc` — `store::crc32`'s four interleaved lanes vs its
//!   serial slice-by-16 loop on what one first sight checksums (the
//!   v2 chat record and v3 companion of the bench dataset's second
//!   video, 122 KB; budget: lanes ≤ 0.6×, fastest samples);
//! * `chat_generation` — one video's chat replay: the bump-buffer
//!   fast path (compiled-lexicon pools straight into a columnar
//!   `ChatLogView`) vs the owned-`String`-per-message reference sink
//!   over the identical draw stream;
//! * `dataset_build` — an 8-video labelled corpus end to end (specs +
//!   chat + labels) at one forced worker thread and at the
//!   environment's thread count (the rayon fan-out win shows on
//!   multi-core hosts).
//!
//! The ratios CI gates on rows of this binary — `cold_rescore` /
//! `warm_rescore`, `rebuild_raw` / `tokenize_per_token_reference`,
//! `store_crc` `lanes` / `serial` and `ack_patch_300_clients` /
//! `ack_full_state_300_clients` — and the `via_router` / `direct`,
//! mixed-vocabulary and wide-message ratios CI prints are sampled
//! interleaved (`BenchmarkGroup::bench_pair`, 50 pairs even in quick
//! mode), so a host that changes speed between two rows cannot trip
//! them.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lightor_bench::{bench_dataset, bench_models};
use lightor_chatsim::SimPlatform;
use lightor_crowdsim::Campaign;
use lightor_platform::service::SessionSeq;
use lightor_platform::store::format;
use lightor_platform::{ChatStore, KvStore, LightorService, ServiceConfig, VideoState};
use lightor_server::cluster::{ClusterConfig, RouterServer};
use lightor_server::{HttpClient, HttpServer, ServerConfig};
use lightor_types::{
    ChannelId, ChatLog, ChatLogView, ChatMessage, GameKind, Highlight, LabeledVideo, Sec, UserId,
    VideoId, VideoMeta,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

fn bench_chatstore_decode(c: &mut Criterion) {
    let data = bench_dataset();
    let view = &data.videos[0].video.chat;
    let chat = view.to_chat_log();
    let v2: Arc<[u8]> = format::encode_v2_view(VideoId(1), view).into();

    let mut g = c.benchmark_group("chatstore_decode");
    g.throughput(Throughput::Elements(chat.len() as u64));
    // The serving path: v2 → zero-copy view, O(1) allocations.
    g.bench_function("v2_view", |b| {
        b.iter(|| black_box(format::decode_v2(&v2).expect("valid v2")))
    });
    g.bench_function("encode_v2", |b| {
        b.iter(|| black_box(format::encode_v2(VideoId(1), &chat)))
    });
    // The view-native encoder: section copies, no per-message walk.
    g.bench_function("encode_v2_view", |b| {
        b.iter(|| black_box(format::encode_v2_view(VideoId(1), view)))
    });
    g.finish();
}

fn bench_service_open_video_warm(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lightor-bench-svc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let data = bench_dataset();
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let svc = LightorService::open(
        &dir,
        bench_models(&data),
        platform,
        ServiceConfig::default(),
    )
    .unwrap();
    let k = ServiceConfig::default().top_k;
    // Cold open once: crawl + tokenize + score.
    svc.open_video(vid).unwrap().unwrap();

    let mut g = c.benchmark_group("service_open_video_warm");
    // Warm viewer request: state-map hit, no storage or model work.
    g.bench_function("warm_open", |b| {
        b.iter(|| black_box(svc.open_video(vid).unwrap().unwrap()))
    });
    // Warm re-score: corpus-cache hit — scoring without re-tokenizing.
    // Cold re-score: cache dropped each iteration — pays store read +
    // v3 decode + scoring; the ratio to the warm row is the cache win.
    // Their samples are interleaved (a cold sample leaves the cache
    // warm again), so the ratio compares samples taken side by side.
    // CI gates that ratio: 50 pairs of samples, in quick mode too.
    g.sample_size(50);
    g.bench_pair(
        "warm_rescore",
        |b| b.iter(|| black_box(svc.rescore_video(vid, k).unwrap().unwrap())),
        "cold_rescore",
        |b| {
            b.iter(|| {
                svc.clear_corpus_cache();
                black_box(svc.rescore_video(vid, k).unwrap().unwrap())
            })
        },
    );
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small fixed-size stand-in value — five `(position, score,
/// rounds)` triples — for the store-level put benches; the service's
/// own `VideoState` is the `ack_*` rows' value.
fn dot_state_value() -> Vec<(f64, f64, u64)> {
    (0..5).map(|i| (700.0 + i as f64, 0.9, 3u64)).collect()
}

fn bench_kv_put_throughput(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lightor-bench-kv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let value = dot_state_value();

    let mut g = c.benchmark_group("kv_put_throughput");
    // The new write path: one framed WAL append + fsync per put, shard
    // snapshot rewrites amortized by the op threshold.
    let mut kv = KvStore::open(dir.join("sharded")).unwrap();
    for i in 0..1000 {
        kv.put(&format!("video:{i}"), &value).unwrap();
    }
    let mut i = 0usize;
    g.bench_function("wal_put_1k_keys", |b| {
        b.iter(|| {
            i = (i + 1) % 1000;
            kv.put(&format!("video:{i}"), &value).unwrap();
        })
    });

    // The pre-shard design, replicated inline: every put re-serialized
    // the whole store as pretty JSON and rewrote one snapshot file.
    let mut map: BTreeMap<String, serde_json::Value> = (0..1000)
        .map(|i| (format!("video:{i}"), serde_json::to_value(&value).unwrap()))
        .collect();
    let snap = dir.join("monolithic.json");
    let tmp = dir.join("monolithic.tmp");
    let mut j = 0usize;
    g.bench_function("full_rewrite_put_1k_keys", |b| {
        b.iter(|| {
            j = (j + 1) % 1000;
            map.insert(format!("video:{j}"), serde_json::to_value(&value).unwrap());
            let bytes = serde_json::to_vec_pretty(&map).unwrap();
            std::fs::write(&tmp, bytes).unwrap();
            std::fs::rename(&tmp, &snap).unwrap();
        })
    });

    // One ack on a video with 300 acknowledged clients (64-bit ids) and
    // real initializer dots: the watermark-only merge patch the service
    // logs, vs a put of the whole state. Both rows share one store, so
    // they pay the same amortized snapshots, and one client/sequence
    // counter. CI gates their ratio, so their samples are interleaved,
    // 50 pairs of them in quick mode too.
    let mut state = ack_state(&dir.join("svc"), 300);
    let clients: Vec<String> = state
        .sessions
        .iter()
        .map(|s| s.client.to_string())
        .collect();
    let kv = RefCell::new(KvStore::open(dir.join("acks")).unwrap());
    kv.borrow_mut().put("video:1", &state).unwrap();
    let (n, seq) = (Cell::new(0usize), Cell::new(1u64));
    let next_ack = || {
        n.set((n.get() + 1) % clients.len());
        seq.set(seq.get() + 1);
        (n.get(), seq.get())
    };
    g.sample_size(50);
    g.bench_pair(
        "ack_patch_300_clients",
        |b| {
            b.iter(|| {
                let (n, seq) = next_ack();
                let mark = (clients[n].clone(), serde_json::Value::U64(seq));
                let patch = serde_json::Value::Map(vec![(
                    "sessions".to_owned(),
                    serde_json::Value::Map(vec![mark]),
                )]);
                kv.borrow_mut().merge("video:1", patch).unwrap();
            })
        },
        "ack_full_state_300_clients",
        |b| {
            b.iter(|| {
                let (n, seq) = next_ack();
                state.sessions[n].seq = seq;
                kv.borrow_mut().put("video:1", &state).unwrap();
            })
        },
    );
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A first-sight video state (real initializer dots, opened by a
/// service under `dir`) whose watermarks hold `clients` viewers.
fn ack_state(dir: &std::path::Path, clients: u64) -> VideoState {
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let data = bench_dataset();
    let svc =
        LightorService::open(dir, bench_models(&data), platform, ServiceConfig::default()).unwrap();
    svc.open_video(vid).unwrap().unwrap();
    let mut state = svc.video_state(vid).unwrap();
    state.sessions = (1..=clients)
        .map(|i| SessionSeq {
            client: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i),
            seq: 1,
        })
        .collect();
    state.sessions.sort_unstable_by_key(|s| s.client);
    state
}

fn bench_segmentlog_compact(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lightor-bench-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // 32 stored replays of 64 messages each; every iteration re-crawls
    // one video (orphaning its old record) and compacts the whole log.
    let chat = ChatLog::new(
        (0..64)
            .map(|i| {
                ChatMessage::new(
                    i as f64 * 1.5,
                    UserId(i as u64),
                    format!("message {i} with some realistic chat text 消息"),
                )
            })
            .collect(),
    );
    let mut store = ChatStore::open(&dir).unwrap();
    for vid in 0..32u64 {
        store.put_chat(VideoId(vid), &chat).unwrap();
    }

    let mut g = c.benchmark_group("segmentlog_compact");
    g.throughput(Throughput::Elements(32));
    let mut i = 0u64;
    g.bench_function("recrawl_then_compact_32_videos", |b| {
        b.iter(|| {
            i = (i + 1) % 32;
            store.put_chat(VideoId(i), &chat).unwrap();
            black_box(store.compact().unwrap())
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_corpus_persist(c: &mut Criterion) {
    use lightor::TokenizedChat;
    use lightor_platform::store::TokenizedRecord;

    let dir = std::env::temp_dir().join(format!("lightor-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One bench-corpus replay stored both ways: the v2 chat record and
    // its v3 tokenized companion, exactly as the service persists them.
    let data = bench_dataset();
    let vid = VideoId(1);
    let mut store = ChatStore::open(&dir).unwrap();
    store
        .put_chat(vid, &data.videos[0].video.chat.to_chat_log())
        .unwrap();
    let view = store.get_chat_view(vid).unwrap().unwrap();
    let corpus = TokenizedChat::build_from_view(&view);
    store
        .put_tokenized(&TokenizedRecord {
            video: vid,
            dim: corpus.dim() as u32,
            token_ends: corpus.token_ends().to_vec(),
            token_ids: corpus.token_ids().to_vec(),
            word_counts: corpus.word_counts().to_vec(),
        })
        .unwrap();

    let mut g = c.benchmark_group("corpus_persist");
    g.throughput(Throughput::Elements(view.len() as u64));
    // Pre-v3 cold path: read the replay, re-tokenize every message
    // with the service's one build. Against it, the build kernel
    // without its raw-word table: every token normalized and interned
    // one by one. Its columns equal the kernel's (asserted once,
    // outside the timing), so the `rebuild_raw` / reference ratio is
    // the table's win; the two rows' samples are interleaved, 50
    // pairs of them in quick mode too, as CI gates the ratio.
    assert_per_token_columns(view.ts_texts().map(|(_, text)| text), &corpus);
    g.sample_size(50);
    g.bench_pair(
        "rebuild_raw",
        |b| {
            b.iter(|| {
                let view = store.get_chat_view(vid).unwrap().unwrap();
                black_box(TokenizedChat::build_from_view(&view))
            })
        },
        "tokenize_per_token_reference",
        |b| {
            b.iter(|| {
                let view = store.get_chat_view(vid).unwrap().unwrap();
                black_box(per_token_columns(view.ts_texts().map(|(_, text)| text)))
            })
        },
    );
    // The other side of the raw-word table's property: the same replay
    // with every word suffixed by its message index, so nearly every
    // raw word is fresh. The pair is printed, not gated.
    let mixed: Vec<(f64, String)> = view
        .ts_texts()
        .enumerate()
        .map(|(i, (t, text))| {
            let words: Vec<String> = text.split_whitespace().map(|w| format!("{w}{i}")).collect();
            (t, words.join(" "))
        })
        .collect();
    let mixed_build =
        || TokenizedChat::build_from_iter(mixed.len(), mixed.iter().map(|(t, s)| (*t, s)));
    assert_per_token_columns(mixed.iter().map(|(_, s)| s), &mixed_build());
    g.bench_pair(
        "mixed_vocab_build",
        |b| b.iter(|| black_box(mixed_build())),
        "mixed_vocab_per_token_reference",
        |b| b.iter(|| black_box(per_token_columns(mixed.iter().map(|(_, s)| s)))),
    );
    // The other side of the kernel's rank-placement cutoff: the same
    // replay with every six consecutive messages joined into one, so
    // 58% of the messages carry more than 32 distinct ids and take the
    // sort.
    // The pair is printed, not gated.
    let wide: Vec<(f64, String)> = joined_messages(&view, 6);
    let wide_build =
        || TokenizedChat::build_from_iter(wide.len(), wide.iter().map(|(t, s)| (*t, s)));
    assert_per_token_columns(wide.iter().map(|(_, s)| s), &wide_build());
    g.bench_pair(
        "wide_messages_build",
        |b| b.iter(|| black_box(wide_build())),
        "wide_messages_per_token_reference",
        |b| b.iter(|| black_box(per_token_columns(wide.iter().map(|(_, s)| s)))),
    );
    // v3 cold path: decode the persisted columns and reassemble the
    // corpus — no tokenizer.
    g.bench_function("load_v3", |b| {
        b.iter(|| {
            let view = store.get_chat_view(vid).unwrap().unwrap();
            let rec = store.get_tokenized(vid).unwrap();
            let ts: Vec<f64> = (0..view.len()).map(|i| view.ts(i).0).collect();
            black_box(
                TokenizedChat::from_columns(
                    ts,
                    rec.word_counts,
                    &rec.token_ends,
                    rec.token_ids,
                    rec.dim as usize,
                )
                .expect("persisted columns are consistent"),
            )
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `view`'s messages joined `n` at a time, each joined message at the
/// timestamp of its last part.
fn joined_messages(view: &ChatLogView, n: usize) -> Vec<(f64, String)> {
    let messages: Vec<(f64, String)> = view
        .ts_texts()
        .map(|(t, text)| (t, text.into_owned()))
        .collect();
    messages
        .chunks(n)
        .map(|chunk| {
            let texts: Vec<&str> = chunk.iter().map(|(_, s)| s.as_str()).collect();
            (chunk.last().unwrap().0, texts.join(" "))
        })
        .collect()
}

/// Assert that [`per_token_columns`] over `texts` builds `corpus`'s
/// columns.
fn assert_per_token_columns<S: AsRef<str>>(
    texts: impl Iterator<Item = S>,
    corpus: &lightor::TokenizedChat,
) {
    assert_eq!(
        per_token_columns(texts),
        (
            corpus.token_ids().to_vec(),
            corpus.token_ends().to_vec(),
            corpus.word_counts().to_vec(),
            corpus.dim(),
        ),
        "the per-token reference must build the kernel's columns"
    );
}

/// A corpus's `(token_ids, token_ends, word_counts, dim)` built the way
/// the kernel was before its raw-word table: each message through
/// `Tokenizer::for_each_token`, each token through `Vocab::intern`,
/// then sort and dedup per message.
fn per_token_columns<S: AsRef<str>>(
    texts: impl Iterator<Item = S>,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, usize) {
    use lightor_mlcore::text::{Tokenizer, Vocab};
    let mut vocab = Vocab::new();
    let (mut ids, mut ends, mut words) = (Vec::new(), Vec::new(), Vec::new());
    let mut idx: Vec<u32> = Vec::new();
    for text in texts {
        idx.clear();
        let n = Tokenizer.for_each_token(text.as_ref(), |tok| idx.push(vocab.intern(tok)));
        idx.sort_unstable();
        idx.dedup();
        ids.extend_from_slice(&idx);
        ends.push(ids.len() as u32);
        words.push(n as u32);
    }
    (ids, ends, words, vocab.len())
}

fn bench_store_crc(c: &mut Criterion) {
    use lightor::TokenizedChat;
    use lightor_platform::store::{crc32, crc32_serial, TokenizedRecord};

    // What one first sight checksums: the v2 chat record and v3
    // companion of the bench dataset's second video, 122 KB (the median
    // first sight of the loadbench catalog writes 106–119 KB).
    let data = bench_dataset();
    let view = &data.videos[1].video.chat;
    let corpus = TokenizedChat::build_from_view(view);
    let mut payload = format::encode_v2_view(VideoId(1), view);
    payload.extend(format::encode_v3(&TokenizedRecord {
        video: VideoId(1),
        dim: corpus.dim() as u32,
        token_ends: corpus.token_ends().to_vec(),
        token_ids: corpus.token_ids().to_vec(),
        word_counts: corpus.word_counts().to_vec(),
    }));
    assert_eq!(crc32(&payload), crc32_serial(&payload));

    let mut g = c.benchmark_group("store_crc");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    // `crc32`'s four interleaved lanes vs its serial slice-by-16 loop;
    // CI gates the ratio, so the samples are interleaved, 50 pairs of
    // them in quick mode too.
    g.sample_size(50);
    g.bench_pair(
        "lanes",
        |b| b.iter(|| black_box(crc32(black_box(&payload)))),
        "serial",
        |b| b.iter(|| black_box(crc32_serial(black_box(&payload)))),
    );
    g.finish();
}

fn bench_http_serve(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lightor-bench-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let data = bench_dataset();
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let truth = platform.ground_truth(vid).unwrap().clone();
    let svc = Arc::new(
        LightorService::open(
            &dir,
            bench_models(&data),
            platform,
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    let server = HttpServer::bind(("127.0.0.1", 0), svc, ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Warm the state map and corpus cache: the bench measures the
    // serving path, not the first crawl.
    let dots_path = format!("/video/{}/dots", vid.0);
    assert_eq!(client.get(&dots_path).unwrap().status, 200);

    // One realistic session upload, its events serialized once. Each
    // iteration posts it with the next `seq`, so every request folds
    // (a repeated seq would time a replay).
    let session = Campaign::new(64, 0xBE7C)
        .run_task(
            &truth.video,
            Sec(truth.video.highlights[0].range.start.0),
            1,
        )
        .sessions
        .remove(0);
    let events: Vec<lightor_platform::wire::EventDto> = session
        .events
        .iter()
        .map(|&e| lightor_platform::wire::EventDto::from(e))
        .collect();
    let events_json = serde_json::to_string(&events).unwrap();
    // The body up to its `seq` value is built once; each iteration
    // only rewrites the number and the closing brace.
    let mut body = format!(
        r#"{{"video":{},"client":{},"events":{events_json},"seq":"#,
        vid.0, session.user.0
    );
    let prefix_len = body.len();
    let mut seq = 0u64;

    let mut g = c.benchmark_group("http_serve");
    g.throughput(Throughput::Elements(1));
    // Warm page load: state-map hit + a copy of the published JSON
    // body + one socket round trip.
    g.bench_function("get_dots_warm", |b| {
        b.iter(|| {
            let resp = client.get(&dots_path).unwrap();
            assert_eq!(resp.status, 200);
            black_box(resp)
        })
    });
    // Implicit-feedback ingestion: parse + validate + buffer + refine.
    g.bench_function("post_session", |b| {
        b.iter(|| {
            seq += 1;
            body.truncate(prefix_len);
            write!(body, "{seq}}}").unwrap();
            let resp = client.post_json("/sessions", &body).unwrap();
            assert_eq!(resp.status, 200);
            black_box(resp)
        })
    });
    g.finish();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_router_proxy(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lightor-bench-router-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let data = bench_dataset();
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 92);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let svc = Arc::new(
        LightorService::open(
            &dir,
            bench_models(&data),
            platform,
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    let backend = HttpServer::bind(("127.0.0.1", 0), svc, ServerConfig::default()).unwrap();
    let router = RouterServer::bind(
        ("127.0.0.1", 0),
        ClusterConfig::new(vec![backend.local_addr()]),
        ServerConfig::default(),
    )
    .unwrap();

    let mut direct = HttpClient::connect(backend.local_addr()).unwrap();
    let mut via_router = HttpClient::connect(router.local_addr()).unwrap();
    let dots_path = format!("/video/{}/dots", vid.0);
    // Warm both paths: the shard's state map plus the router's pooled
    // keep-alive connection to the backend.
    assert_eq!(direct.get(&dots_path).unwrap().status, 200);
    assert_eq!(via_router.get(&dots_path).unwrap().status, 200);

    // Same warm GET measured with and without the extra hop — the gap
    // is the router's proxy overhead (parse + shard + forward + relay),
    // budgeted at ≤ 2× the direct p50. The two rows' samples are
    // interleaved, 50 pairs of them in quick mode too, so their ratio
    // compares samples taken side by side.
    let mut g = c.benchmark_group("router_proxy");
    g.throughput(Throughput::Elements(1));
    g.sample_size(50);
    g.bench_pair(
        "direct",
        |b| {
            b.iter(|| {
                let resp = direct.get(&dots_path).unwrap();
                assert_eq!(resp.status, 200);
                black_box(resp)
            })
        },
        "via_router",
        |b| {
            b.iter(|| {
                let resp = via_router.get(&dots_path).unwrap();
                assert_eq!(resp.status, 200);
                black_box(resp)
            })
        },
    );
    g.finish();
    router.shutdown();
    backend.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn crowd_video() -> LabeledVideo {
    LabeledVideo {
        meta: VideoMeta {
            id: VideoId(0),
            channel: ChannelId(0),
            game: GameKind::Dota2,
            duration: Sec(3600.0),
            viewers: 500,
        },
        chat: ChatLogView::empty(),
        highlights: vec![
            Highlight::from_secs(700.0, 716.0),
            Highlight::from_secs(1990.0, 2005.0),
        ],
    }
}

fn bench_campaign_run_task(c: &mut Criterion) {
    let video = crowd_video();
    let dots = [Sec(1992.0), Sec(2000.0), Sec(2035.0), Sec(705.0)];

    // Forcing the worker count through the rayon stub's env knob is
    // safe here: no parallel region is live between benches, and the
    // bench binary itself is single-threaded.
    for (label, threads) in [("threads_1", Some("1")), ("threads_auto", None)] {
        match threads {
            Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        let mut g = c.benchmark_group(&format!("campaign_run_task/{label}"));
        let mut campaign = Campaign::new(492, 0xBE7C);
        g.bench_function("one_task_16", |b| {
            b.iter(|| black_box(campaign.run_task(&video, dots[0], 16)))
        });
        let tasks: Vec<(&LabeledVideo, Sec)> = dots.iter().map(|&d| (&video, d)).collect();
        g.bench_function("round_4x16", |b| {
            b.iter(|| black_box(campaign.run_tasks(&tasks, 16)))
        });
        g.finish();
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

fn bench_chat_generation(c: &mut Criterion) {
    use lightor_chatsim::{ChatGenerator, GameProfile, VideoGenerator};
    use lightor_simkit::SeedTree;

    let profile = Arc::new(GameProfile::dota2());
    let vg = VideoGenerator::new(profile.clone());
    let cg = ChatGenerator::new(profile);
    let root = SeedTree::new(7);
    let spec = {
        let mut vrng = root.child("v").rng();
        vg.generate(VideoId(0), ChannelId(0), &mut vrng)
    };
    let mut g = c.benchmark_group("chat_generation");
    g.sample_size(10);
    // Bump-buffer fast path: compiled-lexicon writers emitting the
    // columnar ChatLogView directly.
    g.bench_function("one_video", |b| {
        b.iter(|| {
            let mut crng = root.child("c").rng();
            black_box(cg.generate(spec.clone(), &mut crng))
        })
    });
    // Pre-refactor reference: one String per message, owned ChatLog,
    // then columnarization. Output is bit-identical; only cost differs.
    g.bench_function("one_video_reference", |b| {
        b.iter(|| {
            let mut crng = root.child("c").rng();
            black_box(cg.generate_reference(spec.clone(), &mut crng))
        })
    });
    g.finish();
}

fn bench_dataset_build(c: &mut Criterion) {
    use lightor_chatsim::Dataset;

    // A small corpus (8 videos ≈ one quick-scale experiment's worth of
    // setup) at one forced worker thread and at the environment's
    // thread count — the two series expose the fan-out win on
    // multi-core hosts while threads_1 tracks the pure per-video cost.
    const N_VIDEOS: usize = 8;
    for (label, threads) in [("threads_1", Some("1")), ("threads_auto", None)] {
        match threads {
            Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        let mut g = c.benchmark_group(&format!("dataset_build/{label}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(N_VIDEOS as u64));
        g.bench_function("dota2_8_videos", |b| {
            b.iter(|| black_box(Dataset::generate(GameKind::Dota2, N_VIDEOS, 0xBE7C)))
        });
        g.finish();
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

criterion_group!(
    benches,
    bench_chatstore_decode,
    bench_service_open_video_warm,
    bench_campaign_run_task,
    bench_kv_put_throughput,
    bench_segmentlog_compact,
    bench_corpus_persist,
    bench_store_crc,
    bench_http_serve,
    bench_router_proxy,
    bench_chat_generation,
    bench_dataset_build,
);
criterion_main!(benches);
