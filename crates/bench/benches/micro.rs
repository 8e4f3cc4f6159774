//! Micro benches for the hot paths: window featurization, scoring,
//! filtering, storage encode/decode, and the chat generator itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lightor::{filter_plays, sliding_windows, ExtractorConfig, TokenizedChat, WindowFeatures};
use lightor_bench::{bench_dataset, bench_initializer};
use lightor_chatsim::{ChatGenerator, GameProfile, VideoGenerator};
use lightor_simkit::SeedTree;
use lightor_types::{ChannelId, Play, PlaySet, Sec, VideoId};

fn bench_window_features(c: &mut Criterion) {
    let data = bench_dataset();
    let sv = &data.videos[0];
    let chat = sv.video.chat.to_chat_log();
    let chat = &chat;
    let windows = sliding_windows(chat, sv.video.meta.duration, 25.0, 0.5);
    let corpus = TokenizedChat::build_from_view(&sv.video.chat);
    let mut g = c.benchmark_group("window_features");
    g.throughput(Throughput::Elements(windows.len() as u64));
    // Naive reference: re-tokenize + dense center per window.
    g.bench_function("all_windows", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(WindowFeatures::compute(chat.slice(*w)));
            }
        })
    });
    // Incremental rolling pass over the tokenize-once corpus.
    g.bench_function("all_windows_incremental", |b| {
        b.iter(|| black_box(corpus.featurize_windows(&windows, 5.0)))
    });
    // Corpus construction itself (amortized once per video).
    g.bench_function("corpus_build", |b| {
        b.iter(|| black_box(TokenizedChat::build(chat)))
    });
    g.finish();
}

fn bench_score_video(c: &mut Criterion) {
    let data = bench_dataset();
    let init = bench_initializer(&data);
    let sv = &data.videos[3];
    let owned = sv.video.chat.to_chat_log();
    c.bench_function("initializer_score_full_video", |b| {
        b.iter(|| {
            black_box(init.red_dots(&sv.video.chat, sv.video.meta.duration, 10));
        })
    });
    c.bench_function("initializer_score_full_video_naive", |b| {
        b.iter(|| {
            black_box(init.score_windows_naive(&owned, sv.video.meta.duration));
        })
    });
    // Production shape: corpus built once, scored per request.
    let corpus = TokenizedChat::build_from_view(&sv.video.chat);
    c.bench_function("initializer_score_prebuilt_corpus", |b| {
        b.iter(|| black_box(init.score_corpus(&corpus, sv.video.meta.duration)));
    });
}

fn bench_filter_plays(c: &mut Criterion) {
    // 64 plays around a dot; the overlap graph is quadratic in survivors.
    let plays: PlaySet = (0..64)
        .map(|i| {
            let s = 1960.0 + (i as f64 * 7.3) % 90.0;
            Play::from_secs(s, s + 5.0 + (i as f64 * 3.1) % 40.0)
        })
        .collect();
    let cfg = ExtractorConfig::default();
    c.bench_function("filter_plays_64", |b| {
        b.iter(|| black_box(filter_plays(&plays, Sec(2000.0), &cfg)))
    });
}

fn bench_chat_generation(c: &mut Criterion) {
    let profile = std::sync::Arc::new(GameProfile::dota2());
    let vg = VideoGenerator::new(profile.clone());
    let cg = ChatGenerator::new(profile);
    let root = SeedTree::new(7);
    let spec = {
        let mut vrng = root.child("v").rng();
        vg.generate(VideoId(0), ChannelId(0), &mut vrng)
    };
    let mut g = c.benchmark_group("chat_generation");
    g.sample_size(10);
    // The bump-buffer fast path: compiled-lexicon writers straight into
    // a columnar ChatLogView.
    g.bench_function("one_video", |b| {
        b.iter(|| {
            let mut crng = root.child("c").rng();
            black_box(cg.generate(spec.clone(), &mut crng))
        })
    });
    // The pre-refactor reference: one String per message + owned
    // ChatLog sort + columnarization (bit-identical output).
    g.bench_function("one_video_reference", |b| {
        b.iter(|| {
            let mut crng = root.child("c").rng();
            black_box(cg.generate_reference(spec.clone(), &mut crng))
        })
    });
    g.finish();
}

fn bench_chat_store(c: &mut Criterion) {
    use lightor_platform::ChatStore;
    let data = bench_dataset();
    let chat = &data.videos[0].video.chat;
    let chat_owned = chat.to_chat_log();
    let dir = std::env::temp_dir().join(format!("lightor-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ChatStore::open(&dir).unwrap();
    let mut g = c.benchmark_group("chat_store");
    g.throughput(Throughput::Elements(chat.len() as u64));
    g.sample_size(20);
    let mut vid = 0u64;
    g.bench_function("put_full_video", |b| {
        b.iter(|| {
            vid += 1;
            store.put_chat_view(VideoId(vid), chat).unwrap();
        })
    });
    store.put_chat(VideoId(0), &chat_owned).unwrap();
    g.bench_function("get_full_video", |b| {
        b.iter(|| black_box(store.get_chat(VideoId(0)).unwrap()))
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_window_features,
    bench_score_video,
    bench_filter_plays,
    bench_chat_generation,
    bench_chat_store,
);
criterion_main!(benches);
