//! Crash recovery and storage maintenance across the deployment stack:
//! WAL-only durability through a service restart, injected storage
//! faults, and dead-byte reclaim driven from the service and crawler.

use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::{
    ChatStore, Crawler, Fault, FaultInjector, FaultKind, LightorService, ServiceConfig,
};
use lightor_types::{ChannelId, GameKind};
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "lightor-recovery-{tag}-{}-{}",
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

fn models(seed: u64) -> ModelBundle {
    let data = dota2_dataset(2, seed);
    let train: Vec<_> = data.videos.iter().collect();
    let initializer = train_initializer(&train, FeatureSet::Full);
    let mut campaign = Campaign::new(200, seed ^ 9);
    let (classifier, _) = train_type_classifier(&train, &mut campaign, 3, seed ^ 10);
    ModelBundle {
        initializer,
        extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
        provenance: format!("recovery seed {seed}"),
    }
}

/// Refinement state persisted only to the WAL (no snapshot ever forced)
/// must survive a hard restart, and the persistence counters must show
/// the write path is WAL appends, not whole-store rewrites.
#[test]
fn wal_only_state_survives_restart() {
    let dir = TempDir::new("wal-restart");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 3003);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let truth = platform.ground_truth(vid).unwrap().clone();

    let before = {
        let svc = LightorService::open(
            &dir.0,
            models(3004),
            platform.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        svc.open_video(vid).unwrap().unwrap();
        let mut crowd = Campaign::new(100, 3005);
        for d in svc.video_state(vid).unwrap().dots {
            for session in crowd.run_task(&truth.video, d.current, 12).sessions {
                svc.refine_batch(vid, None, &session).unwrap().unwrap();
            }
        }
        let stats = svc.stats();
        assert!(stats.kv_wal_appends >= 2, "open + refine must both persist");
        assert_eq!(
            stats.kv_shard_rewrites, 0,
            "puts must not trigger whole-shard rewrites below the threshold"
        );
        svc.video_state(vid).unwrap()
        // Dropped here without any snapshot: the state lives in the WAL.
    };

    let svc2 =
        LightorService::open(&dir.0, models(3004), platform, ServiceConfig::default()).unwrap();
    assert_eq!(svc2.video_state(vid).unwrap(), before);
}

/// `compact_storage` folds the WAL into the KV snapshot and compacts
/// the chat log; the new counters surface all of it.
#[test]
fn compact_storage_snapshots_kv_and_reports_counters() {
    let dir = TempDir::new("compact");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, 3006);
    let svc = LightorService::open(
        &dir.0,
        models(3007),
        platform.clone(),
        ServiceConfig::default(),
    )
    .unwrap();
    for c in platform.channels() {
        for &vid in platform.recent_videos(c.id) {
            svc.open_video(vid).unwrap().unwrap();
        }
    }
    let before = svc.stats();
    assert!(before.kv_wal_bytes > 0, "opens must be pending in the WAL");
    assert_eq!(before.chat_dead_bytes, 0, "fresh crawls leave nothing dead");

    let stats = svc.compact_storage().unwrap();
    // Every open persisted a chat record plus its v3 tokenized
    // companion; both are live and both survive compaction.
    assert_eq!(stats.live_records, before.stored_videos * 2);
    let after = svc.stats();
    assert_eq!(after.kv_wal_bytes, 0, "snapshot must retire the WAL");
    assert!(after.kv_shard_rewrites > 0);
    assert_eq!(after.chat_dead_bytes, 0);
}

/// A WAL append whose `sync_data` is injected to fail must not
/// acknowledge: the service flips degraded, the trimmed WAL stays
/// clean, and a restart serves exactly the pre-failure state.
#[test]
fn injected_wal_sync_failure_degrades_without_corrupting() {
    let dir = TempDir::new("sync-fault");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 3101);
    let vids = platform.recent_videos(platform.channels()[0].id).to_vec();

    let before = {
        let svc = LightorService::open(
            &dir.0,
            models(3102),
            platform.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        svc.open_video(vids[0]).unwrap().unwrap();
        let good = svc.video_state(vids[0]).unwrap();

        // The next WAL append writes fully but its sync fails: the
        // frame must be trimmed and the write reported as failed.
        svc.fault_injector()
            .arm(Fault::once("kv.wal.sync", FaultKind::Error));
        let err = svc.open_video(vids[1]).unwrap_err();
        assert_eq!(err.to_string(), "injected fault at kv.wal.sync");
        assert!(svc.is_degraded(), "failed persistence must flip degraded");
        assert!(svc.stats().degraded);
        assert_eq!(svc.fault_injector().fired("kv.wal.sync"), 1);
        good
    };

    // Restart: the unsynced frame was trimmed, so replay is clean and
    // only the acknowledged video is there.
    let svc2 = LightorService::open(
        &dir.0,
        models(3102),
        platform.clone(),
        ServiceConfig::default(),
    )
    .unwrap();
    assert_eq!(svc2.video_state(vids[0]).unwrap(), before);
    assert!(
        svc2.video_state(vids[1]).is_none(),
        "unacknowledged state must not reappear"
    );
    assert!(
        !svc2.is_degraded(),
        "degraded does not persist across opens"
    );
    // The store still works: the failed video can be re-opened cleanly.
    svc2.open_video(vids[1]).unwrap().unwrap();
}

/// A torn WAL append — the write dies mid-frame, the partial bytes hit
/// disk, and even the cleanup `set_len` fails — leaves a genuinely
/// durable torn tail. Replay at the next open must truncate it and
/// recover every acknowledged record, for a tear inside the frame
/// header and for one inside the CRC-covered payload.
#[test]
fn injected_torn_wal_tail_is_truncated_on_recovery() {
    for (keep, tag) in [(5usize, "header"), (32usize, "payload")] {
        let dir = TempDir::new(&format!("torn-{tag}"));
        let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 3103);
        let vids = platform.recent_videos(platform.channels()[0].id).to_vec();

        let before = {
            let svc = LightorService::open(
                &dir.0,
                models(3104),
                platform.clone(),
                ServiceConfig::default(),
            )
            .unwrap();
            svc.open_video(vids[0]).unwrap().unwrap();
            let good = svc.video_state(vids[0]).unwrap();

            // Tear the next append after `keep` durable bytes AND fail
            // the trim that would normally clean up, so the torn frame
            // really reaches disk — the crash-mid-write worst case.
            let inj: &FaultInjector = svc.fault_injector();
            inj.arm(Fault::once("kv.wal.write", FaultKind::TornWrite { keep }));
            inj.arm(Fault::once("kv.wal.trim", FaultKind::Error));
            svc.open_video(vids[1]).unwrap_err();
            assert!(svc.is_degraded());
            assert_eq!(inj.fired("kv.wal.write"), 1, "torn write fired ({tag})");
            assert_eq!(inj.fired("kv.wal.trim"), 1, "trim failure fired ({tag})");
            good
        };

        // The WAL now ends in a torn frame. Recovery must truncate it,
        // keep the acknowledged record, and accept new writes.
        let svc2 = LightorService::open(
            &dir.0,
            models(3104),
            platform.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(
            svc2.video_state(vids[0]).unwrap(),
            before,
            "acknowledged state lost to a torn tail ({tag})"
        );
        assert!(
            svc2.video_state(vids[1]).is_none(),
            "torn frame must not replay ({tag})"
        );
        svc2.open_video(vids[1]).unwrap().unwrap();
        assert!(svc2.video_state(vids[1]).is_some());
    }
}

/// A degraded service heals through `compact_storage`: the successful
/// snapshot proves persistence works again and clears the flag.
#[test]
fn compaction_clears_degraded_mode() {
    let dir = TempDir::new("heal");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 3105);
    let vids = platform.recent_videos(platform.channels()[0].id).to_vec();
    let svc = LightorService::open(
        &dir.0,
        models(3106),
        platform.clone(),
        ServiceConfig::default(),
    )
    .unwrap();
    svc.open_video(vids[0]).unwrap().unwrap();

    svc.fault_injector()
        .arm(Fault::once("kv.wal.write", FaultKind::Error));
    svc.open_video(vids[1]).unwrap_err();
    assert!(svc.is_degraded());
    // Warm reads still work while degraded (read-only mode). Even the
    // failed video reads warm: open_video publishes to memory before
    // persisting, so only its durability was lost.
    assert!(svc.cached_dots(vids[0]).is_some());
    assert!(svc.cached_dots(vids[1]).is_some());

    // …and a successful compaction (fault was once-only) heals it.
    svc.compact_storage().unwrap();
    assert!(
        !svc.is_degraded(),
        "successful compaction must clear degraded"
    );
    assert!(!svc.stats().degraded);
    svc.open_video(vids[1]).unwrap().unwrap();
}

/// A chat store written before the v3 tokenized sections existed (the
/// crawler writes v2 chat records only) must open mixed: the first
/// service generation rebuilds every corpus from raw text and lazily
/// persists v3 companions; the next generation's rescores decode them
/// all with zero re-tokenizations — and score bit-exactly either way.
#[test]
fn mixed_v2_v3_store_upgrades_lazily_and_reloads_tokenized() {
    let dir = TempDir::new("mixed-v3");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 3201);
    let channels: Vec<ChannelId> = platform.channels().iter().map(|c| c.id).collect();
    let vids: Vec<_> = platform.recent_videos(channels[0]).to_vec();

    // Phase 1: a v2-only store, as any pre-v3 deployment left behind.
    {
        let mut store = ChatStore::open(dir.0.join("chat")).unwrap();
        Crawler::new(&platform)
            .offline_pass(&channels, &mut store)
            .unwrap();
    }

    // Phase 2: first open on the mixed store — everything rebuilds,
    // and every rebuild lazily upgrades to a persisted v3 section.
    let scores_rebuilt = {
        let svc = LightorService::open(
            &dir.0,
            models(3202),
            platform.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        let (loaded, rebuilt) = svc.warm_corpora().unwrap();
        assert_eq!((loaded, rebuilt), (0, vids.len()), "v2-only store");
        let stats = svc.stats();
        assert_eq!(stats.tokenized_hits, 0);
        assert_eq!(stats.tokenized_misses, vids.len() as u64);
        assert_eq!(stats.tokenized_lazy_upgrades, vids.len() as u64);
        vids.iter()
            .map(|&v| svc.rescore_video(v, 5).unwrap().unwrap())
            .collect::<Vec<_>>()
    };

    // Phase 3: restart — every video has its v3 section, so the boot
    // decodes nothing; each rescore decodes its corpus from that
    // section, the tokenizer never runs, and scores are bit-identical.
    let svc2 = LightorService::open(
        &dir.0,
        models(3202),
        platform.clone(),
        ServiceConfig::default(),
    )
    .unwrap();
    let (loaded, rebuilt) = svc2.warm_corpora().unwrap();
    assert_eq!(
        (loaded, rebuilt),
        (vids.len(), 0),
        "restart must not re-tokenize"
    );
    for (i, &v) in vids.iter().enumerate() {
        assert_eq!(
            svc2.rescore_video(v, 5).unwrap().unwrap(),
            scores_rebuilt[i],
            "decoded corpus must score bit-exactly vs rebuilt"
        );
    }
    let stats = svc2.stats();
    assert_eq!(stats.tokenized_hits, vids.len() as u64);
    assert_eq!(stats.tokenized_misses, 0);
}

/// A torn v3 tokenized-companion write (crash mid-append) must not cost
/// anything durable: the paired chat record — written and synced first —
/// survives, reopen truncates the torn frame, and the corpus silently
/// rebuilds (and re-upgrades) on the next open.
#[test]
fn torn_tokenized_tail_is_truncated_and_rebuilt() {
    let dir = TempDir::new("torn-tok");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 3203);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];

    let dots_before = {
        let svc = LightorService::open(
            &dir.0,
            models(3204),
            platform.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        // Tear the v3 companion append mid-frame. The chat append uses a
        // different fault point ("log.append.write"), so the crawl's own
        // write goes through untouched.
        svc.fault_injector().arm(Fault::once(
            "log.tok.write",
            FaultKind::TornWrite { keep: 9 },
        ));
        let dots = svc.open_video(vid).unwrap().unwrap();
        assert_eq!(svc.fault_injector().fired("log.tok.write"), 1);
        // Losing the lazy upgrade is a perf event, not a durability one.
        assert!(!svc.is_degraded(), "a failed v3 upgrade must not degrade");
        assert_eq!(svc.stats().tokenized_lazy_upgrades, 0);
        dots
    };

    // Reopen over the torn tail: the chat record replays, the torn v3
    // frame is truncated, and the corpus rebuilds (miss, not a hit) —
    // this time persisting its v3 section successfully.
    let svc2 = LightorService::open(
        &dir.0,
        models(3204),
        platform.clone(),
        ServiceConfig::default(),
    )
    .unwrap();
    let (loaded, rebuilt) = svc2.warm_corpora().unwrap();
    assert_eq!((loaded, rebuilt), (0, 1), "torn v3 frame must not decode");
    assert_eq!(svc2.stats().tokenized_lazy_upgrades, 1);
    assert_eq!(svc2.cached_dots(vid).unwrap(), dots_before);

    // Third generation proves the re-upgrade stuck.
    drop(svc2);
    let svc3 =
        LightorService::open(&dir.0, models(3204), platform, ServiceConfig::default()).unwrap();
    assert_eq!(svc3.warm_corpora().unwrap(), (1, 0));
}

/// The crawler's re-crawl path accumulates dead bytes in the chat log
/// and reclaims ≥ 50% of them once past the thresholds, with every live
/// replay intact (the acceptance-criteria workload at store level).
#[test]
fn recrawl_workload_reclaims_half_of_dead_bytes() {
    let dir = TempDir::new("recrawl");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 3, 3008);
    let mut store = ChatStore::open(dir.0.join("chat")).unwrap();
    let crawler = Crawler::new(&platform);
    let channels: Vec<ChannelId> = platform.channels().iter().map(|c| c.id).collect();
    crawler.offline_pass(&channels, &mut store).unwrap();

    // Two refresh generations without reclaim would leave 2/3 dead;
    // run them through the re-crawl path and measure what came back.
    let mut reclaimed = 0u64;
    for _ in 0..2 {
        reclaimed += crawler
            .recrawl_pass(&channels, &mut store)
            .unwrap()
            .reclaimed_bytes;
    }
    let dead_seen = reclaimed + store.dead_bytes();
    assert!(dead_seen > 0, "re-crawls must orphan bytes");
    assert!(
        reclaimed * 2 >= dead_seen,
        "reclaimed {reclaimed} of {dead_seen} dead bytes (< 50%)"
    );
    for &ch in &channels {
        for &vid in platform.recent_videos(ch) {
            assert_eq!(
                &store.get_chat(vid).unwrap().unwrap(),
                platform.fetch_chat(vid).unwrap(),
                "live replay damaged by compaction"
            );
        }
    }
}
