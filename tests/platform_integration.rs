//! Integration of the deployment stack: crawl → store → serve → interact
//! → refine → persist → restart, end to end across crates.

use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_types::{GameKind, Sec};
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "lightor-int-{tag}-{}-{}",
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
        provenance: format!("integration seed {seed}"),
    }
}

#[test]
fn service_lifecycle_with_real_crowd() {
    let dir = TempDir::new("lifecycle");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 3, 2001);
    let svc = LightorService::open(
        &dir.0,
        models(2002),
        platform.clone(),
        ServiceConfig::default(),
    )
    .unwrap();

    let vid = platform.recent_videos(platform.channels()[1].id)[0];
    let dots = svc.open_video(vid).unwrap().unwrap();
    assert!(!dots.is_empty());

    // Paper requirement: >100 viewers per video for the Extractor. Run
    // 3 crowd rounds of 12 viewers per dot.
    let truth = platform.ground_truth(vid).unwrap().clone();
    let mut crowd = Campaign::new(150, 2003);
    for _ in 0..3 {
        let current: Vec<Sec> = svc
            .video_state(vid)
            .unwrap()
            .dots
            .iter()
            .map(|d| d.current)
            .collect();
        for dot in current {
            for session in crowd.run_task(&truth.video, dot, 12).sessions {
                svc.refine_batch(vid, None, &session).unwrap().unwrap();
            }
        }
    }

    let state = svc.video_state(vid).unwrap();
    let refined = state.dots.iter().filter(|d| d.rounds > 0).count();
    assert!(
        refined >= dots.len() / 2,
        "only {refined} dots saw refinement"
    );
    let with_end = state.dots.iter().filter(|d| d.end.is_some()).count();
    assert!(with_end >= 1, "no boundary extracted after 3 rounds");

    // Refined starts should still be plausible positions.
    for d in &state.dots {
        assert!(d.current.0 >= 0.0);
        assert!(d.current.0 <= truth.video.meta.duration.0);
    }
}

#[test]
fn service_state_survives_restart_and_continues() {
    let dir = TempDir::new("restart");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 2004);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let truth = platform.ground_truth(vid).unwrap().clone();

    // Phase 1: open, interact, refine, drop.
    let before = {
        let svc = LightorService::open(
            &dir.0,
            models(2005),
            platform.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        let dots = svc.open_video(vid).unwrap().unwrap();
        let mut crowd = Campaign::new(100, 2006);
        for dot in &dots {
            for session in crowd.run_task(&truth.video, dot.at, 12).sessions {
                svc.refine_batch(vid, None, &session).unwrap().unwrap();
            }
        }
        svc.video_state(vid).unwrap()
    };

    // Phase 2: reopen; persisted positions must match, and the service
    // can keep refining.
    let svc2 =
        LightorService::open(&dir.0, models(2005), platform, ServiceConfig::default()).unwrap();
    let after = svc2.video_state(vid).unwrap();
    let pos_before: Vec<f64> = before.dots.iter().map(|d| d.current.0).collect();
    let pos_after: Vec<f64> = after.dots.iter().map(|d| d.current.0).collect();
    assert_eq!(pos_before, pos_after);

    let mut crowd = Campaign::new(100, 2007);
    let mut updated = 0;
    for d in &after.dots {
        for session in crowd.run_task(&truth.video, d.current, 12).sessions {
            updated += svc2
                .refine_batch(vid, None, &session)
                .unwrap()
                .unwrap()
                .dots_refined;
        }
    }
    assert!(updated > 0, "refinement must continue after restart");
}
