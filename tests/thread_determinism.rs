//! Worker-thread-count independence of the scoring pipeline, driven
//! through the rayon stub's `RAYON_NUM_THREADS` knob.
//!
//! Scoring one video runs on the caller's thread; the stub's parallel
//! regions are one level up (training featurizes its videos with
//! `par_iter`). The loop below pins that no thread count changes a
//! video's dots, whichever layer a future change parallelizes.
//!
//! This lives in its own integration-test binary on purpose: it
//! mutates the process environment, and `std::env::set_var` racing a
//! concurrent `std::env::var` (which the rayon stub performs each time
//! a parallel region starts) is undefined behaviour on glibc. A single
//! `#[test]` in a dedicated binary means nothing else reads the
//! variable while it is being written.

use lightor::{FeatureSet, HighlightInitializer, InitializerConfig};
use lightor_chatsim::dota2_dataset;

#[test]
fn red_dots_identical_across_thread_counts() {
    let data = dota2_dataset(3, 0xE0);
    let views: Vec<_> = data.videos[..2]
        .iter()
        .map(|v| lightor::TrainingVideo {
            chat: &v.video.chat,
            duration: v.video.meta.duration,
            highlights: &v.video.highlights,
            label_ranges: &v.response_ranges,
        })
        .collect();
    let init = HighlightInitializer::train(&views, FeatureSet::Full, InitializerConfig::default());
    let sv = &data.videos[2];
    let chat = &sv.video.chat;
    let dur = sv.video.meta.duration;

    // Baseline with whatever the environment provides.
    let reference = init.red_dots(chat, dur, 10);
    assert!(!reference.is_empty());

    // Force different worker counts through the rayon stub's env knob.
    for threads in ["1", "2", "4", "13"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let dots = init.red_dots(chat, dur, 10);
        assert_eq!(dots, reference, "thread count {threads} changed output");
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    // And the naive reference path agrees end to end.
    let naive_scored = init.score_windows_naive(&chat.to_chat_log(), dur);
    let fast_scored = init.score_windows(chat, dur);
    assert_eq!(fast_scored, naive_scored);
}
