//! Table I — end-to-end comparison: LIGHTOR vs Joint-LSTM.
//!
//! LIGHTOR trains on ONE labelled LoL video (plus crowd interactions) and
//! is tested on 7 Dota2 videos at k = 5. Joint-LSTM trains on the full
//! LoL corpus with (synthetic) visual features. Paper numbers:
//!
//! | system | P@5 start | P@5 end | training time |
//! |---|---|---|---|
//! | LIGHTOR | 0.906 | 0.719 | 1.06 s |
//! | Joint-LSTM | 0.629 | 0.600 | > 3 days (4×V100) |
//!
//! Absolute times are incomparable (our substrate is a CPU simulator at
//! reduced scale); the *orders-of-magnitude ratio* is the reproduced
//! claim.

use crate::harness::{train_initializer, train_type_classifier, ExpEnv};
use crate::metrics::{mean_over_videos, video_precision_end, video_precision_start};
use crate::report::{fmt3, fmt_duration, Report, Table};
use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor};
use lightor_chatsim::SimVideo;
use lightor_crowdsim::Campaign;
use lightor_neural::joint_lstm::{JointLstm, JointLstmConfig, JointVideo};
use lightor_neural::{synthetic_frame_features, VisualConfig};
use lightor_types::Sec;
use std::time::{Duration, Instant};

const K: usize = 5;

/// Measured end-to-end numbers.
pub struct Table1Result {
    /// LIGHTOR (start, end) precision at k=5.
    pub lightor: (f64, f64),
    /// LIGHTOR model-training wall-clock.
    pub lightor_train: Duration,
    /// Joint-LSTM (start, end) precision at k=5.
    pub joint: (f64, f64),
    /// Joint-LSTM training wall-clock.
    pub joint_train: Duration,
}

fn joint_config(env: &ExpEnv) -> JointLstmConfig {
    if env.quick {
        JointLstmConfig {
            hidden: 8,
            layers: 1,
            seq_len: 6,
            epochs: 2,
            max_samples: 300,
            ..JointLstmConfig::default()
        }
    } else {
        JointLstmConfig::default()
    }
}

/// Run the comparison.
pub fn compute(env: &ExpEnv) -> Table1Result {
    let n_joint_train = env.cap(123, 4);
    let n_test = env.cap(7, 3);
    let lol = env.lol(n_joint_train);
    let dota = env.dota2(n_test);
    let test: Vec<&SimVideo> = dota.videos.iter().collect();

    // ---- LIGHTOR: 1 labelled LoL video + crowd-trained classifier.
    let lol_train: Vec<&SimVideo> = lol.videos[..1].iter().collect();
    let t0 = Instant::now();
    let init = train_initializer(&lol_train, FeatureSet::Full);
    let mut campaign = Campaign::new(492, env.seed ^ 0x7AB1);
    let (clf, _) = train_type_classifier(&lol_train, &mut campaign, 3, env.seed ^ 0x7AB2);
    let lightor_train = t0.elapsed();
    let extractor = HighlightExtractor::new(clf, ExtractorConfig::default());

    let mut per_video_start = Vec::new();
    let mut per_video_end = Vec::new();
    for sv in &test {
        let dots = init.red_dots(&sv.video.chat, sv.video.meta.duration, K);
        let mut starts = Vec::with_capacity(dots.len());
        let mut ends = Vec::with_capacity(dots.len());
        for dot in dots {
            let refined = extractor.refine(dot, &mut |pos: Sec| {
                campaign
                    .run_task(
                        &sv.video,
                        pos,
                        ExtractorConfig::default().responses_per_task,
                    )
                    .plays
            });
            starts.push(refined.start);
            ends.push(refined.end);
        }
        per_video_start.push(video_precision_start(&starts, sv));
        per_video_end.push(video_precision_end(&ends, sv));
    }
    let lightor = (
        mean_over_videos(&per_video_start),
        mean_over_videos(&per_video_end),
    );

    // ---- Joint-LSTM: full LoL corpus with synthetic visual features.
    let vis_cfg = VisualConfig::default();
    let lol_frames: Vec<Vec<[f32; 4]>> = lol
        .videos
        .iter()
        .map(|sv| synthetic_frame_features(&sv.video, &vis_cfg, env.seed ^ 0x71A))
        .collect();
    let joint_videos: Vec<JointVideo> = lol
        .videos
        .iter()
        .zip(&lol_frames)
        .map(|(sv, frames)| JointVideo {
            frames,
            chat: &sv.video.chat,
            duration: sv.video.meta.duration,
            highlights: &sv.video.highlights,
        })
        .collect();
    let (joint_model, joint_train) =
        JointLstm::train(&joint_videos, joint_config(env), env.seed ^ 0x71B);

    let mut per_video_start = Vec::new();
    let mut per_video_end = Vec::new();
    for sv in &test {
        let frames = synthetic_frame_features(&sv.video, &vis_cfg, env.seed ^ 0x71C);
        let jv = JointVideo {
            frames: &frames,
            chat: &sv.video.chat,
            duration: sv.video.meta.duration,
            highlights: &sv.video.highlights,
        };
        let starts = joint_model.detect(&jv, K, 120.0);
        // End estimate: scan forward from each detection while the score
        // stays above 0.5 (bounded at +90 s).
        let ends: Vec<Option<Sec>> = starts
            .iter()
            .map(|&s| {
                let mut t = s.0;
                let limit = (s.0 + 90.0).min(jv.duration.0 - 1.0);
                while t + 1.0 <= limit && joint_model.score_frame(&jv, t + 1.0) >= 0.5 {
                    t += 1.0;
                }
                (t > s.0).then_some(Sec(t))
            })
            .collect();
        per_video_start.push(video_precision_start(&starts, sv));
        per_video_end.push(video_precision_end(&ends, sv));
    }
    let joint = (
        mean_over_videos(&per_video_start),
        mean_over_videos(&per_video_end),
    );

    Table1Result {
        lightor,
        lightor_train,
        joint,
        joint_train,
    }
}

/// Render the table.
pub fn run(env: &ExpEnv) -> Report {
    let r = compute(env);
    let mut report = Report::new("Table I — end-to-end: LIGHTOR vs Joint-LSTM");
    let mut t = Table::new(
        "k = 5, trained on LoL, tested on Dota2",
        &["system", "P@5 (start)", "P@5 (end)", "training time"],
    );
    t.row(vec![
        "Lightor".into(),
        fmt3(r.lightor.0),
        fmt3(r.lightor.1),
        fmt_duration(r.lightor_train),
    ]);
    t.row(vec![
        "Joint-LSTM".into(),
        fmt3(r.joint.0),
        fmt3(r.joint.1),
        fmt_duration(r.joint_train),
    ]);
    report.table(t);
    let ratio = r.joint_train.as_secs_f64() / r.lightor_train.as_secs_f64().max(1e-9);
    report.note(format!(
        "training-time ratio Joint-LSTM / Lightor = {ratio:.0}× (paper: >100000× on GPUs)"
    ));
    report.note(
        "paper: Lightor 0.906 / 0.719, Joint-LSTM 0.629 / 0.600 — expect Lightor to win \
         both columns"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lightor_wins_both_columns() {
        let r = compute(&ExpEnv::quick());
        assert!(
            r.lightor.0 > r.joint.0 && r.lightor.1 > r.joint.1,
            "Lightor {:?} vs Joint {:?}",
            r.lightor,
            r.joint
        );
        assert!(
            r.lightor.0 >= 0.6,
            "Lightor start precision {} below usable band",
            r.lightor.0
        );
        assert!(
            r.joint_train > r.lightor_train,
            "Joint-LSTM should train slower: {:?} vs {:?}",
            r.joint_train,
            r.lightor_train
        );
    }
}
