//! Figure 10 — LIGHTOR vs Chat-LSTM: training-data appetite.
//!
//! (a) Both trained on ONE labelled LoL video. Paper: LIGHTOR reaches
//!     high precision; Chat-LSTM does not get off the ground.
//! (b) Chat-LSTM gets 123 labelled videos, LIGHTOR keeps one. Paper:
//!     Chat-LSTM improves but stays below LIGHTOR (it cannot adjust for
//!     the chat delay).

use crate::harness::{train_initializer, ExpEnv};
use crate::metrics::{mean_over_videos, video_precision_start};
use crate::report::{fmt3, Report, Table};
use lightor::FeatureSet;
use lightor_chatsim::SimVideo;
use lightor_neural::{ChatLstm, ChatLstmConfig, LabeledChatVideo};
use lightor_types::Sec;

const K_MAX: usize = 10;

/// Scaled LSTM config: full scale for the experiments binary, tiny for
/// tests/benches.
pub fn lstm_config(env: &ExpEnv) -> ChatLstmConfig {
    if env.quick {
        ChatLstmConfig {
            emb_dim: 8,
            hidden: 12,
            layers: 1,
            epochs: 4,
            lr: 0.015,
            max_chars: 80,
            neg_per_pos: 1.0,
            max_samples: 1600,
            ..ChatLstmConfig::default()
        }
    } else {
        ChatLstmConfig::default()
    }
}

/// Precision@K curve from an ordered detection list (prefix precision).
pub fn prefix_start_curve(dots_per_video: &[(Vec<Sec>, &SimVideo)], k_max: usize) -> Vec<f64> {
    (1..=k_max)
        .map(|k| {
            let per_video: Vec<f64> = dots_per_video
                .iter()
                .map(|(dots, sv)| {
                    let prefix: Vec<Sec> = dots.iter().take(k).copied().collect();
                    video_precision_start(&prefix, sv)
                })
                .collect();
            mean_over_videos(&per_video)
        })
        .collect()
}

/// LIGHTOR's start-precision curve from a model trained on `n_train`
/// videos of `train_pool`.
fn lightor_curve(train_pool: &[&SimVideo], n_train: usize, test: &[&SimVideo]) -> Vec<f64> {
    let init = train_initializer(&train_pool[..n_train], FeatureSet::Full);
    let dots: Vec<(Vec<Sec>, &SimVideo)> = crate::harness::par_red_dots(&init, test, K_MAX)
        .into_iter()
        .zip(test)
        .map(|(dots, sv)| (dots.into_iter().map(|d| d.at).collect(), *sv))
        .collect();
    prefix_start_curve(&dots, K_MAX)
}

/// Chat-LSTM's start-precision curve from a model trained on `n_train`
/// videos.
fn lstm_curve(
    env: &ExpEnv,
    train_pool: &[&SimVideo],
    n_train: usize,
    test: &[&SimVideo],
) -> Vec<f64> {
    let views: Vec<LabeledChatVideo> = train_pool[..n_train]
        .iter()
        .map(|sv| LabeledChatVideo {
            chat: &sv.video.chat,
            duration: sv.video.meta.duration,
            highlights: &sv.video.highlights,
        })
        .collect();
    let (model, _) = ChatLstm::train(&views, lstm_config(env), env.seed ^ 0xF20);
    let dots: Vec<(Vec<Sec>, &SimVideo)> = test
        .iter()
        .map(|sv| {
            let d = model.detect(&sv.video.chat, sv.video.meta.duration, K_MAX, 120.0);
            (d, *sv)
        })
        .collect();
    prefix_start_curve(&dots, K_MAX)
}

/// Both panels' Video Precision@K (start) curves, K = 1…10.
pub struct Fig10Result {
    /// Chat-LSTM's training videos in panel (b).
    pub big_train: usize,
    /// Test videos.
    pub n_test: usize,
    /// LIGHTOR trained on one video (both panels).
    pub lightor_1: Vec<f64>,
    /// Chat-LSTM trained on one video (panel a).
    pub lstm_1: Vec<f64>,
    /// Chat-LSTM trained on `big_train` videos (panel b).
    pub lstm_big: Vec<f64>,
}

/// Compute both panels.
pub fn compute(env: &ExpEnv) -> Fig10Result {
    let big_train = env.cap(123, 6);
    let n_test = env.cap(50, 4);
    let data = env.lol(big_train + n_test);
    let train: Vec<&SimVideo> = data.videos[..big_train].iter().collect();
    let test: Vec<&SimVideo> = data.videos[big_train..].iter().collect();
    Fig10Result {
        big_train,
        n_test,
        lightor_1: lightor_curve(&train, 1, &test),
        lstm_1: lstm_curve(env, &train, 1, &test),
        lstm_big: lstm_curve(env, &train, big_train, &test),
    }
}

/// Render both panels.
pub fn run(env: &ExpEnv) -> Report {
    let r = compute(env);
    let mut report = Report::new("Figure 10 — LIGHTOR vs Chat-LSTM (training size)");
    let mut t_a = Table::new(
        format!("(a) both trained on 1 LoL video, {} test videos", r.n_test),
        &["K", "Lightor (1 video)", "Chat-LSTM (1 video)"],
    );
    let mut t_b = Table::new(
        format!("(b) Lightor 1 video vs Chat-LSTM {} videos", r.big_train),
        &["K", "Lightor (1 video)", "Chat-LSTM (many videos)"],
    );
    for k in 1..=K_MAX {
        t_a.row(vec![
            k.to_string(),
            fmt3(r.lightor_1[k - 1]),
            fmt3(r.lstm_1[k - 1]),
        ]);
        t_b.row(vec![
            k.to_string(),
            fmt3(r.lightor_1[k - 1]),
            fmt3(r.lstm_big[k - 1]),
        ]);
    }
    report.table(t_a);
    report.table(t_b);
    report.note(
        "paper shape: (a) LSTM near-flat low with 1 video; (b) LSTM improves with data \
         but stays below Lightor"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Both tests read one computation at the quick seed.
    fn quick() -> &'static Fig10Result {
        static R: OnceLock<Fig10Result> = OnceLock::new();
        R.get_or_init(|| compute(&ExpEnv::quick()))
    }

    fn avg(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn lightor_dominates_one_video_lstm() {
        let (lig, lstm) = (avg(&quick().lightor_1), avg(&quick().lstm_1));
        assert!(
            lig > lstm + 0.15,
            "Lightor {lig} should clearly beat 1-video Chat-LSTM {lstm}"
        );
    }

    #[test]
    fn more_data_helps_lstm_but_not_enough() {
        let r = quick();
        let (lightor, lstm_small, lstm_big) = (avg(&r.lightor_1), avg(&r.lstm_1), avg(&r.lstm_big));
        assert!(
            lstm_big >= lstm_small - 0.05,
            "more data should not hurt the LSTM: {lstm_small} -> {lstm_big}"
        );
        assert!(
            lightor > lstm_big,
            "Lightor {lightor} must stay above big-data LSTM {lstm_big}"
        );
    }
}
