//! Figure 6 — evaluation of the prediction stage.
//!
//! (a) Chat Precision@K (K = 1…10) for the three feature sets: message
//!     number only, +length, +similarity. Paper: the count-only model
//!     decays for K ≥ 5; the full model holds 0.7–0.9.
//! (b) Chat Precision@10 vs number of training videos (1…10). Paper: flat
//!     around 0.82 even with a single training video.

use crate::harness::{train_initializer, ExpEnv};
use crate::metrics::{chat_precision_at_k, mean_over_videos};
use crate::report::{fmt3, Report, Table};
use lightor::FeatureSet;
use lightor_chatsim::SimVideo;

/// Mean Chat Precision@K (K = 1…`k_max`) over the test set for one
/// trained model. Figure 7a's "Ideal" line is this curve.
pub(crate) fn precision_curve(
    init: &lightor::HighlightInitializer,
    test: &[&SimVideo],
    k_max: usize,
) -> Vec<f64> {
    // One scoring pass per video, then prefix-truncate: the greedy
    // top-k selection is k-independent, so `top_k_windows(k)` equals
    // the first k entries of `top_k_windows(k_max)`.
    let all_top: Vec<Vec<_>> = test
        .iter()
        .map(|sv| {
            init.top_k_windows(&sv.video.chat, sv.video.meta.duration, k_max)
                .iter()
                .map(|w| w.range)
                .collect()
        })
        .collect();
    (1..=k_max)
        .map(|k| {
            let per_video: Vec<f64> = all_top
                .iter()
                .zip(test)
                .map(|(ranges, sv)| chat_precision_at_k(&ranges[..k.min(ranges.len())], sv))
                .collect();
            mean_over_videos(&per_video)
        })
        .collect()
}

/// Panel (a)'s numbers.
pub struct Fig6aResult {
    /// Training videos.
    pub n_train: usize,
    /// Test videos.
    pub n_test: usize,
    /// Chat Precision@K (K = 1…10) per feature set, in
    /// [`FeatureSet::ALL`] order: message number only, + length,
    /// + similarity.
    pub curves: Vec<Vec<f64>>,
}

/// Panel (a): feature ablation.
pub fn compute_a(env: &ExpEnv) -> Fig6aResult {
    let n_train = env.cap(10, 3);
    let n_test = env.cap(50, 4);
    let data = env.dota2(n_train + n_test);
    let train: Vec<&SimVideo> = data.videos[..n_train].iter().collect();
    let test: Vec<&SimVideo> = data.videos[n_train..].iter().collect();
    let curves = FeatureSet::ALL
        .iter()
        .map(|&fs| precision_curve(&train_initializer(&train, fs), &test, 10))
        .collect();
    Fig6aResult {
        n_train,
        n_test,
        curves,
    }
}

/// Render panel (a).
pub fn run_a(env: &ExpEnv) -> Report {
    let r = compute_a(env);
    let mut report = Report::new("Figure 6a — prediction performance (feature ablation)");
    let mut t = Table::new(
        format!(
            "Chat Precision@K, {} train / {} test Dota2 videos",
            r.n_train, r.n_test
        ),
        &["K", "msg num", "+ msg len", "+ msg sim"],
    );
    for k in 1..=r.curves[0].len() {
        t.row(vec![
            k.to_string(),
            fmt3(r.curves[0][k - 1]),
            fmt3(r.curves[1][k - 1]),
            fmt3(r.curves[2][k - 1]),
        ]);
    }
    report.table(t);
    report.note("paper shape: all features ≥ count-only, gap widens for K ≥ 5".to_string());
    report
}

/// Panel (b)'s numbers.
pub struct Fig6bResult {
    /// Test videos.
    pub n_test: usize,
    /// Chat Precision@10 of the full model trained on the first
    /// `i + 1` videos, at index `i`.
    pub p10: Vec<f64>,
}

/// Panel (b): effect of training size.
pub fn compute_b(env: &ExpEnv) -> Fig6bResult {
    let max_train = env.cap(10, 3);
    let n_test = env.cap(50, 4);
    let data = env.dota2(max_train + n_test);
    let test: Vec<&SimVideo> = data.videos[max_train..].iter().collect();
    let p10 = (1..=max_train)
        .map(|n| {
            let train: Vec<&SimVideo> = data.videos[..n].iter().collect();
            let init = train_initializer(&train, FeatureSet::Full);
            *precision_curve(&init, &test, 10).last().expect("k=10")
        })
        .collect();
    Fig6bResult { n_test, p10 }
}

/// Render panel (b).
pub fn run_b(env: &ExpEnv) -> Report {
    let r = compute_b(env);
    let mut report = Report::new("Figure 6b — effect of training size");
    let mut t = Table::new(
        format!(
            "Chat Precision@10 vs training videos ({} test videos)",
            r.n_test
        ),
        &["# train videos", "P@10"],
    );
    for (i, &p10) in r.p10.iter().enumerate() {
        t.row(vec![(i + 1).to_string(), fmt3(p10)]);
    }
    report.table(t);
    report.note("paper shape: stable (~0.82) down to a single training video".to_string());
    report
}
