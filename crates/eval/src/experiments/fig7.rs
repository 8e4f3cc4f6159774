//! Figure 7 — evaluation of the adjustment stage.
//!
//! (a) Video Precision@K (start): Toretter (no delay adjustment, <20% in
//!     the paper) vs LIGHTOR (≈3× better) vs the Ideal line (= Figure 6a's
//!     full-model chat precision).
//! (b) The learned constant `c` vs training size. Paper: stable 23–27 s.

use crate::experiments::fig6::precision_curve;
use crate::harness::{train_initializer, ExpEnv};
use crate::metrics::{mean_over_videos, video_precision_start};
use crate::report::{fmt3, Report, Table};
use lightor::FeatureSet;
use lightor_baselines::Toretter;
use lightor_chatsim::SimVideo;

fn lightor_start_curve(
    init: &lightor::HighlightInitializer,
    test: &[&SimVideo],
    k_max: usize,
) -> Vec<f64> {
    // One scoring pass per video (fanned out), then prefix-truncate: the
    // greedy top-k respects the prefix property, so `red_dots(k)` equals
    // the first k entries of `red_dots(k_max)`.
    let all_dots = crate::harness::par_red_dots(init, test, k_max);
    (1..=k_max)
        .map(|k| {
            let per_video: Vec<f64> = all_dots
                .iter()
                .zip(test)
                .map(|(dots, sv)| {
                    let starts: Vec<_> = dots.iter().take(k).map(|d| d.at).collect();
                    video_precision_start(&starts, sv)
                })
                .collect();
            mean_over_videos(&per_video)
        })
        .collect()
}

fn toretter_start_curve(test: &[&SimVideo], k_max: usize) -> Vec<f64> {
    let toretter = Toretter::default();
    (1..=k_max)
        .map(|k| {
            let per_video: Vec<f64> = test
                .iter()
                .map(|sv| {
                    let dots = toretter.detect(&sv.video.chat, sv.video.meta.duration, k);
                    video_precision_start(&dots, sv)
                })
                .collect();
            mean_over_videos(&per_video)
        })
        .collect()
}

/// Panel (a)'s numbers: Video Precision@K (start), K = 1…10.
pub struct Fig7aResult {
    /// Training videos.
    pub n_train: usize,
    /// Test videos.
    pub n_test: usize,
    /// Toretter, which does not adjust for the chat delay.
    pub toretter: Vec<f64>,
    /// LIGHTOR's red dots.
    pub lightor: Vec<f64>,
    /// The same model's Chat Precision@K (Figure 6a's full-model curve).
    pub ideal: Vec<f64>,
}

/// Panel (a): adjustment performance against Toretter and the ideal.
pub fn compute_a(env: &ExpEnv) -> Fig7aResult {
    let n_train = env.cap(10, 3);
    let n_test = env.cap(50, 4);
    let data = env.dota2(n_train + n_test);
    let train: Vec<&SimVideo> = data.videos[..n_train].iter().collect();
    let test: Vec<&SimVideo> = data.videos[n_train..].iter().collect();
    let k_max = 10;

    let init = train_initializer(&train, FeatureSet::Full);
    Fig7aResult {
        n_train,
        n_test,
        toretter: toretter_start_curve(&test, k_max),
        lightor: lightor_start_curve(&init, &test, k_max),
        ideal: precision_curve(&init, &test, k_max),
    }
}

/// Render panel (a).
pub fn run_a(env: &ExpEnv) -> Report {
    let r = compute_a(env);
    let mut report = Report::new("Figure 7a — adjustment performance");
    let mut t = Table::new(
        format!(
            "Video Precision@K (start), {} train / {} test",
            r.n_train, r.n_test
        ),
        &["K", "Toretter", "Lightor", "Ideal"],
    );
    for k in 1..=r.lightor.len() {
        t.row(vec![
            k.to_string(),
            fmt3(r.toretter[k - 1]),
            fmt3(r.lightor[k - 1]),
            fmt3(r.ideal[k - 1]),
        ]);
    }
    report.table(t);
    report.note(
        "paper shape: Toretter < 0.2 everywhere; Lightor ≈ 3× Toretter, tracking Ideal".to_string(),
    );
    report
}

/// Panel (b): the learned constant `c` (seconds) of the model trained
/// on the first `i + 1` videos, at index `i`.
pub fn compute_b(env: &ExpEnv) -> Vec<f64> {
    let max_train = env.cap(10, 4);
    let data = env.dota2(max_train);
    (1..=max_train)
        .map(|n| {
            let train: Vec<&SimVideo> = data.videos[..n].iter().collect();
            train_initializer(&train, FeatureSet::Full).adjustment()
        })
        .collect()
}

/// Render panel (b).
pub fn run_b(env: &ExpEnv) -> Report {
    let mut report = Report::new("Figure 7b — learned adjustment constant vs training size");
    let mut t = Table::new("constant c (seconds)", &["# train videos", "c"]);
    for (i, c) in compute_b(env).iter().enumerate() {
        t.row(vec![(i + 1).to_string(), format!("{c:.0}")]);
    }
    report.table(t);
    report.note("paper band: 23–27 s across all training sizes".to_string());
    report
}
