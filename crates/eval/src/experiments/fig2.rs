//! Figure 2 — analysis of the chat data in one Twitch video.
//!
//! (a) Message-count histogram with a smoothed curve around a highlight:
//!     shows the reaction delay between the highlight start and the chat
//!     peak (paper measures ≈20 s).
//! (b) Feature-value distributions of highlight vs non-highlight windows
//!     (paper example: 109 windows, 13 of them highlights).

use crate::harness::ExpEnv;
use crate::report::{fmt3, Report, Table};
use lightor::{
    sliding_windows_from_ts, window_peak_view, InitializerConfig, TokenizedChat, WindowFeatures,
};
use lightor_simkit::{gaussian_smooth, mean, Histogram};
use lightor_types::TimeRange;

/// Mean feature values over one class of sliding windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeatureMeans {
    /// Mean message count.
    pub msg_num: f64,
    /// Mean message length (words).
    pub msg_len: f64,
    /// Mean message similarity.
    pub msg_sim: f64,
}

impl FeatureMeans {
    fn of(xs: &[WindowFeatures]) -> Self {
        let avg = |pick: fn(&WindowFeatures) -> f64| {
            mean(&xs.iter().map(pick).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        FeatureMeans {
            msg_num: avg(|f| f.msg_num),
            msg_len: avg(|f| f.msg_len),
            msg_sim: avg(|f| f.msg_sim),
        }
    }
}

/// Both panels' numbers.
pub struct Fig2Result {
    /// The highlight panel (a) looks at (the video's first).
    pub highlight: TimeRange,
    /// Panel (a): 10 s message-count bins from 60 s before the
    /// highlight start to 120 s after it.
    pub hist: Histogram,
    /// The bin counts, Gaussian-smoothed (σ = 1 bin).
    pub smoothed: Vec<f64>,
    /// Seconds from the highlight start to the chat peak of its
    /// response window.
    pub delay: f64,
    /// Panel (b): how many sliding windows are highlight windows.
    pub highlight_windows: usize,
    /// Panel (b): how many are not.
    pub other_windows: usize,
    /// Feature means over the highlight windows.
    pub highlight_means: FeatureMeans,
    /// Feature means over the other windows.
    pub other_means: FeatureMeans,
}

/// Compute both panels on the first video of the Dota2 corpus.
pub fn compute(env: &ExpEnv) -> Fig2Result {
    let data = env.dota2(1);
    let sv = &data.videos[0];

    // Panel (a): histogram around the first highlight (straight off the
    // zero-copy view; no message materialization).
    let h = sv.video.highlights[0];
    let window = TimeRange::from_secs(h.start().0 - 60.0, h.start().0 + 120.0);
    let mut hist = Histogram::with_bin_width(window.start.0, window.end.0, 10.0);
    for m in sv.video.chat.iter_range(window) {
        hist.add(m.ts.0);
    }
    let smoothed = gaussian_smooth(hist.counts(), 1.0);

    // Measured reaction delay: distance from highlight start to the
    // response-window peak.
    let peak = window_peak_view(&sv.video.chat, sv.response_ranges[0], 5.0);
    let delay = peak.0 - h.start().0;

    // Panel (b): feature distributions over labelled windows, via the
    // tokenize-once corpus (the same fast path the Initializer scores
    // with — featurization is proven bit-identical to the naive pass).
    let cfg = InitializerConfig::default();
    let corpus = TokenizedChat::build_from_view(&sv.video.chat);
    let windows = sliding_windows_from_ts(
        corpus.timestamps(),
        sv.video.meta.duration,
        cfg.window_len,
        cfg.stride_frac,
    );
    let mut hi = Vec::new();
    let mut lo = Vec::new();
    for fw in corpus.featurize_windows(&windows, cfg.peak_bin) {
        if sv.window_is_highlight(fw.range) {
            hi.push(fw.features);
        } else {
            lo.push(fw.features);
        }
    }
    Fig2Result {
        highlight: h.range,
        hist,
        smoothed,
        delay,
        highlight_windows: hi.len(),
        other_windows: lo.len(),
        highlight_means: FeatureMeans::of(&hi),
        other_means: FeatureMeans::of(&lo),
    }
}

/// Render both panels.
pub fn run(env: &ExpEnv) -> Report {
    let r = compute(env);
    let mut report = Report::new("Figure 2 — chat analysis of one Dota2 video");

    let mut t_a = Table::new(
        format!("(a) message counts near highlight {}", r.highlight),
        &["bin start (s)", "count", "smoothed"],
    );
    for (i, (&c, &s)) in r.hist.counts().iter().zip(&r.smoothed).enumerate() {
        t_a.row(vec![
            format!("{:.0}", r.hist.lo() + i as f64 * 10.0),
            format!("{c:.0}"),
            format!("{s:.1}"),
        ]);
    }
    report.table(t_a);
    report.note(format!(
        "measured peak delay = {:.1} s after the highlight start (paper: ≈20 s)",
        r.delay
    ));

    let mut t_b = Table::new(
        format!(
            "(b) feature means over {} windows ({} highlight, {} non-highlight)",
            r.highlight_windows + r.other_windows,
            r.highlight_windows,
            r.other_windows
        ),
        &["feature", "highlight mean", "non-highlight mean"],
    );
    let (hi, lo) = (r.highlight_means, r.other_means);
    for (name, h, l) in [
        ("msg num", hi.msg_num, lo.msg_num),
        ("msg len", hi.msg_len, lo.msg_len),
        ("msg sim", hi.msg_sim, lo.msg_sim),
    ] {
        t_b.row(vec![name.to_string(), fmt3(h), fmt3(l)]);
    }
    report.table(t_b);
    report.note(
        "expected contrasts: highlight windows have MORE messages, SHORTER messages, \
         HIGHER similarity"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Both tests read one computation at the quick seed.
    fn quick() -> &'static Fig2Result {
        static R: OnceLock<Fig2Result> = OnceLock::new();
        R.get_or_init(|| compute(&ExpEnv::quick()))
    }

    #[test]
    fn figure2_shape_holds() {
        let (hi, lo) = (quick().highlight_means, quick().other_means);
        assert!(
            hi.msg_num > lo.msg_num,
            "msg num contrast: {hi:?} vs {lo:?}"
        );
        assert!(
            hi.msg_len < lo.msg_len,
            "msg len contrast: {hi:?} vs {lo:?}"
        );
        assert!(
            hi.msg_sim > lo.msg_sim,
            "msg sim contrast: {hi:?} vs {lo:?}"
        );
    }

    #[test]
    fn measured_delay_is_physical() {
        let delay = quick().delay;
        assert!(
            (15.0..=30.0).contains(&delay),
            "delay {delay} outside 15–30 s"
        );
    }
}
