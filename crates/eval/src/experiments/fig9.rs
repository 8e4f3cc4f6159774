//! Figure 9 — applicability of LIGHTOR in Twitch.
//!
//! Crawl the 20 most recent videos of the top-10 Dota2 channels and plot
//! the CDFs of chat messages per hour and viewers per video. Paper:
//! >80% of videos clear the 500 msgs/hour bar; all clear 100 viewers.

use crate::harness::ExpEnv;
use crate::report::{fmt3, Report, Table};
use lightor_chatsim::SimPlatform;
use lightor_simkit::Ecdf;
use lightor_types::GameKind;

/// The two CDFs plus the headline fractions.
pub struct Fig9Result {
    /// Chat-rate CDF (messages/hour).
    pub chat_cdf: Ecdf,
    /// Viewer-count CDF.
    pub viewer_cdf: Ecdf,
    /// Fraction of videos with ≥ 500 messages/hour.
    pub frac_chat_ok: f64,
    /// Fraction of videos with ≥ 100 viewers.
    pub frac_viewers_ok: f64,
}

/// Crawl the catalog and compute both CDFs.
pub fn compute(env: &ExpEnv) -> Fig9Result {
    let (channels, per_channel) = if env.quick { (4, 5) } else { (10, 20) };
    let platform =
        SimPlatform::top_channels(GameKind::Dota2, channels, per_channel, env.seed ^ 0xF19);
    let rates: Vec<f64> = platform.all_videos().map(|v| v.video.chat_rate()).collect();
    let viewers: Vec<f64> = platform
        .all_videos()
        .map(|v| v.video.meta.viewers as f64)
        .collect();
    let chat_cdf = Ecdf::new(rates);
    let viewer_cdf = Ecdf::new(viewers);
    Fig9Result {
        frac_chat_ok: chat_cdf.fraction_ge(500.0),
        frac_viewers_ok: viewer_cdf.fraction_ge(100.0),
        chat_cdf,
        viewer_cdf,
    }
}

/// Render the figure.
pub fn run(env: &ExpEnv) -> Report {
    let r = compute(env);
    let mut report = Report::new("Figure 9 — applicability on top-channel videos");

    let mut t_a = Table::new(
        format!("(a) chat-rate CDF over {} videos", r.chat_cdf.len()),
        &["msgs/hour ≤", "fraction"],
    );
    for x in [100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0] {
        t_a.row(vec![format!("{x:.0}"), fmt3(r.chat_cdf.fraction_le(x))]);
    }
    report.table(t_a);

    let mut t_b = Table::new(
        format!("(b) viewer CDF over {} videos", r.viewer_cdf.len()),
        &["viewers ≤", "fraction"],
    );
    for x in [100.0, 500.0, 1000.0, 5000.0, 25000.0, 100000.0] {
        t_b.row(vec![format!("{x:.0}"), fmt3(r.viewer_cdf.fraction_le(x))]);
    }
    report.table(t_b);

    report.note(format!(
        "videos with ≥500 msgs/hour: {} (paper: >0.80); videos with ≥100 viewers: {} (paper: 1.0)",
        fmt3(r.frac_chat_ok),
        fmt3(r.frac_viewers_ok)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Both tests read one computation at the quick seed.
    fn quick() -> &'static Fig9Result {
        static R: OnceLock<Fig9Result> = OnceLock::new();
        R.get_or_init(|| compute(&ExpEnv::quick()))
    }

    #[test]
    fn applicability_thresholds_match_paper() {
        let r = quick();
        assert!(
            r.frac_chat_ok >= 0.75,
            "chat-rate applicability {}",
            r.frac_chat_ok
        );
        assert!(
            r.frac_chat_ok < 1.0,
            "the low-rate tail should exist ({})",
            r.frac_chat_ok
        );
        assert_eq!(r.frac_viewers_ok, 1.0);
    }

    #[test]
    fn cdfs_are_proper() {
        let r = quick();
        assert_eq!(r.chat_cdf.fraction_le(f64::MAX), 1.0);
        assert!(r.viewer_cdf.quantile(0.5).unwrap() >= 100.0);
    }
}
