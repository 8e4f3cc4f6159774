//! Figure 8 — evaluation of the Highlight Extractor over crowd
//! iterations.
//!
//! Protocol (paper Section VII-C): 7 test videos × 5 red dots from the
//! Initializer; each iteration publishes tasks at the current dot
//! positions, collects 10 responses each, and refines. SocialSkip and
//! Moocer are not iterative: they run on the first iteration's sessions
//! and stay flat. LIGHTOR's start/end precision climbs across iterations.

use crate::harness::{train_initializer, train_type_classifier, ExpEnv};
use crate::metrics::{mean_over_videos, video_precision_end, video_precision_start};
use crate::report::{fmt3, Report, Table};
use lightor::{DotProgress, ExtractorConfig, FeatureSet, HighlightExtractor};
use lightor_baselines::{Moocer, SocialSkip};
use lightor_chatsim::SimVideo;
use lightor_crowdsim::Campaign;
use lightor_types::{Sec, Session};

/// Crowd rounds the figure runs.
pub const ITERATIONS: usize = 4;
const DOTS_PER_VIDEO: usize = 5;

/// One refinement track; a converged dot is not republished
/// (Algorithm 2 stops when |s - s'| < ε).
struct DotTrack {
    video: usize,
    dot: DotProgress,
}

/// Per-iteration precision series for the three systems.
pub struct Fig8Result {
    /// LIGHTOR start precision per iteration.
    pub lightor_start: Vec<f64>,
    /// LIGHTOR end precision per iteration.
    pub lightor_end: Vec<f64>,
    /// SocialSkip start/end precision (flat).
    pub socialskip: (f64, f64),
    /// Moocer start/end precision (flat).
    pub moocer: (f64, f64),
}

/// Run the full protocol.
pub fn compute(env: &ExpEnv) -> Fig8Result {
    let n_train = env.cap(6, 2);
    let n_test = env.cap(7, 3);
    let data = env.dota2(n_train + n_test);
    let train: Vec<&SimVideo> = data.videos[..n_train].iter().collect();
    let test: Vec<&SimVideo> = data.videos[n_train..].iter().collect();

    let init = train_initializer(&train, FeatureSet::Full);
    let mut campaign = Campaign::new(492, env.seed ^ 0xF188);
    let (classifier, _acc) = train_type_classifier(&train, &mut campaign, 3, env.seed ^ 0xC1F);
    let ex_cfg = ExtractorConfig::default();
    let extractor = HighlightExtractor::new(classifier, ex_cfg);

    // Initial dots — scored once per video, reused for both the
    // refinement tracks and the baseline comparison below.
    let initial_dots: Vec<(usize, Sec)> = {
        let mut v = Vec::new();
        for (vi, sv) in test.iter().enumerate() {
            for dot in init.red_dots(&sv.video.chat, sv.video.meta.duration, DOTS_PER_VIDEO) {
                v.push((vi, dot.at));
            }
        }
        v
    };
    let mut tracks: Vec<DotTrack> = initial_dots
        .iter()
        .map(|&(vi, at)| DotTrack {
            video: vi,
            dot: DotProgress::new(at),
        })
        .collect();

    let mut lightor_start = Vec::with_capacity(ITERATIONS);
    let mut lightor_end = Vec::with_capacity(ITERATIONS);
    let mut first_iter_sessions: Vec<Vec<Session>> = vec![Vec::new(); test.len()];

    for iter in 0..ITERATIONS {
        // One crowd round = one task per live dot, published as a batch
        // so sessions across all videos fan out over one thread pool
        // (results identical to per-track `run_task` calls in order).
        let live: Vec<usize> = tracks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.dot.converged)
            .map(|(i, _)| i)
            .collect();
        let batch: Vec<(&lightor_types::LabeledVideo, Sec)> = live
            .iter()
            .map(|&i| (&test[tracks[i].video].video, tracks[i].dot.current))
            .collect();
        let results = campaign.run_tasks(&batch, ex_cfg.responses_per_task);
        for (&ti, result) in live.iter().zip(&results) {
            let track = &mut tracks[ti];
            if iter == 0 {
                first_iter_sessions[track.video].extend(result.sessions.iter().cloned());
            }
            extractor.step(&mut track.dot, &result.plays);
        }
        let (s, e) = precision_now(&tracks, &test);
        lightor_start.push(s);
        lightor_end.push(e);
    }

    // Baselines on iteration-1 interaction data, seeded from the same
    // initial dots the refinement tracks started at.
    let (socialskip, moocer) = baselines(&initial_dots, &test, &first_iter_sessions);

    Fig8Result {
        lightor_start,
        lightor_end,
        socialskip,
        moocer,
    }
}

fn precision_now(tracks: &[DotTrack], test: &[&SimVideo]) -> (f64, f64) {
    let mut per_video_start = Vec::with_capacity(test.len());
    let mut per_video_end = Vec::with_capacity(test.len());
    for (vi, sv) in test.iter().enumerate() {
        let starts: Vec<Sec> = tracks
            .iter()
            .filter(|t| t.video == vi)
            .map(|t| t.dot.current)
            .collect();
        let ends: Vec<Option<Sec>> = tracks
            .iter()
            .filter(|t| t.video == vi)
            .map(|t| t.dot.end)
            .collect();
        per_video_start.push(video_precision_start(&starts, sv));
        per_video_end.push(video_precision_end(&ends, sv));
    }
    (
        mean_over_videos(&per_video_start),
        mean_over_videos(&per_video_end),
    )
}

/// SocialSkip's and Moocer's (start, end) precision. Neither is
/// iterative: each runs once on video `v`'s first-round sessions
/// `first_round[v]`, around every initial dot `(v, at)`.
pub fn baselines(
    initial_dots: &[(usize, Sec)],
    test: &[&SimVideo],
    first_round: &[Vec<Session>],
) -> ((f64, f64), (f64, f64)) {
    (
        baseline_precision(&SocialSkipAdapter, initial_dots, test, first_round),
        baseline_precision(&MoocerAdapter, initial_dots, test, first_round),
    )
}

trait BaselineAdapter {
    fn extract_near(&self, sessions: &[Session], duration: Sec, dot: Sec) -> Option<(Sec, Sec)>;
}

struct SocialSkipAdapter;
impl BaselineAdapter for SocialSkipAdapter {
    fn extract_near(&self, s: &[Session], d: Sec, dot: Sec) -> Option<(Sec, Sec)> {
        SocialSkip::default()
            .extract_near(s, d, dot)
            .map(|r| (r.start, r.end))
    }
}

struct MoocerAdapter;
impl BaselineAdapter for MoocerAdapter {
    fn extract_near(&self, s: &[Session], d: Sec, dot: Sec) -> Option<(Sec, Sec)> {
        Moocer::default()
            .extract_near(s, d, dot)
            .map(|r| (r.start, r.end))
    }
}

fn baseline_precision(
    adapter: &dyn BaselineAdapter,
    dots: &[(usize, Sec)],
    test: &[&SimVideo],
    sessions: &[Vec<Session>],
) -> (f64, f64) {
    let mut per_video_start = Vec::with_capacity(test.len());
    let mut per_video_end = Vec::with_capacity(test.len());
    for (vi, sv) in test.iter().enumerate() {
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        for &(dvi, dot) in dots.iter().filter(|(dvi, _)| *dvi == vi) {
            debug_assert_eq!(dvi, vi);
            match adapter.extract_near(&sessions[vi], sv.video.meta.duration, dot) {
                Some((s, e)) => {
                    starts.push(s);
                    ends.push(Some(e));
                }
                None => {
                    starts.push(dot);
                    ends.push(None);
                }
            }
        }
        per_video_start.push(video_precision_start(&starts, sv));
        per_video_end.push(video_precision_end(&ends, sv));
    }
    (
        mean_over_videos(&per_video_start),
        mean_over_videos(&per_video_end),
    )
}

/// Render the figure.
pub fn run(env: &ExpEnv) -> Report {
    let r = compute(env);
    let mut report = Report::new("Figure 8 — Highlight Extractor over iterations");
    let mut t_s = Table::new(
        "(a) Video Precision@K (start) per iteration",
        &["iteration", "Lightor", "SocialSkip", "MOOCer"],
    );
    let mut t_e = Table::new(
        "(b) Video Precision@K (end) per iteration",
        &["iteration", "Lightor", "SocialSkip", "MOOCer"],
    );
    for i in 0..r.lightor_start.len() {
        t_s.row(vec![
            (i + 1).to_string(),
            fmt3(r.lightor_start[i]),
            fmt3(r.socialskip.0),
            fmt3(r.moocer.0),
        ]);
        t_e.row(vec![
            (i + 1).to_string(),
            fmt3(r.lightor_end[i]),
            fmt3(r.socialskip.1),
            fmt3(r.moocer.1),
        ]);
    }
    report.table(t_s);
    report.table(t_e);
    report.note(
        "paper shape: Lightor improves over iterations and ends far above both baselines"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lightor_improves_and_beats_baselines() {
        let r = compute(&ExpEnv::quick());
        let first = r.lightor_start[0];
        let last = *r.lightor_start.last().unwrap();
        assert!(
            last >= first - 0.05,
            "start precision regressed: {first} -> {last}"
        );
        assert!(
            last > r.socialskip.0 && last > r.moocer.0,
            "Lightor {last} vs SocialSkip {} / Moocer {}",
            r.socialskip.0,
            r.moocer.0
        );
        let last_end = *r.lightor_end.last().unwrap();
        assert!(
            last_end > r.socialskip.1 && last_end > r.moocer.1,
            "end precision: Lightor {last_end} vs {} / {}",
            r.socialskip.1,
            r.moocer.1
        );
        assert!(last >= 0.5, "final start precision {last}");
    }
}
