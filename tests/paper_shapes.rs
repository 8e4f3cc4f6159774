//! The paper's claims (Section VII of arXiv 1910.12201, plus the
//! classifier of Section V-C), asserted at quick scale on the typed
//! `compute` results of `lightor_eval::experiments`. This file holds
//! every claim; each test computes its figure once and asserts all of
//! that figure's claims on the result. The unit tests of Figures 2, 3,
//! 8–11 and Table 1 in `crates/eval` assert a subset of them again,
//! no band there stricter than here.
//!
//! | figure / section | claim | test |
//! |---|---|---|
//! | Fig. 2a | the chat peak lags the highlight start by 15–30 s (paper ≈20 s), on every seed of [`SEEDS`] | [`figure2_reaction_delay_and_feature_contrasts`] |
//! | Fig. 2b | highlight windows have more messages, shorter messages and higher similarity, on every seed | same |
//! | Fig. 3 | Type I play offsets spread > 1.3× wider than Type II | [`figure3_type1_uniformish_type2_normalish`] |
//! | Fig. 3 | the Type II mean sits near the highlight start (−4…14 s) | same |
//! | Fig. 3 | the Type I mean lies within its own spread (|mean| < std) | same |
//! | Sec. V-C | the crowd-trained Type I/II classifier's hold-out accuracy is ≥ 0.70 (paper "around 80%") | [`type_classifier_reaches_paper_accuracy_band`] |
//! | Fig. 6a | at K = 10 the full feature set is ≥ message count only, and ≥ 0.6 | [`figure6a_full_model_beats_count_only_at_large_k`] |
//! | Fig. 6b | one training video keeps Chat P@10 ≥ 0.55 | [`figure6b_single_video_training_stays_usable`] |
//! | Fig. 7a | LIGHTOR's mean start precision is ≥ 1.8× Toretter's (paper ≈3×) and ≥ 0.5 | [`figure7a_lightor_beats_toretter_substantially`] |
//! | Fig. 7b | the learned constant `c` is 18–30 s (paper 23–27 s) and spreads ≤ 6 s across training sizes, on every seed of [`SEEDS`] | [`figure7b_constant_is_stable_across_training_sizes`] |
//! | Fig. 8 | LIGHTOR's start precision does not regress over iterations and ends ≥ 0.5 | [`figure8_iteration_improves_lightor_only`] |
//! | Fig. 8 | its final start precision beats SocialSkip and Moocer by > 0.1 | same |
//! | Fig. 8 | its final end precision beats SocialSkip by > 0.1, and Moocer | same |
//! | Fig. 8 | the deployed loop (router → 2 backends) folds each isolated dot exactly as the offline step does, and meets the same bands | [`figure8_holds_over_the_wire`] |
//! | Fig. 9 | 75–100% (exclusive) of top-channel videos clear 500 msgs/hour; all clear 100 viewers | [`figure9_applicability_fractions`] |
//! | Fig. 9 | both CDFs are proper; the median video has ≥ 100 viewers | same |
//! | Fig. 10a | trained on one video, LIGHTOR beats Chat-LSTM by > 0.15 mean precision | [`figure10_lightor_needs_less_data_than_chat_lstm`] |
//! | Fig. 10b | more data does not hurt Chat-LSTM (−0.05 slack) but it stays below one-video LIGHTOR | same |
//! | Fig. 11 | LIGHTOR's LoL→Dota2 gap is ≤ 0.25; Chat-LSTM's exceeds it by > 0.05 | [`figure11_transfer_gap_ordering`] |
//! | Fig. 11 | on Dota2, LIGHTOR beats Chat-LSTM | same |
//! | Table I | LIGHTOR wins both precision columns against Joint-LSTM, with start ≥ 0.6 | [`table1_lightor_wins_and_trains_faster`] |
//! | Table I | Joint-LSTM trains slower than LIGHTOR | same |

mod common;

use lightor::{DotProgress, ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{SimPlatform, SimVideo};
use lightor_crowdsim::Campaign;
use lightor_eval::experiments::{fig10, fig11, fig2, fig3, fig6, fig7, fig8, fig9, table1};
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_eval::metrics::{mean_over_videos, video_precision_end, video_precision_start};
use lightor_eval::ExpEnv;
use lightor_platform::wire::{BundleDto, DotsResponse, ExportRequest};
use lightor_platform::{LightorService, ServiceConfig, VideoState};
use lightor_server::cluster::{ClusterConfig, RouterServer};
use lightor_server::{HttpClient, HttpServer, ServerConfig};
use lightor_types::{GameKind, Interaction, LabeledVideo, PlaySet, Sec, Session, UserId, VideoId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The seeds the cheap figures (2 and 7b) are asserted over: the
/// canonical quick seed and eleven more. Their bands hold on each.
const SEEDS: [u64; 12] = [0xC0FFEE, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

fn avg(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[test]
fn figure2_reaction_delay_and_feature_contrasts() {
    for seed in SEEDS {
        let r = fig2::compute(&ExpEnv { seed, quick: true });
        // Across SEEDS the delay reads 18.8–27.6 s.
        assert!(
            (15.0..=30.0).contains(&r.delay),
            "seed {seed:#x}: delay {} outside 15–30 s",
            r.delay
        );
        let (hi, lo) = (r.highlight_means, r.other_means);
        assert!(
            hi.msg_num > lo.msg_num,
            "seed {seed:#x}: msg num contrast {hi:?} vs {lo:?}"
        );
        assert!(
            hi.msg_len < lo.msg_len,
            "seed {seed:#x}: msg len contrast {hi:?} vs {lo:?}"
        );
        assert!(
            hi.msg_sim > lo.msg_sim,
            "seed {seed:#x}: msg sim contrast {hi:?} vs {lo:?}"
        );
    }
}

#[test]
fn figure3_type1_uniformish_type2_normalish() {
    let r = fig3::compute(&ExpEnv::quick());
    let (m1, s1) = (r.type1.mean, r.type1.std);
    let (m2, s2) = (r.type2.mean, r.type2.std);
    // Type I spreads far wider than Type II...
    assert!(s1 > 1.3 * s2, "spread: Type I {s1} vs Type II {s2}");
    // ...and Type II is concentrated near the highlight start (dots are
    // placed −6…+4 s around it, so the quick-scale mean can sit a touch
    // below zero; the band tolerates the small-sample draw while still
    // rejecting Type-I-like scatter).
    assert!((-4.0..=14.0).contains(&m2), "Type II mean {m2}");
    // Type I's mean sits within its wide scatter (no strong bias).
    assert!(m1.abs() < s1, "Type I mean {m1} vs std {s1}");
}

#[test]
fn type_classifier_reaches_paper_accuracy_band() {
    let env = ExpEnv::quick();
    let data = env.dota2(3);
    let refs: Vec<&SimVideo> = data.videos.iter().collect();
    let mut campaign = Campaign::new(200, env.seed);
    let (_clf, acc) = train_type_classifier(&refs, &mut campaign, 4, env.seed);
    // Paper: "around 80%". Require at least 70% on the hold-out.
    assert!(acc >= 0.70, "classifier hold-out accuracy {acc}");
}

#[test]
fn figure6a_full_model_beats_count_only_at_large_k() {
    let r = fig6::compute_a(&ExpEnv::quick());
    let (count_only, full) = (&r.curves[0], &r.curves[2]);
    let k10 = full.len() - 1;
    assert!(
        full[k10] >= count_only[k10],
        "full {} < count-only {} at K=10",
        full[k10],
        count_only[k10]
    );
    assert!(full[k10] >= 0.6, "full model P@10 {}", full[k10]);
}

#[test]
fn figure6b_single_video_training_stays_usable() {
    let r = fig6::compute_b(&ExpEnv::quick());
    assert!(r.p10[0] >= 0.55, "1-video P@10 = {}", r.p10[0]);
}

#[test]
fn figure7a_lightor_beats_toretter_substantially() {
    let r = fig7::compute_a(&ExpEnv::quick());
    let (tor, lig) = (avg(&r.toretter), avg(&r.lightor));
    assert!(
        lig >= 1.8 * tor.max(0.05),
        "Lightor {lig} vs Toretter {tor}: expected ≈3× gap"
    );
    assert!(lig >= 0.5, "Lightor start precision too low: {lig}");
}

#[test]
fn figure7b_constant_is_stable_across_training_sizes() {
    for seed in SEEDS {
        let cs = fig7::compute_b(&ExpEnv { seed, quick: true });
        let lo = cs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = cs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Across SEEDS `c` reads 19–28 s, spreading at most 6 s.
        assert!(
            hi - lo <= 6.0,
            "seed {seed:#x}: c varies too much across training sizes: {cs:?}"
        );
        assert!(
            (18.0..=30.0).contains(&lo) && (18.0..=30.0).contains(&hi),
            "seed {seed:#x}: c outside 18–30 s: {cs:?}"
        );
    }
}

/// Figure 8's bands on one run: LIGHTOR's precision per iteration
/// against the two one-shot baselines.
fn assert_figure8_bands(r: &fig8::Fig8Result) {
    let first = r.lightor_start[0];
    let last = *r.lightor_start.last().unwrap();
    assert!(
        last >= first,
        "start precision must not regress: {first} -> {last}"
    );
    assert!(last >= 0.5, "final start precision {last}");
    assert!(
        last > r.socialskip.0 + 0.1 && last > r.moocer.0 + 0.1,
        "start: Lightor {last} vs SocialSkip {} / Moocer {}",
        r.socialskip.0,
        r.moocer.0
    );
    let last_end = *r.lightor_end.last().unwrap();
    assert!(
        last_end > r.socialskip.1 + 0.1 && last_end > r.moocer.1,
        "end: Lightor {last_end} vs SocialSkip {} / Moocer {}",
        r.socialskip.1,
        r.moocer.1
    );
}

#[test]
fn figure8_iteration_improves_lightor_only() {
    assert_figure8_bands(&fig8::compute(&ExpEnv::quick()));
}

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "lightor-paper-{tag}-{}-{}",
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

/// One served dot: position from the dots body (through the router),
/// end and convergence from its owner's exported state.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Served {
    at: Sec,
    end: Option<Sec>,
    converged: bool,
}

/// Every video's served dots, in initializer rank order. The dots GET
/// comes first: on a video's first read it is the first sight that
/// makes its owner track it, and each owner exports every video it
/// tracks.
fn read_served(
    client: &mut HttpClient,
    owners: &mut [HttpClient],
    videos: &[VideoId],
) -> Vec<Vec<Served>> {
    let bodies: Vec<DotsResponse> = videos
        .iter()
        .map(|v| {
            let resp = client.get(&format!("/video/{}/dots", v.0)).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
            resp.json().unwrap()
        })
        .collect();
    let mut states: HashMap<u64, VideoState> = HashMap::new();
    let every_tracked = ExportRequest {
        videos: Vec::new(),
        since_seq: 0,
        freeze_ms: 0,
    };
    for owner in owners.iter_mut() {
        let resp = owner
            .post_json(
                "/admin/export",
                &serde_json::to_string(&every_tracked).unwrap(),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let bundle: BundleDto = resp.json().unwrap();
        for entry in bundle.entries {
            let state = entry.state.expect("a tracked video's state");
            states.insert(entry.video, serde_json::from_value(state).unwrap());
        }
    }
    bodies
        .iter()
        .map(|body| {
            let state = &states[&body.video];
            assert_eq!(body.dots.len(), state.dots.len());
            body.dots
                .iter()
                .zip(&state.dots)
                .map(|(dot, s)| {
                    assert_eq!(Sec(dot.at_seconds), s.current, "body and state agree");
                    Served {
                        at: s.current,
                        end: s.end,
                        converged: s.converged,
                    }
                })
                .collect()
        })
        .collect()
}

/// One batch of `plays`, as Play/Pause pairs.
fn session_of(client: u64, plays: &PlaySet) -> Session {
    let events = plays
        .iter()
        .flat_map(|p| {
            [
                Interaction::Play {
                    video_ts: p.start(),
                },
                Interaction::Pause { video_ts: p.end() },
            ]
        })
        .collect();
    Session::new(UserId(client), events)
}

/// Figure 8's loop, deployed: crowd tasks at the positions the service
/// serves, their plays posted through a router to two backends, and the
/// service's refinement read back over HTTP. Each round checks every
/// dot that only its own task's plays can reach against an offline
/// [`DotProgress`] stepped with the same plays. Returns the served
/// precision series, with the baselines run on the first round's
/// sessions.
fn served_figure8(env: &ExpEnv) -> fig8::Fig8Result {
    // Models trained as Figure 8 trains them.
    let data = env.dota2(2);
    let train: Vec<&SimVideo> = data.videos.iter().collect();
    let mut campaign = Campaign::new(492, env.seed ^ 0xF188);
    let (classifier, _) = train_type_classifier(&train, &mut campaign, 3, env.seed ^ 0xC1F);
    let models = ModelBundle {
        initializer: train_initializer(&train, FeatureSet::Full),
        extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
        provenance: "figure 8 over the wire".into(),
    };
    let extractor = models.extractor.clone();
    let cfg = *extractor.config();
    let platform = || SimPlatform::top_channels(GameKind::Dota2, 2, 3, env.seed ^ 0xF88);
    let truth = platform();
    let videos: Vec<VideoId> = truth
        .channels()
        .iter()
        .flat_map(|c| truth.recent_videos(c.id).to_vec())
        .collect();
    let test: Vec<&SimVideo> = videos
        .iter()
        .map(|&v| truth.ground_truth(v).unwrap())
        .collect();

    // Two backends on the same platform, one play enough for a round
    // (as in the offline loop), and a router in front.
    let dirs = [TempDir::new("wire0"), TempDir::new("wire1")];
    let backends: Vec<HttpServer> = dirs
        .iter()
        .map(|d| {
            let svc = LightorService::open(
                &d.0,
                models.clone(),
                platform(),
                ServiceConfig {
                    min_plays_per_round: 1,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            HttpServer::bind(("127.0.0.1", 0), Arc::new(svc), ServerConfig::default()).unwrap()
        })
        .collect();
    let router = RouterServer::bind(
        ("127.0.0.1", 0),
        ClusterConfig {
            request_timeout: Duration::from_secs(5),
            ..ClusterConfig::new(backends.iter().map(|b| b.local_addr()).collect())
        },
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = HttpClient::connect(router.local_addr()).unwrap();
    let mut owners: Vec<HttpClient> = backends
        .iter()
        .map(|b| HttpClient::connect(b.local_addr()).unwrap())
        .collect();

    // First sight: the initializer's dots, and their offline mirrors.
    let mut served = read_served(&mut client, &mut owners, &videos);
    let mut offline: Vec<Vec<DotProgress>> = served
        .iter()
        .map(|dots| dots.iter().map(|d| DotProgress::new(d.at)).collect())
        .collect();
    let initial_dots: Vec<(usize, Sec)> = served
        .iter()
        .enumerate()
        .flat_map(|(vi, dots)| dots.iter().map(move |d| (vi, d.at)))
        .collect();
    // The service buffers each play to its nearest dot within Δ, so a
    // dot can fold plays its offline mirror never sees, or lose its own
    // to a nearer dot. A dot is therefore checked only while no other
    // dot of its video has come within 2Δ of it, and no play of another
    // dot's task has come within Δ of it.
    let isolated = |dots: &[Served], k: usize| {
        dots.iter()
            .enumerate()
            .all(|(j, d)| j == k || (d.at.0 - dots[k].at.0).abs() > 2.0 * cfg.neighborhood)
    };
    let mut checked: Vec<Vec<bool>> = served
        .iter()
        .map(|dots| (0..dots.len()).map(|k| isolated(dots, k)).collect())
        .collect();

    let mut seq = vec![0u64; videos.len()];
    let mut first_round: Vec<Vec<Session>> = vec![Vec::new(); videos.len()];
    let (mut start, mut end) = (Vec::new(), Vec::new());
    for round in 0..fig8::ITERATIONS {
        let live: Vec<(usize, usize)> = served
            .iter()
            .enumerate()
            .flat_map(|(vi, dots)| {
                dots.iter()
                    .enumerate()
                    .filter(|(_, d)| !d.converged)
                    .map(move |(k, _)| (vi, k))
            })
            .collect();
        let tasks: Vec<(&LabeledVideo, Sec)> = live
            .iter()
            .map(|&(vi, k)| (&test[vi].video, served[vi][k].at))
            .collect();
        let results = campaign.run_tasks(&tasks, cfg.responses_per_task);
        for (&(vi, k), result) in live.iter().zip(&results) {
            if round == 0 {
                first_round[vi].extend(result.sessions.iter().cloned());
            }
            seq[vi] += 1;
            let line =
                common::session_line(videos[vi].0, 1, seq[vi], &session_of(1, &result.plays));
            common::assert_folded(&client.post_json("/sessions", &line).unwrap());
            extractor.step(&mut offline[vi][k], &result.plays);
        }
        // A crowd task's viewers seek far: plays land well beyond 2Δ
        // of the dot they were asked about. Where one comes within Δ of
        // another dot, before or after that dot's own step, it may have
        // been buffered there.
        for (&(vi, t), result) in live.iter().zip(&results) {
            for (k, mirror) in offline[vi].iter().enumerate() {
                let reached = [served[vi][k].at, mirror.current].iter().any(|&at| {
                    result
                        .plays
                        .iter()
                        .any(|p| p.range.distance_to(at).0 <= cfg.neighborhood)
                });
                if k != t && reached {
                    checked[vi][k] = false;
                }
            }
        }

        served = read_served(&mut client, &mut owners, &videos);
        let mut compared = 0;
        for (vi, dots) in served.iter().enumerate() {
            for (k, dot) in dots.iter().enumerate() {
                checked[vi][k] &= isolated(dots, k);
                if !checked[vi][k] {
                    continue;
                }
                let want = &offline[vi][k];
                assert_eq!(
                    (dot.at, dot.end, dot.converged),
                    (want.current, want.end, want.converged),
                    "round {round}: video {} dot {k}",
                    videos[vi].0
                );
                compared += 1;
            }
        }
        assert!(compared > 0, "round {round}: no dot left to compare");

        let starts: Vec<f64> = served
            .iter()
            .zip(&test)
            .map(|(dots, sv)| {
                video_precision_start(&dots.iter().map(|d| d.at).collect::<Vec<_>>(), sv)
            })
            .collect();
        let ends: Vec<f64> = served
            .iter()
            .zip(&test)
            .map(|(dots, sv)| {
                video_precision_end(&dots.iter().map(|d| d.end).collect::<Vec<_>>(), sv)
            })
            .collect();
        start.push(mean_over_videos(&starts));
        end.push(mean_over_videos(&ends));
    }

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    let (socialskip, moocer) = fig8::baselines(&initial_dots, &test, &first_round);
    fig8::Fig8Result {
        lightor_start: start,
        lightor_end: end,
        socialskip,
        moocer,
    }
}

#[test]
fn figure8_holds_over_the_wire() {
    assert_figure8_bands(&served_figure8(&ExpEnv::quick()));
}

#[test]
fn figure9_applicability_fractions() {
    let r = fig9::compute(&ExpEnv::quick());
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
    assert_eq!(r.chat_cdf.fraction_le(f64::MAX), 1.0);
    assert!(r.viewer_cdf.quantile(0.5).unwrap() >= 100.0);
}

#[test]
fn figure10_lightor_needs_less_data_than_chat_lstm() {
    let r = fig10::compute(&ExpEnv::quick());
    let (lightor, lstm_small, lstm_big) = (avg(&r.lightor_1), avg(&r.lstm_1), avg(&r.lstm_big));
    // (a) Both trained on one video.
    assert!(
        lightor > lstm_small + 0.15,
        "Lightor {lightor} should clearly beat 1-video Chat-LSTM {lstm_small}"
    );
    // (b) Chat-LSTM gets more videos, LIGHTOR keeps one.
    assert!(
        lstm_big >= lstm_small - 0.05,
        "more data should not hurt the LSTM: {lstm_small} -> {lstm_big}"
    );
    assert!(
        lightor > lstm_big,
        "Lightor {lightor} must stay above big-data LSTM {lstm_big}"
    );
}

#[test]
fn figure11_transfer_gap_ordering() {
    let (lightor, lstm) = fig11::compute(&ExpEnv::quick());
    let lightor_gap = avg(&lightor.lol) - avg(&lightor.dota2);
    let lstm_gap = avg(&lstm.lol) - avg(&lstm.dota2);
    // LIGHTOR's cross-game drop must be small; the LSTM's must be
    // clearly larger.
    assert!(
        lightor_gap.abs() <= 0.25,
        "Lightor transfer gap too large: {lightor_gap}"
    );
    assert!(
        lstm_gap > lightor_gap + 0.05,
        "LSTM gap {lstm_gap} should exceed Lightor gap {lightor_gap}"
    );
    // And LIGHTOR on the foreign game still beats the LSTM there.
    assert!(avg(&lightor.dota2) > avg(&lstm.dota2));
}

#[test]
fn table1_lightor_wins_and_trains_faster() {
    let r = table1::compute(&ExpEnv::quick());
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
