//! Streaming-ingestion integration tests over real loopback sockets:
//! chunked NDJSON uploads to `POST /sessions/stream`, per-line typed
//! rejections under a hostile-input matrix, error-budget exhaustion,
//! mid-line disconnects, sequence-based idempotent replay, freeze-window
//! interaction, and `/stats` counter reconciliation.

mod common;

use common::session_line;
use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::wire::{DotsResponse, StatsResponse, StreamAccepted, StreamRejected};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_server::{HttpClient, HttpServer, ServerConfig};
use lightor_types::GameKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "lightor-stream-{tag}-{}-{}",
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
        provenance: format!("streaming seed {seed}"),
    }
}

fn serve(dir: &std::path::Path, seed: u64) -> (HttpServer, SimPlatform) {
    let platform = SimPlatform::top_channels(GameKind::Dota2, 2, 2, seed);
    let svc = Arc::new(
        LightorService::open(
            dir,
            models(seed ^ 1),
            platform.clone(),
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    let server = HttpServer::bind(("127.0.0.1", 0), svc, ServerConfig::default()).unwrap();
    (server, platform)
}

#[test]
fn streamed_ndjson_folds_batches_incrementally() {
    let dir = TempDir::new("fold");
    let (server, platform) = serve(&dir.0, 5001);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let truth = platform.ground_truth(vid).unwrap().clone();
    let addr = server.local_addr();

    let mut reader = HttpClient::connect(addr).unwrap();
    let before: DotsResponse = reader
        .get(&format!("/video/{}/dots", vid.0))
        .unwrap()
        .json()
        .unwrap();
    assert!(!before.dots.is_empty());

    // The same crowd the buffered loop test uses, but shipped as one
    // long-lived chunked NDJSON stream: one event batch per line.
    let mut crowd = Campaign::new(150, 5002);
    let mut lines: Vec<String> = Vec::new();
    for _ in 0..3 {
        for dot in &before.dots {
            let task = crowd.run_task(&truth.video, lightor_types::Sec(dot.at_seconds), 12);
            for session in &task.sessions {
                // One counter for every viewer: each one's seqs rise.
                let seq = lines.len() as u64 + 1;
                lines.push(session_line(vid.0, session.user.0, seq, session));
            }
        }
    }
    let total_lines = lines.len() as u64;

    let mut uploader = HttpClient::connect(addr).unwrap();
    uploader.start_chunked("POST", "/sessions/stream").unwrap();
    // First line split mid-JSON across two chunks: the decoder must
    // reassemble before parsing.
    let first = lines[0].clone();
    let (a, b) = first.as_bytes().split_at(first.len() / 2);
    uploader.send_chunk(a).unwrap();
    uploader.send_chunk(b).unwrap();

    // While the stream is open, the already-received lines must be
    // folded (no buffer-the-whole-body): /stats shows the open stream
    // and accepted lines before the terminating chunk is sent.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats: StatsResponse = reader.get("/stats").unwrap().json().unwrap();
        if stats.stream_open == 1 && stats.stream_lines_accepted >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "first line was not folded while the stream stayed open: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    for line in &lines[1..] {
        uploader.send_chunk(line.as_bytes()).unwrap();
    }
    let resp = uploader
        .finish_chunked(Instant::now() + Duration::from_secs(30))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let ack: StreamAccepted = resp.json().unwrap();
    assert_eq!(ack.lines_accepted, total_lines);
    assert_eq!(ack.lines_rejected, 0, "{:?}", ack.rejected);
    assert_eq!(ack.batches_folded, total_lines);
    assert_eq!(ack.batches_replayed, 0);
    assert!(ack.plays_buffered > 0, "crowd plays must buffer");
    assert!(ack.dots_refined > 0, "the stream must refine dots");

    // The crowd moved the dots — same observable as the buffered loop.
    let after: DotsResponse = reader
        .get(&format!("/video/{}/dots", vid.0))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(after.dots.len(), before.dots.len());
    assert!(
        after
            .dots
            .iter()
            .zip(&before.dots)
            .any(|(a, b)| (a.at_seconds - b.at_seconds).abs() > 1e-9),
        "streamed refinement moved no dot"
    );

    // Counter reconciliation: the ack and /stats agree line for line.
    let stats: StatsResponse = reader.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.stream_open, 0, "stream must be closed out");
    assert_eq!(stats.stream_lines_accepted, ack.lines_accepted);
    assert_eq!(stats.stream_lines_rejected, 0);
    assert_eq!(
        stats.stream_batches_folded + stats.stream_batches_replayed,
        ack.lines_accepted,
        "every accepted line folds or replays"
    );
    server.shutdown();
}

#[test]
fn hostile_lines_reject_the_line_not_the_stream() {
    let dir = TempDir::new("hostile");
    let (server, platform) = serve(&dir.0, 5010);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).unwrap();
    // Track the video so valid lines are foldable.
    client.get(&format!("/video/{}/dots", vid.0)).unwrap();

    let valid = |seq: u64| {
        format!(
            r#"{{"video":{},"client":1,"seq":{seq},"events":[{{"type":"play","at":5.0}},{{"type":"pause","at":9.0}}]}}"#,
            vid.0
        )
    };
    let mut oversized = format!(r#"{{"video":{},"client":1,"seq":9,"events":["#, vid.0);
    oversized.push_str(&r#"{"type":"play","at":5.0},"#.repeat(14_000)); // ~322 KiB > 256 KiB cap
    oversized.push_str(r#"{"type":"pause","at":9.0}]}"#);

    // The matrix, one physical line each. Line numbers are 1-based and
    // count every physical line — blanks keep their number.
    let body = [
        valid(1).as_str(),                  // line 1: folds
        "",                                 // line 2: blank, skipped
        "\u{0}\u{1}garbage bytes \u{fffd}", // line 3: bad_json
        "{\"video\":",                      // line 4: truncated JSON
        &format!(
            r#"{{"video":{},"client":1,"seq":3,"events":[{{"type":"play","at":NaN}}]}}"#,
            vid.0
        ), // 5: NaN is not JSON
        &format!(
            r#"{{"video":{},"client":1,"seq":4,"events":[{{"type":"play","at":-3.0}}]}}"#,
            vid.0
        ), // 6: negative_timestamp
        r#"{"video":999999,"client":1,"seq":5,"events":[{"type":"play","at":5.0}]}"#, // 7: video_mismatch
        &format!(r#"{{"video":{},"client":1,"seq":6,"events":[]}}"#, vid.0), // 8: no_events
        &oversized,        // line 9: line_too_long
        valid(2).as_str(), // line 10: still folds
        &format!(
            r#"{{"video":{},"client":1,"events":[{{"type":"play","at":5.0}}]}}"#,
            vid.0
        ), // 11: missing_seq
        &format!(
            r#"{{"video":{},"client":1,"seq":null,"events":[{{"type":"play","at":5.0}}]}}"#,
            vid.0
        ), // 12: missing_seq
    ]
    .join("\n");

    // Buffered POST to the streaming route exercises the same per-line
    // machinery without chunking.
    let resp = client.post_json("/sessions/stream", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let ack: StreamAccepted = resp.json().unwrap();
    assert_eq!(ack.lines_accepted, 2, "both valid lines fold");
    assert_eq!(ack.batches_folded, 2);
    let got: Vec<(u64, &str)> = ack
        .rejected
        .iter()
        .map(|r| (r.line, r.code.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            (3, "bad_json"),
            (4, "bad_json"),
            (5, "bad_json"),
            (6, "negative_timestamp"),
            (7, "video_mismatch"),
            (8, "no_events"),
            (9, "line_too_long"),
            (11, "missing_seq"),
            (12, "missing_seq"),
        ],
        "typed per-line rejections with exact 1-based line numbers"
    );
    assert_eq!(ack.lines_rejected, 9);

    // A stream for a video nobody tracked: its line is rejected too.
    let resp = client
        .post_json(
            "/sessions/stream",
            r#"{"video":999999,"client":1,"seq":1,"events":[{"type":"play","at":5.0}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let ack: StreamAccepted = resp.json().unwrap();
    let got: Vec<(u64, &str)> = ack
        .rejected
        .iter()
        .map(|r| (r.line, r.code.as_str()))
        .collect();
    assert_eq!(got, vec![(1, "unknown_video")]);
    server.shutdown();
}

#[test]
fn error_budget_exhaustion_cuts_the_stream_with_422() {
    let dir = TempDir::new("budget");
    let (server, platform) = serve(&dir.0, 5020);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).unwrap();
    client.get(&format!("/video/{}/dots", vid.0)).unwrap();

    // 17 garbage lines blow the 16-line budget on line 17; the valid
    // line behind them must never be processed.
    let mut body = "not json\n".repeat(17);
    body.push_str(&format!(
        "{{\"video\":{},\"client\":1,\"seq\":1,\"events\":[{{\"type\":\"play\",\"at\":5.0}}]}}\n",
        vid.0
    ));
    let resp = client.post_json("/sessions/stream", &body).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());
    let rejected: StreamRejected = resp.json().unwrap();
    assert_eq!(rejected.error, "error_budget_exhausted");
    assert_eq!(rejected.line, 17, "the budget-blowing line is named");
    assert_eq!(rejected.rejected.len(), 17);

    // A terminal mid-stream error cuts the connection (the rest of the
    // body is undrained) — reconnect to read the counters.
    let mut client = HttpClient::connect(addr).unwrap();
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(
        stats.stream_batches_folded, 0,
        "nothing past the terminal line may fold"
    );
    server.shutdown();
}

#[test]
fn mid_line_disconnect_keeps_acked_lines_and_replays_idempotently() {
    let dir = TempDir::new("midline");
    let (server, platform) = serve(&dir.0, 5030);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let addr = server.local_addr();
    let mut reader = HttpClient::connect(addr).unwrap();
    let dots: DotsResponse = reader
        .get(&format!("/video/{}/dots", vid.0))
        .unwrap()
        .json()
        .unwrap();
    let near = dots.dots[0].at_seconds;

    let line = |seq: u64| {
        format!(
            "{{\"video\":{},\"client\":77,\"seq\":{seq},\"events\":[{{\"type\":\"play\",\"at\":{}}},{{\"type\":\"pause\",\"at\":{}}}]}}\n",
            vid.0,
            near - 1.0,
            near + 5.0
        )
    };

    // Stream line 1 complete, then die mid-way through line 2.
    {
        let mut uploader = HttpClient::connect(addr).unwrap();
        uploader.start_chunked("POST", "/sessions/stream").unwrap();
        uploader.send_chunk(line(1).as_bytes()).unwrap();
        let partial = line(2);
        uploader
            .send_chunk(&partial.as_bytes()[..partial.len() / 2])
            .unwrap();
        // Wait until line 1 is folded, then drop the connection
        // without the terminating chunk.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats: StatsResponse = reader.get("/stats").unwrap().json().unwrap();
            if stats.stream_lines_accepted >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "line 1 never folded");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // The partial line vanished with the connection; the complete line
    // is durable. Resume the whole session from the top: the already
    // acknowledged seq replays (folds nothing twice), the new one folds.
    let body = format!("{}{}", line(1), line(2));
    let deadline = Instant::now() + Duration::from_secs(10);
    let ack: StreamAccepted = loop {
        let resp = reader.post_json("/sessions/stream", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let ack: StreamAccepted = resp.json().unwrap();
        // The dead stream's watermark write races the reconnect only
        // in the instant after the drop; settle on the final state.
        if ack.batches_replayed >= 1 || Instant::now() >= deadline {
            break ack;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(ack.lines_accepted, 2);
    assert_eq!(ack.batches_replayed, 1, "seq 1 was already acknowledged");
    assert_eq!(ack.batches_folded, 1, "seq 2 folds exactly once");
    assert_eq!(ack.last_seq, 2);

    // A full re-send is a pure no-op now.
    let resp = reader.post_json("/sessions/stream", &body).unwrap();
    let ack: StreamAccepted = resp.json().unwrap();
    assert_eq!(ack.batches_replayed, 2);
    assert_eq!(ack.batches_folded, 0);
    server.shutdown();
}

#[test]
fn freeze_window_terminates_the_stream_with_503_retry_after() {
    let dir = TempDir::new("freeze");
    let (server, platform) = serve(&dir.0, 5040);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).unwrap();
    client.get(&format!("/video/{}/dots", vid.0)).unwrap();

    // Arm a write freeze via the export cutover window.
    let resp = client
        .post_json(
            "/admin/export",
            &format!(r#"{{"videos":[{}],"since_seq":0,"freeze_ms":5000}}"#, vid.0),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    // A streamed batch for the frozen video is answered 503 "frozen"
    // with a Retry-After, terminating the stream cleanly mid-flight.
    let mut uploader = HttpClient::connect(addr).unwrap();
    uploader.start_chunked("POST", "/sessions/stream").unwrap();
    uploader
        .send_chunk(
            format!(
                "{{\"video\":{},\"client\":1,\"seq\":1,\"events\":[{{\"type\":\"play\",\"at\":5.0}}]}}\n",
                vid.0
            )
            .as_bytes(),
        )
        .unwrap();
    let resp = uploader
        .read_early(Instant::now() + Duration::from_secs(10))
        .unwrap();
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(resp.body()));
    assert!(
        String::from_utf8_lossy(resp.body()).contains("frozen"),
        "{}",
        String::from_utf8_lossy(resp.body())
    );
    assert!(resp.retry_after().is_some(), "503 carries Retry-After");
    server.shutdown();
}
