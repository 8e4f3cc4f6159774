//! Integration tests for the HTTP edge: the paper's Figure 5 loop over
//! real loopback sockets — concurrent clients, keep-alive reuse,
//! malformed-input status codes, graceful-shutdown drain, and
//! restart-recovers-state (the `storage_recovery` fixture recipe, now
//! exercised through the server).

use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::wire::{
    bundle_crc, BundleDto, BundleEntryDto, DotsResponse, EventDto, SessionUpload, StatsResponse,
    BUNDLE_FORMAT_VERSION,
};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_server::{HttpClient, HttpServer, ServerConfig, SessionAccepted};
use lightor_types::{GameKind, Session, VideoId};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "lightor-http-{tag}-{}-{}",
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

/// The `storage_recovery` model fixture: trained on simulated labelled
/// videos, deterministic per seed.
fn models(seed: u64) -> ModelBundle {
    let data = dota2_dataset(2, seed);
    let train: Vec<_> = data.videos.iter().collect();
    let initializer = train_initializer(&train, FeatureSet::Full);
    let mut campaign = Campaign::new(200, seed ^ 9);
    let (classifier, _) = train_type_classifier(&train, &mut campaign, 3, seed ^ 10);
    ModelBundle {
        initializer,
        extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
        provenance: format!("http-server seed {seed}"),
    }
}

/// Service + server over a fresh platform; returns the platform too so
/// tests can find video ids and ground truth.
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

fn upload_json(video: u64, session: &Session) -> String {
    let upload = SessionUpload {
        video,
        client: session.user.0,
        events: session.events.iter().map(|&e| EventDto::from(e)).collect(),
    };
    serde_json::to_string(&upload).unwrap()
}

#[test]
fn full_paper_loop_over_real_sockets() {
    let dir = TempDir::new("loop");
    let (server, platform) = serve(&dir.0, 4001);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let truth = platform.ground_truth(vid).unwrap().clone();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // 1. Page load: fetch the dots.
    let resp = client.get(&format!("/video/{}/dots", vid.0)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let dots: DotsResponse = resp.json().unwrap();
    assert_eq!(dots.video, vid.0);
    assert!(!dots.dots.is_empty());

    // 2. Viewers watch; the extension uploads their sessions.
    let mut crowd = Campaign::new(150, 4002);
    let mut refined_total = 0usize;
    for _ in 0..3 {
        for dot in &dots.dots {
            let task = crowd.run_task(&truth.video, lightor_types::Sec(dot.at_seconds), 12);
            for session in &task.sessions {
                let resp = client
                    .post_json("/sessions", &upload_json(vid.0, session))
                    .unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body_str());
                let accepted: SessionAccepted = resp.json().unwrap();
                assert_eq!(accepted.video, vid.0);
                refined_total += accepted.dots_refined;
            }
        }
    }
    assert!(refined_total > 0, "no refinement round ran over the wire");

    // 3. The next page load sees refined (moved) dots.
    let resp = client.get(&format!("/video/{}/dots", vid.0)).unwrap();
    let after: DotsResponse = resp.json().unwrap();
    assert_eq!(after.dots.len(), dots.dots.len());
    assert!(
        after
            .dots
            .iter()
            .zip(&dots.dots)
            .any(|(a, b)| (a.at_seconds - b.at_seconds).abs() > 1e-9),
        "refinement did not move any dot"
    );

    // 4. Rescore at a different k.
    let resp = client
        .post_json(&format!("/video/{}/rescore", vid.0), "{\"k\": 3}")
        .unwrap();
    assert_eq!(resp.status, 200);
    let rescored: DotsResponse = resp.json().unwrap();
    assert_eq!(rescored.dots.len(), 3);

    // 5. Operations: stats carries both service and per-route counters.
    let resp = client.get("/stats").unwrap();
    assert_eq!(resp.status, 200);
    let stats: StatsResponse = resp.json().unwrap();
    assert_eq!(stats.stored_videos, 1);
    let dots_row = stats
        .http
        .iter()
        .find(|r| r.route == "GET /video/{id}/dots")
        .expect("dots route counters present");
    assert_eq!(dots_row.requests, 2);
    assert_eq!(dots_row.errors, 0);
    assert!(dots_row.latency_total_us > 0);
    let sessions_row = stats
        .http
        .iter()
        .find(|r| r.route == "POST /sessions")
        .unwrap();
    assert!(sessions_row.requests > 0);

    // 6. Compaction over the wire.
    let resp = client.post_json("/admin/compact", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("live_records"));

    server.shutdown();
}

#[test]
fn concurrent_clients_hammer_the_server() {
    let dir = TempDir::new("hammer");
    let (server, platform) = serve(&dir.0, 4010);
    let vids: Vec<VideoId> = platform
        .channels()
        .iter()
        .flat_map(|c| platform.recent_videos(c.id).to_vec())
        .collect();
    assert!(vids.len() >= 4);
    let addr = server.local_addr();

    // Warm every video once so sessions are accepted.
    let mut warm = HttpClient::connect(addr).unwrap();
    for vid in &vids {
        assert_eq!(
            warm.get(&format!("/video/{}/dots", vid.0)).unwrap().status,
            200
        );
    }

    let truths: Vec<_> = vids
        .iter()
        .map(|&v| platform.ground_truth(v).unwrap().clone())
        .collect();
    let threads = 8;
    let per_thread = 12;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let vids = &vids;
            let truths = &truths;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut crowd = Campaign::new(40, 5000 + t as u64);
                for i in 0..per_thread {
                    let vid = vids[(t + i) % vids.len()];
                    let truth = &truths[(t + i) % vids.len()];
                    match i % 3 {
                        0 => {
                            let r = client.get(&format!("/video/{}/dots", vid.0)).unwrap();
                            assert_eq!(r.status, 200, "{}", r.body_str());
                        }
                        1 => {
                            let dot = truth.video.highlights[0].range.start;
                            let task = crowd.run_task(&truth.video, dot, 4);
                            let r = client
                                .post_json("/sessions", &upload_json(vid.0, &task.sessions[0]))
                                .unwrap();
                            assert_eq!(r.status, 200, "{}", r.body_str());
                        }
                        _ => {
                            let r = client
                                .post_json(&format!("/video/{}/rescore", vid.0), "{\"k\": 4}")
                                .unwrap();
                            assert_eq!(r.status, 200, "{}", r.body_str());
                        }
                    }
                }
            });
        }
    });

    // Every request must be accounted for in the route counters.
    let mut client = HttpClient::connect(addr).unwrap();
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    let total: u64 = stats.http.iter().map(|r| r.requests).sum();
    assert!(
        total >= (threads * per_thread + vids.len()) as u64,
        "counters lost requests: {total}"
    );
    let errors: u64 = stats.http.iter().map(|r| r.errors).sum();
    assert_eq!(errors, 0, "hammering produced error responses");
    server.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let dir = TempDir::new("keepalive");
    let (server, platform) = serve(&dir.0, 4020);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Many sequential requests on one TCP connection; every response
    // must advertise keep-alive (same stream, no reconnects).
    for i in 0..20 {
        let resp = if i % 2 == 0 {
            client.get("/healthz").unwrap()
        } else {
            client.get(&format!("/video/{}/dots", vid.0)).unwrap()
        };
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"), "req {i}");
    }
    // An explicit Connection: close is honoured.
    let resp = client
        .send_raw(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.closed());
    server.shutdown();
}

#[test]
fn malformed_requests_get_the_right_status_codes() {
    let dir = TempDir::new("malformed");
    let (server, platform) = serve(&dir.0, 4030);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let addr = server.local_addr();
    // Track a video so unknown-video vs tracked is distinguishable.
    HttpClient::connect(addr)
        .unwrap()
        .get(&format!("/video/{}/dots", vid.0))
        .unwrap();

    // Parse-level failures (connection closes afterwards → fresh
    // client per case).
    let parse_cases: Vec<(&[u8], u16)> = vec![
        (b"NOT A REQUEST\r\n\r\n", 400),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n", 400),
        (
            b"POST /sessions HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            400,
        ),
        (
            // Chunked is supported now; an *unknown* coding is not.
            b"POST /sessions HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            501,
        ),
        (
            // TE + Content-Length together is a smuggling vector.
            b"POST /sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n",
            400,
        ),
    ];
    for (raw, want) in parse_cases {
        let mut c = HttpClient::connect(addr).unwrap();
        let resp = c.send_raw(raw).unwrap();
        assert_eq!(resp.status, want, "{}", resp.body_str());
        assert!(resp.closed(), "parse errors must close the connection");
    }

    // Oversized head → 431.
    let mut c = HttpClient::connect(addr).unwrap();
    let mut raw = b"GET /healthz HTTP/1.1\r\nX-Padding: ".to_vec();
    raw.extend(vec![b'a'; 9000]);
    raw.extend_from_slice(b"\r\n\r\n");
    let resp = c.send_raw(&raw).unwrap();
    assert_eq!(resp.status, 431);

    // Oversized declared body → 413 (default cap is 1 MiB).
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c
        .send_raw(b"POST /sessions HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n")
        .unwrap();
    assert_eq!(resp.status, 413);

    // Semantic failures keep the connection alive.
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c.get("/no/such/route").unwrap();
    assert_eq!(resp.status, 404);
    let resp = c.request("POST", "/healthz", None).unwrap();
    assert_eq!(resp.status, 405);
    let resp = c.get("/video/notanumber/dots").unwrap();
    assert_eq!(resp.status, 400);
    let resp = c.get("/video/999999/dots").unwrap();
    assert_eq!(resp.status, 404, "platform-unknown video");
    let resp = c.post_json("/sessions", "this is not json").unwrap();
    assert_eq!(resp.status, 400);
    // NaN timestamp → 422 typed error.
    let resp = c
        .post_json(
            "/sessions",
            &format!(
                r#"{{"video":{},"client":1,"events":[{{"type":"play","at":NaN}}]}}"#,
                vid.0
            ),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "NaN is not even valid JSON");
    let resp = c
        .post_json(
            "/sessions",
            &format!(
                r#"{{"video":{},"client":1,"events":[{{"type":"play","at":-5.0}}]}}"#,
                vid.0
            ),
        )
        .unwrap();
    assert_eq!(resp.status, 422);
    assert!(
        resp.body_str().contains("negative_timestamp"),
        "{}",
        resp.body_str()
    );
    // Session for a video nobody tracked → 422 unknown_video.
    let resp = c
        .post_json(
            "/sessions",
            r#"{"video":999999,"client":1,"events":[{"type":"play","at":5.0}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 422);
    assert!(
        resp.body_str().contains("unknown_video"),
        "{}",
        resp.body_str()
    );
    // Empty session → 422 no_events.
    let resp = c
        .post_json(
            "/sessions",
            &format!(r#"{{"video":{},"client":1,"events":[]}}"#, vid.0),
        )
        .unwrap();
    assert_eq!(resp.status, 422);
    assert!(resp.body_str().contains("no_events"));
    // Bad rescore k → 422.
    let resp = c
        .post_json(&format!("/video/{}/rescore", vid.0), "{\"k\": 0}")
        .unwrap();
    assert_eq!(resp.status, 422);
    // A bundle whose second state holds array-form watermarks → 422
    // bad_bundle, and its good first state is not applied either.
    let untracked = platform.recent_videos(platform.channels()[0].id)[1];
    let state = |text: &str| Some(serde_json::from_str(text).unwrap());
    let entries = vec![
        BundleEntryDto {
            video: untracked.0,
            state: state(r#"{"dots": [], "sessions": {}}"#),
            chat_hex: None,
            tokenized_hex: None,
        },
        BundleEntryDto {
            video: vid.0,
            state: state(r#"{"dots": [], "sessions": [{"client": 1, "seq": 2}]}"#),
            chat_hex: None,
            tokenized_hex: None,
        },
    ];
    let bundle = BundleDto {
        format_version: BUNDLE_FORMAT_VERSION,
        as_of_seq: 0,
        crc32: bundle_crc(&entries),
        entries,
    };
    let resp = c
        .post_json("/admin/import", &serde_json::to_string(&bundle).unwrap())
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("bad_bundle"),
        "{}",
        resp.body_str()
    );
    let dots: DotsResponse = c
        .get(&format!("/video/{}/dots", untracked.0))
        .unwrap()
        .json()
        .unwrap();
    assert!(
        !dots.dots.is_empty(),
        "the refused bundle's state was served"
    );

    // All of those must be visible in the error counters.
    let stats: StatsResponse = c.get("/stats").unwrap().json().unwrap();
    let errors: u64 = stats.http.iter().map(|r| r.errors).sum();
    assert!(
        errors >= 12,
        "expected the failure matrix in counters, got {errors}"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let dir = TempDir::new("drain");
    let (server, platform) = serve(&dir.0, 4040);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let addr = server.local_addr();

    // Warm the video so the drained request is cheap and deterministic.
    HttpClient::connect(addr)
        .unwrap()
        .get(&format!("/video/{}/dots", vid.0))
        .unwrap();

    // Start a request but hold back the final bytes so it is in flight
    // when shutdown fires.
    let mut client = HttpClient::connect(addr).unwrap();
    let head = format!("GET /video/{}/dots HTTP/1.1\r\nHost: h\r\n\r\n", vid.0);
    let (partial, rest) = head.as_bytes().split_at(head.len() - 4);
    // Raw write without waiting for a response yet.
    clientside_write(&mut client, partial);
    // Give the worker time to read the partial request into its parser.
    std::thread::sleep(Duration::from_millis(150));

    let shutdown_thread = std::thread::spawn(move || {
        server.shutdown();
    });
    // Shutdown is now draining; complete the request.
    std::thread::sleep(Duration::from_millis(100));
    let resp = client.send_raw(rest).unwrap();
    assert_eq!(resp.status, 200, "in-flight request was not drained");
    let dots: DotsResponse = resp.json().unwrap();
    assert!(!dots.dots.is_empty());
    assert!(resp.closed(), "drained connection must announce close");
    shutdown_thread.join().unwrap();

    // After shutdown the port no longer accepts work.
    assert!(
        HttpClient::connect(addr).is_err() || {
            let mut c = HttpClient::connect(addr).unwrap();
            c.get("/healthz").is_err()
        },
        "server still serving after shutdown"
    );
}

/// Write bytes on the client's stream without reading a response.
fn clientside_write(client: &mut HttpClient, bytes: &[u8]) {
    client.stream_mut().write_all(bytes).unwrap();
}

#[test]
fn restart_recovers_refined_state_over_http() {
    let dir = TempDir::new("restart");
    let vid;
    let refined_dots: DotsResponse;
    {
        let (server, platform) = serve(&dir.0, 4050);
        vid = platform.recent_videos(platform.channels()[0].id)[0];
        let truth = platform.ground_truth(vid).unwrap().clone();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let dots: DotsResponse = client
            .get(&format!("/video/{}/dots", vid.0))
            .unwrap()
            .json()
            .unwrap();
        let mut crowd = Campaign::new(120, 4051);
        for dot in &dots.dots {
            let task = crowd.run_task(&truth.video, lightor_types::Sec(dot.at_seconds), 12);
            for session in &task.sessions {
                let r = client
                    .post_json("/sessions", &upload_json(vid.0, session))
                    .unwrap();
                assert_eq!(r.status, 200);
            }
        }
        refined_dots = client
            .get(&format!("/video/{}/dots", vid.0))
            .unwrap()
            .json()
            .unwrap();
        server.shutdown();
        // State lives in the KV WAL + chat log under `dir` now.
    }

    // A brand-new server process (same data dir, same seed) must serve
    // the refined positions straight from storage.
    let (server, _platform) = serve(&dir.0, 4050);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let recovered: DotsResponse = client
        .get(&format!("/video/{}/dots", vid.0))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(recovered, refined_dots, "restart lost refined dot state");
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.stored_videos, 1);
    assert_eq!(stats.tracked_videos, 1);
    server.shutdown();
}

#[test]
fn backlog_overflow_sheds_load_with_503() {
    // A server with one worker: occupy the worker with an idle
    // keep-alive connection, fill the 64-slot queue, and the next
    // connection must be answered 503 at the door.
    let dir = TempDir::new("backlog");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 1, 4060);
    let svc = Arc::new(
        LightorService::open(&dir.0, models(4061), platform, ServiceConfig::default()).unwrap(),
    );
    let server = HttpServer::bind(("127.0.0.1", 0), svc, ServerConfig { workers: 1 }).unwrap();
    let addr = server.local_addr();

    // Connection A occupies the single worker (idle keep-alive).
    let mut a = HttpClient::connect(addr).unwrap();
    assert_eq!(a.get("/healthz").unwrap().status, 200);
    // Connections B fill the queue (never picked up while A lives).
    let _b: Vec<HttpClient> = (0..64)
        .map(|_| HttpClient::connect(addr).unwrap())
        .collect();
    // Connection C must be shed: the acceptor takes connections in
    // arrival order, so every B is queued before C is seen.
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    server.shutdown();
}

/// A plausible short viewing session for upload bodies.
fn sample_session() -> Session {
    use lightor_types::{Interaction, Sec, UserId};
    Session::new(
        UserId(5),
        vec![
            Interaction::Play {
                video_ts: Sec(10.0),
            },
            Interaction::Pause {
                video_ts: Sec(22.0),
            },
            Interaction::Leave {
                video_ts: Sec(22.0),
            },
        ],
    )
}

#[test]
fn chunked_bodies_are_decoded_for_buffered_routes() {
    let dir = TempDir::new("chunked");
    let (server, platform) = serve(&dir.0, 4080);
    let vid = platform.recent_videos(platform.channels()[0].id)[0];
    let addr = server.local_addr();
    // Track the video first so the upload is accepted.
    HttpClient::connect(addr)
        .unwrap()
        .get(&format!("/video/{}/dots", vid.0))
        .unwrap();

    // The same `POST /sessions` body, but chunked — split mid-JSON so
    // the decoder has to reassemble across frames.
    let body = upload_json(vid.0, &sample_session());
    let (a, b) = body.as_bytes().split_at(body.len() / 2);
    let mut raw =
        b"POST /sessions HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    for part in [a, b] {
        raw.extend_from_slice(format!("{:x}\r\n", part.len()).as_bytes());
        raw.extend_from_slice(part);
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"0\r\n\r\n");
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c.send_raw(&raw).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let accepted: SessionAccepted = resp.json().unwrap();
    assert_eq!(accepted.video, vid.0);
    server.shutdown();
}

#[test]
fn stalled_bodies_time_out_with_408() {
    let dir = TempDir::new("stall");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 1, 4090);
    let svc = Arc::new(
        LightorService::open(&dir.0, models(4091), platform, ServiceConfig::default()).unwrap(),
    );
    let server = HttpServer::bind(("127.0.0.1", 0), svc, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Buffered route: the declared body never arrives. The server
    // answers once the 2 s body-progress deadline passes.
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c
        .send_raw(b"POST /sessions HTTP/1.1\r\nHost: h\r\nContent-Length: 64\r\n\r\n")
        .unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body_str());
    assert!(resp.body_str().contains("request_timeout"));
    assert!(resp.closed(), "a timed-out connection must close");

    // Streamed route: one chunk arrives, then the uploader stalls
    // (slowloris). The server must answer 408 on its own.
    let mut c = HttpClient::connect(addr).unwrap();
    c.start_chunked("POST", "/sessions/stream").unwrap();
    c.send_chunk(br#"{"video":1,"#).unwrap();
    let resp = c
        .read_early(std::time::Instant::now() + Duration::from_secs(5))
        .unwrap();
    assert_eq!(resp.status, 408, "{}", String::from_utf8_lossy(resp.body()));
    server.shutdown();
}

#[test]
fn degraded_service_serves_warm_reads_and_503s_writes() {
    use lightor_platform::{Fault, FaultKind};

    let dir = TempDir::new("degraded");
    let platform = SimPlatform::top_channels(GameKind::Dota2, 1, 2, 4070);
    let vids = platform.recent_videos(platform.channels()[0].id).to_vec();
    let svc = Arc::new(
        LightorService::open(&dir.0, models(4071), platform, ServiceConfig::default()).unwrap(),
    );
    let server = HttpServer::bind(("127.0.0.1", 0), svc.clone(), ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Warm one video, then make the next persistence attempt fail: the
    // cold open answers 500 and flips the service read-only.
    assert_eq!(
        client
            .get(&format!("/video/{}/dots", vids[0].0))
            .unwrap()
            .status,
        200
    );
    svc.fault_injector()
        .arm(Fault::once("kv.wal.write", FaultKind::Error));
    let resp = client.get(&format!("/video/{}/dots", vids[1].0)).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body_str());
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert!(stats.degraded, "degraded must be visible in /stats");

    // Read-only mode: warm reads still answer; writes are refused with
    // 503 + Retry-After instead of acknowledging what cannot be kept.
    assert_eq!(
        client
            .get(&format!("/video/{}/dots", vids[0].0))
            .unwrap()
            .status,
        200,
        "warm reads must survive degraded mode"
    );
    let resp = client
        .post_json("/sessions", &upload_json(vids[0].0, &sample_session()))
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    assert!(
        resp.header("retry-after").is_some(),
        "503 carries Retry-After"
    );
    let resp = client
        .post_json(&format!("/video/{}/rescore", vids[0].0), "")
        .unwrap();
    assert_eq!(resp.status, 503, "rescore is a write too");

    // Compaction is the repair path: it stays allowed, and success
    // clears the flag and re-opens the write path.
    assert_eq!(client.post_json("/admin/compact", "").unwrap().status, 200);
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert!(!stats.degraded, "successful compaction must clear degraded");
    let resp = client
        .post_json("/sessions", &upload_json(vids[0].0, &sample_session()))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    server.shutdown();
}
