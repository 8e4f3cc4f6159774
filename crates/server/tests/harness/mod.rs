//! Shared process-chaos harness: boot real `lightor-serve`,
//! `lightor-router`, and `lightor-supervisor` binaries, parse their
//! readiness banners, drive refinement load through the router, and
//! kill processes mid-run. Used by `cluster_chaos.rs` and
//! `supervisor_chaos.rs`.

// Each integration-test binary compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

use lightor_platform::wire::{
    BundleDto, DotsResponse, EventDto, ExportRequest, ImportResponse, RingUpdateRequest,
    RingUpdateResponse, RouterHealthzResponse, StreamAccepted, StreamBatchDto,
    SupervisorStatsResponse,
};
use lightor_server::{ClientResponse, HttpClient};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique temp dir removed on drop.
pub struct TempDir(pub PathBuf);
impl TempDir {
    pub fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "lightor-chaos-{tag}-{}-{}",
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

/// A child process killed on drop (tests must never leak servers).
pub struct Proc(pub Child);
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn a process and read its stdout until `parse` extracts a value
/// from some line; the rest of the stream is drained in the background.
pub fn spawn_and_parse<T>(
    mut cmd: Command,
    deadline: Duration,
    parse: impl Fn(&str) -> Option<T>,
) -> (Proc, T) {
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let start = Instant::now();
    let mut parsed = None;
    for line in &mut lines {
        let line = line.expect("read child stdout");
        if let Some(v) = parse(&line) {
            parsed = Some(v);
            break;
        }
        assert!(start.elapsed() < deadline, "child never printed its banner");
    }
    // Keep draining so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (Proc(child), parsed.expect("child exited before its banner"))
}

/// Boot one backend; returns (process, bound addr, catalog video ids).
pub fn spawn_backend(dir: &std::path::Path, seed: u64, port: u16) -> (Proc, SocketAddr, Vec<u64>) {
    let (proc_, addr, catalog, _) = spawn_backend_restoring(dir, seed, port, None);
    (proc_, addr, catalog)
}

/// Boot one backend, optionally restoring a dead backend's range from
/// its data dir first; the fourth return is the restored-video count
/// (`None` when not restoring).
pub fn spawn_backend_restoring(
    dir: &std::path::Path,
    seed: u64,
    port: u16,
    restore_from: Option<&std::path::Path>,
) -> (Proc, SocketAddr, Vec<u64>, Option<usize>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lightor-serve"));
    cmd.args([
        "--quick",
        "--port",
        &port.to_string(),
        "--seed",
        &seed.to_string(),
        "--data-dir",
    ])
    .arg(dir);
    if let Some(dead) = restore_from {
        cmd.arg("--restore-from").arg(dead);
    }
    // The backend prints `restored: …` (when restoring), then
    // `listening on http://ADDR`, then `catalog: …` — in that order.
    let (proc_, (addr, catalog, restored)) = spawn_and_parse(cmd, Duration::from_secs(120), {
        let addr = std::cell::Cell::new(None::<SocketAddr>);
        let restored = std::cell::Cell::new(None::<usize>);
        move |line| {
            if let Some(rest) = line.strip_prefix("restored: ") {
                let count = rest
                    .split_whitespace()
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("restored count");
                restored.set(Some(count));
                return None;
            }
            if let Some(rest) = line.strip_prefix("lightor-serve listening on http://") {
                addr.set(Some(rest.trim().parse().expect("addr")));
                return None;
            }
            let ids = line.strip_prefix("catalog: ")?;
            let catalog: Vec<u64> = ids
                .split_whitespace()
                .map(|s| s.parse().expect("catalog id"))
                .collect();
            Some((
                addr.get().expect("listening line before catalog"),
                catalog,
                restored.get(),
            ))
        }
    });
    (proc_, addr, catalog, restored)
}

/// Boot the router over `backends`; returns (process, bound addr).
pub fn spawn_router(backends: &[SocketAddr]) -> (Proc, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lightor-router"));
    cmd.args(["--port", "0", "--request-timeout-ms", "5000"]);
    for b in backends {
        cmd.args(["--backend", &b.to_string()]);
    }
    spawn_and_parse(cmd, Duration::from_secs(60), |line| {
        line.strip_prefix("lightor-router listening on http://")
            .map(|rest| rest.trim().parse().expect("addr"))
    })
}

/// Boot the supervisor binary watching `pairs`
/// (`PRIMARY,STANDBY[,DATA_DIR]` specs) against `router`; returns
/// (process, bound addr).
pub fn spawn_supervisor(router: SocketAddr, pairs: &[String], tick_ms: u64) -> (Proc, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lightor-supervisor"));
    cmd.args([
        "--port",
        "0",
        "--router",
        &router.to_string(),
        "--tick-ms",
        &tick_ms.to_string(),
        "--request-timeout-ms",
        "5000",
    ]);
    for p in pairs {
        cmd.args(["--pair", p]);
    }
    spawn_and_parse(cmd, Duration::from_secs(60), |line| {
        line.strip_prefix("lightor-supervisor listening on http://")
            .map(|rest| rest.trim().parse().expect("addr"))
    })
}

/// One sequenced NDJSON line (newline-terminated; a body for either
/// session path) whose plays cluster around `dot_at`, enough of them
/// (≥ `min_plays_per_round` = 8) to trigger a refinement round.
pub fn refining_stream_line(video: u64, client: u64, seq: u64, dot_at: f64) -> String {
    let mut events = Vec::new();
    for i in 0..8 {
        let at = (dot_at - 2.0 + 0.3 * i as f64).max(0.0);
        events.push(EventDto::Play { at });
        events.push(EventDto::Pause { at: at + 6.0 });
    }
    stream_line(video, client, seq, events)
}

/// One sequenced NDJSON stream line whose single play lands at
/// `far_ts` — place it outside every dot's neighborhood and the batch
/// folds (advancing the seq watermark) without buffering a play or
/// triggering refinement, so the video's dots stay byte-stable.
pub fn inert_stream_line(video: u64, client: u64, seq: u64, far_ts: f64) -> String {
    stream_line(
        video,
        client,
        seq,
        vec![
            EventDto::Play { at: far_ts },
            EventDto::Pause { at: far_ts + 1.0 },
        ],
    )
}

/// One sequenced NDJSON line (newline-terminated): `client`'s batch
/// `seq` of `events` for `video`.
pub fn stream_line(video: u64, client: u64, seq: u64, events: Vec<EventDto>) -> String {
    let mut line = serde_json::to_string(&StreamBatchDto {
        video,
        client,
        seq: Some(seq),
        events,
    })
    .unwrap();
    line.push('\n');
    line
}

/// Assert that `resp` acknowledges exactly one folded batch: a 200
/// [`StreamAccepted`] with no rejected line and no replay. A 200 alone
/// proves nothing, since line rejections and replays answer 200 too.
pub fn assert_folded(resp: &ClientResponse) -> StreamAccepted {
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let ack: StreamAccepted = resp.json().unwrap();
    assert_eq!((ack.lines_rejected, ack.batches_folded), (0, 1), "{ack:?}");
    ack
}

pub fn healthz(client: &mut HttpClient) -> RouterHealthzResponse {
    client.get("/healthz").unwrap().json().unwrap()
}

/// The supervisor's `GET /stats`.
pub fn supervisor_stats(addr: SocketAddr) -> SupervisorStatsResponse {
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c.get("/stats").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    resp.json().unwrap()
}

/// `POST /admin/export` on one backend; returns the raw bundle body
/// (shippable verbatim as an import body) and its parsed form.
pub fn export_bundle(addr: SocketAddr, req: &ExportRequest) -> (String, BundleDto) {
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c
        .post_json("/admin/export", &serde_json::to_string(req).unwrap())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let bundle = resp.json().unwrap();
    (resp.body_str().to_string(), bundle)
}

/// `POST /admin/import` a bundle body into one backend.
pub fn import_bundle(addr: SocketAddr, body: &str) -> ImportResponse {
    let mut c = HttpClient::connect(addr).unwrap();
    let resp = c.post_json("/admin/import", body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    resp.json().unwrap()
}

/// `POST /admin/ring` on the router: swap in a new backend set, live.
pub fn apply_ring(router: SocketAddr, backends: &[SocketAddr]) -> RingUpdateResponse {
    let req = RingUpdateRequest {
        backends: backends.iter().map(|a| a.to_string()).collect(),
    };
    let mut c = HttpClient::connect(router).unwrap();
    let resp = c
        .post_json("/admin/ring", &serde_json::to_string(&req).unwrap())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    resp.json().unwrap()
}

/// Open `vid` and drive refining uploads through the router until a
/// refinement round is acknowledged, then return the acknowledged
/// dots. Every ack is durable by contract: refine persists through the
/// WAL-fronted KV store before answering.
pub fn refine_and_ack(client: &mut HttpClient, vid: u64) -> DotsResponse {
    let dots: DotsResponse = client
        .get(&format!("/video/{vid}/dots"))
        .unwrap()
        .json()
        .unwrap();
    assert!(!dots.dots.is_empty());
    let mut refined_acked = 0u64;
    for i in 0..200u64 {
        let dot_at = dots.dots[(i as usize) % dots.dots.len()].at_seconds;
        let resp = client
            .post_json("/sessions", &refining_stream_line(vid, i, 1, dot_at))
            .unwrap();
        refined_acked += assert_folded(&resp).dots_refined;
        if refined_acked >= 3 {
            break;
        }
    }
    assert!(
        refined_acked >= 1,
        "load never triggered a refinement round"
    );
    client
        .get(&format!("/video/{vid}/dots"))
        .unwrap()
        .json()
        .unwrap()
}

/// Background GET load over `ids` through the router; joining the
/// handle yields every 5xx observed (the tests assert it stays empty).
pub fn spawn_loader(
    router: SocketAddr,
    ids: Vec<u64>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Vec<(u64, u16)>> {
    std::thread::spawn(move || {
        let mut client = HttpClient::connect(router).unwrap();
        let mut five_xx = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            for &v in &ids {
                let resp = client.get(&format!("/video/{v}/dots")).unwrap();
                if resp.status >= 500 {
                    five_xx.push((v, resp.status));
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        five_xx
    })
}

/// Poll the router's `/healthz` until `addr` reports `want`.
pub fn wait_backend_state(router: SocketAddr, addr: SocketAddr, want: &str, within: Duration) {
    let deadline = Instant::now() + within;
    let mut client = HttpClient::connect(router).unwrap();
    loop {
        let hz = healthz(&mut client);
        let state = hz
            .backends
            .iter()
            .find(|b| b.addr == addr.to_string())
            .map(|b| b.health.clone())
            .unwrap_or_default();
        if state == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "backend {addr} never reached {want:?} (stuck at {state:?})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
