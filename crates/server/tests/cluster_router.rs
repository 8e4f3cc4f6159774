//! Cluster-mode integration tests over real loopback sockets: the
//! router in front of in-process backends — proxying, aggregation,
//! failover to `down`, and recovery — all driven through HTTP.

mod harness;

use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::wire::{
    BundleDto, CompactResponse, DotsResponse, EventDto, ExportRequest, ImportResponse,
    RingUpdateRequest, RingUpdateResponse, RouterHealthzResponse, RouterStatsResponse,
    StatsResponse, StreamAccepted,
};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_server::cluster::{ClusterConfig, RouterServer};
use lightor_server::{
    Handler, HealthState, HttpClient, HttpMetrics, HttpServer, Request, Response, RouteKey,
    ServerConfig,
};
use lightor_types::GameKind;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "lightor-cluster-{tag}-{}-{}",
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

/// Models are expensive to train; every test shares one bundle.
fn models() -> ModelBundle {
    static MODELS: OnceLock<ModelBundle> = OnceLock::new();
    MODELS
        .get_or_init(|| {
            let data = dota2_dataset(2, 5001);
            let train: Vec<_> = data.videos.iter().collect();
            let initializer = train_initializer(&train, FeatureSet::Full);
            let mut campaign = Campaign::new(200, 5002);
            let (classifier, _) = train_type_classifier(&train, &mut campaign, 3, 5003);
            ModelBundle {
                initializer,
                extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
                provenance: "cluster tests".into(),
            }
        })
        .clone()
}

/// Every backend simulates the same platform, so any shard can serve
/// any video the catalog knows — sharding decides *ownership* of the
/// refinement state, not visibility.
fn platform() -> SimPlatform {
    SimPlatform::top_channels(GameKind::Dota2, 2, 3, 5004)
}

/// One in-process backend over `dir`, bound to `addr` (port 0 = any).
fn backend(dir: &Path, addr: SocketAddr) -> HttpServer {
    let svc = Arc::new(
        LightorService::open(dir, models(), platform(), ServiceConfig::default()).unwrap(),
    );
    HttpServer::bind(addr, svc, ServerConfig::default()).unwrap()
}

/// A router over `backends` with a generous per-request deadline for
/// debug builds.
fn router(backends: Vec<SocketAddr>) -> RouterServer {
    let cfg = ClusterConfig {
        request_timeout: Duration::from_secs(5),
        ..ClusterConfig::new(backends)
    };
    RouterServer::bind(("127.0.0.1", 0), cfg, ServerConfig::default()).unwrap()
}

fn catalog() -> Vec<u64> {
    let p = platform();
    let mut ids: Vec<u64> = p.all_videos().map(|v| v.video.meta.id.0).collect();
    ids.sort_unstable();
    ids
}

/// A `POST /sessions` body: client 1's batch `seq` for `video`.
fn upload_json(video: u64, seq: u64) -> String {
    harness::stream_line(
        video,
        1,
        seq,
        vec![
            EventDto::Play { at: 10.0 },
            EventDto::Pause { at: 25.0 },
            EventDto::Leave { at: 25.0 },
        ],
    )
}

fn wait_for_health(router: &RouterServer, idx: usize, want: HealthState, within: Duration) -> bool {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        if router.cluster().backend_health(idx) == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn router_proxies_routes_and_aggregates_stats() {
    let dirs: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("agg{i}"))).collect();
    let backends: Vec<HttpServer> = dirs
        .iter()
        .map(|d| backend(&d.0, "127.0.0.1:0".parse().unwrap()))
        .collect();
    let router = router(backends.iter().map(|b| b.local_addr()).collect());
    let mut client = HttpClient::connect(router.local_addr()).unwrap();

    // Router healthz: its own DTO, all shards healthy.
    let resp = client.get("/healthz").unwrap();
    assert_eq!(resp.status, 200);
    let hz: RouterHealthzResponse = resp.json().unwrap();
    assert_eq!(hz.status, "ok");
    assert_eq!(hz.ring_version, 1, "the boot ring is version 1");
    assert_eq!(hz.backends.len(), 3);
    assert!(hz.backends.iter().all(|b| b.health == "healthy"));

    // Dots through the router match the owning shard's direct answer.
    let vid = catalog()[0];
    let via_router = client.get(&format!("/video/{vid}/dots")).unwrap();
    assert_eq!(via_router.status, 200, "{}", via_router.body_str());
    let routed: DotsResponse = via_router.json().unwrap();
    let shard = router.cluster().shard_for(vid);
    let mut direct = HttpClient::connect(backends[shard].local_addr()).unwrap();
    let direct_dots: DotsResponse = direct
        .get(&format!("/video/{vid}/dots"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(routed, direct_dots);

    // Sessions route by the video id inside the body.
    harness::assert_folded(&client.post_json("/sessions", &upload_json(vid, 1)).unwrap());
    // Garbage bodies bounce at the router with 400, not a proxy error.
    let resp = client.post_json("/sessions", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    // Unroutable paths answer 404 from the router itself.
    assert_eq!(client.get("/nope").unwrap().status, 404);

    // Compact broadcasts to every shard and sums the results.
    let resp = client.post_json("/admin/compact", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let _: CompactResponse = resp.json().unwrap();

    // Stats aggregate per-shard health, counters, and backend stats.
    let resp = client.get("/stats").unwrap();
    assert_eq!(resp.status, 200);
    let stats: RouterStatsResponse = resp.json().unwrap();
    assert!(stats.requests >= 5);
    assert_eq!(stats.backends.len(), 3);
    assert!(stats.backends.iter().all(|b| b.health == "healthy"));
    assert!(
        stats.backends.iter().all(|b| b.stats.is_some()),
        "live shards answer the stats sweep"
    );
    let owner = &stats.backends[shard];
    assert!(owner.proxied >= 2, "dots + session went to the owner");

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn dots_bytes_are_the_same_from_a_backend_and_through_the_router() {
    let dir = TempDir::new("dots-bytes");
    let svc = Arc::new(
        LightorService::open(&dir.0, models(), platform(), ServiceConfig::default()).unwrap(),
    );
    let backend = HttpServer::bind(("127.0.0.1", 0), svc.clone(), ServerConfig::default()).unwrap();
    let router = router(vec![backend.local_addr()]);
    let mut via_router = HttpClient::connect(router.local_addr()).unwrap();
    let mut direct = HttpClient::connect(backend.local_addr()).unwrap();
    let vid = catalog()[0];
    let path = format!("/video/{vid}/dots");

    // The first sight (through the router) and a warm read (direct)
    // serve the bytes of a `DotsResponse` of the cached dots.
    let first = via_router.get(&path).unwrap();
    assert_eq!(first.status, 200, "{}", first.body_str());
    let expected = serde_json::to_vec(&DotsResponse {
        video: vid,
        dots: svc
            .cached_dots(lightor_types::VideoId(vid))
            .unwrap()
            .into_iter()
            .map(Into::into)
            .collect(),
    })
    .unwrap();
    assert_eq!(first.body, expected);
    let warm = direct.get(&path).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("content-type"), Some("application/json"));
    assert_eq!(warm.body, expected);
    let relayed = via_router.get(&path).unwrap();
    assert_eq!(relayed.header("content-type"), Some("application/json"));
    assert_eq!(relayed.body, expected);

    router.shutdown();
    backend.shutdown();
}

/// Two in-process backends and a router over them, plus the catalog's
/// first video and one the other backend owns. The ring places each
/// backend by its address, and port-0 binds pick the ports, so some
/// bindings put the whole catalog on one shard: re-bind both backends
/// until the catalog spans them.
#[allow(clippy::type_complexity)]
fn two_shards_spanning(
    tag: &str,
) -> (
    Vec<TempDir>,
    Vec<Option<HttpServer>>,
    Vec<SocketAddr>,
    RouterServer,
    u64,
) {
    const BIND_ATTEMPTS: usize = 20;
    let ids = catalog();
    for _ in 0..BIND_ATTEMPTS {
        let dirs: Vec<TempDir> = (0..2).map(|i| TempDir::new(&format!("{tag}{i}"))).collect();
        let backends: Vec<Option<HttpServer>> = dirs
            .iter()
            .map(|d| Some(backend(&d.0, "127.0.0.1:0".parse().unwrap())))
            .collect();
        let addrs: Vec<SocketAddr> = backends
            .iter()
            .map(|b| b.as_ref().unwrap().local_addr())
            .collect();
        let router = router(addrs.clone());
        let first = router.cluster().shard_for(ids[0]);
        if let Some(&other) = ids
            .iter()
            .find(|&&v| router.cluster().shard_for(v) != first)
        {
            return (dirs, backends, addrs, router, other);
        }
        router.shutdown();
        for b in backends.into_iter().flatten() {
            b.shutdown();
        }
    }
    panic!("no binding in {BIND_ATTEMPTS} attempts spread the catalog over both shards");
}

#[test]
fn router_trips_a_dead_shard_and_recovers_it() {
    let ids = catalog();
    let victim_vid = ids[0];
    let (dirs, mut backends, addrs, router, survivor_vid) = two_shards_spanning("trip");
    let victim = router.cluster().shard_for(victim_vid);
    let mut client = HttpClient::connect(router.local_addr()).unwrap();

    // Warm both shards (initializes + persists the dots).
    let before: DotsResponse = client
        .get(&format!("/video/{victim_vid}/dots"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        client
            .get(&format!("/video/{survivor_vid}/dots"))
            .unwrap()
            .status,
        200
    );

    // Kill the victim shard and wait for the breaker to trip.
    backends[victim].take().unwrap().shutdown();
    assert!(
        wait_for_health(&router, victim, HealthState::Down, Duration::from_secs(10)),
        "probes must trip the dead shard to down"
    );

    // Router healthz reflects the partial outage.
    let hz: RouterHealthzResponse = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(hz.status, "degraded");
    assert_eq!(hz.backends[victim].health, "down");

    // Requests to the down shard fast-fail 503 with a Retry-After;
    // the surviving shard keeps answering 200 — never a 5xx.
    for _ in 0..5 {
        let resp = client.get(&format!("/video/{victim_vid}/dots")).unwrap();
        assert_eq!(resp.status, 503, "{}", resp.body_str());
        assert!(
            resp.header("retry-after").is_some(),
            "503 carries Retry-After"
        );
        let resp = client
            .post_json("/sessions", &upload_json(victim_vid, 1))
            .unwrap();
        assert_eq!(resp.status, 503, "writes fast-fail too");
        let resp = client.get(&format!("/video/{survivor_vid}/dots")).unwrap();
        assert_eq!(resp.status, 200, "healthy shard must not see 5xx");
    }
    let stats: RouterStatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert!(stats.backends[victim].breaker_trips >= 1);
    assert!(stats.backends[victim].probe_failures >= 1);
    assert!(
        stats.backends[victim].stats.is_none(),
        "down shard: no stats"
    );
    // The sweep reports partial results rather than failing outright:
    // the dead shard is marked, the rest still carry their stats.
    assert!(stats.backends[victim].unreachable);
    for (i, b) in stats.backends.iter().enumerate() {
        if i != victim {
            assert!(
                !b.unreachable && b.stats.is_some(),
                "live shard {i} aggregated"
            );
        }
    }

    // Restart the shard on its old address and old data dir: probes
    // must walk it down → recovering → healthy, and the refined dots
    // it acknowledged before the kill must still be there.
    backends[victim] = Some(backend(&dirs[victim].0, addrs[victim]));
    assert!(
        wait_for_health(
            &router,
            victim,
            HealthState::Healthy,
            Duration::from_secs(10)
        ),
        "probes must walk the restarted shard back to healthy"
    );
    let resp = client.get(&format!("/video/{victim_vid}/dots")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let after: DotsResponse = resp.json().unwrap();
    assert_eq!(after, before, "persisted dots survive the restart");

    router.shutdown();
    for b in backends.into_iter().flatten() {
        b.shutdown();
    }
}

/// The full live-resharding protocol over real sockets: bulk export →
/// import → freeze + delta → import → ring swap — and at every step,
/// the requests that must keep working do.
#[test]
fn live_migration_hands_ownership_to_a_new_backend() {
    let dirs: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("mig{i}"))).collect();
    let old: Vec<HttpServer> = dirs[..2]
        .iter()
        .map(|d| backend(&d.0, "127.0.0.1:0".parse().unwrap()))
        .collect();
    let router = router(old.iter().map(|b| b.local_addr()).collect());
    let mut client = HttpClient::connect(router.local_addr()).unwrap();

    // Warm + refine one video through the router; its state is what
    // the migration must carry over intact.
    let vid = catalog()[0];
    assert_eq!(
        client.get(&format!("/video/{vid}/dots")).unwrap().status,
        200
    );
    for seq in 1..=3 {
        harness::assert_folded(
            &client
                .post_json("/sessions", &upload_json(vid, seq))
                .unwrap(),
        );
    }
    let refined: DotsResponse = client
        .get(&format!("/video/{vid}/dots"))
        .unwrap()
        .json()
        .unwrap();

    // The migration target: a fresh backend with an empty data dir.
    let target = backend(&dirs[2].0, "127.0.0.1:0".parse().unwrap());
    let mut to_target = HttpClient::connect(target.local_addr()).unwrap();

    // Phase 1 — bulk copy, no freeze: export everything each old shard
    // tracks and import it into the target. Writes keep flowing.
    let mut bulk_seqs = Vec::new();
    for b in &old {
        let mut src = HttpClient::connect(b.local_addr()).unwrap();
        let req = ExportRequest {
            videos: vec![],
            since_seq: 0,
            freeze_ms: 0,
        };
        let resp = src
            .post_json("/admin/export", &serde_json::to_string(&req).unwrap())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let bundle: BundleDto = resp.json().unwrap();
        bulk_seqs.push(bundle.as_of_seq);
        // The bundle ships verbatim as the import body.
        let resp = to_target
            .post_json("/admin/import", resp.body_str())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let _: ImportResponse = resp.json().unwrap();
    }

    // Phase 2 — cutover: freeze writes on the old owner while shipping
    // the delta of anything refined since the bulk copy.
    let owner = router.cluster().shard_for(vid);
    let mut src = HttpClient::connect(old[owner].local_addr()).unwrap();
    let req = ExportRequest {
        videos: vec![vid],
        since_seq: bulk_seqs[owner],
        freeze_ms: 5_000,
    };
    let resp = src
        .post_json("/admin/export", &serde_json::to_string(&req).unwrap())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let delta: BundleDto = resp.json().unwrap();
    assert!(
        delta.entries.iter().all(|e| e.chat_hex.is_none()),
        "delta exports ship state only; chat is immutable after crawl"
    );
    let resp = to_target
        .post_json("/admin/import", resp.body_str())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    // Inside the freeze window the old owner answers writes 503 with a
    // Retry-After (relayed through the router); reads still work.
    let resp = client.post_json("/sessions", &upload_json(vid, 4)).unwrap();
    assert_eq!(resp.status, 503, "frozen video rejects writes");
    assert!(
        resp.header("retry-after").is_some(),
        "503 names a retry time"
    );
    assert_eq!(
        client.get(&format!("/video/{vid}/dots")).unwrap().status,
        200
    );

    // Phase 3 — handoff: swap the ring to the target, live.
    let req = RingUpdateRequest {
        backends: vec![target.local_addr().to_string()],
    };
    let resp = client
        .post_json("/admin/ring", &serde_json::to_string(&req).unwrap())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let applied: RingUpdateResponse = resp.json().unwrap();
    assert_eq!(applied.version, 2);
    let hz: RouterHealthzResponse = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(hz.ring_version, 2);
    assert_eq!(hz.backends.len(), 1);

    // The new owner serves the migrated video with its refined state —
    // byte-for-byte the dots the old owner acknowledged.
    let resp = client.get(&format!("/video/{vid}/dots")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let after: DotsResponse = resp.json().unwrap();
    assert_eq!(after, refined, "refined state survived the migration");

    // Writes land again immediately — the target was never frozen, so
    // the freeze window ended with the cutover, not with its TTL.
    harness::assert_folded(&client.post_json("/sessions", &upload_json(vid, 4)).unwrap());

    // Stats aggregate over the new ring.
    let stats: RouterStatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.ring_version, 2);
    assert_eq!(stats.backends.len(), 1);
    assert!(!stats.backends[0].unreachable);

    router.shutdown();
    target.shutdown();
    for b in old {
        b.shutdown();
    }
}

/// After a ring swap the router routes by the new ring alone. Once the
/// new owner has acknowledged a refinement, a read must never be
/// answered from the old owner, whose copy stopped taking writes at
/// the cutover — not even while the new owner is down. Such a read
/// fails instead of silently dropping the acknowledged write.
#[test]
fn ring_swap_never_serves_the_old_owners_pre_write_dots() {
    let dirs: Vec<TempDir> = (0..2).map(|i| TempDir::new(&format!("epoch{i}"))).collect();
    let a = backend(&dirs[0].0, "127.0.0.1:0".parse().unwrap());
    let router = router(vec![a.local_addr()]);
    let mut client = HttpClient::connect(router.local_addr()).unwrap();
    let vid = catalog()[0];
    let dots_path = format!("/video/{vid}/dots");

    // Warm the video on A: these are the dots A will keep.
    let resp = client.get(&dots_path).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let pre_write: DotsResponse = resp.json().unwrap();
    assert!(!pre_write.dots.is_empty());

    // Migrate A's state into a fresh C, then swap the ring to [C].
    let c = backend(&dirs[1].0, "127.0.0.1:0".parse().unwrap());
    let mut from_a = HttpClient::connect(a.local_addr()).unwrap();
    let req = ExportRequest {
        videos: vec![],
        since_seq: 0,
        freeze_ms: 0,
    };
    let resp = from_a
        .post_json("/admin/export", &serde_json::to_string(&req).unwrap())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let mut to_c = HttpClient::connect(c.local_addr()).unwrap();
    let resp = to_c.post_json("/admin/import", resp.body_str()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let req = RingUpdateRequest {
        backends: vec![c.local_addr().to_string()],
    };
    let resp = client
        .post_json("/admin/ring", &serde_json::to_string(&req).unwrap())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    // Refine through the router until the dots move: C acknowledged a
    // write that A never saw.
    let mut moved = false;
    for i in 0..200u64 {
        let dot_at = pre_write.dots[(i as usize) % pre_write.dots.len()].at_seconds;
        let line = harness::refining_stream_line(vid, i, 1, dot_at);
        harness::assert_folded(&client.post_json("/sessions", &line).unwrap());
        let now: DotsResponse = client.get(&dots_path).unwrap().json().unwrap();
        if now != pre_write {
            moved = true;
            break;
        }
    }
    assert!(moved, "refinement through the new owner never moved a dot");

    // The new owner goes away. The read fails; it is never answered
    // with A's pre-write dots.
    c.shutdown();
    let resp = client.get(&dots_path).unwrap();
    assert!(
        resp.status >= 500,
        "a read whose owner is down must fail, got {}: {}",
        resp.status,
        resp.body_str()
    );
    let stale = resp
        .json::<DotsResponse>()
        .is_ok_and(|dots| dots == pre_write);
    assert!(!stale, "the router served the old owner's pre-write dots");

    router.shutdown();
    a.shutdown();
}

/// A backend closes a keep-alive connection after 5 s idle, which
/// leaves the router's pooled connection to it dead. Reusing that
/// connection says nothing about the backend: the read must not count
/// a failure or a retry, and the `/stats` sweep must not report the
/// backend unreachable.
#[test]
fn a_pooled_connection_the_backend_closed_is_not_a_failure() {
    let dirs: Vec<TempDir> = (0..2).map(|i| TempDir::new(&format!("idle{i}"))).collect();
    let backends: Vec<HttpServer> = dirs
        .iter()
        .map(|d| backend(&d.0, "127.0.0.1:0".parse().unwrap()))
        .collect();
    let router = router(backends.iter().map(|b| b.local_addr()).collect());
    let vid = catalog()[0];

    // Pool a connection to every backend: a dots read and the /stats
    // sweep.
    let mut client = HttpClient::connect(router.local_addr()).unwrap();
    let resp = client.get(&format!("/video/{vid}/dots")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let stats: RouterStatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert!(stats.backends.iter().all(|b| !b.unreachable));

    // Outlast the backends' keep-alive timeout. The router closes the
    // idle client connection too, so reconnect.
    std::thread::sleep(Duration::from_millis(5_500));
    let mut client = HttpClient::connect(router.local_addr()).unwrap();

    let resp = client.get(&format!("/video/{vid}/dots")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let stats: RouterStatsResponse = client.get("/stats").unwrap().json().unwrap();
    for (i, b) in stats.backends.iter().enumerate() {
        assert!(
            !b.unreachable && b.stats.is_some(),
            "backend {i} reported unreachable after idling"
        );
        assert_eq!(b.retries, 0, "backend {i}: an idle close cost a retry");
        assert_eq!(b.health, "healthy", "backend {i}");
    }
    let hz: RouterHealthzResponse = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(hz.status, "ok");

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A backend that passes the router's health probes but answers every
/// other request `503` with `Retry-After: 0`: each read through the
/// router asks for every retry it may take, immediately.
struct Overloaded;

impl Handler for Overloaded {
    fn handle(&self, req: &Request, _metrics: &HttpMetrics) -> (RouteKey, Response) {
        if req.path == "/healthz" {
            return (RouteKey::Healthz, Response::text(200, "ok"));
        }
        let resp = Response::error(503, "overloaded", "try again").with_header("Retry-After", "0");
        (RouteKey::Other, resp)
    }
}

#[test]
fn router_stats_count_retries_the_budget_denied() {
    let backend =
        HttpServer::bind_handler("127.0.0.1:0", Arc::new(Overloaded), ServerConfig::default())
            .unwrap();
    let router = router(vec![backend.local_addr()]);
    let mut client = HttpClient::connect(router.local_addr()).unwrap();

    let stats: RouterStatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.retries_denied, 0);

    // The default budget holds a 10-retry burst and earns 0.1 retry per
    // read, so 20 reads earn at most 12 retries. A read that is not
    // denied takes two (three attempts in all); every other read is
    // denied exactly once. So at least 14 of the 20 are denied.
    let reads = 20;
    for _ in 0..reads {
        let resp = client.get("/video/1/dots").unwrap();
        assert_eq!(resp.status, 503, "{}", resp.body_str());
    }
    let stats: RouterStatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert!(
        (14..=reads).contains(&stats.retries_denied),
        "retries_denied = {}",
        stats.retries_denied
    );
    assert!(stats.backends[0].retries <= 12);

    router.shutdown();
    backend.shutdown();
}

/// One backend's own `GET /stats`.
fn backend_stats(addr: SocketAddr) -> StatsResponse {
    let resp = HttpClient::connect(addr).unwrap().get("/stats").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    resp.json().unwrap()
}

/// Post `body` to `path` on `addr` and hang up without reading the
/// answer: the client never learns whether its batch was acknowledged.
fn post_and_lose_the_ack(addr: SocketAddr, path: &str, body: &str) {
    use std::io::Write;
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    write!(
        conn,
        "POST {path} HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
}

/// A client whose ack is lost retries the same sequenced batch. On
/// either session path, posted to the owner or through the router,
/// the retry is recognized as a replay: the batch folds once.
#[test]
fn a_lost_ack_is_retried_without_a_second_fold() {
    let dirs: Vec<TempDir> = (0..2).map(|i| TempDir::new(&format!("lost{i}"))).collect();
    let backends: Vec<HttpServer> = dirs
        .iter()
        .map(|d| backend(&d.0, "127.0.0.1:0".parse().unwrap()))
        .collect();
    let router = router(backends.iter().map(|b| b.local_addr()).collect());
    let vid = catalog()[0];
    let owner = backends[router.cluster().shard_for(vid)].local_addr();
    let dots: DotsResponse = HttpClient::connect(router.local_addr())
        .unwrap()
        .get(&format!("/video/{vid}/dots"))
        .unwrap()
        .json()
        .unwrap();
    let dot_at = dots.dots[0].at_seconds;

    let attempts = [
        (owner, "/sessions"),
        (owner, "/sessions/stream"),
        (router.local_addr(), "/sessions"),
        (router.local_addr(), "/sessions/stream"),
    ];
    for (client, (addr, path)) in (1u64..).zip(attempts) {
        let body = harness::refining_stream_line(vid, client, 1, dot_at);
        let before = backend_stats(owner);
        post_and_lose_the_ack(addr, path, &body);
        let deadline = Instant::now() + Duration::from_secs(10);
        while backend_stats(owner).stream_batches_folded == before.stream_batches_folded {
            assert!(
                Instant::now() < deadline,
                "{path} via {addr}: the batch whose ack was lost never folded"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        let resp = HttpClient::connect(addr)
            .unwrap()
            .post_json(path, &body)
            .unwrap();
        assert_eq!(resp.status, 200, "{path} via {addr}: {}", resp.body_str());
        let after = backend_stats(owner);
        assert_eq!(
            after.stream_batches_folded,
            before.stream_batches_folded + 1,
            "{path} via {addr}: folded once"
        );
        assert_eq!(
            after.stream_batches_replayed,
            before.stream_batches_replayed + 1
        );
        let ack: StreamAccepted = resp.json().unwrap();
        assert_eq!(
            (
                ack.lines_accepted,
                ack.batches_folded,
                ack.batches_replayed,
                ack.last_seq
            ),
            (1, 0, 1, 1),
            "{path} via {addr}: the retry must replay, not fold: {ack:?}"
        );
    }

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// The router routes a stream by its first line's video. A later line
/// for another video must not be acknowledged by that owner, even when
/// it holds a stale copy of the other video: the line is rejected, and
/// the client sends it in a stream of its own, which reaches its owner.
#[test]
fn a_stream_carries_one_video_to_its_owner() {
    let (_dirs, backends, addrs, router, b_vid) = two_shards_spanning("onevid");
    let a_vid = catalog()[0];
    let a_owner = addrs[router.cluster().shard_for(a_vid)];
    let b_owner = addrs[router.cluster().shard_for(b_vid)];
    assert_ne!(a_owner, b_owner);

    // Both videos are live through the router, and A's owner also
    // holds a copy of B, read from it directly.
    let mut client = HttpClient::connect(router.local_addr()).unwrap();
    let mut dot_of = |vid: u64| {
        let dots: DotsResponse = client
            .get(&format!("/video/{vid}/dots"))
            .unwrap()
            .json()
            .unwrap();
        dots.dots[0].at_seconds
    };
    let (a_at, b_at) = (dot_of(a_vid), dot_of(b_vid));
    let resp = HttpClient::connect(a_owner)
        .unwrap()
        .get(&format!("/video/{b_vid}/dots"))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let b_line = harness::refining_stream_line(b_vid, 7, 1, b_at);
    let body = harness::refining_stream_line(a_vid, 7, 1, a_at) + &b_line;
    let b_before = backend_stats(b_owner);
    let resp = client.post_json("/sessions/stream", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let ack: StreamAccepted = resp.json().unwrap();
    assert_eq!((ack.lines_accepted, ack.batches_folded), (1, 1), "{ack:?}");
    let rejected: Vec<(u64, &str)> = ack
        .rejected
        .iter()
        .map(|r| (r.line, r.code.as_str()))
        .collect();
    assert_eq!(rejected, vec![(2, "video_mismatch")]);

    // A's owner holds no watermark for B's batch: it never acked it.
    let (_, bundle) = harness::export_bundle(
        a_owner,
        &ExportRequest {
            videos: vec![b_vid],
            since_seq: 0,
            freeze_ms: 0,
        },
    );
    let state = bundle.entries[0].state.as_ref().expect("A's copy of B");
    match state.get_key("sessions") {
        Some(serde_json::Value::Map(marks)) => {
            assert!(marks.is_empty(), "A's owner acked B's batch: {marks:?}")
        }
        other => panic!("sessions: {other:?}"),
    }
    assert_eq!(
        backend_stats(b_owner).stream_batches_folded,
        b_before.stream_batches_folded
    );

    // Sent on its own, B's batch reaches B's owner and folds there.
    harness::assert_folded(&client.post_json("/sessions", &b_line).unwrap());
    assert_eq!(
        backend_stats(b_owner).stream_batches_folded,
        b_before.stream_batches_folded + 1
    );

    router.shutdown();
    for b in backends.into_iter().flatten() {
        b.shutdown();
    }
}
