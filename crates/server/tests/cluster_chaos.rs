//! Chaos tests: real `lightor-serve` backend *processes* behind a real
//! `lightor-router` process, with backends SIGKILLed, replaced, and
//! resharded mid-load.
//!
//! Asserts the fault-tolerance contract end to end:
//!
//! * refined red dots acknowledged before the kill survive the
//!   failover (same data dir + WAL replay on restart);
//! * GETs to healthy shards never see a 5xx while the victim is down;
//! * the router's `/healthz` walks the victim down and back to healthy;
//! * a planned live migration (bulk → freeze + delta → ring swap)
//!   bounds its write-freeze window under one second;
//! * a SIGKILLed shard's range comes back on a *fresh* process via
//!   `--restore-from` + a live ring update, with zero acknowledged
//!   loss.

mod harness;

use harness::*;
use lightor_platform::wire::{DotsResponse, ExportRequest};
use lightor_server::cluster::{Cluster, ClusterConfig};
use lightor_server::HttpClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn killing_and_restarting_a_backend_mid_load_loses_nothing() {
    const SEED: u64 = 71;
    let dirs: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("b{i}"))).collect();

    // Boot 3 real backend processes (same seed → identical catalogs).
    let mut backends: Vec<Option<(Proc, SocketAddr)>> = Vec::new();
    let mut catalog = Vec::new();
    for dir in &dirs {
        let (proc_, addr, cat) = spawn_backend(&dir.0, SEED, 0);
        catalog = cat;
        backends.push(Some((proc_, addr)));
    }
    assert!(!catalog.is_empty(), "backends must publish a catalog");
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.as_ref().unwrap().1).collect();
    let (_router_proc, router_addr) = spawn_router(&addrs);

    // The router binary and this in-test replica build the same
    // deterministic ring from the same backend list, so the test knows
    // which shard owns which video without asking the router.
    let ring = Cluster::new(ClusterConfig::new(addrs.clone()));
    let victim = ring.shard_for(catalog[0]);
    let victim_vid = catalog[0];
    let victim_addr = addrs[victim];
    let victim_port = victim_addr.port();
    // Synthetic ids let the load loop exercise every healthy shard even
    // if the catalog happens to hash onto few of them: unknown videos
    // answer 404, which is still a non-5xx from a healthy shard.
    let healthy_probe_ids: Vec<u64> = (0..1000u64)
        .filter(|&v| ring.shard_for(v) != victim)
        .take(8)
        .collect();

    let mut client = HttpClient::connect(router_addr).unwrap();
    assert_eq!(healthz(&mut client).status, "ok");

    // Phase 1 — load: open the victim's video and upload sessions until
    // a refinement round is acknowledged (the state the kill must not
    // lose).
    let acknowledged = refine_and_ack(&mut client, victim_vid);

    // Phase 2 — chaos: background load hammers healthy shards while the
    // victim is killed; healthy shards must never answer 5xx.
    let stop = Arc::new(AtomicBool::new(false));
    let loader = spawn_loader(router_addr, healthy_probe_ids.clone(), stop.clone());

    // SIGKILL the victim mid-load.
    drop(backends[victim].take());
    wait_backend_state(router_addr, victim_addr, "down", Duration::from_secs(20));
    let hz = healthz(&mut client);
    assert_eq!(hz.status, "degraded");

    // The dead shard fast-fails with Retry-After; healthy shards serve.
    let resp = client.get(&format!("/video/{victim_vid}/dots")).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    assert!(resp.header("retry-after").is_some());
    let resp = client
        .post_json("/sessions", &refining_stream_line(victim_vid, 999, 1, 10.0))
        .unwrap();
    assert_eq!(resp.status, 503, "writes to a down shard fast-fail");

    // Phase 3 — recovery: restart the victim on its old port and data
    // dir; probes must walk it back to healthy.
    let (proc_, addr, _) = spawn_backend(&dirs[victim].0, SEED, victim_port);
    assert_eq!(addr, victim_addr, "restart must reuse the old address");
    backends[victim] = Some((proc_, addr));
    wait_backend_state(
        router_addr,
        victim_addr,
        "healthy",
        Duration::from_secs(120),
    );

    stop.store(true, Ordering::Relaxed);
    let five_xx = loader.join().unwrap();
    assert!(
        five_xx.is_empty(),
        "healthy shards answered 5xx during failover: {five_xx:?}"
    );

    // Zero acknowledged loss: the refined dots the router acknowledged
    // before the SIGKILL came back from the restarted shard's storage.
    let restored: DotsResponse = client
        .get(&format!("/video/{victim_vid}/dots"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        restored, acknowledged,
        "acknowledged refinement state was lost in the failover"
    );
    assert_eq!(healthz(&mut client).status, "ok");
}

#[test]
fn planned_migration_drains_a_shard_with_a_subsecond_freeze() {
    const SEED: u64 = 72;
    let dirs: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("mig{i}"))).collect();

    // Two shards + router; a third backend boots later as the target.
    let (_proc_a, addr_a, catalog) = spawn_backend(&dirs[0].0, SEED, 0);
    let (_proc_b, addr_b, _) = spawn_backend(&dirs[1].0, SEED, 0);
    let addrs = vec![addr_a, addr_b];
    let (_router_proc, router_addr) = spawn_router(&addrs);
    let ring = Cluster::new(ClusterConfig::new(addrs.clone()));

    // Drain the shard that owns the catalog's first video; the other
    // shard stays in the ring.
    let vid = catalog[0];
    let src = ring.shard_for(vid);
    let keep = 1 - src;

    let mut client = HttpClient::connect(router_addr).unwrap();
    let acknowledged = refine_and_ack(&mut client, vid);

    let (_proc_c, addr_c, _) = spawn_backend(&dirs[2].0, SEED, 0);

    // Background GETs against the shard that stays; resharding must
    // never cost a healthy shard's reads a 5xx.
    let keep_ids: Vec<u64> = (0..1000u64)
        .filter(|&v| ring.shard_for(v) == keep)
        .take(8)
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let loader = spawn_loader(router_addr, keep_ids, stop.clone());

    // Phase 1 — bulk copy, no freeze: the drained shard's full range
    // goes to both remaining backends (whichever owns each video after
    // the swap must hold its state).
    let (bulk_body, bulk) = export_bundle(
        addrs[src],
        &ExportRequest {
            videos: vec![],
            since_seq: 0,
            freeze_ms: 0,
        },
    );
    assert!(import_bundle(addrs[keep], &bulk_body).videos >= 1);
    import_bundle(addr_c, &bulk_body);

    // Phase 2 — cutover: freeze the drained shard's writes, ship the
    // delta since the bulk copy, swap the ring. The clock starts at
    // the freeze and stops at the first accepted write.
    let t0 = Instant::now();
    let (delta_body, _) = export_bundle(
        addrs[src],
        &ExportRequest {
            videos: vec![],
            since_seq: bulk.as_of_seq,
            freeze_ms: 900,
        },
    );
    import_bundle(addrs[keep], &delta_body);
    import_bundle(addr_c, &delta_body);

    // Mid-freeze, the old owner rejects writes with a Retry-After.
    let resp = client
        .post_json("/sessions", &refining_stream_line(vid, 500, 1, 10.0))
        .unwrap();
    assert_eq!(resp.status, 503, "frozen video rejects writes");
    assert!(resp.header("retry-after").is_some());

    let applied = apply_ring(router_addr, &[addrs[keep], addr_c]);
    assert_eq!(applied.version, 2);

    // Writes land again the moment the new ring routes them — the
    // freeze window ends with the cutover, not with its TTL — and the
    // whole window stays under a second.
    let freeze_window = loop {
        let resp = client
            .post_json("/sessions", &refining_stream_line(vid, 501, 1, 10.0))
            .unwrap();
        if resp.status == 200 {
            let window = t0.elapsed();
            assert_folded(&resp);
            break window;
        }
        assert_eq!(resp.status, 503, "{}", resp.body_str());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "writes never resumed after the ring swap"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        freeze_window < Duration::from_secs(1),
        "cutover froze writes for {freeze_window:?}"
    );

    // The refined dots acknowledged before the migration come back
    // identical through the new ring.
    let resp = client.get(&format!("/video/{vid}/dots")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let after: DotsResponse = resp.json().unwrap();
    assert_eq!(after, acknowledged, "refined state was lost in the move");

    // The target earns healthy through the ordinary state machine.
    wait_backend_state(router_addr, addr_c, "healthy", Duration::from_secs(120));
    let hz = healthz(&mut client);
    assert_eq!(hz.status, "ok");
    assert_eq!(hz.ring_version, 2);

    stop.store(true, Ordering::Relaxed);
    let five_xx = loader.join().unwrap();
    assert!(
        five_xx.is_empty(),
        "healthy shards answered 5xx during the migration: {five_xx:?}"
    );
}

#[test]
fn crash_replacement_restores_the_dead_range_on_a_fresh_process() {
    const SEED: u64 = 73;
    let dirs: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("rep{i}"))).collect();

    let mut backends: Vec<Option<(Proc, SocketAddr)>> = Vec::new();
    let mut catalog = Vec::new();
    for dir in &dirs[..2] {
        let (proc_, addr, cat) = spawn_backend(&dir.0, SEED, 0);
        catalog = cat;
        backends.push(Some((proc_, addr)));
    }
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.as_ref().unwrap().1).collect();
    let (_router_proc, router_addr) = spawn_router(&addrs);
    let ring = Cluster::new(ClusterConfig::new(addrs.clone()));

    let vid = catalog[0];
    let victim = ring.shard_for(vid);
    let survivor = 1 - victim;

    let mut client = HttpClient::connect(router_addr).unwrap();
    let acknowledged = refine_and_ack(&mut client, vid);

    let survivor_ids: Vec<u64> = (0..1000u64)
        .filter(|&v| ring.shard_for(v) == survivor)
        .take(8)
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let loader = spawn_loader(router_addr, survivor_ids, stop.clone());

    // SIGKILL the victim; its data dir is all that survives.
    drop(backends[victim].take());
    wait_backend_state(router_addr, addrs[victim], "down", Duration::from_secs(20));

    // A *fresh* process on a new port and a new data dir adopts the
    // dead shard's range: snapshot + WAL tail from the dead dir.
    let (_proc_c, addr_c, _, restored_count) =
        spawn_backend_restoring(&dirs[2].0, SEED, 0, Some(&dirs[victim].0));
    assert!(
        restored_count.expect("replacement prints a restored line") >= 1,
        "the dead dir held the victim's range"
    );

    // Fan the restored range to the survivor too — after the swap,
    // whichever of the two owns each ex-victim video must hold its
    // state.
    let (bundle_body, _) = export_bundle(
        addr_c,
        &ExportRequest {
            videos: vec![],
            since_seq: 0,
            freeze_ms: 0,
        },
    );
    import_bundle(addrs[survivor], &bundle_body);

    // Replace the dead address with the replacement, live.
    let applied = apply_ring(router_addr, &[addrs[survivor], addr_c]);
    assert_eq!(applied.version, 2);

    // Zero acknowledged loss: every refinement round the router
    // acknowledged before the SIGKILL is served by the new ring.
    let resp = client.get(&format!("/video/{vid}/dots")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let after: DotsResponse = resp.json().unwrap();
    assert_eq!(
        after, acknowledged,
        "acknowledged refinement state was lost in the replacement"
    );

    // Writes flow to the new ring immediately.
    assert_folded(
        &client
            .post_json("/sessions", &refining_stream_line(vid, 999, 1, 10.0))
            .unwrap(),
    );

    // The replacement joins through recovering → healthy; the dead
    // address is gone from the ring.
    wait_backend_state(router_addr, addr_c, "healthy", Duration::from_secs(120));
    let hz = healthz(&mut client);
    assert_eq!(hz.status, "ok");
    assert_eq!(hz.ring_version, 2);
    assert_eq!(hz.backends.len(), 2);

    stop.store(true, Ordering::Relaxed);
    let five_xx = loader.join().unwrap();
    assert!(
        five_xx.is_empty(),
        "healthy shards answered 5xx during the replacement: {five_xx:?}"
    );
}
