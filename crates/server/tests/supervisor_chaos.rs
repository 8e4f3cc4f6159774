//! Supervisor chaos tests: a real `lightor-supervisor` process keeps a
//! warm standby in sync behind a real router and real backends, the
//! primary is SIGKILLed mid-load, and the supervisor promotes the
//! standby with **no operator action** — plus the
//! crash-between-delta-and-swap idempotency drill from the runbook.
//!
//! Asserts the control-plane contract end to end:
//!
//! * the delta loop converges (lag reaches zero) and keeps shipping as
//!   acknowledged writes land on the primary;
//! * after `kill -9` on the primary, the standby serves the range
//!   through a new ring version within 5 s of the router marking the
//!   shard down — with the acknowledged dots byte-identical;
//! * healthy shards never answer 5xx while the failover runs;
//! * exactly one promotion happens even when a supervisor crashes
//!   between the final delta and the ring swap and a fresh one resumes.

mod harness;

use harness::*;
use lightor_platform::wire::{DotsResponse, SupervisorStatsResponse};
use lightor_server::cluster::{Cluster, ClusterConfig};
use lightor_server::replicate::ReplicaPair;
use lightor_server::supervisor::{Phase, Supervisor, SupervisorConfig};
use lightor_server::HttpClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll the supervisor's `/stats` until `ok` accepts a snapshot.
fn wait_supervisor(
    sup: SocketAddr,
    what: &str,
    within: Duration,
    ok: impl Fn(&SupervisorStatsResponse) -> bool,
) -> SupervisorStatsResponse {
    let deadline = Instant::now() + within;
    loop {
        let stats = supervisor_stats(sup);
        if ok(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never reached {what}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn supervisor_promotes_a_killed_primary_unattended() {
    const SEED: u64 = 74;
    let dirs: Vec<TempDir> = ["p0", "p1", "standby"]
        .iter()
        .map(|tag| TempDir::new(tag))
        .collect();

    // Two ring backends + one standby (same seed → identical catalogs).
    let (p0, a0, catalog) = spawn_backend(&dirs[0].0, SEED, 0);
    let (p1, a1, _) = spawn_backend(&dirs[1].0, SEED, 0);
    let (_standby_proc, standby_addr, _) = spawn_backend(&dirs[2].0, SEED, 0);
    let addrs = vec![a0, a1];
    let (_router_proc, router_addr) = spawn_router(&addrs);

    // Same deterministic ring as the router: pick the shard owning the
    // catalog's first video as the victim the supervisor must replace.
    let ring = Cluster::new(ClusterConfig::new(addrs.clone()));
    let victim_vid = catalog[0];
    let victim = ring.shard_for(victim_vid);
    let victim_addr = addrs[victim];
    let mut procs = [Some(p0), Some(p1)];

    // The supervisor process watches the victim, replicating to the
    // standby, with the victim's data dir as the zero-loss final-delta
    // path. From here on the test issues NO admin calls — every bundle
    // and the ring swap are the supervisor's.
    let pair_spec = format!("{victim_addr},{standby_addr},{}", dirs[victim].0.display());
    let (_sup_proc, sup_addr) = spawn_supervisor(router_addr, &[pair_spec], 100);

    // Bootstrap: the standby gets its bulk seed and the lag converges.
    wait_supervisor(sup_addr, "bootstrap", Duration::from_secs(60), |s| {
        let r = &s.ranges[0];
        r.phase == "replicating" && r.bulk_syncs >= 1 && r.lag_ops == 0
    });

    // Acknowledged load on the victim's range, then wait for the delta
    // loop to ship it — continuous replication, observed via /stats.
    let mut client = HttpClient::connect(router_addr).unwrap();
    let acknowledged = refine_and_ack(&mut client, victim_vid);
    let acked_resp = client.get(&format!("/video/{victim_vid}/dots")).unwrap();
    assert_eq!(acked_resp.status, 200);
    let acked_body = acked_resp.body_str().to_string();
    wait_supervisor(
        sup_addr,
        "delta convergence",
        Duration::from_secs(30),
        |s| {
            let r = &s.ranges[0];
            r.deltas_shipped >= 1 && r.lag_ops == 0 && r.synced_seq > 0
        },
    );

    // Background load on the surviving shard: the failover must never
    // cost a healthy shard's reads a 5xx.
    let survivor_ids: Vec<u64> = (0..1000u64)
        .filter(|&v| ring.shard_for(v) != victim)
        .take(8)
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let loader = spawn_loader(router_addr, survivor_ids, stop.clone());

    // Chaos: SIGKILL the primary. Nobody touches the cluster now —
    // the supervisor must notice, ship the final delta from the dead
    // shard's data dir, and swap the ring on its own.
    drop(procs[victim].take());
    wait_backend_state(router_addr, victim_addr, "down", Duration::from_secs(20));
    let marked_down = Instant::now();

    // The promotion budget starts when the router marks the shard
    // down: within 5 s the standby must serve the victim's video
    // through a new ring, byte-identical to the acknowledged state.
    let promoted_in = loop {
        let resp = client.get(&format!("/video/{victim_vid}/dots")).unwrap();
        if resp.status == 200 {
            assert_eq!(
                resp.body_str(),
                acked_body,
                "promoted standby serves different bytes than were acknowledged"
            );
            break marked_down.elapsed();
        }
        assert!(
            marked_down.elapsed() < Duration::from_secs(5),
            "standby not serving within 5s of down (last status {})",
            resp.status
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        promoted_in < Duration::from_secs(5),
        "promotion took {promoted_in:?}"
    );
    let after: DotsResponse = serde_json::from_str(&acked_body).unwrap();
    assert_eq!(after, acknowledged);

    // The ring advanced exactly once: standby in, victim out.
    let hz = healthz(&mut client);
    assert_eq!(hz.ring_version, 2);
    assert!(hz
        .backends
        .iter()
        .any(|b| b.addr == standby_addr.to_string()));
    assert!(hz
        .backends
        .iter()
        .all(|b| b.addr != victim_addr.to_string()));

    // The supervisor's own account: one promotion, from the victim to
    // the standby, final delta rebuilt from the dead data dir.
    let stats = wait_supervisor(sup_addr, "promoted", Duration::from_secs(10), |s| {
        s.ranges[0].phase == "promoted"
    });
    assert_eq!(stats.promotions, 1);
    let promo = stats.last_promotion.expect("promotion recorded");
    assert_eq!(promo.from, victim_addr.to_string());
    assert_eq!(promo.to, standby_addr.to_string());
    assert_eq!(promo.ring_version, 2);
    assert_eq!(promo.final_delta_source, "data_dir");

    // Writes flow to the promoted standby immediately.
    assert_folded(
        &client
            .post_json("/sessions", &refining_stream_line(victim_vid, 999, 1, 10.0))
            .unwrap(),
    );

    // The standby earns healthy through the ordinary probe machine.
    wait_backend_state(
        router_addr,
        standby_addr,
        "healthy",
        Duration::from_secs(120),
    );

    stop.store(true, Ordering::Relaxed);
    let five_xx = loader.join().unwrap();
    assert!(
        five_xx.is_empty(),
        "healthy shard answered 5xx during the unattended failover: {five_xx:?}"
    );
}

#[test]
fn promotion_survives_a_supervisor_crash_between_delta_and_swap() {
    const SEED: u64 = 75;
    let dirs: Vec<TempDir> = ["ip", "io", "is"]
        .iter()
        .map(|tag| TempDir::new(tag))
        .collect();

    let (p0, a0, catalog) = spawn_backend(&dirs[0].0, SEED, 0);
    let (p1, a1, _) = spawn_backend(&dirs[1].0, SEED, 0);
    let (_standby_proc, standby_addr, _) = spawn_backend(&dirs[2].0, SEED, 0);
    let addrs = vec![a0, a1];
    let (_router_proc, router_addr) = spawn_router(&addrs);

    let ring = Cluster::new(ClusterConfig::new(addrs.clone()));
    let vid = catalog[0];
    let victim = ring.shard_for(vid);
    let victim_addr = addrs[victim];
    let mut procs = [Some(p0), Some(p1)];

    // In-process supervisors (manually ticked) so the test can crash
    // one at the exact worst moment: after the final delta shipped,
    // before the ring swap posted.
    let cfg = SupervisorConfig::new(
        router_addr,
        vec![ReplicaPair {
            primary: victim_addr,
            standby: standby_addr,
            primary_data_dir: Some(dirs[victim].0.clone()),
        }],
    );

    let sup1 = Supervisor::new(cfg.clone());
    let report = sup1.tick();
    assert!(report.observed && report.executed == 1, "{report:?}");
    assert_eq!(sup1.phase(0), Phase::Replicating);
    assert_eq!(sup1.stats().ranges[0].bulk_syncs, 1);

    // Acknowledged writes on the primary, shipped by the delta loop.
    let mut client = HttpClient::connect(router_addr).unwrap();
    let acknowledged = refine_and_ack(&mut client, vid);
    let report = sup1.tick();
    assert_eq!(report.executed, 1, "{report:?}");
    assert!(sup1.stats().ranges[0].deltas_shipped >= 1);

    // Kill the primary; wait for the router to walk it down.
    drop(procs[victim].take());
    wait_backend_state(router_addr, victim_addr, "down", Duration::from_secs(20));

    // sup1 runs ONLY the final delta, then "crashes" (dropped) before
    // it can post the ring swap. The live export fails against the
    // dead process, so the delta comes from the data dir (WAL tail =
    // every acknowledged write).
    assert_eq!(sup1.final_delta(0), "data_dir");
    assert_eq!(sup1.phase(0), Phase::Promoting);
    drop(sup1);

    // Nothing swapped yet: the ring still routes (and 503s) the dead
    // primary.
    let hz = healthz(&mut client);
    assert_eq!(hz.ring_version, 1);
    assert!(hz
        .backends
        .iter()
        .any(|b| b.addr == victim_addr.to_string()));

    // A fresh supervisor — empty ledger, no memory of sup1 — must
    // resume the promotion, not restart replication or double-swap.
    let sup2 = Supervisor::new(cfg);
    let report = sup2.tick();
    assert!(report.observed, "{report:?}");
    assert_eq!(report.executed, 1, "{report:?}");
    assert_eq!(sup2.phase(0), Phase::Promoted);

    // Exactly one promotion: the ring advanced 1 → 2, once.
    let hz = healthz(&mut client);
    assert_eq!(hz.ring_version, 2);
    assert!(hz
        .backends
        .iter()
        .any(|b| b.addr == standby_addr.to_string()));
    let stats = sup2.stats();
    assert_eq!(stats.promotions, 1);
    assert_eq!(
        stats.last_promotion.expect("recorded").final_delta_source,
        "data_dir"
    );

    // Further ticks are pure observation — no second swap, ever.
    for _ in 0..3 {
        let report = sup2.tick();
        assert_eq!(report.executed + report.failed, 0, "{report:?}");
    }
    assert_eq!(healthz(&mut client).ring_version, 2);
    assert_eq!(sup2.stats().promotions, 1);

    // Zero acknowledged loss through the resumed promotion.
    let resp = client.get(&format!("/video/{vid}/dots")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let after: DotsResponse = resp.json().unwrap();
    assert_eq!(
        after, acknowledged,
        "acknowledged refinement state was lost across the supervisor crash"
    );
}
