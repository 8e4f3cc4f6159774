//! The supervisor control plane: warm standbys, continuous delta
//! replication, and unattended failover.
//!
//! PR 7 made shard migration a live *protocol* (export → freeze →
//! delta → ring swap) but left a human driving it. The supervisor is
//! that human, mechanized — a deterministic reconciliation loop:
//!
//! ```text
//!            ┌───────────── observe ─────────────┐
//!            │  GET router /healthz:             │
//!            │  ring members, health states,     │
//!            │  ring_version                     │
//!            └────────────────┬──────────────────┘
//!                             ▼
//!            ┌────────────── plan ───────────────┐
//!            │  per pair, in config order:       │
//!            │  standby in ring     → promoted   │
//!            │  primary left ring   → retired    │
//!            │  primary down        → promote    │
//!            │  never seeded        → bulk sync  │
//!            │  otherwise           → delta sync │
//!            └────────────────┬──────────────────┘
//!                             ▼
//!            ┌────────────── act ────────────────┐
//!            │  ≤ 2 expensive actions per tick;  │
//!            │  failures retry next tick         │
//!            └───────────────────────────────────┘
//! ```
//!
//! The plan is derived *only* from the observation and the sync
//! ledger, never from what a previous incarnation believed — which is
//! what makes a supervisor restart mid-failover resume instead of
//! double-promote: if the ring already contains the standby, the
//! range is `promoted` no matter who swapped it; if it still contains
//! the dead primary, promotion re-runs from the top (the final-delta
//! import is idempotent, the ring swap is computed from a fresh
//! observation taken immediately before the POST).
//!
//! Promotion itself is the PR 7 runbook, executed: final delta from
//! the primary if it still answers, else
//! [`LightorService::bundle_from_dir`] on its data directory (the WAL
//! tail holds every acknowledged write — this is the zero-loss path
//! for a SIGKILLed shard), then `POST /admin/ring` on the router with
//! the standby substituted for the primary. The router admits the
//! standby through the existing `recovering` trial path.

use crate::client::ClientError;
use crate::http::{Request, Response};
use crate::metrics::{HttpMetrics, RouteKey};
use crate::replicate::{call_json, ship_bundle, sync_pair, ReplicaPair, ReplicaTracker};
use crate::retry::XorShift64;
use crate::router::{resolve, Route};
use crate::server::Handler;
use lightor_platform::wire::{
    PromotionDto, ReplicaStatusDto, RingUpdateResponse, RouterHealthzResponse,
    SupervisorStatsResponse,
};
use lightor_platform::LightorService;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervisor settings: what to watch, how often, and the deadline of
/// each control-plane request. The rest is constants of this module.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The router whose `/healthz` is observed and whose
    /// `POST /admin/ring` drives promotions.
    pub router: SocketAddr,
    /// The replicated ranges to maintain.
    pub pairs: Vec<ReplicaPair>,
    /// Base reconciliation cadence (each tick syncs deltas and checks
    /// health).
    pub tick_interval: Duration,
    /// End-to-end budget per request (observe, export, import, ring
    /// swap).
    pub request_timeout: Duration,
}

impl SupervisorConfig {
    /// Defaults for a router address and a set of replicated ranges.
    pub fn new(router: SocketAddr, pairs: Vec<ReplicaPair>) -> Self {
        SupervisorConfig {
            router,
            pairs,
            tick_interval: Duration::from_millis(250),
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// Uniform jitter added to each tick's sleep so co-scheduled
/// supervisors don't thundering-herd the same primaries.
const TICK_JITTER: Duration = Duration::from_millis(50);

/// Expensive actions (syncs, promotions) allowed per tick; the rest
/// wait for the next tick. Promotions are planned ahead of syncs so a
/// dead primary never queues behind bulk copies.
const MAX_ACTIONS_PER_TICK: usize = 2;

/// Seed for the tick-jitter RNG.
const JITTER_SEED: u64 = 0x5eed_5eed;

/// One range's lifecycle phase (the wire names live in
/// [`ReplicaStatusDto::phase`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// No bulk seed yet — the standby may hold nothing.
    Bootstrapping,
    /// Seeded; the delta loop keeps it warm.
    Replicating,
    /// The primary is down and promotion is in flight.
    Promoting,
    /// The standby is in the ring — this range's job is done.
    Promoted,
    /// The primary left the ring without a promotion (a manual ring
    /// update superseded the supervisor); nothing left to drive.
    Retired,
}

impl Phase {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Bootstrapping => "bootstrapping",
            Phase::Replicating => "replicating",
            Phase::Promoting => "promoting",
            Phase::Promoted => "promoted",
            Phase::Retired => "retired",
        }
    }
}

/// One backend row from the router's `/healthz`, address-parsed.
#[derive(Clone, Debug)]
pub struct ObservedBackend {
    /// The ring member's address.
    pub addr: SocketAddr,
    /// Health-state name (`"healthy"`, `"suspect"`, `"down"`,
    /// `"recovering"`).
    pub health: String,
}

/// A snapshot of the router's view of the cluster — everything the
/// planner reads.
#[derive(Clone, Debug)]
pub struct Observation {
    /// The ring version currently routing.
    pub ring_version: u64,
    /// Ring members with health, in ring order.
    pub backends: Vec<ObservedBackend>,
}

impl Observation {
    /// The row for `addr`, if it is a ring member.
    pub fn backend(&self, addr: SocketAddr) -> Option<&ObservedBackend> {
        self.backends.iter().find(|b| b.addr == addr)
    }

    /// Whether `addr` is a ring member.
    pub fn in_ring(&self, addr: SocketAddr) -> bool {
        self.backend(addr).is_some()
    }
}

/// One planned step, targeting a range by config index. Note actions
/// are free bookkeeping; the rest do network I/O, and at most two of
/// them run per tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// The standby is already in the ring — record the range as done.
    NotePromoted {
        /// Config index of the range.
        range: usize,
    },
    /// The primary left the ring without a promotion.
    NoteRetired {
        /// Config index of the range.
        range: usize,
    },
    /// The primary is down: final delta + ring swap.
    Promote {
        /// Config index of the range.
        range: usize,
    },
    /// Seed the standby with a full bundle.
    BulkSync {
        /// Config index of the range.
        range: usize,
    },
    /// Ship state changed since the last watermark.
    DeltaSync {
        /// Config index of the range.
        range: usize,
    },
}

impl Action {
    fn is_expensive(self) -> bool {
        !matches!(
            self,
            Action::NotePromoted { .. } | Action::NoteRetired { .. }
        )
    }
}

/// What one reconciliation tick did — returned for tests and logging;
/// the cumulative story lives in [`Supervisor::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TickReport {
    /// Whether the router answered `/healthz`.
    pub observed: bool,
    /// Actions the planner emitted (before the per-tick bound).
    pub planned: usize,
    /// Actions that ran and succeeded.
    pub executed: usize,
    /// Actions that ran and failed (they retry next tick).
    pub failed: usize,
}

struct RangeState {
    pair: ReplicaPair,
    tracker: ReplicaTracker,
    phase: Phase,
}

struct PromotionRecord {
    dto: PromotionDto,
    at: Instant,
}

/// The reconciliation loop and its ledger. All methods take `&self`;
/// a single ticker thread drives [`Supervisor::tick`] while the HTTP
/// handler reads [`Supervisor::stats`] concurrently.
pub struct Supervisor {
    cfg: SupervisorConfig,
    ranges: Mutex<Vec<RangeState>>,
    ticks: AtomicU64,
    actions: AtomicU64,
    promotions: AtomicU64,
    last_promotion: Mutex<Option<PromotionRecord>>,
    shutdown: AtomicBool,
    rng: Mutex<XorShift64>,
}

impl Supervisor {
    /// Build a supervisor over `cfg`. Every range starts
    /// `bootstrapping`; the first tick seeds the standbys.
    pub fn new(cfg: SupervisorConfig) -> Self {
        let ranges = cfg
            .pairs
            .iter()
            .map(|pair| RangeState {
                pair: pair.clone(),
                tracker: ReplicaTracker::default(),
                phase: Phase::Bootstrapping,
            })
            .collect();
        let rng = XorShift64::new(JITTER_SEED);
        Supervisor {
            cfg,
            ranges: Mutex::new(ranges),
            ticks: AtomicU64::new(0),
            actions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            last_promotion: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            rng: Mutex::new(rng),
        }
    }

    /// The configured tick cadence plus a fresh jitter draw.
    pub fn next_sleep(&self) -> Duration {
        let jitter_us = TICK_JITTER.as_micros() as u64;
        let draw = self
            .rng
            .lock()
            .expect("rng lock poisoned")
            .below(jitter_us + 1);
        self.cfg.tick_interval + Duration::from_micros(draw)
    }

    /// Fetch the router's `/healthz` and parse it into an
    /// [`Observation`]. Rows whose address fails to parse are dropped
    /// (they can only come from a router speaking a different wire
    /// dialect; the planner must not act on them).
    pub fn observe(&self) -> Result<Observation, ClientError> {
        let (dto, _): (RouterHealthzResponse, _) = call_json(
            self.cfg.router,
            "GET",
            "/healthz",
            None,
            self.cfg.request_timeout,
        )?;
        Ok(Observation {
            ring_version: dto.ring_version,
            backends: dto
                .backends
                .into_iter()
                .filter_map(|b| {
                    Some(ObservedBackend {
                        addr: b.addr.parse().ok()?,
                        health: b.health,
                    })
                })
                .collect(),
        })
    }

    /// Derive this tick's actions from `obs` — pure (no I/O, no state
    /// writes), deterministic in config order, promotions ahead of
    /// syncs, at most two expensive actions.
    pub fn plan(&self, obs: &Observation) -> Vec<Action> {
        let ranges = self.ranges.lock().expect("ranges lock poisoned");
        let mut notes = Vec::new();
        let mut promotes = Vec::new();
        let mut syncs = Vec::new();
        for (range, st) in ranges.iter().enumerate() {
            match st.phase {
                Phase::Promoted | Phase::Retired => continue,
                _ => {}
            }
            if obs.in_ring(st.pair.standby) {
                // Whoever swapped it — this incarnation, a dead one,
                // or an operator — the range is done.
                notes.push(Action::NotePromoted { range });
                continue;
            }
            let Some(primary) = obs.backend(st.pair.primary) else {
                notes.push(Action::NoteRetired { range });
                continue;
            };
            if primary.health == "down" || st.phase == Phase::Promoting {
                promotes.push(Action::Promote { range });
            } else if st.tracker.synced_seq.is_none() {
                syncs.push(Action::BulkSync { range });
            } else {
                syncs.push(Action::DeltaSync { range });
            }
        }
        let mut plan = notes;
        let mut budget = MAX_ACTIONS_PER_TICK;
        for a in promotes.into_iter().chain(syncs) {
            if budget == 0 {
                break;
            }
            budget -= 1;
            plan.push(a);
        }
        plan
    }

    /// One observe → plan → act cycle.
    pub fn tick(&self) -> TickReport {
        let mut report = TickReport::default();
        let obs = match self.observe() {
            Ok(obs) => obs,
            Err(_) => {
                // The router is unreachable; nothing can be planned
                // safely (promoting without an observed ring risks
                // acting on a stale world). Retry next tick.
                self.ticks.fetch_add(1, Ordering::Relaxed);
                return report;
            }
        };
        report.observed = true;
        let plan = self.plan(&obs);
        report.planned = plan.len();
        for action in plan {
            if action.is_expensive() {
                self.actions.fetch_add(1, Ordering::Relaxed);
            }
            if self.act(action) {
                report.executed += 1;
            } else {
                report.failed += 1;
            }
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
        report
    }

    /// Execute one action; `false` means it failed and will be
    /// re-planned next tick.
    fn act(&self, action: Action) -> bool {
        match action {
            Action::NotePromoted { range } => {
                self.set_phase(range, Phase::Promoted);
                true
            }
            Action::NoteRetired { range } => {
                self.set_phase(range, Phase::Retired);
                true
            }
            Action::BulkSync { range } | Action::DeltaSync { range } => self.sync(range),
            Action::Promote { range } => self.promote(range),
        }
    }

    fn set_phase(&self, range: usize, phase: Phase) {
        let mut ranges = self.ranges.lock().expect("ranges lock poisoned");
        ranges[range].phase = phase;
    }

    /// One sync step for `range` (bulk or delta, decided by the
    /// ledger). The ranges lock is *not* held across the network I/O;
    /// the single-ticker discipline makes the copy-out/copy-back
    /// race-free.
    fn sync(&self, range: usize) -> bool {
        let (pair, mut tracker) = {
            let ranges = self.ranges.lock().expect("ranges lock poisoned");
            let st = &ranges[range];
            (st.pair.clone(), st.tracker.clone())
        };
        let ok = sync_pair(&pair, &mut tracker, self.cfg.request_timeout).is_ok();
        let mut ranges = self.ranges.lock().expect("ranges lock poisoned");
        let st = &mut ranges[range];
        st.tracker = tracker;
        if ok && st.phase == Phase::Bootstrapping {
            st.phase = Phase::Replicating;
        }
        ok
    }

    /// The final pre-swap delta for `range`: live export from the
    /// primary when it still answers, else a full bundle rebuilt from
    /// its data directory (every acknowledged write is in the WAL
    /// tail), else nothing — the standby is promoted at its last
    /// synced watermark. Returns the source actually used (`"live"`,
    /// `"data_dir"`, `"none"`). Public so the promotion-idempotency
    /// test can crash a supervisor exactly between this step and the
    /// ring swap.
    pub fn final_delta(&self, range: usize) -> &'static str {
        let (pair, mut tracker) = {
            let ranges = self.ranges.lock().expect("ranges lock poisoned");
            let st = &ranges[range];
            (st.pair.clone(), st.tracker.clone())
        };
        let request = self.cfg.request_timeout;
        let source = if sync_pair(&pair, &mut tracker, request).is_ok() {
            "live"
        } else {
            pair.primary_data_dir
                .as_deref()
                .and_then(|dir| {
                    let bundle = LightorService::bundle_from_dir(dir).ok()?;
                    let raw = serde_json::to_string(&bundle).ok()?;
                    ship_bundle(pair.standby, raw.as_bytes(), request).ok()?;
                    tracker.synced_seq =
                        Some(bundle.as_of_seq.max(tracker.synced_seq.unwrap_or(0)));
                    tracker.primary_seq = bundle.as_of_seq.max(tracker.primary_seq);
                    tracker.last_sync = Some(Instant::now());
                    Some("data_dir")
                })
                .unwrap_or("none")
        };
        let mut ranges = self.ranges.lock().expect("ranges lock poisoned");
        let st = &mut ranges[range];
        st.tracker = tracker;
        st.phase = Phase::Promoting;
        source
    }

    /// Swap the standby in for the primary on the router's ring. The
    /// desired member set is computed from a *fresh* observation
    /// taken here, not the one the plan saw: between planning and
    /// acting another promotion (this supervisor's or anyone else's)
    /// may have changed the ring, and re-deriving from the live ring
    /// is what keeps the swap idempotent — if the standby is already
    /// a member, there is nothing to POST. Returns the ring version
    /// that routes the standby. Public for the promotion-idempotency
    /// test.
    pub fn swap_ring(&self, range: usize) -> Result<u64, ClientError> {
        let pair = {
            let ranges = self.ranges.lock().expect("ranges lock poisoned");
            ranges[range].pair.clone()
        };
        let obs = self.observe()?;
        if obs.in_ring(pair.standby) {
            return Ok(obs.ring_version);
        }
        let desired: Vec<String> = obs
            .backends
            .iter()
            .map(|b| {
                if b.addr == pair.primary {
                    pair.standby.to_string()
                } else {
                    b.addr.to_string()
                }
            })
            .collect();
        let body =
            serde_json::to_string(&lightor_platform::wire::RingUpdateRequest { backends: desired })
                .expect("ring request serializes");
        let (applied, _): (RingUpdateResponse, _) = call_json(
            self.cfg.router,
            "POST",
            "/admin/ring",
            Some(body.as_bytes()),
            self.cfg.request_timeout,
        )?;
        Ok(applied.version)
    }

    /// Drive one full promotion for `range`: final delta, then ring
    /// swap, then bookkeeping. `false` leaves the range `promoting`
    /// for the next tick to resume.
    fn promote(&self, range: usize) -> bool {
        let source = self.final_delta(range);
        let version = match self.swap_ring(range) {
            Ok(v) => v,
            Err(_) => return false,
        };
        let pair = {
            let mut ranges = self.ranges.lock().expect("ranges lock poisoned");
            ranges[range].phase = Phase::Promoted;
            ranges[range].pair.clone()
        };
        self.promotions.fetch_add(1, Ordering::Relaxed);
        let mut last = self.last_promotion.lock().expect("promotion lock poisoned");
        *last = Some(PromotionRecord {
            dto: PromotionDto {
                from: pair.primary.to_string(),
                to: pair.standby.to_string(),
                ring_version: version,
                ms_ago: 0,
                final_delta_source: source.to_string(),
            },
            at: Instant::now(),
        });
        true
    }

    /// The current [`SupervisorStatsResponse`] — the body of
    /// `GET /stats`.
    pub fn stats(&self) -> SupervisorStatsResponse {
        let now = Instant::now();
        let ranges = self.ranges.lock().expect("ranges lock poisoned");
        let ranges = ranges
            .iter()
            .map(|st| ReplicaStatusDto {
                primary: st.pair.primary.to_string(),
                standby: st.pair.standby.to_string(),
                phase: st.phase.name().to_string(),
                synced_seq: st.tracker.synced_seq.unwrap_or(0),
                lag_ops: st.tracker.lag_ops(),
                lag_ms: st.tracker.lag_ms(now),
                deltas_shipped: st.tracker.deltas_shipped,
                bulk_syncs: st.tracker.bulk_syncs,
            })
            .collect();
        let last_promotion = self
            .last_promotion
            .lock()
            .expect("promotion lock poisoned")
            .as_ref()
            .map(|rec| PromotionDto {
                ms_ago: now.saturating_duration_since(rec.at).as_millis() as u64,
                ..rec.dto.clone()
            });
        SupervisorStatsResponse {
            ticks: self.ticks.load(Ordering::Relaxed),
            actions: self.actions.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            last_promotion,
            ranges,
        }
    }

    /// The phase of `range` — test/debug peek.
    pub fn phase(&self, range: usize) -> Phase {
        self.ranges.lock().expect("ranges lock poisoned")[range].phase
    }

    /// The ticker loop: tick, sleep jittered, until shutdown.
    fn run(self: &Arc<Self>) {
        while !self.shutdown.load(Ordering::SeqCst) {
            self.tick();
            let sleep = self.next_sleep();
            // Sleep in small slices so shutdown is prompt.
            let deadline = Instant::now() + sleep;
            while Instant::now() < deadline && !self.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

impl Handler for Supervisor {
    fn handle(&self, req: &Request, _metrics: &HttpMetrics) -> (RouteKey, Response) {
        let route = match resolve(&req.method, &req.path) {
            Ok(r) => r,
            Err(e) => return (RouteKey::Other, e.response()),
        };
        match route {
            Route::Healthz => (RouteKey::Healthz, Response::text(200, "ok\n")),
            Route::Stats => (RouteKey::Stats, Response::json(200, &self.stats())),
            _ => (
                RouteKey::Other,
                Response::error(
                    404,
                    "not_found",
                    "the supervisor serves /healthz and /stats only",
                ),
            ),
        }
    }
}

/// A running supervisor: an HTTP server for `/healthz` + `/stats`
/// plus the background reconciliation ticker.
pub struct SupervisorServer {
    server: Option<crate::server::HttpServer>,
    supervisor: Arc<Supervisor>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl SupervisorServer {
    /// Bind `addr` for observability and start reconciling `cfg`.
    pub fn bind(
        addr: impl std::net::ToSocketAddrs,
        cfg: SupervisorConfig,
        server_cfg: crate::server::ServerConfig,
    ) -> std::io::Result<Self> {
        let supervisor = Arc::new(Supervisor::new(cfg));
        let server = crate::server::HttpServer::bind_handler(addr, supervisor.clone(), server_cfg)?;
        let ticker = {
            let supervisor = supervisor.clone();
            std::thread::Builder::new()
                .name("supervisor-ticker".into())
                .spawn(move || supervisor.run())?
        };
        Ok(SupervisorServer {
            server: Some(server),
            supervisor,
            ticker: Some(ticker),
        })
    }

    /// The supervisor's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").local_addr()
    }

    /// The supervisor behind this server (stats peeks in tests).
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.supervisor
    }

    /// Graceful shutdown: stop the ticker, drain the HTTP server.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.supervisor.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

impl Drop for SupervisorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(p: u16, s: u16) -> ReplicaPair {
        ReplicaPair {
            primary: format!("127.0.0.1:{p}").parse().unwrap(),
            standby: format!("127.0.0.1:{s}").parse().unwrap(),
            primary_data_dir: None,
        }
    }

    fn observation(rows: &[(u16, &str)]) -> Observation {
        Observation {
            ring_version: 1,
            backends: rows
                .iter()
                .map(|&(port, health)| ObservedBackend {
                    addr: format!("127.0.0.1:{port}").parse().unwrap(),
                    health: health.to_string(),
                })
                .collect(),
        }
    }

    fn supervisor(pairs: Vec<ReplicaPair>) -> Supervisor {
        // The router address is never dialed by `plan` (pure).
        Supervisor::new(SupervisorConfig::new("127.0.0.1:1".parse().unwrap(), pairs))
    }

    #[test]
    fn plan_bootstraps_then_deltas_a_healthy_pair() {
        let sup = supervisor(vec![pair(7801, 7901)]);
        let obs = observation(&[(7801, "healthy"), (7802, "healthy")]);
        assert_eq!(sup.plan(&obs), vec![Action::BulkSync { range: 0 }]);

        // Pretend the bulk seed landed.
        {
            let mut ranges = sup.ranges.lock().unwrap();
            ranges[0].tracker.synced_seq = Some(40);
            ranges[0].phase = Phase::Replicating;
        }
        assert_eq!(sup.plan(&obs), vec![Action::DeltaSync { range: 0 }]);
    }

    #[test]
    fn plan_promotes_a_down_primary_but_not_a_suspect_one() {
        let sup = supervisor(vec![pair(7801, 7901)]);
        {
            let mut ranges = sup.ranges.lock().unwrap();
            ranges[0].tracker.synced_seq = Some(40);
            ranges[0].phase = Phase::Replicating;
        }

        let dead = observation(&[(7801, "down"), (7802, "healthy")]);
        assert_eq!(sup.plan(&dead), vec![Action::Promote { range: 0 }]);

        // A suspect primary is NOT promoted — the router still routes
        // to it.
        let wobbly = observation(&[(7801, "suspect"), (7802, "healthy")]);
        assert_eq!(sup.plan(&wobbly), vec![Action::DeltaSync { range: 0 }]);
    }

    #[test]
    fn plan_is_idempotent_across_a_supervisor_restart() {
        // A fresh supervisor (restart mid-failover) observing a ring
        // that already contains the standby must conclude "promoted",
        // never re-promote.
        let sup = supervisor(vec![pair(7801, 7901)]);
        let swapped = observation(&[(7901, "recovering"), (7802, "healthy")]);
        assert_eq!(sup.plan(&swapped), vec![Action::NotePromoted { range: 0 }]);
        assert!(sup.act(Action::NotePromoted { range: 0 }));
        assert_eq!(sup.phase(0), Phase::Promoted);
        // Terminal: nothing further is ever planned for the range.
        assert!(sup.plan(&swapped).is_empty());
    }

    #[test]
    fn plan_retires_a_range_whose_primary_left_the_ring() {
        let sup = supervisor(vec![pair(7801, 7901)]);
        // Neither primary nor standby in the ring: an operator
        // re-rung the cluster around the supervisor.
        let rerung = observation(&[(7803, "healthy"), (7804, "healthy")]);
        assert_eq!(sup.plan(&rerung), vec![Action::NoteRetired { range: 0 }]);
        assert!(sup.act(Action::NoteRetired { range: 0 }));
        assert_eq!(sup.phase(0), Phase::Retired);
        assert!(sup.plan(&rerung).is_empty());
    }

    #[test]
    fn plan_bounds_expensive_actions_and_prioritizes_promotions() {
        let sup = supervisor(vec![pair(7801, 7901), pair(7802, 7902), pair(7803, 7903)]);
        {
            let mut ranges = sup.ranges.lock().unwrap();
            for r in ranges.iter_mut() {
                r.tracker.synced_seq = Some(10);
                r.phase = Phase::Replicating;
            }
        }
        // Range 2's primary is down; ranges 0 and 1 want deltas. The
        // promote must not queue behind the syncs, and only 2 of the
        // 3 actions run this tick.
        let obs = observation(&[(7801, "healthy"), (7802, "healthy"), (7803, "down")]);
        let plan = sup.plan(&obs);
        assert_eq!(
            plan,
            vec![Action::Promote { range: 2 }, Action::DeltaSync { range: 0 }]
        );
    }

    #[test]
    fn phase_names_are_wire_stable() {
        assert_eq!(Phase::Bootstrapping.name(), "bootstrapping");
        assert_eq!(Phase::Replicating.name(), "replicating");
        assert_eq!(Phase::Promoting.name(), "promoting");
        assert_eq!(Phase::Promoted.name(), "promoted");
        assert_eq!(Phase::Retired.name(), "retired");
    }
}
