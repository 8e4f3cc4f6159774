//! Cluster mode: a health-checked routing tier in front of N
//! `lightor-serve` backends.
//!
//! The router owns no data. It consistent-hashes video ids onto
//! backends (`Ring`) and proxies the single-node route table
//! unchanged, so the browser extension talks to one address whether
//! LIGHTOR runs as one process or a sharded fleet:
//!
//! * `GET /video/{id}/dots`, `POST /video/{id}/rescore`,
//!   `POST /sessions` → the shard owning the video id (`/sessions`
//!   bodies carry the id; the router parses the upload to place it);
//! * `POST /admin/compact` → broadcast to every shard, responses
//!   summed;
//! * `GET /healthz`, `GET /stats` → answered by the router itself with
//!   per-shard health and aggregated backend stats
//!   ([`RouterHealthzResponse`], [`RouterStatsResponse`]);
//! * `POST /sessions/stream` → relayed chunk by chunk to the shard
//!   owning the video id on the body's first line;
//! * `POST /admin/ring` → swap in a new backend set without a restart
//!   (see below).
//!
//! Proxied answers are relayed verbatim. Every backend exchange (pooled
//! GET, fresh-connection write, streamed upload) reads its answer
//! through the client's one response reader, and the head and body it
//! kept go back to the caller byte for byte
//! ([`ClientResponse::into_wire`]).
//!
//! # Versioned ring
//!
//! The ring is an epoch (`RingEpoch`): version 1 is built at boot,
//! and every applied `POST /admin/ring` builds version N+1 from the
//! posted addresses. Addresses the router already knows carry their
//! `Backend` over — health state, connection pool, counters —
//! while new addresses are admitted in `Recovering` and must earn
//! `Healthy` through the ordinary state machine.
//!
//! Every request is routed by exactly one epoch, the current one: a
//! swap replaces the epoch wholesale and the outgoing one is dropped.
//! Reads and writes for a video both go to its one current owner, so
//! a read never falls back to an old owner whose copy stopped taking
//! writes at the cutover. When that owner is unreachable the read
//! fails (`502`, or `503` once its breaker trips) instead of serving
//! state older than an acknowledged write. Migrated state must
//! therefore be imported before the swap.
//!
//! # Failure policy
//!
//! Every proxied request runs under a deadline. Idempotent GETs may
//! retry on *transport* errors only (see
//! [`ClientError::is_transport`]), with jittered exponential backoff,
//! at most three attempts (see [`crate::retry`]) and a cluster-wide
//! [`RetryBudget`] so a down shard cannot amplify load. A GET that
//! finds its pooled connection already closed by the backend (the
//! backend drops a keep-alive connection after 5 s idle) is redone
//! once on a fresh connection; that is not a retry and not a failure.
//! Writes never retry: they go out
//! on a fresh connection (never a pooled keep-alive one, whose silent
//! death after the bytes left would make "did it apply?" ambiguous and
//! tempt a replay), so the common failure — connect refused, shard
//! down — happens *before* the request is sent and is provably
//! side-effect-free.
//!
//! Request outcomes and active `GET /healthz` probes both feed each
//! backend's [`BackendHealth`] state machine, which doubles as a
//! circuit breaker: enough consecutive failures trip the shard to
//! `down`, after which requests fast-fail `503` with a `Retry-After`
//! tracking the next probe, and probes back off exponentially.

use crate::client::{ClientError, ClientResponse, HttpClient};
use crate::health::{BackendHealth, HealthState};
use crate::http::{Request, Response};
use crate::metrics::{HttpMetrics, RouteKey};
use crate::retry::{backoff, RetryBudget, XorShift64, MAX_ATTEMPTS};
use crate::router::{resolve, Route};
use crate::server::{BodySource, Handler, OneChunk};
use lightor_platform::wire::{
    BackendHealthDto, BackendStatsDto, CompactResponse, RingUpdateRequest, RingUpdateResponse,
    RouterHealthzResponse, RouterStatsResponse, SessionUpload, StatsResponse, StreamAccepted,
    StreamBatchDto,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Router settings: the boot ring and the per-request deadline. The
/// rest of the router's tuning is constants of this module and of
/// [`crate::health`] and [`crate::retry`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Backend addresses, in ring order.
    pub backends: Vec<SocketAddr>,
    /// End-to-end deadline per proxied request (spans all retries).
    pub request_timeout: Duration,
}

impl ClusterConfig {
    /// Defaults for a given backend set.
    pub fn new(backends: Vec<SocketAddr>) -> Self {
        ClusterConfig {
            backends,
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// Virtual nodes per backend on the hash ring.
const VNODES: usize = 64;
/// TCP connect timeout towards a backend.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Deadline for one active health probe (connect included).
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// One backend's connection pool, health, and counters. Shared by
/// `Arc` across ring epochs: a ring swap that keeps an address keeps
/// its health history, pool, and counters too.
struct Backend {
    addr: SocketAddr,
    health: Mutex<BackendHealth>,
    /// One pooled keep-alive connection for GETs and stats sweeps.
    /// Writes bypass the pool on purpose (see the module docs).
    conn: Mutex<Option<HttpClient>>,
    proxied: AtomicU64,
    proxy_errors: AtomicU64,
    retries: AtomicU64,
}

impl Backend {
    fn with_health(addr: SocketAddr, health: BackendHealth) -> Self {
        Backend {
            addr,
            health: Mutex::new(health),
            conn: Mutex::new(None),
            proxied: AtomicU64::new(0),
            proxy_errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// A boot-ring backend, assumed healthy until proven otherwise.
    fn boot(addr: SocketAddr, now: Instant) -> Self {
        Self::with_health(addr, BackendHealth::new(now))
    }

    /// A backend first seen in a ring update: admitted in `Recovering`,
    /// it takes trial traffic but must earn `Healthy`.
    fn admitted(addr: SocketAddr, now: Instant) -> Self {
        Self::with_health(addr, BackendHealth::new_recovering(now))
    }
}

/// FNV-1a, for hashing backend addresses onto the ring.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer — scrambles sequential video ids so shard
/// assignment is uniform even for ids 0,1,2,…
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring: [`VNODES`] points per backend, sorted. A key
/// maps to the first point clockwise from its hash. Adding or removing
/// one backend moves only ~1/N of the key space.
struct Ring {
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

/// The default hash base for a ring slot, derived from the member's
/// address. A one-for-one substitution inherits the departed slot's
/// base instead of deriving a fresh one — see [`Cluster::apply_ring`].
fn addr_base(addr: &SocketAddr) -> u64 {
    fnv1a64(addr.to_string().as_bytes())
}

impl Ring {
    /// Build from addresses, each slot at its default base — what the
    /// boot ring does via [`Cluster::new`]; kept for tests that need a
    /// reference ring without a `Cluster`.
    #[cfg(test)]
    fn build(backends: &[SocketAddr]) -> Self {
        let bases: Vec<u64> = backends.iter().map(addr_base).collect();
        Self::build_from_bases(&bases)
    }

    /// Build from explicit per-slot hash bases. A slot's vnode points
    /// are a pure function of its base, so two rings sharing a base
    /// place that slot's points identically — the stability guarantee
    /// that makes an address substitution ownership-preserving.
    fn build_from_bases(bases: &[u64]) -> Self {
        let mut points = Vec::with_capacity(bases.len() * VNODES);
        for (idx, &base) in bases.iter().enumerate() {
            for v in 0..VNODES as u64 {
                points.push((splitmix64(base ^ splitmix64(v)), idx));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// The backend owning `video`.
    fn owner(&self, video: u64) -> usize {
        let key = splitmix64(video);
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }
}

/// One version of the cluster topology: the ring plus the backends it
/// indexes into, immutable once built. Swapped wholesale by
/// `POST /admin/ring`.
struct RingEpoch {
    /// Monotonic: the boot ring is 1, every applied update adds 1.
    version: u64,
    backends: Vec<Arc<Backend>>,
    /// Per-slot hash bases, parallel to `backends`. Carried so the
    /// next swap can keep a substituted slot's vnode points — and
    /// therefore its key range — exactly where the departed member's
    /// were.
    bases: Vec<u64>,
    ring: Ring,
}

/// The routing tier: versioned ring + per-backend state + retry
/// budget. Serves HTTP through its [`Handler`] impl (see
/// [`RouterServer`]).
pub struct Cluster {
    topo: RwLock<RingEpoch>,
    cfg: ClusterConfig,
    budget: RetryBudget,
    rng: Mutex<XorShift64>,
    requests: AtomicU64,
    errors_5xx: AtomicU64,
    shutdown: AtomicBool,
}

impl Cluster {
    /// Build the boot ring (version 1) and per-backend state. Panics
    /// on an empty backend list (a router with nothing behind it is a
    /// config bug).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(!cfg.backends.is_empty(), "cluster needs at least 1 backend");
        let now = Instant::now();
        let backends = cfg
            .backends
            .iter()
            .map(|&addr| Arc::new(Backend::boot(addr, now)))
            .collect();
        let bases: Vec<u64> = cfg.backends.iter().map(addr_base).collect();
        let ring = Ring::build_from_bases(&bases);
        Cluster {
            topo: RwLock::new(RingEpoch {
                version: 1,
                backends,
                bases,
                ring,
            }),
            budget: RetryBudget::default(),
            rng: Mutex::new(XorShift64::new(0x1D0_71E5)),
            requests: AtomicU64::new(0),
            errors_5xx: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            cfg,
        }
    }

    fn topo(&self) -> std::sync::RwLockReadGuard<'_, RingEpoch> {
        self.topo.read().expect("topology lock poisoned")
    }

    /// The current ring's version (boot = 1; `POST /admin/ring` bumps).
    pub fn ring_version(&self) -> u64 {
        self.topo().version
    }

    /// Index of the backend owning `video` in the current epoch
    /// (exposed for tests and the chaos harness, which must know which
    /// shard to kill).
    pub fn shard_for(&self, video: u64) -> usize {
        self.topo().ring.owner(video)
    }

    /// Address of backend `idx` in the current epoch.
    pub fn backend_addr(&self, idx: usize) -> SocketAddr {
        self.topo().backends[idx].addr
    }

    /// Current health state of backend `idx` in the current epoch.
    pub fn backend_health(&self, idx: usize) -> HealthState {
        let b = self.topo().backends[idx].clone();
        let health = self.lock_health(&b);
        health.state()
    }

    /// Swap in a new ring built from `addrs` (version = current + 1).
    /// Known addresses keep their `Backend` — health, pool, counters
    /// — across the swap; new addresses are admitted in `Recovering`.
    /// The outgoing epoch is dropped: from the moment this returns,
    /// every request routes by the new ring alone, so a range must be
    /// imported into its new owner before the swap.
    ///
    /// **Substitutions preserve ownership.** An address already in the
    /// current epoch keeps the hash base (and so the exact key range) it
    /// had there, and a brand-new address that one-for-one replaces a
    /// single departed member inherits the departed slot's base. That
    /// is the failover/replacement contract: a standby promoted over a
    /// dead primary — or a restored shard swapped in for the process
    /// it replaces — takes over *exactly* the old member's videos.
    /// Without it, rehashing the new address would silently strand a
    /// slice of the dead shard's acknowledged state on survivors that
    /// never received it. Any other membership change (growing,
    /// shrinking, multiple simultaneous replacements) hashes new
    /// addresses fresh and re-shards as consistent hashing normally
    /// does.
    pub fn apply_ring(&self, addrs: Vec<SocketAddr>) -> Result<RingUpdateResponse, String> {
        if addrs.is_empty() {
            return Err("a ring needs at least 1 backend".into());
        }
        let mut dedup = addrs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != addrs.len() {
            return Err("duplicate backend address in ring update".into());
        }
        let now = Instant::now();
        let mut topo = self.topo.write().expect("topology lock poisoned");
        // Known addresses keep their `Backend` and slot base; a single
        // unknown address that one-for-one replaces a single departed
        // member inherits the departed slot's base (see the method
        // docs); any other newcomer is admitted and hashed fresh.
        let known: std::collections::HashMap<SocketAddr, (Arc<Backend>, u64)> = topo
            .backends
            .iter()
            .zip(&topo.bases)
            .map(|(b, &base)| (b.addr, (b.clone(), base)))
            .collect();
        let departed: Vec<u64> = known
            .iter()
            .filter(|(addr, _)| !addrs.contains(addr))
            .map(|(_, &(_, base))| base)
            .collect();
        let unknown = addrs.iter().filter(|a| !known.contains_key(a)).count();
        let inherited = (unknown == 1 && departed.len() == 1).then(|| departed[0]);
        let (backends, bases): (Vec<Arc<Backend>>, Vec<u64>) = addrs
            .iter()
            .map(|&addr| match known.get(&addr) {
                Some((b, base)) => (b.clone(), *base),
                None => (
                    Arc::new(Backend::admitted(addr, now)),
                    inherited.unwrap_or_else(|| addr_base(&addr)),
                ),
            })
            .unzip();
        let ring = Ring::build_from_bases(&bases);
        let version = topo.version + 1;
        *topo = RingEpoch {
            version,
            backends,
            bases,
            ring,
        };
        Ok(RingUpdateResponse {
            version,
            backends: addrs.iter().map(ToString::to_string).collect(),
        })
    }

    /// The backend owning `video` in the current epoch — the one
    /// lookup every proxied per-video route goes through.
    fn owner(&self, video: u64) -> Arc<Backend> {
        let topo = self.topo();
        topo.backends[topo.ring.owner(video)].clone()
    }

    fn lock_health<'a>(&self, b: &'a Backend) -> std::sync::MutexGuard<'a, BackendHealth> {
        b.health.lock().expect("health lock poisoned")
    }

    fn mark_success(&self, b: &Backend) {
        self.lock_health(b).record_success(Instant::now());
    }

    fn mark_failure(&self, b: &Backend, probe: bool) {
        // Lock order: rng before health, everywhere.
        let mut rng = self.rng.lock().expect("rng lock poisoned");
        let mut h = self.lock_health(b);
        if probe {
            h.record_probe_failure(Instant::now(), &mut rng);
        } else {
            h.record_failure(Instant::now(), &mut rng);
        }
    }

    /// `Some(503)` when the shard is down; `None` when it may be tried.
    fn gate(&self, b: &Backend) -> Option<Response> {
        let h = self.lock_health(b);
        if h.is_available() {
            return None;
        }
        let secs = h.retry_after_secs(Instant::now());
        Some(
            Response::error(503, "shard_down", "the shard owning this video is down")
                .with_header("Retry-After", secs.to_string()),
        )
    }

    /// One proxied exchange on the pooled connection, or on a fresh one
    /// when the pool is empty or its connection turns out closed. The
    /// connection goes back to the pool only after a fully read,
    /// keep-alive response; every error path drops it.
    fn exchange(
        &self,
        b: &Backend,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        deadline: Instant,
    ) -> Result<ClientResponse, ClientError> {
        let pooled = b.conn.lock().expect("conn lock poisoned").take();
        let reused = match pooled {
            Some(mut conn) => match conn.request_deadline(method, path, body, deadline) {
                Ok(resp) => Some((conn, resp)),
                // The backend closes a connection that sat idle past
                // its keep-alive timeout, so a pooled one may be dead
                // before the request left. A failure before any
                // response head then says nothing about the backend:
                // redo the exchange once on a fresh connection.
                Err(ClientError::Io(_) | ClientError::ClosedBeforeHead) => None,
                Err(e) => return Err(e),
            },
            None => None,
        };
        let (conn, resp) = match reused {
            Some(done) => done,
            None => {
                let mut conn =
                    HttpClient::connect_with(b.addr, CONNECT_TIMEOUT, self.cfg.request_timeout)?;
                let resp = conn.request_deadline(method, path, body, deadline)?;
                (conn, resp)
            }
        };
        if !resp.closed() {
            let mut slot = b.conn.lock().expect("conn lock poisoned");
            if slot.is_none() {
                *slot = Some(conn);
            }
        }
        Ok(resp)
    }

    /// Proxy an idempotent GET to `b`: pooled connection, per-request
    /// deadline, budgeted jittered retries on transport errors,
    /// verbatim relay of the backend's bytes. A parsed `503` carrying
    /// `Retry-After` is also retried — after waiting exactly what the
    /// backend asked for, budget permitting, instead of hammering the
    /// next blind backoff tick.
    fn proxy_get(&self, b: &Backend, path: &str) -> Response {
        if let Some(resp) = self.gate(b) {
            return resp;
        }
        b.proxied.fetch_add(1, Ordering::Relaxed);
        self.budget.record_attempt();
        let deadline = Instant::now() + self.cfg.request_timeout;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.exchange(b, "GET", path, None, deadline) {
                Ok(resp) => {
                    self.mark_success(b);
                    if resp.status == 503 && attempt < MAX_ATTEMPTS {
                        if let Some(wait) = resp.retry_after() {
                            if Instant::now() + wait < deadline && self.budget.try_withdraw() {
                                b.retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(wait);
                                continue;
                            }
                        }
                    }
                    return Response::relay(resp.status, resp.into_wire());
                }
                Err(e) => {
                    self.mark_failure(b, false);
                    let backoff = {
                        let mut rng = self.rng.lock().expect("rng lock poisoned");
                        backoff(attempt, &mut rng)
                    };
                    let out_of_time = Instant::now() + backoff >= deadline;
                    if !e.is_transport()
                        || attempt >= MAX_ATTEMPTS
                        || out_of_time
                        || self.lock_health(b).state() == HealthState::Down
                        || !self.budget.try_withdraw()
                    {
                        b.proxy_errors.fetch_add(1, Ordering::Relaxed);
                        return Response::error(502, "bad_gateway", &e.to_string());
                    }
                    b.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    /// Route a write to the owner of `video`.
    fn route_write(&self, video: u64, path: &str, body: &[u8]) -> Response {
        self.proxy_write(&self.owner(video), path, body)
    }

    /// Open a fresh write connection to `b` (see the module docs):
    /// the breaker gate, the attempt counters, then the connect. `Err`
    /// carries the ready client-facing failure (shard down, bad
    /// gateway).
    fn open_write(&self, b: &Backend) -> Result<HttpClient, Response> {
        if let Some(resp) = self.gate(b) {
            return Err(resp);
        }
        b.proxied.fetch_add(1, Ordering::Relaxed);
        self.budget.record_attempt();
        HttpClient::connect_with(b.addr, CONNECT_TIMEOUT, self.cfg.request_timeout)
            .map_err(|e| self.write_failed(b, &e))
    }

    /// Account a failed write exchange with `b` and build its `502`.
    fn write_failed(&self, b: &Backend, e: &ClientError) -> Response {
        self.mark_failure(b, false);
        b.proxy_errors.fetch_add(1, Ordering::Relaxed);
        Response::error(502, "bad_gateway", &e.to_string())
    }

    /// Proxy a write to `b`: fresh connection, one attempt, never
    /// retried (see the module docs). `Err` carries the ready
    /// client-facing failure (shard down, bad gateway).
    fn write_once(&self, b: &Backend, path: &str, body: &[u8]) -> Result<ClientResponse, Response> {
        let deadline = Instant::now() + self.cfg.request_timeout;
        let mut conn = self.open_write(b)?;
        let resp = conn
            .request_deadline("POST", path, Some(body), deadline)
            .map_err(|e| self.write_failed(b, &e))?;
        self.mark_success(b);
        Ok(resp)
    }

    /// [`Cluster::write_once`] relayed straight to the client.
    fn proxy_write(&self, b: &Backend, path: &str, body: &[u8]) -> Response {
        match self.write_once(b, path, body) {
            Ok(resp) => Response::relay(resp.status, resp.into_wire()),
            Err(resp) => resp,
        }
    }

    /// `POST /sessions`: the video id lives in the body, so parse the
    /// upload (which also rejects garbage before it crosses the wire
    /// again) and route to the owning shard with the original bytes.
    fn route_session(&self, body: &[u8]) -> Response {
        let upload: SessionUpload = match serde_json::from_slice(body) {
            Ok(u) => u,
            Err(_) => return Response::error(400, "bad_json", "body must be a SessionUpload"),
        };
        self.route_write(upload.video, "/sessions", body)
    }

    /// Relay a streamed NDJSON upload to the owning shard chunk by
    /// chunk. The video id lives on the first line, so the router
    /// buffers only up to the first non-blank newline (bounded), picks
    /// the owner, then forwards the buffered prefix and every later
    /// chunk as it arrives — the hop never holds the whole stream.
    /// Like every write it goes out on a fresh connection and never
    /// retries; a backend that answers early (mid-stream freeze `503`,
    /// budget `422`) and stops reading has that early response relayed
    /// instead of a blind `502`.
    fn relay_session_stream(&self, body: &mut dyn BodySource) -> Response {
        const MAX_FIRST_LINE: usize = 256 * 1024;
        let mut prefix: Vec<u8> = Vec::new();
        let mut ended = false;
        let mut scan = 0usize; // start of the line being assembled
        let (line_start, line_end) = loop {
            if let Some(pos) = prefix[scan..].iter().position(|&b| b == b'\n') {
                let (s, e) = (scan, scan + pos);
                if !prefix[s..e].trim_ascii().is_empty() {
                    break (s, e);
                }
                scan = e + 1;
                continue;
            }
            if ended {
                break (scan, prefix.len());
            }
            if prefix.len() - scan > MAX_FIRST_LINE {
                return Response::error(
                    400,
                    "line_too_long",
                    "first NDJSON line exceeds 256 KiB; the router cannot route it",
                );
            }
            match body.next_chunk() {
                Ok(Some(data)) => prefix.extend_from_slice(&data),
                Ok(None) => ended = true,
                Err(e) => return e.response(),
            }
        };
        let first_line = prefix[line_start..line_end].trim_ascii();
        if first_line.is_empty() {
            // Nothing but blank lines: same zero-line ack a backend
            // would give, no shard involved.
            return Response::json(200, &StreamAccepted::default());
        }
        let batch: StreamBatchDto = match serde_json::from_slice(first_line) {
            Ok(b) => b,
            Err(_) => {
                return Response::error(400, "bad_json", "first line must be a StreamBatchDto")
            }
        };

        let owner = self.owner(batch.video);
        let mut conn = match self.open_write(&owner) {
            Ok(conn) => conn,
            Err(resp) => return resp,
        };
        let mut send_result = conn
            .start_chunked("POST", "/sessions/stream")
            .and_then(|()| conn.send_chunk(&prefix));
        if send_result.is_ok() && !ended {
            loop {
                match body.next_chunk() {
                    Ok(Some(data)) => {
                        if let Err(e) = conn.send_chunk(&data) {
                            send_result = Err(e);
                            break;
                        }
                    }
                    Ok(None) => break,
                    // The *client* side failed; dropping `conn` cuts
                    // the backend stream, which loses only what was
                    // never acknowledged.
                    Err(e) => return e.response(),
                }
            }
        }
        let deadline = Instant::now() + self.cfg.request_timeout;
        let read = match send_result {
            Ok(()) => conn.finish_chunked(deadline),
            // The backend stopped reading mid-send: it usually
            // answered early (frozen video, blown error budget). Relay
            // that answer if one is there.
            Err(_) => conn.read_early(deadline),
        };
        match read {
            Ok(resp) => {
                self.mark_success(&owner);
                Response::relay(resp.status, resp.into_wire())
            }
            Err(e) => self.write_failed(&owner, &e),
        }
    }

    /// `POST /admin/ring`: parse and apply a ring update, without a
    /// restart. Bad addresses or an empty/duplicated set answer 400;
    /// nothing about the running topology changes on a rejected update.
    fn handle_ring(&self, body: &[u8]) -> Response {
        let req: RingUpdateRequest = match serde_json::from_slice(body) {
            Ok(r) => r,
            Err(_) => return Response::error(400, "bad_json", "body must be a RingUpdateRequest"),
        };
        let mut addrs = Vec::with_capacity(req.backends.len());
        for s in &req.backends {
            match s.parse::<SocketAddr>() {
                Ok(a) => addrs.push(a),
                Err(_) => {
                    return Response::error(
                        400,
                        "bad_addr",
                        &format!("not a host:port backend address: {s:?}"),
                    )
                }
            }
        }
        match self.apply_ring(addrs) {
            Ok(applied) => Response::json(200, &applied),
            Err(msg) => Response::error(400, "bad_ring", &msg),
        }
    }

    /// `POST /admin/compact`: broadcast to every shard; sums the
    /// per-shard results. Any failed shard fails the broadcast (the
    /// caller must know compaction did not complete everywhere).
    fn broadcast_compact(&self) -> Response {
        let mut total = CompactResponse {
            reclaimed_bytes: 0,
            dropped_records: 0,
            live_records: 0,
        };
        let backends = self.topo().backends.to_vec();
        for b in &backends {
            let resp = match self.write_once(b, "/admin/compact", &[]) {
                Ok(resp) => resp,
                Err(resp) => return resp,
            };
            if resp.status != 200 {
                return Response::relay(resp.status, resp.into_wire());
            }
            match resp.json::<CompactResponse>() {
                Ok(r) => {
                    total.reclaimed_bytes += r.reclaimed_bytes;
                    total.dropped_records += r.dropped_records;
                    total.live_records += r.live_records;
                }
                Err(_) => {
                    return Response::error(
                        502,
                        "bad_gateway",
                        "backend returned an unparseable compact response",
                    )
                }
            }
        }
        Response::json(200, &total)
    }

    /// Router `GET /healthz`: per-shard health, ring version, overall
    /// status.
    fn healthz(&self) -> Response {
        let (ring_version, snapshot) = {
            let topo = self.topo();
            (topo.version, topo.backends.to_vec())
        };
        let now = Instant::now();
        let backends: Vec<BackendHealthDto> = snapshot
            .iter()
            .map(|b| {
                let h = self.lock_health(b);
                BackendHealthDto {
                    addr: b.addr.to_string(),
                    health: h.state().name().to_string(),
                    last_transition_ms: h.last_transition_ms(now),
                }
            })
            .collect();
        let all_healthy = backends.iter().all(|b| b.health == "healthy");
        Response::json(
            200,
            &RouterHealthzResponse {
                status: if all_healthy { "ok" } else { "degraded" }.to_string(),
                ring_version,
                backends,
            },
        )
    }

    /// Router `GET /stats`: router counters plus a best-effort sweep of
    /// each live backend's own `/stats`. The sweep never fails the
    /// aggregate: a shard that is down (or whose sweep request failed)
    /// reports `unreachable: true` with `stats: null`, and every other
    /// row is still real.
    fn stats(&self, metrics: &HttpMetrics) -> Response {
        let (ring_version, snapshot) = {
            let topo = self.topo();
            (topo.version, topo.backends.to_vec())
        };
        let backends: Vec<BackendStatsDto> = snapshot
            .iter()
            .map(|b| {
                let (health, available) = {
                    let h = self.lock_health(b);
                    (h.state().name().to_string(), h.is_available())
                };
                let stats: Option<StatsResponse> = if available {
                    let deadline = Instant::now() + PROBE_TIMEOUT;
                    self.exchange(b, "GET", "/stats", None, deadline)
                        .ok()
                        .filter(|r| r.status == 200)
                        .and_then(|r| r.json().ok())
                } else {
                    None
                };
                let h = self.lock_health(b);
                BackendStatsDto {
                    addr: b.addr.to_string(),
                    health,
                    proxied: b.proxied.load(Ordering::Relaxed),
                    proxy_errors: b.proxy_errors.load(Ordering::Relaxed),
                    retries: b.retries.load(Ordering::Relaxed),
                    probe_failures: h.probe_failures(),
                    breaker_trips: h.breaker_trips(),
                    unreachable: stats.is_none(),
                    stats,
                }
            })
            .collect();
        Response::json(
            200,
            &RouterStatsResponse {
                requests: self.requests.load(Ordering::Relaxed),
                errors_5xx: self.errors_5xx.load(Ordering::Relaxed),
                accept_errors: metrics.accept_errors(),
                ring_version,
                retries_denied: self.budget.exhausted_count(),
                backends,
            },
        )
    }

    /// One probe sweep: actively probe every backend of the current
    /// epoch whose probe is due. A backend the last swap dropped is no
    /// longer routed to, so it is no longer watched either. Returns
    /// how many probes ran.
    fn probe_due_backends(&self) -> usize {
        let mut probed = 0;
        let backends = self.topo().backends.to_vec();
        for b in &backends {
            if !self.lock_health(b).probe_due(Instant::now()) {
                continue;
            }
            probed += 1;
            let deadline = Instant::now() + PROBE_TIMEOUT;
            let ok = HttpClient::connect_with(b.addr, PROBE_TIMEOUT, PROBE_TIMEOUT)
                .and_then(|mut conn| conn.request_deadline("GET", "/healthz", None, deadline))
                .map(|resp| resp.status == 200)
                .unwrap_or(false);
            if ok {
                self.mark_success(b);
            } else {
                self.mark_failure(b, true);
            }
        }
        probed
    }

    /// The prober loop: sweep due probes until shutdown.
    fn probe_loop(self: &Arc<Self>) {
        while !self.shutdown.load(Ordering::SeqCst) {
            self.probe_due_backends();
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Handler for Cluster {
    fn handle(&self, req: &Request, metrics: &HttpMetrics) -> (RouteKey, Response) {
        let route = resolve(&req.method, &req.path);
        if route == Ok(Route::SessionsStream) {
            // An in-process caller with a buffered body; the server
            // streams every socket request on this route.
            return self.handle_stream(req, &mut OneChunk::new(&req.body), metrics);
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let route = match route {
            Ok(r) => r,
            Err(e) => return (RouteKey::Other, e.response()),
        };
        let response = match route {
            Route::Healthz => self.healthz(),
            Route::Stats => self.stats(metrics),
            Route::Dots(id) => self.proxy_get(&self.owner(id), &req.path),
            Route::Rescore(id) => self.route_write(id, &req.path, &req.body),
            Route::Sessions => self.route_session(&req.body),
            Route::SessionsStream => unreachable!("answered by handle_stream above"),
            Route::Compact => self.broadcast_compact(),
            Route::Ring => self.handle_ring(&req.body),
            // Bundles move between a migration driver and a specific
            // shard; proxying them through the ring would re-route by
            // video id and defeat the point.
            Route::Export | Route::Import => Response::error(
                404,
                "not_found",
                "export/import are backend routes; talk to the shard directly",
            ),
        };
        if response.status >= 500 {
            self.errors_5xx.fetch_add(1, Ordering::Relaxed);
        }
        (route.key(), response)
    }

    fn wants_stream(&self, method: &str, path: &str) -> bool {
        matches!(resolve(method, path), Ok(Route::SessionsStream))
    }

    fn handle_stream(
        &self,
        _head: &Request,
        body: &mut dyn BodySource,
        metrics: &HttpMetrics,
    ) -> (RouteKey, Response) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        metrics.stream.stream_opened();
        let response = self.relay_session_stream(body);
        metrics.stream.stream_completed();
        if response.status >= 500 {
            self.errors_5xx.fetch_add(1, Ordering::Relaxed);
        }
        (RouteKey::SessionsStream, response)
    }
}

/// A running router: an [`HttpServer`](crate::server::HttpServer) serving a [`Cluster`] handler,
/// plus the background prober thread.
pub struct RouterServer {
    server: Option<crate::server::HttpServer>,
    cluster: Arc<Cluster>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl RouterServer {
    /// Bind `addr` and start routing to `cfg.backends`.
    pub fn bind(
        addr: impl std::net::ToSocketAddrs,
        cfg: ClusterConfig,
        server_cfg: crate::server::ServerConfig,
    ) -> std::io::Result<Self> {
        let cluster = Arc::new(Cluster::new(cfg));
        let server = crate::server::HttpServer::bind_handler(addr, cluster.clone(), server_cfg)?;
        let prober = {
            let cluster = cluster.clone();
            std::thread::Builder::new()
                .name("router-prober".into())
                .spawn(move || cluster.probe_loop())?
        };
        Ok(RouterServer {
            server: Some(server),
            cluster,
            prober: Some(prober),
        })
    }

    /// The router's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").local_addr()
    }

    /// The cluster behind this server (ring lookups, health peeks).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Graceful shutdown: stop the prober, drain the HTTP server.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.cluster.shutdown.store(true, Ordering::SeqCst);
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 7900 + i).parse().unwrap())
            .collect()
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let ring = Ring::build(&addrs(3));
        assert_eq!(ring.points.len(), 3 * VNODES);
        for video in 0..1000u64 {
            let a = ring.owner(video);
            assert_eq!(a, ring.owner(video), "owner must be stable");
            assert!(a < 3);
        }
    }

    #[test]
    fn ring_spreads_keys_across_backends() {
        let ring = Ring::build(&addrs(3));
        let mut counts = [0usize; 3];
        for video in 0..3000u64 {
            counts[ring.owner(video)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Perfect balance is 1000; vnode hashing should land well
            // within 2:1 of it.
            assert!((500..=2000).contains(&c), "backend {i} owns {c} of 3000");
        }
    }

    #[test]
    fn ring_reshuffles_minimally_when_a_backend_joins() {
        let three = Ring::build(&addrs(3));
        let four = Ring::build(&addrs(4));
        let moved = (0..3000u64)
            .filter(|&v| {
                let before = three.owner(v);
                let after = four.owner(v);
                before != after && after != 3
            })
            .count();
        // Keys may move *to* the new backend (~1/4 of them); moving
        // between the surviving three means the hash is not consistent.
        assert!(moved < 150, "{moved} of 3000 keys moved between survivors");
    }

    #[test]
    fn cluster_routes_videos_like_the_ring() {
        let cluster = Cluster::new(ClusterConfig::new(addrs(3)));
        let ring = Ring::build(&addrs(3));
        for video in 0..100 {
            assert_eq!(cluster.shard_for(video), ring.owner(video));
        }
        assert_eq!(cluster.backend_addr(0), addrs(3)[0]);
        assert_eq!(cluster.backend_health(0), HealthState::Healthy);
    }

    #[test]
    #[should_panic(expected = "at least 1 backend")]
    fn empty_backend_list_is_a_config_bug() {
        let _ = Cluster::new(ClusterConfig::new(Vec::new()));
    }

    #[test]
    fn ring_updates_bump_the_version_and_admit_new_backends_recovering() {
        let cluster = Cluster::new(ClusterConfig::new(addrs(2)));
        assert_eq!(cluster.ring_version(), 1, "boot ring is version 1");
        assert_eq!(cluster.backend_health(0), HealthState::Healthy);

        let applied = cluster.apply_ring(addrs(3)).unwrap();
        assert_eq!(applied.version, 2);
        assert_eq!(applied.backends.len(), 3);
        assert_eq!(cluster.ring_version(), 2);
        // Known addresses carried their health over; the new one is on
        // trial.
        assert_eq!(cluster.backend_health(0), HealthState::Healthy);
        assert_eq!(cluster.backend_health(1), HealthState::Healthy);
        assert_eq!(cluster.backend_health(2), HealthState::Recovering);
        // The current ring routes exactly like a fresh 3-backend ring.
        let fresh = Ring::build(&addrs(3));
        for video in 0..200 {
            assert_eq!(cluster.shard_for(video), fresh.owner(video));
        }
    }

    #[test]
    fn one_for_one_substitution_preserves_every_ownership() {
        // The promotion/replacement contract: swapping a single
        // address hands the newcomer exactly the departed member's
        // key range — no key may move between survivors, and none may
        // land anywhere but the substitute.
        let old = addrs(3);
        let cluster = Cluster::new(ClusterConfig::new(old.clone()));
        let before: Vec<usize> = (0..3000u64).map(|v| cluster.shard_for(v)).collect();

        let replaced = 1usize;
        let mut new_ring = old.clone();
        new_ring[replaced] = "10.9.8.7:6543".parse().unwrap();
        cluster.apply_ring(new_ring.clone()).unwrap();
        for (v, &owner_before) in before.iter().enumerate() {
            let owner_after = cluster.shard_for(v as u64);
            assert_eq!(
                new_ring[owner_after],
                if owner_before == replaced {
                    new_ring[replaced]
                } else {
                    old[owner_before]
                },
                "video {v} moved off its slot across a substitution"
            );
        }

        // Substitutions chain: replacing the substitute hands the same
        // range over again (the inherited base propagates).
        let mut third = new_ring.clone();
        third[replaced] = "10.9.8.7:6544".parse().unwrap();
        cluster.apply_ring(third.clone()).unwrap();
        for (v, &owner_before) in before.iter().enumerate() {
            let owner_after = cluster.shard_for(v as u64);
            assert_eq!(
                third[owner_after],
                if owner_before == replaced {
                    third[replaced]
                } else {
                    old[owner_before]
                },
                "video {v} moved off its slot across a chained substitution"
            );
        }
    }

    #[test]
    fn bad_ring_updates_change_nothing() {
        let cluster = Cluster::new(ClusterConfig::new(addrs(2)));
        assert!(cluster.apply_ring(Vec::new()).is_err());
        let mut dup = addrs(2);
        dup.push(dup[0]);
        assert!(cluster.apply_ring(dup).is_err());
        assert_eq!(cluster.ring_version(), 1, "rejected updates don't bump");
    }
}
