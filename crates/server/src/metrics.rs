//! Per-route serving counters, merged into `GET /stats`.
//!
//! Lock-free: each route keeps four atomics (requests, errors,
//! cumulative latency, max latency), bumped once per response on the
//! worker thread and snapshotted into [`RouteStatsDto`] rows when
//! `/stats` is served. Unroutable traffic (404s, parse errors, 503
//! load-sheds) lands in the `"other"` bucket so nothing is invisible.

use lightor_platform::wire::RouteStatsDto;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The fixed route set the server exposes (plus the catch-all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKey {
    /// `GET /healthz`
    Healthz = 0,
    /// `GET /video/{id}/dots`
    Dots = 1,
    /// `POST /video/{id}/rescore`
    Rescore = 2,
    /// `GET /stats`
    Stats = 3,
    /// `POST /admin/compact`
    Compact = 4,
    /// `POST /admin/export`
    Export = 5,
    /// `POST /admin/import`
    Import = 6,
    /// `POST /admin/ring`
    Ring = 7,
    /// `POST /sessions/stream`, and `POST /sessions` (one route)
    SessionsStream = 8,
    /// Anything unroutable: 404/405, parse errors, load-sheds.
    Other = 9,
}

/// Route templates, indexed by [`RouteKey`].
pub const ROUTE_NAMES: [&str; 10] = [
    "GET /healthz",
    "GET /video/{id}/dots",
    "POST /video/{id}/rescore",
    "GET /stats",
    "POST /admin/compact",
    "POST /admin/export",
    "POST /admin/import",
    "POST /admin/ring",
    "POST /sessions/stream",
    "other",
];

#[derive(Default)]
struct RouteCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_total_us: AtomicU64,
    latency_max_us: AtomicU64,
}

/// Session-ingest counters (`POST /sessions[/stream]`), alongside the
/// per-route request rows: NDJSON lines accepted/rejected, batches
/// folded into refinement state vs recognized as replays, and the
/// open-stream gauge (`opened − completed`).
#[derive(Default)]
pub struct StreamMetrics {
    lines_accepted: AtomicU64,
    lines_rejected: AtomicU64,
    batches_folded: AtomicU64,
    batches_replayed: AtomicU64,
    streams_opened: AtomicU64,
    streams_completed: AtomicU64,
}

impl StreamMetrics {
    /// A stream began (the head was dispatched to the NDJSON handler).
    pub fn stream_opened(&self) {
        self.streams_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A stream finished, successfully or not.
    pub fn stream_completed(&self) {
        self.streams_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one stream's line/batch outcomes in bulk.
    pub fn add_lines(&self, accepted: u64, rejected: u64, folded: u64, replayed: u64) {
        self.lines_accepted.fetch_add(accepted, Ordering::Relaxed);
        self.lines_rejected.fetch_add(rejected, Ordering::Relaxed);
        self.batches_folded.fetch_add(folded, Ordering::Relaxed);
        self.batches_replayed.fetch_add(replayed, Ordering::Relaxed);
    }

    /// NDJSON lines accepted so far.
    pub fn lines_accepted(&self) -> u64 {
        self.lines_accepted.load(Ordering::Relaxed)
    }

    /// NDJSON lines rejected so far (typed per-line 422s).
    pub fn lines_rejected(&self) -> u64 {
        self.lines_rejected.load(Ordering::Relaxed)
    }

    /// Batches folded into refinement state so far.
    pub fn batches_folded(&self) -> u64 {
        self.batches_folded.load(Ordering::Relaxed)
    }

    /// Batches recognized as idempotent replays so far.
    pub fn batches_replayed(&self) -> u64 {
        self.batches_replayed.load(Ordering::Relaxed)
    }

    /// Streams currently open (opened − completed).
    pub fn open_streams(&self) -> u64 {
        self.streams_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.streams_completed.load(Ordering::Relaxed))
    }
}

/// All routes' counters; shared across worker threads.
#[derive(Default)]
pub struct HttpMetrics {
    routes: [RouteCounters; ROUTE_NAMES.len()],
    accept_errors: AtomicU64,
    /// Streamed-ingest counters, surfaced in `GET /stats`.
    pub stream: StreamMetrics,
}

impl HttpMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one failed `accept()` on the listener. Accept failures
    /// (EMFILE, ENFILE, …) never reach a route, so without this counter
    /// they would be invisible in `/stats`.
    pub fn record_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Failed `accept()` calls so far.
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Record one response on `route` with its status and handler latency.
    pub fn record(&self, route: RouteKey, status: u16, elapsed: Duration) {
        let c = &self.routes[route as usize];
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        c.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        c.latency_total_us.fetch_add(us, Ordering::Relaxed);
        c.latency_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Requests recorded on one route so far.
    pub fn requests(&self, route: RouteKey) -> u64 {
        self.routes[route as usize].requests.load(Ordering::Relaxed)
    }

    /// One [`RouteStatsDto`] row per route, in [`ROUTE_NAMES`] order.
    pub fn snapshot(&self) -> Vec<RouteStatsDto> {
        self.routes
            .iter()
            .zip(ROUTE_NAMES)
            .map(|(c, route)| RouteStatsDto {
                route: route.to_string(),
                requests: c.requests.load(Ordering::Relaxed),
                errors: c.errors.load(Ordering::Relaxed),
                latency_total_us: c.latency_total_us.load(Ordering::Relaxed),
                latency_max_us: c.latency_max_us.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_per_route() {
        let m = HttpMetrics::new();
        m.record(RouteKey::Dots, 200, Duration::from_micros(120));
        m.record(RouteKey::Dots, 404, Duration::from_micros(80));
        m.record(RouteKey::SessionsStream, 200, Duration::from_micros(300));
        let snap = m.snapshot();
        assert_eq!(snap.len(), ROUTE_NAMES.len());
        let dots = &snap[RouteKey::Dots as usize];
        assert_eq!(dots.route, "GET /video/{id}/dots");
        assert_eq!(dots.requests, 2);
        assert_eq!(dots.errors, 1);
        assert_eq!(dots.latency_total_us, 200);
        assert_eq!(dots.latency_max_us, 120);
        assert_eq!(snap[RouteKey::SessionsStream as usize].requests, 1);
        assert_eq!(snap[RouteKey::Healthz as usize].requests, 0);
    }

    #[test]
    fn stream_counters_track_opens_and_lines() {
        let m = HttpMetrics::new();
        assert_eq!(m.stream.open_streams(), 0);
        m.stream.stream_opened();
        m.stream.stream_opened();
        assert_eq!(m.stream.open_streams(), 2);
        m.stream.stream_completed();
        assert_eq!(m.stream.open_streams(), 1);
        m.stream.add_lines(5, 2, 4, 1);
        m.stream.add_lines(1, 0, 1, 0);
        assert_eq!(m.stream.lines_accepted(), 6);
        assert_eq!(m.stream.lines_rejected(), 2);
        assert_eq!(m.stream.batches_folded(), 5);
        assert_eq!(m.stream.batches_replayed(), 1);
    }

    #[test]
    fn accept_errors_count_separately_from_routes() {
        let m = HttpMetrics::new();
        assert_eq!(m.accept_errors(), 0);
        m.record_accept_error();
        m.record_accept_error();
        assert_eq!(m.accept_errors(), 2);
        assert!(m.snapshot().iter().all(|r| r.requests == 0));
    }
}
