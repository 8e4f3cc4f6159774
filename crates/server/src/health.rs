//! Per-backend health tracking: a four-state machine driven by probe
//! results *and* live request outcomes, with jittered exponential
//! backoff on probes to a down shard.
//!
//! ```text
//!            failure                 #failures ≥ DOWN_AFTER
//!  Healthy ──────────▶ Suspect ───────────────────────────▶ Down
//!     ▲                   │ success                            │ probe success
//!     │                   ▼                                    ▼
//!     │◀────────────── Healthy                            Recovering
//!     │                                                        │
//!     └────── #successes ≥ RECOVER_AFTER ──────────────────────┘
//!                        (any failure → Down again)
//! ```
//!
//! `Healthy`, `Suspect`, and `Recovering` receive traffic; `Down` does
//! not (requests fast-fail 503 at the router). The same transitions
//! fire for request failures as for probe failures, which is what makes
//! the machine double as a circuit breaker: a burst of transport errors
//! trips the shard to `Down` without waiting for the prober to notice.
//!
//! The thresholds and probe cadence are this module's constants: 3
//! failures trip a shard, 2 successes recover it, probes run every
//! 500 ms while it is up and back off from 250 ms to 4 s while it is
//! down.

use crate::retry::XorShift64;
use std::time::{Duration, Instant};

/// The four health states (see the module diagram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Answering normally.
    Healthy,
    /// Failed recently, but not often enough to stop routing to it.
    Suspect,
    /// Tripped: receives probes only, on a backed-off schedule.
    Down,
    /// A probe succeeded; trial traffic flows while successes accrue.
    Recovering,
}

impl HealthState {
    /// Stable lowercase name for wire DTOs (`"healthy"`, `"suspect"`,
    /// `"down"`, `"recovering"`).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Down => "down",
            HealthState::Recovering => "recovering",
        }
    }
}

/// Consecutive failures that trip `Suspect` → `Down`.
const DOWN_AFTER: u32 = 3;
/// Consecutive successes that promote `Recovering` → `Healthy`.
const RECOVER_AFTER: u32 = 2;
/// Probe cadence while not down.
const PROBE_INTERVAL: Duration = Duration::from_millis(500);
/// First probe delay after tripping down (doubles per failed probe,
/// jittered).
const PROBE_BACKOFF_BASE: Duration = Duration::from_millis(250);
/// Probe-delay ceiling while down.
const PROBE_BACKOFF_MAX: Duration = Duration::from_secs(4);

/// Health ledger of one backend. All methods take `now` explicitly so
/// tests drive the clock instead of sleeping.
#[derive(Debug)]
pub struct BackendHealth {
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Failed probes while down (backoff exponent).
    down_probes: u32,
    next_probe_at: Instant,
    probe_failures: u64,
    breaker_trips: u64,
    /// When `state` last changed (construction counts), reported as
    /// each `/healthz` row's dwell time.
    last_transition: Instant,
}

impl BackendHealth {
    /// A backend assumed healthy at `now`, due for its first probe
    /// immediately.
    pub fn new(now: Instant) -> Self {
        BackendHealth {
            state: HealthState::Healthy,
            consecutive_failures: 0,
            consecutive_successes: 0,
            down_probes: 0,
            next_probe_at: now,
            probe_failures: 0,
            breaker_trips: 0,
            last_transition: now,
        }
    }

    /// A backend admitted in `Recovering` at `now` — how a ring update
    /// introduces an address the router has never health-checked. It
    /// takes trial traffic immediately but must string together
    /// `RECOVER_AFTER` successes before it counts as healthy, and a
    /// single failure re-trips it to `Down` — a misconfigured address
    /// in a ring update never lingers as "healthy by assumption".
    pub fn new_recovering(now: Instant) -> Self {
        BackendHealth {
            state: HealthState::Recovering,
            ..Self::new(now)
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether the router may send this backend live traffic.
    pub fn is_available(&self) -> bool {
        self.state != HealthState::Down
    }

    /// Failed active probes since start.
    pub fn probe_failures(&self) -> u64 {
        self.probe_failures
    }

    /// Transitions into `Down` since start.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips
    }

    /// Milliseconds this backend has been in its current state at
    /// `now` — surfaced per backend in the router's `/healthz` rows.
    pub fn last_transition_ms(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.last_transition)
            .as_millis() as u64
    }

    /// Whether an active probe is due at `now`.
    pub fn probe_due(&self, now: Instant) -> bool {
        now >= self.next_probe_at
    }

    /// Seconds a client should wait before retrying a down shard —
    /// the router's `Retry-After` value. At least 1 (the header is
    /// integer seconds and 0 invites a tight retry loop).
    pub fn retry_after_secs(&self, now: Instant) -> u64 {
        self.next_probe_at
            .saturating_duration_since(now)
            .as_secs()
            .max(1)
    }

    /// Record a successful request or probe at `now`.
    pub fn record_success(&mut self, now: Instant) {
        self.consecutive_failures = 0;
        self.next_probe_at = now + PROBE_INTERVAL;
        match self.state {
            HealthState::Healthy => {}
            HealthState::Suspect => {
                self.state = HealthState::Healthy;
                self.last_transition = now;
            }
            HealthState::Down => {
                // First good probe: trial traffic may flow again.
                self.state = HealthState::Recovering;
                self.last_transition = now;
                self.down_probes = 0;
                self.consecutive_successes = 1;
                self.maybe_recover(now);
            }
            HealthState::Recovering => {
                self.consecutive_successes += 1;
                self.maybe_recover(now);
            }
        }
    }

    fn maybe_recover(&mut self, now: Instant) {
        if self.consecutive_successes >= RECOVER_AFTER {
            self.state = HealthState::Healthy;
            self.last_transition = now;
            self.consecutive_successes = 0;
        }
    }

    /// Record a failed request at `now`. `rng` drives probe-backoff
    /// jitter on a trip into `Down`.
    pub fn record_failure(&mut self, now: Instant, rng: &mut XorShift64) {
        self.consecutive_failures += 1;
        self.consecutive_successes = 0;
        match self.state {
            HealthState::Healthy => {
                self.state = HealthState::Suspect;
                self.last_transition = now;
                if self.consecutive_failures >= DOWN_AFTER {
                    self.trip(now, rng);
                }
            }
            HealthState::Suspect => {
                if self.consecutive_failures >= DOWN_AFTER {
                    self.trip(now, rng);
                }
            }
            // Any failure while recovering re-trips immediately: the
            // backend showed it is not actually back.
            HealthState::Recovering => self.trip(now, rng),
            HealthState::Down => {
                // A failed probe while down: back off harder.
                self.down_probes = self.down_probes.saturating_add(1);
                self.next_probe_at = now + self.probe_backoff(rng);
            }
        }
    }

    /// Record a failed active probe at `now` (a request failure that
    /// also bumps the probe-failure counter surfaced in `/stats`).
    pub fn record_probe_failure(&mut self, now: Instant, rng: &mut XorShift64) {
        self.probe_failures += 1;
        self.record_failure(now, rng);
    }

    fn trip(&mut self, now: Instant, rng: &mut XorShift64) {
        self.state = HealthState::Down;
        self.last_transition = now;
        self.breaker_trips += 1;
        self.down_probes = 0;
        self.next_probe_at = now + self.probe_backoff(rng);
    }

    /// Jittered exponential probe delay while down: a uniform draw
    /// from `[ceiling/2, ceiling]` where `ceiling` doubles per failed
    /// probe. The half-floor keeps probes from hammering a struggling
    /// backend even at maximum jitter bad luck.
    fn probe_backoff(&self, rng: &mut XorShift64) -> Duration {
        let exp = self.down_probes.min(16);
        let ceiling = PROBE_BACKOFF_BASE
            .saturating_mul(1u32 << exp)
            .min(PROBE_BACKOFF_MAX);
        let half = ceiling / 2;
        half + Duration::from_micros(rng.below(half.as_micros() as u64 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (BackendHealth, XorShift64, Instant) {
        let t0 = Instant::now();
        (BackendHealth::new(t0), XorShift64::new(99), t0)
    }

    #[test]
    fn failures_walk_healthy_suspect_down() {
        let (mut h, mut rng, t0) = fixture();
        assert_eq!(h.state(), HealthState::Healthy);
        assert!(h.is_available());

        h.record_failure(t0, &mut rng);
        assert_eq!(h.state(), HealthState::Suspect);
        assert!(h.is_available(), "suspect still serves traffic");

        h.record_failure(t0, &mut rng);
        assert_eq!(h.state(), HealthState::Suspect);

        h.record_failure(t0, &mut rng);
        assert_eq!(h.state(), HealthState::Down);
        assert!(!h.is_available());
        assert_eq!(h.breaker_trips(), 1);
    }

    #[test]
    fn success_clears_suspect() {
        let (mut h, mut rng, t0) = fixture();
        h.record_failure(t0, &mut rng);
        h.record_failure(t0, &mut rng);
        h.record_success(t0);
        assert_eq!(h.state(), HealthState::Healthy);
        // The failure streak reset: it takes DOWN_AFTER fresh failures
        // to trip.
        h.record_failure(t0, &mut rng);
        h.record_failure(t0, &mut rng);
        assert_eq!(h.state(), HealthState::Suspect);
    }

    #[test]
    fn recovery_needs_consecutive_successes() {
        let (mut h, mut rng, t0) = fixture();
        for _ in 0..3 {
            h.record_failure(t0, &mut rng);
        }
        assert_eq!(h.state(), HealthState::Down);

        h.record_success(t0);
        assert_eq!(h.state(), HealthState::Recovering);
        assert!(h.is_available(), "recovering takes trial traffic");

        h.record_success(t0);
        assert_eq!(h.state(), HealthState::Healthy, "RECOVER_AFTER=2 met");
        assert_eq!(h.breaker_trips(), 1);
    }

    #[test]
    fn failure_during_recovery_retrips() {
        let (mut h, mut rng, t0) = fixture();
        for _ in 0..3 {
            h.record_failure(t0, &mut rng);
        }
        h.record_success(t0);
        assert_eq!(h.state(), HealthState::Recovering);
        h.record_failure(t0, &mut rng);
        assert_eq!(h.state(), HealthState::Down);
        assert_eq!(h.breaker_trips(), 2, "re-trip counts");
    }

    #[test]
    fn probe_backoff_doubles_and_caps_while_down() {
        let (mut h, mut rng, t0) = fixture();
        for _ in 0..3 {
            h.record_failure(t0, &mut rng);
        }
        // Just tripped: first probe within [base/2, base].
        let delay0 = h.next_probe_at - t0;
        assert!(delay0 >= PROBE_BACKOFF_BASE / 2);
        assert!(delay0 <= PROBE_BACKOFF_BASE);
        assert!(!h.probe_due(t0));
        assert!(h.probe_due(t0 + PROBE_BACKOFF_BASE));

        // Each failed probe doubles the ceiling...
        h.record_probe_failure(t0, &mut rng);
        let delay1 = h.next_probe_at - t0;
        assert!(delay1 <= PROBE_BACKOFF_BASE * 2);
        assert!(delay1 >= PROBE_BACKOFF_BASE);

        // ...up to the cap.
        for _ in 0..10 {
            h.record_probe_failure(t0, &mut rng);
        }
        let capped = h.next_probe_at - t0;
        assert!(capped <= PROBE_BACKOFF_MAX);
        assert!(capped >= PROBE_BACKOFF_MAX / 2);
        assert_eq!(h.probe_failures(), 11);
        // Still exactly one trip: failed probes while down do not re-trip.
        assert_eq!(h.breaker_trips(), 1);
    }

    #[test]
    fn retry_after_tracks_next_probe_with_a_floor() {
        let (mut h, mut rng, t0) = fixture();
        for _ in 0..3 {
            h.record_failure(t0, &mut rng);
        }
        // Drive the backoff to multi-second delays.
        for _ in 0..8 {
            h.record_probe_failure(t0, &mut rng);
        }
        let secs = h.retry_after_secs(t0);
        assert!(secs >= 1, "floor");
        assert!(secs <= 4, "cap is 4s");
        // Long past the probe time, the floor still holds.
        assert_eq!(h.retry_after_secs(t0 + Duration::from_secs(60)), 1);
    }

    #[test]
    fn healthy_probe_cadence_follows_interval() {
        let (mut h, _rng, t0) = fixture();
        assert!(h.probe_due(t0), "first probe immediate");
        h.record_success(t0);
        assert!(!h.probe_due(t0 + PROBE_INTERVAL / 2));
        assert!(h.probe_due(t0 + PROBE_INTERVAL));
    }

    #[test]
    fn recovering_admission_must_earn_healthy() {
        let t0 = Instant::now();
        let mut rng = XorShift64::new(7);
        let mut h = BackendHealth::new_recovering(t0);
        assert_eq!(h.state(), HealthState::Recovering);
        assert!(h.is_available(), "admitted shards take trial traffic");
        assert!(h.probe_due(t0), "first probe immediate");

        // One failure while on trial trips straight to down.
        h.record_failure(t0, &mut rng);
        assert_eq!(h.state(), HealthState::Down);

        // A fresh admission walks to healthy on RECOVER_AFTER successes.
        let mut h = BackendHealth::new_recovering(t0);
        h.record_success(t0);
        assert_eq!(h.state(), HealthState::Recovering);
        h.record_success(t0);
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn last_transition_tracks_state_changes_only() {
        let (mut h, mut rng, t0) = fixture();
        // Fresh backend: in Healthy since construction.
        assert_eq!(h.last_transition_ms(t0 + Duration::from_millis(250)), 250);

        // A success in Healthy is not a transition — the dwell clock
        // keeps running.
        h.record_success(t0 + Duration::from_millis(100));
        assert_eq!(h.last_transition_ms(t0 + Duration::from_millis(250)), 250);

        // Healthy → Suspect restamps.
        let t1 = t0 + Duration::from_millis(300);
        h.record_failure(t1, &mut rng);
        assert_eq!(h.state(), HealthState::Suspect);
        assert_eq!(h.last_transition_ms(t1 + Duration::from_millis(40)), 40);

        // A repeat failure that stays Suspect does not restamp.
        h.record_failure(t1 + Duration::from_millis(10), &mut rng);
        assert_eq!(h.state(), HealthState::Suspect);
        assert_eq!(h.last_transition_ms(t1 + Duration::from_millis(40)), 40);

        // The trip to Down restamps.
        let t2 = t1 + Duration::from_millis(500);
        h.record_failure(t2, &mut rng);
        assert_eq!(h.state(), HealthState::Down);
        assert_eq!(h.last_transition_ms(t2 + Duration::from_millis(75)), 75);

        // Down → Recovering → Healthy restamp at each hop.
        let t3 = t2 + Duration::from_secs(1);
        h.record_success(t3);
        assert_eq!(h.state(), HealthState::Recovering);
        assert_eq!(h.last_transition_ms(t3 + Duration::from_millis(5)), 5);
        let t4 = t3 + Duration::from_millis(200);
        h.record_success(t4);
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.last_transition_ms(t4 + Duration::from_millis(9)), 9);
    }

    #[test]
    fn state_names_are_wire_stable() {
        assert_eq!(HealthState::Healthy.name(), "healthy");
        assert_eq!(HealthState::Suspect.name(), "suspect");
        assert_eq!(HealthState::Down.name(), "down");
        assert_eq!(HealthState::Recovering.name(), "recovering");
    }
}
