//! Retry policy for the router's proxy path: bounded attempts, jittered
//! exponential backoff, and a token-bucket retry budget.
//!
//! Retries are only safe and only useful under three conditions, each
//! encoded here rather than left to call-site discipline:
//!
//! * **idempotence** — the router only retries GETs, and only on
//!   *transport* errors (the backend may be fine; the connection was
//!   not). A response that arrived, whatever its status, is final.
//! * **bounded amplification** — [`RetryBudget`] caps retries to a
//!   fraction of recent first attempts (Finagle-style token bucket), so
//!   a down shard costs ~1.1× the offered load, not 3× (three attempts
//!   per request at most).
//! * **decorrelation** — backoff is exponential with full jitter (10 ms
//!   doubling to a 200 ms ceiling), so a burst of failures does not
//!   resynchronize into retry waves.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A small xorshift64* PRNG for jitter — this crate is std-only (no
/// `rand`), and jitter needs speed and decorrelation, not quality.
#[derive(Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded PRNG; a zero seed is nudged to a fixed odd constant
    /// (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Total attempts per proxied GET (first try + retries).
pub(crate) const MAX_ATTEMPTS: u32 = 3;
/// Backoff before retry #1 (doubles per subsequent retry).
const BASE_BACKOFF: Duration = Duration::from_millis(10);
/// Backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(200);

/// Full-jitter backoff before retry number `retry` (1-based): a uniform
/// draw from `[0, min(BASE_BACKOFF · 2^(retry-1), MAX_BACKOFF)]`.
pub(crate) fn backoff(retry: u32, rng: &mut XorShift64) -> Duration {
    let exp = retry.saturating_sub(1).min(16);
    let ceiling = BASE_BACKOFF.saturating_mul(1u32 << exp).min(MAX_BACKOFF);
    let micros = ceiling.as_micros() as u64;
    Duration::from_micros(rng.below(micros.saturating_add(1)))
}

/// Token buckets are integer-denominated; this scale gives the ratio
/// milli-token resolution.
const SCALE: i64 = 1000;

/// A Finagle-style retry budget: every first attempt deposits
/// `ratio` tokens, every retry withdraws one. Retries are allowed only
/// while the bucket is positive, which caps retry amplification at
/// ~`1 + ratio` of the offered load no matter how hard a backend
/// fails. A small burst allowance keeps single sporadic failures
/// retryable even from a cold start.
#[derive(Debug)]
pub struct RetryBudget {
    /// Balance in milli-tokens (may go negative transiently under
    /// concurrent withdrawals; clamped on deposit).
    balance: AtomicI64,
    /// Milli-tokens deposited per first attempt.
    deposit: i64,
    /// Balance ceiling (burst cap), milli-tokens.
    cap: i64,
    /// Retries denied because the bucket was empty.
    exhausted: AtomicU64,
}

impl RetryBudget {
    /// A budget allowing `ratio` retries per first attempt (clamped to
    /// `[0, 1]`), with a burst allowance of `burst` retries.
    pub fn new(ratio: f64, burst: u32) -> Self {
        let ratio = ratio.clamp(0.0, 1.0);
        let cap = i64::from(burst.max(1)) * SCALE;
        RetryBudget {
            balance: AtomicI64::new(cap),
            deposit: (ratio * SCALE as f64) as i64,
            cap,
            exhausted: AtomicU64::new(0),
        }
    }

    /// Record one first attempt (deposits `ratio` tokens).
    pub fn record_attempt(&self) {
        self.balance
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some((b + self.deposit).min(self.cap))
            })
            .ok();
    }

    /// Try to withdraw one retry token. `false` means the budget is
    /// exhausted and the caller must not retry.
    pub fn try_withdraw(&self) -> bool {
        let ok = self
            .balance
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (b >= SCALE).then_some(b - SCALE)
            })
            .is_ok();
        if !ok {
            self.exhausted.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Retries denied because the bucket was empty.
    pub fn exhausted_count(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }
}

impl Default for RetryBudget {
    /// 10% retry ratio with a 10-retry burst — Finagle's defaults.
    fn default() -> Self {
        RetryBudget::new(0.1, 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        // Zero seed does not collapse to the fixed point.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
        // below() respects its bound.
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..50 {
                assert!(a.below(bound) < bound);
            }
        }
        assert_eq!(a.below(0), 0);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut rng = XorShift64::new(7);
        // Ceilings: retry 1 → 10ms, retry 2 → 20ms, retry 5+ → 200ms cap.
        for _ in 0..200 {
            assert!(backoff(1, &mut rng) <= Duration::from_millis(10));
            assert!(backoff(2, &mut rng) <= Duration::from_millis(20));
            assert!(backoff(50, &mut rng) <= Duration::from_millis(200));
        }
        // Jitter actually varies (full jitter, not fixed steps).
        let draws: std::collections::HashSet<u128> =
            (0..32).map(|_| backoff(3, &mut rng).as_micros()).collect();
        assert!(draws.len() > 1, "backoff draws never varied");
    }

    #[test]
    fn budget_allows_burst_then_denies() {
        let b = RetryBudget::new(0.0, 3);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "burst of 3 exceeded");
        assert_eq!(b.exhausted_count(), 1);
    }

    #[test]
    fn budget_refills_from_attempts_at_ratio() {
        let b = RetryBudget::new(0.1, 1);
        // Drain the burst allowance.
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw());
        // 10 first attempts at ratio 0.1 buy exactly one retry.
        for _ in 0..9 {
            b.record_attempt();
            assert!(!b.try_withdraw(), "retry allowed before ratio earned it");
        }
        b.record_attempt();
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw());
    }

    #[test]
    fn flapping_backend_drains_budget_recovers_and_never_amplifies() {
        // A backend that flaps — bursts of transport failures between
        // healthy stretches — is the worst case for retry storms. Walk
        // the budget through two full flap cycles and check all three
        // properties: it drains to denial, it recovers from healthy
        // first-attempt volume, and total retries never exceed
        // burst + ratio × attempts (the amplification cap).
        let b = RetryBudget::new(0.1, 5);
        let mut attempts = 0u64;
        let mut granted = 0u64;
        for cycle in 0..2 {
            // Flap: every request fails and wants MAX_ATTEMPTS - 1 retries.
            let mut denied_this_flap = 0;
            for _ in 0..100 {
                b.record_attempt();
                attempts += 1;
                for _ in 0..2 {
                    if b.try_withdraw() {
                        granted += 1;
                    } else {
                        denied_this_flap += 1;
                    }
                }
            }
            assert!(
                denied_this_flap > 0,
                "cycle {cycle}: the bucket never drained under 2× retry demand"
            );
            assert!(
                !b.try_withdraw(),
                "cycle {cycle}: still granting after a sustained flap"
            );
            // Healthy stretch: first attempts succeed, nothing retries,
            // the bucket refills at the deposit ratio.
            for _ in 0..60 {
                b.record_attempt();
                attempts += 1;
            }
            assert!(
                b.try_withdraw(),
                "cycle {cycle}: budget did not recover from healthy traffic"
            );
            granted += 1;
        }
        // Amplification cap: burst + ceil(ratio × attempts).
        let cap = 5 + (attempts as f64 * 0.1).ceil() as u64;
        assert!(
            granted <= cap,
            "granted {granted} retries from {attempts} attempts (cap {cap})"
        );
        assert!(b.exhausted_count() > 0, "denials were counted");
    }

    #[test]
    fn budget_balance_is_capped_at_burst() {
        let b = RetryBudget::new(1.0, 2);
        // Massive attempt volume must not bank unlimited retries.
        for _ in 0..1000 {
            b.record_attempt();
        }
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "cap exceeded");
    }
}
