//! Goodput search over a geometric rate ladder.
//!
//! Goodput is the highest offered rate, on a ladder whose steps are at
//! most 5% apart, at which a probe keeps p99 latency under the
//! workload's limit with no growing backlog. Passing is assumed to be
//! monotone in the rate. The search gallops up from a step already
//! known to pass (doubling the stride until a probe fails), then
//! bisects between the last pass and the first failure: a few dozen
//! probes' worth of ladder costs about `2·log2` probes, and one unlucky
//! probe cannot drag the answer below the known pass.

use crate::stats;

/// Rates `base · growth^i` for `i` in `0..steps`.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    pub base: f64,
    pub growth: f64,
    pub steps: usize,
}

impl Ladder {
    /// A ladder from `base` up to at least `top`, steps `growth` apart.
    pub fn spanning(base: f64, top: f64, growth: f64) -> Self {
        assert!(
            growth > 1.0 && growth <= 1.05,
            "ladder steps must be at most 5%"
        );
        let steps = ((top / base).ln() / growth.ln()).ceil() as usize + 1;
        Ladder {
            base,
            growth,
            steps,
        }
    }

    pub fn rate(&self, i: usize) -> f64 {
        self.base * self.growth.powi(i as i32)
    }

    /// The highest step at or below `rate`, if any.
    pub fn step_at_or_below(&self, rate: f64) -> Option<usize> {
        (0..self.steps)
            .rev()
            .find(|&i| self.rate(i) <= rate * (1.0 + 1e-9))
    }

    /// Search for the highest passing step. `known_pass` is a step
    /// already known to pass (the search then starts above it);
    /// `probe(rate)` runs one probe and says whether it passed. Returns
    /// `None` when no step passes, plus every `(rate, passed)` probe
    /// made, in order.
    pub fn search(
        &self,
        known_pass: Option<usize>,
        mut probe: impl FnMut(f64) -> bool,
    ) -> (Option<usize>, Vec<(f64, bool)>) {
        // Invariant: step `lo` passed (None: none known), every step
        // ≥ `hi` failed (`hi` = steps: none known).
        let mut lo = known_pass;
        let mut hi = self.steps;
        let mut probes = Vec::new();
        let mut run = |i: usize, probes: &mut Vec<(f64, bool)>| {
            let passed = probe(self.rate(i));
            probes.push((self.rate(i), passed));
            passed
        };
        if let Some(start) = known_pass {
            let mut stride = 1;
            while start + stride < hi {
                let i = start + stride;
                if run(i, &mut probes) {
                    lo = Some(i);
                    stride *= 2;
                } else {
                    hi = i;
                }
            }
        }
        loop {
            let bottom = lo.map_or(0, |l| l + 1);
            if bottom >= hi {
                break;
            }
            let mid = bottom + (hi - bottom) / 2;
            if run(mid, &mut probes) {
                lo = Some(mid);
            } else {
                hi = mid;
            }
        }
        (lo, probes)
    }
}

/// Share of the offered rate a probe must complete at: below it, the
/// server fell behind the schedule and its backlog was growing.
pub const MIN_ACHIEVED_SHARE: f64 = 0.9;

/// The probe verdict: p99 of all attempts (failures recorded past the
/// limit) within `limit_ms`, and no growing backlog — requests completed
/// at no less than [`MIN_ACHIEVED_SHARE`] of the `offered` rate
/// (`achieved` = requests ÷ (last completion − first due time)). A short
/// probe above capacity can end before its backlog pushes p99 past a
/// generous limit; the completion rate still shows it.
pub fn probe_passes(latencies_ms: &[f64], limit_ms: f64, achieved: f64, offered: f64) -> bool {
    !latencies_ms.is_empty()
        && stats::summarize(latencies_ms).p99 <= limit_ms
        && achieved >= MIN_ACHIEVED_SHARE * offered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_steps_are_at_most_five_percent_and_cover_the_top() {
        let l = Ladder::spanning(20.0, 5000.0, 1.05);
        for i in 1..l.steps {
            let ratio = l.rate(i) / l.rate(i - 1);
            assert!(ratio <= 1.05 + 1e-12);
        }
        assert!(l.rate(l.steps - 1) >= 5000.0);
        assert_eq!(l.rate(0), 20.0);
    }

    #[test]
    fn search_finds_the_exact_capacity_step() {
        let l = Ladder::spanning(10.0, 10_000.0, 1.05);
        let log2 = (l.steps as f64).log2().ceil() as usize;
        for capacity in [10.0, 37.0, 512.0, 999.0, 9_000.0] {
            for start in [
                None,
                l.step_at_or_below(10.0),
                l.step_at_or_below(capacity / 3.0),
            ] {
                let (found, probes) = l.search(start, |r| r <= capacity);
                let found = l.rate(found.expect("the lowest step passes"));
                assert!(found <= capacity);
                // The next step up would have failed.
                assert!(found * l.growth > capacity, "cap {capacity} found {found}");
                assert!(probes.len() <= 2 * log2 + 1, "{} probes", probes.len());
            }
        }
    }

    #[test]
    fn one_unlucky_probe_cannot_drop_below_the_known_pass() {
        let l = Ladder::spanning(10.0, 10_000.0, 1.05);
        let start = l.step_at_or_below(1_000.0);
        // Everything above the known pass fails (a stalled machine).
        let (found, _) = l.search(start, |_| false);
        assert_eq!(found, start);
        assert_eq!(l.step_at_or_below(9.0), None);
        assert_eq!(l.rate(l.step_at_or_below(10.4).unwrap()), 10.0);
        assert_eq!(l.rate(l.step_at_or_below(10.5).unwrap()), 10.5);
    }

    #[test]
    fn probe_verdict_counts_failures_and_backlog() {
        let ok = vec![1.0; 200];
        assert!(probe_passes(&ok, 5.0, 99.0, 100.0));
        // Three failures in 200 (1.5%) put p99 past the limit.
        let mut failed = ok.clone();
        for x in failed.iter_mut().take(3) {
            *x = 2000.0;
        }
        assert!(!probe_passes(&failed, 5.0, 99.0, 100.0));
        // Latencies within the limit, but the server completed only 85%
        // of the offered rate: the backlog was growing.
        assert!(!probe_passes(&ok, 5.0, 85.0, 100.0));
        assert!(!probe_passes(&[], 5.0, 100.0, 100.0));
    }
}
