//! Sliding-window generation over a chat log (Algorithm 1, line 1).
//!
//! Candidate windows of length `l` are laid out with a stride of
//! `stride_frac * l`, so neighbouring candidates overlap. "When two
//! sliding windows have an overlap, we keep the one with more messages" —
//! resolved greedily from the most populated window down, which anchors
//! windows on chat bursts instead of an arbitrary grid phase.

use lightor_types::{ChatLog, Sec, TimeRange};

/// Generate the non-overlapping window set for a video.
///
/// Returns windows sorted by start time. Windows with zero messages are
/// kept (they are trivially non-highlights and the classifier needs the
/// full negative distribution at training time).
pub fn sliding_windows(
    chat: &ChatLog,
    video_len: Sec,
    window_len: f64,
    stride_frac: f64,
) -> Vec<TimeRange> {
    // One O(n) timestamp copy buys two-pointer candidate counting below;
    // callers holding a `TokenizedChat` skip it via
    // [`sliding_windows_from_ts`].
    let ts: Vec<f64> = chat.messages().iter().map(|m| m.ts.0).collect();
    sliding_windows_from_ts(&ts, video_len, window_len, stride_frac)
}

/// [`sliding_windows`] over a pre-extracted sorted timestamp slice
/// (e.g. `TokenizedChat::timestamps()`).
///
/// Candidate message counts use two monotone pointers (O(1) amortized
/// per candidate instead of a binary search each). Greedy overlap
/// resolution then needs no ordered map: candidates are generated in
/// start order, and their ends never decrease, so a candidate can only
/// overlap kept candidates next to it in that order. Each acceptance
/// check walks a `kept` flag array from the candidate down to the
/// nearest kept one and up to the nearest kept one, stopping as soon
/// as a neighbour can no longer overlap; that is about
/// `1 / stride_frac` steps per candidate, and the whole resolution is
/// one `sort_unstable` of packed integer keys.
pub fn sliding_windows_from_ts(
    ts: &[f64],
    video_len: Sec,
    window_len: f64,
    stride_frac: f64,
) -> Vec<TimeRange> {
    let candidates = candidate_windows(ts, video_len, window_len, stride_frac);
    let kept = resolve_overlaps(&candidates);
    candidates
        .iter()
        .zip(kept)
        .filter_map(|(&(range, _), kept)| kept.then_some(range))
        .collect()
}

/// Every candidate window with its message count, in start order.
fn candidate_windows(
    ts: &[f64],
    video_len: Sec,
    window_len: f64,
    stride_frac: f64,
) -> Vec<(TimeRange, usize)> {
    assert!(window_len > 0.0, "window length must be positive");
    assert!(
        (0.0..=1.0).contains(&stride_frac) && stride_frac > 0.0,
        "stride fraction must be in (0, 1]"
    );
    let len = video_len.0;
    if len <= 0.0 {
        return Vec::new();
    }
    let stride = window_len * stride_frac;

    // Successive candidates move both endpoints forward, so two
    // monotone pointers replace per-candidate binary searches: `lo` =
    // first message with ts >= start, `hi` = first with ts > end
    // (inclusive-end slice semantics).
    let mut candidates: Vec<(TimeRange, usize)> = Vec::new();
    let (mut lo, mut hi) = (0usize, 0usize);
    let mut t = 0.0;
    while t < len {
        let range = TimeRange::from_secs(t, (t + window_len).min(len));
        while lo < ts.len() && ts[lo] < range.start.0 {
            lo += 1;
        }
        if hi < lo {
            hi = lo;
        }
        while hi < ts.len() && ts[hi] <= range.end.0 {
            hi += 1;
        }
        candidates.push((range, hi - lo));
        t += stride;
    }
    candidates
}

/// Greedy overlap resolution over start-ordered `candidates`: most
/// messages first, ties earlier-first (deterministic); a candidate is
/// kept when it overlaps no kept one. Returns the kept flag of each
/// candidate.
///
/// Starts strictly increase with the index and ends never decrease
/// (`min(start + len, video_len)` is monotone), so below candidate `i`
/// every candidate after the first one ending at or before `i`'s start
/// overlaps `i`, and above it every candidate before the first one
/// starting at or after `i`'s end does. The nearest kept candidate on
/// each side is therefore the only one that can overlap, and each walk
/// stops at the first candidate out of reach. Touching endpoints (a
/// shared boundary instant) are not a real overlap, hence the strict
/// comparisons.
fn resolve_overlaps(candidates: &[(TimeRange, usize)]) -> Vec<bool> {
    // One key per candidate: count descending in the high half, index
    // ascending in the low half.
    let mut order: Vec<u64> = candidates
        .iter()
        .enumerate()
        .map(|(i, &(_, count))| {
            let count = u32::try_from(count).expect("message count fits u32");
            let i = u32::try_from(i).expect("candidate index fits u32");
            u64::from(u32::MAX - count) << 32 | u64::from(i)
        })
        .collect();
    order.sort_unstable();
    let mut kept = vec![false; candidates.len()];
    for key in order {
        let i = key as u32 as usize;
        let range = candidates[i].0;
        let below = candidates[..i]
            .iter()
            .zip(&kept[..i])
            .rev()
            .take_while(|((c, _), _)| c.end.0 > range.start.0)
            .any(|(_, &k)| k);
        let above = || {
            candidates[i + 1..]
                .iter()
                .zip(&kept[i + 1..])
                .take_while(|((c, _), _)| c.start.0 < range.end.0)
                .any(|(_, &k)| k)
        };
        if !below && !above() {
            kept[i] = true;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightor_types::{ChatMessage, UserId};
    use proptest::prelude::*;

    fn chat_at(times: &[f64]) -> ChatLog {
        ChatLog::new(
            times
                .iter()
                .map(|&t| ChatMessage::new(t, UserId(1), "x"))
                .collect(),
        )
    }

    #[test]
    fn empty_video_has_no_windows() {
        assert!(sliding_windows(&ChatLog::empty(), Sec(0.0), 25.0, 0.5).is_empty());
    }

    #[test]
    fn windows_are_sorted_and_disjoint() {
        let chat = chat_at(&[10.0, 12.0, 40.0, 41.0, 42.0, 90.0]);
        let wins = sliding_windows(&chat, Sec(120.0), 25.0, 0.5);
        for w in wins.windows(2) {
            assert!(w[0].start.0 <= w[1].start.0);
            assert_eq!(w[0].overlap_len(&w[1]).0, 0.0, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn burst_window_is_kept_over_grid_phase() {
        // A burst at 30..35 s. The candidate [25, 50] holds all 5 messages;
        // it must survive overlap resolution over [12.5, 37.5] etc.
        let chat = chat_at(&[30.0, 31.0, 32.0, 33.0, 34.0]);
        let wins = sliding_windows(&chat, Sec(100.0), 25.0, 0.5);
        let best = wins.iter().max_by_key(|w| chat.count_in(**w)).unwrap();
        assert_eq!(chat.count_in(*best), 5, "burst split across windows");
    }

    #[test]
    fn full_coverage_without_stride_gaps() {
        // With stride = len the windows tile the video exactly.
        let chat = chat_at(&[]);
        let wins = sliding_windows(&chat, Sec(100.0), 25.0, 1.0);
        assert_eq!(wins.len(), 4);
        assert_eq!(wins[0], TimeRange::from_secs(0.0, 25.0));
        assert_eq!(wins[3], TimeRange::from_secs(75.0, 100.0));
    }

    #[test]
    fn tail_window_is_clipped() {
        let wins = sliding_windows(&ChatLog::empty(), Sec(30.0), 25.0, 1.0);
        assert_eq!(wins.last().unwrap().end.0, 30.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        sliding_windows(&ChatLog::empty(), Sec(10.0), 0.0, 0.5);
    }

    /// The overlap resolution before the kept-flag walk, verbatim: a
    /// comparator sort and a start-ordered `BTreeMap` of kept windows.
    /// The oracle the walk must match window for window.
    fn btreemap_resolution(candidates: &[(TimeRange, usize)]) -> Vec<TimeRange> {
        use std::collections::BTreeMap;
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            candidates[b]
                .1
                .cmp(&candidates[a].1)
                .then(candidates[a].0.start.total_cmp(&candidates[b].0.start))
        });
        let mut kept: BTreeMap<u64, TimeRange> = BTreeMap::new();
        for i in order {
            let (range, _) = candidates[i];
            let key = range.start.0.to_bits();
            let pred_overlaps = kept
                .range(..=key)
                .next_back()
                .is_some_and(|(_, k)| k.end.0 > range.start.0);
            let succ_overlaps = kept
                .range(key..)
                .next()
                .is_some_and(|(_, k)| k.start.0 < range.end.0);
            if !pred_overlaps && !succ_overlaps {
                kept.insert(key, range);
            }
        }
        kept.into_values().collect()
    }

    #[test]
    fn resolution_matches_the_btreemap_on_bursty_chat() {
        // Ties, empty stretches and a clipped tail, at strides that
        // overlap one, two and three neighbours.
        let mut times: Vec<f64> = (0..40).map(|i| 100.0 + f64::from(i) * 0.25).collect();
        times.extend([3.0, 3.0, 250.0, 251.0, 252.0, 399.0]);
        times.sort_by(f64::total_cmp);
        for stride_frac in [1.0, 0.5, 1.0 / 3.0, 0.25, 0.3] {
            for window in [7.0, 25.0, 60.0] {
                let candidates = candidate_windows(&times, Sec(400.0), window, stride_frac);
                assert_eq!(
                    sliding_windows_from_ts(&times, Sec(400.0), window, stride_frac),
                    btreemap_resolution(&candidates),
                    "window {window}, stride {stride_frac}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn resolution_matches_the_btreemap(
            times in proptest::collection::vec(0.0..600.0f64, 0..300),
            window in 1.0..80.0f64,
            stride_frac in 0.05..=1.0f64,
            video_len in 1.0..700.0f64,
        ) {
            let mut times = times;
            times.sort_by(f64::total_cmp);
            let candidates = candidate_windows(&times, Sec(video_len), window, stride_frac);
            prop_assert_eq!(
                sliding_windows_from_ts(&times, Sec(video_len), window, stride_frac),
                btreemap_resolution(&candidates)
            );
        }

        #[test]
        fn kept_windows_never_overlap(
            times in proptest::collection::vec(0.0..500.0f64, 0..100),
            window in 10.0..40.0f64,
        ) {
            let chat = chat_at(&times);
            let wins = sliding_windows(&chat, Sec(500.0), window, 0.5);
            for i in 0..wins.len() {
                for j in (i + 1)..wins.len() {
                    prop_assert_eq!(wins[i].overlap_len(&wins[j]).0, 0.0);
                }
            }
        }

        #[test]
        fn every_message_lands_in_some_candidate(
            times in proptest::collection::vec(0.0..200.0f64, 1..40),
        ) {
            // The kept set need not cover every message, but no window may
            // extend past the video and all have the requested length or
            // less (tail clipping).
            let chat = chat_at(&times);
            let wins = sliding_windows(&chat, Sec(200.0), 25.0, 0.5);
            for w in &wins {
                prop_assert!(w.start.0 >= 0.0 && w.end.0 <= 200.0);
                prop_assert!(w.duration().0 <= 25.0 + 1e-9);
            }
        }
    }
}
