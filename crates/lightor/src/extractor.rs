//! The Highlight Extractor's iterative refinement loop (Algorithm 2).
//!
//! Each iteration publishes the current red-dot position to a crowd
//! source, filters the returned plays, classifies the dot's geometry, and
//! either extracts a boundary (Type II: medians) or moves the dot backward
//! (Type I: `−m`) for another round.
//!
//! [`HighlightExtractor::step`] is that one iteration, over one dot's
//! [`DotProgress`] and one round's raw plays. It is the only
//! implementation: the offline loop ([`HighlightExtractor::refine`]), the
//! Figure 8 experiment and the web service's online fold all call it.
//! A dot converges when the step moved it less than ε (`|s − s′| < ε`),
//! or when two Type II rounds agree on the start within ε — even with a
//! (mis)classified Type I round in between, because the classifier is
//! only ~80% accurate (Section V-C) and must not walk a settled dot away.
//! A dot clamped at 0 s by a Type I move converges by the first rule.

use crate::aggregate::{aggregate_type1, aggregate_type2};
use crate::classify::{play_position_features, DotType, TypeClassifier};
use crate::config::ExtractorConfig;
use crate::filter::filter_plays;
use lightor_types::{PlaySet, RedDot, Sec};
use serde::{Deserialize, Serialize};

/// Where one red dot stands in the Algorithm 2 loop: everything an
/// iteration reads and updates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DotProgress {
    /// Current position; the next round's task is published here.
    pub current: Sec,
    /// End boundary from the latest Type II round, if any.
    pub end: Option<Sec>,
    /// Start of the previous Type II boundary (the agreement rule).
    pub last_type2_start: Option<Sec>,
    /// Whether the loop has stopped for this dot.
    pub converged: bool,
}

impl DotProgress {
    /// A dot that has not been refined yet, at `at`.
    pub fn new(at: Sec) -> Self {
        DotProgress {
            current: at,
            end: None,
            last_type2_start: None,
            converged: false,
        }
    }
}

/// Diagnostics for one refinement iteration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Dot position this round's task was published at.
    pub dot: Sec,
    /// Plays returned by the crowd before filtering.
    pub plays_raw: usize,
    /// Plays surviving the filter stage.
    pub plays_filtered: usize,
    /// The classifier's verdict.
    pub classified: DotType,
    /// Boundary estimate, when Type II aggregation produced one.
    pub boundary: Option<(Sec, Sec)>,
}

/// The result of refining one red dot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Refined {
    /// Final start position (the converged dot).
    pub start: Sec,
    /// Final end position, when any Type II round produced one.
    pub end: Option<Sec>,
    /// Per-iteration diagnostics, in order.
    pub history: Vec<IterationRecord>,
}

impl Refined {
    /// Number of crowd rounds spent.
    pub fn iterations(&self) -> usize {
        self.history.len()
    }

    /// Whether the last round classified the dot as Type II.
    pub fn converged_type2(&self) -> bool {
        self.history
            .last()
            .is_some_and(|r| r.classified == DotType::TypeII)
    }
}

/// The Highlight Extractor: a trained Type I/II classifier plus the
/// iteration policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HighlightExtractor {
    cfg: ExtractorConfig,
    classifier: TypeClassifier,
}

impl HighlightExtractor {
    /// Build from a trained classifier and configuration.
    pub fn new(classifier: TypeClassifier, cfg: ExtractorConfig) -> Self {
        HighlightExtractor { cfg, classifier }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ExtractorConfig {
        &self.cfg
    }

    /// The classifier in use.
    pub fn classifier(&self) -> &TypeClassifier {
        &self.classifier
    }

    /// One Algorithm 2 iteration on one dot: filter `raw` (this round's
    /// plays), classify the dot, aggregate, and apply the convergence
    /// rule (module docs). Updates `dot` in place and returns the
    /// round's diagnostics. Callers stop stepping a converged dot.
    pub fn step(&self, dot: &mut DotProgress, raw: &PlaySet) -> IterationRecord {
        let at = dot.current;
        let filtered = filter_plays(raw, at, &self.cfg);
        let classified = if filtered.is_empty() {
            // No usable plays at all: treat as Type I (the dot is
            // probably nowhere near watchable content) and move back.
            DotType::TypeI
        } else {
            self.classifier
                .classify(&play_position_features(&filtered, at))
        };
        let mut record = IterationRecord {
            dot: at,
            plays_raw: raw.len(),
            plays_filtered: filtered.len(),
            classified,
            boundary: None,
        };

        let mut t2_agreement = false;
        let next = match classified {
            DotType::TypeII => match aggregate_type2(&filtered, at) {
                Some((s, e)) => {
                    record.boundary = Some((s, e));
                    dot.end = Some(e);
                    t2_agreement = dot
                        .last_type2_start
                        .is_some_and(|p| (p.0 - s.0).abs() < self.cfg.converge_eps);
                    dot.last_type2_start = Some(s);
                    s
                }
                None => aggregate_type1(at, self.cfg.move_back),
            },
            DotType::TypeI => aggregate_type1(at, self.cfg.move_back),
        };
        dot.current = next;
        dot.converged = (next.0 - at.0).abs() < self.cfg.converge_eps || t2_agreement;
        record
    }

    /// Refine one red dot: [`Self::step`] until it converges or the
    /// iteration budget runs out. `collect` is called once per iteration
    /// with the dot position for that round and must return that round's
    /// play records (a fresh crowd task).
    pub fn refine(&self, dot: RedDot, collect: &mut dyn FnMut(Sec) -> PlaySet) -> Refined {
        let mut progress = DotProgress::new(dot.at);
        let mut history = Vec::new();
        while !progress.converged && history.len() < self.cfg.max_iterations {
            let raw = collect(progress.current);
            history.push(self.step(&mut progress, &raw));
        }
        Refined {
            start: progress.current,
            end: progress.end,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PlayPositionFeatures;
    use lightor_types::Play;

    /// A classifier trained on realistic geometry: Type II dots also see
    /// "across" plays (click jitter, dots already inside the highlight);
    /// the load-bearing signal is the *before* fraction from hunting.
    fn classifier() -> TypeClassifier {
        let mut examples = Vec::new();
        for i in 0..40 {
            let j = (i % 7) as f64;
            examples.push((
                PlayPositionFeatures {
                    after: 5.0 + j,
                    before: if i % 5 == 0 { 1.0 } else { 0.0 },
                    across: 1.0 + j / 2.0,
                },
                DotType::TypeII,
            ));
            examples.push((
                PlayPositionFeatures {
                    after: 1.0 + j / 3.0,
                    before: 3.0 + j,
                    across: 2.0 + j / 2.0,
                },
                DotType::TypeI,
            ));
        }
        TypeClassifier::train(&examples)
    }

    fn extractor() -> HighlightExtractor {
        HighlightExtractor::new(classifier(), ExtractorConfig::default())
    }

    /// A crowd stub: viewers watch [h_start + 6, h_end + 4] when the dot is
    /// before the highlight end; otherwise they hunt (plays behind the dot).
    fn crowd_stub(h_start: f64, h_end: f64) -> impl FnMut(Sec) -> PlaySet {
        move |dot: Sec| {
            if dot.0 <= h_end {
                (0..9)
                    .map(|i| {
                        let off = (i as f64 - 4.0) * 0.8;
                        Play::from_secs(
                            (h_start + 6.0 + off).max(dot.0 - 2.0),
                            h_end + 4.0 + off * 0.5,
                        )
                    })
                    .collect()
            } else {
                (0..9)
                    .map(|i| {
                        let back = 12.0 + 3.0 * i as f64;
                        Play::from_secs(dot.0 - back, dot.0 - back + 8.0)
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn type2_dot_converges_in_one_round() {
        let ex = extractor();
        let mut crowd = crowd_stub(1990.0, 2005.0);
        let refined = ex.refine(RedDot::new(1992.0, 0.9), &mut crowd);
        assert!(refined.converged_type2());
        assert!(refined.end.is_some());
        let s = refined.start.0;
        assert!(
            (1990.0..=2005.0).contains(&s),
            "refined start {s} should sit inside the highlight"
        );
        let e = refined.end.unwrap().0;
        assert!((2000.0..=2015.0).contains(&e), "refined end {e}");
    }

    #[test]
    fn type1_dot_walks_back_until_type2() {
        let ex = extractor();
        // Dot 45 s past the highlight end: needs ~2-3 move-backs.
        let mut crowd = crowd_stub(1990.0, 2005.0);
        let refined = ex.refine(RedDot::new(2050.0, 0.8), &mut crowd);
        assert!(refined.iterations() >= 2);
        assert!(
            refined.history[0].classified == DotType::TypeI,
            "first round should be Type I"
        );
        assert!(refined.converged_type2(), "must end Type II");
        assert!(refined.start.0 <= 2005.0 + 10.0);
        assert!(refined.end.is_some());
    }

    #[test]
    fn empty_crowd_keeps_moving_back() {
        let ex = extractor();
        let mut crowd = |_dot: Sec| PlaySet::default();
        let refined = ex.refine(RedDot::new(500.0, 0.5), &mut crowd);
        assert_eq!(
            refined.iterations(),
            ExtractorConfig::default().max_iterations
        );
        assert!(refined.end.is_none());
        // Moved back m per iteration.
        assert!(
            (refined.start.0 - (500.0 - 6.0 * 20.0)).abs() < 1e-9,
            "start {}",
            refined.start
        );
    }

    #[test]
    fn history_records_rounds() {
        let ex = extractor();
        let mut crowd = crowd_stub(1990.0, 2005.0);
        let refined = ex.refine(RedDot::new(2050.0, 0.8), &mut crowd);
        assert_eq!(refined.history.len(), refined.iterations());
        assert_eq!(refined.history[0].dot.0, 2050.0);
        for r in &refined.history {
            assert!(r.plays_filtered <= r.plays_raw);
        }
        let type2_rounds = refined
            .history
            .iter()
            .filter(|r| r.classified == DotType::TypeII)
            .count();
        assert!(type2_rounds >= 1);
    }

    #[test]
    fn dot_never_goes_negative() {
        let ex = extractor();
        let mut crowd = |_dot: Sec| PlaySet::default();
        let refined = ex.refine(RedDot::new(15.0, 0.5), &mut crowd);
        assert!(refined.start.0 >= 0.0);
    }
}
