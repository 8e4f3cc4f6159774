//! Shared experiment plumbing: dataset adapters, standard training
//! routines, and the crowd-backed classifier trainer.

use lightor::{
    DotType, ExtractorConfig, FeatureSet, HighlightExtractor, HighlightInitializer,
    InitializerConfig, PlayPositionFeatures, TrainingVideo, TypeClassifier,
};
use lightor_chatsim::{dota2_dataset, lol_dataset, Dataset, SimVideo};
use lightor_crowdsim::Campaign;
use lightor_simkit::dist::uniform;
use lightor_simkit::SeedTree;
use lightor_types::{PlaySet, RedDot, Sec};
use rayon::prelude::*;

/// Experiment environment: master seed plus a `quick` switch that shrinks
/// dataset sizes (used by unit tests and criterion benches; the
/// `experiments` binary runs full scale).
#[derive(Clone, Copy, Debug)]
pub struct ExpEnv {
    /// Master seed; every experiment derives from it deterministically.
    pub seed: u64,
    /// Shrink datasets for fast runs.
    pub quick: bool,
}

impl ExpEnv {
    /// Full-scale environment with the workspace's canonical seed.
    pub fn full() -> Self {
        ExpEnv {
            seed: 0xC0FFEE,
            quick: false,
        }
    }

    /// Quick environment for tests/benches.
    pub fn quick() -> Self {
        ExpEnv {
            seed: 0xC0FFEE,
            quick: true,
        }
    }

    /// Cap a dataset size under `quick`.
    pub fn cap(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick.min(full)
        } else {
            full
        }
    }

    /// The Dota2 corpus (paper: 60 videos).
    pub fn dota2(&self, n: usize) -> Dataset {
        dota2_dataset(n, self.seed ^ 0xD07A)
    }

    /// The LoL corpus (paper: 173 videos).
    pub fn lol(&self, n: usize) -> Dataset {
        lol_dataset(n, self.seed ^ 0x1017)
    }
}

/// Adapt simulated videos to the Initializer's training view.
pub fn training_views<'a>(videos: &'a [&'a SimVideo]) -> Vec<TrainingVideo<'a>> {
    videos
        .iter()
        .map(|v| TrainingVideo {
            chat: &v.video.chat,
            duration: v.video.meta.duration,
            highlights: &v.video.highlights,
            label_ranges: &v.response_ranges,
        })
        .collect()
}

/// Train an Initializer on the given videos with default config.
pub fn train_initializer(videos: &[&SimVideo], feature_set: FeatureSet) -> HighlightInitializer {
    let views = training_views(videos);
    HighlightInitializer::train(&views, feature_set, InitializerConfig::default())
}

/// Score every test video's top-k red dots, fanning out across videos.
///
/// Scoring is read-only on the model, so videos parallelize trivially;
/// results are returned in `videos` order and are identical to a
/// sequential loop for any thread count.
pub fn par_red_dots(
    init: &HighlightInitializer,
    videos: &[&SimVideo],
    k: usize,
) -> Vec<Vec<RedDot>> {
    videos
        .par_iter()
        .map(|sv| init.red_dots(&sv.video.chat, sv.video.meta.duration, k))
        .collect()
}

/// Train the Type I/II classifier from crowd data, the way a deployment
/// would: place dots at *known* geometries around training-video
/// highlights, run crowd tasks, featurize the filtered plays, fit.
///
/// Returns the classifier and its hold-out accuracy (the paper reports
/// ≈80%, Section V-C).
pub fn train_type_classifier(
    videos: &[&SimVideo],
    campaign: &mut Campaign,
    dots_per_video: usize,
    seed: u64,
) -> (TypeClassifier, f64) {
    let cfg = ExtractorConfig::default();
    let mut rng = SeedTree::new(seed).child("clf-dots").rng();
    let mut examples: Vec<(PlayPositionFeatures, DotType)> = Vec::new();

    // The refinement loop visits dots before the start, in the middle of
    // the highlight, just past its end, and far past it. Training must
    // cover all four geometries or the classifier misfires on the ones it
    // never saw (mid-highlight dots look "across-heavy", which a model
    // trained only on pre-start dots reads as hunting).
    for v in videos {
        for h in v.video.highlights.iter().take(dots_per_video) {
            let (s, e) = (h.start().0, h.end().0);
            let mid_hi = (e - 1.0).min(s + 12.0).max(s + 2.1);
            let placements = [
                (uniform(&mut rng, s - 8.0, s + 2.0), DotType::TypeII),
                (uniform(&mut rng, s + 2.0, mid_hi), DotType::TypeII),
                (e + uniform(&mut rng, 2.0, 10.0), DotType::TypeI),
                (e + uniform(&mut rng, 10.0, 35.0), DotType::TypeI),
            ];
            for (pos, label) in placements {
                let dot = Sec(pos);
                let plays: PlaySet = campaign
                    .run_task(&v.video, dot, cfg.responses_per_task)
                    .plays;
                let filtered = lightor::filter_plays(&plays, dot, &cfg);
                if !filtered.is_empty() {
                    examples.push((lightor::play_position_features(&filtered, dot), label));
                }
            }
        }
    }

    // 75/25 split for the hold-out accuracy estimate.
    let n_train = (examples.len() * 3) / 4;
    let (train, hold) = examples.split_at(n_train.max(2));
    let clf = TypeClassifier::train(train);
    let correct = hold
        .iter()
        .filter(|(f, label)| clf.classify(f) == *label)
        .count();
    let acc = if hold.is_empty() {
        1.0
    } else {
        correct as f64 / hold.len() as f64
    };
    (clf, acc)
}

/// Standard extractor wired from a crowd-trained classifier.
pub fn build_extractor(clf: TypeClassifier) -> HighlightExtractor {
    HighlightExtractor::new(clf, ExtractorConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_caps_sizes() {
        assert_eq!(ExpEnv::quick().cap(60, 6), 6);
        assert_eq!(ExpEnv::full().cap(60, 6), 60);
    }

    #[test]
    fn initializer_trains_from_sim_videos() {
        let env = ExpEnv::quick();
        let data = env.dota2(2);
        let refs: Vec<&SimVideo> = data.videos.iter().collect();
        let init = train_initializer(&refs, FeatureSet::Full);
        assert!((5.0..=45.0).contains(&init.adjustment()));
    }
}
