//! LIGHTOR: implicit crowdsourcing for highlight extraction from recorded
//! live videos (Jiang et al., ICDE 2020).
//!
//! The library implements the paper's two components and the end-to-end
//! workflow of Figure 1:
//!
//! * [`HighlightInitializer`] — Algorithm 1. Slices a video's time-stamped
//!   chat into sliding windows, scores each window with a logistic
//!   regression over three *general* features (message number, message
//!   length, message similarity), picks the top-k windows at least δ
//!   apart, and converts each window's message peak into a red dot by
//!   subtracting a learned reaction-delay constant `c`.
//! * [`HighlightExtractor`] — Algorithm 2. Around each red dot, collects
//!   viewer play records (through any `FnMut(Sec) -> PlaySet` crowd
//!   source), filters the noise (far / too short / too long / graph
//!   outliers), classifies the dot as Type I or Type II from three
//!   play-position features, and either aggregates boundaries by median
//!   (Type II) or moves the dot backward and re-collects (Type I), until
//!   the dot converges.
//! * [`Lightor`] — the two components wired together.
//!
//! The crate is pure algorithm: data generation lives in
//! `lightor-chatsim`/`lightor-crowdsim`, storage and serving in
//! `lightor-platform`, evaluation in `lightor-eval`.

#![warn(missing_docs)]

pub mod adjust;
pub mod aggregate;
pub mod classify;
pub mod config;
pub mod corpus;
pub mod extractor;
pub mod features;
pub mod filter;
pub mod initializer;
pub mod model;
pub mod pipeline;
pub mod window;

pub use adjust::learn_adjustment;
pub use aggregate::{aggregate_type1, aggregate_type2};
pub use classify::{play_position_features, DotType, PlayPositionFeatures, TypeClassifier};
pub use config::{ExtractorConfig, InitializerConfig};
pub use corpus::{FeaturizedWindow, GlobalVocab, TokenizedChat};
pub use extractor::{DotProgress, HighlightExtractor, IterationRecord, Refined};
pub use features::{FeatureSet, WindowFeatures};
pub use filter::filter_plays;
pub use initializer::{
    window_peak, window_peak_view, HighlightInitializer, ScoredWindow, TrainingVideo,
};
pub use model::ModelBundle;
pub use pipeline::{ExtractedHighlight, Lightor};
pub use window::{sliding_windows, sliding_windows_from_ts};
