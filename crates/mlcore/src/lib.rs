//! Machine-learning substrate for the LIGHTOR reproduction.
//!
//! The paper's design philosophy is "a small number of highly effective
//! features combined with a simple model" (Section VII-B), so this crate is
//! deliberately compact:
//!
//! * [`MinMaxScaler`] — per-feature `[0, 1]` normalization (Section IV-C2),
//! * [`LogisticRegression`] — the window classifier and the Type I/II play
//!   classifier,
//! * `text` — tokenizer, vocabulary and binary bag-of-words vectors,
//! * [`one_cluster_kmeans`] — the message-similarity feature's center
//!   computation,
//! * `metrics` — accuracy/precision/recall and confusion matrices,
//! * `split` — deterministic train/test and k-fold splitting.
//!
//! Nothing here depends on the domain types; it works on `&[f64]` rows and
//! plain strings so the neural crate and the evaluation harness can reuse it.

#![warn(missing_docs)]

pub mod kmeans;
pub mod logreg;
pub mod metrics;
pub mod scale;
pub mod split;
pub mod text;

pub use kmeans::{cosine_similarity, mean_loo_similarity, one_cluster_kmeans, LooWindow};
pub use logreg::{LogisticRegression, TrainConfig};
pub use metrics::{accuracy, confusion, f1_score, precision, recall, Confusion};
pub use scale::MinMaxScaler;
pub use text::{BowVector, Tokenizer, Vocab, WordInterner};
