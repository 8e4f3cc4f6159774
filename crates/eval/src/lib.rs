//! Evaluation harness: the paper's metrics (Section VII-A) and one
//! experiment module per figure/table of the evaluation section.
//!
//! Every experiment is a pure function of a seed (plus a `quick` flag that
//! shrinks dataset sizes for benches and CI). Its `compute` returns the
//! figure's numbers as a typed result, and its `run` renders that result
//! as a [`Report`]: an aligned text table or markdown (see
//! [`experiments`]). The `experiments` binary runs any subset:
//!
//! ```text
//! cargo run --release -p lightor-eval --bin experiments -- all
//! cargo run --release -p lightor-eval --bin experiments -- fig6 fig7 --quick
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod report;

pub use harness::{train_initializer, train_type_classifier, ExpEnv};
pub use metrics::{chat_precision_at_k, video_precision_end, video_precision_start, GOOD_DOT_TOL};
pub use report::{Report, Table};
