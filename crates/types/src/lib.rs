//! Shared domain model for the LIGHTOR reproduction.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Sec`] / [`TimeRange`] — video time in seconds and closed intervals,
//! * [`ChatMessage`] / [`ChatLog`] — time-stamped live-chat messages,
//! * [`ChatLogView`] — zero-copy columnar view over a stored chat replay,
//! * [`Highlight`] / [`RedDot`] — ground-truth clips and approximate markers,
//! * [`Play`] / [`Interaction`] / [`Session`] — viewer interaction data,
//! * [`VideoMeta`] / [`LabeledVideo`] — videos and labelled dataset units.
//!
//! The types are deliberately plain (no behaviour beyond geometry and
//! bookkeeping) so that simulators, the LIGHTOR core, the baselines and the
//! platform layer can exchange data without depending on each other.

#![warn(missing_docs)]

mod chat;
mod chat_view;
mod interaction;
mod time;
mod video;

pub use chat::{ChatLog, ChatMessage, UserId};
pub use chat_view::{ts_order_key, ChatLogBuilder, ChatLogView, ChatMessageRef, ColumnarLayout};
pub use interaction::{Interaction, Play, PlaySet, Session};
pub use time::{Sec, TimeRange};
pub use video::{ChannelId, GameKind, Highlight, LabeledVideo, RedDot, VideoId, VideoMeta};
