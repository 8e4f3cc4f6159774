//! Deployment substrate for LIGHTOR (paper Section VI).
//!
//! The paper ships LIGHTOR either as a browser extension backed by a web
//! service, or embedded in a streaming platform. Both need the same
//! server-side machinery, which this crate provides:
//!
//! * [`store`] — an embedded storage layer: a CRC-checked append-only
//!   segment log with compaction ([`store::SegmentLog`]), a per-video
//!   chat store with crash recovery by segment scan and dead-byte
//!   reclaim ([`store::ChatStore`]), and a snapshot-plus-WAL KV store
//!   for the refined red dots ([`store::KvStore`]);
//! * [`crawler`] — the offline/online chat crawler that pulls replays
//!   from the (simulated) platform into the chat store;
//! * [`service`] — the web-service core: serve red dots on video open
//!   (crawling and initializing on miss), log viewer interactions, and
//!   run extraction rounds that refine dot positions continuously.

#![warn(missing_docs)]

mod cache;
pub mod crawler;
pub mod service;
pub mod store;
pub mod wire;

pub use crawler::{CrawlStats, Crawler, OnlineCrawl};
pub use service::{LightorService, ServiceConfig, VideoState};
pub use store::{
    ChatStore, CompactStats, Fault, FaultInjector, FaultKind, KvStats, KvStore, SegmentLog,
};
