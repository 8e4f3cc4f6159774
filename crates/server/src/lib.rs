//! The network edge of the paper's deployment (Section VI, Figure 5):
//! a hand-rolled, std-only, multi-threaded HTTP/1.1 front end over
//! `lightor_platform`'s wire DTOs and [`LightorService`].
//!
//! # The Figure 5 loop, route by route
//!
//! The paper ships LIGHTOR as a browser extension talking to a web
//! service. Every arrow in that loop is one route here:
//!
//! * **"viewer opens a recorded video"** → `GET /video/{id}/dots`.
//!   The extension extracts the video id on page load and fetches the
//!   red dots to draw on the progress bar ([`wire::DotsResponse`]).
//!   First sight of a video crawls its chat replay and runs the
//!   Highlight Initializer; later requests serve the *refined*
//!   positions, so the dots viewers see improve as the crowd watches.
//! * **"interactions stream back"** → `POST /sessions` or
//!   `POST /sessions/stream`, one route with one handler. The body is
//!   NDJSON (chunked or Content-Length), one [`wire::StreamBatchDto`]
//!   event batch (play / pause / seek / leave events) per line, for
//!   one video; `POST /sessions` is the one-line form. Each line is
//!   folded as it arrives: the service buffers the derived plays
//!   against the nearest dot and runs a refinement round — the
//!   implicit-crowdsourcing step that turns passive viewers into
//!   labellers. Acknowledged batches are WAL-durable *before* the
//!   [`wire::StreamAccepted`] ack. Every batch carries a per-`(video,
//!   client)` `seq`, so a client whose ack was lost retries it, or
//!   replays from its last acknowledged sequence after any crash,
//!   without double-counting (replays are recognized and skipped).
//!   Malformed lines reject the *line* — typed, with its 1-based
//!   number and a [`wire::UploadError`] code such as `missing_seq`,
//!   `video_mismatch` or `negative_timestamp` — not the session, up
//!   to a 16-line error budget ([`wire::StreamRejected`]).
//! * **"model refresh"** → `POST /video/{id}/rescore`: re-run the
//!   Initializer at a chosen `k` without touching refinement state.
//! * **operations** → `GET /stats` (service + per-route HTTP counters,
//!   [`wire::StatsResponse`] — including the tokenized-corpus columns:
//!   `tokenized_hits` / `tokenized_misses` count corpora decoded from
//!   persisted v3 sections vs re-tokenized from raw text,
//!   `tokenized_lazy_upgrades` counts v2→v3 persists, and
//!   `train_boot_ms` is the boot-time model-training wall clock),
//!   `POST /admin/compact` (reclaim storage,
//!   [`wire::CompactResponse`]), `GET /healthz` (liveness).
//!
//! # Architecture
//!
//! std-only by design — no async runtime, no HTTP dependency, and the
//! vendored registry stubs stay stubs:
//!
//! * [`pool`] — a bounded fixed-size worker pool (the accept backlog);
//! * [`http`] — incremental HTTP/1.1 parsing (header/body limits →
//!   400/413/431/501) and response framing;
//! * [`router`] — the route table above, over [`LightorService`];
//! * [`metrics`] — per-route request/error/latency counters, merged
//!   into `GET /stats`;
//! * [`server`] — listener + keep-alive connection loop + graceful
//!   drain on shutdown;
//! * [`client`] — a tiny keep-alive client driving the integration
//!   tests, the loopback benches, and `examples/browser_extension.rs`.
//!
//! The `lightor-serve` binary wires a simulated platform behind the
//! server so the whole loop runs from one command.
//!
//! # Cluster topology
//!
//! One process only goes so far; the fault-tolerant rung shards the
//! catalog across N `lightor-serve` backends behind `lightor-router`:
//!
//! ```text
//!   extension ──▶ lightor-router ──▶ lightor-serve (shard 0)
//!                   │  consistent     lightor-serve (shard 1)
//!                   │  hash on          …
//!                   └─ video id      lightor-serve (shard N-1)
//! ```
//!
//! * [`cluster`] — the [`Cluster`] ring (FNV-1a keys on a SplitMix64
//!   vnode ring, 64 vnodes per backend) plus [`RouterServer`], a thin
//!   [`Handler`] that owns per-backend connection pools. Video routes
//!   proxy to the owning shard; `/stats` fans out and aggregates;
//!   `POST /admin/compact` broadcasts. Proxied responses are *relayed*
//!   — the backend's bytes are forwarded verbatim after a minimal head
//!   scan (status, `Content-Length`, `Connection`), so the proxy hop
//!   adds no parse/rebuild work on the hot path.
//! * [`health`] — per-backend probe state machine
//!   (healthy → suspect → down → recovering) driven by a background
//!   `GET /healthz` prober with jittered exponential backoff. Down
//!   shards fast-fail `503` + `Retry-After` instead of eating a
//!   connect timeout per request.
//! * [`retry`] — bounded attempts (three per request, under the
//!   request deadline), jittered backoff, and a global [`RetryBudget`]
//!   so a flapping shard can't amplify load. Only idempotent GETs are
//!   retried; the router never re-runs a write, because a write whose
//!   ack was lost may already have applied. A session batch is safe
//!   to retry only from the client, which owns its `seq`: the owner
//!   recognizes the retry as a replay.
//!
//! The `lightor-router` binary wires these together
//! (`--backend host:port` per shard). Backends stay plain
//! `lightor-serve` processes — killing one degrades exactly its key
//! range while the survivors keep answering, which is what the chaos
//! tests (`tests/cluster_chaos.rs`) and the CI cluster smoke assert.
//!
//! The ring is *versioned*: `POST /admin/ring` swaps in a new backend
//! set without a restart, and backends ship state to each other with
//! `POST /admin/export` / `POST /admin/import` bundles (per-video KV
//! snapshots + WAL-tail state, chat records, and v3 tokenized-corpus
//! sections, CRC-framed — an imported shard scores its new range
//! without re-running the tokenizer). Together
//! those make resharding and shard replacement live operations; the
//! recipes below are the whole procedure.
//!
//! # Operations runbook
//!
//! **Reading `/healthz`.** The router's `GET /healthz` reports
//! `status` (`"ok"` / `"degraded"`), the `ring_version` currently
//! routing, and one entry per shard whose `health` is one of:
//!
//! * `"healthy"` — taking traffic, probes passing;
//! * `"suspect"` — consecutive failures accumulating; still serving,
//!   trips to `down` at the policy threshold;
//! * `"down"` — circuit open: requests fast-fail `503` with a
//!   `Retry-After`; background probes keep testing it;
//! * `"recovering"` — a probe succeeded (or the shard was newly
//!   admitted by a ring update): trial traffic flows, a failure sends
//!   it back to `down`, sustained successes earn `healthy`.
//!
//! **Adding a backend.** Boot a fresh `lightor-serve`; for every shard
//! that loses part of its range to the newcomer, `POST /admin/export`
//! (`{"videos":[],"since_seq":0,"freeze_ms":0}`) on the shard and ship
//! the bundle verbatim to the newcomer's `POST /admin/import`. Then
//! cut over: re-export with `since_seq` set to the bulk bundle's
//! `as_of_seq` and a small `freeze_ms` (the sub-second write-freeze
//! window), import that delta, and `POST /admin/ring` on the router
//! with the full new address list. The router bumps the ring version,
//! admits the new address in `recovering`, and from that moment routes
//! every read and write by the new ring alone — the outgoing epoch is
//! dropped, so the state must be imported *before* the swap. Writes
//! resume the moment the swap lands (the new owner was never frozen).
//! A read whose new owner is down is not answered from the old one
//! (whose copy stopped taking writes at the cutover): it fails `502`,
//! or `503` with a `Retry-After` once the shard's breaker trips.
//!
//! **Replacing a crashed shard.** The dead process's data dir is all
//! that is needed: boot a replacement with
//! `lightor-serve --restore-from <dead-data-dir>` (it re-reads the
//! snapshot + WAL tail — every acknowledged write — and imports the
//! range before binding), import the restored range into any other
//! shard that will own part of it, then `POST /admin/ring` with the
//! dead address swapped for the replacement. The replacement joins in
//! `recovering` and earns `healthy` through the ordinary probe state
//! machine.
//!
//! **Applying a ring update.** `POST /admin/ring` with
//! `{"backends":["host:port", …]}`. Known addresses carry their
//! health, connection pools, and counters across the swap; the
//! response and subsequent `/healthz` / `/stats` bodies carry the new
//! `ring_version`. Updates are rejected (`400`) if the list is empty
//! or contains duplicates, and nothing changes on rejection.
//! Swapping exactly one new address in for exactly one departed
//! member is **ownership-preserving**: the newcomer takes over
//! precisely the departed member's videos (this is what a supervisor
//! promotion or a `--restore-from` replacement relies on — no key
//! quietly moves to a survivor that never received the dead shard's
//! state). Any other membership change re-shards as consistent
//! hashing normally does, so grow/shrink operations still need the
//! export/import migration dance first.
//!
//! **Streaming ingest.** `POST /sessions` and `POST /sessions/stream`
//! are one route: each accepts a chunked (or `Content-Length`) NDJSON
//! body and folds each line as it arrives, so a long-lived uploader
//! holds one connection, not one buffered body. What to know when
//! operating it:
//!
//! * *One video, every batch sequenced.* A stream carries the video of
//!   its first batch; a line for another video is rejected
//!   `video_mismatch`, and a line without a `seq` is rejected
//!   `missing_seq`. Every client that posts therefore leaves a
//!   `(client, seq)` watermark in its video's state, and no watermark
//!   expires yet (ROADMAP item 7 measures the cost).
//!
//! * *Progress deadlines.* A streamed body must make progress: each
//!   read window is bounded by a fixed 2 s body-progress deadline, the
//!   same for every route. A stalled uploader (slowloris) gets a clean
//!   `408 request_timeout` naming the deadline, never a hung worker.
//!   An uploader that pauses between batches sends blank-line
//!   keep-alive heartbeats.
//! * *Budgets.* Lines over 256 KiB are rejected (and skipped to the
//!   next newline without buffering); a connection accumulating more
//!   than 16 rejected lines is terminated with `422
//!   error_budget_exhausted` listing every rejection so far. Total
//!   buffered bytes per connection stay bounded by [`Limits`] — an
//!   over-limit body is `413`.
//! * *Reading `/stats`.* `stream_open` is the number of streams in
//!   flight right now; `stream_lines_accepted` / `stream_lines_rejected`
//!   count per-line outcomes; `stream_batches_folded` counts batches
//!   that advanced refinement state and `stream_batches_replayed`
//!   counts duplicates recognized by their `seq` watermark and
//!   skipped. `folded + replayed` reconciling with `lines_accepted` is
//!   the healthy steady state. Both paths count under the one
//!   `POST /sessions/stream` row of `http`.
//! * *Resume after a crash.* Every `StreamAccepted` ack means the
//!   batches it covers are WAL-durable on the owning shard. A client
//!   numbers its batches with a monotone per-`(video, client)` `seq`
//!   and resumes by replaying from its last acked `last_seq` + 1;
//!   sending earlier batches again is harmless (they come back
//!   `batches_replayed`, fold nothing).
//! * *Freeze windows.* A mid-stream export freeze answers `503
//!   frozen` with a `Retry-After` and terminates the stream cleanly;
//!   the router relays a streamed body chunk-by-chunk to the owning
//!   shard and never retries a streamed write, so resume with the
//!   `seq` protocol after the window passes.
//!
//! # Supervisor topology
//!
//! Everything above is a human following a recipe. The
//! `lightor-supervisor` binary ([`supervisor`], [`replicate`]) is that
//! human, mechanized — deploy it next to the router when shard death
//! must not page anyone:
//!
//! ```text
//!   lightor-supervisor ──observe──▶ lightor-router /healthz
//!        │    │                         │ consistent hash
//!        │    └──────bulk + deltas──┐   ▼
//!        │                          │ lightor-serve (primary A)
//!        │                          ▼
//!        │                      lightor-serve (warm standby A')
//!        └─── on A down: final delta + POST /admin/ring (A → A')
//! ```
//!
//! One `--pair PRIMARY,STANDBY[,DATA_DIR]` per protected range. The
//! supervisor runs a single-threaded observe → plan → act loop: it
//! seeds each standby with one bulk bundle, then ships deltas every
//! tick (`--tick-ms`, default 250) using the `since_seq`/`as_of_seq`
//! watermarks, tracking lag in ops and milliseconds. When the router's
//! `/healthz` reports a primary `down` (the router's own failure
//! threshold has already debounced the signal), it promotes unattended:
//! final delta from the primary if it still answers, else a WAL-tail
//! rebuild from `DATA_DIR` (the zero-acknowledged-loss path for a
//! SIGKILLed shard), then a ring update with the standby substituted.
//! The plan is derived only from the live observation, so a supervisor
//! crash mid-failover resumes on restart and never double-promotes.
//!
//! Its `GET /stats` reports per-range phase
//! (`bootstrapping`/`replicating`/`promoting`/`promoted`/`retired`),
//! `synced_seq`, lag, bundle counts, and the last promotion. Without a
//! supervisor the cluster degrades to the manual runbook above —
//! nothing else depends on it, and it owns no request-path state.

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod health;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod replicate;
pub mod retry;
pub mod router;
pub mod server;
pub mod supervisor;

pub use client::{ClientError, ClientResponse, HttpClient};
pub use cluster::{Cluster, ClusterConfig, RouterServer};
pub use health::{BackendHealth, HealthState};
pub use http::{Framing, HttpError, Limits, Request, RequestParser, Response, StreamChunk};
pub use lightor_platform::wire;
pub use lightor_platform::LightorService;
pub use metrics::{HttpMetrics, RouteKey, StreamMetrics, ROUTE_NAMES};
pub use pool::ThreadPool;
pub use replicate::{ReplicaPair, ReplicaTracker};
pub use retry::{RetryBudget, XorShift64};
pub use router::{Route, RouteError};
pub use server::{BodySource, Handler, HttpServer, ServerConfig, StreamBodyError};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorServer};
