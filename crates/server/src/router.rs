//! Route table and handlers: HTTP verbs/paths → `LightorService` calls
//! via the `wire` DTOs.
//!
//! | Route | Wire type | Service call |
//! |---|---|---|
//! | `GET /healthz` | — | liveness probe |
//! | `GET /video/{id}/dots` | [`DotsResponse`] | `dots_body` |
//! | `POST /video/{id}/rescore` | [`RescoreRequest`] → [`DotsResponse`] | `rescore_video` |
//! | `POST /sessions` | [`SessionUpload`] → [`SessionAccepted`] | `refine_batch` |
//! | `POST /sessions/stream` | NDJSON [`StreamBatchDto`] lines → [`StreamAccepted`] | `refine_batch` per line |
//! | `GET /stats` | [`StatsResponse`](lightor_platform::wire::StatsResponse) | `stats` + HTTP counters |
//! | `POST /admin/compact` | [`CompactResponse`] | `compact_storage` |
//! | `POST /admin/export` | [`ExportRequest`] → [`BundleDto`] | `export_bundle` |
//! | `POST /admin/import` | [`BundleDto`] → [`ImportResponse`](lightor_platform::wire::ImportResponse) | `import_bundle` |
//! | `POST /admin/ring` | router-only | ring swap (404 on a backend) |
//!
//! Semantic failures answer with the standard error body
//! (`{"error":{"code":…,"message":…}}`): `404` for videos the platform
//! does not know, `422` for well-formed-but-garbage uploads
//! ([`UploadError`]), `400` for unparseable JSON or ids, `500` for
//! storage errors.

use crate::http::{Request, Response};
use crate::metrics::{HttpMetrics, RouteKey};
use crate::server::{BodySource, Handler, OneChunk, StreamBodyError};
use lightor_platform::wire::{
    BundleDto, CompactResponse, DotsResponse, ExportRequest, LineRejectDto, RescoreRequest,
    SessionUpload, StreamAccepted, StreamBatchDto, StreamRejected, UploadError,
};
use lightor_platform::LightorService;
use lightor_types::VideoId;
use serde::{Deserialize, Serialize};

/// A resolved route, ids parsed out of the path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`
    Healthz,
    /// `GET /video/{id}/dots`
    Dots(u64),
    /// `POST /video/{id}/rescore`
    Rescore(u64),
    /// `POST /sessions`
    Sessions,
    /// `POST /sessions/stream` (NDJSON, one event batch per line)
    SessionsStream,
    /// `GET /stats`
    Stats,
    /// `POST /admin/compact`
    Compact,
    /// `POST /admin/export`
    Export,
    /// `POST /admin/import`
    Import,
    /// `POST /admin/ring`
    Ring,
}

impl Route {
    /// The metrics bucket this route reports under.
    pub fn key(self) -> RouteKey {
        match self {
            Route::Healthz => RouteKey::Healthz,
            Route::Dots(_) => RouteKey::Dots,
            Route::Rescore(_) => RouteKey::Rescore,
            Route::Sessions => RouteKey::Sessions,
            Route::SessionsStream => RouteKey::SessionsStream,
            Route::Stats => RouteKey::Stats,
            Route::Compact => RouteKey::Compact,
            Route::Export => RouteKey::Export,
            Route::Import => RouteKey::Import,
            Route::Ring => RouteKey::Ring,
        }
    }
}

/// `POST /sessions` success body.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionAccepted {
    /// The video the session was logged against.
    pub video: u64,
    /// Plays buffered against red dots (within the Δ neighbourhood).
    pub plays_buffered: usize,
    /// Dots whose position a refinement round just updated.
    pub dots_refined: usize,
}

/// Why a request did not resolve to a route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// No route owns this path → 404.
    NotFound,
    /// The path exists but not with this method → 405.
    MethodNotAllowed,
    /// A path id segment is not a u64 → 400.
    BadId,
}

impl RouteError {
    /// The response this routing failure answers with.
    pub fn response(self) -> Response {
        match self {
            RouteError::NotFound => Response::error(404, "not_found", "no such route"),
            RouteError::MethodNotAllowed => Response::error(
                405,
                "method_not_allowed",
                "method not allowed on this route",
            ),
            RouteError::BadId => Response::error(400, "bad_id", "video id must be an integer"),
        }
    }
}

/// Resolve `method` + `path` to a route.
pub fn resolve(method: &str, path: &str) -> Result<Route, RouteError> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let route = match segments.as_slice() {
        ["healthz"] => (Route::Healthz, "GET"),
        ["stats"] => (Route::Stats, "GET"),
        ["sessions"] => (Route::Sessions, "POST"),
        ["sessions", "stream"] => (Route::SessionsStream, "POST"),
        ["admin", "compact"] => (Route::Compact, "POST"),
        ["admin", "export"] => (Route::Export, "POST"),
        ["admin", "import"] => (Route::Import, "POST"),
        ["admin", "ring"] => (Route::Ring, "POST"),
        ["video", id, "dots"] => (Route::Dots(parse_id(id)?), "GET"),
        ["video", id, "rescore"] => (Route::Rescore(parse_id(id)?), "POST"),
        _ => return Err(RouteError::NotFound),
    };
    if method != route.1 {
        return Err(RouteError::MethodNotAllowed);
    }
    Ok(route.0)
}

fn parse_id(id: &str) -> Result<u64, RouteError> {
    id.parse::<u64>().map_err(|_| RouteError::BadId)
}

/// Dispatch one parsed request. Always returns a response; the
/// [`RouteKey`] says which metrics bucket it belongs to.
pub fn dispatch(
    svc: &LightorService,
    metrics: &HttpMetrics,
    req: &Request,
) -> (RouteKey, Response) {
    let route = match resolve(&req.method, &req.path) {
        Ok(r) => r,
        Err(e) => return (RouteKey::Other, e.response()),
    };
    let response = match route {
        Route::Healthz => Response::text(200, "ok"),
        Route::Dots(id) => handle_dots(svc, id),
        Route::Rescore(id) => gate_write(svc).unwrap_or_else(|| handle_rescore(svc, id, &req.body)),
        Route::Sessions => {
            gate_write(svc).unwrap_or_else(|| handle_sessions(svc, metrics, &req.body))
        }
        // A buffered request to the streaming route (an in-process
        // caller; the server streams every socket request) runs the
        // streaming handler over the complete body as one chunk.
        Route::SessionsStream => {
            return svc.handle_stream(req, &mut OneChunk::new(&req.body), metrics)
        }
        Route::Stats => handle_stats(svc, metrics),
        // Compaction stays allowed while degraded: it is the repair
        // path — a successful compaction rewrites storage and clears
        // the degraded flag.
        Route::Compact => handle_compact(svc),
        Route::Export => handle_export(svc, &req.body),
        Route::Import => gate_write(svc).unwrap_or_else(|| handle_import(svc, &req.body)),
        // Ring membership is the router's concern; a backend owns no
        // ring to update.
        Route::Ring => Response::error(
            404,
            "not_found",
            "ring updates apply at the router, not a backend",
        ),
    };
    (route.key(), response)
}

impl Handler for LightorService {
    fn handle(&self, req: &Request, metrics: &HttpMetrics) -> (RouteKey, Response) {
        dispatch(self, metrics, req)
    }

    fn wants_stream(&self, method: &str, path: &str) -> bool {
        matches!(resolve(method, path), Ok(Route::SessionsStream))
    }

    fn handle_stream(
        &self,
        _head: &Request,
        body: &mut dyn BodySource,
        metrics: &HttpMetrics,
    ) -> (RouteKey, Response) {
        metrics.stream.stream_opened();
        let mut ingest = NdjsonIngest::new(self, &metrics.stream);
        let response = loop {
            match body.next_chunk() {
                Ok(Some(data)) => {
                    ingest.feed(&data);
                    if ingest.terminal.is_some() {
                        // Terminal mid-stream failure (budget blown,
                        // freeze, storage): answer now and cut the
                        // stream — everything acknowledged so far is
                        // already durable.
                        break ingest.response();
                    }
                }
                Ok(None) => {
                    ingest.finish();
                    break ingest.response();
                }
                // The peer is gone; the server will not write this
                // response, but the ingest totals still count.
                Err(StreamBodyError::Disconnected) => break ingest.response(),
                Err(e) => break e.response(),
            }
        };
        metrics.stream.stream_completed();
        (RouteKey::SessionsStream, response)
    }
}

/// NDJSON lines a stream may reject before it is cut with a terminal
/// 422 (`error_budget_exhausted`).
const STREAM_ERROR_BUDGET: u64 = 16;

/// Longest accepted NDJSON line. Oversized lines are rejected (and
/// skipped to the next newline) without buffering them.
const MAX_LINE_BYTES: usize = 256 * 1024;

/// Incremental NDJSON ingester for `POST /sessions/stream`: fed raw
/// body bytes in arbitrary chunk sizes, it splits lines, validates
/// each as a [`StreamBatchDto`], and folds accepted batches through
/// [`LightorService::refine_batch`]. Malformed lines reject the *line*
/// (typed, with its 1-based number), not the session, up to
/// [`STREAM_ERROR_BUDGET`].
struct NdjsonIngest<'a> {
    svc: &'a LightorService,
    /// Live stream counters: flushed per line, not at stream end, so
    /// `GET /stats` observes a long-lived stream making progress.
    stream_metrics: &'a crate::metrics::StreamMetrics,
    line_no: u64,
    carry: Vec<u8>,
    /// Mid-oversized-line: discard bytes until the next newline.
    skipping: bool,
    lines_accepted: u64,
    lines_rejected: u64,
    batches_folded: u64,
    batches_replayed: u64,
    plays_buffered: u64,
    dots_refined: u64,
    last_seq: u64,
    rejected: Vec<LineRejectDto>,
    /// Set when the stream must be cut: the final response.
    terminal: Option<Response>,
}

impl<'a> NdjsonIngest<'a> {
    fn new(svc: &'a LightorService, stream_metrics: &'a crate::metrics::StreamMetrics) -> Self {
        NdjsonIngest {
            svc,
            stream_metrics,
            line_no: 0,
            carry: Vec::new(),
            skipping: false,
            lines_accepted: 0,
            lines_rejected: 0,
            batches_folded: 0,
            batches_replayed: 0,
            plays_buffered: 0,
            dots_refined: 0,
            last_seq: 0,
            rejected: Vec::new(),
            terminal: None,
        }
    }

    /// Feed one chunk of raw body bytes; processes every complete line.
    fn feed(&mut self, data: &[u8]) {
        if self.terminal.is_some() {
            return;
        }
        self.carry.extend_from_slice(data);
        loop {
            if self.terminal.is_some() {
                self.carry.clear();
                return;
            }
            if self.skipping {
                match self.carry.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        self.carry.drain(..=i);
                        self.skipping = false;
                        continue;
                    }
                    None => {
                        self.carry.clear();
                        return;
                    }
                }
            }
            match self.carry.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    let line: Vec<u8> = self.carry.drain(..=i).collect();
                    self.line_no += 1;
                    self.process_line(&line[..line.len() - 1]);
                }
                None => {
                    if self.carry.len() > MAX_LINE_BYTES {
                        // Reject without ever buffering the rest: the
                        // line number is consumed, the bytes are not.
                        self.carry.clear();
                        self.skipping = true;
                        self.line_no += 1;
                        self.reject("line_too_long", "NDJSON line exceeds 256 KiB");
                    }
                    return;
                }
            }
        }
    }

    /// End of body: the trailing newline is optional.
    fn finish(&mut self) {
        if self.terminal.is_some() || self.skipping {
            return;
        }
        if !self.carry.is_empty() {
            let line = std::mem::take(&mut self.carry);
            self.line_no += 1;
            self.process_line(&line);
        }
    }

    fn process_line(&mut self, raw: &[u8]) {
        let line = raw.trim_ascii();
        if line.is_empty() {
            return; // blank lines keep their number but are not events
        }
        // Degraded storage refuses writes mid-stream too: folding a
        // batch the service cannot persist would acknowledge data a
        // crash then loses.
        if let Some(resp) = gate_write(self.svc) {
            self.terminal = Some(resp);
            return;
        }
        let batch: StreamBatchDto = match serde_json::from_slice(line) {
            Ok(b) => b,
            Err(_) => return self.reject("bad_json", "line must be a StreamBatchDto"),
        };
        let seq = batch.seq;
        let (video, session) = match batch.as_upload().try_into_session() {
            Ok(pair) => pair,
            Err(e) => return self.reject(e.code(), &e.to_string()),
        };
        // A freeze window opening mid-stream terminates the stream
        // cleanly: acknowledged batches stay durable, the 503 carries
        // the Retry-After, and the client resumes past the cutover
        // from its last acknowledged sequence.
        if let Some(resp) = gate_frozen(self.svc, video) {
            self.terminal = Some(resp);
            return;
        }
        match self.svc.refine_batch(video, seq, &session) {
            Ok(None) => {
                let e = UploadError::UnknownVideo { video: video.0 };
                self.reject(e.code(), &e.to_string());
            }
            Ok(Some(outcome)) => {
                self.lines_accepted += 1;
                if outcome.replayed {
                    self.batches_replayed += 1;
                    self.stream_metrics.add_lines(1, 0, 0, 1);
                } else {
                    self.batches_folded += 1;
                    self.stream_metrics.add_lines(1, 0, 1, 0);
                }
                self.plays_buffered += outcome.plays_buffered as u64;
                self.dots_refined += outcome.dots_refined as u64;
                if let Some(seq) = seq {
                    self.last_seq = self.last_seq.max(seq);
                }
            }
            Err(e) => self.terminal = Some(storage_error(&e)),
        }
    }

    fn reject(&mut self, code: &str, message: &str) {
        self.lines_rejected += 1;
        self.stream_metrics.add_lines(0, 1, 0, 0);
        self.rejected.push(LineRejectDto {
            line: self.line_no,
            code: code.to_string(),
            message: message.to_string(),
        });
        if self.lines_rejected > STREAM_ERROR_BUDGET {
            self.terminal = Some(Response::json(
                422,
                &StreamRejected {
                    error: "error_budget_exhausted".to_string(),
                    line: self.line_no,
                    rejected: std::mem::take(&mut self.rejected),
                },
            ));
        }
    }

    /// The stream's final response: the terminal failure if one was
    /// set, the 200 ack otherwise.
    fn response(&mut self) -> Response {
        if let Some(terminal) = self.terminal.take() {
            return terminal;
        }
        Response::json(
            200,
            &StreamAccepted {
                lines_accepted: self.lines_accepted,
                lines_rejected: self.lines_rejected,
                batches_folded: self.batches_folded,
                batches_replayed: self.batches_replayed,
                plays_buffered: self.plays_buffered,
                dots_refined: self.dots_refined,
                last_seq: self.last_seq,
                rejected: std::mem::take(&mut self.rejected),
            },
        )
    }
}

/// `Some(503)` when the service is degraded (persistence failed) and
/// must refuse writes, `None` when the write may proceed.
fn gate_write(svc: &LightorService) -> Option<Response> {
    svc.is_degraded().then(|| {
        Response::error(
            503,
            "degraded",
            "storage is degraded (read-only); writes refused until compaction succeeds",
        )
        .with_header("Retry-After", "1")
    })
}

/// `Some(503 frozen)` with a `Retry-After` covering the rest of the
/// window while `video` is mid-migration, `None` when it may be
/// written.
fn gate_frozen(svc: &LightorService, video: VideoId) -> Option<Response> {
    svc.frozen_for(video).map(|remaining| {
        Response::error(
            503,
            "frozen",
            "this video is mid-migration; retry after the cutover",
        )
        .with_header("Retry-After", remaining.as_secs().max(1).to_string())
    })
}

/// `GET /video/{id}/dots`: the [`DotsResponse`] body the service
/// published with the video's dots, copied out as is.
fn handle_dots(svc: &LightorService, id: u64) -> Response {
    // Read-only mode: serve what memory already holds, never touch the
    // failing store. Cold videos would need a crawl + persist, which
    // is exactly what cannot run right now.
    let degraded = svc.is_degraded();
    match svc.dots_body(VideoId(id), !degraded) {
        Ok(Some(body)) => Response::raw(200, "application/json", body.to_vec()),
        Ok(None) if degraded => Response::error(
            503,
            "degraded",
            "storage is degraded; this video is not in memory",
        )
        .with_header("Retry-After", "1"),
        Ok(None) => Response::error(
            404,
            "unknown_video",
            "the platform does not know this video",
        ),
        Err(e) => storage_error(&e),
    }
}

fn handle_rescore(svc: &LightorService, id: u64, body: &[u8]) -> Response {
    let k = if body.is_empty() {
        svc.config().top_k
    } else {
        match serde_json::from_slice::<RescoreRequest>(body) {
            Ok(r) => r.k,
            Err(_) => {
                return Response::error(400, "bad_json", "body must be {\"k\": <usize>} or empty")
            }
        }
    };
    if k == 0 {
        return Response::error(422, "bad_k", "k must be at least 1");
    }
    // Encoded per request: `k` is the caller's, so no published body
    // answers it.
    match svc.rescore_video(VideoId(id), k) {
        Ok(Some(dots)) => Response::json(
            200,
            &DotsResponse {
                video: id,
                dots: dots.into_iter().map(Into::into).collect(),
            },
        ),
        Ok(None) => Response::error(404, "unknown_video", "no chat stored for this video"),
        Err(e) => storage_error(&e),
    }
}

fn handle_sessions(svc: &LightorService, metrics: &HttpMetrics, body: &[u8]) -> Response {
    let upload: SessionUpload = match serde_json::from_slice(body) {
        Ok(u) => u,
        Err(_) => return Response::error(400, "bad_json", "body must be a SessionUpload"),
    };
    let (video, session) = match upload.try_into_session() {
        Ok(pair) => pair,
        Err(e) => return Response::error(422, e.code(), &e.to_string()),
    };
    // Migration cutover: while a video is frozen, its refinement
    // writes 503 with a Retry-After covering the rest of the window,
    // so the exporter's final WAL-tail delta is complete.
    if let Some(resp) = gate_frozen(svc, video) {
        return resp;
    }
    // The buffered path folds through the same incremental unit as the
    // streamed one, so both produce bit-identical refinement state.
    match svc.refine_batch(video, None, &session) {
        Ok(None) => {
            let e = UploadError::UnknownVideo { video: video.0 };
            Response::error(422, e.code(), &e.to_string())
        }
        Ok(Some(outcome)) => {
            metrics.stream.add_lines(0, 0, 1, 0);
            Response::json(
                200,
                &SessionAccepted {
                    video: video.0,
                    plays_buffered: outcome.plays_buffered,
                    dots_refined: outcome.dots_refined,
                },
            )
        }
        Err(e) => storage_error(&e),
    }
}

fn handle_stats(svc: &LightorService, metrics: &HttpMetrics) -> Response {
    let mut stats = svc.stats();
    stats.http = metrics.snapshot();
    stats.accept_errors = metrics.accept_errors();
    stats.stream_lines_accepted = metrics.stream.lines_accepted();
    stats.stream_lines_rejected = metrics.stream.lines_rejected();
    stats.stream_batches_folded = metrics.stream.batches_folded();
    stats.stream_batches_replayed = metrics.stream.batches_replayed();
    stats.stream_open = metrics.stream.open_streams();
    Response::json(200, &stats)
}

fn handle_compact(svc: &LightorService) -> Response {
    match svc.compact_storage() {
        Ok(stats) => Response::json(200, &CompactResponse::from(stats)),
        Err(e) => storage_error(&e),
    }
}

fn handle_export(svc: &LightorService, body: &[u8]) -> Response {
    let req: ExportRequest = match serde_json::from_slice(body) {
        Ok(r) => r,
        Err(_) => return Response::error(400, "bad_json", "body must be an ExportRequest"),
    };
    match svc.export_bundle(&req) {
        Ok(bundle) => Response::json(200, &bundle),
        Err(e) => storage_error(&e),
    }
}

fn handle_import(svc: &LightorService, body: &[u8]) -> Response {
    let bundle: BundleDto = match serde_json::from_slice(body) {
        Ok(b) => b,
        Err(_) => return Response::error(400, "bad_json", "body must be a BundleDto"),
    };
    match svc.import_bundle(&bundle) {
        Ok(applied) => Response::json(200, &applied),
        // A CRC mismatch or malformed entry is the sender's problem
        // (the bundle is semantically bad), not a storage failure.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Response::error(422, "bad_bundle", &e.to_string())
        }
        Err(e) => storage_error(&e),
    }
}

fn storage_error(e: &std::io::Error) -> Response {
    Response::error(500, "storage_error", &e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_resolve() {
        assert_eq!(resolve("GET", "/healthz"), Ok(Route::Healthz));
        assert_eq!(resolve("GET", "/stats"), Ok(Route::Stats));
        assert_eq!(resolve("POST", "/sessions"), Ok(Route::Sessions));
        assert_eq!(
            resolve("POST", "/sessions/stream"),
            Ok(Route::SessionsStream)
        );
        assert_eq!(
            resolve("GET", "/sessions/stream"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(resolve("POST", "/admin/compact"), Ok(Route::Compact));
        assert_eq!(resolve("POST", "/admin/export"), Ok(Route::Export));
        assert_eq!(resolve("POST", "/admin/import"), Ok(Route::Import));
        assert_eq!(resolve("POST", "/admin/ring"), Ok(Route::Ring));
        assert_eq!(
            resolve("GET", "/admin/export"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(resolve("GET", "/video/42/dots"), Ok(Route::Dots(42)));
        assert_eq!(resolve("POST", "/video/7/rescore"), Ok(Route::Rescore(7)));
        // Trailing slash tolerated (empty segments are dropped).
        assert_eq!(resolve("GET", "/healthz/"), Ok(Route::Healthz));
    }

    #[test]
    fn routing_failures_are_typed() {
        assert_eq!(resolve("GET", "/nope"), Err(RouteError::NotFound));
        assert_eq!(resolve("GET", "/video/42"), Err(RouteError::NotFound));
        assert_eq!(
            resolve("POST", "/healthz"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            resolve("GET", "/video/7/rescore"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(resolve("GET", "/video/abc/dots"), Err(RouteError::BadId));
        assert_eq!(resolve("GET", "/video/-3/dots"), Err(RouteError::BadId));
    }
}
