//! The listener + connection machinery: `std::net::TcpListener`, a
//! fixed worker pool, keep-alive connections, and graceful shutdown.
//!
//! One acceptor thread owns the listener. Each accepted connection is
//! admitted through the pool's bounded queue ([`crate::pool`]); when
//! the queue is full the acceptor answers `503` inline and closes —
//! load is shed at the door instead of queueing unboundedly.
//!
//! A worker runs the whole life of its connection: feed socket bytes to
//! the incremental parser, dispatch complete requests through the
//! router, write responses, repeat while keep-alive holds. Reads use a
//! short poll timeout so idle connections notice the shutdown flag
//! quickly.
//!
//! [`HttpServer::shutdown`] is the graceful path: stop accepting (the
//! acceptor is woken by a self-connect), then drain — workers finish
//! the request currently in flight (including one whose bytes are
//! still arriving, up to a drain grace period) before closing their
//! connections, and the pool joins every worker.

use crate::http::{HttpError, Limits, Request, RequestParser, Response, StreamChunk};
use crate::metrics::{HttpMetrics, RouteKey};
use crate::pool::ThreadPool;
use lightor_platform::LightorService;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server settings: only the worker count varies between deployments;
/// everything else is a constant of this module.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4 }
    }
}

/// Bounded accept backlog: connections queued past the busy workers
/// before the acceptor sheds load with `503`.
const BACKLOG: usize = 64;

/// Idle keep-alive timeout: a connection with no request in flight for
/// this long is closed.
const KEEP_ALIVE: Duration = Duration::from_secs(5);

/// How long shutdown waits for a partially received request to finish
/// arriving before the connection is dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Body-progress deadline: once a request's head is complete, its body
/// must make progress (buffered: any bytes; streamed: a decoded chunk)
/// at least this often or the request is answered `408` and the
/// connection closed.
const BODY_PROGRESS: Duration = Duration::from_secs(2);

/// How often a worker wakes from a blocked read to check the shutdown
/// flag and the idle deadline.
const READ_POLL: Duration = Duration::from_millis(25);

/// What an [`HttpServer`] serves: one parsed request in, one response
/// out, tagged with the metrics bucket it belongs to.
///
/// [`LightorService`] implements this with the standard route table
/// ([`crate::router`]); the cluster router ([`crate::cluster`])
/// implements it with proxy logic — both reuse the same listener,
/// worker-pool, keep-alive, and graceful-drain machinery underneath.
pub trait Handler: Send + Sync + 'static {
    /// Handle one complete request. `metrics` is the server's own
    /// counter set, passed in so `/stats`-style routes can merge it.
    fn handle(&self, req: &Request, metrics: &HttpMetrics) -> (RouteKey, Response);

    /// True when this route's body should be *streamed* to
    /// [`Self::handle_stream`] instead of buffered: the server hands
    /// over as soon as the head is parsed, before any body bytes need
    /// to exist.
    fn wants_stream(&self, _method: &str, _path: &str) -> bool {
        false
    }

    /// Handle a streamed-body request: `head` carries the parsed head
    /// (empty body) and `body` yields decoded body chunks as they
    /// arrive. The default answers `501` — a handler that returns
    /// `true` from [`Self::wants_stream`] must override this.
    fn handle_stream(
        &self,
        _head: &Request,
        _body: &mut dyn BodySource,
        _metrics: &HttpMetrics,
    ) -> (RouteKey, Response) {
        (
            RouteKey::Other,
            Response::error(
                501,
                "not_implemented",
                "this route does not accept streamed bodies",
            ),
        )
    }
}

/// Why a streamed body stopped yielding chunks (see [`BodySource`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamBodyError {
    /// No decoded progress within the route's progress deadline (or
    /// the server began draining mid-stream) — answer `408`.
    Timeout,
    /// The connection buffer overflowed its bound — answer `413`.
    TooLarge,
    /// The body framing is broken — answer `400`.
    Malformed(&'static str),
    /// The peer closed or the socket died; there is usually nobody
    /// left to answer.
    Disconnected,
}

impl StreamBodyError {
    /// The response this failure answers with. A handler that still
    /// has something to say to a vanished peer (the ingest totals, say)
    /// handles [`StreamBodyError::Disconnected`] itself first; nobody
    /// reads that answer either way.
    pub fn response(self) -> Response {
        match self {
            StreamBodyError::Timeout => Response::error(
                408,
                "request_timeout",
                "stream stalled past the progress deadline",
            ),
            StreamBodyError::TooLarge => {
                Response::error(413, "body_too_large", "stream buffer overflowed its bound")
            }
            StreamBodyError::Malformed(m) => Response::error(400, "bad_request", m),
            StreamBodyError::Disconnected => {
                Response::error(400, "bad_request", "client disconnected mid-stream")
            }
        }
    }
}

/// A streamed request body, pulled chunk by chunk.
///
/// `Ok(Some(bytes))` is decoded body data (transfer framing never
/// shows through), `Ok(None)` is clean end-of-body. Implementations
/// block until one of those or a [`StreamBodyError`] — each call gets
/// a fresh progress deadline, so time a handler spends processing
/// between calls never counts against the client.
pub trait BodySource {
    /// Pull the next decoded chunk.
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, StreamBodyError>;
}

/// A complete, already-buffered body served as a single chunk: lets a
/// buffered request reach a streaming route through that handler's own
/// [`Handler::handle_stream`].
pub(crate) struct OneChunk<'a>(Option<&'a [u8]>);

impl<'a> OneChunk<'a> {
    pub(crate) fn new(body: &'a [u8]) -> Self {
        OneChunk(Some(body))
    }
}

impl BodySource for OneChunk<'_> {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, StreamBodyError> {
        Ok(self.0.take().map(<[u8]>::to_vec))
    }
}

/// Shared connection context.
struct Ctx {
    handler: Arc<dyn Handler>,
    metrics: Arc<HttpMetrics>,
    shutdown: AtomicBool,
}

/// A running HTTP front end over one [`LightorService`].
pub struct HttpServer {
    ctx: Arc<Ctx>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    pool: Arc<ThreadPool>,
}

impl HttpServer {
    /// Bind `addr` (port 0 picks a free port) and start serving `svc`
    /// with the standard route table.
    pub fn bind(
        addr: impl ToSocketAddrs,
        svc: Arc<LightorService>,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_handler(addr, svc, cfg)
    }

    /// Bind `addr` and serve an arbitrary [`Handler`] — the seam the
    /// cluster router uses to get a full HTTP front end for free.
    pub fn bind_handler(
        addr: impl ToSocketAddrs,
        handler: Arc<impl Handler>,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let ctx = Arc::new(Ctx {
            handler,
            metrics: Arc::new(HttpMetrics::new()),
            shutdown: AtomicBool::new(false),
        });
        let pool = Arc::new(ThreadPool::new(cfg.workers, BACKLOG));
        let acceptor = {
            let ctx = ctx.clone();
            let pool = pool.clone();
            std::thread::Builder::new()
                .name("http-acceptor".into())
                .spawn(move || accept_loop(listener, &ctx, &pool))?
        };
        Ok(HttpServer {
            ctx,
            addr: local,
            acceptor: Some(acceptor),
            pool,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-route counters (also served by `GET /stats`).
    pub fn metrics(&self) -> Arc<HttpMetrics> {
        self.ctx.metrics.clone()
    }

    /// Graceful shutdown: stop accepting, drain in-flight connections,
    /// join every thread. Blocks until the server is fully down.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Drains queued connections and joins workers (workers see the
        // shutdown flag and close after the in-flight request).
        self.pool.shutdown();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, ctx: &Arc<Ctx>, pool: &ThreadPool) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match pool.try_acquire() {
                    Some(permit) => {
                        let ctx = ctx.clone();
                        permit.submit(move || serve_connection(stream, &ctx));
                    }
                    None => shed_load(stream, ctx),
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Surface the failure in /stats — a silent accept loop
                // hides fd exhaustion until clients notice.
                ctx.metrics.record_accept_error();
                // Persistent accept errors (EMFILE under fd
                // exhaustion, ENFILE, …) fail instantly; without a
                // pause this thread would hot-spin a core exactly
                // when the server is already overloaded.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Answer `503` and close — the bounded backlog is full.
fn shed_load(mut stream: TcpStream, ctx: &Ctx) {
    let resp = Response::error(503, "overloaded", "server backlog is full; retry");
    let _ = resp.write_to(&mut stream, false);
    let _ = stream.shutdown(Shutdown::Both);
    ctx.metrics.record(RouteKey::Other, 503, Duration::ZERO);
}

/// Answer a parse-level failure with its status code, record it in the
/// catch-all bucket, and close — the framing is unrecoverable.
fn answer_parse_error(stream: &mut TcpStream, ctx: &Ctx, e: HttpError) {
    let response = Response::error(
        e.status(),
        match e.status() {
            408 => "request_timeout",
            413 => "body_too_large",
            431 => "headers_too_large",
            501 => "not_implemented",
            _ => "bad_request",
        },
        e.message(),
    );
    let _ = response.write_to(stream, false);
    ctx.metrics
        .record(RouteKey::Other, e.status(), Duration::ZERO);
    let _ = stream.shutdown(Shutdown::Both);
}

/// The live [`BodySource`] over one connection: pulls decoded chunks
/// out of the parser, refilling it from the socket, under a fresh
/// progress deadline per [`BodySource::next_chunk`] call.
struct SocketBody<'a> {
    stream: &'a mut TcpStream,
    parser: &'a mut RequestParser,
    shutdown: &'a AtomicBool,
    /// Armed when the shutdown flag is first seen mid-stream.
    shutdown_deadline: Option<Instant>,
    /// The body reached its clean end (`StreamChunk::End`).
    drained: bool,
    /// The peer vanished; writing a response is pointless.
    disconnected: bool,
}

impl BodySource for SocketBody<'_> {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, StreamBodyError> {
        if self.drained {
            return Ok(None);
        }
        let started = Instant::now();
        let mut read_buf = [0u8; 16 * 1024];
        loop {
            match self.parser.next_stream_chunk() {
                Ok(StreamChunk::Data(data)) => return Ok(Some(data)),
                Ok(StreamChunk::End) => {
                    self.drained = true;
                    return Ok(None);
                }
                Ok(StreamChunk::NeedMore) => {}
                Err(HttpError::BodyTooLarge) | Err(HttpError::HeadersTooLarge) => {
                    return Err(StreamBodyError::TooLarge)
                }
                Err(e) => return Err(StreamBodyError::Malformed(e.message())),
            }
            // Nothing decodable buffered: wait for socket bytes, under
            // the progress deadline (and the drain grace once the
            // server is shutting down).
            if started.elapsed() > BODY_PROGRESS {
                return Err(StreamBodyError::Timeout);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                let deadline = *self
                    .shutdown_deadline
                    .get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                if Instant::now() > deadline {
                    return Err(StreamBodyError::Timeout);
                }
            }
            match self.stream.read(&mut read_buf) {
                Ok(0) => {
                    self.disconnected = true;
                    return Err(StreamBodyError::Disconnected);
                }
                Ok(n) => self.parser.extend(&read_buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.disconnected = true;
                    return Err(StreamBodyError::Disconnected);
                }
            }
        }
    }
}

/// Run one connection to completion: parse → dispatch → respond, while
/// keep-alive holds and the server is not draining.
fn serve_connection(stream: TcpStream, ctx: &Ctx) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut parser = RequestParser::new(Limits::default());
    let mut read_buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    // Last time any request bytes arrived: the body-progress clock for
    // buffered requests (408 when a header-complete request's body
    // stalls past the progress deadline).
    let mut last_progress = Instant::now();
    // Set once the shutdown flag is observed with bytes still in
    // flight: the worker keeps reading until the request completes or
    // this deadline passes.
    let mut drain_deadline: Option<Instant> = None;
    // The in-flight request's route policy, read off its head once:
    // is its body streamed?
    let mut streamed: Option<bool> = None;

    loop {
        match parser.peek_head() {
            Ok(Some((head, _))) if streamed.is_none() => {
                streamed = Some(ctx.handler.wants_stream(&head.method, &head.path));
            }
            Ok(_) => {}
            Err(e) => {
                answer_parse_error(&mut stream, ctx, e);
                return;
            }
        }

        // The head is parsed; its body is either streamed to the
        // handler (which takes over before the body exists) or
        // buffered through the same decoder until complete.
        let answered = match streamed {
            Some(true) => {
                let head = parser
                    .begin_stream()
                    .ok()
                    .flatten()
                    .expect("head parsed above");
                let started = Instant::now();
                let mut body = SocketBody {
                    stream: &mut stream,
                    parser: &mut parser,
                    shutdown: &ctx.shutdown,
                    shutdown_deadline: None,
                    drained: false,
                    disconnected: false,
                };
                let (key, response) = ctx.handler.handle_stream(&head, &mut body, &ctx.metrics);
                if body.disconnected {
                    ctx.metrics.record(key, response.status, started.elapsed());
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                // Reuse the connection only when the body reached its
                // clean end — otherwise unread body bytes would be
                // parsed as the next request.
                let keep_alive = head.keep_alive && body.drained;
                Some((key, response, started, keep_alive))
            }
            Some(false) => match parser.try_next() {
                Ok(Some(req)) => {
                    let started = Instant::now();
                    let (key, response) = ctx.handler.handle(&req, &ctx.metrics);
                    Some((key, response, started, req.keep_alive))
                }
                Ok(None) => None,
                Err(e) => {
                    answer_parse_error(&mut stream, ctx, e);
                    return;
                }
            },
            None => None,
        };
        if let Some((key, response, started, keep_alive)) = answered {
            let keep_alive = keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
            // Record before writing: once a client holds the response,
            // its request is visible in /stats.
            ctx.metrics.record(key, response.status, started.elapsed());
            let wrote = response.write_to(&mut stream, keep_alive);
            if wrote.is_err() || !keep_alive {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            streamed = None;
            last_activity = Instant::now();
            last_progress = Instant::now();
            continue;
        }

        // No complete request buffered: decide whether to keep waiting.
        let shutting_down = ctx.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            if parser.is_empty() {
                // Nothing in flight — close immediately.
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            if Instant::now() > deadline {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        } else {
            // A header-complete request whose body has stalled past the
            // progress deadline gets a clean 408 — not a silent close at
            // keep-alive expiry.
            if streamed.is_some() && last_progress.elapsed() > BODY_PROGRESS {
                answer_parse_error(&mut stream, ctx, HttpError::RequestTimeout);
                return;
            }
            if last_activity.elapsed() > KEEP_ALIVE {
                // Idle keep-alive expiry — and, because `last_activity`
                // only resets when a *response* completes, also the
                // overall deadline for one request to finish arriving.
                // A slowloris client dribbling a byte at a time cannot
                // hold the worker past this window.
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }

        match stream.read(&mut read_buf) {
            Ok(0) => {
                // Peer closed.
                return;
            }
            Ok(n) => {
                parser.extend(&read_buf[..n]);
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}
