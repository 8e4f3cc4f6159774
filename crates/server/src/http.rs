//! Incremental HTTP/1.1 request parsing and response writing (std-only).
//!
//! The parser is push-based: the connection loop feeds it raw socket
//! bytes ([`RequestParser::extend`]) and polls [`RequestParser::try_next`],
//! which yields a complete [`Request`], `None` ("need more bytes"), or a
//! typed [`HttpError`] that maps straight to a status code:
//!
//! * `400` — malformed request line, header, `Content-Length`, repeated
//!   `Transfer-Encoding`, or chunked framing;
//! * `408` — a body stalled past its progress deadline (raised by the
//!   connection loop, which owns the clock; the parser only names it);
//! * `413` — declared or decoded body larger than the configured cap;
//! * `431` — head (request line + headers), or one chunked-body trailer
//!   line, larger than the cap;
//! * `501` — a transfer encoding other than chunked.
//!
//! Framing is strict `Content-Length` or RFC 7230 chunked transfer
//! coding (decoded transparently — `try_next` yields the de-chunked
//! body). Pipelined bytes after one request's body are kept in the
//! buffer for the next request, which is what keep-alive needs.
//!
//! # One head parse, one body decoder
//!
//! A request's head is parsed once, the first time it is complete
//! ([`RequestParser::peek_head`], which the connection loop uses to pick
//! per-route deadlines and streamed dispatch). Its body then runs
//! through one resumable decoder, fed whatever bytes have arrived, in
//! one of two modes:
//!
//! * **buffered** — [`RequestParser::try_next`] decodes into the
//!   request's body as bytes land (a trickling body is decoded once,
//!   as it arrives) and yields the request when it is complete. The decoded total is capped: `413` as soon as a chunk
//!   size would pass [`Limits::max_body_bytes`], before its data
//!   arrives.
//! * **streamed** — for routes that consume the body incrementally
//!   (the NDJSON ingest endpoint), [`RequestParser::begin_stream`]
//!   takes the head, after which [`RequestParser::next_stream_chunk`]
//!   yields decoded body pieces ([`StreamChunk::Data`]) until
//!   [`StreamChunk::End`]. A streamed body has no *total* cap — the
//!   data flows through the buffer instead of accumulating in it — but
//!   the raw buffer never grows beyond the body cap plus a fixed
//!   framing allowance (`413`).
//!
//! Both modes bound memory the same way: a chunk-size line is `400`
//! past 64 bytes, and a trailer line is `431` past
//! [`Limits::max_head_bytes`].

use std::io::Write;

/// Parser limits: how much head and body one request may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Request line + headers cap, bytes (431 beyond this).
    pub max_head_bytes: usize,
    /// Body cap, bytes (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Maximum number of header lines a request may carry.
const MAX_HEADERS: usize = 100;

/// Longest accepted chunk-size line (hex digits + extensions). A size
/// line that runs past this without a CRLF is a 400, which bounds how
/// much garbage a client can feed before the first framing decision.
const MAX_CHUNK_LINE: usize = 64;

/// Raw-buffer allowance past the body cap while a streamed body waits
/// for its handler to pull.
const CHUNK_SLACK: usize = 16 * 1024;

/// A parse-level failure, mapped to its HTTP status code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// 400 — the request is syntactically broken.
    BadRequest(&'static str),
    /// 408 — the body stalled past the route's progress deadline.
    RequestTimeout,
    /// 413 — the declared (or decoded) body exceeds the cap.
    BodyTooLarge,
    /// 431 — the head exceeds the cap (or too many headers).
    HeadersTooLarge,
    /// 501 — a transfer encoding this server does not implement.
    NotImplemented(&'static str),
}

impl HttpError {
    /// The status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::RequestTimeout => 408,
            HttpError::BodyTooLarge => 413,
            HttpError::HeadersTooLarge => 431,
            HttpError::NotImplemented(_) => 501,
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> &'static str {
        match self {
            HttpError::BadRequest(m) | HttpError::NotImplemented(m) => m,
            HttpError::RequestTimeout => "request body stalled past the progress deadline",
            HttpError::BodyTooLarge => "request body exceeds the configured limit",
            HttpError::HeadersTooLarge => "request head exceeds the configured limit",
        }
    }
}

/// How a request's body is framed on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// Exactly this many raw bytes (strict `Content-Length`).
    Length(usize),
    /// RFC 7230 chunked transfer coding, decoded by the parser.
    Chunked,
}

/// One step of a streamed body (see
/// [`RequestParser::next_stream_chunk`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamChunk {
    /// Decoded body bytes — framing never shows through.
    Data(Vec<u8>),
    /// Nothing decodable is buffered; feed more socket bytes.
    NeedMore,
    /// The body is complete; the parser is ready for the next request.
    End,
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path, query string stripped.
    pub path: String,
    /// Header list: lowercased names, trimmed values, request order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (exactly `Content-Length` of them, or the
    /// decoded chunked body; empty for a streamed head).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Where a body is in its framing grammar. A `Content-Length` body is
/// one `Data` run straight to `Done`; a chunked body cycles
/// `Size → Data → DataCrlf` per chunk and ends through `Trailers`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChunkPhase {
    /// Expecting a `SIZE[;ext]\r\n` line.
    Size,
    /// Inside a chunk's (or a `Content-Length` body's) data bytes.
    Data,
    /// Expecting the CRLF that terminates a chunk's data.
    DataCrlf,
    /// Past the zero chunk: consuming trailer lines until a blank one.
    Trailers,
    /// The body is complete; the parser is ready for the next request.
    Done,
}

/// The one body decoder: resumable state of a body's framing grammar,
/// fed whatever raw bytes have arrived. Buffered (`try_next`) and
/// streamed (`next_stream_chunk`) bodies both run through it; they
/// differ only in where decoded bytes go and whether the total is
/// capped.
#[derive(Debug)]
struct BodyDecoder {
    framing: Framing,
    /// Bytes left in the current chunk's data (or the whole
    /// `Content-Length` body).
    remaining: usize,
    phase: ChunkPhase,
}

impl BodyDecoder {
    fn new(framing: Framing) -> Self {
        let (remaining, phase) = match framing {
            Framing::Length(0) => (0, ChunkPhase::Done),
            Framing::Length(n) => (n, ChunkPhase::Data),
            Framing::Chunked => (0, ChunkPhase::Size),
        };
        BodyDecoder {
            framing,
            remaining,
            phase,
        }
    }

    fn is_done(&self) -> bool {
        self.phase == ChunkPhase::Done
    }

    /// Run the grammar over `raw` as far as it goes, appending decoded
    /// body bytes to `out`; returns how many bytes of `raw` were
    /// consumed. `cap` bounds the decoded total (`413` as soon as a
    /// chunk-size line would pass it, before its data arrives);
    /// `max_trailer` bounds one trailer line (`431`).
    fn decode(
        &mut self,
        raw: &[u8],
        out: &mut Vec<u8>,
        cap: Option<usize>,
        max_trailer: usize,
    ) -> Result<usize, HttpError> {
        let mut pos = 0;
        loop {
            let rest = &raw[pos..];
            match self.phase {
                ChunkPhase::Size => {
                    let Some(eol) = find_crlf(rest) else {
                        if rest.len() > MAX_CHUNK_LINE {
                            return Err(HttpError::BadRequest("chunk size line too long"));
                        }
                        break;
                    };
                    let size = parse_chunk_size(&rest[..eol])?;
                    if cap.is_some_and(|cap| size > cap.saturating_sub(out.len())) {
                        return Err(HttpError::BodyTooLarge);
                    }
                    pos += eol + 2;
                    if size == 0 {
                        self.phase = ChunkPhase::Trailers;
                    } else {
                        self.remaining = size;
                        self.phase = ChunkPhase::Data;
                    }
                }
                ChunkPhase::Data => {
                    if rest.is_empty() {
                        break;
                    }
                    let take = self.remaining.min(rest.len());
                    out.extend_from_slice(&rest[..take]);
                    pos += take;
                    self.remaining -= take;
                    if self.remaining == 0 {
                        self.phase = match self.framing {
                            Framing::Length(_) => ChunkPhase::Done,
                            Framing::Chunked => ChunkPhase::DataCrlf,
                        };
                    }
                }
                ChunkPhase::DataCrlf => {
                    if rest.len() < 2 {
                        break;
                    }
                    if &rest[..2] != b"\r\n" {
                        return Err(HttpError::BadRequest("chunk data not terminated by CRLF"));
                    }
                    pos += 2;
                    self.phase = ChunkPhase::Size;
                }
                ChunkPhase::Trailers => {
                    let Some(eol) = find_crlf(rest) else {
                        if rest.len() > max_trailer {
                            return Err(HttpError::HeadersTooLarge);
                        }
                        break;
                    };
                    // Trailer header lines are consumed and ignored.
                    pos += eol + 2;
                    if eol == 0 {
                        self.phase = ChunkPhase::Done;
                    }
                }
                ChunkPhase::Done => break,
            }
        }
        Ok(pos)
    }
}

/// Incremental request parser over a growable byte buffer.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    limits: Limits,
    /// The buffered-mode request whose head is parsed: the head is
    /// parsed once, and its body decodes into `Request::body` as bytes
    /// arrive.
    pending: Option<(Request, BodyDecoder)>,
    /// Set while a streamed body is being consumed (between
    /// `begin_stream` and `StreamChunk::End`).
    stream: Option<BodyDecoder>,
}

impl RequestParser {
    /// A parser enforcing `limits`.
    pub fn new(limits: Limits) -> Self {
        RequestParser {
            buf: Vec::new(),
            limits,
            pending: None,
            stream: None,
        }
    }

    /// Feed raw socket bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no request is in flight and no unconsumed bytes are
    /// buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.pending.is_none() && self.stream.is_none()
    }

    /// True when the next request's head is complete (parsed or just
    /// buffered), even if its body has not finished arriving.
    pub fn head_complete(&self) -> bool {
        self.pending.is_some() || find_head_end(&self.buf).is_some()
    }

    /// The next request's head, parsed off the buffer the first time
    /// it is complete and kept until `try_next` or `begin_stream` takes
    /// the request: the [`Request`] carries the body decoded so far,
    /// plus the body [`Framing`] the wire declared. The connection loop
    /// uses this to pick per-route deadlines and streamed dispatch
    /// before the body exists. `Ok(None)` means the head is incomplete.
    pub fn peek_head(&mut self) -> Result<Option<(&Request, Framing)>, HttpError> {
        debug_assert!(
            self.stream.is_none(),
            "peek_head during an active body stream"
        );
        if self.pending.is_none() {
            let Some((head_len, request, framing)) = self.parse_head()? else {
                return Ok(None);
            };
            self.buf.drain(..head_len);
            self.pending = Some((request, BodyDecoder::new(framing)));
        }
        Ok(self.pending.as_ref().map(|(r, d)| (r, d.framing)))
    }

    /// Try to complete the next request: parse its head (once) and
    /// decode whatever body bytes have arrived since the last call.
    ///
    /// `Ok(None)` means "incomplete — feed more bytes". Errors are
    /// terminal for the connection: the buffer state is unspecified
    /// afterwards and the caller should answer and close.
    pub fn try_next(&mut self) -> Result<Option<Request>, HttpError> {
        if self.peek_head()?.is_none() {
            return Ok(None);
        }
        let (request, decoder) = self.pending.as_mut().expect("head parsed above");
        let used = decoder.decode(
            &self.buf,
            &mut request.body,
            Some(self.limits.max_body_bytes),
            self.limits.max_head_bytes,
        )?;
        // Pipelined bytes after the body stay for the next request.
        self.buf.drain(..used);
        if !decoder.is_done() {
            return Ok(None);
        }
        Ok(self.pending.take().map(|(request, _)| request))
    }

    /// Take the next request's head and switch into streamed-body
    /// mode: subsequent [`Self::next_stream_chunk`] calls yield the
    /// decoded body incrementally. Returns the head as a [`Request`]
    /// with an empty body, or `None` when the head is incomplete.
    pub fn begin_stream(&mut self) -> Result<Option<Request>, HttpError> {
        if self.peek_head()?.is_none() {
            return Ok(None);
        }
        let (request, decoder) = self.pending.take().expect("head parsed above");
        self.stream = Some(decoder);
        Ok(Some(request))
    }

    /// Decode the next piece of a streamed body. Call only between
    /// [`Self::begin_stream`] and the [`StreamChunk::End`] it ends on;
    /// after `End` the parser is back in normal (`try_next`) mode with
    /// any pipelined bytes intact. A streamed body has no total cap.
    pub fn next_stream_chunk(&mut self) -> Result<StreamChunk, HttpError> {
        // The raw buffer must never grow unboundedly even if the
        // handler pulls slower than the socket fills.
        if self.buf.len() > self.limits.max_body_bytes + CHUNK_SLACK {
            return Err(HttpError::BodyTooLarge);
        }
        let Some(decoder) = self.stream.as_mut() else {
            return Err(HttpError::BadRequest("no streamed body is active"));
        };
        let mut data = Vec::new();
        let used = decoder.decode(&self.buf, &mut data, None, self.limits.max_head_bytes)?;
        self.buf.drain(..used);
        if !data.is_empty() {
            Ok(StreamChunk::Data(data))
        } else if decoder.is_done() {
            self.stream = None;
            Ok(StreamChunk::End)
        } else {
            Ok(StreamChunk::NeedMore)
        }
    }

    /// Parse the head (request line + headers + framing) off the front
    /// of the buffer without consuming it: `(head length including the
    /// blank line, head with an empty body, framing)`. `Ok(None)` =
    /// incomplete.
    fn parse_head(&self) -> Result<Option<(usize, Request, Framing)>, HttpError> {
        let Some(head_len) = find_head_end(&self.buf) else {
            if self.buf.len() > self.limits.max_head_bytes {
                return Err(HttpError::HeadersTooLarge);
            }
            return Ok(None);
        };
        if head_len > self.limits.max_head_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let (method, path, version_11) = parse_request_line(request_line)?;

        let mut headers = Vec::with_capacity(8);
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::HeadersTooLarge);
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadRequest("header line without a colon"))?;
            if name.is_empty() || name.contains(' ') || name.contains('\t') {
                return Err(HttpError::BadRequest("malformed header name"));
            }
            let mut name = name.to_string();
            name.make_ascii_lowercase();
            headers.push((name, value.trim().to_string()));
        }

        // RFC 7230 §3.3.2: conflicting Content-Length values are a
        // smuggling vector (a proxy may frame by one, us by another) —
        // reject duplicates outright unless they agree. A repeated
        // Transfer-Encoding line is the same ambiguity (which coding
        // is outermost?), so it is rejected too.
        let mut content_length: Option<usize> = None;
        let mut transfer_encoding: Option<&str> = None;
        for (name, value) in &headers {
            match name.as_str() {
                "content-length" => {
                    let parsed = value
                        .parse::<usize>()
                        .map_err(|_| HttpError::BadRequest("unparseable Content-Length"))?;
                    if content_length.is_some_and(|prev| prev != parsed) {
                        return Err(HttpError::BadRequest("conflicting Content-Length headers"));
                    }
                    content_length = Some(parsed);
                }
                "transfer-encoding" => {
                    if transfer_encoding.is_some() {
                        return Err(HttpError::BadRequest("repeated Transfer-Encoding headers"));
                    }
                    transfer_encoding = Some(value);
                }
                _ => {}
            }
        }
        let framing = match transfer_encoding {
            // Transfer-Encoding alongside Content-Length is the other
            // half of the same smuggling vector — reject it outright
            // instead of picking a winner.
            Some(v) if v.eq_ignore_ascii_case("chunked") => {
                if content_length.is_some() {
                    return Err(HttpError::BadRequest(
                        "both Transfer-Encoding and Content-Length present",
                    ));
                }
                Framing::Chunked
            }
            Some(_) => {
                return Err(HttpError::NotImplemented(
                    "only the chunked transfer encoding is supported",
                ))
            }
            None => Framing::Length(content_length.unwrap_or(0)),
        };
        if let Framing::Length(n) = framing {
            if n > self.limits.max_body_bytes {
                return Err(HttpError::BodyTooLarge);
            }
        }

        // Header values kept their original case; match Connection
        // tokens case-insensitively without allocating.
        let keep_alive = match header_value(&headers, "connection") {
            Some(v) if contains_ignore_case(v, "close") => false,
            Some(v) if contains_ignore_case(v, "keep-alive") => true,
            _ => version_11,
        };
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body: Vec::new(),
            keep_alive,
        };
        // Head ends with "\r\n\r\n": the body starts 4 bytes past.
        Ok(Some((head_len + 4, request, framing)))
    }
}

/// Parse one `SIZE[;extensions]` chunk-size line (sans CRLF).
fn parse_chunk_size(line: &[u8]) -> Result<usize, HttpError> {
    if line.len() > MAX_CHUNK_LINE {
        return Err(HttpError::BadRequest("chunk size line too long"));
    }
    let line = std::str::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("chunk size line is not valid UTF-8"))?;
    // Chunk extensions (";name=value") are legal; ignore them.
    let size = line.split(';').next().unwrap_or("").trim();
    usize::from_str_radix(size, 16).map_err(|_| HttpError::BadRequest("unparseable chunk size"))
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Offset of the next `\r\n`, if present.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// ASCII case-insensitive substring search (header token lists are
/// short; the quadratic worst case cannot bite).
fn contains_ignore_case(haystack: &str, needle: &str) -> bool {
    haystack
        .as_bytes()
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Split `METHOD SP PATH SP VERSION`; returns (method, path-sans-query,
/// is-HTTP/1.1).
fn parse_request_line(line: &str) -> Result<(&str, &str, bool), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest("malformed request line"));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("malformed method token"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest("request target must be a path"));
    }
    let version_11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
    };
    let path = target.split('?').next().unwrap_or(target);
    Ok((method, path, version_11))
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response ready to serialize onto the socket.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    content_type: String,
    /// Extra headers beyond the framing set (e.g. `Retry-After`).
    headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// A complete pre-serialized response (head + body) relayed
    /// verbatim from a backend — the router's hot path. When set,
    /// `write_to` sends these bytes untouched instead of composing a
    /// head from the fields above.
    relay: Option<Vec<u8>>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            relay: None,
        }
    }

    /// An `application/json` response from any wire DTO.
    pub fn json<T: serde::Serialize>(status: u16, value: &T) -> Self {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: serde_json::to_vec(value).expect("wire DTOs always serialize"),
            relay: None,
        }
    }

    /// A response with explicit content type and raw body bytes — the
    /// proxy passthrough path (no re-serialization of backend bodies).
    pub fn raw(status: u16, content_type: impl Into<String>, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type: content_type.into(),
            headers: Vec::new(),
            body,
            relay: None,
        }
    }

    /// A backend response relayed verbatim: `raw` is the complete wire
    /// bytes (status line through body) exactly as the backend sent
    /// them, and `status` is carried alongside for error accounting.
    /// Skips the router-side head re-serialization entirely.
    pub fn relay(status: u16, raw: Vec<u8>) -> Self {
        Response {
            status,
            content_type: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
            relay: Some(raw),
        }
    }

    /// Attach one extra response header (e.g. `Retry-After`).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// The standard error body: `{"error":{"code":…,"message":…}}`.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        // Built as a Value tree so string escaping is serde_json's,
        // not a second hand-rolled escaper that can drift.
        let body = serde_json::Value::Map(vec![(
            "error".to_string(),
            serde_json::Value::Map(vec![
                ("code".to_string(), serde_json::Value::Str(code.to_string())),
                (
                    "message".to_string(),
                    serde_json::Value::Str(message.to_string()),
                ),
            ]),
        )]);
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: serde_json::value_to_string(&body).into_bytes(),
            relay: None,
        }
    }

    /// Serialize head + body in one write. `keep_alive` decides the
    /// `Connection` header and must match what the connection loop
    /// actually does afterwards.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        if let Some(raw) = &self.relay {
            // Relayed verbatim, including the backend's own Connection
            // header. The connection loop still applies its own
            // keep-alive decision afterwards; RFC 7230 §6.5 permits a
            // server to close a connection it advertised as persistent,
            // so the rare mismatch stays within spec.
            return w.write_all(raw);
        }
        let mut out = Vec::with_capacity(self.body.len() + 128);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
                self.status,
                reason(self.status),
                self.content_type,
                self.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new(Limits::default());
        p.extend(raw);
        p.try_next()
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse_one(b"GET /video/7/dots?x=1 HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/video/7/dots");
        assert_eq!(req.header("host"), Some("h"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_and_keeps_pipelined_bytes() {
        let mut p = RequestParser::new(Limits::default());
        p.extend(b"POST /sessions HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n");
        let first = p.try_next().unwrap().unwrap();
        assert_eq!(first.body, b"abcd");
        let second = p.try_next().unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(p.is_empty());
    }

    #[test]
    fn incremental_feeding_yields_one_request() {
        let raw = b"POST /sessions HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut p = RequestParser::new(Limits::default());
        for chunk in raw.chunks(7) {
            p.extend(chunk);
        }
        // Everything buffered now; a single poll must yield the request.
        let req = p.try_next().unwrap().unwrap();
        assert_eq!(req.body, b"hello");

        // And byte-by-byte: Incomplete until the last byte.
        let mut p = RequestParser::new(Limits::default());
        for &b in &raw[..raw.len() - 1] {
            p.extend(&[b]);
            assert!(p.try_next().unwrap().is_none());
        }
        p.extend(&raw[raw.len() - 1..]);
        assert!(p.try_next().unwrap().is_some());
    }

    #[test]
    fn malformed_inputs_map_to_400() {
        for raw in [
            &b"NOT A REQUEST\r\n\r\n"[..],
            b"get /lower HTTP/1.1\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: gzip\r\n\r\n",
        ] {
            match parse_one(raw) {
                Err(e) => assert_eq!(e.status(), 400, "{:?} for {:?}", e, raw),
                other => panic!("expected 400 for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_head_maps_to_431() {
        let mut p = RequestParser::new(Limits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
        });
        p.extend(b"GET /x HTTP/1.1\r\nX-Big: ");
        p.extend(&[b'a'; 100]);
        assert_eq!(p.try_next(), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn oversized_body_maps_to_413() {
        let mut p = RequestParser::new(Limits {
            max_head_bytes: 1024,
            max_body_bytes: 8,
        });
        p.extend(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n");
        assert_eq!(p.try_next(), Err(HttpError::BodyTooLarge));
    }

    #[test]
    fn conflicting_content_lengths_map_to_400() {
        // Disagreeing duplicates: the smuggling vector — reject.
        let err =
            parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 100\r\n\r\nAAAAA")
                .unwrap_err();
        assert_eq!(err.status(), 400);
        // Agreeing duplicates are tolerated (same framing either way).
        let req =
            parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nAAAAA")
                .unwrap()
                .unwrap();
        assert_eq!(req.body, b"AAAAA");
        // A comma-folded list is unparseable as one integer — reject.
        let err = parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nAAAAA").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn error_body_is_escaped_json() {
        let resp = Response::error(400, "bad_request", "a \"quoted\"\nmessage");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(
            body,
            r#"{"error":{"code":"bad_request","message":"a \"quoted\"\nmessage"}}"#
        );
    }

    #[test]
    fn chunked_bodies_decode_buffered() {
        let req = parse_one(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"hello world");

        // Trailer headers after the zero chunk are consumed, and
        // pipelined bytes after the body survive for the next request.
        let mut p = RequestParser::new(Limits::default());
        p.extend(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              2\r\nok\r\n0\r\nX-Trailer: v\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
        );
        let first = p.try_next().unwrap().unwrap();
        assert_eq!(first.body, b"ok");
        let second = p.try_next().unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(p.is_empty());
    }

    #[test]
    fn chunked_bodies_decode_incrementally() {
        let raw: &[u8] = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                           3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n";
        let mut p = RequestParser::new(Limits::default());
        for &b in &raw[..raw.len() - 1] {
            p.extend(&[b]);
            assert!(p.try_next().unwrap().is_none());
        }
        p.extend(&raw[raw.len() - 1..]);
        let req = p.try_next().unwrap().unwrap();
        assert_eq!(req.body, b"abcdefg");
    }

    #[test]
    fn chunked_framing_failures_are_typed() {
        // Unparseable chunk size → 400.
        let err = parse_one(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
        // Chunk data not CRLF-terminated → 400.
        let err = parse_one(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n",
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
        // A size line that never ends → 400 after MAX_CHUNK_LINE.
        let mut p = RequestParser::new(Limits::default());
        p.extend(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        p.extend(&[b'1'; MAX_CHUNK_LINE + 8]);
        assert_eq!(p.try_next().unwrap_err().status(), 400);
        // Decoded body past the cap → 413, even before the terminal
        // chunk arrives.
        let mut p = RequestParser::new(Limits {
            max_head_bytes: 1024,
            max_body_bytes: 8,
        });
        p.extend(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nAAAAAAAAA\r\n");
        assert_eq!(p.try_next(), Err(HttpError::BodyTooLarge));
    }

    /// Feed `wire` in pieces sized by cycling `splits`, calling `poll`
    /// after every piece until it yields a value (the rest of `wire` is
    /// then fed at once) or an error.
    fn feed_until<T>(
        p: &mut RequestParser,
        wire: &[u8],
        splits: &[usize],
        mut poll: impl FnMut(&mut RequestParser) -> Result<Option<T>, HttpError>,
    ) -> Result<Option<T>, HttpError> {
        let mut fed = 0;
        for &n in splits.iter().cycle() {
            let end = (fed + n.max(1)).min(wire.len());
            p.extend(&wire[fed..end]);
            fed = end;
            if let Some(v) = poll(p)? {
                p.extend(&wire[fed..]);
                return Ok(Some(v));
            }
            if fed == wire.len() {
                return Ok(None);
            }
        }
        unreachable!("splits is never empty")
    }

    /// Buffered mode: the first request (with body) and the pipelined
    /// request after it.
    fn run_buffered(
        wire: &[u8],
        splits: &[usize],
        limits: Limits,
    ) -> Result<(Request, Request), HttpError> {
        let mut p = RequestParser::new(limits);
        let first = feed_until(&mut p, wire, splits, RequestParser::try_next)?
            .expect("request completes once every byte is fed");
        let next = p.try_next()?.expect("pipelined request is intact");
        Ok((first, next))
    }

    /// Streamed mode: the concatenated `Data` pieces and the pipelined
    /// request after `End`.
    fn run_streamed(
        wire: &[u8],
        splits: &[usize],
        limits: Limits,
    ) -> Result<(Vec<u8>, Request), HttpError> {
        let mut p = RequestParser::new(limits);
        let mut begun = false;
        let mut body = Vec::new();
        let ended = feed_until(&mut p, wire, splits, |p| {
            if !begun {
                if p.begin_stream()?.is_none() {
                    return Ok(None);
                }
                begun = true;
            }
            loop {
                match p.next_stream_chunk()? {
                    StreamChunk::Data(data) => body.extend_from_slice(&data),
                    StreamChunk::NeedMore => return Ok(None),
                    StreamChunk::End => return Ok(Some(())),
                }
            }
        })?;
        assert!(ended.is_some(), "stream ends once every byte is fed");
        let next = p.try_next()?.expect("pipelined request is intact");
        Ok((body, next))
    }

    /// Chunk-encode `body` into chunks sized by cycling `sizes`, with
    /// chunk extensions, hex-case variation and trailers driven by the
    /// bits of `style`.
    fn chunk_encode(body: &[u8], sizes: &[usize], style: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut rest = body;
        let mut bit = 0u32;
        let mut flip = || {
            bit = (bit + 1) % 64;
            style >> bit & 1 == 1
        };
        for &n in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (data, tail) = rest.split_at(n.max(1).min(rest.len()));
            rest = tail;
            let size = if flip() {
                format!("{:X}", data.len())
            } else {
                format!("{:x}", data.len())
            };
            out.extend_from_slice(size.as_bytes());
            if flip() {
                out.extend_from_slice(b";ext=v;flag");
            }
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(data);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(if flip() { b"0;last\r\n" } else { b"0\r\n" });
        for i in 0..(style % 3) {
            out.extend_from_slice(format!("X-Trailer-{i}: v\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn buffered_and_streamed_decoding_agree(
            body in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..2048),
            sizes in proptest::collection::vec(1usize..300, 1..16),
            style in proptest::arbitrary::any::<u64>(),
            splits in proptest::collection::vec(1usize..200, 1..32),
        ) {
            let mut wire = if style >> 63 == 1 {
                let mut w = format!(
                    "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                w.extend_from_slice(&body);
                w
            } else {
                let mut w = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
                w.extend_from_slice(&chunk_encode(&body, &sizes, style));
                w
            };
            wire.extend_from_slice(b"GET /next HTTP/1.1\r\nHost: h\r\n\r\n");

            let (buffered, next_b) = run_buffered(&wire, &splits, Limits::default()).unwrap();
            let (streamed, next_s) = run_streamed(&wire, &splits, Limits::default()).unwrap();
            proptest::prop_assert_eq!(&buffered.body, &body);
            proptest::prop_assert_eq!(&streamed, &body);
            for next in [next_b, next_s] {
                proptest::prop_assert_eq!(next.path.as_str(), "/next");
                proptest::prop_assert_eq!(next.header("host"), Some("h"));
                proptest::prop_assert!(next.body.is_empty());
            }
        }

        #[test]
        fn malformed_framing_fails_alike_in_both_modes(
            splits in proptest::collection::vec(1usize..40, 1..16),
        ) {
            let head = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            let limits = Limits {
                max_head_bytes: 64,
                max_body_bytes: 1024,
            };
            let cases: [(&[u8], HttpError); 4] = [
                // The failures of `chunked_framing_failures_are_typed`…
                (b"zz\r\nhello\r\n0\r\n\r\n", HttpError::BadRequest("unparseable chunk size")),
                (
                    b"5\r\nhelloXX0\r\n\r\n",
                    HttpError::BadRequest("chunk data not terminated by CRLF"),
                ),
                (&[b'1'; MAX_CHUNK_LINE + 8], HttpError::BadRequest("chunk size line too long")),
                // …and a trailer line past the head cap.
                (&[b"2\r\nok\r\n0\r\nX-Big: ".as_slice(), &[b'a'; 80]].concat(), HttpError::HeadersTooLarge),
            ];
            for (body, expected) in cases {
                let wire = [head.as_slice(), body].concat();
                proptest::prop_assert_eq!(run_buffered(&wire, &splits, limits).unwrap_err(), expected);
                proptest::prop_assert_eq!(run_streamed(&wire, &splits, limits).unwrap_err(), expected);
            }

            // The decoded-body cap is buffered-only: 413 at the size
            // line, while a stream carries the same body through.
            let capped = Limits {
                max_head_bytes: 1024,
                max_body_bytes: 8,
            };
            let wire = [
                head.as_slice(),
                b"9\r\nAAAAAAAAA\r\n0\r\n\r\nGET /next HTTP/1.1\r\n\r\n",
            ]
            .concat();
            proptest::prop_assert_eq!(run_buffered(&wire, &splits, capped).unwrap_err(), HttpError::BodyTooLarge);
            proptest::prop_assert_eq!(run_streamed(&wire, &splits, capped).unwrap().0, b"AAAAAAAAA");
        }
    }

    #[test]
    fn unknown_transfer_encodings_map_to_501() {
        let err = parse_one(b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
        // chunked + Content-Length is the smuggling pairing → 400.
        let err = parse_one(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n",
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn streamed_bodies_yield_decoded_chunks() {
        let mut p = RequestParser::new(Limits::default());
        p.extend(b"POST /sessions/stream HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(p.head_complete());
        let (head, framing) = p.peek_head().unwrap().unwrap();
        assert_eq!(framing, Framing::Chunked);
        assert_eq!(head.path, "/sessions/stream");
        let head = p.begin_stream().unwrap().unwrap();
        assert_eq!(head.method, "POST");
        assert!(head.body.is_empty());

        assert_eq!(p.next_stream_chunk(), Ok(StreamChunk::NeedMore));
        p.extend(b"5\r\nline1\r\n");
        assert_eq!(
            p.next_stream_chunk(),
            Ok(StreamChunk::Data(b"line1".to_vec()))
        );
        // Split a chunk across feeds: data arrives as it lands.
        p.extend(b"6\r\n\nli");
        assert_eq!(
            p.next_stream_chunk(),
            Ok(StreamChunk::Data(b"\nli".to_vec()))
        );
        p.extend(b"ne2\r\n0\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(
            p.next_stream_chunk(),
            Ok(StreamChunk::Data(b"ne2".to_vec()))
        );
        assert_eq!(p.next_stream_chunk(), Ok(StreamChunk::End));
        // Back in normal mode with the pipelined request intact.
        let next = p.try_next().unwrap().unwrap();
        assert_eq!(next.path, "/healthz");
    }

    #[test]
    fn streamed_length_bodies_work_too() {
        let mut p = RequestParser::new(Limits::default());
        p.extend(b"POST /sessions/stream HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello");
        let head = p.begin_stream().unwrap().unwrap();
        assert_eq!(head.path, "/sessions/stream");
        assert_eq!(
            p.next_stream_chunk(),
            Ok(StreamChunk::Data(b"hello".to_vec()))
        );
        assert_eq!(p.next_stream_chunk(), Ok(StreamChunk::NeedMore));
        p.extend(b"world");
        assert_eq!(
            p.next_stream_chunk(),
            Ok(StreamChunk::Data(b"world".to_vec()))
        );
        assert_eq!(p.next_stream_chunk(), Ok(StreamChunk::End));
        assert!(p.is_empty());
    }

    #[test]
    fn request_timeout_maps_to_408() {
        assert_eq!(HttpError::RequestTimeout.status(), 408);
        assert_eq!(reason(408), "Request Timeout");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = parse_one(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close.keep_alive);
        let old = parse_one(b"GET /x HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!old.keep_alive);
        let old_ka = parse_one(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn extra_headers_and_raw_bodies_serialize() {
        let mut out = Vec::new();
        Response::raw(503, "application/json", b"{}".to_vec())
            .with_header("Retry-After", "2")
            .write_to(&mut out, false)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{s}");
        assert!(s.contains("Retry-After: 2\r\n"), "{s}");
        assert!(s.contains("Content-Type: application/json\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\n{}"), "{s}");
        assert_eq!(reason(502), "Bad Gateway");
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        Response::text(200, "ok").write_to(&mut out, true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 2\r\n"), "{s}");
        assert!(s.contains("Connection: keep-alive\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\nok"), "{s}");
    }
}
