//! A tiny std-only HTTP/1.1 client used by the router's proxy path, the
//! integration tests, benches, and the browser-extension example.
//!
//! One [`HttpClient`] is one keep-alive TCP connection: every request
//! reuses the stream until the server answers `Connection: close` (the
//! caller can check [`ClientResponse::closed`] and reconnect).
//! [`HttpClient::send_raw`] writes arbitrary bytes, which is how the
//! malformed-input tests provoke 400/413/431 responses.
//!
//! Failures are the typed [`ClientError`]: the router's retry loop needs
//! to distinguish transport errors (worth a retry on an idempotent GET)
//! from a response that parsed — and a *lying* response (body longer
//! than `Content-Length`, or a connection closed mid-body) must never
//! surface as a truncated success.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Why a request failed. Everything here is a transport- or framing-
/// level failure: a response that arrives and parses is returned as a
/// [`ClientResponse`] whatever its status code.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level I/O failure (connect refused, reset, …).
    Io(std::io::Error),
    /// The read or connect timed out (or a deadline expired).
    Timeout,
    /// The status line or a header did not parse.
    MalformedHead(String),
    /// The `Content-Length` response header did not parse.
    BadContentLength,
    /// The server closed the connection before a full response head.
    ClosedBeforeHead,
    /// The server closed the connection before `Content-Length` bytes
    /// of body arrived — the truncated read is NOT a success.
    ClosedMidBody {
        /// Body bytes that did arrive.
        got: usize,
        /// Bytes `Content-Length` promised.
        expected: usize,
    },
    /// The server sent bytes past the declared `Content-Length`. This
    /// client never pipelines, so trailing bytes mean the response
    /// framing lies and the body cannot be trusted.
    ExcessBody {
        /// Unsolicited bytes observed past the declared body.
        extra: usize,
    },
}

impl ClientError {
    /// Whether retrying the request could help: the failure happened at
    /// the transport level, before (or instead of) a parseable
    /// response. Framing lies ([`ClientError::ExcessBody`],
    /// [`ClientError::MalformedHead`], …) are server bugs — retrying
    /// the same backend would get the same lie.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Timeout
                | ClientError::ClosedBeforeHead
                | ClientError::ClosedMidBody { .. }
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::MalformedHead(detail) => write!(f, "malformed response head: {detail}"),
            ClientError::BadContentLength => {
                write!(f, "unparseable Content-Length in response")
            }
            ClientError::ClosedBeforeHead => {
                write!(f, "connection closed before a full response head")
            }
            ClientError::ClosedMidBody { got, expected } => {
                write!(f, "connection closed mid-body ({got} of {expected} bytes)")
            }
            ClientError::ExcessBody { extra } => write!(
                f,
                "{extra} unsolicited byte(s) past the declared Content-Length"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::Timeout,
            _ => ClientError::Io(e),
        }
    }
}

impl From<ClientError> for std::io::Error {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Io(io) => io,
            ClientError::Timeout => {
                std::io::Error::new(std::io::ErrorKind::TimedOut, e.to_string())
            }
            ClientError::ClosedBeforeHead | ClientError::ClosedMidBody { .. } => {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, e.to_string())
            }
            ClientError::MalformedHead(_)
            | ClientError::BadContentLength
            | ClientError::ExcessBody { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// A parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers: lowercased names, response order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on non-UTF-8; responses here are JSON
    /// or plain text).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }

    /// Deserialize the JSON body into a wire DTO.
    pub fn json<T: serde::Deserialize>(&self) -> serde_json::Result<T> {
        serde_json::from_slice(&self.body)
    }

    /// True when the server signalled it will close the connection.
    pub fn closed(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The `Retry-After` header as a duration, when present and
    /// parseable (integer seconds — the only form this stack emits).
    /// A 503 fast-fail carrying this header tells a retrying caller
    /// *when* the shard expects to be probed again; honoring it beats
    /// burning retry budget on the next blind backoff tick.
    pub fn retry_after(&self) -> Option<Duration> {
        self.header("retry-after")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_secs)
    }
}

/// A response captured as raw wire bytes for verbatim relay, plus the
/// minimum the proxy needs to route it: status (error accounting),
/// body offset (the rare caller that must parse the body), and whether
/// the server is closing the connection (pooling).
#[derive(Clone, Debug)]
pub struct RelayResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Offset of the body within `raw`.
    pub body_start: usize,
    /// True when the server signalled `Connection: close`.
    pub closed: bool,
    /// The complete response, head and body, exactly as received.
    pub raw: Vec<u8>,
}

impl RelayResponse {
    /// The body bytes (exactly `Content-Length` of them).
    pub fn body(&self) -> &[u8] {
        &self.raw[self.body_start..]
    }

    /// The `Retry-After` header as a duration, scanned from the raw
    /// head (the relay path never builds a header list). Same
    /// integer-seconds contract as [`ClientResponse::retry_after`].
    pub fn retry_after(&self) -> Option<Duration> {
        let head = std::str::from_utf8(&self.raw[..self.body_start]).ok()?;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("retry-after") {
                    return value.trim().parse::<u64>().ok().map(Duration::from_secs);
                }
            }
        }
        None
    }
}

/// One keep-alive connection to the server.
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the previous response head/body while draining
    /// the socket.
    buf: Vec<u8>,
    read_timeout: Duration,
    /// The timeout currently programmed into the socket — tracked so
    /// the hot path can skip the `setsockopt` syscall when the socket
    /// is already close enough to the remaining deadline budget.
    effective_timeout: Duration,
}

impl HttpClient {
    /// Connect to `addr` with sane test timeouts (2 s connect, 10 s
    /// reads).
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with(addr, Duration::from_secs(2), Duration::from_secs(10))
    }

    /// Connect to `addr` with explicit connect and read timeouts.
    pub fn connect_with(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
            read_timeout,
            effective_timeout: read_timeout,
        })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, ClientError> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, json: &str) -> Result<ClientResponse, ClientError> {
        self.request("POST", path, Some(json.as_bytes()))
    }

    /// Send one request and read its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, ClientError> {
        self.send_raw(&Self::encode(method, path, body))
    }

    /// Send one request that must complete (head and body fully read)
    /// before `deadline` — the router's per-request budget. The read
    /// timeout shrinks to the remaining budget before every read; an
    /// expired deadline is [`ClientError::Timeout`].
    pub fn request_deadline(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        deadline: Instant,
    ) -> Result<ClientResponse, ClientError> {
        let raw = Self::encode(method, path, body);
        self.stream.write_all(&raw)?;
        let result = self.read_response(Some(deadline));
        self.restore_timeout()?;
        result
    }

    /// Like [`Self::request_deadline`], but captures the response as
    /// raw bytes for verbatim relay — the router's hot path. Skips the
    /// per-header allocations of the full parse: only the status line
    /// and the framing headers are examined.
    pub fn request_relay(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        deadline: Instant,
    ) -> Result<RelayResponse, ClientError> {
        let raw = Self::encode(method, path, body);
        self.stream.write_all(&raw)?;
        let result = self.read_relay(Some(deadline));
        self.restore_timeout()?;
        result
    }

    /// Restore the configured steady-state timeout after a deadline
    /// read — unless the deadline path never reprogrammed the socket.
    fn restore_timeout(&mut self) -> Result<(), ClientError> {
        if self.effective_timeout != self.read_timeout {
            self.stream.set_read_timeout(Some(self.read_timeout))?;
            self.effective_timeout = self.read_timeout;
        }
        Ok(())
    }

    fn encode(method: &str, path: &str, body: Option<&[u8]>) -> Vec<u8> {
        use std::io::Write as _;
        let body = body.unwrap_or(&[]);
        let mut raw = Vec::with_capacity(64 + method.len() + path.len() + body.len());
        write!(
            raw,
            "{method} {path} HTTP/1.1\r\nHost: lightor\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .expect("writing to a Vec never fails");
        raw.extend_from_slice(body);
        raw
    }

    /// Write raw bytes (possibly a malformed request) and read one
    /// response back.
    pub fn send_raw(&mut self, raw: &[u8]) -> Result<ClientResponse, ClientError> {
        self.stream.write_all(raw)?;
        self.read_response(None)
    }

    /// Begin a chunked-transfer request: writes the head with
    /// `Transfer-Encoding: chunked` and no `Content-Length`. Follow
    /// with [`Self::send_chunk`] calls, then read the response with
    /// [`Self::finish_chunked`] (or its relay twin).
    pub fn start_chunked(&mut self, method: &str, path: &str) -> Result<(), ClientError> {
        use std::io::Write as _;
        let mut raw = Vec::with_capacity(96 + method.len() + path.len());
        write!(
            raw,
            "{method} {path} HTTP/1.1\r\nHost: lightor\r\nTransfer-Encoding: chunked\r\n\r\n"
        )
        .expect("writing to a Vec never fails");
        self.stream.write_all(&raw)?;
        Ok(())
    }

    /// Send one chunk frame of an in-flight chunked request. Empty
    /// data is a no-op (a zero-size frame would terminate the body).
    pub fn send_chunk(&mut self, data: &[u8]) -> Result<(), ClientError> {
        if data.is_empty() {
            return Ok(());
        }
        use std::io::Write as _;
        let mut frame = Vec::with_capacity(data.len() + 16);
        write!(frame, "{:x}\r\n", data.len()).expect("writing to a Vec never fails");
        frame.extend_from_slice(data);
        frame.extend_from_slice(b"\r\n");
        self.stream.write_all(&frame)?;
        Ok(())
    }

    /// Terminate an in-flight chunked request (the zero chunk) and read
    /// the response, which must complete before `deadline`.
    pub fn finish_chunked(&mut self, deadline: Instant) -> Result<ClientResponse, ClientError> {
        self.stream.write_all(b"0\r\n\r\n")?;
        let result = self.read_response(Some(deadline));
        self.restore_timeout()?;
        result
    }

    /// [`Self::finish_chunked`] capturing the response as raw relay
    /// bytes — the router's streamed-upload hop.
    pub fn finish_chunked_relay(
        &mut self,
        deadline: Instant,
    ) -> Result<RelayResponse, ClientError> {
        self.stream.write_all(b"0\r\n\r\n")?;
        let result = self.read_relay(Some(deadline));
        self.restore_timeout()?;
        result
    }

    /// Read one relay response without sending anything first — used
    /// when a send failed mid-stream because the server answered early
    /// (a mid-stream 503/422) and stopped reading.
    pub fn read_early_relay(&mut self, deadline: Instant) -> Result<RelayResponse, ClientError> {
        let result = self.read_relay(Some(deadline));
        self.restore_timeout()?;
        result
    }

    /// The underlying stream, for tests that need to write a partial
    /// request without reading a response yet.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// One socket read, honouring `deadline` when set. Returns the
    /// number of bytes read (0 = orderly EOF).
    fn read_chunk(
        &mut self,
        chunk: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<usize, ClientError> {
        let Some(deadline) = deadline else {
            return Ok(self.stream.read(chunk)?);
        };
        // The socket timeout only has to *approximate* the remaining
        // budget: a small overshoot lets the hot path (deadline ≈ the
        // steady-state timeout) skip the setsockopt syscall entirely,
        // and an undershoot just means the read returns early and the
        // loop re-checks the clock.
        const SLACK: Duration = Duration::from_millis(5);
        loop {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(ClientError::Timeout);
            };
            if remaining.is_zero() {
                return Err(ClientError::Timeout);
            }
            if self.effective_timeout > remaining + SLACK || self.effective_timeout.is_zero() {
                self.stream.set_read_timeout(Some(remaining))?;
                self.effective_timeout = remaining;
            }
            match self.stream.read(chunk) {
                Ok(n) => return Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Timed out before the deadline (the programmed
                    // timeout was shorter): loop and re-arm.
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Parse a response head: `(status, headers, content_length)`.
    /// Headers come back lowercased, in response order.
    #[allow(clippy::type_complexity)]
    fn parse_head(head: &[u8]) -> Result<(u16, Vec<(String, String)>, usize), ClientError> {
        let head = std::str::from_utf8(head)
            .map_err(|_| ClientError::MalformedHead("head is not UTF-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.split(' ');
        let version = parts.next().unwrap_or("");
        let status = if version.starts_with("HTTP/1.") {
            parts
                .next()
                .and_then(|s| s.parse::<u16>().ok())
                .filter(|s| (100..=599).contains(s))
        } else {
            None
        };
        let Some(status) = status else {
            return Err(ClientError::MalformedHead(format!(
                "bad status line: {status_line:?}"
            )));
        };
        let mut headers = Vec::with_capacity(8);
        let mut content_length = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(ClientError::MalformedHead(format!(
                    "header line without a colon: {line:?}"
                )));
            };
            let mut name = name.to_string();
            name.make_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| ClientError::BadContentLength)?;
            }
            headers.push((name, value));
        }
        Ok((status, headers, content_length))
    }

    /// Minimal head parse for the relay path: status code, body length,
    /// and `Connection: close` — no per-header allocations.
    fn parse_head_min(head: &[u8]) -> Result<(u16, usize, bool), ClientError> {
        let head = std::str::from_utf8(head)
            .map_err(|_| ClientError::MalformedHead("head is not UTF-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.split(' ');
        let version = parts.next().unwrap_or("");
        let status = if version.starts_with("HTTP/1.") {
            parts
                .next()
                .and_then(|s| s.parse::<u16>().ok())
                .filter(|s| (100..=599).contains(s))
        } else {
            None
        };
        let Some(status) = status else {
            return Err(ClientError::MalformedHead(format!(
                "bad status line: {status_line:?}"
            )));
        };
        let mut content_length = 0usize;
        let mut closed = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(ClientError::MalformedHead(format!(
                    "header line without a colon: {line:?}"
                )));
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::BadContentLength)?;
            } else if name.eq_ignore_ascii_case("connection") {
                closed = value.trim().eq_ignore_ascii_case("close");
            }
        }
        Ok((status, content_length, closed))
    }

    /// Read until a complete head (`\r\n\r\n`) is buffered; returns its
    /// offset. Shared by the parsed and relay read paths.
    fn fill_head(&mut self, deadline: Option<Instant>) -> Result<usize, ClientError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                return Ok(i);
            }
            let n = self.read_chunk(&mut chunk, deadline)?;
            if n == 0 {
                self.buf.clear();
                return Err(ClientError::ClosedBeforeHead);
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Read one response as raw relay bytes (see
    /// [`HttpClient::request_relay`]).
    fn read_relay(&mut self, deadline: Option<Instant>) -> Result<RelayResponse, ClientError> {
        let head_end = self.fill_head(deadline)?;
        let (status, content_length, closed) = match Self::parse_head_min(&self.buf[..head_end]) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.buf.clear();
                return Err(e);
            }
        };
        let body_start = head_end + 4;
        self.fill_body(body_start, content_length, deadline)?;
        // One request in flight per connection: trailing bytes mean the
        // framing lies (see read_response).
        if self.buf.len() != body_start + content_length {
            let extra = self.buf.len() - (body_start + content_length);
            self.buf.clear();
            return Err(ClientError::ExcessBody { extra });
        }
        let raw = std::mem::take(&mut self.buf);
        Ok(RelayResponse {
            status,
            body_start,
            closed,
            raw,
        })
    }

    /// Read until the body (starting at `body_start`, `content_length`
    /// bytes) is fully buffered.
    fn fill_body(
        &mut self,
        body_start: usize,
        content_length: usize,
        deadline: Option<Instant>,
    ) -> Result<(), ClientError> {
        let mut chunk = [0u8; 16 * 1024];
        while self.buf.len() < body_start + content_length {
            let n = self.read_chunk(&mut chunk, deadline)?;
            if n == 0 {
                let got = self.buf.len().saturating_sub(body_start);
                self.buf.clear();
                return Err(ClientError::ClosedMidBody {
                    got,
                    expected: content_length,
                });
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(())
    }

    fn read_response(&mut self, deadline: Option<Instant>) -> Result<ClientResponse, ClientError> {
        let head_end = self.fill_head(deadline)?;
        // Parse the head in place (no copy of the raw bytes); only on
        // error may the buffer be cleared, after the borrow ends.
        let (status, headers, content_length) = match Self::parse_head(&self.buf[..head_end]) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.buf.clear();
                return Err(e);
            }
        };
        let body_start = head_end + 4;
        self.fill_body(body_start, content_length, deadline)?;
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        // This client never pipelines: one request is in flight per
        // connection, so any bytes past the declared body mean the
        // server's framing lies (body longer than Content-Length). The
        // truncated-at-Content-Length read must NOT pass as a success.
        if !self.buf.is_empty() {
            let extra = self.buf.len();
            self.buf.clear();
            return Err(ClientError::ExcessBody { extra });
        }
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve one connection with a scripted byte string, then close.
    /// Returns the address to connect to.
    fn scripted_server(script: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                // Read the request head so the client's write completes.
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(script);
                let _ = stream.flush();
                // Drop → FIN. Delay a little so the client sees the
                // bytes before EOF on slow CI.
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        addr
    }

    fn get_one(script: &'static [u8]) -> Result<ClientResponse, ClientError> {
        let mut c = HttpClient::connect(scripted_server(script)).unwrap();
        c.request_deadline("GET", "/x", None, Instant::now() + Duration::from_secs(5))
    }

    #[test]
    fn well_formed_response_parses() {
        let resp = get_one(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok");
        assert!(resp.closed());
    }

    #[test]
    fn retry_after_parses_from_both_response_forms() {
        let resp = get_one(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 3\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(resp.retry_after(), Some(Duration::from_secs(3)));

        let mut c = HttpClient::connect(scripted_server(
            b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 2\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ))
        .unwrap();
        let relay = c
            .request_relay("GET", "/x", None, Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert_eq!(relay.status, 503);
        assert_eq!(relay.retry_after(), Some(Duration::from_secs(2)));

        // Absent or garbage values parse to None, never panic.
        let resp = get_one(
            b"HTTP/1.1 503 X\r\nRetry-After: soon\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(resp.retry_after(), None);
    }

    // The malformed-response matrix — the client-side mirror of the
    // server's malformed-request tests. Every way a backend can lie
    // about a response must come back typed, never as a truncated or
    // garbage success.

    #[test]
    fn garbage_status_line_is_malformed_head() {
        let err = get_one(b"NOT HTTP AT ALL\r\n\r\n").unwrap_err();
        assert!(matches!(err, ClientError::MalformedHead(_)), "{err:?}");
        assert!(!err.is_transport());
    }

    #[test]
    fn non_numeric_status_is_malformed_head() {
        let err = get_one(b"HTTP/1.1 abc Whatever\r\n\r\n").unwrap_err();
        assert!(matches!(err, ClientError::MalformedHead(_)), "{err:?}");
    }

    #[test]
    fn out_of_range_status_is_malformed_head() {
        let err = get_one(b"HTTP/1.1 999999 Huge\r\n\r\n").unwrap_err();
        assert!(matches!(err, ClientError::MalformedHead(_)), "{err:?}");
    }

    #[test]
    fn headerless_colon_line_is_malformed_head() {
        let err = get_one(b"HTTP/1.1 200 OK\r\nbroken header line\r\n\r\n").unwrap_err();
        assert!(matches!(err, ClientError::MalformedHead(_)), "{err:?}");
    }

    #[test]
    fn bad_content_length_is_typed() {
        let err = get_one(b"HTTP/1.1 200 OK\r\nContent-Length: twelve\r\n\r\n").unwrap_err();
        assert!(matches!(err, ClientError::BadContentLength), "{err:?}");
    }

    #[test]
    fn eof_before_head_is_typed() {
        let err = get_one(b"HTTP/1.1 200").unwrap_err();
        assert!(matches!(err, ClientError::ClosedBeforeHead), "{err:?}");
        assert!(err.is_transport(), "worth a retry on another connection");
    }

    #[test]
    fn eof_mid_body_is_not_a_truncated_success() {
        // Content-Length promises 100 bytes; only 5 arrive before FIN.
        let err = get_one(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello").unwrap_err();
        match err {
            ClientError::ClosedMidBody { got, expected } => {
                assert_eq!((got, expected), (5, 100));
            }
            other => panic!("expected ClosedMidBody, got {other:?}"),
        }
    }

    #[test]
    fn excess_body_is_not_a_truncated_success() {
        // Content-Length says 2, but 7 body bytes arrive: the framing
        // lies, so even the first 2 bytes cannot be trusted.
        let err = get_one(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok-extra").unwrap_err();
        match err {
            ClientError::ExcessBody { extra } => assert_eq!(extra, 6),
            other => panic!("expected ExcessBody, got {other:?}"),
        }
        assert!(!ClientError::ExcessBody { extra: 6 }.is_transport());
    }

    #[test]
    fn deadline_expiry_is_timeout() {
        // A server that accepts and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                std::thread::sleep(Duration::from_millis(400));
                drop(stream);
            }
        });
        let mut c = HttpClient::connect(addr).unwrap();
        let start = Instant::now();
        let err = c
            .request_deadline(
                "GET",
                "/x",
                None,
                Instant::now() + Duration::from_millis(60),
            )
            .unwrap_err();
        assert!(matches!(err, ClientError::Timeout), "{err:?}");
        assert!(err.is_transport());
        assert!(
            start.elapsed() < Duration::from_millis(350),
            "deadline ignored"
        );
        t.join().unwrap();
    }

    #[test]
    fn failed_connect_is_a_typed_transport_error() {
        // Bind a port, then close it: connecting is refused (or at
        // worst times out), never hangs past the connect timeout.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let start = Instant::now();
        let err =
            HttpClient::connect_with(addr, Duration::from_millis(200), Duration::from_secs(1))
                .err()
                .expect("connect to a closed port must fail");
        assert!(err.is_transport(), "{err:?}");
        assert!(start.elapsed() < Duration::from_secs(5), "connect hung");
    }

    #[test]
    fn client_error_converts_to_io_error_kinds() {
        let io: std::io::Error = ClientError::Timeout.into();
        assert_eq!(io.kind(), std::io::ErrorKind::TimedOut);
        let io: std::io::Error = ClientError::ClosedBeforeHead.into();
        assert_eq!(io.kind(), std::io::ErrorKind::UnexpectedEof);
        let io: std::io::Error = ClientError::ExcessBody { extra: 3 }.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }
}
