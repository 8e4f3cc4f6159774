//! One client connection with failure accounting.
//!
//! Requests are sent as pre-encoded bytes (the same bytes the traced
//! replay later feeds to the server's parser). Anything but a 2xx
//! answer is a failure: connect errors, `503` load-shed or degraded,
//! `408`, other 4xx/5xx, and client timeouts. A failed request is
//! recorded at [`FAILED_MS`], past every workload's latency limit.

use lightor_server::{ClientResponse, HttpClient};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Client read timeout; a request not answered by then has failed.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);
/// The latency a failed request is recorded at (ms).
pub const FAILED_MS: f64 = 2000.0;

/// Why a request failed, as tallied in the output.
pub fn failure_kind(e: &lightor_server::ClientError) -> &'static str {
    use lightor_server::ClientError as E;
    match e {
        E::Timeout => "timeout",
        E::Io(io) if io.kind() == std::io::ErrorKind::ConnectionRefused => "connect",
        _ => "transport",
    }
}

pub struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
    /// Failure counts by kind (`connect`, `timeout`, `transport`, `503`, …).
    pub failures: BTreeMap<String, u64>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            client: None,
            failures: BTreeMap::new(),
        }
    }

    /// Send one request; `Some(response)` only for a 2xx answer.
    pub fn send(&mut self, raw: &[u8]) -> Option<ClientResponse> {
        if self.client.is_none() {
            match HttpClient::connect_with(self.addr, CLIENT_TIMEOUT, CLIENT_TIMEOUT) {
                Ok(c) => self.client = Some(c),
                Err(e) => {
                    self.fail(failure_kind(&e).to_string());
                    return None;
                }
            }
        }
        let sent = self.client.as_mut().expect("connected above").send_raw(raw);
        match sent {
            Ok(resp) => {
                if resp.closed() {
                    self.client = None;
                }
                if (200..300).contains(&resp.status) {
                    Some(resp)
                } else {
                    self.fail(resp.status.to_string());
                    None
                }
            }
            Err(e) => {
                self.client = None;
                self.fail(failure_kind(&e).to_string());
                None
            }
        }
    }

    fn fail(&mut self, kind: String) {
        *self.failures.entry(kind).or_default() += 1;
    }
}

/// `GET path` as wire bytes.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: lightor\r\nContent-Length: 0\r\n\r\n").into_bytes()
}

/// `POST path` with `body` as wire bytes (Content-Length framing).
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: lightor\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// One-shot `GET path` on a fresh connection, parsed as JSON.
pub fn get_json<T: serde::Deserialize>(addr: SocketAddr, path: &str) -> Result<T, String> {
    let mut c = HttpClient::connect_with(addr, CLIENT_TIMEOUT, Duration::from_secs(10))
        .map_err(|e| format!("GET {path}: {e}"))?;
    let resp = c.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "GET {path}: status {} {}",
            resp.status,
            resp.body_str()
        ));
    }
    resp.json().map_err(|e| format!("GET {path}: {e}"))
}
