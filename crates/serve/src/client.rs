//! Minimal blocking HTTP/1.1 client for the tests and the serving
//! benchmark. Keep-alive aware: one [`Client`] holds one TCP connection
//! and can issue many requests over it (including pipelined bursts via
//! [`Client::pipeline`]).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code and body text.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Whether the server asked to close the connection.
    pub close: bool,
    /// The server's `Retry-After` hint in seconds, when present (shed
    /// responses carry one).
    pub retry_after_secs: Option<u32>,
}

/// One keep-alive connection to the server.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to `addr` with a generous read timeout (requests block on
    /// model scoring).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issue one request and read one response.
    pub(crate) fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        self.stream.write_all(&request_bytes(method, path, body))?;
        self.read_response()
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, Some(body))
    }

    /// Write `n` identical requests back-to-back, then read `n` responses —
    /// exercises the server's pipelining path.
    pub fn pipeline(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        n: usize,
    ) -> std::io::Result<Vec<Response>> {
        let bytes = request_bytes(method, path, body);
        let mut all = Vec::with_capacity(bytes.len() * n);
        for _ in 0..n {
            all.extend_from_slice(&bytes);
        }
        self.stream.write_all(&all)?;
        (0..n).map(|_| self.read_response()).collect()
    }

    /// Read one response off the connection (headers + Content-Length body).
    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if let Some(resp) = try_parse_response(&mut self.buf)? {
                return Ok(resp);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Serialize one request. `body` implies `POST`-style Content-Length.
fn request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let body = body.unwrap_or("");
    format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Try to parse one complete response from the front of `buf`, draining the
/// consumed bytes on success.
fn try_parse_response(buf: &mut Vec<u8>) -> std::io::Result<Option<Response>> {
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) => i + 4,
        None => return Ok(None),
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    let mut close = false;
    let mut retry_after_secs = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
            })?;
        } else if name == "connection" {
            close = value.eq_ignore_ascii_case("close");
        } else if name == "retry-after" {
            retry_after_secs = value.parse().ok();
        }
    }
    if buf.len() < head_end + content_length {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + content_length]).into_owned();
    buf.drain(..head_end + content_length);
    Ok(Some(Response {
        status,
        body,
        close,
        retry_after_secs,
    }))
}

/// Opt-in bounded retry for shed (`503 Retry-After`) responses and torn
/// connections. The chaos suite and `servebench --overload` use this; the
/// plain [`Client`] methods never retry.
#[derive(Debug)]
pub struct RetryPolicy {
    /// Retry at most this many times (0 = behave like a plain request).
    pub max_retries: u32,
    /// Cap on honored back-off — the server's `Retry-After` hint is in
    /// whole seconds, far too coarse for tests, so the policy clamps it.
    pub max_backoff: Duration,
    /// Seed for deterministic back-off jitter.
    pub seed: u64,
}

/// POST with bounded, jittered retry: honors the server's `Retry-After`
/// hint (clamped to `policy.max_backoff`) on `503`, and reconnects on
/// connection errors (refused mid-restart, torn mid-response write). Each
/// attempt uses a fresh connection when the previous one is unusable.
/// Returns the first non-503 response, the final 503 once retries are
/// exhausted, or the final connection error.
pub fn post_with_retry(
    addr: SocketAddr,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> std::io::Result<Response> {
    let mut rng_state = policy.seed | 1;
    let mut client: Option<Client> = None;
    let mut attempt = 0u32;
    loop {
        let result = match &mut client {
            Some(c) => c.post(path, body),
            None => match Client::connect(addr) {
                Ok(mut c) => {
                    let r = c.post(path, body);
                    client = Some(c);
                    r
                }
                Err(e) => Err(e),
            },
        };
        match result {
            Ok(resp) if resp.status == 503 && attempt < policy.max_retries => {
                let hinted = resp
                    .retry_after_secs
                    .map(|s| Duration::from_secs(u64::from(s)))
                    .unwrap_or(policy.max_backoff);
                sleep_jittered(hinted.min(policy.max_backoff), &mut rng_state);
                if resp.close {
                    client = None;
                }
            }
            Ok(resp) => return Ok(resp),
            Err(e) if attempt < policy.max_retries => {
                let _ = e;
                client = None;
                sleep_jittered(policy.max_backoff, &mut rng_state);
            }
            Err(e) => return Err(e),
        }
        attempt += 1;
    }
}

/// Sleep a uniformly jittered duration in `[backoff/2, backoff]` — full
/// synchronization of retries is exactly what an overloaded server does
/// not need.
fn sleep_jittered(backoff: Duration, rng_state: &mut u64) {
    let half_us = (backoff.as_micros() as u64) / 2;
    let jitter_us = if half_us == 0 {
        0
    } else {
        rotom_rng::splitmix64(rng_state) % (half_us + 1)
    };
    std::thread::sleep(Duration::from_micros(half_us + jitter_us));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_with_body() {
        let mut buf =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}extra"
                .to_vec();
        let resp = try_parse_response(&mut buf).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{}");
        assert!(!resp.close);
        assert_eq!(buf, b"extra", "trailing bytes left for the next response");
    }

    #[test]
    fn parses_retry_after_hint() {
        let mut buf =
            b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nconnection: close\r\nretry-after: 3\r\n\r\n"
                .to_vec();
        let resp = try_parse_response(&mut buf).unwrap().unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after_secs, Some(3));
        assert!(resp.close);
    }

    #[test]
    fn incomplete_response_returns_none() {
        let mut buf = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort".to_vec();
        assert!(try_parse_response(&mut buf).unwrap().is_none());
        let before = buf.clone();
        assert!(try_parse_response(&mut buf).unwrap().is_none());
        assert_eq!(buf, before, "nothing consumed until complete");
    }
}
