//! Shared client for the `tm-server` daemon: framed requests, a typed
//! error taxonomy, and the retry/backoff policy used by `loadgen`, the
//! CI smoke stages and the chaos battery.
//!
//! Retry discipline (DESIGN.md §13): only *typed-retryable* failures
//! are retried — the server's `overloaded` and `timeout` rejections,
//! plus transport-stage failures (`connect`/`write`/`read`, which is
//! how a shedding server's RST race or an injected socket fault
//! surfaces on a fresh connection). Deterministic rejections
//! (`parse`, `invalid`, `unsupported`, `exhausted`, `internal`, ...)
//! are never retried: resending bad input can only waste server
//! capacity. Backoff is exponential with a cap and *seeded* jitter
//! (tm-testkit PRNG), so a chaos run's retry schedule reproduces from
//! its seed like everything else in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::TcpStream;
use std::time::{Duration, Instant};
use tm_server::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use tm_testkit::json::Json;
use tm_testkit::rng::Rng;

/// A failed request: a `kind` naming either the server's typed wire
/// code (`overloaded`, `timeout`, `exhausted`, `parse`, ...) or the
/// transport stage that broke (`connect`, `write`, `read`, `frame`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientError {
    /// Typed wire code or transport stage.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

impl ClientError {
    fn new(kind: impl Into<String>, message: impl Into<String>) -> ClientError {
        ClientError { kind: kind.into(), message: message.into() }
    }

    /// Whether the failure is worth retrying (see [`is_retryable_kind`]).
    pub fn retryable(&self) -> bool {
        is_retryable_kind(&self.kind)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ClientError {}

/// The retryable kinds: the server's transient typed rejections
/// (`overloaded`, `timeout`) and transport-stage failures — a shedding
/// server's close can RST the rejection frame away before the client
/// reads it, surfacing as a connect/write/read error instead of the
/// typed code. Deterministic rejections (`parse`, `invalid`,
/// `unsupported`, `exhausted`, `internal`, `protocol`, `frame`) are
/// never retried.
pub fn is_retryable_kind(kind: &str) -> bool {
    matches!(kind, "overloaded" | "timeout" | "connect" | "write" | "read")
}

/// Exponential backoff with a cap and seeded jitter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Growth factor per attempt (≥ 1 keeps the schedule monotone).
    pub multiplier: f64,
    /// Ceiling on the un-jittered delay.
    pub cap: Duration,
    /// Jitter fraction `j`: each delay is scaled by a seeded factor in
    /// `[1 − j, 1 + j)`.
    pub jitter: f64,
    /// Total attempts (first try + retries).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            multiplier: 2.0,
            cap: Duration::from_millis(640),
            jitter: 0.25,
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered delay before retrying after attempt `attempt`
    /// (0-based): `base · multiplier^attempt`, capped.
    pub fn base_delay(&self, attempt: u32) -> Duration {
        let grown = self.base.as_secs_f64() * self.multiplier.powi(attempt.min(64) as i32);
        let capped = grown.min(self.cap.as_secs_f64());
        Duration::from_secs_f64(capped.max(0.0))
    }

    /// The jittered delay before retrying after attempt `attempt`,
    /// drawn from `rng`: `base_delay · [1 − jitter, 1 + jitter)`.
    pub fn backoff(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let factor = 1.0 + self.jitter * (2.0 * rng.next_f64() - 1.0);
        Duration::from_secs_f64((self.base_delay(attempt).as_secs_f64() * factor).max(0.0))
    }
}

/// A successful request's response stream.
#[derive(Clone, Debug)]
pub struct Response {
    /// Raw frame payloads, in stream order (byte-exact, for the
    /// determinism assertions in the chaos battery).
    pub raw: Vec<String>,
    /// The same frames, parsed.
    pub frames: Vec<Json>,
    /// Wall time of the successful attempt (connect → last frame).
    pub latency: Duration,
    /// Attempts consumed (1 = no retries).
    pub attempts: u32,
}

/// Frame types that terminate a response stream.
fn is_terminal(kind: &str) -> bool {
    matches!(kind, "done" | "stats" | "mask_report" | "trace" | "shutdown")
}

/// One request over a fresh connection: connect, send one frame, read
/// frames until a terminal type (or clean EOF). A typed `error` frame
/// anywhere in the stream fails the request with its wire code.
pub fn request(addr: &str, payload: &str, read_timeout: Duration) -> Result<Response, ClientError> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| ClientError::new("connect", e.to_string()))?;
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|e| ClientError::new("connect", e.to_string()))?;
    write_frame(&mut stream, payload.as_bytes())
        .map_err(|e| ClientError::new("write", e.to_string()))?;
    let mut raw = Vec::new();
    let mut frames = Vec::new();
    loop {
        let bytes = match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Some(bytes)) => bytes,
            // Clean EOF before *any* frame means the server closed
            // without answering (shed race, injected fault): retryable.
            Ok(None) if frames.is_empty() => {
                return Err(ClientError::new("read", "connection closed before any response"));
            }
            Ok(None) => break,
            Err(e) => return Err(ClientError::new("read", e.to_string())),
        };
        let text = String::from_utf8(bytes)
            .map_err(|_| ClientError::new("frame", "non-UTF-8 frame payload"))?;
        let json = Json::parse(&text)
            .map_err(|e| ClientError::new("frame", format!("bad frame JSON: {e}")))?;
        let kind = json.get("type").and_then(Json::as_str).unwrap_or("").to_string();
        if kind == "error" {
            let code = json.get("code").and_then(Json::as_str).unwrap_or("unknown").to_string();
            let message = json
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("server error")
                .to_string();
            return Err(ClientError::new(code, message));
        }
        raw.push(text);
        frames.push(json);
        if is_terminal(&kind) {
            break;
        }
    }
    Ok(Response { raw, frames, latency: start.elapsed(), attempts: 1 })
}

/// [`request`] under `policy`: retryable failures back off (seeded
/// jitter from `rng`) and try again up to `policy.max_attempts`;
/// deterministic failures return immediately.
pub fn request_with_retry(
    addr: &str,
    payload: &str,
    read_timeout: Duration,
    policy: &RetryPolicy,
    rng: &mut Rng,
) -> Result<Response, ClientError> {
    let mut attempt = 0u32;
    loop {
        match request(addr, payload, read_timeout) {
            Ok(mut response) => {
                response.attempts = attempt + 1;
                return Ok(response);
            }
            Err(e) if e.retryable() && attempt + 1 < policy.max_attempts.max(1) => {
                std::thread::sleep(policy.backoff(attempt, rng));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_set_is_exactly_the_transient_kinds() {
        for kind in ["overloaded", "timeout", "connect", "write", "read"] {
            assert!(is_retryable_kind(kind), "{kind} must be retryable");
        }
        for kind in
            ["parse", "invalid", "unsupported", "exhausted", "internal", "protocol", "frame"]
        {
            assert!(!is_retryable_kind(kind), "{kind} must not be retryable");
        }
        assert!(ClientError::new("timeout", "x").retryable());
        assert!(!ClientError::new("parse", "x").retryable());
    }

    #[test]
    fn base_delay_grows_and_caps() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.base_delay(0), Duration::from_millis(10));
        assert_eq!(policy.base_delay(1), Duration::from_millis(20));
        assert_eq!(policy.base_delay(5), Duration::from_millis(320));
        assert_eq!(policy.base_delay(6), Duration::from_millis(640), "capped");
        assert_eq!(policy.base_delay(60), Duration::from_millis(640), "stays capped");
    }

    #[test]
    fn request_against_nothing_is_a_connect_error() {
        // Port 1 on localhost is essentially never listening.
        let err = request("127.0.0.1:1", "{}", Duration::from_millis(200)).unwrap_err();
        assert_eq!(err.kind, "connect");
        assert!(err.retryable());
    }
}
