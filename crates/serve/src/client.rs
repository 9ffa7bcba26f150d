//! The retrying client.
//!
//! Retry policy, in one sentence: a request may be retried only while
//! it is *provably unanswered* — connect failures, transport errors
//! before a response frame arrives, and explicit `overloaded` sheds —
//! and never after a response (any response) has been read, because a
//! delivered verdict re-requested is wasted solver work and a
//! delivered *error* is terminal by contract.
//!
//! Backoff is exponential with full jitter from an xorshift PRNG
//! seeded by the process id (so concurrent clients spread out),
//! capped, and respects the server's `retry_after_ms` hint as a floor
//! when shedding.

use std::io::BufReader;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use gila_json::Value;

use crate::protocol::{parse_frame, read_frame, write_frame, Stream};

/// Where to connect.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Client configuration.
#[derive(Clone)]
pub struct ClientConfig {
    /// The daemon's address.
    pub endpoint: Endpoint,
    /// Retry attempts *beyond* the first try.
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl ClientConfig {
    /// Defaults: 5 retries, 50ms base, 2s cap.
    pub fn new(endpoint: Endpoint) -> ClientConfig {
        ClientConfig {
            endpoint,
            retries: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// Why a request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure after all retries.
    Io(String),
    /// The daemon kept shedding; includes its last hint.
    Overloaded {
        /// Attempts made.
        attempts: u32,
        /// The last `retry_after_ms` hint.
        retry_after_ms: u64,
    },
    /// The daemon is draining and refused the request.
    ShuttingDown,
    /// A malformed frame came back.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Overloaded {
                attempts,
                retry_after_ms,
            } => write!(
                f,
                "daemon overloaded after {attempts} attempts (last hint: retry in {retry_after_ms}ms)"
            ),
            ClientError::ShuttingDown => write!(f, "daemon is shutting down"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection-per-need client; reconnects transparently on retry.
pub struct Client {
    cfg: ClientConfig,
    next_id: u64,
    rng: u64,
    conn: Option<(BufReader<Stream>, Stream)>,
}

impl Client {
    /// Creates a client; no connection is made until the first request.
    pub fn connect(cfg: ClientConfig) -> Client {
        Client {
            cfg,
            next_id: 1,
            rng: u64::from(std::process::id()) | 1,
            conn: None,
        }
    }

    fn rand(&mut self) -> u64 {
        // xorshift64: deterministic jitter without a rand dependency.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn backoff(&mut self, attempt: u32, floor_ms: u64) -> Duration {
        let exp = self
            .cfg
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cfg.max_delay);
        // Full jitter: uniform in [exp/2, exp], never below the
        // server's hint.
        let half = exp.as_millis() as u64 / 2;
        let jittered = half + self.rand() % (half.max(1));
        Duration::from_millis(jittered.max(floor_ms))
    }

    fn ensure_conn(&mut self) -> Result<(), String> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = match &self.cfg.endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Stream::Unix(
                UnixStream::connect(path)
                    .map_err(|e| format!("connect {}: {e}", path.display()))?,
            ),
            #[cfg(not(unix))]
            Endpoint::Unix(path) => {
                return Err(format!("unix sockets unsupported here: {}", path.display()))
            }
        };
        let write_half = stream.try_clone().map_err(|e| e.to_string())?;
        self.conn = Some((BufReader::new(stream), write_half));
        Ok(())
    }

    /// One attempt: send the frame, read frames until the matching id
    /// comes back. Returns `Err` only for transport-level failures
    /// (which are retry-safe by the policy above); the connection is
    /// torn down on any error so the next attempt starts clean.
    fn attempt(&mut self, frame: &Value, id: u64) -> Result<Value, String> {
        self.ensure_conn()?;
        let mut conn = self.conn.take().expect("ensure_conn established one");
        match Self::attempt_on(&mut conn, frame, id) {
            Ok(v) => {
                self.conn = Some(conn);
                Ok(v)
            }
            Err(e) => {
                conn.0.get_ref().shutdown();
                Err(e)
            }
        }
    }

    fn attempt_on(
        conn: &mut (BufReader<Stream>, Stream),
        frame: &Value,
        id: u64,
    ) -> Result<Value, String> {
        let (reader, writer) = conn;
        write_frame(writer, frame).map_err(|e| format!("send: {e}"))?;
        loop {
            let line = match read_frame(reader).map_err(|e| format!("recv: {e}"))? {
                Some(line) => line,
                None => return Err("connection closed before response".into()),
            };
            let value = parse_frame(&line).map_err(|e| format!("bad response frame: {e}"))?;
            // Stale responses (from a cancelled earlier request on a
            // reused connection) are skipped, not errors.
            match value.get("id").and_then(Value::as_u64) {
                Some(got) if got == id => return Ok(value),
                _ => continue,
            }
        }
    }

    /// Sends `op` with the given body fields, retrying per the policy.
    /// On success returns the full response frame (status `ok` or
    /// `error` — both are final).
    pub fn request(
        &mut self,
        op: &str,
        fields: Vec<(String, Value)>,
    ) -> Result<Value, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut all = vec![
            ("gila".into(), 1.0.into()),
            ("id".into(), (id as f64).into()),
            ("op".into(), op.into()),
        ];
        all.extend(fields);
        let frame = Value::object(all);
        let mut last_err = String::new();
        let mut last_hint = 0u64;
        let mut sheds = 0u32;
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                let delay = self.backoff(attempt - 1, last_hint);
                std::thread::sleep(delay);
            }
            match self.attempt(&frame, id) {
                Err(e) => {
                    // No response was read: retrying cannot duplicate
                    // a delivered verdict.
                    last_err = e;
                    last_hint = 0;
                    continue;
                }
                Ok(response) => {
                    match response.get("status").and_then(Value::as_str) {
                        Some("overloaded") => {
                            sheds += 1;
                            last_hint = response
                                .get("retry_after_ms")
                                .and_then(Value::as_u64)
                                .unwrap_or(0);
                            last_err = "overloaded".into();
                            continue;
                        }
                        Some("shutting-down") => return Err(ClientError::ShuttingDown),
                        // `ok` and `error` are both terminal: a
                        // response was delivered, never re-ask.
                        Some(_) => return Ok(response),
                        None => {
                            return Err(ClientError::Protocol(
                                "response missing \"status\"".into(),
                            ))
                        }
                    }
                }
            }
        }
        if sheds > 0 && last_err == "overloaded" {
            Err(ClientError::Overloaded {
                attempts: self.cfg.retries + 1,
                retry_after_ms: last_hint,
            })
        } else {
            Err(ClientError::Io(last_err))
        }
    }
}
