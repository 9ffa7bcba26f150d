//! The wire protocol: newline-delimited `gila-json` frames.
//!
//! One frame is one JSON value on one line, terminated by `\n`. Both
//! directions use the same format, so the protocol is symmetric and
//! trivially replayable from a text file. Hostile input is bounded on
//! two axes before any allocation-heavy work happens: a byte cap on
//! the raw line ([`MAX_FRAME_BYTES`]) enforced *while reading*, so an
//! attacker cannot make the daemon buffer an unbounded line, and a
//! nesting cap ([`MAX_FRAME_DEPTH`]) enforced by the parser.
//!
//! Requests carry `{"gila": 1, "id": N, "op": "...", ...}`; responses
//! echo the `id` with `{"id": N, "status": "ok" | "error" |
//! "overloaded" | "shutting-down", ...}`. Unknown fields are ignored
//! on both sides so the schema can grow.

use std::io::{self, BufRead, Read, Write};
use std::time::Duration;

use gila_json::{parse_with_limits, ParseLimits, Value};

/// Protocol version stamped into every request (`"gila": 1`).
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame's raw byte length, including the newline.
/// Inline RTL/ILA sources ride inside frames, so this is generous; it
/// exists to bound memory, not to ration bandwidth.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Hard cap on JSON nesting inside one frame. Protocol values are
/// shallow (3–4 levels); 64 leaves headroom without letting a hostile
/// peer probe the parser's recursion limit.
pub const MAX_FRAME_DEPTH: usize = 64;

/// Reads one newline-delimited frame, enforcing [`MAX_FRAME_BYTES`]
/// *during* the read. Returns `Ok(None)` on clean EOF. A frame that
/// overruns the cap is an [`io::ErrorKind::InvalidData`] error; the
/// connection is unusable afterwards (we cannot resynchronize).
pub fn read_frame(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF. A non-empty partial line without a newline is a torn
            // frame; report it as such rather than parsing a fragment.
            if line.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "torn frame: EOF before newline",
            ));
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(buf.len());
        if line.len() + take > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame exceeds {MAX_FRAME_BYTES} byte limit"),
            ));
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Parses a frame body under the protocol's depth limit.
pub fn parse_frame(line: &str) -> Result<Value, String> {
    parse_with_limits(
        line,
        ParseLimits {
            max_depth: MAX_FRAME_DEPTH,
            max_bytes: MAX_FRAME_BYTES,
        },
    )
    .map_err(|e| e.to_string())
}

/// Serializes `value` as one frame and writes it.
pub fn write_frame(writer: &mut impl Write, value: &Value) -> io::Result<()> {
    let mut bytes = value.to_compact().into_bytes();
    bytes.push(b'\n');
    writer.write_all(&bytes)?;
    writer.flush()
}

/// A parsed, validated request envelope. `body` keeps the whole frame
/// so op handlers can pull their own fields.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation: `verify`, `lint`, `hunt-replay`, `ping`,
    /// `stats`, `shutdown`.
    pub op: String,
    /// The full request frame.
    pub body: Value,
    /// Per-request deadline, if the client set `deadline_ms`.
    pub deadline: Option<Duration>,
}

/// Validates a request frame's envelope fields.
pub fn parse_request(frame: Value) -> Result<Request, String> {
    let version = frame
        .get("gila")
        .and_then(Value::as_u64)
        .ok_or("missing protocol field \"gila\"")?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (this daemon speaks {PROTOCOL_VERSION})"
        ));
    }
    let id = frame
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("missing request field \"id\"")?;
    let op = frame
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing request field \"op\"")?
        .to_string();
    let deadline = frame
        .get("deadline_ms")
        .and_then(Value::as_u64)
        .map(Duration::from_millis);
    Ok(Request {
        id,
        op,
        body: frame,
        deadline,
    })
}

/// A successful response: `{"id": N, "status": "ok", "result": ...}`.
pub fn response_ok(id: u64, result: Value) -> Value {
    Value::object(vec![
        ("id".into(), (id as f64).into()),
        ("status".into(), "ok".into()),
        ("result".into(), result),
    ])
}

/// An error response for a request that was *accepted but failed*.
/// Terminal: clients must not retry it.
pub fn response_error(id: u64, message: &str) -> Value {
    Value::object(vec![
        ("id".into(), (id as f64).into()),
        ("status".into(), "error".into()),
        ("error".into(), message.into()),
    ])
}

/// A load-shed response: the admission queue is full. Carries a
/// `retry_after_ms` hint; clients may retry after backing off.
pub fn response_overloaded(id: u64, retry_after_ms: u64) -> Value {
    Value::object(vec![
        ("id".into(), (id as f64).into()),
        ("status".into(), "overloaded".into()),
        ("retry_after_ms".into(), (retry_after_ms as f64).into()),
    ])
}

/// A drain-mode response: the daemon is shutting down and refuses new
/// work. Clients should try another endpoint or give up.
pub fn response_shutting_down(id: u64) -> Value {
    Value::object(vec![
        ("id".into(), (id as f64).into()),
        ("status".into(), "shutting-down".into()),
    ])
}

impl Request {
    /// Convenience accessor for a string field of the request body.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.body.get(name).and_then(Value::as_str)
    }
}

// Plain `io::Read` adapter so both stream flavors share one reader
// type; see `server.rs` / `client.rs`.
/// Either a TCP or a Unix-domain stream, unified behind `Read`/`Write`.
pub enum Stream {
    /// A TCP connection.
    Tcp(std::net::TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Stream {
    /// Clones the underlying socket handle (both halves share state).
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Best-effort full shutdown, unblocking any reader on the peer.
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_roundtrip() {
        let v = Value::object(vec![
            ("gila".into(), 1.0.into()),
            ("id".into(), 7.0.into()),
            ("op".into(), "ping".into()),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let mut r = BufReader::new(&buf[..]);
        let line = read_frame(&mut r).unwrap().unwrap();
        let back = parse_frame(&line).unwrap();
        let req = parse_request(back).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.op, "ping");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_while_reading() {
        let mut data = vec![b'x'; MAX_FRAME_BYTES + 10];
        data.push(b'\n');
        let mut r = BufReader::new(&data[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_frame_at_eof_is_an_error_not_a_value() {
        let data = b"{\"gila\":1,\"id\":3".to_vec();
        let mut r = BufReader::new(&data[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn request_envelope_is_validated() {
        let missing_id = parse_frame("{\"gila\":1,\"op\":\"ping\"}").unwrap();
        assert!(parse_request(missing_id).unwrap_err().contains("id"));
        let bad_version = parse_frame("{\"gila\":9,\"id\":1,\"op\":\"ping\"}").unwrap();
        assert!(parse_request(bad_version).unwrap_err().contains("version"));
        let ok = parse_frame("{\"gila\":1,\"id\":1,\"op\":\"verify\",\"deadline_ms\":250}").unwrap();
        let req = parse_request(ok).unwrap();
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
    }
}
