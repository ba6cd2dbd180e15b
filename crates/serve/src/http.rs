//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! Just enough of the protocol for the service's five endpoints: one
//! request per connection (`Connection: close`), `Content-Length`
//! bodies only (no chunked encoding), a hard body cap so hostile
//! clients cannot balloon memory, and one deadline per exchange, so a
//! peer that trickles its request or stops reading the response cannot
//! pin a connection handler. Parsing failures are typed [`HttpError`]s
//! the server turns into 4xx responses — never panics.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted request body (and header section), in bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Time a client has, from its connection being accepted, to send the
/// whole request; writing the response gets whatever is left of it.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or framing.
    Malformed(String),
    /// The declared or actual body exceeds [`MAX_BODY_BYTES`].
    TooLarge,
    /// Socket-level failure (timeout, reset).
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(reason) => write!(f, "malformed request: {reason}"),
            HttpError::TooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::Io(reason) => write!(f, "i/o error: {reason}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are not used by the API).
    pub path: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

fn malformed(reason: &str) -> HttpError {
    HttpError::Malformed(reason.to_string())
}

/// A socket each of whose reads and writes may block only until one
/// deadline, so the deadline bounds a whole request or response, not
/// each read of it.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Deadlined<'_> {
    /// The time left, or a `TimedOut` error once the deadline passed.
    fn remaining(&self) -> std::io::Result<Duration> {
        match self.deadline.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "request deadline passed",
            )),
        }
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.remaining()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.remaining()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Reads one request from the stream; a request not complete by
/// `deadline` is an [`HttpError::Io`].
pub fn read_request(stream: &TcpStream, deadline: Instant) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(Deadlined { stream, deadline });

    let mut line = String::new();
    read_line(&mut reader, &mut line)?;
    let (method, path) = {
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| malformed("empty request line"))?;
        let path = parts.next().ok_or_else(|| malformed("missing path"))?;
        let version = parts.next().ok_or_else(|| malformed("missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(malformed("not HTTP/1.x"));
        }
        (method.to_string(), path.to_string())
    };

    let mut content_length: usize = 0;
    let mut header_bytes = 0;
    loop {
        line.clear();
        read_line(&mut reader, &mut line)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed("header without colon"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed("bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge);
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    Ok(Request { method, path, body })
}

/// Reads one CRLF- (or LF-) terminated line, without the terminator.
fn read_line(reader: &mut impl BufRead, out: &mut String) -> Result<(), HttpError> {
    out.clear();
    let mut buf = Vec::new();
    // Bound the line read so an unterminated line cannot grow forever.
    let mut limited = reader.take(MAX_BODY_BYTES as u64 + 1);
    limited
        .read_until(b'\n', &mut buf)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    if buf.len() > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    if buf.last() != Some(&b'\n') {
        return Err(malformed("unterminated line"));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    let text = std::str::from_utf8(&buf).map_err(|_| malformed("non-utf8 header"))?;
    out.push_str(text);
    Ok(())
}

/// Standard reason phrase of the handful of statuses the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response body: bytes built for this response, or a stored report
/// shared with the result cache, which is written without a copy.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// A report shared with the result cache.
    Shared(Arc<str>),
}

impl Body {
    /// The bytes to send.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(text) => text.as_bytes(),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body::Owned(bytes)
    }
}

impl From<String> for Body {
    fn from(text: String) -> Self {
        Body::Owned(text.into_bytes())
    }
}

impl From<Arc<str>> for Body {
    fn from(text: Arc<str>) -> Self {
        Body::Shared(text)
    }
}

/// One response to write. Bodies are JSON throughout the API.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers as `(name, value)` pairs (e.g. `Retry-After`).
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Body,
}

impl Response {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, body: impl Into<Body>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Writes the response; errors, including a client that has not
    /// taken it all by `deadline`, are returned for logging, and the
    /// connection is closed either way.
    pub fn write_to(&self, stream: &TcpStream, deadline: Instant) -> std::io::Result<()> {
        let body = self.body.as_bytes();
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = Deadlined { stream, deadline };
        out.write_all(head.as_bytes())?;
        out.write_all(body)
    }
}

/// The body of every error response: `{"error": "..."}` with the
/// message JSON-escaped through `killi-obs`.
pub fn error_body(message: &str) -> Vec<u8> {
    format!("{{\"error\":\"{}\"}}", killi_obs::escape_json(message)).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `write` against a connected client socket and returns the
    /// request as the server parsed it.
    fn roundtrip(
        write: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write(&mut s);
        });
        let (stream, _) = listener.accept().unwrap();
        let parsed = read_request(&stream, Instant::now() + READ_TIMEOUT);
        client.join().unwrap();
        parsed
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(|s| {
            s.write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
                .unwrap();
        })
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_oversize_declared_bodies() {
        let err = roundtrip(move |s| {
            let head = format!(
                "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            );
            s.write_all(head.as_bytes()).unwrap();
        })
        .unwrap_err();
        assert_eq!(err, HttpError::TooLarge);
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for (bytes, what) in [
            (&b"GARBAGE\r\n\r\n"[..], "one-token request line"),
            (&b"GET /x SPDY/3\r\n\r\n"[..], "bad version"),
            (
                &b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"[..],
                "colonless header",
            ),
            (
                &b"GET /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n"[..],
                "bad content-length",
            ),
        ] {
            let owned = bytes.to_vec();
            let err = roundtrip(move |s| s.write_all(&owned).unwrap()).unwrap_err();
            assert!(
                matches!(err, HttpError::Malformed(_)),
                "{what}: got {err:?}"
            );
        }
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let err = roundtrip(|s| {
            s.write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
                .unwrap();
            // Close with 7 bytes missing.
        })
        .unwrap_err();
        assert!(matches!(err, HttpError::Io(_)), "got {err:?}");
    }

    #[test]
    fn a_trickling_client_is_cut_off_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One byte every 50 ms: each read gets a byte well inside any
        // per-read timeout, but the whole request needs 1.4 s.
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for byte in b"GET /v1/healthz HTTP/1.1\r\n\r\n" {
                if s.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let start = Instant::now();
        let result = read_request(&stream, start + Duration::from_millis(300));
        let took = start.elapsed();
        drop(stream);
        client.join().unwrap();
        assert!(matches!(result, Err(HttpError::Io(_))), "got {result:?}");
        assert!(
            took >= Duration::from_millis(300) && took < Duration::from_secs(1),
            "cut off after {took:?}"
        );
    }

    #[test]
    fn a_client_that_stops_reading_is_cut_off_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Connected, never reads: 32 MiB outgrows both sockets' buffers.
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let response = Response::json(200, vec![b' '; 32 << 20]);
        let start = Instant::now();
        let result = response.write_to(&stream, start + Duration::from_millis(300));
        let took = start.elapsed();
        drop(client);
        assert!(result.is_err(), "the whole body was taken");
        assert!(
            took >= Duration::from_millis(300) && took < Duration::from_secs(1),
            "cut off after {took:?}"
        );
    }

    #[test]
    fn response_writes_headers_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            Response::json(429, error_body("queue full"))
                .with_header("retry-after", "1")
                .write_to(&stream, Instant::now() + READ_TIMEOUT)
                .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        server.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }
}
