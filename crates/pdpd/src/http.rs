//! A from-scratch HTTP/1.1 message layer on blocking sockets: just enough
//! of RFC 9112 for a keep-alive JSON API — request-line + header parsing,
//! `Content-Length` bodies, persistent connections, and pipelining (the
//! connection buffer preserves bytes beyond the current message, so
//! back-to-back requests written in one burst are served in order).
//! No chunked encoding, no TLS, no HTTP/2: the PDP wire protocol needs
//! none of them, and every byte of this parser is auditable.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Largest accepted header block (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted body (a `/decide_batch` of thousands of requests fits
/// comfortably; anything bigger is refused with `413`).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// Method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Path verbatim, query string included.
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 semantics: default yes, `Connection: close` opts out;
    /// HTTP/1.0: default no, `keep-alive` opts in).
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed mid-message or sent bytes that are not HTTP.
    /// Responding `400` and closing is the right reaction.
    Malformed(String),
    /// The head or body exceeded its limit (`431` / `413`).
    TooLarge(&'static str),
    /// The read timed out with the connection still healthy — the caller
    /// may poll a shutdown flag and try again; buffered bytes are kept.
    TimedOut,
    /// The message did not arrive in full within the connection's request
    /// deadline (`408`); see
    /// [`ServerOptions::request_deadline`](crate::ServerOptions::request_deadline).
    DeadlineExceeded,
    /// Transport failure; close the connection.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
            HttpError::TimedOut => write!(f, "read timed out"),
            HttpError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A buffered connection reader that survives timeouts and preserves
/// pipelined bytes across messages.
#[derive(Debug)]
pub struct ConnBuf<R> {
    stream: R,
    buf: Vec<u8>,
    /// Bytes before `start` have been consumed by previous messages.
    start: usize,
    /// How long a message may take to arrive once it needs a second read.
    deadline: Option<Duration>,
    /// When the message being read first needed another read.
    continued: Option<Instant>,
}

impl<R: Read> ConnBuf<R> {
    /// Wraps `stream` with an empty buffer.
    pub fn new(stream: R) -> ConnBuf<R> {
        ConnBuf {
            stream,
            buf: Vec::with_capacity(4096),
            start: 0,
            deadline: None,
            continued: None,
        }
    }

    /// Bounds how long one message may take to arrive: once part of a
    /// message is buffered and another read is needed, the message must
    /// complete within `deadline` of that read, or reading fails with
    /// [`HttpError::DeadlineExceeded`]. A message that arrives in one read
    /// never reads the clock.
    pub(crate) fn with_request_deadline(mut self, deadline: Duration) -> ConnBuf<R> {
        self.deadline = Some(deadline);
        self
    }

    /// True when no byte of a next message is buffered: the connection is
    /// between messages.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending().is_empty()
    }

    /// The unconsumed bytes currently buffered.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Marks the buffered bytes up to `end` as one consumed message.
    fn consume(&mut self, end: usize) {
        self.start = end;
        self.continued = None;
    }

    /// Drops the consumed prefix. Only safe at a message boundary (no
    /// absolute buffer indices may be held across a call).
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Reads more bytes from the stream into the buffer. `Ok(0)` is EOF.
    fn fill(&mut self) -> Result<usize, HttpError> {
        if let Some(deadline) = self.deadline.filter(|_| !self.is_idle()) {
            let now = Instant::now();
            if now - *self.continued.get_or_insert(now) > deadline {
                return Err(HttpError::DeadlineExceeded);
            }
        }
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(HttpError::TimedOut)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(self.fill()?),
            Err(e) => Err(HttpError::Io(e)),
        }
    }

    /// Reads the next request off the connection. `Ok(None)` is a clean
    /// close (EOF exactly at a message boundary). [`HttpError::TimedOut`]
    /// leaves all buffered bytes intact for a retry.
    pub fn read_request(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        // Keep-alive connections must not grow the buffer without bound.
        self.compact();
        // 1. Accumulate until the blank line ending the head.
        let head_end = loop {
            if let Some(i) = find_head_end(self.pending()) {
                break i;
            }
            if self.pending().len() > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge("header block"));
            }
            if self.fill()? == 0 {
                if self.pending().is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("connection closed mid-head".into()));
            }
        };
        let head = match std::str::from_utf8(&self.pending()[..head_end]) {
            Ok(h) => h.to_owned(),
            Err(_) => return Err(HttpError::Malformed("head is not UTF-8".into())),
        };
        let body_start = self.start + head_end + 4; // skip \r\n\r\n

        // 2. Parse request line and headers.
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => {
                (m.to_owned(), p.to_owned(), v)
            }
            _ => {
                return Err(HttpError::Malformed(format!(
                    "bad request line: {request_line:?}"
                )))
            }
        };
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            v => return Err(HttpError::Malformed(format!("unsupported version {v:?}"))),
        };
        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::Malformed(format!("bad header line: {line:?}")));
            };
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::Malformed(format!("bad header name: {name:?}")));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }

        // 3. Read the body per Content-Length.
        let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
            Some((_, v)) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return Err(HttpError::Malformed(format!("bad content-length: {v:?}"))),
            },
            None => 0,
        };
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("body"));
        }
        if headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
        {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported".into(),
            ));
        }
        while self.buf.len() < body_start + content_length {
            if self.fill()? == 0 {
                return Err(HttpError::Malformed("connection closed mid-body".into()));
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.consume(body_start + content_length);

        let connection = headers
            .iter()
            .find(|(k, _)| k == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => http11,
        };
        Ok(Some(HttpRequest {
            method,
            path,
            headers,
            body,
            keep_alive,
        }))
    }

    /// Reads an HTTP *response* (status + body) — the client half of the
    /// protocol, used by the load generator and tests.
    pub fn read_response(&mut self) -> Result<(u16, Vec<u8>), HttpError> {
        self.compact();
        let head_end = loop {
            if let Some(i) = find_head_end(self.pending()) {
                break i;
            }
            if self.pending().len() > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge("header block"));
            }
            if self.fill()? == 0 {
                return Err(HttpError::Malformed(
                    "connection closed mid-response".into(),
                ));
            }
        };
        let head = match std::str::from_utf8(&self.pending()[..head_end]) {
            Ok(h) => h.to_owned(),
            Err(_) => return Err(HttpError::Malformed("head is not UTF-8".into())),
        };
        let body_start = self.start + head_end + 4;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| HttpError::Malformed(format!("bad status line: {status_line:?}")))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        HttpError::Malformed(format!("bad content-length: {value:?}"))
                    })?;
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("body"));
        }
        while self.buf.len() < body_start + content_length {
            if self.fill()? == 0 {
                return Err(HttpError::Malformed("connection closed mid-body".into()));
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.consume(body_start + content_length);
        Ok((status, body))
    }

    /// The wrapped stream (e.g. to write on the same socket).
    pub fn stream_mut(&mut self) -> &mut R {
        &mut self.stream
    }
}

/// Index of the `\r\n\r\n` terminating the head, if buffered.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrases for the statuses the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one response with a `Content-Length` body. `close` adds
/// `Connection: close`.
///
/// # Errors
///
/// Propagates transport write failures.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::time::Duration;

    #[test]
    fn parses_a_simple_post() {
        let raw = b"POST /decide HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
        let mut conn = ConnBuf::new(Cursor::new(raw.to_vec()));
        let req = conn.read_request().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/decide");
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
        assert!(conn.read_request().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let raw = b"GET /metrics HTTP/1.1\r\n\r\nPOST /decide HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /metrics HTTP/1.0\r\n\r\n";
        let mut conn = ConnBuf::new(Cursor::new(raw.to_vec()));
        let a = conn.read_request().unwrap().unwrap();
        assert_eq!((a.method.as_str(), a.path.as_str()), ("GET", "/metrics"));
        let b = conn.read_request().unwrap().unwrap();
        assert_eq!(b.body, b"abcd");
        let c = conn.read_request().unwrap().unwrap();
        assert!(!c.keep_alive, "HTTP/1.0 defaults to close");
        assert!(conn.read_request().unwrap().is_none());
    }

    #[test]
    fn connection_close_is_honored() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut conn = ConnBuf::new(Cursor::new(raw.to_vec()));
        assert!(!conn.read_request().unwrap().unwrap().keep_alive);
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let mut conn = ConnBuf::new(Cursor::new(raw.to_vec()));
        assert!(conn.read_request().unwrap().unwrap().keep_alive);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            &b"NOT HTTP\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let mut conn = ConnBuf::new(Cursor::new(raw.to_vec()));
            assert!(
                matches!(conn.read_request(), Err(HttpError::Malformed(_))),
                "{:?} should be malformed",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn truncated_body_is_malformed_not_hang() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let mut conn = ConnBuf::new(Cursor::new(raw.to_vec()));
        assert!(matches!(conn.read_request(), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn oversized_body_is_too_large() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut conn = ConnBuf::new(Cursor::new(raw.into_bytes()));
        assert!(matches!(conn.read_request(), Err(HttpError::TooLarge(_))));
    }

    /// Yields its bytes one per read, sleeping `pause` before each.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        pause: std::time::Duration,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(self.pause);
            match self.bytes.get(self.at) {
                Some(&b) if !out.is_empty() => {
                    out[0] = b;
                    self.at += 1;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn request_deadline_bounds_a_trickled_message_only() {
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n".to_vec();
        // One read: a zero deadline never fires.
        let mut conn = ConnBuf::new(Cursor::new(raw.clone())).with_request_deadline(Duration::ZERO);
        assert!(conn.read_request().unwrap().is_some());
        // One byte per 2 ms read against a 5 ms deadline.
        let trickle = Trickle {
            bytes: raw,
            at: 0,
            pause: Duration::from_millis(2),
        };
        let mut conn = ConnBuf::new(trickle).with_request_deadline(Duration::from_millis(5));
        assert!(matches!(
            conn.read_request(),
            Err(HttpError::DeadlineExceeded)
        ));
    }

    #[test]
    fn response_round_trip() {
        let mut out = Vec::new();
        write_response(&mut out, 200, br#"{"ok":true}"#, false).unwrap();
        let mut conn = ConnBuf::new(Cursor::new(out));
        let (status, body) = conn.read_response().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"ok":true}"#);
    }
}
