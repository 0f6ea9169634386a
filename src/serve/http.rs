//! A minimal HTTP/1.1 request parser and response writer — just
//! enough protocol for the four inference endpoints, with hard limits
//! on header and body sizes so a misbehaving client cannot balloon a
//! worker's memory.

use std::fmt;
use std::io::{Read, Write};

/// Longest accepted request head (request line + headers), bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body (a 2048×2048 PGM with header), bytes.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024 + 64;

/// Errors raised while reading one request off a connection.
#[derive(Debug)]
#[non_exhaustive]
pub enum HttpError {
    /// The request line or headers were malformed.
    Malformed(String),
    /// Head or body exceeded the hard size limits.
    TooLarge {
        /// What overflowed: `"head"` or `"body"`.
        what: &'static str,
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The socket failed mid-request.
    Io(std::io::Error),
    /// The connection closed before a full request arrived.
    Closed,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge { what, limit } => {
                write!(f, "request {what} exceeds {limit} bytes")
            }
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Closed => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// HTTP/1.x minor version (`0` or `1`).
    pub minor_version: u8,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client allows the connection to be reused.
    ///
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 requires an explicit `Connection: keep-alive`.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        if let Some(conn) = self.header("connection") {
            let conn = conn.to_ascii_lowercase();
            if conn.split(',').any(|t| t.trim() == "close") {
                return false;
            }
            if conn.split(',').any(|t| t.trim() == "keep-alive") {
                return true;
            }
        }
        self.minor_version >= 1
    }

    /// Reads and parses one request from a connection, discarding any
    /// bytes past the request's end. Connection loops should use
    /// [`RequestReader`], which carries those bytes over instead.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Closed`] on a clean EOF before any bytes,
    /// [`HttpError::Malformed`]/[`HttpError::TooLarge`] for protocol
    /// violations and [`HttpError::Io`] for socket failures.
    pub fn read_from<R: Read>(stream: &mut R) -> Result<Self, HttpError> {
        RequestReader::new(stream).read_request()
    }
}

/// Parses a request head (request line + headers, terminator stripped)
/// and returns the body-less request plus its declared body length.
fn parse_head(bytes: &[u8]) -> Result<(Request, usize), HttpError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    let minor_version = version
        .strip_prefix("HTTP/1.")
        .and_then(|m| m.parse::<u8>().ok())
        .ok_or_else(|| HttpError::Malformed(format!("unsupported version {version}")))?;
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    // Only `Content-Length` framing is spoken. A transfer coding this
    // parser does not decode, or two lengths to choose between, would
    // leave the start of the next request on a keep-alive stream in
    // doubt — the opening a smuggled request needs — so both are
    // refused outright.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported".into(),
        ));
    }
    let lengths = headers.iter().filter(|(k, _)| k == "content-length");
    if lengths.count() > 1 {
        return Err(HttpError::Malformed(
            "more than one content-length header".into(),
        ));
    }

    let request = Request {
        method,
        path,
        minor_version,
        headers,
        body: Vec::new(),
    };
    // `1*DIGIT` only: `usize::from_str` would also take a leading `+`,
    // which a proxy in front may read differently.
    let length = match request.header("content-length") {
        None => 0,
        Some(v) => Some(v)
            .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge {
            what: "body",
            limit: MAX_BODY_BYTES,
        });
    }
    Ok((request, length))
}

/// Reads a sequence of requests off one connection.
///
/// Bytes that arrive past a request's end (the start of the next
/// pipelined request) are carried over in an internal buffer instead
/// of being dropped, so `read_request` can be called repeatedly on a
/// keep-alive connection.
pub struct RequestReader<R> {
    stream: R,
    buf: Vec<u8>,
}

impl<R: Read> RequestReader<R> {
    /// Wraps a stream with an empty carry-over buffer.
    pub fn new(stream: R) -> Self {
        RequestReader {
            stream,
            buf: Vec::with_capacity(512),
        }
    }

    /// Whether carried-over bytes are already buffered — i.e. the next
    /// request has (partially) arrived without touching the socket.
    #[must_use]
    pub fn buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Performs exactly one `read` on the underlying stream and
    /// appends the bytes to the carry-over buffer. Returns the number
    /// of bytes read (`0` means EOF). Timeout-style errors
    /// (`WouldBlock`/`TimedOut`) pass through untouched so callers
    /// can poll in slices.
    ///
    /// # Errors
    ///
    /// Propagates socket read failures.
    pub fn fill_once(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 1024];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Parses the next request if its head **and** body are already
    /// fully buffered, without touching the socket — the hot path on
    /// a busy keep-alive connection, where one segment carries the
    /// whole request and the connection loop can skip re-arming the
    /// socket read timeout. `None` means more bytes are needed (fall
    /// back to [`read_request`](Self::read_request)); protocol violations detectable from
    /// the buffered bytes alone are reported immediately.
    pub fn try_read_buffered(&mut self) -> Option<Result<Request, HttpError>> {
        let end = match head_end_within_limit(&self.buf) {
            Ok(Some(end)) => end,
            Ok(None) => return None,
            Err(e) => return Some(Err(e)),
        };
        // Peek-parse the head to learn the body length; the buffer is
        // only consumed once the whole request is present, so a
        // `None` return leaves `read_request` a clean slate.
        let (mut request, length) = match parse_head(&self.buf[..end]) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.buf = self.buf.split_off(end + 4);
                return Some(Err(e));
            }
        };
        if self.buf.len() - (end + 4) < length {
            return None;
        }
        let mut body = self.buf.split_off(end + 4);
        self.buf = body.split_off(length);
        request.body = body;
        Some(Ok(request))
    }

    /// Reads and parses the next request, consuming buffered bytes
    /// first and reading from the stream only for what's missing.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Closed`] on a clean EOF at a request
    /// boundary, [`HttpError::Malformed`]/[`HttpError::TooLarge`] for
    /// protocol violations and [`HttpError::Io`] for socket failures.
    pub fn read_request(&mut self) -> Result<Request, HttpError> {
        let end = loop {
            if let Some(end) = head_end_within_limit(&self.buf)? {
                break end;
            }
            if self.fill_once()? == 0 {
                return if self.buf.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Malformed("EOF inside request head".into()))
                };
            }
        };
        let rest = self.buf.split_off(end + 4);
        let head = std::mem::replace(&mut self.buf, rest);
        let (mut request, length) = parse_head(&head[..end])?;

        let body = if self.buf.len() >= length {
            // Entire body already buffered; the tail stays carried
            // over as the start of the next pipelined request.
            let rest = self.buf.split_off(length);
            std::mem::replace(&mut self.buf, rest)
        } else {
            let mut body = std::mem::take(&mut self.buf);
            let start = body.len();
            body.resize(length, 0);
            self.stream.read_exact(&mut body[start..]).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    HttpError::Closed
                } else {
                    HttpError::Io(e)
                }
            })?;
            body
        };
        request.body = body;
        Ok(request)
    }
}

/// Byte offset of the `\r\n\r\n` terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The head's length if `buf` holds a whole head of at most
/// [`MAX_HEAD_BYTES`], `None` if it may still become one, and
/// [`HttpError::TooLarge`] once it cannot: the terminator lies past the
/// limit, or the limit and a terminator's worth of bytes have arrived
/// without one.
fn head_end_within_limit(buf: &[u8]) -> Result<Option<usize>, HttpError> {
    let scan = &buf[..buf.len().min(MAX_HEAD_BYTES + 4)];
    match find_head_end(scan) {
        Some(end) => Ok(Some(end)),
        None if scan.len() < MAX_HEAD_BYTES + 4 => Ok(None),
        None => Err(HttpError::TooLarge {
            what: "head",
            limit: MAX_HEAD_BYTES,
        }),
    }
}

/// One HTTP response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra header `(name, value)` pairs (`Content-Length`,
    /// `Content-Type` and a `Connection:` header are always emitted).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text error response; `message` becomes a JSON error
    /// body so every endpoint speaks JSON.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }

    /// The `503 Service Unavailable` load-shedding response.
    #[must_use]
    pub fn overloaded(retry_after_secs: u64) -> Self {
        let mut r = Response::error(503, "server overloaded, request shed");
        r.headers
            .push(("Retry-After".into(), retry_after_secs.to_string()));
        r
    }

    /// Serializes status line, headers and body onto a writer with
    /// `Connection: close` — the one-shot framing.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.write_conn(w, false)
    }

    /// Serializes with an explicit connection disposition:
    /// `Connection: keep-alive` when the socket stays open for the
    /// next request, `Connection: close` otherwise. `Content-Length`
    /// is always emitted, so keep-alive responses are self-framing.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_conn<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        // Serialize head + body into one buffer and write it with a
        // single call: a response split across small segments on a
        // kept-alive socket can straddle Nagle + delayed-ACK and
        // stall ~40ms per request.
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        write!(out, "Content-Length: {}\r\n", self.body.len())?;
        let conn = if keep_alive { "keep-alive" } else { "close" };
        write!(out, "Connection: {conn}\r\n\r\n")?;
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

/// Canonical reason phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a string as a JSON string literal (quotes included).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /detect?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let r = Request::read_from(&mut &raw[..]).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/detect");
        assert_eq!(r.header("host"), Some("h"));
        assert_eq!(r.header("HOST"), Some("h"));
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let r = Request::read_from(&mut &raw[..]).unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn body_split_across_reads_is_reassembled() {
        // `read_from` must tolerate the head read swallowing part of
        // the body and the rest arriving later: a Read over a slice
        // returns everything at once, which already exercises the
        // overflow path.
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let r = Request::read_from(&mut &raw[..]).unwrap();
        assert_eq!(r.body, b"abc");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let cases: &[&[u8]] = &[
            b"\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET /p\r\n\r\n",
            b"GET /p SPDY/9\r\n\r\n",
            b"GET /p HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ];
        for raw in cases {
            assert!(
                matches!(
                    Request::read_from(&mut &raw[..]),
                    Err(HttpError::Malformed(_))
                ),
                "case {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn ambiguous_framing_is_rejected_naming_the_header() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
                "transfer-encoding",
            ),
            // Any transfer coding, in any case, with or without a
            // length beside it.
            (
                b"POST /p HTTP/1.1\r\ntransfer-encoding: identity\r\n\r\n",
                "transfer-encoding",
            ),
            (
                b"POST /p HTTP/1.1\r\nContent-Length: 3\r\nTRANSFER-ENCODING: chunked\r\n\r\nabc",
                "transfer-encoding",
            ),
            // Duplicate lengths, agreeing or not.
            (
                b"POST /p HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
                "content-length",
            ),
            (
                b"POST /p HTTP/1.1\r\nContent-Length: 0\r\ncontent-length: 5\r\n\r\nhello",
                "content-length",
            ),
        ];
        for &(raw, name) in cases {
            let case = String::from_utf8_lossy(raw);
            match Request::read_from(&mut &raw[..]) {
                Err(HttpError::Malformed(why)) => {
                    assert!(why.contains(name), "{case:?}: {why}");
                }
                other => panic!("{case:?}: expected Malformed, got {other:?}"),
            }
            // The buffered fast path refuses it too.
            let mut empty: &[u8] = b"";
            let mut reader = RequestReader::new(&mut empty);
            reader.buf.extend_from_slice(raw);
            assert!(
                matches!(
                    reader.try_read_buffered(),
                    Some(Err(HttpError::Malformed(_)))
                ),
                "{case:?}"
            );
        }
        // One length stays fine.
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(Request::read_from(&mut &raw[..]).unwrap().body, b"abc");
    }

    #[test]
    fn eof_and_truncation_are_distinguished() {
        assert!(matches!(
            Request::read_from(&mut &b""[..]),
            Err(HttpError::Closed)
        ));
        assert!(matches!(
            Request::read_from(&mut &b"GET /p HT"[..]),
            Err(HttpError::Malformed(_))
        ));
        // Declared body never arrives.
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            Request::read_from(&mut &raw[..]),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let mut huge = b"GET /p HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert!(matches!(
            Request::read_from(&mut &huge[..]),
            Err(HttpError::TooLarge { what: "head", .. })
        ));
        let raw = format!(
            "POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            Request::read_from(&mut raw.as_bytes()),
            Err(HttpError::TooLarge { what: "body", .. })
        ));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let parse = |raw: &[u8]| Request::read_from(&mut &raw[..]).unwrap();
        // HTTP/1.1 defaults on; HTTP/1.0 defaults off.
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive());
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive());
        // Explicit Connection: header wins either way, any case.
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n").keep_alive());
        assert!(parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive());
        // Token lists are scanned, close dominating.
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").keep_alive());
    }

    #[test]
    fn try_read_buffered_only_consumes_complete_requests() {
        let mut empty: &[u8] = b"";
        let mut reader = RequestReader::new(&mut empty);
        // Nothing buffered → None, nothing consumed.
        assert!(reader.try_read_buffered().is_none());
        // Head present but body incomplete → None, buffer untouched.
        reader
            .buf
            .extend_from_slice(b"POST /classify HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
        assert!(reader.try_read_buffered().is_none());
        assert!(reader.buffered());
        // Body completes (plus pipelined tail) → parsed without any
        // socket read; the tail stays buffered.
        reader.buf.extend_from_slice(b"cdGET /healthz");
        let req = reader.try_read_buffered().expect("complete").expect("ok");
        assert_eq!((req.method.as_str(), &req.body[..]), ("POST", &b"abcd"[..]));
        assert_eq!(reader.buf, b"GET /healthz");
        // A malformed head is reported straight from the buffer.
        let mut reader = RequestReader::new(&mut empty);
        reader.buf.extend_from_slice(b"BLEEP\r\n\r\n");
        assert!(matches!(
            reader.try_read_buffered(),
            Some(Err(HttpError::Malformed(_)))
        ));
    }

    #[test]
    fn request_reader_pipelines_sequential_requests() {
        let raw =
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nxyGET /c HTTP/1.1\r\n\r\n";
        let mut stream = &raw[..];
        let mut reader = RequestReader::new(&mut stream);
        let a = reader.read_request().unwrap();
        assert_eq!((a.path.as_str(), a.body.as_slice()), ("/a", &b"abc"[..]));
        // The second request arrived in the same read; it must be
        // served from the carry-over buffer, bit-exact.
        assert!(reader.buffered());
        let b = reader.read_request().unwrap();
        assert_eq!((b.path.as_str(), b.body.as_slice()), ("/b", &b"xy"[..]));
        let c = reader.read_request().unwrap();
        assert_eq!(c.path, "/c");
        assert!(c.body.is_empty());
        // A clean EOF at a request boundary is Closed, not Malformed.
        assert!(matches!(reader.read_request(), Err(HttpError::Closed)));
    }

    #[test]
    fn request_reader_leaves_partial_next_request_buffered() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\nzGET /nex";
        let mut stream = &raw[..];
        let mut reader = RequestReader::new(&mut stream);
        let a = reader.read_request().unwrap();
        assert_eq!(a.body, b"z");
        assert!(reader.buffered());
        // The tail is an incomplete head cut off by EOF.
        assert!(matches!(
            reader.read_request(),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{}".into()).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn response_serializes_with_keep_alive_when_asked() {
        let mut out = Vec::new();
        Response::json(200, "{}".into())
            .write_conn(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let mut out = Vec::new();
        Response::overloaded(2).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("a\nb\u{1}"), "\"a\\nb\\u0001\"");
    }

    /// Hostile request heads and framings, modelled on the PGM reader's
    /// fuzz test.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// A request the reader must accept, field by field.
        #[derive(Debug, Clone)]
        struct Valid {
            method: &'static str,
            path: String,
            minor_version: u8,
            headers: Vec<(String, String)>,
            body: Vec<u8>,
        }

        impl Valid {
            fn bytes(&self) -> Vec<u8> {
                let mut head = format!(
                    "{} {}?q=1 HTTP/1.{}\r\n",
                    self.method, self.path, self.minor_version
                );
                for (k, v) in &self.headers {
                    head.push_str(&format!("{k}: {v}\r\n"));
                }
                if !self.body.is_empty() {
                    head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
                }
                head.push_str("\r\n");
                let mut out = head.into_bytes();
                out.extend_from_slice(&self.body);
                out
            }

            fn matches(&self, r: &Request) -> bool {
                let mut headers: Vec<(String, String)> = self
                    .headers
                    .iter()
                    .map(|(k, v)| (k.to_ascii_lowercase(), v.clone()))
                    .collect();
                if !self.body.is_empty() {
                    headers.push(("content-length".into(), self.body.len().to_string()));
                }
                r.method == self.method
                    && r.path == self.path
                    && r.minor_version == self.minor_version
                    && r.headers == headers
                    && r.body == self.body
            }
        }

        fn arb_valid() -> impl Strategy<Value = Valid> {
            let names = ["Host", "X-Request-Id", "Accept", "Connection", "User-Agent"];
            (
                0usize..4,
                prop::collection::vec(0u8..36, 1..12),
                0u8..=1,
                prop::collection::vec((0usize..names.len(), any::<u32>()), 0..5),
                prop::collection::vec(any::<u8>(), 0..48),
            )
                .prop_map(move |(method, path, minor_version, headers, body)| {
                    let token = |d: u8| char::from_digit(u32::from(d), 36).expect("base 36");
                    Valid {
                        method: ["GET", "POST", "PUT", "DELETE"][method],
                        path: std::iter::once('/')
                            .chain(path.into_iter().map(token))
                            .collect(),
                        minor_version,
                        headers: headers
                            .into_iter()
                            .map(|(k, v)| (names[k].to_owned(), format!("v{v}")))
                            .collect(),
                        body,
                    }
                })
        }

        /// Hostile reader inputs: random bytes, and valid requests that
        /// are truncated, have one byte overwritten or inserted, carry
        /// an over-long header, a huge or malformed length, or
        /// duplicate and forbidden framing fields. The first `bool`
        /// marks inputs that are still exactly the valid request,
        /// possibly followed by the start of another; the second, those
        /// that must be refused.
        fn arb_input() -> impl Strategy<Value = (Vec<u8>, bool, bool, Valid)> {
            (
                0usize..8,
                arb_valid(),
                prop::collection::vec(any::<u8>(), 0..64),
                any::<u64>(),
                any::<u8>(),
            )
                .prop_map(|(kind, valid, noise, pos, byte)| {
                    let bytes = valid.bytes();
                    let at = |len: usize| (pos % (len as u64 + 1)) as usize;
                    let head_end = find_head_end(&bytes).expect("a valid head");
                    let with_header = |line: String| {
                        let mut v = bytes[..head_end + 2].to_vec();
                        v.extend_from_slice(line.as_bytes());
                        v.extend_from_slice(&bytes[head_end + 2..]);
                        v
                    };
                    let input = match kind {
                        0 => noise.clone(),
                        1 => bytes[..at(bytes.len())].to_vec(),
                        2 => {
                            let mut v = bytes.clone();
                            let i = at(v.len() - 1);
                            v[i] = byte;
                            v
                        }
                        3 => {
                            let mut v = bytes.clone();
                            v.insert(at(v.len()), byte);
                            v
                        }
                        4 => {
                            // A padding header that ends the head within
                            // a kilobyte either side of the limit.
                            let pad = MAX_HEAD_BYTES - 1024 + at(2048);
                            with_header(format!("X-Pad: {}\r\n", "a".repeat(pad)))
                        }
                        5 => {
                            let lengths = [
                                "18446744073709551616",
                                "99999999999999999999999999",
                                "4194369",
                                "-1",
                                "+5",
                                "0x10",
                                "",
                            ];
                            // On the request without its body, so the
                            // bad length is the only one.
                            let v = lengths[at(lengths.len() - 1)];
                            let mut bare = Valid {
                                body: Vec::new(),
                                ..valid.clone()
                            }
                            .bytes();
                            bare.truncate(bare.len() - 2);
                            bare.extend_from_slice(
                                format!("Content-Length: {v}\r\n\r\n5byte").as_bytes(),
                            );
                            bare
                        }
                        6 => {
                            let fields = [
                                "Content-Length: 0\r\nContent-Length: 0\r\n",
                                "Transfer-Encoding: chunked\r\n",
                                "Host: a\r\nHost: b\r\n",
                                "no colon here\r\n",
                            ];
                            with_header(fields[at(fields.len() - 1)].to_owned())
                        }
                        _ => {
                            let mut v = bytes.clone();
                            v.extend_from_slice(&noise);
                            v
                        }
                    };
                    let intact = kind == 7 || (kind == 1 && input.len() == bytes.len());
                    // Every length above, and every field but the
                    // repeated `Host`, must be refused.
                    let refuse = kind == 5 || (kind == 6 && at(3) != 2);
                    (input, intact, refuse, valid)
                })
        }

        /// Serves `data` in reads of 1 to 1500 bytes, counting what it
        /// served.
        struct Chunked {
            data: Vec<u8>,
            served: usize,
            step: u64,
        }

        impl Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.step = self
                    .step
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let want = 1 + (self.step >> 33) as usize % 1500;
                let n = want.min(buf.len()).min(self.data.len() - self.served);
                buf[..n].copy_from_slice(&self.data[self.served..self.served + n]);
                self.served += n;
                Ok(n)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The reader never panics and fails only with typed
            /// protocol errors; an intact request round-trips, with or
            /// without a pipelined successor, whichever way the bytes
            /// arrive; no head longer than `MAX_HEAD_BYTES` is accepted,
            /// and refusing one reads at most one chunk past it.
            #[test]
            fn request_reader_survives_hostile_input((input, intact, refuse, valid) in arb_input(), seed in any::<u64>()) {
                if let Some(end) = find_head_end(&input) {
                    match parse_head(&input[..end]) {
                        Ok((r, length)) => {
                            prop_assert!(!refuse, "parsed {:?}", r);
                            prop_assert!(length <= MAX_BODY_BYTES && !r.method.is_empty());
                        }
                        Err(e) => prop_assert!(
                            matches!(e, HttpError::Malformed(_) | HttpError::TooLarge { .. }),
                            "{:?}", e
                        ),
                    }
                }
                let mut reader = RequestReader::new(Chunked { data: input.clone(), served: 0, step: seed });
                match reader.read_request() {
                    Ok(r) => {
                        prop_assert!(!refuse, "accepted {:?}", r);
                        let head = find_head_end(&input).expect("a parsed head has an end");
                        prop_assert!(head <= MAX_HEAD_BYTES, "accepted a {}-byte head", head);
                        if intact {
                            prop_assert!(valid.matches(&r), "{:?} from {:?}", r, valid);
                        }
                    }
                    Err(e) => {
                        prop_assert!(!intact, "intact request refused: {}", e);
                        prop_assert!(
                            matches!(e, HttpError::Malformed(_) | HttpError::TooLarge { .. } | HttpError::Closed),
                            "{:?}", e
                        );
                        if matches!(e, HttpError::TooLarge { what: "head", .. }) {
                            prop_assert!(reader.stream.served <= MAX_HEAD_BYTES + 4 + 1024);
                        }
                    }
                }
                let mut buffered = RequestReader::new(&input[..0]);
                buffered.buf = input.clone();
                if let Some(Ok(r)) = buffered.try_read_buffered() {
                    prop_assert!(find_head_end(&input).is_some_and(|h| h <= MAX_HEAD_BYTES));
                    if intact {
                        prop_assert!(valid.matches(&r));
                    }
                }
            }
        }
    }
}
