//! Minimal HTTP/1.1 over `std::net`: an incremental request parser, a
//! response builder, a blocking client, and the one connection plane the
//! serving front-end and the distributed workers share.
//!
//! Scope is deliberately narrow — exactly what the loopback inference
//! endpoint and the distributed execution plane need. `Content-Length`
//! bodies only (any `Transfer-Encoding` is rejected, never skipped),
//! byte-exact CRLF framing. The parser is incremental: feed it the bytes
//! read so far and it answers *complete / need more / malformed*, so
//! handler threads can read in a loop without buffering policy leaking
//! into the protocol code. All limits (header size, body size) are
//! enforced while bytes arrive, never after.
//!
//! Connections are persistent. [`Connections::serve_connection`] is the
//! only per-connection loop in the workspace: read a request, call the
//! handler, write the response, and read the next request from the same
//! socket — bytes that arrived behind a complete request (pipelining) are
//! kept for it. The connection ends on `Connection: close`, an HTTP/1.0
//! request, any response status ≥ 400 (every framing or limit error among
//! them), a read timeout, or a drain; only then does the half-close +
//! bounded drain of [`finish_connection`] run. A connection with nothing
//! buffered that times out or reaches EOF is closed without a response:
//! it is idle, not in error.
//!
//! [`Connections`] is also the hand-off between an accept loop and its
//! handler threads, and it keeps idle persistent connections from
//! starving new ones: a handler waiting for the next request on a
//! connection it has already answered is *parked*, and when a connection
//! is offered while no handler is free the longest-parked one is woken
//! (its read side is shut down, the handler sees EOF on an empty buffer
//! and moves on). [`Connections::drain`] wakes all of them, so a graceful
//! stop never waits out an idle timeout. A client that meets the ordinary
//! keep-alive close race — its next request crossing the close — retries
//! once on a fresh socket ([`Client`]).
//!
//! This module began life inside `crates/serve`; `crates/serve/src/http.rs`
//! re-exports everything here.

use crate::json::Json;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Parser limits, enforced during (not after) reading.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes for the request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes for the body (`413` beyond this).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_head_bytes: 8 * 1024, max_body_bytes: 1 << 20 }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path (no scheme/authority).
    pub path: String,
    /// Header name/value pairs, in order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client allows another request on this connection:
    /// HTTP/1.1 without a `Connection: close` token.
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; maps directly to a status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line or header framing → `400`.
    Malformed,
    /// Head grew beyond [`Limits::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`] → `413`.
    BodyTooLarge,
}

impl ParseError {
    /// The status code this error answers with.
    pub fn status(self) -> u16 {
        match self {
            ParseError::Malformed => 400,
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
        }
    }
}

/// Outcome of parsing the bytes received so far.
#[derive(Debug)]
pub enum ParseOutcome {
    /// A full request; `usize` is the bytes consumed.
    Complete(Request, usize),
    /// Valid prefix; read more bytes and try again.
    Incomplete,
    /// Irrecoverably malformed or over a limit.
    Error(ParseError),
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parses one request from `buf`. Incremental and restartable: call again
/// with the same buffer plus newly read bytes after `Incomplete`.
pub fn parse_request(buf: &[u8], limits: &Limits) -> ParseOutcome {
    parse_request_resumable(buf, limits, &mut 0)
}

/// [`parse_request`] with a persistent head-scan offset. `scanned` must
/// start at 0 for a fresh buffer and be carried unchanged across
/// `Incomplete` retries on the same (growing) buffer: bytes already known
/// to hold no `\r\n\r\n` are never rescanned, so a read loop costs O(bytes)
/// total against a client that trickles the head byte by byte, instead of
/// O(bytes²). The head-size limit is enforced as soon as an unterminated
/// head outgrows it.
pub fn parse_request_resumable(
    buf: &[u8],
    limits: &Limits,
    scanned: &mut usize,
) -> ParseOutcome {
    // Resume the terminator scan 3 bytes early: a `\r\n\r\n` may straddle
    // the previously scanned prefix and the new bytes.
    let start = scanned.saturating_sub(3).min(buf.len());
    let head_end = buf[start..].windows(4).position(|w| w == b"\r\n\r\n").map(|p| start + p);
    let Some(head_len) = head_end else {
        *scanned = buf.len();
        // Up to 3 bytes of a terminator may already be in: only past that
        // is every possible head too large, wherever the reads split.
        return if buf.len() > limits.max_head_bytes + 3 {
            ParseOutcome::Error(ParseError::HeadTooLarge)
        } else {
            ParseOutcome::Incomplete
        };
    };
    // Park the scan position at the terminator (never moving backwards —
    // an earlier partial scan may sit up to 3 bytes past it, which the
    // resume back-off covers) so body-completeness retries re-find it in
    // constant time.
    *scanned = (*scanned).max(head_len);
    if head_len > limits.max_head_bytes {
        return ParseOutcome::Error(ParseError::HeadTooLarge);
    }
    let head = &buf[..head_len];
    let Ok(head) = std::str::from_utf8(head) else {
        return ParseOutcome::Error(ParseError::Malformed);
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return ParseOutcome::Error(ParseError::Malformed);
    };
    if method.is_empty()
        || !method.bytes().all(is_token_byte)
        || path.is_empty()
        || !path.starts_with('/')
        || !matches!(version, "HTTP/1.1" | "HTTP/1.0")
    {
        return ParseOutcome::Error(ParseError::Malformed);
    }

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return ParseOutcome::Error(ParseError::Malformed);
        };
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return ParseOutcome::Error(ParseError::Malformed);
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            // RFC 9112 §6.3: conflicting or repeated Content-Length must
            // be rejected, not resolved — a second header field here, or a
            // comma-separated list (which fails the integer parse below),
            // is malformed rather than last-one-wins.
            if content_length.is_some() {
                return ParseOutcome::Error(ParseError::Malformed);
            }
            let Ok(n) = value.parse::<usize>() else {
                return ParseOutcome::Error(ParseError::Malformed);
            };
            if n > limits.max_body_bytes {
                return ParseOutcome::Error(ParseError::BodyTooLarge);
            }
            content_length = Some(n);
        } else if name == "transfer-encoding" {
            // Bodies are framed by Content-Length only. Skipping this
            // header would leave a chunked body on a persistent
            // connection to be parsed as the next request.
            return ParseOutcome::Error(ParseError::Malformed);
        } else if name == "connection"
            && value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"))
        {
            keep_alive = false;
        }
        headers.push((name, value));
    }
    let content_length = content_length.unwrap_or(0);

    let body_start = head_len + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return ParseOutcome::Incomplete;
    }
    ParseOutcome::Complete(
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body: buf[body_start..total].to_vec(),
            keep_alive,
        },
        total,
    )
}

/// Standard reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        426 => "Upgrade Required",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (Content-Length and a default Content-Type are automatic).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response { status, headers: Vec::new(), body: value.to_string().into_bytes() }
    }

    /// A response with an explicit content type (suppresses the
    /// `application/json` default).
    pub fn text(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type", content_type.to_string())],
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &Json::obj([("error", Json::Str(message.into()))]))
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// Serializes the response. No `Connection` header is added: the
    /// connection stays open unless the caller put `Connection: close`
    /// among the headers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(
            format!("HTTP/1.1 {} {}\r\n", self.status, status_text(self.status)).as_bytes(),
        );
        if !self.headers.iter().any(|(k, _)| k.eq_ignore_ascii_case("Content-Type")) {
            out.extend_from_slice(b"Content-Type: application/json\r\n");
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Ends a connection: writes `resp` marked `Connection: close`,
/// half-closes the write side, and drains a bounded amount of late client
/// bytes so the client sees the full response before RST can clobber it
/// (the classic close-with-unread-data hazard).
pub fn finish_connection(mut stream: &TcpStream, resp: Response) {
    let _ = stream.write_all(&resp.with_header("Connection", "close").to_bytes());
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// What a connection's handler thread calls per request.
pub trait Handler {
    /// Answers one parsed request.
    fn handle(&self, req: &Request) -> Response;

    /// The response for a request that could not be read — `status` is
    /// the framing/limit error's code, or `408` for a request that stalled
    /// part-way. Such requests never reach [`Handler::handle`].
    fn reject(&self, status: u16) -> Response {
        Response::error(status, status_text(status))
    }
}

impl<F: Fn(&Request) -> Response + ?Sized> Handler for F {
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Why no request could be read off a connection.
enum ReadError {
    /// Answer with this status and close: a framing or limit error
    /// ([`ParseError::status`]), or `408` for a client that went quiet
    /// part-way through a request.
    Reject(u16),
    /// Nothing to answer: EOF, idle timeout or a wake-up with no byte of
    /// a next request buffered, or a broken socket.
    Closed,
}

struct ConnState {
    /// Accepted connections no handler has picked up yet.
    queue: VecDeque<TcpStream>,
    /// Handler threads blocked in [`Connections::next`].
    waiting: usize,
    /// Connections whose handler is waiting for the *next* request after
    /// having answered one, longest-parked first.
    parked: Vec<Arc<TcpStream>>,
    draining: bool,
}

impl ConnState {
    /// Whether persistent connections should end now: the plane is
    /// draining, or a queued connection has no free handler to take it.
    fn must_yield(&self) -> bool {
        self.draining || self.queue.len() > self.waiting
    }
}

/// The connection plane: the bounded hand-off between an accept loop and
/// its handler threads, and the per-connection request loop those threads
/// run. See the module docs for the lifecycle.
pub struct Connections {
    state: Mutex<ConnState>,
    cv: Condvar,
    limit: usize,
}

impl Connections {
    /// A plane that queues at most `limit` connections ahead of handlers.
    pub fn new(limit: usize) -> Connections {
        Connections {
            state: Mutex::new(ConnState {
                queue: VecDeque::new(),
                waiting: 0,
                parked: Vec::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            limit: limit.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ConnState> {
        self.state.lock().expect("no thread panics holding the connection queue")
    }

    /// Accept side: queues `stream` for a handler and returns the queue
    /// depth, or gives the stream back when the queue is full (the caller
    /// sheds it). With every handler busy, the longest-parked idle
    /// connection is woken so its handler takes this one.
    pub fn offer(&self, stream: TcpStream) -> Result<usize, TcpStream> {
        let mut st = self.lock();
        if st.queue.len() >= self.limit {
            return Err(stream);
        }
        st.queue.push_back(stream);
        if st.queue.len() > st.waiting && !st.parked.is_empty() {
            let _ = st.parked.remove(0).shutdown(Shutdown::Read);
        }
        let depth = st.queue.len();
        drop(st);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Handler side: blocks for the next queued connection; `None` once
    /// the plane is draining and the queue is empty.
    pub fn next(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        loop {
            if let Some(s) = st.queue.pop_front() {
                return Some(s);
            }
            if st.draining {
                return None;
            }
            st.waiting += 1;
            st = self.cv.wait(st).expect("no thread panics holding the connection queue");
            st.waiting -= 1;
        }
    }

    /// Connections queued and not yet picked up by a handler.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Starts a graceful stop: queued connections are still served and
    /// requests in flight still answered, but every parked connection is
    /// woken and no handler parks again. Call after the accept loop has
    /// stopped offering.
    pub fn drain(&self) {
        let mut st = self.lock();
        st.draining = true;
        for idle in st.parked.drain(..) {
            let _ = idle.shutdown(Shutdown::Read);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Registers `stream` as idle, unless connections must yield — then
    /// the caller closes instead. Deciding under the queue's lock leaves
    /// no window in which an offer can miss a handler about to park.
    fn park(&self, stream: &Arc<TcpStream>) -> bool {
        let mut st = self.lock();
        if st.must_yield() {
            return false;
        }
        st.parked.push(Arc::clone(stream));
        true
    }

    fn unpark(&self, stream: &Arc<TcpStream>) {
        self.lock().parked.retain(|s| !Arc::ptr_eq(s, stream));
    }

    /// Reads one request, starting from what `buf` already holds and
    /// leaving in it whatever arrived behind the request. `answered` says
    /// the connection has had a response, which makes its idle wait a
    /// parked one; a fresh connection is never woken early, because its
    /// client has no reason to retry.
    fn read_request(
        &self,
        stream: &Arc<TcpStream>,
        buf: &mut Vec<u8>,
        limits: &Limits,
        answered: bool,
    ) -> Result<Request, ReadError> {
        let mut chunk = [0u8; 4096];
        // Carried across retries so slow (trickling) clients cost O(bytes)
        // of head scanning per request, not O(bytes²).
        let mut scanned = 0usize;
        loop {
            match parse_request_resumable(buf, limits, &mut scanned) {
                ParseOutcome::Complete(req, used) => {
                    buf.drain(..used);
                    return Ok(req);
                }
                ParseOutcome::Error(e) => return Err(ReadError::Reject(e.status())),
                ParseOutcome::Incomplete => {}
            }
            let idle = buf.is_empty();
            let parked = idle && answered;
            if parked && !self.park(stream) {
                return Err(ReadError::Closed);
            }
            let read = (&**stream).read(&mut chunk);
            if parked {
                self.unpark(stream);
            }
            match read {
                // EOF mid-request: answer 400 rather than hang.
                Ok(0) if !idle => return Err(ReadError::Reject(ParseError::Malformed.status())),
                Ok(0) => return Err(ReadError::Closed),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if !idle
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                {
                    return Err(ReadError::Reject(408));
                }
                Err(_) => return Err(ReadError::Closed),
            }
        }
    }

    /// The per-connection loop: answers requests from `stream` until the
    /// connection ends (module docs list the reasons). `timeout` bounds
    /// each read and write, so it is both the stalled-request and the
    /// idle limit.
    pub fn serve_connection<H: Handler + ?Sized>(
        &self,
        stream: TcpStream,
        limits: &Limits,
        timeout: Duration,
        handler: &H,
    ) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let stream = Arc::new(stream);
        let mut buf = Vec::with_capacity(1024);
        let mut answered = false;
        loop {
            let (resp, keep) = match self.read_request(&stream, &mut buf, limits, answered) {
                Ok(req) => {
                    let resp = handler.handle(&req);
                    let keep = req.keep_alive && resp.status < 400;
                    (resp, keep)
                }
                Err(ReadError::Reject(status)) => (handler.reject(status), false),
                Err(ReadError::Closed) => return,
            };
            // Yielding here rather than at the park lets the client read
            // `Connection: close` instead of discovering a dead socket.
            if !keep || self.lock().must_yield() {
                return finish_connection(&stream, resp);
            }
            if (&*stream).write_all(&resp.to_bytes()).is_err() {
                return;
            }
            answered = true;
        }
    }
}

/// Largest response head the client accepts.
const MAX_RESPONSE_HEAD: usize = 64 * 1024;

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `(status, declared body length, server closes after this response)`
/// from a response head (everything before the blank line).
fn parse_response_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut content_length = None;
    let mut close = status_line.starts_with("HTTP/1.0");
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| invalid("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
        }
    }
    let content_length = content_length.ok_or_else(|| invalid("response has no Content-Length"))?;
    Ok((status, content_length, close))
}

fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a raw HTTP response into `(status, body)`, framed by its
/// `Content-Length`: a body shorter than declared is `UnexpectedEof`, a
/// head without a usable length is `InvalidData` — never a short success.
pub fn parse_response(raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let head_len = head_end(raw).ok_or(io::ErrorKind::UnexpectedEof)?;
    let (status, content_length, _) = parse_response_head(&raw[..head_len])?;
    let body = &raw[head_len + 4..];
    if body.len() < content_length {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((status, body[..content_length].to_vec()))
}

/// Reads one `Content-Length`-framed response off `stream`.
fn read_response(stream: &mut TcpStream) -> io::Result<(u16, Vec<u8>, bool)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        if let Some(p) = head_end(&buf) {
            break p;
        }
        if buf.len() > MAX_RESPONSE_HEAD {
            return Err(invalid("response head too large"));
        }
        match stream.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let (status, content_length, close) = parse_response_head(&buf[..head_len])?;
    let mut body = buf.split_off(head_len + 4);
    if body.len() > content_length {
        return Err(invalid("bytes beyond the declared response body"));
    }
    // Grows with the bytes that arrive, not with the length the peer claims.
    let missing = (content_length - body.len()) as u64;
    if stream.take(missing).read_to_end(&mut body)? as u64 != missing {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((status, body, close))
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Sends one request and reads its response.
fn round_trip(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
) -> io::Result<(u16, Vec<u8>, bool)> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{}\r\n",
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    )
    .into_bytes();
    // One write (one segment under TCP_NODELAY) for ordinary requests;
    // shard-sized bodies are not copied just to ride along with the head.
    if body.len() <= 64 * 1024 {
        wire.extend_from_slice(body);
        stream.write_all(&wire)?;
    } else {
        stream.write_all(&wire)?;
        stream.write_all(body)?;
    }
    read_response(stream)
}

/// Blocking one-shot HTTP client for loopback tests, demos and probes:
/// opens a connection, sends one request marked `Connection: close`, and
/// returns `(status, body)`. `timeout` bounds each read and write.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = connect(addr, timeout)?;
    let (status, body, _) =
        round_trip(&mut stream, addr, method, path, body.unwrap_or(&[]), true)?;
    Ok((status, body))
}

/// A reusable blocking client for one server: connects lazily, keeps the
/// socket across requests whenever the response allows it, and replaces a
/// reused socket that turns out dead — the server closed it while idle —
/// with one retry. A timeout or a malformed response is never retried.
pub struct Client {
    addr: String,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr`; `timeout` bounds each read and write.
    pub fn new(addr: &str, timeout: Duration) -> Client {
        Client { addr: addr.to_string(), timeout, stream: None }
    }

    /// Sends one request and returns `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<(u16, Vec<u8>)> {
        let body = body.unwrap_or(&[]);
        let reused = self.stream.is_some();
        match self.exchange(method, path, body) {
            Err(e)
                if reused
                    && !matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::InvalidData
                    ) =>
            {
                self.exchange(method, path, body)
            }
            other => other,
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        // Taken out of the slot, so any error drops the socket.
        let mut stream = match self.stream.take() {
            Some(s) => s,
            None => connect(&self.addr, self.timeout)?,
        };
        let (status, body, close) =
            round_trip(&mut stream, &self.addr, method, path, body, false)?;
        if !close {
            self.stream = Some(stream);
        }
        Ok((status, body))
    }
}

/// Handle for a running [`serve`] loop: address + graceful stop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Connections>,
    accept: JoinHandle<()>,
    handlers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, answers what is queued or in flight, wakes idle
    /// persistent connections, and joins every thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
        self.conns.drain();
        for t in self.handlers {
            let _ = t.join();
        }
    }
}

/// Generic threaded server over [`Connections`]: one accept thread and
/// `threads` handler threads running [`Connections::serve_connection`]
/// with `read_timeout` and `limits`. Used by `nautilus-dist` workers;
/// `crates/serve` runs its own accept loop (bounded queue, `503`
/// shedding) over the same plane.
pub fn serve(
    listener: TcpListener,
    limits: Limits,
    read_timeout: Duration,
    threads: usize,
    handler: Arc<dyn Fn(&Request) -> Response + Send + Sync>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(Connections::new(usize::MAX));
    let accept = {
        let (stop, conns) = (Arc::clone(&stop), Arc::clone(&conns));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        // Unbounded queue: an offer is never refused.
                        let _ = conns.offer(stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => {}
                }
            }
        })
    };
    let handlers = (0..threads.max(1))
        .map(|_| {
            let (conns, handler) = (Arc::clone(&conns), Arc::clone(&handler));
            std::thread::spawn(move || {
                while let Some(stream) = conns.next() {
                    conns.serve_connection(stream, &limits, read_timeout, &*handler);
                }
            })
        })
        .collect();
    Ok(ServerHandle { addr, stop, conns, accept, handlers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn parse(bytes: &[u8]) -> ParseOutcome {
        parse_request(bytes, &Limits::default())
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        match parse(raw) {
            ParseOutcome::Complete(req, used) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/predict");
                assert_eq!(req.header("host"), Some("x"));
                assert_eq!(req.body, b"abcd");
                assert_eq!(used, raw.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_until_body_arrives() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(parse(raw), ParseOutcome::Incomplete));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"G@T /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), ParseOutcome::Error(ParseError::Malformed)),
                "should reject {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_bad_headers_and_lengths() {
        let no_colon = b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n";
        assert!(matches!(parse(no_colon), ParseOutcome::Error(ParseError::Malformed)));
        let bad_len = b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n";
        assert!(matches!(parse(bad_len), ParseOutcome::Error(ParseError::Malformed)));
    }

    /// RFC 9112 §6.3: repeated or conflicting Content-Length is rejected
    /// outright — never resolved last-one-wins.
    #[test]
    fn rejects_duplicate_or_listed_content_length() {
        for raw in [
            // Two agreeing fields are still malformed.
            &b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd"[..],
            // Two conflicting fields.
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd",
            // A comma-separated list inside one field.
            b"POST / HTTP/1.1\r\nContent-Length: 4, 4\r\n\r\nabcd",
        ] {
            assert!(
                matches!(parse(raw), ParseOutcome::Error(ParseError::Malformed)),
                "should reject {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    /// Feeding the parser byte by byte with a persistent scan offset must
    /// reach the same result as one-shot parsing, without rescanning the
    /// prefix (the offset only moves forward).
    #[test]
    fn resumable_parse_handles_trickled_delivery() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let limits = Limits::default();
        let mut scanned = 0usize;
        let mut prev_scanned = 0usize;
        for n in 1..raw.len() {
            match parse_request_resumable(&raw[..n], &limits, &mut scanned) {
                ParseOutcome::Incomplete => {}
                other => panic!("unexpected outcome at {n} bytes: {other:?}"),
            }
            assert!(scanned >= prev_scanned, "scan offset moved backwards at {n}");
            prev_scanned = scanned;
        }
        match parse_request_resumable(raw, &limits, &mut scanned) {
            ParseOutcome::Complete(req, used) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.body, b"abcd");
                assert_eq!(used, raw.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
        // The head terminator straddling a read boundary is found even
        // though the scan resumed mid-sequence.
        let head_only = b"GET / HTTP/1.1\r\n\r\n";
        let mut scanned = 0usize;
        let split = head_only.len() - 2; // "\r\n\r" delivered, final "\n" pending
        assert!(matches!(
            parse_request_resumable(&head_only[..split], &Limits::default(), &mut scanned),
            ParseOutcome::Incomplete
        ));
        assert!(matches!(
            parse_request_resumable(head_only, &Limits::default(), &mut scanned),
            ParseOutcome::Complete(..)
        ));
    }

    #[test]
    fn enforces_limits_while_reading() {
        let limits = Limits { max_head_bytes: 64, max_body_bytes: 8 };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        assert!(matches!(
            parse_request(long_head.as_bytes(), &limits),
            ParseOutcome::Error(ParseError::HeadTooLarge)
        ));
        // Oversized body is rejected from the *declared* length — before
        // the body bytes ever arrive.
        let big = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        assert!(matches!(
            parse_request(big, &limits),
            ParseOutcome::Error(ParseError::BodyTooLarge)
        ));
        // A growing head with no terminator trips the limit too, as soon as
        // no terminator still to come could end it within the limit.
        assert!(matches!(parse_request(&[b'A'; 67], &limits), ParseOutcome::Incomplete));
        let partial = vec![b'A'; 68];
        assert!(matches!(
            parse_request(&partial, &limits),
            ParseOutcome::Error(ParseError::HeadTooLarge)
        ));
    }

    #[test]
    fn parser_tracks_keep_alive_and_rejects_transfer_encoding() {
        let keep = |raw: &[u8]| match parse(raw) {
            ParseOutcome::Complete(req, _) => req.keep_alive,
            other => panic!("expected complete, got {other:?}"),
        };
        assert!(keep(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(keep(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keep(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep(b"GET / HTTP/1.1\r\nConnection: Upgrade, CLOSE\r\n\r\n"));
        assert!(!keep(b"GET / HTTP/1.0\r\n\r\n"));
        // Any Transfer-Encoding is refused, even beside a Content-Length:
        // an unparsed chunked body must never be read as the next request.
        for raw in [
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"[..],
            b"POST / HTTP/1.1\r\nContent-Length: 1\r\nTransfer-Encoding: identity\r\n\r\nx",
        ] {
            assert!(matches!(parse(raw), ParseOutcome::Error(ParseError::Malformed)));
        }
    }

    #[test]
    fn response_round_trips_through_client_parser() {
        let resp = Response::json(200, &Json::obj([("ok", Json::Bool(true))]))
            .with_header("Retry-After", "1");
        let bytes = resp.to_bytes();
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(!text.contains("Connection:"), "persistent unless the caller says otherwise");
        let (status, body) = parse_response(&bytes).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"ok":true}"#);
    }

    /// The client side fails closed: a body shorter than its declared
    /// length, or a response that declares none, is an error — never a
    /// short success.
    #[test]
    fn truncated_or_unframed_responses_are_errors() {
        let full = Response::text(200, "text/plain", "0123456789").to_bytes();
        assert_eq!(parse_response(&full).unwrap().1, b"0123456789");
        for cut in [full.len() - 1, full.len() - 10, 20] {
            let err = parse_response(&full[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let unframed = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello";
        assert_eq!(parse_response(unframed).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // Over a socket: the peer promises 10 bytes, sends 4, and closes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            let _ = s.read(&mut sink).unwrap();
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123").unwrap();
        });
        let err = request(&addr, "GET", "/", None, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        peer.join().unwrap();
    }

    /// An echo server with a request counter, for the connection tests.
    fn echo_server(threads: usize, timeout: Duration) -> (ServerHandle, Arc<AtomicUsize>) {
        let handled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&handled);
        let handle = serve(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            Limits::default(),
            timeout,
            threads,
            Arc::new(move |req: &Request| {
                counter.fetch_add(1, Ordering::SeqCst);
                match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/healthz") => Response::text(200, "text/plain", "ok"),
                    ("POST", "/echo") => {
                        Response::text(200, "application/octet-stream", req.body.clone())
                    }
                    _ => Response::error(404, "no such route"),
                }
            }),
        )
        .unwrap();
        (handle, handled)
    }

    fn raw_conn(handle: &ServerHandle) -> TcpStream {
        let s = TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }

    /// Every `Content-Length`-framed response in `raw`, in order.
    fn responses(mut raw: &[u8]) -> Vec<(u16, Vec<u8>)> {
        let mut out = Vec::new();
        while !raw.is_empty() {
            let (status, body) = parse_response(raw).unwrap();
            raw = &raw[head_end(raw).unwrap() + 4 + body.len()..];
            out.push((status, body));
        }
        out
    }

    /// Whether the peer has closed: a read returns EOF, not data or a timeout.
    fn at_eof(s: &mut TcpStream) -> bool {
        matches!(s.read(&mut [0u8; 16]), Ok(0))
    }

    /// The generic threaded server answers requests through the handler
    /// and maps parse failures to status codes without invoking it.
    #[test]
    fn generic_server_round_trip() {
        let (handle, _) = echo_server(2, Duration::from_secs(2));
        let addr = handle.addr().to_string();
        let (status, body) =
            request(&addr, "GET", "/healthz", None, Duration::from_secs(2)).unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"ok"[..]));
        let payload = vec![7u8; 512];
        let (status, body) =
            request(&addr, "POST", "/echo", Some(&payload), Duration::from_secs(2)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, payload);
        // A body too large to ride in the head's write takes the two-write path.
        let big = vec![9u8; 200 * 1024];
        let (status, body) =
            request(&addr, "POST", "/echo", Some(&big), Duration::from_secs(2)).unwrap();
        assert_eq!((status, body.len()), (200, big.len()));
        let (status, _) =
            request(&addr, "GET", "/missing", None, Duration::from_secs(2)).unwrap();
        assert_eq!(status, 404);
        handle.stop();
    }

    /// One socket carries request after request, each answered exactly as
    /// a one-shot exchange would be; `Connection: close`, HTTP/1.0 and an
    /// error status each end it.
    #[test]
    fn connection_persists_until_close_http10_or_error() {
        let (handle, handled) = echo_server(2, Duration::from_secs(2));
        let addr = handle.addr().to_string();
        let one_shot =
            request(&addr, "POST", "/echo", Some(b"abc"), Duration::from_secs(2)).unwrap();

        let mut s = raw_conn(&handle);
        for _ in 0..5 {
            s.write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc").unwrap();
            let (status, body, close) = read_response(&mut s).unwrap();
            assert_eq!((status, body), one_shot.clone());
            assert!(!close, "a plain HTTP/1.1 exchange keeps the connection");
        }
        s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let (status, _, close) = read_response(&mut s).unwrap();
        assert!(status == 200 && close && at_eof(&mut s), "close is announced and done");

        // (Each socket is dropped before the next: the server lingers on a
        // closed connection until the client lets go of it.)
        s = raw_conn(&handle);
        s.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        let (status, _, close) = read_response(&mut s).unwrap();
        assert!(status == 200 && close && at_eof(&mut s), "HTTP/1.0 is one request");

        s = raw_conn(&handle);
        s.write_all(b"GET /missing HTTP/1.1\r\n\r\n").unwrap();
        let (status, _, close) = read_response(&mut s).unwrap();
        assert!(status == 404 && close && at_eof(&mut s), "an error status closes");
        drop(s);

        assert_eq!(handled.load(Ordering::SeqCst), 9);
        handle.stop();
    }

    /// Two requests in one write get two answers, in order: bytes behind a
    /// complete request belong to the next one.
    #[test]
    fn pipelined_requests_are_each_answered() {
        let (handle, _) = echo_server(1, Duration::from_secs(2));
        let mut s = raw_conn(&handle);
        s.write_all(
            b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirstPOST /echo HTTP/1.1\r\n\
              Content-Length: 6\r\nConnection: close\r\n\r\nsecond",
        )
        .unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        assert_eq!(responses(&raw), [(200, b"first".to_vec()), (200, b"second".to_vec())]);
        drop(s);
        handle.stop();
    }

    /// A chunked body is refused with 400 and the connection closed — what
    /// looks like a request inside it never reaches the handler.
    #[test]
    fn transfer_encoding_closes_the_connection_unparsed() {
        let (handle, handled) = echo_server(1, Duration::from_secs(2));
        let mut s = raw_conn(&handle);
        s.write_all(
            b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              1c\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
        )
        .unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let answered: Vec<u16> = responses(&raw).iter().map(|r| r.0).collect();
        assert_eq!(answered, [400], "exactly one response, then close");
        assert_eq!(handled.load(Ordering::SeqCst), 0);
        drop(s);
        handle.stop();
    }

    /// Idle is not an error: a connection with nothing buffered is closed
    /// without a response at the timeout — fresh or already answered —
    /// while a request that stalled part-way still gets its 408.
    #[test]
    fn idle_timeout_is_silent_and_a_stalled_request_is_408() {
        let (handle, _) = echo_server(2, Duration::from_millis(100));
        let mut fresh = raw_conn(&handle);
        let mut answered = raw_conn(&handle);
        answered.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut answered).unwrap().0, 200);
        assert!(at_eof(&mut fresh) && at_eof(&mut answered), "idle close carries no bytes");

        let mut stalled = raw_conn(&handle);
        stalled.write_all(b"POST /echo HTTP/1.1\r\nContent-").unwrap();
        let (status, _, close) = read_response(&mut stalled).unwrap();
        assert!(status == 408 && close && at_eof(&mut stalled));
        drop(stalled);
        handle.stop();
    }

    /// Every handler parked on an idle persistent connection: a new
    /// connection is still answered at once (the longest-parked is woken),
    /// the woken client's next request succeeds through its one retry, and
    /// `stop` does not wait out the idle timeout.
    #[test]
    fn parked_connections_yield_to_new_ones_and_to_stop() {
        let idle_timeout = Duration::from_secs(30);
        let (handle, handled) = echo_server(2, idle_timeout);
        let addr = handle.addr().to_string();
        let mut clients: Vec<Client> = (0..2).map(|_| Client::new(&addr, idle_timeout)).collect();
        for c in &mut clients {
            assert_eq!(c.request("GET", "/healthz", None).unwrap().0, 200);
        }

        let t0 = Instant::now();
        let (status, _) = request(&addr, "GET", "/healthz", None, idle_timeout).unwrap();
        assert_eq!(status, 200);
        assert!(t0.elapsed() < Duration::from_millis(100), "starved for {:?}", t0.elapsed());

        // One of the two was closed under it; both still get answers.
        for c in &mut clients {
            assert_eq!(c.request("POST", "/echo", Some(b"again")).unwrap().1, b"again");
        }
        assert_eq!(handled.load(Ordering::SeqCst), 5, "the retry re-sent nothing that was handled");

        let t0 = Instant::now();
        handle.stop();
        assert!(t0.elapsed() < Duration::from_millis(250), "stop took {:?}", t0.elapsed());
    }
}
