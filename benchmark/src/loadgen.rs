//! The load generator: a fixed arrival schedule computed up front, sender
//! threads that time every request from the instant it was *due* (so a stall
//! charges the requests queued behind it — no coordinated omission), and an
//! HTTP/1.1 client that frames responses by `Content-Length`.
//!
//! The client lives here, not in `nautilus_util::http::request` (which reads
//! to EOF and therefore can never reuse a socket): it sends no
//! `Connection: close`, keeps the socket whenever the response does not say
//! `Connection: close` and the peer has not closed, and reconnects otherwise.
//! Today the server closes after every response, so `connects == sent`; a
//! keep-alive server moves the latency metrics without touching this file.

use crate::spans;
use nautilus_util::json::Json;
use nautilus_util::rng::{Rng, SeedableRng, StdRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sender threads — and therefore the most connections ever open. Sized for
/// the 2-core runner: more would take CPU from the server under test.
pub const SENDERS: usize = 2;

/// What a schedule slot does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// `POST /predict/<tenant>` with payload `payload`.
    Predict,
    /// An in-process `registry.publish(tenant, ..)` hot swap on the sender
    /// thread, in place of a request.
    Publish,
}

/// One entry of the arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// When the operation is due, relative to the window start.
    pub due: Duration,
    /// Tenant index.
    pub tenant: usize,
    /// Index into the payload table.
    pub payload: usize,
    /// What to do.
    pub kind: SlotKind,
}

/// How tenants are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantChoice {
    /// Every tenant equally likely.
    Uniform,
    /// Zipf with the given exponent over tenant rank (tenant 0 hottest).
    Zipf(f64),
}

/// Inverse-CDF sampler for a Zipf distribution over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` (0-based) has weight `1 / (k + 1)^exponent`.
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The seeded stream of `(tenant, payload)` choices.
pub struct Picker {
    rng: StdRng,
    zipf: Option<Zipf>,
    tenants: usize,
    payloads: usize,
}

impl Picker {
    /// A stream over `tenants` tenants and `payloads` payloads.
    pub fn new(seed: u64, tenants: usize, payloads: usize, choice: TenantChoice) -> Picker {
        let zipf = match choice {
            TenantChoice::Zipf(s) => Some(Zipf::new(tenants, s)),
            TenantChoice::Uniform => None,
        };
        Picker {
            rng: StdRng::seed_from_u64(seed),
            zipf,
            tenants,
            payloads,
        }
    }

    /// The next `(tenant, payload)`.
    pub fn pick(&mut self) -> (usize, usize) {
        let tenant = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.tenants),
        };
        (tenant, self.rng.gen_range(0..self.payloads))
    }
}

/// Builds the arrival schedule for one window: slot `i` is due at exactly
/// `i / rate` seconds, whatever happened to the slots before it. `picker`
/// fixes tenant and payload of every slot; `publish_every = Some(k)` turns
/// every `k`-th slot into a hot swap.
pub fn schedule(
    mut picker: Picker,
    rate: f64,
    window: Duration,
    publish_every: Option<usize>,
) -> Vec<Slot> {
    let n = (rate * window.as_secs_f64()).floor() as usize;
    (0..n)
        .map(|i| {
            let (tenant, payload) = picker.pick();
            Slot {
                due: Duration::from_secs_f64(i as f64 / rate),
                tenant,
                payload,
                kind: match publish_every {
                    Some(k) if i % k == k - 1 => SlotKind::Publish,
                    _ => SlotKind::Predict,
                },
            }
        })
        .collect()
}

/// A response, framed by `Content-Length`.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Client-observed stage boundaries of one request.
#[derive(Debug, Clone, Copy)]
pub struct Stages {
    /// Request start (after any wait for the due time).
    pub start: Instant,
    /// Socket ready (equals `start` on a reused connection).
    pub connected: Instant,
    /// Request fully written.
    pub written: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Response fully read.
    pub done: Instant,
}

/// One client connection slot: at most one socket, reused when allowed.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    timeout: Duration,
    /// TCP connects made so far.
    pub connects: u64,
}

impl Conn {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Conn {
        Conn {
            addr,
            stream: None,
            timeout,
            connects: 0,
        }
    }

    /// Sends one request and reads its response. A reused socket that turns
    /// out to be dead is replaced once. `group` tags the request's spans.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        group: u64,
    ) -> std::io::Result<(HttpResponse, Stages)> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let start = Instant::now();
        let reused = self.stream.is_some();
        match self.exchange(&wire, start, group) {
            Err(e) if reused && e.kind() != std::io::ErrorKind::InvalidData => {
                self.exchange(&wire, start, group)
            }
            other => other,
        }
    }

    fn exchange(
        &mut self,
        wire: &[u8],
        start: Instant,
        group: u64,
    ) -> std::io::Result<(HttpResponse, Stages)> {
        let result = self.exchange_inner(wire, start, group);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_inner(
        &mut self,
        wire: &[u8],
        start: Instant,
        group: u64,
    ) -> std::io::Result<(HttpResponse, Stages)> {
        let stream = match &mut self.stream {
            Some(s) => s,
            slot => {
                let _sp = spans::span("util.http.connect", group);
                let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(self.timeout))?;
                s.set_write_timeout(Some(self.timeout))?;
                self.connects += 1;
                slot.insert(s)
            }
        };
        let connected = Instant::now();
        {
            let _sp = spans::span("util.http.write", group);
            stream.write_all(wire)?;
        }
        let written = Instant::now();

        let sp_wait = spans::span("serve.first_byte", group);
        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        let first_byte = Instant::now();
        drop(sp_wait);
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
        let _sp = spans::span("util.http.read", group);
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let head_len = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            if buf.len() > 64 * 1024 {
                return Err(bad("response head too large"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length: Option<usize> = None;
        let mut close = status_line.starts_with("HTTP/1.0");
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let content_length = content_length.ok_or_else(|| bad("response has no Content-Length"))?;
        if content_length > 16 << 20 {
            return Err(bad("response body too large"));
        }
        let mut body = buf.split_off(head_len + 4);
        while body.len() < content_length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed inside the response body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        let done = Instant::now();
        if close {
            self.stream = None;
        }
        Ok((
            HttpResponse { status, body },
            Stages {
                start,
                connected,
                written,
                first_byte,
                done,
            },
        ))
    }
}

/// The fields of a `/predict` response the harness uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Version of the tenant's model that answered.
    pub version: u64,
    /// Records fused into the answering micro-batch.
    pub batch_size: u64,
    /// Records that shared the trunk forward.
    pub trunk_batch: u64,
    /// Output logits, exactly as served.
    pub outputs: Vec<f32>,
}

/// Parses a `/predict` response body.
pub fn parse_prediction(body: &[u8]) -> Option<Prediction> {
    let json: Json = nautilus_util::json::from_slice(body).ok()?;
    Some(Prediction {
        version: json.get("model_version")?.as_u64()?,
        batch_size: json.get("batch_size")?.as_u64()?,
        trunk_batch: json.get("trunk_batch")?.as_u64()?,
        outputs: json
            .get("outputs")?
            .as_arr()?
            .iter()
            .map(|v| v.as_f64().map(|x| x as f32))
            .collect::<Option<Vec<f32>>>()?,
    })
}

/// Sleeps until `deadline` (no spinning: on two cores a spinning sender
/// would take its core from the server) and returns how late it woke.
pub fn sleep_until(deadline: Instant) -> Duration {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
    Instant::now().saturating_duration_since(deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn schedule_has_no_drift_and_ignores_completions() {
        let window = Duration::from_secs(5);
        let uniform = |seed| Picker::new(seed, 16, 64, TenantChoice::Uniform);
        let s = schedule(uniform(3), 400.0, window, Some(100));
        assert_eq!(s.len(), 2000);
        // Slot i is due at i/rate exactly: errors never accumulate, and no
        // completion time enters the computation.
        for (i, slot) in s.iter().enumerate() {
            let want = i as f64 / 400.0;
            assert!(
                (slot.due.as_secs_f64() - want).abs() < 1e-9,
                "slot {i} drifted"
            );
            assert_eq!(slot.kind == SlotKind::Publish, i % 100 == 99);
            assert!(slot.tenant < 16 && slot.payload < 64);
        }
        assert!(s.last().unwrap().due < window);
        // Same seed, same schedule; another seed, another tenant stream, same due times.
        assert_eq!(s, schedule(uniform(3), 400.0, window, Some(100)));
        let other = schedule(uniform(4), 400.0, window, Some(100));
        assert!(s.iter().zip(&other).all(|(a, b)| a.due == b.due));
        assert!(s.iter().zip(&other).any(|(a, b)| a.tenant != b.tenant));
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(16, 1.0);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4000).map(|_| z.sample(&mut rng)).collect()
        };
        let a = draw(9);
        assert_eq!(a, draw(9));
        assert_ne!(a, draw(10));
        let mut counts = [0usize; 16];
        for &t in &a {
            counts[t] += 1;
        }
        // H(16) ≈ 3.38: rank 0 draws ≈ 29.6 %, rank 15 ≈ 1.8 %.
        assert!(
            (1000..1400).contains(&counts[0]),
            "rank 0 drew {}",
            counts[0]
        );
        assert!(
            (30..130).contains(&counts[15]),
            "rank 15 drew {}",
            counts[15]
        );
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[15]);
    }

    /// Serves `script` — one entry per accepted connection: the responses to
    /// write on it, in order — then closes each connection.
    fn scripted_server(
        script: Vec<Vec<&'static str>>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for responses in script {
                let (mut s, _) = listener.accept().unwrap();
                for resp in responses {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 1024];
                    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        let n = s.read(&mut chunk).unwrap();
                        assert!(n > 0, "client closed before sending a request");
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    s.write_all(resp.as_bytes()).unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn client_reuses_a_socket_only_when_the_response_allows_it() {
        let keep = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let close = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nbye";
        // Connection 1 answers twice (keep-alive, then close); connection 2
        // answers once and is then closed by the peer without saying so;
        // connection 3 is the reconnect after that silent close.
        let (addr, server) = scripted_server(vec![vec![keep, close], vec![keep], vec![keep]]);
        let mut c = Conn::new(addr, Duration::from_secs(5));
        let (r, st) = c.request("GET", "/a", b"", 0).unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), c.connects),
            (200, &b"ok"[..], 1)
        );
        assert!(st.start <= st.connected && st.connected <= st.written);
        assert!(st.written <= st.first_byte && st.first_byte <= st.done);
        let (r, _) = c.request("GET", "/b", b"", 0).unwrap();
        assert_eq!(
            (r.body.as_slice(), c.connects),
            (&b"bye"[..], 1),
            "keep-alive socket reused"
        );
        let (r, _) = c.request("GET", "/c", b"", 0).unwrap();
        assert_eq!(
            (r.body.as_slice(), c.connects),
            (&b"ok"[..], 2),
            "close header honoured"
        );
        let (r, _) = c.request("GET", "/d", b"", 0).unwrap();
        assert_eq!(
            (r.body.as_slice(), c.connects),
            (&b"ok"[..], 3),
            "dead socket replaced once"
        );
        server.join().unwrap();
    }

    #[test]
    fn prediction_bodies_round_trip_f32_bits() {
        let outputs = [0.1f32, -3.4028235e38, 1.0e-45, 7.0];
        let body = Json::obj([
            ("model_id", Json::Str("tenant-0".into())),
            ("model_version", Json::Int(3)),
            ("batch_size", Json::Int(2)),
            ("trunk_batch", Json::Int(2)),
            (
                "outputs",
                Json::Arr(outputs.iter().map(|&x| Json::Num(f64::from(x))).collect()),
            ),
        ])
        .to_string();
        let p = parse_prediction(body.as_bytes()).unwrap();
        assert_eq!((p.version, p.batch_size, p.trunk_batch), (3, 2, 2));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.outputs), bits(&outputs));
        assert_eq!(parse_prediction(b"{\"error\":\"x\"}"), None);
    }
}
