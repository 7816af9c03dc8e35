//! Serving-layer integration and property tests: HTTP parser robustness,
//! batcher arrival-order bit-identity, checkpoint round-trip + hot swap
//! under concurrent load, and bounded-queue overload behavior.

use nautilus_repro::dnn::exec::{forward, BatchInputs};
use nautilus_repro::dnn::graph::ParamInit;
use nautilus_repro::dnn::{checkpoint, Activation, LayerKind, ModelGraph};
use nautilus_repro::util::http::{self, parse_request, Limits, ParseOutcome};
use nautilus_repro::serve::{MicroBatcher, ModelRegistry, Server};
use nautilus_repro::tensor::init::seeded_rng;
use nautilus_repro::tensor::Tensor;
use nautilus_repro::core::config::ServingConfig;
use nautilus_util::prop::{prop_check, Gen};
use nautilus_util::rng::{Rng, StdRng};
use std::sync::Arc;
use std::time::Duration;

fn model(seed: u64, in_dim: usize, out_dim: usize) -> ModelGraph {
    let mut rng = seeded_rng(seed);
    let mut g = ModelGraph::new();
    let inp = g.add_input("in", [in_dim]);
    let h = g
        .add_layer(
            "hidden",
            LayerKind::Dense { in_dim, out_dim: in_dim, act: Activation::Gelu },
            &[inp],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    let o = g
        .add_layer(
            "head",
            LayerKind::Dense { in_dim, out_dim, act: Activation::None },
            &[h],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    g.add_output(o).unwrap();
    g
}

fn solo_forward(g: &ModelGraph, record: &[f32]) -> Vec<f32> {
    let inp = g.input_ids()[0];
    let t = Tensor::from_vec(g.shape(inp).with_batch(1), record.to_vec()).unwrap();
    let mut bi = BatchInputs::new();
    bi.insert(inp, t);
    forward(g, &bi, false).unwrap().output(g.outputs()[0]).data().to_vec()
}

// ---------------------------------------------------------------------
// Property: the HTTP parser never panics and classifies any byte soup as
// complete / incomplete / clean error — including requests split at
// arbitrary read boundaries, corrupted bytes, and truncations — and a
// persistent connection fed several soups back to back answers exactly
// the requests that are complete, in order, then stops.
// ---------------------------------------------------------------------

/// A raw byte buffer derived from a valid request by optional mangling.
struct RequestSoup;

impl Gen for RequestSoup {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let methods = ["GET", "POST", "PUT", ""];
        let method = methods[rng.gen_range(0usize..methods.len())];
        let path_len = rng.gen_range(0usize..20);
        let path: String =
            std::iter::once('/').chain((0..path_len).map(|_| 'a')).collect();
        let body_len = rng.gen_range(0usize..64);
        let body: Vec<u8> = (0..body_len).map(|_| rng.gen_range(0u8..=255)).collect();
        let declared = if rng.gen_bool(0.8) {
            body_len.to_string()
        } else {
            // Sometimes lie about (or corrupt) the length.
            format!("{}x", rng.gen_range(0u32..100))
        };
        let extra = ["", "", "", "Connection: close\r\n", "Transfer-Encoding: chunked\r\n"]
            [rng.gen_range(0usize..5)];
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {declared}\r\n\r\n"
        )
        .into_bytes();
        raw.extend_from_slice(&body);

        match rng.gen_range(0u32..4) {
            0 => {} // valid (or valid-shaped) request
            1 => {
                // Truncate anywhere — simulates a half-arrived read.
                let cut = rng.gen_range(0usize..raw.len().max(1));
                raw.truncate(cut);
            }
            2 => {
                // Corrupt one byte.
                if !raw.is_empty() {
                    let i = rng.gen_range(0usize..raw.len());
                    raw[i] = rng.gen_range(0u8..=255);
                }
            }
            _ => {
                // Pure garbage.
                let n = rng.gen_range(0usize..200);
                raw = (0..n).map(|_| rng.gen_range(0u8..=255)).collect();
            }
        }
        raw
    }

    fn shrink(&self, v: &Vec<u8>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        if !v.is_empty() {
            out.push(v[..v.len() / 2].to_vec());
            out.push(v[..v.len() - 1].to_vec());
        }
        out
    }
}

/// One to three soups back to back, as one connection would carry them.
struct SoupStream;

impl Gen for SoupStream {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        (0..rng.gen_range(1usize..4)).flat_map(|_| RequestSoup.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<u8>) -> Vec<Vec<u8>> {
        RequestSoup.shrink(v)
    }
}

/// What a connection must answer to `stream` followed by EOF: `200` per
/// complete request while the connection persists, then the status that
/// ends it, if anything is owed one.
fn owed_statuses(mut stream: &[u8], limits: &Limits) -> Vec<u16> {
    let mut owed = Vec::new();
    loop {
        match parse_request(stream, limits) {
            ParseOutcome::Complete(req, used) => {
                owed.push(200);
                if !req.keep_alive {
                    return owed;
                }
                stream = &stream[used..];
            }
            ParseOutcome::Error(e) => {
                owed.push(e.status());
                return owed;
            }
            ParseOutcome::Incomplete => {
                if !stream.is_empty() {
                    owed.push(400); // EOF inside a request
                }
                return owed;
            }
        }
    }
}

/// Status of each `Content-Length`-framed response in `raw`, in order.
fn response_statuses(mut raw: &[u8]) -> Result<Vec<u16>, String> {
    let mut statuses = Vec::new();
    while !raw.is_empty() {
        let (status, body) = http::parse_response(raw).map_err(|e| e.to_string())?;
        let head = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("parsed above");
        statuses.push(status);
        raw = &raw[head + 4 + body.len()..];
    }
    Ok(statuses)
}

#[test]
fn http_parser_is_total_over_byte_soup() {
    let limits = Limits { max_head_bytes: 256, max_body_bytes: 128 };

    // Over a live connection: never more (or other) responses than the
    // stream's complete requests are owed, whatever follows them.
    let server = http::serve(
        std::net::TcpListener::bind("127.0.0.1:0").unwrap(),
        limits,
        Duration::from_secs(5),
        2,
        Arc::new(|_: &http::Request| http::Response::text(200, "text/plain", "ok")),
    )
    .unwrap();
    prop_check(0x5E27_0003, 200, &SoupStream, |stream| {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        conn.write_all(stream).map_err(|e| e.to_string())?;
        conn.shutdown(std::net::Shutdown::Write).map_err(|e| e.to_string())?;
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw).map_err(|e| e.to_string())?;
        let (got, want) = (response_statuses(&raw)?, owed_statuses(stream, &limits));
        if got != want {
            return Err(format!("answered {got:?}, owed {want:?}"));
        }
        Ok(())
    });
    server.stop();

    prop_check(0x5E27_0001, 300, &RequestSoup, |raw| {
        // Whole-buffer parse must classify without panicking (prop_check
        // converts panics into failures).
        let whole = parse_request(raw, &limits);
        // Incremental invariant: every prefix is either Incomplete, or
        // settles on the same classification the full buffer reaches —
        // feeding a request split across reads can't change the outcome.
        for cut in 0..raw.len() {
            match (parse_request(&raw[..cut], &limits), &whole) {
                (ParseOutcome::Incomplete, _) => {}
                (ParseOutcome::Error(e1), ParseOutcome::Error(e2)) if e1 == *e2 => {}
                (ParseOutcome::Complete(_, used), _) if used <= cut => {}
                (got, want) => {
                    return Err(format!(
                        "prefix {cut}/{} diverged: {got:?} vs whole {want:?}",
                        raw.len()
                    ))
                }
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Property: any arrival interleaving through the micro-batcher yields
// outputs bit-identical to serial single-request execution.
// ---------------------------------------------------------------------

/// `(max_batch, max_delay_us, submission delays in µs)` per case.
struct Interleaving;

impl Gen for Interleaving {
    type Value = (usize, u64, Vec<u64>);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let max_batch = rng.gen_range(1usize..9);
        let max_delay_us = [0u64, 200, 2_000, 8_000][rng.gen_range(0usize..4)];
        let n = rng.gen_range(1usize..10);
        let delays = (0..n).map(|_| rng.gen_range(0u64..3_000)).collect();
        (max_batch, max_delay_us, delays)
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let (b, d, delays) = v.clone();
        let mut out = Vec::new();
        if delays.len() > 1 {
            out.push((b, d, delays[..delays.len() / 2].to_vec()));
        }
        if d > 0 {
            out.push((b, 0, delays.clone()));
        }
        out
    }
}

#[test]
fn batcher_outputs_match_serial_execution_for_any_interleaving() {
    let g = model(0xBA7C, 16, 4);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", g.clone()).unwrap();
    let g = Arc::new(g);

    prop_check(0x5E27_0002, 24, &Interleaving, |case| {
        let (max_batch, max_delay_us, delays) = case.clone();
        let cfg = ServingConfig { max_batch, max_delay_us, ..ServingConfig::default() };
        let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg));
        let mut rng = seeded_rng(max_delay_us ^ delays.len() as u64);
        let records: Vec<Vec<f32>> = delays
            .iter()
            .map(|_| (0..16).map(|_| rng.gen_f32() * 2.0 - 1.0).collect())
            .collect();

        let handles: Vec<_> = records
            .iter()
            .zip(&delays)
            .map(|(r, &delay)| {
                let b = Arc::clone(&batcher);
                let r = r.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(delay));
                    b.predict("default", r)
                })
            })
            .collect();
        for (h, r) in handles.into_iter().zip(&records) {
            let out = h.join().unwrap().map_err(|e| e.to_string())?;
            let want = solo_forward(&g, r);
            if out.values != want {
                return Err(format!(
                    "batched (batch_size {}) != solo: {:?} vs {:?}",
                    out.batch_size, out.values, want
                ));
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Integration: checkpoint round-trip + hot swap under concurrent
// loopback requests — every response comes from exactly one published
// version, never a torn mix.
// ---------------------------------------------------------------------

#[test]
fn hot_swap_under_concurrent_requests_never_tears() {
    const VERSIONS: usize = 4;
    const CLIENTS: usize = 4;
    let dir = std::env::temp_dir().join(format!("nautilus-serve-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Round-trip every version through the on-disk checkpoint format.
    let graphs: Vec<ModelGraph> = (0..VERSIONS as u64)
        .map(|seed| {
            let g = model(100 + seed, 12, 3);
            let path = dir.join(format!("v{seed}.bin"));
            checkpoint::save(&g, &path).unwrap();
            let (loaded, _) = checkpoint::load(&path).unwrap();
            loaded
        })
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish_from_checkpoint("default", &dir.join("v0.bin")).unwrap();
    let cfg = ServingConfig {
        max_batch: 4,
        max_delay_us: 500,
        queue_limit: 64,
        handler_threads: 3,
        ..ServingConfig::default()
    };
    let server = Server::start(Arc::clone(&registry), &cfg, 0).unwrap();
    let addr = server.addr().to_string();

    // Per-version expected outputs for one fixed probe record.
    let record: Vec<f32> = (0..12).map(|i| (i as f32) / 6.0 - 1.0).collect();
    let expected: Vec<Vec<f32>> = graphs.iter().map(|g| solo_forward(g, &record)).collect();
    let body = format!(
        "{{\"inputs\": [{}]}}",
        record.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let body = body.clone();
            let expected = expected.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checked = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, raw) = http::request(
                        &addr,
                        "POST",
                        "/predict",
                        Some(body.as_bytes()),
                        Duration::from_secs(10),
                    )
                    .expect("request completes");
                    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&raw));
                    let out: nautilus_util::json::Json =
                        nautilus_util::json::from_slice(&raw).unwrap();
                    let version =
                        out.get("model_version").and_then(|v| v.as_u64()).unwrap() as usize;
                    let values: Vec<f32> = out
                        .get("outputs")
                        .and_then(|v| v.as_arr())
                        .unwrap()
                        .iter()
                        .map(|v| v.as_f64().unwrap() as f32)
                        .collect();
                    // The response must match the *complete* parameter set
                    // of the version it claims — a torn swap would mix two.
                    assert!(version >= 1 && version <= VERSIONS, "version {version}");
                    assert_eq!(
                        values,
                        expected[version - 1],
                        "outputs are not version {version}'s"
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    // Hot-swap through the remaining versions while clients hammer.
    for seed in 1..VERSIONS as u64 {
        std::thread::sleep(Duration::from_millis(30));
        let v = registry
            .publish_from_checkpoint("default", &dir.join(format!("v{seed}.bin")))
            .unwrap();
        assert_eq!(v, seed + 1);
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u32 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "clients never completed a request");

    let stats = server.shutdown();
    assert_eq!(stats.predictions as u32, total);
    assert_eq!(stats.server_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Integration: 16 adapter variants of one frozen base served from one
// registry — the base is resident exactly once (Arc identity), the
// stored footprint is a fraction of the logical one, and every tenant's
// answer is bit-identical to solo single-model serving.
// ---------------------------------------------------------------------

#[test]
fn sixteen_variants_share_one_resident_base_and_stay_bit_identical() {
    use nautilus_repro::models::{bert, personalize, BuildScale};
    const VARIANTS: usize = 16;
    let cfg = bert::BertConfig::tiny(8, 50);
    let template = bert::adapter_model(&cfg, 2, 8, 9, BuildScale::Real).unwrap();
    let variants: Vec<ModelGraph> =
        (0..VARIANTS as u64).map(|t| personalize(&template, t).unwrap()).collect();

    let registry = Arc::new(ModelRegistry::new());
    for (t, g) in variants.iter().enumerate() {
        registry.publish(&format!("tenant-{t}"), g.clone()).unwrap();
    }

    // The frozen base is one Arc shared by every artifact.
    let first = registry.get("tenant-0").unwrap();
    for t in 1..VARIANTS {
        let a = registry.get(&format!("tenant-{t}")).unwrap();
        assert!(
            Arc::ptr_eq(&first.base, &a.base),
            "tenant-{t} holds a separate copy of the base"
        );
    }

    // Stored-bytes accounting agrees: 16 logical models, ~1 base stored.
    let stats = registry.stats();
    assert_eq!(stats.resident_variants, VARIANTS);
    assert_eq!(stats.bases, 1);
    assert!(
        stats.dedup_ratio() >= 5.0,
        "dedup ratio {:.2} below the 5x gate (logical {} / stored {})",
        stats.dedup_ratio(),
        stats.bytes_logical,
        stats.bytes_stored
    );

    // Batched, cross-tenant serving answers bit-identically to solo
    // forwards over each tenant's full standalone graph.
    let cfg = ServingConfig { max_batch: 32, max_delay_us: 20_000, ..ServingConfig::default() };
    let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg));
    let record: Vec<f32> = (0..8).map(|i| (i % 50) as f32).collect();
    let handles: Vec<_> = (0..VARIANTS)
        .map(|t| {
            let b = Arc::clone(&batcher);
            let r = record.clone();
            std::thread::spawn(move || b.predict(&format!("tenant-{t}"), r).unwrap())
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let out = h.join().unwrap();
        assert_eq!(
            out.values,
            solo_forward(&variants[t], &record),
            "tenant-{t}: multi-tenant serving diverged from solo"
        );
    }
}

// ---------------------------------------------------------------------
// Integration (delta round-trip): export → delta checkpoint → evict →
// fault-in → predict, bit-identical to the never-evicted artifact, while
// a *different* tenant is concurrently hot-swapped.
// ---------------------------------------------------------------------

#[test]
fn evicted_variant_faults_in_bit_identical_under_concurrent_hot_swaps() {
    use nautilus_repro::models::{bert, personalize, BuildScale};
    let dir = std::env::temp_dir().join(format!("nautilus-serve-delta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = bert::BertConfig::tiny(8, 50);
    let template = bert::adapter_model(&cfg, 2, 8, 9, BuildScale::Real).unwrap();
    let stable = personalize(&template, 7).unwrap();

    let serving = nautilus_repro::core::config::SystemConfig::builder()
        .serve_delta_store_dir(dir.to_str().unwrap())
        .build()
        .serving
        .clone();
    let registry = Arc::new(ModelRegistry::with_config(&serving).unwrap());
    registry.publish("stable", stable.clone()).unwrap();
    registry.publish("churner", personalize(&template, 1000).unwrap()).unwrap();

    let record: Vec<f32> = (0..8).map(|i| (i * 3 % 50) as f32).collect();
    let want = solo_forward(&stable, &record);

    // Baseline: never-evicted prediction matches solo execution.
    let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &ServingConfig::default()));
    assert_eq!(batcher.predict("stable", record.clone()).unwrap().values, want);

    // Hammer hot swaps of the *other* tenant while "stable" round-trips
    // through the delta store.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = {
        let registry = Arc::clone(&registry);
        let template = template.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut v = 1u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                v += 1;
                registry.publish("churner", personalize(&template, 1000 + v).unwrap()).unwrap();
            }
        })
    };

    for round in 0..5 {
        registry.evict("stable").unwrap();
        let listed = registry.list();
        let row = listed.iter().find(|m| m.id.as_str() == "stable").unwrap();
        assert!(!row.resident, "round {round}: evict left the variant resident");
        // The next predict faults the delta back in transparently.
        let out = batcher.predict("stable", record.clone()).unwrap();
        assert_eq!(out.values, want, "round {round}: fault-in changed the answer");
        assert_eq!(out.version, 1, "round {round}: fault-in bumped the version");
    }
    let stats = registry.stats();
    assert!(stats.evictions >= 5 && stats.fault_ins >= 5, "{stats:?}");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churn.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within 10 s, so a stuck batcher fails the test instead of hanging it.
fn within_timeout<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| panic!("{what}: no answer in 10 s"))
}

// ---------------------------------------------------------------------
// Fail closed: a stored delta whose manifest no longer covers its base
// (one trainable node's entry cut, nodes, counts and hashes consistent)
// is refused at fault-in, and the batcher goes on serving other tenants.
// ---------------------------------------------------------------------

#[test]
fn truncated_delta_manifest_fails_closed_and_serving_continues() {
    use nautilus_repro::serve::{DeltaStore, PredictError};
    let dir = std::env::temp_dir().join(format!("nautilus-serve-truncated-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serving =
        ServingConfig { delta_store_dir: Some(dir.to_string_lossy().into_owned()), ..ServingConfig::default() };
    let registry = Arc::new(ModelRegistry::with_config(&serving).unwrap());
    registry.publish("victim", model(41, 8, 3)).unwrap();
    let bystander = model(42, 8, 3);
    registry.publish("bystander", bystander.clone()).unwrap();
    registry.evict("victim").unwrap();

    let store = DeltaStore::open(&dir).unwrap();
    let (version, mut delta) = store.get("victim").unwrap();
    assert_eq!(delta.entries.len(), 2, "hidden + head");
    delta.entries.pop();
    store.put("victim", version, &delta).unwrap();

    let err = registry.get("victim").expect_err("a delta missing a trainable node must not fault in");
    assert!(err.to_string().contains("covers 1 of 2"), "{err}");

    let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &ServingConfig::default()));
    let b = Arc::clone(&batcher);
    let victim = within_timeout("victim predict", move || b.predict("victim", vec![0.5; 8]));
    assert!(matches!(victim, Err(PredictError::Registry(_))), "{victim:?}");
    let record: Vec<f32> = (0..8).map(|i| i as f32 / 8.0).collect();
    let want = solo_forward(&bystander, &record);
    let b = Arc::clone(&batcher);
    let out = within_timeout("bystander predict", move || b.predict("bystander", record));
    assert_eq!(out.expect("bystander is served").values, want);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Integration: overload. A burst larger than the bounded queue gets some
// 503s with Retry-After, zero unanswered connections, and a clean drain.
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_cleanly_and_answers_every_connection() {
    const BURST: usize = 24;
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", model(77, 8, 2)).unwrap();
    // One handler, and a ticket held at the batcher's door: the first
    // prediction stalls there for as long as the test says, so the burst
    // behind it must pile up on the 2-slot accept queue.
    let cfg = ServingConfig {
        max_batch: 64,
        max_delay_us: 30_000_000,
        queue_limit: 2,
        handler_threads: 1,
        request_timeout_ms: 5_000,
        ..ServingConfig::default()
    };
    let server = Server::start(registry, &cfg, 0).unwrap();
    let addr = server.addr().to_string();
    let body = br#"{"inputs": [0, 1, 0, 1, 0, 1, 0, 1]}"#;
    let stall = server.batcher().announce();

    let handles: Vec<_> = (0..BURST)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                http::request(&addr, "POST", "/predict", Some(body), Duration::from_secs(20))
                    .expect("every connection gets a response")
            })
        })
        .collect();
    // One connection holds the handler (at most), two wait in the queue;
    // once the accept thread has turned away all the others, let the door go.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while (server.stats().shed as usize) < BURST - 3 {
        assert!(std::time::Instant::now() < deadline, "burst never filled the queue");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(stall);
    let mut ok = 0usize;
    let mut shed = 0usize;
    for h in handles {
        let (status, raw) = h.join().expect("client thread must not panic");
        match status {
            200 => ok += 1,
            503 => {
                shed += 1;
                // Shed responses carry the back-off hint.
                assert!(!raw.is_empty());
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(ok + shed, BURST, "every connection answered");
    // Two fit the queue; a third is served only if the handler took the
    // first before the accept thread had turned the rest away.
    assert!((2..=3).contains(&ok), "{ok} served from a 2-slot queue and one handler");

    let stats = server.shutdown();
    assert_eq!(stats.shed as usize, shed);
    assert_eq!(stats.predictions as usize, ok);
}

// ---------------------------------------------------------------------
// Integration: slow clients get 408 instead of pinning a handler.
// ---------------------------------------------------------------------

#[test]
fn stalled_client_gets_request_timeout() {
    use std::io::{Read, Write};
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", model(9, 8, 2)).unwrap();
    let cfg = ServingConfig { request_timeout_ms: 150, ..ServingConfig::default() };
    let server = Server::start(registry, &cfg, 0).unwrap();

    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Send only a partial head, then stall.
    stream.write_all(b"POST /predict HTTP/1.1\r\nContent-").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let (status, _) = http::parse_response(&raw).unwrap();
    assert_eq!(status, 408);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Integration: persistent connections. One socket carries many requests,
// each answered byte for byte as a one-shot exchange would be; framing
// errors end the connection and count as client errors; going idle does
// neither.
// ---------------------------------------------------------------------

#[test]
fn persistent_connection_answers_like_one_shot_and_idles_out_silently() {
    use std::io::{Read, Write};
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", model(21, 8, 3)).unwrap();
    let cfg = ServingConfig { request_timeout_ms: 150, ..ServingConfig::default() };
    let server = Server::start(registry, &cfg, 0).unwrap();
    let addr = server.addr().to_string();
    let body = br#"{"inputs": [1, 0.5, -1, 2, 0, 0.25, -0.5, 3]}"#;
    let timeout = Duration::from_secs(5);

    let one_shot = http::request(&addr, "POST", "/predict", Some(body), timeout).unwrap();
    assert_eq!(one_shot.0, 200);
    let mut client = http::Client::new(&addr, timeout);
    for _ in 0..8 {
        assert_eq!(client.request("POST", "/predict", Some(body)).unwrap(), one_shot);
    }
    let (_, raw) = client.request("GET", "/stats", None).unwrap();
    let stats: nautilus_util::json::Json = nautilus_util::json::from_slice(&raw).unwrap();
    assert_eq!(stats.get("connections").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(stats.get("requests").and_then(|v| v.as_u64()), Some(10));

    // A chunked request is refused and the connection closed with it.
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(timeout)).unwrap();
    conn.write_all(b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).unwrap();
    assert_eq!(response_statuses(&raw).unwrap(), [400]);
    assert_eq!(server.stats().client_errors, 1);

    // Idle past the timeout: closed without a byte, and not an error.
    let mut idle = std::net::TcpStream::connect(server.addr()).unwrap();
    idle.set_read_timeout(Some(timeout)).unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    idle.read_to_end(&mut raw).unwrap();
    assert_eq!(response_statuses(&raw).unwrap(), [200], "nothing follows the one response");

    drop((client, conn, idle));
    let stats = server.shutdown();
    assert_eq!((stats.client_errors, stats.server_errors, stats.shed), (1, 0, 0));
    assert_eq!(stats.predictions, 9);
}

// ---------------------------------------------------------------------
// Integration: token ids cross the trust boundary as JSON numbers. An id
// that is negative, fractional or outside the vocabulary is refused —
// never truncated or saturated into some other token's prediction.
// ---------------------------------------------------------------------

#[test]
fn predict_refuses_ids_that_are_not_vocab_indices() {
    let mut rng = seeded_rng(33);
    let mut g = ModelGraph::new();
    let inp = g.add_input("tokens", [4]);
    let emb = g
        .add_layer(
            "emb",
            LayerKind::Embedding { vocab: 16, dim: 8, max_len: 4 },
            &[inp],
            true,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    let o = g
        .add_layer(
            "head",
            LayerKind::Dense { in_dim: 8, out_dim: 3, act: Activation::None },
            &[emb],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    g.add_output(o).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", g.clone()).unwrap();
    let server = Server::start(registry, &ServingConfig::default(), 0).unwrap();
    let addr = server.addr().to_string();
    let timeout = Duration::from_secs(5);

    for body in [&br#"{"inputs": [-5, 2.7, 3, 1]}"#[..], br#"{"inputs": [0, 2, 3, 16]}"#] {
        let (status, raw) = http::request(&addr, "POST", "/predict", Some(body), timeout).unwrap();
        assert!(!(200..300).contains(&status), "answered {status} to {}", String::from_utf8_lossy(body));
        assert!(!String::from_utf8_lossy(&raw).contains("outputs"), "a prediction was returned");
    }
    let (status, raw) =
        http::request(&addr, "POST", "/predict", Some(br#"{"inputs": [0, 2, 3, 1]}"#), timeout).unwrap();
    assert_eq!(status, 200);
    let json: nautilus_util::json::Json = nautilus_util::json::from_slice(&raw).unwrap();
    let got: Vec<f32> = json
        .get("outputs")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap() as f32)
        .collect();
    assert_eq!(got, solo_forward(&g, &[0.0, 2.0, 3.0, 1.0]));
    assert_eq!(server.shutdown().predictions, 1);
}

// ---------------------------------------------------------------------
// Integration: idle persistent connections hold no handler against a new
// connection, and do not hold up a drain.
// ---------------------------------------------------------------------

#[test]
fn parked_handlers_yield_to_new_connections_and_to_shutdown() {
    use nautilus_repro::core::config::ObservabilityConfig;
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", model(22, 8, 3)).unwrap();
    let cfg = ServingConfig {
        handler_threads: 2,
        request_timeout_ms: 30_000,
        ..ServingConfig::default()
    };
    let obs = ObservabilityConfig { watchdog_tick_ms: 10, ..ObservabilityConfig::default() };
    let server = Server::start_with(registry, &cfg, &obs, 0).unwrap();
    let addr = server.addr().to_string();
    let body = br#"{"inputs": [1, 2, 3, 4, 5, 6, 7, 8]}"#;
    let timeout = Duration::from_secs(30);

    // Both handlers end up parked on a connection that has gone quiet.
    let mut clients: Vec<http::Client> =
        (0..2).map(|_| http::Client::new(&addr, timeout)).collect();
    for c in &mut clients {
        assert_eq!(c.request("POST", "/predict", Some(body)).unwrap().0, 200);
    }

    let t0 = std::time::Instant::now();
    let (status, _) = http::request(&addr, "POST", "/predict", Some(body), timeout).unwrap();
    assert_eq!(status, 200);
    assert!(t0.elapsed() < Duration::from_millis(100), "starved for {:?}", t0.elapsed());

    // The connection that was closed to make room costs its client one
    // reconnect, not a failure.
    for c in &mut clients {
        assert_eq!(c.request("POST", "/predict", Some(body)).unwrap().0, 200);
    }

    // Idle persistent connections are still open here.
    let t0 = std::time::Instant::now();
    let stats = server.shutdown();
    assert!(t0.elapsed() < Duration::from_millis(250), "drain took {:?}", t0.elapsed());
    assert_eq!(stats.predictions, 5);
    assert_eq!((stats.shed, stats.client_errors, stats.server_errors), (0, 0, 0));
}

// ---------------------------------------------------------------------
// Integration: the /metrics exposition stays well-formed Prometheus text
// under concurrent load, with per-tenant histogram series.
// ---------------------------------------------------------------------

/// One exposition sample line parsed as (metric name, labels, value).
fn parse_series(text: &str) -> Vec<(String, Vec<(String, String)>, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            assert_eq!(value, "+Inf", "unparseable sample value in {line:?}");
            f64::INFINITY
        });
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let rest = rest.strip_suffix('}').expect("label block closes");
                let labels = rest
                    .split(',')
                    .map(|kv| {
                        let (k, v) = kv.split_once('=').expect("label is k=\"v\"");
                        let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
                        (k.to_string(), v.expect("label value quoted").to_string())
                    })
                    .collect();
                (name.to_string(), labels)
            }
        };
        out.push((name, labels, value));
    }
    out
}

#[test]
fn metrics_exposition_is_well_formed_under_concurrent_load() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("alice", model(31, 8, 2)).unwrap();
    registry.publish("bob", model(32, 8, 2)).unwrap();
    let server = Server::start(registry, &ServingConfig::default(), 0).unwrap();
    let addr = server.addr().to_string();
    let body = br#"{"inputs": [1, 2, 3, 4, 5, 6, 7, 8]}"#;

    // Four clients hammer two tenants while /metrics is scraped live.
    let clients: Vec<_> = ["alice", "bob", "alice", "bob"]
        .into_iter()
        .map(|tenant| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let (status, _) = http::request(
                        &addr,
                        "POST",
                        &format!("/predict/{tenant}"),
                        Some(body),
                        Duration::from_secs(10),
                    )
                    .unwrap();
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    for _ in 0..5 {
        let (status, _) =
            http::request(&addr, "GET", "/metrics", None, Duration::from_secs(10)).unwrap();
        assert_eq!(status, 200, "mid-load scrape must succeed");
    }
    for c in clients {
        c.join().unwrap();
    }

    let (status, raw) =
        http::request(&addr, "GET", "/metrics", None, Duration::from_secs(10)).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(raw).expect("exposition is UTF-8");

    // Every `# TYPE` line is unique, names a valid identifier, and a
    // known kind.
    let mut seen_types = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let mut parts = line["# TYPE ".len()..].split(' ');
        let name = parts.next().unwrap();
        let kind = parts.next().unwrap();
        assert!(
            name.chars().next().map(|c| c.is_ascii_alphabetic() || c == '_').unwrap_or(false)
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {name:?}"
        );
        assert!(["counter", "gauge", "histogram"].contains(&kind), "bad kind {kind:?}");
        assert!(
            seen_types.insert(name.to_string(), kind).is_none(),
            "duplicate # TYPE for {name}"
        );
    }

    // Histogram series: cumulative buckets are monotone in file order and
    // the +Inf bucket equals the matching _count sample.
    let series = parse_series(&text);
    let mut last_bucket: std::collections::BTreeMap<String, f64> =
        std::collections::BTreeMap::new();
    for (name, labels, value) in &series {
        if let Some(base) = name.strip_suffix("_bucket") {
            let key: String = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v},"))
                .fold(format!("{base}|"), |acc, kv| acc + &kv);
            let prev = last_bucket.entry(key.clone()).or_insert(0.0);
            assert!(
                *prev <= *value + 1e-9,
                "bucket counts must be cumulative: {name} {labels:?}"
            );
            *prev = *value;
            let le = &labels.iter().find(|(k, _)| k == "le").expect("bucket has le").1;
            if le == "+Inf" {
                let count = series
                    .iter()
                    .find(|(n, l, _)| {
                        n == &format!("{base}_count")
                            && l.iter().filter(|(k, _)| k != "le").eq(labels
                                .iter()
                                .filter(|(k, _)| k != "le"))
                    })
                    .unwrap_or_else(|| panic!("no _count for {base} {labels:?}"));
                assert_eq!(*value, count.2, "+Inf bucket != _count for {base} {labels:?}");
            }
        }
    }

    // Per-tenant request-latency series exist for both tenants.
    for tenant in ["alice", "bob"] {
        assert!(
            series.iter().any(|(n, l, v)| {
                n == "serve_request_us_count"
                    && l.contains(&("tenant".to_string(), tenant.to_string()))
                    && *v >= 10.0
            }),
            "missing per-tenant series for {tenant}"
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Integration: the watchdog flips /healthz to degraded (503) while the
// batcher queue is driven past its SLO threshold, then recovers.
// ---------------------------------------------------------------------

#[test]
fn healthz_degrades_and_recovers_when_queue_slo_is_breached() {
    use nautilus_repro::core::config::ObservabilityConfig;
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", model(55, 8, 2)).unwrap();
    // A ticket held at the batcher's door (under a cap the test never
    // reaches) piles concurrent predictions up inside the batcher queue
    // until the test lets go; spare handler threads keep /healthz served.
    let cfg = ServingConfig {
        max_batch: 64,
        max_delay_us: 60_000_000,
        handler_threads: 8,
        queue_limit: 64,
        request_timeout_ms: 10_000,
        ..ServingConfig::default()
    };
    let obs = ObservabilityConfig {
        watchdog_tick_ms: 5,
        watchdog_window: 4,
        slo_queue_depth: 2,
        ..ObservabilityConfig::default()
    };
    let server = Server::start_with(registry, &cfg, &obs, 0).unwrap();
    let addr = server.addr().to_string();
    let body = br#"{"inputs": [1, 2, 3, 4, 5, 6, 7, 8]}"#;
    let stall = server.batcher().announce();

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (status, _) = http::request(
                    &addr,
                    "POST",
                    "/predict",
                    Some(body),
                    Duration::from_secs(20),
                )
                .unwrap();
                assert_eq!(status, 200);
            })
        })
        .collect();

    // While the six predictions sit behind the held door, the watchdog
    // must observe depth > 2 and flip health to degraded.
    let mut saw_degraded = false;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        let (status, raw) =
            http::request(&addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
        if status == 503 {
            let j: nautilus_util::json::Json =
                nautilus_util::json::from_slice(&raw).unwrap();
            assert_eq!(j.get("status").and_then(|v| v.as_str()), Some("degraded"));
            let watchdog = j
                .get("components")
                .and_then(|c| c.get("watchdog"))
                .expect("watchdog component");
            assert_eq!(watchdog.get("status").and_then(|v| v.as_str()), Some("degraded"));
            assert!(
                watchdog.get("breaches").and_then(|b| b.as_arr()).map(|b| b.len())
                    >= Some(1),
                "degraded health must name its breach"
            );
            saw_degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_degraded, "watchdog never flagged the queue SLO breach");
    drop(stall);
    for c in clients {
        c.join().unwrap();
    }

    // Once the burst drains, one clean window restores health.
    let mut recovered = false;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        let (status, raw) =
            http::request(&addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
        if status == 200 {
            let j: nautilus_util::json::Json =
                nautilus_util::json::from_slice(&raw).unwrap();
            assert_eq!(j.get("status").and_then(|v| v.as_str()), Some("ok"));
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(recovered, "health never recovered after the queue drained");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Integration: int8 row-quantized serving. A tenant published with
// `quantize_int8` serves through the integer kernels; its logits must
// stay within the quantization error budget of the f32 path, and its
// argmax must agree wherever the f32 margin exceeds that budget.
// ---------------------------------------------------------------------

/// Frozen Gelu trunk + trainable linear head, the transfer-learning shape
/// quantized serving is built for: the trunk quantizes once per base, the
/// head once per tenant publish.
fn frozen_trunk_model(seed: u64, in_dim: usize, out_dim: usize) -> ModelGraph {
    let mut rng = seeded_rng(seed);
    let mut g = ModelGraph::new();
    let inp = g.add_input("in", [in_dim]);
    let h = g
        .add_layer(
            "trunk",
            LayerKind::Dense { in_dim, out_dim: in_dim, act: Activation::Gelu },
            &[inp],
            true,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    let o = g
        .add_layer(
            "head",
            LayerKind::Dense { in_dim, out_dim, act: Activation::None },
            &[h],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    g.add_output(o).unwrap();
    g
}

#[test]
fn int8_tenant_serves_within_quantization_error_of_f32() {
    use nautilus_repro::serve::PublishOptions;
    const IN: usize = 32;
    const OUT: usize = 6;
    const RECORDS: usize = 32;

    let g = frozen_trunk_model(0x1A78, IN, OUT);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("f32", g.clone()).unwrap();
    registry.publish_with("int8", g.clone(), PublishOptions { quantize_int8: true }).unwrap();
    assert!(registry.get("f32").unwrap().quant.is_none());
    assert!(registry.get("int8").unwrap().quant.is_some(), "publish_with must quantize");

    let cfg = ServingConfig { max_batch: 8, max_delay_us: 2_000, ..ServingConfig::default() };
    let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg));

    // Two dense layers each contribute ~scale·√k of accumulated rounding
    // error; this budget bounds both and the gate below uses it twice.
    let budget = 0.05 * (IN as f32).sqrt() + 0.05;

    let mut rng = seeded_rng(0x1A79);
    let mut argmax_checked = 0usize;
    for _ in 0..RECORDS {
        let record: Vec<f32> = (0..IN).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
        let f32_out = batcher.predict("f32", record.clone()).unwrap().values;
        // The f32 tenant must stay byte-for-byte the ordinary serving path.
        assert_eq!(f32_out, solo_forward(&g, &record));
        let q_out = batcher.predict("int8", record).unwrap().values;
        assert_eq!(q_out.len(), OUT);
        for (o, (&q, &w)) in q_out.iter().zip(&f32_out).enumerate() {
            assert!(
                (q - w).abs() <= 0.05 * w.abs() + budget,
                "logit {o}: int8 {q} vs f32 {w} exceeds the error budget {budget}"
            );
        }
        // Argmax must agree whenever f32's top-2 margin clears the budget —
        // quantization may only flip genuinely ambiguous predictions.
        let top = |v: &[f32]| {
            v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0
        };
        let mut sorted = f32_out.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        if sorted[0] - sorted[1] > 2.0 * budget {
            assert_eq!(top(&q_out), top(&f32_out), "confident argmax flipped under int8");
            argmax_checked += 1;
        }
    }
    assert!(argmax_checked > 0, "no record ever had a confident margin — weak test");
}
