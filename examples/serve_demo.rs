//! Serving demo: train, export, publish, and answer live predictions.
//!
//! Runs one labeling cycle of the FTR-2 workload at tiny scale with the
//! Nautilus strategy, exports the best candidate's trained weights onto
//! its original topology, round-trips them through the on-disk
//! checkpoint format, and publishes them to a [`ModelRegistry`] behind a
//! loopback HTTP server. Concurrent clients then POST predictions that
//! are micro-batched server-side; every response is checked bit-for-bit
//! against an in-process forward pass of the same exported graph.
//!
//! Run with: `cargo run --release --example serve_demo`
//!
//! Set `NAUTILUS_TRACE=trace.json` to also collect serving spans,
//! counters, and latency histograms.

use nautilus_repro::core::config::SystemConfig;
use nautilus_repro::core::session::{CycleInput, ModelSelection};
use nautilus_repro::core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_repro::core::{BackendKind, NautilusError, Strategy};
use nautilus_repro::dnn::checkpoint;
use nautilus_repro::dnn::exec::{forward, BatchInputs};
use nautilus_repro::serve::{ModelRegistry, Server};
use nautilus_repro::util::http;
use nautilus_repro::tensor::Tensor;
use nautilus_repro::util::telemetry;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), NautilusError> {
    let workdir = std::env::temp_dir().join("nautilus-serve-demo");
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir)
        .map_err(|e| NautilusError::Other(format!("workdir: {e}")))?;

    // --- Train: one labeling cycle of FTR-2 (tiny), Nautilus strategy ---
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates()?;
    candidates.truncate(3);
    println!("training {} candidates on one {} cycle (tiny scale)...", candidates.len(), spec.kind.name());

    let mut session = ModelSelection::new(
        candidates,
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        workdir.join("train"),
    )?;
    let pool = spec.ner_config().generate(30);
    let (train, valid) = pool.split_at(24);
    let report = session.fit(CycleInput::Real { train, valid })?;
    let (best_name, best_acc) = report.best.expect("real backend reports accuracy");
    println!("best candidate: {best_name} ({:.1}% val acc, {:.2}s)", best_acc * 100.0, report.cycle_secs);

    // --- Export + checkpoint round-trip + publish ---
    let (ci, exported) = session.export_best()?;
    let ckpt = workdir.join("best.ckpt");
    checkpoint::save(&exported, &ckpt).map_err(|e| NautilusError::Other(e.to_string()))?;
    let registry = Arc::new(ModelRegistry::new());
    let version = registry
        .publish_from_checkpoint("default", &ckpt)
        .map_err(|e| NautilusError::Other(e.to_string()))?;
    println!("exported candidate #{ci}, checkpointed to {}, published as v{version}", ckpt.display());

    // --- Serve over loopback with micro-batching + observability ---
    let sys = SystemConfig::builder()
        .serve_max_batch(8)
        .serve_max_delay_us(2_000)
        .serve_queue_limit(64)
        .serve_handler_threads(4)
        .obs_watchdog_tick_ms(20)
        .build();
    let cfg = sys.serving;
    let server = Server::start_with(Arc::clone(&registry), &cfg, &sys.observability, 0)
        .map_err(|e| NautilusError::Other(format!("server: {e}")))?;
    let addr = server.addr().to_string();
    println!("serving on http://{addr} (max_batch {}, max_delay {}us)", cfg.max_batch, cfg.max_delay_us);

    let (status, body) = http::request(&addr, "GET", "/healthz", None, Duration::from_secs(5))
        .map_err(|e| NautilusError::Other(format!("healthz: {e}")))?;
    println!("GET /healthz -> {status} {}", String::from_utf8_lossy(&body).trim());
    let (status, body) = http::request(&addr, "GET", "/model", None, Duration::from_secs(5))
        .map_err(|e| NautilusError::Other(format!("model: {e}")))?;
    println!("GET /model   -> {status} {}", String::from_utf8_lossy(&body).trim());

    // --- Concurrent clients; verify every answer bit-for-bit ---
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 4;
    let art = registry.get("default").expect("model published");
    let record_elems = art.record_elems;

    let expect = |record: &[f32]| -> Vec<f32> {
        let inp = exported.input_ids()[0];
        let t = Tensor::from_vec(exported.shape(inp).with_batch(1), record.to_vec()).unwrap();
        let mut bi = BatchInputs::new();
        bi.insert(inp, t);
        forward(&exported, &bi, false).unwrap().output(exported.outputs()[0]).data().to_vec()
    };

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Vec<(Vec<f32>, u16, Vec<u8>)> {
                (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        let record: Vec<f32> = (0..record_elems)
                            .map(|i| ((c * 31 + r * 7 + i) % 40) as f32)
                            .collect();
                        let body = format!(
                            "{{\"inputs\": [{}]}}",
                            record.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
                        );
                        let (status, raw) = http::request(
                            &addr,
                            "POST",
                            "/predict",
                            Some(body.as_bytes()),
                            Duration::from_secs(10),
                        )
                        .expect("request completes");
                        (record, status, raw)
                    })
                    .collect()
            })
        })
        .collect();

    let mut answered = 0usize;
    for h in handles {
        for (record, status, raw) in h.join().expect("client thread") {
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&raw));
            let out: nautilus_repro::util::json::Json =
                nautilus_repro::util::json::from_slice(&raw)
                    .map_err(|e| NautilusError::Other(format!("response json: {e}")))?;
            let values: Vec<f32> = out
                .get("outputs")
                .and_then(|v| v.as_arr())
                .expect("outputs array")
                .iter()
                .map(|v| v.as_f64().unwrap() as f32)
                .collect();
            assert_eq!(values, expect(&record), "served output differs from in-process forward");
            answered += 1;
        }
    }
    println!(
        "{answered}/{} concurrent predictions answered, all bit-identical to the in-process forward",
        CLIENTS * REQUESTS_PER_CLIENT
    );

    let (_, body) = http::request(&addr, "GET", "/stats", None, Duration::from_secs(5))
        .map_err(|e| NautilusError::Other(format!("stats: {e}")))?;
    println!("GET /stats   -> {}", String::from_utf8_lossy(&body).trim());

    // --- Scrape the Prometheus exposition; optionally keep it for the
    // verification harness (`NAUTILUS_RESULTS` set by scripts/verify.sh).
    let (status, metrics) = http::request(&addr, "GET", "/metrics", None, Duration::from_secs(5))
        .map_err(|e| NautilusError::Other(format!("metrics: {e}")))?;
    let metrics = String::from_utf8_lossy(&metrics).into_owned();
    println!(
        "GET /metrics -> {status} ({} bytes, {} series)",
        metrics.len(),
        metrics.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count()
    );
    if let Ok(dir) = std::env::var("NAUTILUS_RESULTS") {
        let path = std::path::Path::new(&dir).join("METRICS_serve.txt");
        std::fs::write(&path, &metrics)
            .map_err(|e| NautilusError::Other(format!("metrics dump: {e}")))?;
        println!("exposition written to {}", path.display());
    }

    let final_stats = server.shutdown();
    println!(
        "drained: {} requests, {} predictions, {} shed, {} client errors, {} server errors",
        final_stats.requests,
        final_stats.predictions,
        final_stats.shed,
        final_stats.client_errors,
        final_stats.server_errors
    );
    assert_eq!(final_stats.server_errors, 0);

    if telemetry::enabled() {
        println!("\ntelemetry summary:");
        print!("{}", telemetry::summary_table());
        if let Some(path) = telemetry::export()
            .map_err(|e| NautilusError::Other(format!("trace export: {e}")))?
        {
            println!("\nChrome trace written to {}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&workdir);
    Ok(())
}
