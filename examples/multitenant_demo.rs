//! Multi-tenant serving demo: 16 adapter variants of one frozen base
//! behind one endpoint.
//!
//! Builds a tiny-BERT adapter template, derives 16 per-tenant variants
//! (shared frozen backbone, tenant-specific adapters + head), and
//! publishes all of them into one [`ModelRegistry`] backed by a
//! content-addressed delta store. The base weights are resident exactly
//! once (asserted via `Arc` pointer identity); each tenant adds only its
//! delta, with structurally identical delta tensors interned once.
//!
//! The demo then serves two tenants over loopback HTTP (`/predict/<id>`),
//! reads the dedup ratio from `/stats`, evicts a cold tenant to the delta
//! store, and shows it faulting back in bit-identically on the next
//! request. Registry accounting lands in
//! `$NAUTILUS_RESULTS/multitenant_demo.json` (default `results/`) for the
//! verify gate.
//!
//! Run with: `cargo run --release --example multitenant_demo`

use nautilus_repro::core::config::SystemConfig;
use nautilus_repro::core::NautilusError;
use nautilus_repro::dnn::exec::{forward, BatchInputs};
use nautilus_repro::dnn::ModelGraph;
use nautilus_repro::models::bert::{adapter_model, BertConfig};
use nautilus_repro::models::{personalize, BuildScale};
use nautilus_repro::serve::{ModelRegistry, Server};
use nautilus_repro::util::http;
use nautilus_repro::tensor::Tensor;
use nautilus_repro::util::json::Json;
use std::sync::Arc;
use std::time::Duration;

const TENANTS: usize = 16;

fn err(e: impl std::fmt::Display) -> NautilusError {
    NautilusError::Other(e.to_string())
}

fn solo_forward(g: &ModelGraph, record: &[f32]) -> Vec<f32> {
    let inp = g.input_ids()[0];
    let t = Tensor::from_vec(g.shape(inp).with_batch(1), record.to_vec()).unwrap();
    let mut bi = BatchInputs::new();
    bi.insert(inp, t);
    forward(g, &bi, false).unwrap().output(g.outputs()[0]).data().to_vec()
}

fn main() -> Result<(), NautilusError> {
    let store_dir = std::env::temp_dir().join("nautilus-multitenant-demo");
    let _ = std::fs::remove_dir_all(&store_dir);

    // --- 16 personalized variants off one frozen backbone ---
    let cfg = BertConfig::tiny(8, 50);
    let template = adapter_model(&cfg, 2, 8, 9, BuildScale::Real).map_err(err)?;
    let variants: Vec<ModelGraph> = (0..TENANTS as u64)
        .map(|t| personalize(&template, t).map_err(err))
        .collect::<Result<_, _>>()?;
    println!("built {TENANTS} adapter variants of one tiny-BERT base");

    let serving = SystemConfig::builder()
        .serve_delta_store_dir(store_dir.to_str().expect("utf-8 temp dir"))
        .serve_max_resident_variants(TENANTS)
        .serve_max_batch(32)
        .serve_max_delay_us(2_000)
        .build()
        .serving;
    let registry = Arc::new(ModelRegistry::with_config(&serving).map_err(err)?);
    for (t, g) in variants.iter().enumerate() {
        registry.publish(&format!("tenant-{t}"), g.clone()).map_err(err)?;
    }

    // --- The base is one Arc, resident exactly once ---
    let first = registry.get("tenant-0").map_err(err)?;
    for t in 1..TENANTS {
        let a = registry.get(&format!("tenant-{t}")).map_err(err)?;
        assert!(
            Arc::ptr_eq(&first.base, &a.base),
            "tenant-{t} holds a second copy of the base"
        );
    }
    let stats = registry.stats();
    println!(
        "registry: {} variants on {} base ({} logical bytes served from {} stored, {:.2}x dedup)",
        stats.resident_variants,
        stats.bases,
        stats.bytes_logical,
        stats.bytes_stored,
        stats.dedup_ratio()
    );

    // --- Serve two tenants over loopback HTTP ---
    let server = Server::start(Arc::clone(&registry), &serving, 0).map_err(err)?;
    let addr = server.addr().to_string();
    println!("serving {TENANTS} tenants on http://{addr}");
    let record: Vec<f32> = (0..8).map(|i| (i * 5 % 50) as f32).collect();
    let body = format!(
        "{{\"inputs\": [{}]}}",
        record.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
    );
    for t in [0usize, 1] {
        let (status, raw) = http::request(
            &addr,
            "POST",
            &format!("/predict/tenant-{t}"),
            Some(body.as_bytes()),
            Duration::from_secs(10),
        )
        .map_err(err)?;
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&raw));
        let out: Json = nautilus_repro::util::json::from_slice(&raw).map_err(err)?;
        let values: Vec<f32> = out
            .get("outputs")
            .and_then(|v| v.as_arr())
            .expect("outputs array")
            .iter()
            .map(|v| v.as_f64().unwrap() as f32)
            .collect();
        assert_eq!(
            values,
            solo_forward(&variants[t], &record),
            "tenant-{t}: served output differs from solo forward"
        );
        println!("POST /predict/tenant-{t} -> 200, bit-identical to solo serving");
    }
    let (status, raw) =
        http::request(&addr, "GET", "/stats", None, Duration::from_secs(5)).map_err(err)?;
    assert_eq!(status, 200);
    let st: Json = nautilus_repro::util::json::from_slice(&raw).map_err(err)?;
    let ratio = st
        .get("registry")
        .and_then(|r| r.get("dedup_ratio"))
        .and_then(|v| v.as_f64())
        .expect("dedup_ratio in /stats");
    println!("GET /stats -> dedup_ratio {ratio:.2}");

    // --- Evict a cold tenant, fault it back in bit-identically ---
    registry.evict("tenant-5").map_err(err)?;
    let resident_after = registry.stats().resident_variants;
    let (status, raw) = http::request(
        &addr,
        "POST",
        "/predict/tenant-5",
        Some(body.as_bytes()),
        Duration::from_secs(10),
    )
    .map_err(err)?;
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&raw));
    let out: Json = nautilus_repro::util::json::from_slice(&raw).map_err(err)?;
    let values: Vec<f32> = out
        .get("outputs")
        .and_then(|v| v.as_arr())
        .expect("outputs array")
        .iter()
        .map(|v| v.as_f64().unwrap() as f32)
        .collect();
    assert_eq!(values, solo_forward(&variants[5], &record), "fault-in changed the answer");
    let final_stats = registry.stats();
    assert!(final_stats.evictions >= 1 && final_stats.fault_ins >= 1);
    println!(
        "evicted tenant-5 ({resident_after} resident), faulted back in bit-identically \
         ({} evictions, {} fault-ins)",
        final_stats.evictions, final_stats.fault_ins
    );

    server.shutdown();

    // --- Record accounting for the verify gate ---
    let results_dir = std::env::var("NAUTILUS_RESULTS").unwrap_or_else(|_| "results".into());
    std::fs::create_dir_all(&results_dir).map_err(err)?;
    let out = Json::obj([
        ("variants", Json::Int(TENANTS as i128)),
        ("bases", Json::Int(stats.bases as i128)),
        ("bytes_logical", Json::Int(stats.bytes_logical as i128)),
        ("bytes_stored", Json::Int(stats.bytes_stored as i128)),
        ("dedup_ratio", Json::Num(stats.dedup_ratio())),
        ("evictions", Json::Int(final_stats.evictions as i128)),
        ("fault_ins", Json::Int(final_stats.fault_ins as i128)),
    ]);
    let path = std::path::Path::new(&results_dir).join("multitenant_demo.json");
    std::fs::write(&path, out.to_string()).map_err(err)?;
    println!("wrote {}", path.display());

    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}
