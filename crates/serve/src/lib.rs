#![warn(missing_docs)]

//! Online multi-tenant inference serving for trained Nautilus models.
//!
//! The paper's workflow ends at model selection; this crate closes the
//! loop for the system reproduction: trained models are published into a
//! tenant-keyed [`registry::ModelRegistry`] and served over a minimal
//! HTTP/1.1 loopback endpoint ([`server::Server`]). Variants that share
//! a frozen base (adapter fine-tunes of one backbone) keep the base
//! weights resident **once** and carry only their per-tenant deltas.
//!
//! Design points:
//!
//! * **Many models, one base** — [`registry::ModelRegistry::publish`]
//!   splits each incoming graph into its frozen base (deduplicated by
//!   [`nautilus_dnn::delta::base_signature`] and held in one `Arc` across
//!   all variants) and a trainable delta (adapters + heads), with
//!   structurally identical delta tensors interned once. Per-tenant hot
//!   swap stays atomic: each request pins the `Arc` of the artifact it
//!   started with.
//! * **Cold-variant eviction** — with a configured
//!   [`deltastore::DeltaStore`], least-recently-used deltas spill to a
//!   content-addressed on-disk store (shared blobs, per-tenant
//!   manifests) and fault back in transparently on the next request.
//! * **Cross-tenant micro-batching** — concurrent predictions fuse into
//!   one batch ([`batcher::MicroBatcher`]); records whose variants share
//!   a base and a precision (f32, or int8 over the base's one quantized
//!   trunk) run **one** trunk forward over the union batch
//!   ([`nautilus_dnn::exec::forward_batch_shared_trunk`]) with per-tenant
//!   suffix passes — the serving dual of the paper's FUSE optimization.
//!   Results stay **bit-identical** to solo single-model execution by
//!   construction: every graph op is record-separable and every product
//!   element is the same float chain whichever kernel serves it (the
//!   summation contract of `nautilus_tensor::ops::matmul`), so batch
//!   composition cannot change a bit.
//! * **Tenant routing** — `POST /predict/<id>` (or `X-Model-Id` header),
//!   `GET /model/<id>`, `GET /models`; `/stats` reports per-tenant
//!   prediction counts and the registry's logical-vs-stored dedup ratio.
//! * **Bounded queues + load shedding** — the accept queue is bounded
//!   (`SystemConfig::serving.queue_limit`); overload is answered with
//!   `503` + `Retry-After` instead of unbounded buffering, and slow
//!   clients get `408` instead of pinning a handler thread.
//! * **Work-conserving request path** — connections are persistent (one
//!   per-connection loop, shared with the dist workers, in
//!   `nautilus_util::http`), idle ones never starve a new connection of a
//!   handler, and the batcher's door holds a partial batch only while an
//!   announced request is still on its way (`max_delay_us` is the cap).
//! * **Serving telemetry** — spans `serve.request`/`serve.batch`/
//!   `serve.evict`/`serve.fault_in`, counters `serve.requests`/
//!   `serve.connections`/`serve.shed`/`serve.batches`/`serve.evictions`/
//!   `serve.fault_ins`/`serve.trunk_shared_records`/`serve.door{outcome}`,
//!   and log2-bucketed histograms `serve.request_us`/`serve.batch_us`/
//!   `serve.door_wait_us` (request latency also recorded per tenant and
//!   endpoint as bounded-cardinality labeled families).
//! * **Observability plane** — `GET /metrics` renders every counter,
//!   gauge, and histogram in Prometheus text format; `GET /healthz`
//!   aggregates per-component readiness (registry residency vs cap,
//!   delta-store writability, queue depths, pool liveness, watchdog
//!   verdict) into `ok`/`degraded` (`200`/`503`); a watchdog thread
//!   samples queue depths, shed rate, and batch-latency p99 into rolling
//!   windows and degrades health while an
//!   [`nautilus_core::config::ObservabilityConfig`] SLO is breached;
//!   discrete transitions (publish, evict, fault-in, shed, SLO breach)
//!   go to the structured `nautilus_util::eventlog`.
//!
//! Everything is `std`-only: the HTTP parser, JSON codec, thread pool,
//! and telemetry all come from in-tree substrates.

pub mod batcher;
pub mod deltastore;
pub mod registry;
pub mod server;

pub use batcher::{MicroBatcher, PredictError, PredictOutput, Ticket};
pub use deltastore::{DeltaStore, StoreError, StorePut};
pub use registry::{
    BaseModel, ModelArtifact, ModelId, ModelRegistry, ModelSummary, PublishOptions, RegistryError,
    RegistryStats,
};
pub use server::{Server, ServerStatsSnapshot};
