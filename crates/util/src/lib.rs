//! Zero-dependency utility substrates for the Nautilus reproduction.
//!
//! The workspace builds fully offline: every capability that would
//! normally come from a registry crate is provided here, in-tree, with
//! exactly the surface the rest of the codebase uses.
//!
//! - [`rng`] — seeded xoshiro256++ PRNG with a `rand`-style trait surface
//!   (`Rng::gen_range`, `SeedableRng::seed_from_u64`, `SliceRandom`).
//! - [`json`] — JSON value type, serializer, parser, and derive-free
//!   [`json::ToJson`]/[`json::FromJson`] traits plus the
//!   [`json_struct!`]/[`json_enum!`] impl macros.
//! - [`prop`] — seeded, shrinking property-test harness
//!   ([`prop::prop_check`]) with [`prop_assert!`]/[`prop_assert_eq!`].
//! - [`bench`] — warmup + median-of-N timing harness with a
//!   criterion-shaped API ([`criterion_group!`]/[`criterion_main!`]).
//! - [`bytesio`] — checked little-endian buffer reads/writes over
//!   `Vec<u8>` / `&[u8]`.
//! - [`pool`] — persistent work-stealing thread pool with deterministic
//!   result ordering ([`pool::scope_chunks`]/[`pool::join_all`]); the
//!   worker count follows `available_parallelism`, overridable via
//!   `NAUTILUS_THREADS`.
//! - [`scratch`] — thread-local arena of reusable `f32` buffers for
//!   kernel temporaries (GEMM packing panels, im2col columns, output
//!   buffers); zero-filled on take except the aligned panel take, bounded
//!   retention, `scratch.hits`/
//!   `scratch.misses` telemetry.
//! - [`telemetry`] — tracing + metrics substrate: RAII spans with
//!   thread-local parent stacks and per-thread ring buffers, named atomic
//!   counters/gauges/histograms with bounded-cardinality labeled
//!   families, Chrome trace-event JSON export, per-span summaries, and a
//!   Prometheus text exposition encoder; gated by `NAUTILUS_TRACE` (or
//!   metrics-only via `telemetry::enable_metrics`) with a single relaxed
//!   atomic load on the disabled path.
//! - [`eventlog`] — structured JSON-line event log for discrete state
//!   transitions (publishes, evictions, stalls, shedding, SLO breaches):
//!   leveled, per-event rate-limited, gated by `NAUTILUS_LOG`.
//! - [`http`] — minimal hardened HTTP/1.1: incremental request parser
//!   with in-flight limits, response builder, blocking one-shot client,
//!   and a generic threaded server loop; shared by `crates/serve` and the
//!   `crates/dist` coordinator/workers.
//!
//! Policy: no crate in this workspace may depend on anything outside the
//! workspace (`scripts/verify.sh` enforces this). See DESIGN.md.

#![warn(missing_docs)]

pub mod bench;
pub mod bytesio;
pub mod eventlog;
pub mod http;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod scratch;
pub mod telemetry;
