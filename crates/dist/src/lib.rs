#![warn(missing_docs)]

//! Distributed execution plane: one model-selection cycle whose training
//! units run on remote workers, over the in-tree HTTP/1.1 stack.
//!
//! The coordinator is a `ModelSelection` whose units train on
//! [`RemoteUnits`]: the session plans, materializes and folds exactly as on
//! a single box, and its `fit` hands the cycle's units to the executor
//! instead of the local pool. [`RemoteUnits`] ships each training unit —
//! candidates as bit-exact checkpoints, the labeled snapshot, and the
//! unit's materialized-feature chunks — to a worker's `POST /work/train`.
//! Workers rebuild the identical plan from the same
//! `(candidates, config, strategy, V)` via `ModelSelection::build_units`,
//! train locally, and return per-member metrics plus the trained plan
//! graph, so the distributed selection output is **bit-identical** to a
//! single box at any worker count by construction.
//!
//! Fault model: every shard is a lease. A dispatch's HTTP read timeout is
//! the lease; expiry, transport failure or a reply for another unit
//! requeues the shard with capped exponential backoff
//! (`dist.retry_backoff_ms` doubling up to `dist.retry_backoff_cap_ms`, at
//! most `dist.max_shard_retries` retries), and a worker that fails a
//! follow-up health probe leaves the pool. A heartbeat tick re-probes idle
//! workers so silent deaths are noticed between dispatches.
//!
//! Wire schema: see [`proto`] — versioned framed messages; any breaking
//! change must bump [`proto::WIRE_VERSION`].

pub mod coordinator;
pub mod proto;
pub mod remote;
pub mod worker;

pub use coordinator::{run_search, DistError, DistJob, DistReport, ShardStat};
pub use remote::{LeaseLedger, RemoteUnits};
pub use worker::{run_worker, WorkerOptions};
