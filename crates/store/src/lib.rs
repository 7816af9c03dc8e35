#![warn(missing_docs)]

//! Storage substrate: chunked on-disk tensor stores with IO accounting and a
//! page-cache model.
//!
//! The paper's Materializer writes intermediate layer outputs to files and
//! leans on the OS page cache for repeated epoch reads (§3). This crate
//! provides:
//!
//! * [`io`] — shared byte/operation counters ([`io::IoStats`]) threaded
//!   through every store, the source of the Fig 11 disk-traffic numbers
//!   and of the simulated clock's IO time.
//! * [`pagecache`] — an LRU page-cache *model* the store splits every read
//!   with: first reads count as disk bytes, cached re-reads as DRAM bytes.
//!   The real backend reads actual files and lets the real OS cache do its
//!   thing; the model only decides how the bytes are counted.
//! * [`tensor_store`] — an append-only, chunked store of per-record tensors
//!   keyed by layer, supporting incremental materialization (one chunk per
//!   labeling cycle, §4.2.3) and full scans in record order, plus opaque
//!   byte objects (checkpoints). It is the one IO ledger: the simulated
//!   backend records *modeled* entries of exact size in it instead of
//!   payloads.
//! * [`budget`] — disk budget bookkeeping for `Bdisk` enforcement.
//! * [`prefetch`] — the trainer's epoch reader over
//!   [`TensorStore::scan`]. Every store read and write runs on the calling
//!   thread and is finished when the call returns; the crate owns no
//!   threads.
//! * [`calibrate`] — a startup micro-probe measuring the machine's actual
//!   I/O bandwidths, blended with the observed page-cache hit curve to
//!   replace the planner's static disk constant.

pub mod budget;
pub mod calibrate;
pub mod io;
pub mod pagecache;
pub mod prefetch;
pub mod tensor_store;

pub use budget::DiskBudget;
pub use calibrate::IoCalibration;
pub use io::{IoStats, SharedIoStats};
pub use pagecache::{CacheStats, PageCacheModel};
pub use prefetch::EpochPrefetcher;
pub use tensor_store::{Object, StoreError, TensorStore};
