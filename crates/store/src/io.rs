//! Shared IO counters.
//!
//! Every read/write a [`crate::TensorStore`] performs or models increments
//! these counters; the Fig 11 experiment compares them across execution
//! strategies, and the simulated backend's clock turns them into time. The
//! counters also mirror into the [`nautilus_util::telemetry`] byte counters
//! so traces carry them.
//!
//! Reads split into disk vs cache through the store's
//! [`crate::PageCacheModel`] over the chunks it reads (a stand-in for the
//! OS page cache the paper relies on), on both backends alike.

use nautilus_util::telemetry;
use std::sync::{Arc, Mutex};

/// Cumulative IO statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes read from disk (page-cache *misses*).
    pub disk_read_bytes: u64,
    /// Bytes served from the page cache.
    pub cached_read_bytes: u64,
    /// Bytes written.
    pub disk_write_bytes: u64,
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
}

impl IoStats {
    /// Total bytes read from any source.
    pub fn total_read_bytes(&self) -> u64 {
        self.disk_read_bytes + self.cached_read_bytes
    }
}

/// Cheaply clonable handle to shared [`IoStats`].
#[derive(Debug, Clone, Default)]
pub struct SharedIoStats(Arc<Mutex<IoStats>>);

impl SharedIoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read that hit the disk.
    pub fn record_disk_read(&self, bytes: u64) {
        let mut s = self.0.lock().unwrap();
        s.disk_read_bytes += bytes;
        s.read_ops += 1;
        telemetry::DISK_READ_BYTES.add(bytes);
    }

    /// Records a read served from cache.
    pub fn record_cached_read(&self, bytes: u64) {
        let mut s = self.0.lock().unwrap();
        s.cached_read_bytes += bytes;
        s.read_ops += 1;
        telemetry::CACHED_READ_BYTES.add(bytes);
    }

    /// Records a write.
    pub fn record_write(&self, bytes: u64) {
        let mut s = self.0.lock().unwrap();
        s.disk_write_bytes += bytes;
        s.write_ops += 1;
        telemetry::DISK_WRITE_BYTES.add(bytes);
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> IoStats {
        *self.0.lock().unwrap()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        *self.0.lock().unwrap() = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let io = SharedIoStats::new();
        io.record_disk_read(100);
        io.record_cached_read(50);
        io.record_write(30);
        io.record_write(20);
        let s = io.snapshot();
        assert_eq!(s.disk_read_bytes, 100);
        assert_eq!(s.cached_read_bytes, 50);
        assert_eq!(s.total_read_bytes(), 150);
        assert_eq!(s.disk_write_bytes, 50);
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.write_ops, 2);
    }

    #[test]
    fn clones_share_state() {
        let a = SharedIoStats::new();
        let b = a.clone();
        b.record_write(7);
        assert_eq!(a.snapshot().disk_write_bytes, 7);
        a.reset();
        assert_eq!(b.snapshot(), IoStats::default());
    }
}
