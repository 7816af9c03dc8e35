//! LRU page-cache model of the store's ledger.
//!
//! The paper relies on the OS disk cache to absorb repeated epoch reads of
//! materialized features ("if there is excess DRAM available, we rely on the
//! OS disk cache", §3). [`crate::TensorStore`] accounts every chunk it reads
//! or models through an explicit model, on both backends: cached objects
//! are tracked by key with LRU eviction under a capacity; a read either
//! *hits* (served at DRAM bandwidth) or *misses* (served at disk bandwidth
//! and then admitted). Writes pass through to disk and admit their pages.
//!
//! Objects larger than the cache are never admitted (scan-resistant), and a
//! working set larger than the cache misses on every epoch's in-order scan
//! (LRU evicts the chunk read next), which is what makes MAT-ALL's giant
//! concatenated features lose to selective materialization in Fig 6 —
//! exactly the paper's observed effect.

use std::collections::HashMap;

/// An LRU page-cache model over named objects.
#[derive(Debug)]
pub struct PageCacheModel {
    capacity: u64,
    used: u64,
    clock: u64,
    /// key -> (bytes, last-touch tick)
    entries: HashMap<String, (u64, u64)>,
    stats: CacheStats,
}

/// Cumulative hit/miss byte totals over the model's lifetime. Unlike the
/// per-read [`ReadOutcome`], these survive [`PageCacheModel::resize`] —
/// they are the observed hit curve the I/O calibration blends into an
/// effective read bandwidth for the planner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total bytes served from cache since the model was created.
    pub hit_bytes: u64,
    /// Total bytes that had to come from disk since the model was created.
    pub miss_bytes: u64,
}

impl CacheStats {
    /// Fraction of read bytes served from cache (0 when nothing was read).
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.hit_bytes as f64 / total as f64
        }
    }
}

/// Outcome of a modeled read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes that had to come from disk.
    pub miss_bytes: u64,
}

impl PageCacheModel {
    /// A cache with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        PageCacheModel {
            capacity,
            used: 0,
            clock: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Cumulative hit/miss byte totals.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Changes the capacity *in place*: warm entries and the cumulative
    /// hit/miss accounting survive. Shrinking evicts coldest-first until
    /// the surviving entries fit.
    pub fn resize(&mut self, capacity: u64) {
        self.capacity = capacity;
        self.evict_for(0);
    }

    fn touch(&mut self, key: &str) {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(key) {
            e.1 = self.clock;
        }
    }

    fn evict_for(&mut self, needed: u64) {
        while self.used + needed > self.capacity && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            let (bytes, _) = self.entries.remove(&victim).expect("present");
            self.used -= bytes;
        }
    }

    fn admit(&mut self, key: &str, bytes: u64) {
        if bytes > self.capacity {
            return; // scan-resistant: never admit objects larger than DRAM
        }
        if let Some((old, _)) = self.entries.get(key).copied() {
            self.used -= old;
            self.entries.remove(key);
        }
        self.evict_for(bytes);
        self.clock += 1;
        self.entries.insert(key.to_string(), (bytes, self.clock));
        self.used += bytes;
    }

    /// Models reading `bytes` of object `key`.
    pub fn read(&mut self, key: &str, bytes: u64) -> ReadOutcome {
        let outcome = match self.entries.get(key).copied() {
            Some((cached, _)) if cached >= bytes => {
                self.touch(key);
                ReadOutcome { hit_bytes: bytes, miss_bytes: 0 }
            }
            Some((cached, _)) => {
                // Object grew since it was cached: the delta misses.
                self.touch(key);
                self.admit(key, bytes);
                ReadOutcome { hit_bytes: cached, miss_bytes: bytes - cached }
            }
            None => {
                self.admit(key, bytes);
                ReadOutcome { hit_bytes: 0, miss_bytes: bytes }
            }
        };
        self.stats.hit_bytes += outcome.hit_bytes;
        self.stats.miss_bytes += outcome.miss_bytes;
        outcome
    }

    /// Models writing `bytes` of object `key` (write-through + admit).
    pub fn write(&mut self, key: &str, bytes: u64) {
        self.admit(key, bytes);
    }

    /// Drops an object (e.g. a deleted materialization).
    pub fn invalidate(&mut self, key: &str) {
        if let Some((bytes, _)) = self.entries.remove(key) {
            self.used -= bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_misses_second_hits() {
        let mut c = PageCacheModel::new(1000);
        let r1 = c.read("a", 400);
        assert_eq!(r1, ReadOutcome { hit_bytes: 0, miss_bytes: 400 });
        let r2 = c.read("a", 400);
        assert_eq!(r2, ReadOutcome { hit_bytes: 400, miss_bytes: 0 });
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut c = PageCacheModel::new(1000);
        c.read("a", 400);
        c.read("b", 400);
        c.read("a", 400); // a is now warmer than b
        c.read("c", 400); // must evict b
        assert_eq!(c.read("a", 400).hit_bytes, 400);
        assert_eq!(c.read("b", 400).miss_bytes, 400);
    }

    #[test]
    fn oversized_objects_never_admitted() {
        let mut c = PageCacheModel::new(100);
        let r = c.read("huge", 500);
        assert_eq!(r.miss_bytes, 500);
        assert_eq!(c.used(), 0);
        // And it keeps missing.
        assert_eq!(c.read("huge", 500).miss_bytes, 500);
    }

    #[test]
    fn grown_object_misses_only_delta() {
        let mut c = PageCacheModel::new(1000);
        c.write("a", 300);
        let r = c.read("a", 500);
        assert_eq!(r, ReadOutcome { hit_bytes: 300, miss_bytes: 200 });
        assert_eq!(c.read("a", 500).hit_bytes, 500);
    }

    #[test]
    fn resize_preserves_warm_entries_and_stats() {
        let mut c = PageCacheModel::new(1000);
        c.read("a", 300);
        c.read("b", 300);
        c.read("a", 300);
        let before = c.stats();
        assert_eq!(before, CacheStats { hit_bytes: 300, miss_bytes: 600 });
        // Growing keeps everything warm.
        c.resize(2000);
        assert_eq!(c.capacity(), 2000);
        assert_eq!(c.used(), 600);
        assert_eq!(c.read("a", 300).hit_bytes, 300);
        assert_eq!(c.read("b", 300).hit_bytes, 300);
        assert_eq!(c.stats(), CacheStats { hit_bytes: 900, miss_bytes: 600 });
        // Shrinking evicts coldest-first and keeps cumulative accounting.
        c.read("a", 300); // a is now the warmest
        c.resize(400);
        assert_eq!(c.used(), 300);
        assert_eq!(c.read("a", 300).hit_bytes, 300, "warm survivor still hits");
        assert_eq!(c.read("b", 300).miss_bytes, 300, "cold entry was evicted");
        let after = c.stats();
        assert!(after.hit_bytes >= before.hit_bytes && after.miss_bytes >= before.miss_bytes);
    }

    #[test]
    fn resize_to_zero_evicts_everything() {
        let mut c = PageCacheModel::new(1000);
        c.read("a", 400);
        c.resize(0);
        assert_eq!(c.used(), 0);
        assert_eq!(c.read("a", 400).miss_bytes, 400);
    }

    #[test]
    fn hit_fraction_tracks_reads() {
        let mut c = PageCacheModel::new(1000);
        assert_eq!(c.stats().hit_fraction(), 0.0);
        c.read("a", 500);
        assert_eq!(c.stats().hit_fraction(), 0.0);
        c.read("a", 500);
        assert!((c.stats().hit_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn writes_admit_and_invalidate_removes() {
        let mut c = PageCacheModel::new(1000);
        c.write("a", 250);
        assert_eq!(c.used(), 250);
        assert_eq!(c.read("a", 250).hit_bytes, 250);
        c.invalidate("a");
        assert_eq!(c.used(), 0);
        assert_eq!(c.read("a", 250).miss_bytes, 250);
    }
}
