//! The trainer's epoch reader over [`TensorStore::scan`].
//!
//! Training re-reads every materialized feature key once per epoch, and the
//! validation keys once after the last epoch; the paper leaves those
//! re-reads to the OS page cache (§3). Every read runs on the calling
//! thread and is finished when the call returns, so the ledger accounts it
//! in key order, then append order, whatever the pool width. Modeled keys
//! (the simulated backend's) are accounted at their recorded size and yield
//! no tensor.

use crate::tensor_store::{StoreError, TensorStore};
use nautilus_tensor::Tensor;

/// Reads a fixed set of training keys once per epoch, then the validation
/// keys, each call returning one tensor per key that holds payloads, in key
/// order.
#[derive(Debug)]
pub struct EpochPrefetcher<'s> {
    store: &'s TensorStore,
    train: Vec<String>,
    valid: Vec<String>,
    epochs: usize,
}

impl<'s> EpochPrefetcher<'s> {
    /// Reads `train_keys` every epoch, `epochs` times, and `valid_keys` once
    /// after the last epoch.
    ///
    /// Fails fast with [`StoreError::MissingKey`] when a key does not
    /// exist — the same error the first read would hit.
    pub fn new(
        store: &'s TensorStore,
        train_keys: &[String],
        valid_keys: &[String],
        epochs: usize,
    ) -> Result<Self, StoreError> {
        if let Some(k) = train_keys.iter().chain(valid_keys).find(|k| !store.contains(k)) {
            return Err(StoreError::MissingKey(k.clone()));
        }
        Ok(EpochPrefetcher {
            store,
            train: train_keys.to_vec(),
            valid: valid_keys.to_vec(),
            epochs,
        })
    }

    fn read(&self, keys: &[String]) -> Result<Vec<Tensor>, StoreError> {
        keys.iter().map(|k| self.store.scan(k)).filter_map(Result::transpose).collect()
    }

    /// Tensors for training epoch `e`, one per `train_keys` entry, in key
    /// order.
    pub fn epoch(&mut self, e: usize) -> Result<Vec<Tensor>, StoreError> {
        debug_assert!(e < self.epochs, "epoch {e} of {}", self.epochs);
        self.read(&self.train)
    }

    /// Tensors for the validation keys, in key order.
    pub fn valid(&mut self) -> Result<Vec<Tensor>, StoreError> {
        self.read(&self.valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SharedIoStats;
    use nautilus_tensor::init::{randn, seeded_rng};

    fn temp_store(tag: &str, io: SharedIoStats) -> TensorStore {
        let p = std::env::temp_dir().join(format!(
            "nautilus-prefetch-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TensorStore::open(p, io).unwrap()
    }

    fn populate(store: &mut TensorStore, key: &str, chunks: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        for _ in 0..chunks {
            store.append_many(&[(key.to_string(), randn([4, 6], 1.0, &mut rng))]).unwrap();
        }
    }

    #[test]
    fn missing_key_fails_fast() {
        let s = temp_store("missing", SharedIoStats::new());
        let err =
            EpochPrefetcher::new(&s, &["nope:train".to_string()], &[], 2).unwrap_err();
        assert!(matches!(err, StoreError::MissingKey(_)));
    }

    #[test]
    fn zero_epochs_still_prefetches_validation() {
        let io = SharedIoStats::new();
        let mut s = temp_store("zeroep", io.clone());
        populate(&mut s, "a:valid", 2, 4);
        let (v, _) = s.read_all("a:valid").unwrap();
        io.reset();
        let mut pf =
            EpochPrefetcher::new(&s, &[], &["a:valid".to_string()], 0).unwrap();
        let got = pf.valid().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], v);
        let root = s.root().to_path_buf();
        drop(pf);
        drop(s);
        let _ = std::fs::remove_dir_all(root);
    }
}
