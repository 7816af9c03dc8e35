//! Append-only chunked tensor store, and the one IO ledger of a session.
//!
//! One store instance manages a directory; each *key* (e.g. a materialized
//! layer, or the raw labeled dataset) holds a sequence of chunks, one per
//! append — which in Nautilus means one per labeling cycle (§4.2.3,
//! incremental feature materialization). Records are per-record tensors of a
//! fixed shape; appends take batched tensors `[n, ...record]` and scans
//! return them the same way. A key can instead hold one opaque byte
//! *object* (a model checkpoint), replaced whole by
//! [`TensorStore::put_objects`].
//!
//! The manifest is the ledger of what each key holds; a *modeled* chunk or
//! object (the simulated backend's) is an entry with a record count and its
//! exact encoded size but no payload file. Every write and every read, of a
//! payload or of a modeled entry alike, goes through the store's page-cache
//! model and its [`SharedIoStats`], so both backends count the same bytes;
//! the simulated clock turns those counters into time.

use crate::io::SharedIoStats;
use crate::pagecache::{CacheStats, PageCacheModel};
use nautilus_tensor::{ser, Shape, Tensor};
use nautilus_util::{json, json_struct, telemetry};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Default page-cache model capacity for a freshly opened store. Sessions
/// override it with the configured `HardwareProfile::page_cache_bytes`.
pub const DEFAULT_PAGE_CACHE_BYTES: u64 = 1 << 30;

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Manifest is unreadable.
    BadManifest(String),
    /// Chunk payload is corrupt.
    BadChunk(String),
    /// Append shape does not match the key's record shape.
    ShapeMismatch {
        /// The key being appended to.
        key: String,
        /// Shape already registered for the key.
        expected: Vec<usize>,
        /// Shape of the incoming records.
        actual: Vec<usize>,
    },
    /// The key does not exist.
    MissingKey(String),
    /// The key holds modeled chunks: recorded with their size, but with no
    /// payload file to read (the simulated backend materializes these).
    NoPayload(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            StoreError::BadChunk(m) => write!(f, "bad chunk: {m}"),
            StoreError::ShapeMismatch { key, expected, actual } => {
                write!(f, "append to '{key}': record shape {actual:?} != {expected:?}")
            }
            StoreError::MissingKey(k) => write!(f, "missing key '{k}'"),
            StoreError::NoPayload(k) => write!(f, "key '{k}' holds modeled chunks without payload"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[derive(Debug, Clone)]
struct ChunkMeta {
    /// The payload file; `None` for a modeled chunk.
    file: Option<String>,
    records: usize,
    bytes: u64,
}

json_struct!(ChunkMeta { file, records, bytes });

#[derive(Debug, Clone)]
struct KeyMeta {
    dir: String,
    record_shape: Vec<usize>,
    records: usize,
    bytes: u64,
    chunks: Vec<ChunkMeta>,
}

json_struct!(KeyMeta { dir, record_shape, records, bytes, chunks });

#[derive(Debug, Default)]
struct Manifest {
    keys: BTreeMap<String, KeyMeta>,
}

json_struct!(Manifest { keys });

/// An on-disk store of per-record tensors and byte objects grouped by key.
///
/// Reads and writes go through an [`PageCacheModel`] keyed by chunk — a
/// stand-in for the OS page cache the paper relies on ("if there is excess
/// DRAM available, we rely on the OS disk cache", §3) — so the shared
/// [`SharedIoStats`] split disk vs cached bytes the same way on both
/// backends. The model only affects accounting, never data: every read of
/// a payload still comes from the filesystem (where the actual OS cache
/// does the work being modeled).
///
/// Every read and write runs on the calling thread and is finished when the
/// call returns: the store owns no threads and submits nothing to the pool.
/// Units train as pool tasks, and a pool join nested inside one would let
/// the waiting worker run a whole queued unit in the middle of a read.
#[derive(Debug)]
pub struct TensorStore {
    root: PathBuf,
    manifest: Manifest,
    io: SharedIoStats,
    cache: Mutex<PageCacheModel>,
}

/// One chunk of a key, as the store's readers see it.
#[derive(Debug, Clone)]
pub(crate) struct ChunkRef {
    /// Absolute path of the chunk file; `None` for a modeled chunk.
    pub(crate) path: Option<PathBuf>,
    /// The chunk's key in the page-cache model.
    pub(crate) cache_key: String,
    /// Records in the chunk.
    pub(crate) records: usize,
    /// Encoded size of the chunk, bytes.
    pub(crate) bytes: u64,
}

/// The on-disk chunk layout of one key, in append order.
#[derive(Debug, Clone)]
pub(crate) struct ChunkPlan {
    /// Per-record tensor shape.
    pub(crate) record_shape: Vec<usize>,
    /// Chunks in append order.
    pub(crate) chunks: Vec<ChunkRef>,
}

/// What a stored byte object holds.
#[derive(Debug, Clone)]
pub enum Object {
    /// The object's bytes, written to a payload file.
    Bytes(Vec<u8>),
    /// Only the object's exact size: a modeled entry with no payload file.
    Modeled(u64),
}

/// What one appended chunk carries.
enum Chunk<'a> {
    /// Records, encoded into a payload file.
    Records(&'a Tensor),
    /// An opaque byte object: its bytes, or only their size.
    Object(&'a Object),
    /// Only a record shape and count: no payload file. Its size is the
    /// encoded size the records would have.
    Modeled { record_shape: &'a [usize], records: usize, bytes: u64 },
}

impl Chunk<'_> {
    /// The chunk's record shape and record count.
    fn records(&self) -> (Vec<usize>, usize) {
        match self {
            Chunk::Records(batch) => (batch.shape().without_batch().0, batch.shape().dim(0)),
            Chunk::Object(_) => (Vec::new(), 0),
            Chunk::Modeled { record_shape, records, .. } => (record_shape.to_vec(), *records),
        }
    }
}

fn dir_for(key: &str) -> String {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    let safe: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .take(40)
        .collect();
    format!("{safe}-{:016x}", h.finish())
}

/// The directory every object's file shares (an object is one file, and a
/// directory per object would cost a `mkdir` per checkpoint).
const OBJECTS: &str = "objects";

/// The file name of a key's `index`-th chunk.
fn chunk_file(index: usize) -> String {
    format!("chunk-{index:06}.bin")
}

/// The page-cache key of chunk `index` of `key`: the same for a payload
/// chunk and a modeled one.
fn cache_key(key: &str, index: usize) -> String {
    format!("{key}#{index}")
}

/// Reads one payload file whole; returns its bytes and their count.
fn read_file(path: &Path) -> Result<(Vec<u8>, u64), StoreError> {
    let _sp = telemetry::span("store", "store.chunk_read");
    let data = std::fs::read(path)?;
    let n = data.len() as u64;
    Ok((data, n))
}

/// Reads and decodes one tensor chunk file; returns it and its size.
fn load_chunk(path: &Path) -> Result<(Tensor, u64), StoreError> {
    let (data, n) = read_file(path)?;
    let _sp = telemetry::span("store", "store.chunk_decode");
    let t = ser::decode(&data).map_err(|e| StoreError::BadChunk(e.to_string()))?;
    Ok((t, n))
}

/// Writes one payload file whole; returns its byte count.
fn write_file(path: Option<&Path>, data: &[u8]) -> Result<u64, StoreError> {
    let path = path.expect("phase 1 assigns every payload a file");
    let _sp = telemetry::span("store", "store.chunk_write");
    std::fs::write(path, data)?;
    Ok(data.len() as u64)
}

/// Concatenates a key's chunks in append order (`[0, ...record]` when
/// there are none).
fn concat_chunks(
    record_shape: &[usize],
    parts: Vec<Tensor>,
) -> Result<Tensor, StoreError> {
    if parts.is_empty() {
        return Ok(Tensor::zeros(Shape::new(record_shape.to_vec()).with_batch(0)));
    }
    Tensor::concat_outer(&parts).map_err(|e| StoreError::BadChunk(e.to_string()))
}

impl TensorStore {
    /// Opens (or creates) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>, io: SharedIoStats) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let manifest_path = root.join("manifest.json");
        let manifest = if manifest_path.exists() {
            let data = std::fs::read(&manifest_path)?;
            json::from_slice(&data).map_err(|e| StoreError::BadManifest(e.to_string()))?
        } else {
            Manifest::default()
        };
        Ok(TensorStore {
            root,
            manifest,
            io,
            cache: Mutex::new(PageCacheModel::new(DEFAULT_PAGE_CACHE_BYTES)),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Locks the page-cache model, riding through poisoning: the model is
    /// pure counter state (capacity, LRU ticks, hit/miss totals), so it is
    /// always safe to keep using after a panicked reader — one crashing
    /// thread must not turn every later read/append into a panic.
    fn cache_lock(&self) -> MutexGuard<'_, PageCacheModel> {
        self.cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resizes the page-cache model *in place* (e.g. to the session's
    /// configured `page_cache_bytes`): warm chunks stay warm and the
    /// cumulative hit/miss accounting — telemetry and the I/O calibration
    /// curve — is preserved. Shrinking evicts coldest-first.
    pub fn set_page_cache_bytes(&mut self, bytes: u64) {
        self.cache_lock().resize(bytes);
    }

    /// Cumulative page-cache hit/miss bytes (the observed hit curve the
    /// I/O calibration feeds back into the planner).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_lock().stats()
    }

    fn meta(&self, key: &str) -> Result<&KeyMeta, StoreError> {
        self.manifest.keys.get(key).ok_or_else(|| StoreError::MissingKey(key.to_string()))
    }

    /// `key`'s metadata. A modeled chunk has no file to read, so a key that
    /// holds one fails closed.
    fn payload(&self, key: &str) -> Result<&KeyMeta, StoreError> {
        match self.holds_payload(key)? {
            true => self.meta(key),
            false => Err(StoreError::NoPayload(key.to_string())),
        }
    }

    /// Whether every chunk of `key` has a payload file (false for a key of
    /// modeled chunks).
    pub fn holds_payload(&self, key: &str) -> Result<bool, StoreError> {
        Ok(self.meta(key)?.chunks.iter().all(|c| c.file.is_some()))
    }

    /// The chunk layout of `key`, modeled chunks included.
    pub(crate) fn chunk_plan(&self, key: &str) -> Result<ChunkPlan, StoreError> {
        let meta = self.meta(key)?;
        let dir = self.root.join(&meta.dir);
        let chunks = meta.chunks.iter().enumerate().map(|(i, c)| ChunkRef {
            path: c.file.as_ref().map(|f| dir.join(f)),
            cache_key: cache_key(key, i),
            records: c.records,
            bytes: c.bytes,
        });
        Ok(ChunkPlan { record_shape: meta.record_shape.clone(), chunks: chunks.collect() })
    }

    /// A write barrier that has nothing to wait for: every write is on disk
    /// when its call returns. Always `Ok`.
    pub fn flush_writes(&self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Publishes the cache model's occupancy as the `pagecache.used_bytes`
    /// gauge; callers pass the still-held lock to avoid a second acquire.
    fn publish_cache_gauge(cache: &PageCacheModel) {
        if telemetry::metrics_enabled() {
            telemetry::PAGECACHE_USED_BYTES.set(cache.used() as i64);
        }
    }

    /// Splits a finished chunk read into cached vs disk bytes through the
    /// page-cache model and records both into the shared counters.
    fn account_chunk_read(&self, chunk_key: &str, bytes: u64) {
        let outcome = {
            let mut cache = self.cache_lock();
            let o = cache.read(chunk_key, bytes);
            Self::publish_cache_gauge(&cache);
            o
        };
        if outcome.miss_bytes > 0 {
            telemetry::PAGECACHE_MISSES.add(1);
            self.io.record_disk_read(outcome.miss_bytes);
        }
        if outcome.hit_bytes > 0 {
            telemetry::PAGECACHE_HITS.add(1);
            self.io.record_cached_read(outcome.hit_bytes);
        }
    }

    fn persist_manifest(&self) -> Result<(), StoreError> {
        let data = json::to_string_pretty(&self.manifest);
        std::fs::write(self.root.join("manifest.json"), data)?;
        Ok(())
    }

    /// Appends several batches (`[n, ...record]`), one chunk each, encoding
    /// and writing the chunks in input order and persisting the manifest a
    /// single time.
    ///
    /// Returns the bytes written per item, in input order; repeated keys
    /// append in order. A key's first chunk fixes its record shape; later
    /// chunks must match.
    pub fn append_many(&mut self, items: &[(String, Tensor)]) -> Result<Vec<u64>, StoreError> {
        let sizes = self
            .append_chunks(items.iter().map(|(key, batch)| (key.as_str(), Chunk::Records(batch))))?;
        self.persist_manifest()?;
        Ok(sizes)
    }

    /// Records modeled chunks, one per `(key, record shape, records)`:
    /// manifest entries with no payload file, each of the exact size
    /// [`TensorStore::append_many`] would write for such a batch. The
    /// ledger counts their writes like any chunk's. `delete`, `num_records`
    /// and `total_bytes` see them like any chunk; payload reads fail closed
    /// with [`StoreError::NoPayload`], and [`TensorStore::scan`] accounts
    /// them without data. Returns the bytes per item.
    pub fn append_modeled(
        &mut self,
        items: &[(String, Vec<usize>, usize)],
    ) -> Result<Vec<u64>, StoreError> {
        let sizes = self.append_chunks(items.iter().map(|(key, record_shape, records)| {
            let shape = Shape::new(record_shape.clone()).with_batch(*records);
            let bytes = ser::encoded_len(&shape) as u64;
            (key.as_str(), Chunk::Modeled { record_shape, records: *records, bytes })
        }))?;
        self.persist_manifest()?;
        Ok(sizes)
    }

    /// Stores each `(key, object)` in turn, replacing whatever the key
    /// held, as one chunk of the same ledger: the same manifest, page-cache
    /// model and counters. Objects are taken one at a time, so a lazy
    /// iterator holds one encoded object at once, and the manifest is
    /// persisted once. Returns the bytes written per object.
    pub fn put_objects(
        &mut self,
        objects: impl IntoIterator<Item = (String, Object)>,
    ) -> Result<Vec<u64>, StoreError> {
        let mut sizes = Vec::new();
        for (key, object) in objects {
            self.remove_entry(&key)?;
            let chunk = (key.as_str(), Chunk::Object(&object));
            sizes.extend(self.append_chunks(std::iter::once(chunk))?);
        }
        self.persist_manifest()?;
        Ok(sizes)
    }

    /// Reads the object under `key` through the ledger: its bytes, or `None`
    /// for a modeled object (whose read is still accounted).
    pub fn get_object(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let (parts, _) = self.read_chunks(&self.chunk_plan(key)?.chunks, read_file)?;
        Ok(parts.and_then(|mut p| p.pop()))
    }

    fn append_chunks<'a>(
        &mut self,
        items: impl Iterator<Item = (&'a str, Chunk<'a>)>,
    ) -> Result<Vec<u64>, StoreError> {
        let items: Vec<(&str, Chunk<'_>)> = items.collect();
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let _sp = telemetry::span("store", "store.append_many");
        // Phase 1 (sequential): validate shapes, create key entries and
        // directories, and assign each chunk its index (and each payload its
        // file path).
        let mut pending: HashMap<&str, usize> = HashMap::new();
        let mut slots = Vec::with_capacity(items.len());
        for &(key, ref chunk) in &items {
            let (record_shape, _) = chunk.records();
            let object = matches!(chunk, Chunk::Object(_));
            let entry = self.manifest.keys.entry(key.to_string()).or_insert_with(|| KeyMeta {
                dir: if object { OBJECTS.to_string() } else { dir_for(key) },
                record_shape: record_shape.clone(),
                records: 0,
                bytes: 0,
                chunks: Vec::new(),
            });
            if entry.record_shape != record_shape {
                return Err(StoreError::ShapeMismatch {
                    key: key.to_string(),
                    expected: entry.record_shape.clone(),
                    actual: record_shape,
                });
            }
            let seen = pending.entry(key).or_insert(0);
            let index = entry.chunks.len() + *seen;
            *seen += 1;
            let file = if object { format!("{}.bin", dir_for(key)) } else { chunk_file(index) };
            let path = match chunk {
                Chunk::Modeled { .. } | Chunk::Object(Object::Modeled(_)) => None,
                _ => {
                    let dir = self.root.join(&entry.dir);
                    std::fs::create_dir_all(&dir)?;
                    Some(dir.join(&file))
                }
            };
            slots.push((index, file, path));
        }
        // Phase 2: encode and write each payload, and fold its metadata into
        // the manifest and the ledger, in input order (the caller persists
        // the manifest).
        let mut sizes = Vec::with_capacity(items.len());
        for ((key, chunk), (index, file, path)) in items.iter().zip(slots) {
            let n = match chunk {
                Chunk::Modeled { bytes, .. } | Chunk::Object(Object::Modeled(bytes)) => *bytes,
                Chunk::Object(Object::Bytes(bytes)) => write_file(path.as_deref(), bytes)?,
                Chunk::Records(batch) => {
                    let bytes = {
                        let _sp = telemetry::span("store", "store.chunk_encode");
                        ser::encode(batch)
                    };
                    write_file(path.as_deref(), &bytes)?
                }
            };
            let entry = self.manifest.keys.get_mut(*key).expect("entry created in phase 1");
            let file = path.map(|_| file);
            let (_, records) = chunk.records();
            entry.chunks.push(ChunkMeta { file, records, bytes: n });
            entry.records += records;
            entry.bytes += n;
            let mut cache = self.cache_lock();
            cache.write(&cache_key(key, index), n);
            Self::publish_cache_gauge(&cache);
            drop(cache);
            self.io.record_write(n);
            sizes.push(n);
        }
        Ok(sizes)
    }

    /// Reads `chunks` in order, each payload loaded by `load` and every
    /// chunk accounted through the page-cache model as it is read, a modeled
    /// one at its recorded size. Returns the loaded chunks, or `None` when a
    /// modeled chunk was among them, and the bytes read.
    fn read_chunks<T>(
        &self,
        chunks: &[ChunkRef],
        load: fn(&Path) -> Result<(T, u64), StoreError>,
    ) -> Result<(Option<Vec<T>>, u64), StoreError> {
        let (mut parts, mut total, mut modeled) = (Vec::new(), 0u64, false);
        for c in chunks {
            let n = match &c.path {
                Some(path) => {
                    let (part, n) = load(path)?;
                    parts.push(part);
                    n
                }
                None => {
                    modeled = true;
                    c.bytes
                }
            };
            self.account_chunk_read(&c.cache_key, n);
            total += n;
        }
        Ok(((!modeled).then_some(parts), total))
    }

    /// Reads every record under `key` through the ledger: the batched
    /// records in append order, or `None` when the key holds modeled chunks
    /// (whose reads are accounted all the same).
    pub fn scan(&self, key: &str) -> Result<Option<Tensor>, StoreError> {
        let _sp = telemetry::span("store", "store.scan");
        let plan = self.chunk_plan(key)?;
        let (parts, _) = self.read_chunks(&plan.chunks, load_chunk)?;
        parts.map(|p| concat_chunks(&plan.record_shape, p)).transpose()
    }

    /// Reads every record under `key` as one batched tensor, in append
    /// order. Returns the tensor and the number of bytes read; a key of
    /// modeled chunks fails closed before anything is read.
    pub fn read_all(&self, key: &str) -> Result<(Tensor, u64), StoreError> {
        let _sp = telemetry::span("store", "store.read_all");
        self.payload(key)?;
        let plan = self.chunk_plan(key)?;
        let (parts, total) = self.read_chunks(&plan.chunks, load_chunk)?;
        Ok((concat_chunks(&plan.record_shape, parts.expect("payload checked"))?, total))
    }

    /// Reads `key`'s chunks as stored, each as `(records, encoded bytes)` in
    /// append order, through the ledger like any read; a key of modeled
    /// chunks fails closed before anything is read.
    pub fn read_encoded(&self, key: &str) -> Result<Vec<(usize, Vec<u8>)>, StoreError> {
        let _sp = telemetry::span("store", "store.read_encoded");
        self.payload(key)?;
        let chunks = self.chunk_plan(key)?.chunks;
        let (parts, _) = self.read_chunks(&chunks, read_file)?;
        Ok(chunks.iter().map(|c| c.records).zip(parts.expect("payload checked")).collect())
    }

    /// Reads records `[start, end)` under `key`, touching only the chunks
    /// that overlap the range. Returns the batched tensor and bytes read.
    ///
    /// Epoch scans use [`TensorStore::read_all`]; this ranged variant serves
    /// callers that stream mini-batches larger than memory.
    pub fn read_records(
        &self,
        key: &str,
        start: usize,
        end: usize,
    ) -> Result<(Tensor, u64), StoreError> {
        let _sp = telemetry::span("store", "store.read_records");
        let meta = self.payload(key)?;
        let end = end.min(meta.records);
        let start = start.min(end);
        let record = Shape::new(meta.record_shape.clone());
        if start == end {
            return Ok((Tensor::zeros(record.with_batch(0)), 0));
        }
        // Chunk i holds records [offsets[i], offsets[i + 1]); chunks
        // [first, stop) overlap the range.
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(meta.chunks.iter().scan(0, |n, c| {
                *n += c.records;
                Some(*n)
            }))
            .collect();
        let n = meta.chunks.len();
        let first = offsets[1..].iter().position(|&hi| hi > start).unwrap_or(0);
        let stop = offsets[..n].iter().position(|&lo| lo >= end).unwrap_or(n);
        let plan = self.chunk_plan(key)?;
        let (parts, bytes) = self.read_chunks(&plan.chunks[first..stop], load_chunk)?;
        let all = concat_chunks(&meta.record_shape, parts.expect("payload checked"))?;
        let rows: Vec<Tensor> = (start..end).map(|r| all.outer_slice(r - offsets[first])).collect();
        let out = Tensor::stack(&rows).map_err(|e| StoreError::BadChunk(e.to_string()))?;
        Ok((out, bytes))
    }

    /// True when the key exists (possibly with zero records).
    pub fn contains(&self, key: &str) -> bool {
        self.manifest.keys.contains_key(key)
    }

    /// Number of records stored under `key` (0 when absent).
    pub fn num_records(&self, key: &str) -> usize {
        self.manifest.keys.get(key).map_or(0, |m| m.records)
    }

    /// Bytes stored under `key` (0 when absent).
    pub fn bytes(&self, key: &str) -> u64 {
        self.manifest.keys.get(key).map_or(0, |m| m.bytes)
    }

    /// Record shape of `key`.
    pub fn record_shape(&self, key: &str) -> Option<Shape> {
        self.manifest.keys.get(key).map(|m| Shape::new(m.record_shape.clone()))
    }

    /// All keys in sorted order.
    pub fn keys(&self) -> Vec<String> {
        self.manifest.keys.keys().cloned().collect()
    }

    /// Total bytes across all keys.
    pub fn total_bytes(&self) -> u64 {
        self.manifest.keys.values().map(|m| m.bytes).sum()
    }

    /// Drops `key` from the manifest, the page-cache model and the disk,
    /// without persisting the manifest; returns the bytes freed.
    fn remove_entry(&mut self, key: &str) -> Result<u64, StoreError> {
        let Some(meta) = self.manifest.keys.remove(key) else { return Ok(0) };
        {
            let mut cache = self.cache_lock();
            for i in 0..meta.chunks.len() {
                cache.invalidate(&cache_key(key, i));
            }
            Self::publish_cache_gauge(&cache);
        }
        let dir = self.root.join(&meta.dir);
        if meta.dir == OBJECTS {
            for file in meta.chunks.iter().filter_map(|c| c.file.as_ref()) {
                match std::fs::remove_file(dir.join(file)) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                    _ => {}
                }
            }
        } else if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(meta.bytes)
    }

    /// Removes a key and its data; returns the bytes freed.
    pub fn delete(&mut self, key: &str) -> Result<u64, StoreError> {
        if !self.contains(key) {
            return Ok(0);
        }
        let freed = self.remove_entry(key)?;
        self.persist_manifest()?;
        Ok(freed)
    }

    /// Removes every key; returns the bytes freed.
    pub fn clear(&mut self) -> Result<u64, StoreError> {
        let keys = self.keys();
        let mut freed = 0;
        for k in keys {
            freed += self.delete(&k)?;
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_tensor::init::{randn, seeded_rng};

    /// Appends one batch as one chunk; returns its bytes.
    fn append(s: &mut TensorStore, key: &str, batch: &Tensor) -> u64 {
        s.append_many(&[(key.to_string(), batch.clone())]).unwrap()[0]
    }

    fn temp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "nautilus-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn append_and_scan_round_trip() {
        let io = SharedIoStats::new();
        let root = temp_root("roundtrip");
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        let mut rng = seeded_rng(1);
        let b1 = randn([3, 4], 1.0, &mut rng);
        let b2 = randn([2, 4], 1.0, &mut rng);
        append(&mut s, "layer0", &b1);
        append(&mut s, "layer0", &b2);
        assert_eq!(s.num_records("layer0"), 5);
        let (all, read) = s.read_all("layer0").unwrap();
        assert_eq!(all.shape().0, vec![5, 4]);
        assert_eq!(&all.data()[..12], b1.data());
        assert_eq!(&all.data()[12..], b2.data());
        assert!(read > 0);
        let st = io.snapshot();
        assert_eq!(st.write_ops, 2);
        // The appends admitted both chunks to the page-cache model, so the
        // scan is fully cache-served.
        assert!(st.total_read_bytes() >= read);
        assert_eq!(st.cached_read_bytes, read);
        assert_eq!(st.disk_read_bytes, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cold_reads_miss_then_hit_on_both_backends_counters() {
        let root = temp_root("pagecache");
        {
            let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
            append(&mut s, "k", &Tensor::ones([4, 8]));
        }
        // Reopen: the page-cache model starts cold, like a fresh OS boot.
        let io = SharedIoStats::new();
        let s = TensorStore::open(&root, io.clone()).unwrap();
        let (_, n) = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, n, "cold read misses");
        assert_eq!(st.cached_read_bytes, 0);
        let _ = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, n, "second read is cache-served");
        assert_eq!(st.cached_read_bytes, n);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn zero_capacity_cache_counts_everything_as_disk() {
        let root = temp_root("nocache");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        s.set_page_cache_bytes(0);
        append(&mut s, "k", &Tensor::ones([4, 8]));
        let (_, n) = s.read_all("k").unwrap();
        let _ = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, 2 * n);
        assert_eq!(st.cached_read_bytes, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ranged_reads_touch_only_overlapping_chunks() {
        let io = SharedIoStats::new();
        let root = temp_root("ranged");
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        // Three chunks of 4 records each, values = record index.
        for c in 0..3 {
            let vals: Vec<f32> = (c * 4..(c + 1) * 4).map(|i| i as f32).collect();
            append(&mut s, "k", &Tensor::from_vec([4, 1], vals).unwrap());
        }
        // Range fully inside chunk 1.
        io.reset();
        let (t, bytes) = s.read_records("k", 5, 7).unwrap();
        assert_eq!(t.data(), &[5.0, 6.0]);
        let one_chunk = bytes;
        assert!(one_chunk > 0);
        // Range spanning chunks 0 and 1 reads exactly two chunks.
        let (t, bytes) = s.read_records("k", 2, 6).unwrap();
        assert_eq!(t.data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(bytes, 2 * one_chunk);
        // Clamped and empty ranges.
        let (t, _) = s.read_records("k", 10, 99).unwrap();
        assert_eq!(t.data(), &[10.0, 11.0]);
        let (t, bytes) = s.read_records("k", 3, 3).unwrap();
        assert_eq!(t.shape().dim(0), 0);
        assert_eq!(bytes, 0);
        // Whole range equals read_all.
        let (ranged, _) = s.read_records("k", 0, 12).unwrap();
        let (all, _) = s.read_all("k").unwrap();
        assert_eq!(ranged, all);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn append_many_matches_sequential_appends() {
        let mut rng = seeded_rng(9);
        let batches: Vec<(String, Tensor)> = vec![
            ("a".to_string(), randn([3, 4], 1.0, &mut rng)),
            ("b".to_string(), randn([2, 4], 1.0, &mut rng)),
            ("a".to_string(), randn([1, 4], 1.0, &mut rng)),
            ("c".to_string(), randn([5, 2], 1.0, &mut rng)),
        ];
        let root_seq = temp_root("many-seq");
        let mut seq = TensorStore::open(&root_seq, SharedIoStats::new()).unwrap();
        let seq_bytes: Vec<u64> =
            batches.iter().map(|(k, t)| append(&mut seq, k, t)).collect();
        let root_par = temp_root("many-par");
        let io = SharedIoStats::new();
        let mut par = TensorStore::open(&root_par, io.clone()).unwrap();
        let par_bytes = par.append_many(&batches).unwrap();
        assert_eq!(par_bytes, seq_bytes);
        assert_eq!(io.snapshot().write_ops, 4);
        for key in ["a", "b", "c"] {
            assert_eq!(par.num_records(key), seq.num_records(key), "records for {key}");
            let (pt, _) = par.read_all(key).unwrap();
            let (st, _) = seq.read_all(key).unwrap();
            assert_eq!(pt, st, "data for {key}");
        }
        // Reopen to prove the single manifest persist captured everything.
        drop(par);
        let reopened = TensorStore::open(&root_par, SharedIoStats::new()).unwrap();
        assert_eq!(reopened.num_records("a"), 4);
        std::fs::remove_dir_all(&root_seq).unwrap();
        std::fs::remove_dir_all(&root_par).unwrap();
    }

    #[test]
    fn reopen_preserves_manifest() {
        let io = SharedIoStats::new();
        let root = temp_root("reopen");
        {
            let mut s = TensorStore::open(&root, io.clone()).unwrap();
            append(&mut s, "k", &Tensor::ones([2, 3]));
        }
        let s = TensorStore::open(&root, io).unwrap();
        assert_eq!(s.num_records("k"), 2);
        assert_eq!(s.record_shape("k"), Some(Shape::new([3])));
        let (t, _) = s.read_all("k").unwrap();
        assert_eq!(t.sum(), 6.0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shape_mismatch_rejected() {
        let root = temp_root("mismatch");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        append(&mut s, "k", &Tensor::ones([2, 3]));
        let err = s.append_many(&[("k".to_string(), Tensor::ones([2, 4]))]).unwrap_err();
        assert!(matches!(err, StoreError::ShapeMismatch { .. }));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_key_and_delete() {
        let root = temp_root("delete");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        assert!(matches!(s.read_all("nope"), Err(StoreError::MissingKey(_))));
        assert_eq!(s.num_records("nope"), 0);
        append(&mut s, "k", &Tensor::ones([4, 2]));
        let freed = s.delete("k").unwrap();
        assert!(freed > 0);
        assert!(!s.contains("k"));
        assert_eq!(s.delete("k").unwrap(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let root = temp_root("collide");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        append(&mut s, "model/layer:1", &Tensor::ones([1, 2]));
        append(&mut s, "model/layer:2", &Tensor::zeros([1, 2]));
        let (a, _) = s.read_all("model/layer:1").unwrap();
        let (b, _) = s.read_all("model/layer:2").unwrap();
        assert_eq!(a.sum(), 2.0);
        assert_eq!(b.sum(), 0.0);
        assert_eq!(s.keys().len(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn total_bytes_and_clear() {
        let root = temp_root("clear");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        append(&mut s, "a", &Tensor::ones([2, 2]));
        append(&mut s, "b", &Tensor::ones([2, 2]));
        let total = s.total_bytes();
        assert!(total > 0);
        assert_eq!(s.clear().unwrap(), total);
        assert_eq!(s.total_bytes(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn page_cache_resize_preserves_warm_entries_and_accounting() {
        let root = temp_root("resize");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        append(&mut s, "k", &Tensor::ones([8, 16]));
        let (_, n) = s.read_all("k").unwrap(); // warm (admitted at append)
        let before = s.cache_stats();
        assert_eq!(before.hit_bytes, n);
        // Growing the cache mid-run must not cool warm chunks or reset the
        // cumulative hit/miss curve (the old code rebuilt the model from
        // scratch, discarding both).
        s.set_page_cache_bytes(DEFAULT_PAGE_CACHE_BYTES * 2);
        let _ = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, 0, "warm chunk stayed warm across resize");
        assert_eq!(st.cached_read_bytes, 2 * n);
        let after = s.cache_stats();
        assert_eq!(after.hit_bytes, 2 * n, "cumulative stats survive the resize");
        // Shrinking to zero evicts everything but still keeps the curve.
        s.set_page_cache_bytes(0);
        let _ = s.read_all("k").unwrap();
        assert_eq!(io.snapshot().disk_read_bytes, n);
        assert_eq!(s.cache_stats().miss_bytes, after.miss_bytes + n);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cache_lock_poisoning_does_not_cascade() {
        let root = temp_root("poison");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        append(&mut s, "k", &Tensor::ones([4, 8]));
        // Poison the cache mutex: a thread panics while holding it.
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = s.cache.lock().unwrap();
                    panic!("injected panic while holding the cache lock");
                })
                .join()
                .is_err()
        });
        assert!(poisoned, "the injected panic must have fired");
        assert!(s.cache.is_poisoned(), "the lock must actually be poisoned");
        // Every store operation keeps working: reads, accounting, appends,
        // resizes, deletes.
        let (t, n) = s.read_all("k").unwrap();
        assert_eq!(t.shape().0, vec![4, 8]);
        assert!(n > 0);
        assert!(io.snapshot().total_read_bytes() >= n);
        s.set_page_cache_bytes(1 << 20);
        append(&mut s, "k", &Tensor::ones([2, 8]));
        assert_eq!(s.num_records("k"), 6);
        assert!(s.delete("k").unwrap() > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chunk_plan_exposes_append_order_layout() {
        let root = temp_root("plan");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        append(&mut s, "k", &Tensor::ones([3, 2]));
        append(&mut s, "k", &Tensor::ones([2, 2]));
        let plan = s.chunk_plan("k").unwrap();
        assert_eq!(plan.record_shape, vec![2]);
        assert_eq!(plan.chunks.len(), 2);
        assert_eq!(plan.chunks[0].records, 3);
        assert_eq!(plan.chunks[1].records, 2);
        assert!(plan.chunks[0].path.as_ref().unwrap().exists());
        assert_eq!(plan.chunks[1].cache_key, "k#1");
        assert!(matches!(s.chunk_plan("nope"), Err(StoreError::MissingKey(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn read_encoded_returns_the_stored_chunks_through_the_ledger() {
        let root = temp_root("encoded");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        let mut rng = seeded_rng(5);
        append(&mut s, "k", &randn([3, 4], 1.0, &mut rng));
        append(&mut s, "k", &randn([2, 4], 1.0, &mut rng));
        let before = io.snapshot().total_read_bytes();
        let chunks = s.read_encoded("k").unwrap();
        assert_eq!(io.snapshot().total_read_bytes() - before, s.bytes("k"));
        assert_eq!(chunks.iter().map(|(records, _)| *records).collect::<Vec<_>>(), vec![3, 2]);
        let parts: Vec<Tensor> = chunks.iter().map(|(_, b)| ser::decode(b).unwrap()).collect();
        assert_eq!(Tensor::concat_outer(&parts).unwrap(), s.scan("k").unwrap().unwrap());
        // A modeled key has no bytes to return: it fails closed, unaccounted.
        s.append_modeled(&[("m".into(), vec![4], 2)]).unwrap();
        let before = io.snapshot();
        assert!(matches!(s.read_encoded("m"), Err(StoreError::NoPayload(_))));
        assert_eq!(io.snapshot(), before);
        assert!(s.holds_payload("k").unwrap() && !s.holds_payload("m").unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn modeled_chunks_are_ledger_entries_that_fail_closed_on_read() {
        let root = temp_root("modeled");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        let item = |records: usize| ("m".to_string(), vec![8, 32], records);
        // Exactly what `append_many` writes for such a batch: NTSR header
        // (magic, version, rank, three dims) plus the f32 payload.
        let size = |records: u64| 36 + records * 8 * 32 * 4;
        assert_eq!(s.append_modeled(&[item(4), item(2)]).unwrap(), vec![size(4), size(2)]);
        assert_eq!(size(4), ser::encode(&Tensor::zeros([4, 8, 32])).len() as u64);
        assert_eq!(s.num_records("m"), 6);
        assert_eq!(s.record_shape("m"), Some(Shape::new([8, 32])));
        assert_eq!(s.total_bytes(), size(6) + 36);
        let written = io.snapshot().disk_write_bytes;
        assert_eq!(written, size(6) + 36, "the ledger counts modeled writes");
        assert!(matches!(s.read_all("m"), Err(StoreError::NoPayload(_))));
        assert!(matches!(s.read_records("m", 0, 1), Err(StoreError::NoPayload(_))));
        assert!(s.chunk_plan("m").unwrap().chunks.iter().all(|c| c.path.is_none()));
        assert_eq!(io.snapshot().total_read_bytes(), 0, "failed reads count nothing");
        // A scan reads the modeled chunks through the ledger, without data.
        assert!(s.scan("m").unwrap().is_none());
        assert_eq!(io.snapshot().cached_read_bytes, size(6) + 36);
        let wrong = ("m".to_string(), vec![8], 1);
        assert!(matches!(s.append_modeled(&[wrong]), Err(StoreError::ShapeMismatch { .. })));
        // The manifest is the ledger: a reopened store sees the same entries.
        drop(s);
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        assert_eq!(s.num_records("m"), 6);
        assert_eq!(s.delete("m").unwrap(), size(6) + 36, "delete frees modeled bytes");
        assert_eq!(s.total_bytes(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn objects_replace_whole_and_share_the_ledger() {
        let root = temp_root("objects");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        let put =
            |s: &mut TensorStore, object| s.put_objects(vec![("ckpt".into(), object)]).unwrap();
        assert_eq!(put(&mut s, Object::Bytes(b"first".to_vec())), vec![5]);
        assert_eq!(put(&mut s, Object::Bytes(b"second!".to_vec())), vec![7]);
        let file = root.join(OBJECTS).join(format!("{}.bin", dir_for("ckpt")));
        assert_eq!(std::fs::read(file).unwrap(), b"second!");
        assert_eq!(s.bytes("ckpt"), 7, "a put replaces the object");
        assert_eq!(s.get_object("ckpt").unwrap().as_deref(), Some(&b"second!"[..]));
        let st = io.snapshot();
        assert_eq!((st.disk_write_bytes, st.cached_read_bytes, st.disk_read_bytes), (12, 7, 0));
        // A reopened store reads it cold from disk.
        drop(s);
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        assert_eq!(s.get_object("ckpt").unwrap().as_deref(), Some(&b"second!"[..]));
        assert_eq!(io.snapshot().disk_read_bytes, 7);
        // A modeled object is the same ledger entry without a payload.
        assert_eq!(put(&mut s, Object::Modeled(7)), vec![7]);
        assert_eq!(s.get_object("ckpt").unwrap(), None);
        assert_eq!(io.snapshot().cached_read_bytes, 7);
        assert!(matches!(s.get_object("nope"), Err(StoreError::MissingKey(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn modeled_and_payload_stores_keep_the_same_ledger() {
        let mut rng = seeded_rng(3);
        let batches = [randn([3, 4, 2], 1.0, &mut rng), randn([5, 4, 2], 1.0, &mut rng)];
        let run = |modeled: bool| {
            let root = temp_root(if modeled { "twin-m" } else { "twin-p" });
            let io = SharedIoStats::new();
            let mut s = TensorStore::open(&root, io.clone()).unwrap();
            s.set_page_cache_bytes(200); // one 3-record chunk fits, not both
            for b in &batches {
                if modeled {
                    s.append_modeled(&[("k".into(), vec![4, 2], b.shape().dim(0))]).unwrap();
                } else {
                    append(&mut s, "k", b);
                }
            }
            let object = b"checkpoint bytes".to_vec();
            let put = if modeled { Object::Modeled(16) } else { Object::Bytes(object) };
            s.put_objects(vec![("o".into(), put)]).unwrap();
            for _ in 0..2 {
                assert_eq!(s.scan("k").unwrap().is_some(), !modeled);
                assert_eq!(s.get_object("o").unwrap().is_some(), !modeled);
            }
            let manifest: Vec<_> =
                s.keys().into_iter().map(|k| (s.num_records(&k), s.bytes(&k), k)).collect();
            drop(s);
            std::fs::remove_dir_all(&root).unwrap();
            (manifest, io.snapshot())
        };
        assert_eq!(run(true), run(false));
    }
}
