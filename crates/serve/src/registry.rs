//! Many-model registry: tenant-keyed variants over shared frozen bases.
//!
//! The registry holds any number of published variants, each keyed by a
//! [`ModelId`] (tenant). Variants that share a frozen base — same
//! architecture, same frozen weights, per [`nautilus_dnn::base_signature`]
//! — hold the base weights **once** in an `Arc<BaseModel>`; per tenant the
//! registry keeps only the *delta* (trainable adapter/head tensors), and
//! structurally identical delta tensors are deduplicated through a
//! content-hash pool, so resident bytes scale with unique content rather
//! than tenant count.
//!
//! Publishing is an atomic per-tenant hot swap: requests that pinned the
//! previous `Arc<ModelArtifact>` keep using it untouched. Cold variants
//! LRU-evict their delta to a [`DeltaStore`](crate::deltastore::DeltaStore)
//! and fault back in transparently on the next [`ModelRegistry::get`].

use crate::deltastore::DeltaStore;
use nautilus_core::config::ServingConfig;
use nautilus_dnn::checkpoint;
use nautilus_dnn::delta::{
    apply_delta, base_signature, check_delta, extract_delta, strip_trainable, tensors_hash,
    DeltaEntry, GraphDelta,
};
use nautilus_dnn::exec::{ExecError, ParamOverrides};
use nautilus_dnn::quant::QuantizedModel;
use nautilus_dnn::{ModelGraph, NodeId};
use nautilus_tensor::Shape;
use nautilus_util::{eventlog, telemetry};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A validated tenant/variant identifier: 1–64 chars of
/// `[A-Za-z0-9._-]`, safe for URL paths and store filenames.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(String);

impl ModelId {
    /// Validates and wraps an identifier.
    pub fn new(s: impl Into<String>) -> Result<Self, RegistryError> {
        let s = s.into();
        let ok = !s.is_empty()
            && s.len() <= 64
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
            && !s.starts_with('.');
        if ok {
            Ok(ModelId(s))
        } else {
            Err(RegistryError::BadId(s))
        }
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The shared, trainable-stripped trunk of one model family: all frozen
/// weights, resident exactly once regardless of how many variants ride it.
#[derive(Debug)]
pub struct BaseModel {
    /// [`base_signature`] of the stripped graph — the pairing key.
    pub sig: u64,
    /// The graph with frozen params present and trainable params empty.
    pub graph: ModelGraph,
    /// The graph's single input placeholder.
    pub input: NodeId,
    /// The graph's single output head.
    pub output: NodeId,
    /// Per-record input shape (no batch axis).
    pub record_shape: Shape,
    /// Elements in one input record.
    pub record_elems: usize,
    /// Resident frozen parameter bytes.
    pub frozen_bytes: usize,
    /// Lazily built int8 form of the frozen dense trunk (see
    /// [`BaseModel::frozen_quant`]).
    frozen_quant: std::sync::OnceLock<Arc<QuantizedModel>>,
}

impl BaseModel {
    /// The int8 serving form of the frozen dense trunk: quantized once
    /// per base on first quantized publish, then shared (`Arc`) by every
    /// tenant of the family — the compute analogue of the base's
    /// one-resident-copy weight sharing.
    pub fn frozen_quant(&self) -> Result<Arc<QuantizedModel>, ExecError> {
        if let Some(q) = self.frozen_quant.get() {
            return Ok(Arc::clone(q));
        }
        let rg = self.graph.requires_grad();
        let q = QuantizedModel::from_graph_where(&self.graph, None, |id| !rg[id.index()])?;
        // A racing first build loses to the stored one: every tenant shares it.
        Ok(Arc::clone(self.frozen_quant.get_or_init(|| Arc::new(q))))
    }
}

/// One published, servable variant: a pinned base plus its delta.
#[derive(Debug)]
pub struct ModelArtifact {
    /// The tenant this variant answers for.
    pub id: ModelId,
    /// Per-tenant version, monotonic from 1 across publishes *and*
    /// evict/fault-in cycles of that tenant.
    pub version: u64,
    /// The shared base (Arc: one resident copy per model family).
    pub base: Arc<BaseModel>,
    /// Trainable tensors keyed by node, deduplicated across tenants.
    pub overrides: ParamOverrides,
    /// Logical delta bytes (before dedup).
    pub delta_bytes: usize,
    /// Per-record input shape (mirrors the base, kept here so request
    /// paths don't chase the extra pointer).
    pub record_shape: Shape,
    /// Elements in one input record.
    pub record_elems: usize,
    /// The base graph's input placeholder.
    pub input: NodeId,
    /// The base graph's output head.
    pub output: NodeId,
    /// int8 serving form (frozen trunk + this tenant's quantized head)
    /// when the variant was published with `quantize_int8`; `None` serves
    /// the ordinary f32 path.
    pub quant: Option<Arc<QuantizedModel>>,
}

impl ModelArtifact {
    /// Reconstructs the standalone full graph (base + delta) — the exact
    /// model solo serving would run. Used by tests and export paths; the
    /// hot path never materializes it.
    pub fn full_graph(&self) -> ModelGraph {
        let entries = self
            .overrides
            .iter()
            .map(|(id, params)| DeltaEntry { node: id.index(), params: params.as_ref().clone() })
            .collect::<Vec<_>>();
        let mut entries = entries;
        entries.sort_by_key(|e| e.node);
        let delta = GraphDelta { base_sig: self.base.sig, entries };
        apply_delta(&self.base.graph, &delta).expect("artifact delta matches its base")
    }
}

/// Registry errors.
#[derive(Debug)]
pub enum RegistryError {
    /// The graph is not servable (wrong number of inputs/outputs, or
    /// trainable params missing).
    Unservable(String),
    /// Loading a checkpoint failed.
    Checkpoint(String),
    /// The id is not a valid [`ModelId`].
    BadId(String),
    /// No variant published under this id.
    UnknownModel(String),
    /// Eviction requested but no delta store is configured.
    NoStore,
    /// The delta store failed (IO, corruption).
    Store(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Unservable(m) => write!(f, "unservable model: {m}"),
            RegistryError::Checkpoint(m) => write!(f, "registry checkpoint: {m}"),
            RegistryError::BadId(m) => write!(f, "invalid model id '{m}'"),
            RegistryError::UnknownModel(m) => write!(f, "no model published under '{m}'"),
            RegistryError::NoStore => write!(f, "no delta store configured for eviction"),
            RegistryError::Store(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One entry in the content-hash delta pool. `refs` counts resident
/// artifacts sharing the tensors; the entry drops at zero.
#[derive(Debug)]
struct PoolEntry {
    params: Arc<Vec<Tensorish>>,
    refs: usize,
    bytes: usize,
}

type Tensorish = nautilus_tensor::Tensor;

/// Dedup pool: content hash -> bucket of distinct tensor lists. Buckets
/// verify real equality on hash hits, so collisions degrade to separate
/// storage instead of silent weight sharing.
#[derive(Debug, Default)]
struct DeltaPool {
    buckets: HashMap<u64, Vec<PoolEntry>>,
    stored_bytes: usize,
}

impl DeltaPool {
    fn intern(&mut self, params: Vec<Tensorish>) -> (u64, Arc<Vec<Tensorish>>, usize) {
        let hash = tensors_hash(&params);
        let bytes: usize = params.iter().map(|t| t.shape().num_bytes()).sum();
        let bucket = self.buckets.entry(hash).or_default();
        for e in bucket.iter_mut() {
            if *e.params == params {
                e.refs += 1;
                return (hash, Arc::clone(&e.params), bytes);
            }
        }
        let arc = Arc::new(params);
        bucket.push(PoolEntry { params: Arc::clone(&arc), refs: 1, bytes });
        self.stored_bytes += bytes;
        (hash, arc, bytes)
    }

    fn release(&mut self, hash: u64, params: &Arc<Vec<Tensorish>>) {
        if let Some(bucket) = self.buckets.get_mut(&hash) {
            if let Some(i) = bucket.iter().position(|e| Arc::ptr_eq(&e.params, params)) {
                bucket[i].refs -= 1;
                if bucket[i].refs == 0 {
                    self.stored_bytes -= bucket[i].bytes;
                    bucket.swap_remove(i);
                }
            }
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
        }
    }

    fn unique_entries(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

/// The pool entries one artifact holds: content hash plus shared tensors.
type PoolKeys = Vec<(u64, Arc<Vec<Tensorish>>)>;

/// Where a known variant currently lives.
#[derive(Debug)]
enum VariantState {
    /// In memory, ready to serve.
    Resident {
        artifact: Arc<ModelArtifact>,
        /// Pool keys held by this artifact (released on evict/replace).
        pool_keys: PoolKeys,
    },
    /// Delta persisted in the store; base stays resident for fault-in.
    Evicted {
        base_sig: u64,
    },
}

#[derive(Debug)]
struct VariantSlot {
    version: u64,
    state: VariantState,
    /// LRU clock value of the last `get`.
    last_used: u64,
    delta_bytes: usize,
    /// Whether this tenant was published with int8 quantization; sticky
    /// across evict/fault-in so the rebuilt artifact serves identically.
    quantize: bool,
}

#[derive(Debug, Default)]
struct Inner {
    bases: HashMap<u64, Arc<BaseModel>>,
    variants: HashMap<ModelId, VariantSlot>,
    pool: DeltaPool,
    evictions: u64,
    fault_ins: u64,
}

/// Summary row for [`ModelRegistry::list`].
#[derive(Debug, Clone)]
pub struct ModelSummary {
    /// Tenant id.
    pub id: ModelId,
    /// Per-tenant version.
    pub version: u64,
    /// Whether the delta is resident (vs evicted to the store).
    pub resident: bool,
    /// Logical delta bytes.
    pub delta_bytes: usize,
    /// Base pairing signature.
    pub base_sig: u64,
}

/// Registry-wide accounting for `/stats` and the dedup gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryStats {
    /// Variants resident in memory.
    pub resident_variants: usize,
    /// Variants evicted to the delta store.
    pub evicted_variants: usize,
    /// Distinct resident bases.
    pub bases: usize,
    /// Bytes if every resident variant stored its full model standalone.
    pub bytes_logical: u64,
    /// Bytes actually resident: each base once + unique delta entries.
    pub bytes_stored: u64,
    /// Unique delta entries in the dedup pool.
    pub unique_delta_entries: usize,
    /// Lifetime evictions.
    pub evictions: u64,
    /// Lifetime fault-ins from the delta store.
    pub fault_ins: u64,
}

impl RegistryStats {
    /// Logical-over-stored bytes: how many standalone copies one resident
    /// footprint stands in for. 1.0 when nothing is shared.
    pub fn dedup_ratio(&self) -> f64 {
        if self.bytes_stored == 0 {
            return 1.0;
        }
        self.bytes_logical as f64 / self.bytes_stored as f64
    }
}

/// Per-publish knobs beyond the graph itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PublishOptions {
    /// Serve this variant through the int8 row-quantized path: dense
    /// weights are quantized once at publish (per-row symmetric scales)
    /// and inference accumulates in i32. The frozen trunk's quantized form
    /// is built once per base and shared across tenants.
    pub quantize_int8: bool,
}

/// A tenant-keyed model store shared by the server's threads.
#[derive(Debug)]
pub struct ModelRegistry {
    inner: Mutex<Inner>,
    clock: AtomicU64,
    max_resident: usize,
    store: Option<DeltaStore>,
    default_id: ModelId,
    default_quantize: bool,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry with default policy: no delta store (eviction
    /// disabled) and default tenant `"default"`.
    pub fn new() -> Self {
        ModelRegistry {
            inner: Mutex::new(Inner::default()),
            clock: AtomicU64::new(1),
            max_resident: usize::MAX,
            store: None,
            default_id: ModelId("default".to_string()),
            default_quantize: false,
        }
    }

    /// A registry configured from [`ServingConfig`]: residency cap,
    /// delta store directory, and default tenant.
    pub fn with_config(cfg: &ServingConfig) -> Result<Self, RegistryError> {
        let store = match &cfg.delta_store_dir {
            Some(dir) => {
                Some(DeltaStore::open(dir).map_err(|e| RegistryError::Store(e.to_string()))?)
            }
            None => None,
        };
        Ok(ModelRegistry {
            inner: Mutex::new(Inner::default()),
            clock: AtomicU64::new(1),
            max_resident: cfg.max_resident_variants.max(1),
            store,
            default_id: ModelId::new(cfg.default_tenant.clone())?,
            default_quantize: cfg.quantize_int8,
        })
    }

    /// The tenant served by un-suffixed routes.
    pub fn default_id(&self) -> &ModelId {
        &self.default_id
    }

    /// The residency cap (`usize::MAX` when eviction is disabled).
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Whether the delta store accepts writes; `None` when no store is
    /// configured (eviction disabled, which is healthy by definition).
    pub fn store_writable(&self) -> Option<bool> {
        self.store.as_ref().map(|s| s.writable())
    }

    /// Refreshes the registry-owned gauges (resident variants, bytes the
    /// delta store has persisted) after a mutation. `inner` must be held.
    fn refresh_gauges(&self, inner: &Inner) {
        if !telemetry::metrics_enabled() {
            return;
        }
        let resident = inner
            .variants
            .values()
            .filter(|s| matches!(s.state, VariantState::Resident { .. }))
            .count();
        telemetry::SERVE_RESIDENT_VARIANTS.set(resident as i64);
        if let Some(store) = &self.store {
            telemetry::SERVE_DELTA_STORE_BYTES.set(store.counters().2 as i64);
        }
    }

    /// Interns one tenant's delta entries through the dedup pool as its
    /// overrides, plus its int8 serving form when `quantize`: the base's
    /// shared quantized trunk merged with this tenant's freshly quantized
    /// head (the nodes its delta overrides). A failed quantization leaves
    /// nothing interned.
    fn intern(
        inner: &mut Inner,
        base: &BaseModel,
        entries: Vec<DeltaEntry>,
        quantize: bool,
    ) -> Result<(ParamOverrides, PoolKeys, Option<Arc<QuantizedModel>>), ExecError> {
        let mut overrides: ParamOverrides = HashMap::with_capacity(entries.len());
        let mut pool_keys = Vec::with_capacity(entries.len());
        for e in entries {
            let (hash, arc, _) = inner.pool.intern(e.params);
            overrides.insert(NodeId(e.node), Arc::clone(&arc));
            pool_keys.push((hash, arc));
        }
        let quant = || -> Result<_, ExecError> {
            let head = QuantizedModel::from_graph_where(&base.graph, Some(&overrides), |id| {
                overrides.contains_key(&id)
            })?;
            Ok(Arc::new(base.frozen_quant()?.merged_with(&head)))
        };
        match quantize.then(quant).transpose() {
            Ok(quant) => Ok((overrides, pool_keys, quant)),
            Err(e) => {
                for (h, arc) in &pool_keys {
                    inner.pool.release(*h, arc);
                }
                Err(e)
            }
        }
    }

    fn validate(graph: &ModelGraph) -> Result<(NodeId, NodeId, Shape), RegistryError> {
        let inputs = graph.input_ids();
        if inputs.len() != 1 {
            return Err(RegistryError::Unservable(format!(
                "expected 1 input placeholder, found {}",
                inputs.len()
            )));
        }
        let outputs = graph.outputs();
        if outputs.len() != 1 {
            return Err(RegistryError::Unservable(format!(
                "expected 1 output head, found {}",
                outputs.len()
            )));
        }
        let record_shape = graph.shape(inputs[0]).clone();
        if record_shape.num_elements() == 0 {
            return Err(RegistryError::Unservable("empty input shape".into()));
        }
        Ok((inputs[0], outputs[0], record_shape))
    }

    /// Publishes `graph` as tenant `id`'s new variant, returning the
    /// tenant's new version.
    ///
    /// The graph is split on the spot: its frozen weights either join an
    /// existing resident base (when the [`base_signature`] matches — the
    /// incoming copy is dropped and the shared `Arc` reused) or become a
    /// new base; its trainable tensors are interned through the dedup
    /// pool. The per-tenant swap is atomic; in-flight requests holding the
    /// previous artifact are unaffected.
    pub fn publish(&self, id: &str, graph: ModelGraph) -> Result<u64, RegistryError> {
        self.publish_with(id, graph, PublishOptions { quantize_int8: self.default_quantize })
    }

    /// [`publish`](Self::publish) with explicit [`PublishOptions`] instead
    /// of the registry-wide defaults.
    pub fn publish_with(
        &self,
        id: &str,
        graph: ModelGraph,
        opts: PublishOptions,
    ) -> Result<u64, RegistryError> {
        let id = ModelId::new(id)?;
        let (input, output, record_shape) = Self::validate(&graph)?;
        let delta = extract_delta(&graph)
            .map_err(|e| RegistryError::Unservable(e.to_string()))?;
        let record_elems = record_shape.num_elements();

        let mut inner = self.inner.lock().expect("registry lock");
        let base = match inner.bases.get(&delta.base_sig) {
            Some(b) => Arc::clone(b),
            None => {
                let stripped = strip_trainable(&graph);
                debug_assert_eq!(base_signature(&stripped), delta.base_sig);
                let frozen_bytes = stripped.params_bytes();
                let b = Arc::new(BaseModel {
                    sig: delta.base_sig,
                    graph: stripped,
                    input,
                    output,
                    record_shape: record_shape.clone(),
                    record_elems,
                    frozen_bytes,
                    frozen_quant: std::sync::OnceLock::new(),
                });
                inner.bases.insert(delta.base_sig, Arc::clone(&b));
                b
            }
        };
        drop(graph);

        let delta_bytes = delta.bytes();
        let (overrides, pool_keys, quant) =
            Self::intern(&mut inner, &base, delta.entries, opts.quantize_int8)
                .map_err(|e| RegistryError::Unservable(e.to_string()))?;

        let version = inner.variants.get(&id).map_or(1, |s| s.version + 1);
        let artifact = Arc::new(ModelArtifact {
            id: id.clone(),
            version,
            base,
            overrides,
            delta_bytes,
            record_shape,
            record_elems,
            input,
            output,
            quant,
        });
        let slot = VariantSlot {
            version,
            state: VariantState::Resident { artifact, pool_keys },
            last_used: self.clock.fetch_add(1, Ordering::Relaxed),
            delta_bytes,
            quantize: opts.quantize_int8,
        };
        let tenant = id.0.clone();
        if let Some(old) = inner.variants.insert(id, slot) {
            if let VariantState::Resident { pool_keys, .. } = old.state {
                for (h, arc) in &pool_keys {
                    inner.pool.release(*h, arc);
                }
            }
        }
        self.enforce_capacity(&mut inner)?;
        self.refresh_gauges(&inner);
        eventlog::info(
            "serve.publish",
            &[
                ("tenant", eventlog::Value::Str(&tenant)),
                ("version", eventlog::Value::U64(version)),
                ("delta_bytes", eventlog::Value::U64(delta_bytes as u64)),
            ],
        );
        Ok(version)
    }

    /// Loads a full-model checkpoint from `path` and publishes it for `id`.
    pub fn publish_from_checkpoint(&self, id: &str, path: &Path) -> Result<u64, RegistryError> {
        let (graph, _) =
            checkpoint::load(path).map_err(|e| RegistryError::Checkpoint(e.to_string()))?;
        self.publish(id, graph)
    }

    /// The pinned artifact for `id`, faulting its delta in from the store
    /// if it was evicted. Callers keep the `Arc` for the whole request, so
    /// later publishes or evictions cannot tear an in-flight prediction.
    pub fn get(&self, id: &str) -> Result<Arc<ModelArtifact>, RegistryError> {
        let id = ModelId::new(id)?;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("registry lock");
        let slot =
            inner.variants.get_mut(&id).ok_or_else(|| RegistryError::UnknownModel(id.0.clone()))?;
        slot.last_used = tick;
        if let VariantState::Resident { artifact, .. } = &slot.state {
            return Ok(Arc::clone(artifact));
        }
        self.fault_in(&mut inner, &id)
    }

    /// Loads an evicted variant's delta back from the store and makes it
    /// resident (possibly LRU-evicting another variant to stay in budget).
    fn fault_in(
        &self,
        inner: &mut Inner,
        id: &ModelId,
    ) -> Result<Arc<ModelArtifact>, RegistryError> {
        let _sp = telemetry::span("serve", "serve.fault_in");
        let store = self.store.as_ref().ok_or(RegistryError::NoStore)?;
        let (version, delta) =
            store.get(id.as_str()).map_err(|e| RegistryError::Store(e.to_string()))?;
        let slot = inner.variants.get(id).expect("caller checked");
        let quantize = slot.quantize;
        let base_sig = match &slot.state {
            VariantState::Evicted { base_sig } => *base_sig,
            VariantState::Resident { artifact, .. } => return Ok(Arc::clone(artifact)),
        };
        if delta.base_sig != base_sig {
            return Err(RegistryError::Store(format!(
                "stored delta for '{id}' pairs with base {:#x}, registry has {base_sig:#x}",
                delta.base_sig
            )));
        }
        let base = inner
            .bases
            .get(&base_sig)
            .map(Arc::clone)
            .ok_or_else(|| RegistryError::Store(format!("base {base_sig:#x} no longer resident")))?;
        // The blobs verified their hashes; the manifest's node list must
        // still cover the base, or the first forward would find a
        // trainable node without params.
        check_delta(&base.graph, &delta)
            .map_err(|e| RegistryError::Store(format!("stored delta for '{id}': {e}")))?;

        let delta_bytes = delta.bytes();
        let (overrides, pool_keys, quant) = Self::intern(inner, &base, delta.entries, quantize)
            .map_err(|e| RegistryError::Store(format!("stored delta for '{id}': {e}")))?;
        let artifact = Arc::new(ModelArtifact {
            id: id.clone(),
            version,
            base: Arc::clone(&base),
            overrides,
            delta_bytes,
            record_shape: base.record_shape.clone(),
            record_elems: base.record_elems,
            input: base.input,
            output: base.output,
            quant,
        });
        let slot = inner.variants.get_mut(id).expect("caller checked");
        slot.state =
            VariantState::Resident { artifact: Arc::clone(&artifact), pool_keys };
        slot.delta_bytes = delta_bytes;
        slot.version = version;
        inner.fault_ins += 1;
        telemetry::SERVE_FAULT_INS.add(1);
        self.enforce_capacity(inner)?;
        self.refresh_gauges(inner);
        eventlog::info(
            "serve.fault_in",
            &[
                ("tenant", eventlog::Value::Str(id.as_str())),
                ("version", eventlog::Value::U64(version)),
                ("delta_bytes", eventlog::Value::U64(delta_bytes as u64)),
            ],
        );
        Ok(artifact)
    }

    /// Evicts `id`'s delta to the store, freeing its resident tensors
    /// (modulo sharing). The base stays resident for cheap fault-in.
    pub fn evict(&self, id: &str) -> Result<(), RegistryError> {
        let id = ModelId::new(id)?;
        let mut inner = self.inner.lock().expect("registry lock");
        self.evict_locked(&mut inner, &id)
    }

    fn evict_locked(&self, inner: &mut Inner, id: &ModelId) -> Result<(), RegistryError> {
        let _sp = telemetry::span("serve", "serve.evict");
        let store = self.store.as_ref().ok_or(RegistryError::NoStore)?;
        let slot =
            inner.variants.get(id).ok_or_else(|| RegistryError::UnknownModel(id.0.clone()))?;
        let (artifact, pool_keys) = match &slot.state {
            VariantState::Resident { artifact, pool_keys } => {
                (Arc::clone(artifact), pool_keys.clone())
            }
            VariantState::Evicted { .. } => return Ok(()),
        };
        let mut entries: Vec<DeltaEntry> = artifact
            .overrides
            .iter()
            .map(|(nid, params)| DeltaEntry { node: nid.index(), params: params.as_ref().clone() })
            .collect();
        entries.sort_by_key(|e| e.node);
        let delta = GraphDelta { base_sig: artifact.base.sig, entries };
        store
            .put(id.as_str(), artifact.version, &delta)
            .map_err(|e| RegistryError::Store(e.to_string()))?;
        for (h, arc) in &pool_keys {
            inner.pool.release(*h, arc);
        }
        let slot = inner.variants.get_mut(id).expect("checked above");
        slot.state = VariantState::Evicted { base_sig: artifact.base.sig };
        inner.evictions += 1;
        telemetry::SERVE_EVICTIONS.add(1);
        self.refresh_gauges(inner);
        eventlog::info(
            "serve.evict",
            &[
                ("tenant", eventlog::Value::Str(id.as_str())),
                ("version", eventlog::Value::U64(artifact.version)),
                ("delta_bytes", eventlog::Value::U64(artifact.delta_bytes as u64)),
            ],
        );
        Ok(())
    }

    /// While over the residency cap, evict the least-recently-used
    /// resident variant. No-op when no store is configured.
    fn enforce_capacity(&self, inner: &mut Inner) -> Result<(), RegistryError> {
        if self.store.is_none() {
            return Ok(());
        }
        loop {
            let resident = inner
                .variants
                .iter()
                .filter(|(_, s)| matches!(s.state, VariantState::Resident { .. }))
                .count();
            if resident <= self.max_resident {
                return Ok(());
            }
            let coldest = inner
                .variants
                .iter()
                .filter(|(_, s)| matches!(s.state, VariantState::Resident { .. }))
                .min_by_key(|(_, s)| s.last_used)
                .map(|(id, _)| id.clone())
                .expect("resident > 0");
            self.evict_locked(inner, &coldest)?;
        }
    }

    /// All known variants (resident and evicted), sorted by id.
    pub fn list(&self) -> Vec<ModelSummary> {
        let inner = self.inner.lock().expect("registry lock");
        let mut rows: Vec<ModelSummary> = inner
            .variants
            .iter()
            .map(|(id, s)| {
                let (resident, base_sig) = match &s.state {
                    VariantState::Resident { artifact, .. } => (true, artifact.base.sig),
                    VariantState::Evicted { base_sig } => (false, *base_sig),
                };
                ModelSummary {
                    id: id.clone(),
                    version: s.version,
                    resident,
                    delta_bytes: s.delta_bytes,
                    base_sig,
                }
            })
            .collect();
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        rows
    }

    /// Registry-wide accounting (dedup ratio inputs, eviction counters).
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry lock");
        let mut st = RegistryStats {
            bases: inner.bases.len(),
            unique_delta_entries: inner.pool.unique_entries(),
            evictions: inner.evictions,
            fault_ins: inner.fault_ins,
            ..RegistryStats::default()
        };
        let mut stored_bases = 0u64;
        for b in inner.bases.values() {
            stored_bases += b.frozen_bytes as u64;
        }
        for s in inner.variants.values() {
            match &s.state {
                VariantState::Resident { artifact, .. } => {
                    st.resident_variants += 1;
                    st.bytes_logical +=
                        (artifact.base.frozen_bytes + artifact.delta_bytes) as u64;
                }
                VariantState::Evicted { .. } => st.evicted_variants += 1,
            }
        }
        st.bytes_stored = stored_bases + inner.pool.stored_bytes as u64;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::{Activation, LayerKind};
    use nautilus_tensor::init::seeded_rng;

    /// Frozen trunk (seed-stable) + per-tenant trainable head.
    fn variant_graph(tenant_seed: u64) -> ModelGraph {
        let mut frozen_rng = seeded_rng(40);
        let mut rng = seeded_rng(tenant_seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [6]);
        let trunk = g
            .add_layer(
                "trunk",
                LayerKind::Dense { in_dim: 6, out_dim: 6, act: Activation::Relu },
                &[inp],
                true,
                ParamInit::Seeded(&mut frozen_rng),
            )
            .unwrap();
        let d = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim: 6, out_dim: 3, act: Activation::None },
                &[trunk],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(d).unwrap();
        g
    }

    fn store_cfg(tag: &str, max_resident: usize) -> ServingConfig {
        let dir = std::env::temp_dir()
            .join(format!("nautilus-reg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ServingConfig {
            max_resident_variants: max_resident,
            delta_store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServingConfig::default()
        }
    }

    #[test]
    fn publish_get_and_per_tenant_versions() {
        let reg = ModelRegistry::new();
        assert!(matches!(reg.get("a"), Err(RegistryError::UnknownModel(_))));
        assert_eq!(reg.publish("a", variant_graph(1)).unwrap(), 1);
        assert_eq!(reg.publish("b", variant_graph(2)).unwrap(), 1);
        assert_eq!(reg.publish("a", variant_graph(3)).unwrap(), 2);
        let a = reg.get("a").unwrap();
        assert_eq!(a.version, 2);
        assert_eq!(a.record_elems, 6);
        assert_eq!(reg.list().len(), 2);
        assert!(matches!(reg.get("no/slash"), Err(RegistryError::BadId(_))));
    }

    #[test]
    fn variants_share_one_resident_base() {
        let reg = ModelRegistry::new();
        for i in 0..4u64 {
            reg.publish(&format!("t{i}"), variant_graph(100 + i)).unwrap();
        }
        let arts: Vec<_> = (0..4).map(|i| reg.get(&format!("t{i}")).unwrap()).collect();
        for a in &arts[1..] {
            assert!(Arc::ptr_eq(&arts[0].base, &a.base), "bases must be one Arc");
        }
        let st = reg.stats();
        assert_eq!(st.bases, 1);
        assert_eq!(st.resident_variants, 4);
        // Stored = one base + 4 distinct heads; logical = 4 full models.
        let frozen = arts[0].base.frozen_bytes as u64;
        let head = arts[0].delta_bytes as u64;
        assert_eq!(st.bytes_stored, frozen + 4 * head);
        assert_eq!(st.bytes_logical, 4 * (frozen + head));
        assert!(st.dedup_ratio() > 1.0);
    }

    #[test]
    fn identical_deltas_are_pooled() {
        let reg = ModelRegistry::new();
        reg.publish("a", variant_graph(9)).unwrap();
        reg.publish("b", variant_graph(9)).unwrap();
        let (a, b) = (reg.get("a").unwrap(), reg.get("b").unwrap());
        let (na, pa) = a.overrides.iter().next().unwrap();
        let pb = &b.overrides[na];
        assert!(Arc::ptr_eq(pa, pb), "identical delta tensors must share one Arc");
        let st = reg.stats();
        assert_eq!(st.unique_delta_entries, 1);
        let frozen = a.base.frozen_bytes as u64;
        let head = a.delta_bytes as u64;
        assert_eq!(st.bytes_stored, frozen + head);
        assert_eq!(st.bytes_logical, 2 * (frozen + head));
    }

    #[test]
    fn evict_and_fault_in_round_trip() {
        let cfg = store_cfg("evict", 8);
        let reg = ModelRegistry::with_config(&cfg).unwrap();
        reg.publish("cold", variant_graph(5)).unwrap();
        let before = reg.get("cold").unwrap();
        reg.evict("cold").unwrap();
        assert!(!reg.list()[0].resident);
        assert_eq!(reg.stats().evictions, 1);
        // Pinned Arc still works after eviction.
        assert_eq!(before.version, 1);
        let back = reg.get("cold").unwrap();
        assert_eq!(back.version, 1);
        assert!(reg.list()[0].resident);
        assert_eq!(reg.stats().fault_ins, 1);
        for (nid, params) in &before.overrides {
            assert_eq!(back.overrides[nid].as_ref(), params.as_ref());
        }
        let _ = std::fs::remove_dir_all(cfg.delta_store_dir.as_deref().unwrap());
    }

    #[test]
    fn lru_capacity_evicts_coldest() {
        let cfg = store_cfg("lru", 2);
        let reg = ModelRegistry::with_config(&cfg).unwrap();
        reg.publish("a", variant_graph(1)).unwrap();
        reg.publish("b", variant_graph(2)).unwrap();
        // Touch "a" so "b" is coldest when "c" arrives.
        reg.get("a").unwrap();
        reg.publish("c", variant_graph(3)).unwrap();
        let rows = reg.list();
        let by_id = |id: &str| rows.iter().find(|r| r.id.as_str() == id).unwrap();
        assert!(by_id("a").resident);
        assert!(!by_id("b").resident, "LRU variant must be evicted");
        assert!(by_id("c").resident);
        // Faulting "b" back in pushes the now-coldest out.
        reg.get("b").unwrap();
        let resident: usize = reg.list().iter().filter(|r| r.resident).count();
        assert_eq!(resident, 2);
        let _ = std::fs::remove_dir_all(cfg.delta_store_dir.as_deref().unwrap());
    }

    #[test]
    fn evict_without_store_fails() {
        let reg = ModelRegistry::new();
        reg.publish("a", variant_graph(1)).unwrap();
        assert!(matches!(reg.evict("a"), Err(RegistryError::NoStore)));
    }

    #[test]
    fn full_graph_reconstructs_the_published_model() {
        let reg = ModelRegistry::new();
        let g = variant_graph(77);
        reg.publish("t", g.clone()).unwrap();
        let full = reg.get("t").unwrap().full_graph();
        for (a, b) in g.nodes().iter().zip(full.nodes()) {
            assert_eq!(a.params, b.params);
        }
        assert_eq!(g.expr_signatures(), full.expr_signatures());
    }

    #[test]
    fn publish_rejects_multi_output_graphs() {
        let mut rng = seeded_rng(3);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        for name in ["a", "b"] {
            let d = g
                .add_layer(
                    name,
                    LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
                    &[inp],
                    false,
                    ParamInit::Seeded(&mut rng),
                )
                .unwrap();
            g.add_output(d).unwrap();
        }
        let err = ModelRegistry::new().publish("x", g).unwrap_err();
        assert!(matches!(err, RegistryError::Unservable(_)));
    }

    #[test]
    fn hot_swap_leaves_pinned_artifact_intact() {
        let reg = ModelRegistry::new();
        reg.publish("t", variant_graph(10)).unwrap();
        let pinned = reg.get("t").unwrap();
        reg.publish("t", variant_graph(11)).unwrap();
        assert_eq!(pinned.version, 1);
        assert_eq!(reg.get("t").unwrap().version, 2);
    }

    #[test]
    fn checkpoint_round_trip_publishes() {
        let g = variant_graph(20);
        let dir =
            std::env::temp_dir().join(format!("nautilus-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        checkpoint::save(&g, &path).unwrap();
        let reg = ModelRegistry::new();
        let v = reg.publish_from_checkpoint("demo", &path).unwrap();
        assert_eq!(v, 1);
        assert_eq!(reg.get("demo").unwrap().record_shape.num_elements(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
