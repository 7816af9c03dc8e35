//! Dynamic micro-batching: fuse concurrent prediction requests into one
//! forward pass — across tenants.
//!
//! Requests enqueue a record and block on a reply channel; a single
//! batcher thread takes up to `max_batch` queued records and runs them.
//! The door is work-conserving: a batch is dispatched as soon as it is
//! full, or *no announced request is still on its way*, or `max_delay_us`
//! have passed since its first record was enqueued — the delay is a cap
//! on waiting for requests known to be coming, never a fixed wait. A
//! request is announced by taking a [`Ticket`] ([`MicroBatcher::announce`];
//! the server does so before decoding the body, [`MicroBatcher::predict`]
//! on entry, so the ticket spans the registry lookup and a delta-store
//! fault-in) and stops counting when it is enqueued or fails early.
//! Batches otherwise form from whatever queued while the previous forward
//! ran. Records run grouped by *trunk*: all records whose variants ride
//! the same frozen base at the same precision (f32, or int8 over the
//! base's one quantized trunk) share **one** trunk forward over the union
//! batch ([`forward_batch_shared_trunk`]), then each tenant's adapter/head
//! suffix runs on its own row slice — the serving dual of the paper's
//! FUSE optimization. Each request is pinned at submit time to the
//! artifact it was shape-validated against, so a hot swap never tears an
//! in-flight request. A record's result is **bit-identical** whether it
//! rode alone, in a single-tenant batch, or in a shared-trunk batch with
//! other tenants: f32 products obey the summation contract (no kernel
//! choice changes a bit), and int8 rows quantize against their own scales
//! and accumulate in exact integers — batching is purely a throughput
//! optimization, never a numerics change.

use crate::registry::{BaseModel, ModelArtifact, ModelRegistry, RegistryError};
use nautilus_core::config::ServingConfig;
use nautilus_dnn::exec::{forward_batch_shared_trunk, TrunkGroup};
use nautilus_tensor::Tensor;
use nautilus_util::telemetry;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One answered prediction.
#[derive(Debug, Clone)]
pub struct PredictOutput {
    /// Tenant that answered.
    pub model_id: String,
    /// Per-tenant version of the model that answered.
    pub version: u64,
    /// Records of *this tenant* fused into the suffix pass (diagnostics).
    pub batch_size: usize,
    /// Records across all tenants that shared this record's trunk forward
    /// (same base, same precision).
    pub trunk_batch: usize,
    /// Output head values for this record.
    pub values: Vec<f32>,
}

/// Why a prediction failed.
#[derive(Debug, Clone)]
pub enum PredictError {
    /// No variant published under the requested id.
    UnknownModel(String),
    /// Record length does not match the model's input shape.
    BadShape {
        /// Elements received.
        got: usize,
        /// Elements the model expects.
        want: usize,
    },
    /// The registry failed to produce the artifact (bad id, store IO).
    Registry(String),
    /// Forward execution failed.
    Exec(String),
    /// The batcher shut down before answering.
    Shutdown,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::UnknownModel(id) => write!(f, "no model published under '{id}'"),
            PredictError::BadShape { got, want } => {
                write!(f, "record has {got} elements, model expects {want}")
            }
            PredictError::Registry(m) => write!(f, "registry: {m}"),
            PredictError::Exec(m) => write!(f, "forward failed: {m}"),
            PredictError::Shutdown => write!(f, "server shutting down"),
        }
    }
}

struct Pending {
    record: Vec<f32>,
    /// The artifact this record was shape-validated against in
    /// [`MicroBatcher::predict`]. The batch runs against this exact
    /// variant: a hot swap between validation and execution must neither
    /// fail the request (new shape ≠ validated shape) nor answer it with
    /// a model it was never validated for.
    artifact: Arc<ModelArtifact>,
    reply: mpsc::Sender<Result<PredictOutput, PredictError>>,
    /// When the record entered the queue; the door's cap runs from the
    /// oldest queued record.
    enqueued: Instant,
}

struct State {
    queue: Vec<Pending>,
    /// Live [`Ticket`]s: requests announced and not yet enqueued or failed.
    announced: usize,
    shutdown: bool,
}

/// A request on its way to the queue. While any ticket is live the batcher
/// holds a partial batch (up to `max_delay_us`); dropping it — at enqueue,
/// or on any early return — releases the door.
pub struct Ticket<'a> {
    inner: &'a Inner,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().expect("batcher lock");
        st.announced -= 1;
        let release = st.announced == 0 && !st.queue.is_empty();
        drop(st);
        if release {
            self.inner.cv.notify_all();
        }
    }
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    registry: Arc<ModelRegistry>,
    max_batch: usize,
    max_delay: Duration,
}

/// The micro-batcher: a queue plus one worker thread.
pub struct MicroBatcher {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Starts the batcher thread against `registry`.
    pub fn start(registry: Arc<ModelRegistry>, cfg: &ServingConfig) -> MicroBatcher {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { queue: Vec::new(), announced: 0, shutdown: false }),
            cv: Condvar::new(),
            registry,
            max_batch: cfg.max_batch.max(1),
            max_delay: Duration::from_micros(cfg.max_delay_us),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("nautilus-serve-batcher".into())
            .spawn(move || batcher_loop(&worker_inner))
            .expect("spawn batcher thread");
        MicroBatcher { inner, worker: Some(worker) }
    }

    /// Announces a request that will reach [`MicroBatcher::predict_announced`]
    /// shortly, so a batch forming meanwhile waits for it.
    pub fn announce(&self) -> Ticket<'_> {
        self.inner.state.lock().expect("batcher lock").announced += 1;
        Ticket { inner: &self.inner }
    }

    /// Submits one record for tenant `id` and blocks until its prediction
    /// (or failure) comes back. Shape validation happens up front against
    /// the tenant's current variant — faulting it in from the delta store
    /// if it was evicted — so bad requests never occupy batch slots; the
    /// validated artifact is pinned into the queue entry so a concurrent
    /// hot swap or eviction cannot change which model answers.
    pub fn predict(&self, id: &str, record: Vec<f32>) -> Result<PredictOutput, PredictError> {
        self.predict_announced(self.announce(), id, record)
    }

    /// [`MicroBatcher::predict`] for a request announced earlier.
    pub fn predict_announced(
        &self,
        ticket: Ticket<'_>,
        id: &str,
        record: Vec<f32>,
    ) -> Result<PredictOutput, PredictError> {
        let artifact = match self.inner.registry.get(id) {
            Ok(a) => a,
            Err(RegistryError::UnknownModel(m)) => return Err(PredictError::UnknownModel(m)),
            Err(e) => return Err(PredictError::Registry(e.to_string())),
        };
        if record.len() != artifact.record_elems {
            return Err(PredictError::BadShape {
                got: record.len(),
                want: artifact.record_elems,
            });
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.inner.state.lock().expect("batcher lock");
            if st.shutdown {
                return Err(PredictError::Shutdown);
            }
            st.queue.push(Pending { record, artifact, reply: tx, enqueued: Instant::now() });
            telemetry::SERVE_BATCH_QUEUE_DEPTH.set(st.queue.len() as i64);
            // The ticket is redeemed under the same lock as the push, so
            // the batcher never sees this request in neither count.
            st.announced -= 1;
            std::mem::forget(ticket);
        }
        self.inner.cv.notify_all();
        rx.recv().unwrap_or(Err(PredictError::Shutdown))
    }

    /// Requests currently waiting in the batch queue — sampled by the
    /// health watchdog and reported by `/healthz`.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().expect("batcher lock").queue.len()
    }

    /// Drains the queue (answering everything still enqueued) and joins
    /// the worker thread.
    pub fn shutdown(&mut self) {
        self.inner.state.lock().expect("batcher lock").shutdown = true;
        self.inner.cv.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batcher_loop(inner: &Inner) {
    loop {
        // Wait for the first record (or shutdown).
        let mut st = inner.state.lock().expect("batcher lock");
        while st.queue.is_empty() && !st.shutdown {
            st = inner.cv.wait(st).expect("batcher wait");
        }
        if st.queue.is_empty() && st.shutdown {
            return;
        }
        // A record is in: hold the door only while the batch has room and
        // an announced request is still on its way, and never past
        // `max_delay` from the oldest record. On shutdown, flush at once.
        let first = st.queue[0].enqueued;
        let mut outcome = "immediate";
        while st.queue.len() < inner.max_batch && st.announced > 0 && !st.shutdown {
            let waited = first.elapsed();
            if waited >= inner.max_delay {
                outcome = "capped";
                break;
            }
            outcome = "held";
            st = inner.cv.wait_timeout(st, inner.max_delay - waited).expect("batcher wait").0;
        }
        let n = st.queue.len().min(inner.max_batch);
        let batch: Vec<Pending> = st.queue.drain(..n).collect();
        telemetry::SERVE_BATCH_QUEUE_DEPTH.set(st.queue.len() as i64);
        drop(st);
        if telemetry::metrics_enabled() {
            telemetry::SERVE_DOOR_WAIT_US.record(first.elapsed().as_micros() as u64);
            telemetry::counter_with("serve.door", &[("outcome", outcome)]).add(1);
        }
        run_batch(batch);
    }
}

fn run_batch(batch: Vec<Pending>) {
    // Group by trunk first — shared base and precision, one trunk forward
    // each — then by pinned artifact within it (one suffix pass per
    // variant), both in arrival order. Requests for variants of
    // *different* bases — or spanning a hot swap that changed the
    // architecture — never mix. int8 tenants of a base share its one
    // quantized trunk, as f32 tenants share the f32 trunk.
    type TenantGroup = (Arc<ModelArtifact>, Vec<Pending>);
    let mut trunks: Vec<(Arc<BaseModel>, bool, Vec<TenantGroup>)> = Vec::new();
    for p in batch {
        let (base, int8) = (&p.artifact.base, p.artifact.quant.is_some());
        let idx = match trunks.iter().position(|(b, q, _)| Arc::ptr_eq(b, base) && *q == int8) {
            Some(i) => i,
            None => {
                trunks.push((Arc::clone(base), int8, Vec::new()));
                trunks.len() - 1
            }
        };
        let tenants = &mut trunks[idx].2;
        match tenants.iter_mut().find(|(a, _)| Arc::ptr_eq(a, &p.artifact)) {
            Some((_, g)) => g.push(p),
            None => tenants.push((Arc::clone(&p.artifact), vec![p])),
        }
    }
    for (base, _, tenants) in trunks {
        run_base_group(&base, tenants);
    }
}

/// One shared-trunk execution: all of one trunk's pendings, any tenants.
fn run_base_group(base: &BaseModel, tenants: Vec<(Arc<ModelArtifact>, Vec<Pending>)>) {
    let total: usize = tenants.iter().map(|(_, g)| g.len()).sum();
    let _sp = telemetry::span("serve", "serve.batch");
    let t0 = Instant::now();
    match forward_shared(base, &tenants, total) {
        Ok(per_tenant_rows) => {
            telemetry::SERVE_BATCHES.add(1);
            telemetry::SERVE_BATCH_RECORDS.add(total as u64);
            if tenants.len() > 1 {
                telemetry::SERVE_TRUNK_SHARED_RECORDS.add(total as u64);
            }
            telemetry::SERVE_BATCH_US.record(t0.elapsed().as_micros() as u64);
            for ((artifact, group), rows) in tenants.into_iter().zip(per_tenant_rows) {
                let k = group.len();
                for (p, values) in group.into_iter().zip(rows) {
                    let _ = p.reply.send(Ok(PredictOutput {
                        model_id: artifact.id.as_str().to_string(),
                        version: artifact.version,
                        batch_size: k,
                        trunk_batch: total,
                        values,
                    }));
                }
            }
        }
        Err(e) => {
            for (_, group) in tenants {
                for p in group {
                    let _ = p.reply.send(Err(e.clone()));
                }
            }
        }
    }
}

/// Stacks all tenants' records, runs one trunk pass + per-tenant
/// suffixes, splits each tenant's output rows per record.
fn forward_shared(
    base: &BaseModel,
    tenants: &[(Arc<ModelArtifact>, Vec<Pending>)],
    total: usize,
) -> Result<Vec<Vec<Vec<f32>>>, PredictError> {
    let per = base.record_elems;
    let mut data = Vec::with_capacity(total * per);
    for (_, group) in tenants {
        for p in group {
            data.extend_from_slice(&p.record);
        }
    }
    let stacked = Tensor::from_vec(base.record_shape.with_batch(total), data)
        .map_err(|e| PredictError::Exec(e.to_string()))?;
    let groups: Vec<TrunkGroup<'_>> = tenants
        .iter()
        .map(|(a, g)| TrunkGroup {
            rows: g.len(),
            overrides: Some(&a.overrides),
            quant: a.quant.as_deref(),
        })
        .collect();
    let outs = forward_batch_shared_trunk(&base.graph, base.input, base.output, stacked, &groups)
        .map_err(|e| PredictError::Exec(e.to_string()))?;
    Ok(outs
        .iter()
        .zip(tenants)
        .map(|(out, (_, group))| {
            let k = group.len();
            let out_data = out.data();
            let out_per = out_data.len() / k.max(1);
            (0..k).map(|i| out_data[i * out_per..(i + 1) * out_per].to_vec()).collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_dnn::exec::{forward, BatchInputs};
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::{Activation, LayerKind};
    use nautilus_dnn::ModelGraph;
    use nautilus_tensor::init::seeded_rng;
    use nautilus_util::rng::Rng;

    fn model(seed: u64, in_dim: usize, out_dim: usize) -> ModelGraph {
        let mut rng = seeded_rng(seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [in_dim]);
        let h = g
            .add_layer(
                "hidden",
                LayerKind::Dense { in_dim, out_dim: in_dim, act: Activation::Gelu },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim, out_dim, act: Activation::None },
                &[h],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        g
    }

    /// Frozen trunk shared by every seed; trainable adapter+head per seed.
    fn adapter_variant(tenant_seed: u64, in_dim: usize, out_dim: usize) -> ModelGraph {
        let mut frozen_rng = seeded_rng(500);
        let mut rng = seeded_rng(tenant_seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [in_dim]);
        let trunk = g
            .add_layer(
                "trunk",
                LayerKind::Dense { in_dim, out_dim: in_dim, act: Activation::Gelu },
                &[inp],
                true,
                ParamInit::Seeded(&mut frozen_rng),
            )
            .unwrap();
        let ad = g
            .add_layer(
                "adapter",
                LayerKind::Adapter { dim: in_dim, bottleneck: 4 },
                &[trunk],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim, out_dim, act: Activation::None },
                &[ad],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        g
    }

    fn solo_forward(g: &ModelGraph, record: &[f32]) -> Vec<f32> {
        let inp = g.input_ids()[0];
        let t = Tensor::from_vec(
            g.shape(inp).with_batch(1),
            record.to_vec(),
        )
        .unwrap();
        let mut bi = BatchInputs::new();
        bi.insert(inp, t);
        let fwd = forward(g, &bi, false).unwrap();
        fwd.output(g.outputs()[0]).data().to_vec()
    }

    fn cfg(max_batch: usize, max_delay_us: u64) -> ServingConfig {
        ServingConfig { max_batch, max_delay_us, ..ServingConfig::default() }
    }

    /// Runs every job on its own thread with all tickets taken before the
    /// first submit, so the door stays shut until the last one is queued:
    /// batch composition is exact, not a matter of thread timing.
    fn predict_all_in_one_window(
        batcher: &MicroBatcher,
        jobs: &[(String, Vec<f32>)],
    ) -> Vec<PredictOutput> {
        let tickets: Vec<Ticket<'_>> = jobs.iter().map(|_| batcher.announce()).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .iter()
                .zip(tickets)
                .map(|((id, r), t)| {
                    s.spawn(move || {
                        batcher.predict_announced(t, id, r.clone()).expect("prediction succeeds")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_predictions_are_bit_identical_to_solo() {
        let g = model(7, 32, 5);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("default", g.clone()).unwrap();
        let batcher = MicroBatcher::start(Arc::clone(&registry), &cfg(8, 10_000_000));

        let mut rng = seeded_rng(99);
        let jobs: Vec<(String, Vec<f32>)> = (0..16)
            .map(|_| ("default".to_string(), (0..32).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()))
            .collect();
        let outputs = predict_all_in_one_window(&batcher, &jobs);

        for ((_, r), out) in jobs.iter().zip(&outputs) {
            assert_eq!(out.values, solo_forward(&g, r), "batched != solo");
            assert_eq!(out.version, 1);
            assert_eq!(out.model_id, "default");
            // 16 announced requests against max_batch 8: the door closes
            // early on the first full batch, and the second fills before
            // the last ticket is redeemed.
            assert_eq!(out.batch_size, 8, "two full batches");
        }
    }

    /// Three tenants on one base submitting in one window: every answer is
    /// bit-identical to solo serving of that tenant's full variant, and
    /// the one batch shares the trunk across all of them.
    #[test]
    fn cross_tenant_batches_share_trunk_and_stay_bit_identical() {
        let variants: Vec<ModelGraph> =
            (0..3).map(|i| adapter_variant(700 + i, 16, 4)).collect();
        let registry = Arc::new(ModelRegistry::new());
        for (i, g) in variants.iter().enumerate() {
            registry.publish(&format!("user-{i}"), g.clone()).unwrap();
        }
        let batcher = MicroBatcher::start(Arc::clone(&registry), &cfg(16, 10_000_000));

        let mut rng = seeded_rng(321);
        let jobs: Vec<(String, Vec<f32>)> = (0..12)
            .map(|j| {
                (format!("user-{}", j % 3), (0..16).map(|_| rng.gen_f32() * 2.0 - 1.0).collect())
            })
            .collect();
        let outputs = predict_all_in_one_window(&batcher, &jobs);

        for (j, ((id, r), out)) in jobs.iter().zip(&outputs).enumerate() {
            assert_eq!(
                out.values,
                solo_forward(&variants[j % 3], r),
                "{id}: shared-trunk result != solo serving"
            );
            assert_eq!(&out.model_id, id);
            assert_eq!((out.batch_size, out.trunk_batch), (4, 12), "one union batch");
        }
    }

    /// Two int8 tenants of one base in one window: one union batch over the
    /// base's quantized trunk, and every answer bitwise what that tenant's
    /// int8 form gives the record alone.
    #[test]
    fn int8_tenants_share_one_quantized_trunk_and_stay_bit_identical() {
        use crate::registry::PublishOptions;
        let registry = Arc::new(ModelRegistry::new());
        for i in 0..2 {
            let g = adapter_variant(800 + i, 16, 4);
            registry.publish_with(&format!("q-{i}"), g, PublishOptions { quantize_int8: true }).unwrap();
        }
        let batcher = MicroBatcher::start(Arc::clone(&registry), &cfg(16, 10_000_000));

        let mut rng = seeded_rng(654);
        let jobs: Vec<(String, Vec<f32>)> = (0..6)
            .map(|j| (format!("q-{}", j % 2), (0..16).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()))
            .collect();
        let outputs = predict_all_in_one_window(&batcher, &jobs);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ((id, r), out) in jobs.iter().zip(&outputs) {
            let a = registry.get(id).unwrap();
            let alone = TrunkGroup { rows: 1, overrides: Some(&a.overrides), quant: a.quant.as_deref() };
            let record = Tensor::from_vec(a.record_shape.with_batch(1), r.clone()).unwrap();
            let solo = forward_batch_shared_trunk(&a.base.graph, a.input, a.output, record, &[alone]).unwrap();
            assert_eq!(bits(&out.values), bits(solo[0].data()), "{id}: union batch != solo int8");
            assert_eq!((out.batch_size, out.trunk_batch), (3, 6), "one union batch");
        }
    }

    /// Polls `done` until it holds, panicking after `within`.
    fn wait_for(what: &str, within: Duration, done: impl Fn() -> bool) {
        let deadline = Instant::now() + within;
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// The door rule, one clause at a time. `max_delay_us` is 200 ms in
    /// every case, so "far less than the door" and "the cap" are far apart.
    #[test]
    fn door_opens_when_nobody_is_on_the_way_and_never_later_than_the_cap() {
        const DOOR: Duration = Duration::from_millis(200);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", model(3, 8, 2)).unwrap();
        let batcher = MicroBatcher::start(Arc::clone(&registry), &cfg(4, 200_000));
        let record = vec![0.5f32; 8];

        // A lone request is not held at all.
        let t0 = Instant::now();
        let out = batcher.predict("m", record.clone()).unwrap();
        assert!(t0.elapsed() < DOOR / 4, "lone request waited {:?}", t0.elapsed());
        assert_eq!(out.batch_size, 1);

        std::thread::scope(|s| {
            // Held while a ticket is outstanding, released the moment it
            // drops: the queued request is still unanswered after the
            // ticket has been observed to hold it, and answered well
            // inside the cap once the ticket is gone.
            let ticket = batcher.announce();
            let t0 = Instant::now();
            let held = s.spawn(|| batcher.predict("m", record.clone()).unwrap());
            wait_for("the request to queue", DOOR, || batcher.queue_depth() == 1);
            assert!(!held.is_finished(), "door opened under an outstanding ticket");
            drop(ticket);
            assert_eq!(held.join().unwrap().batch_size, 1);
            assert!(t0.elapsed() < DOOR, "release waited out the cap: {:?}", t0.elapsed());

            // Capped: a ticket that never redeems costs `max_delay_us`, no more.
            let ticket = batcher.announce();
            let t0 = Instant::now();
            batcher.predict("m", record.clone()).unwrap();
            let waited = t0.elapsed();
            assert!(waited >= DOOR && waited < 4 * DOOR, "cap is {DOOR:?}, waited {waited:?}");
            drop(ticket);

            // `max_batch` closes the door early, ticket or no ticket.
            let ticket = batcher.announce();
            let t0 = Instant::now();
            let full: Vec<_> = (0..4)
                .map(|_| s.spawn(|| batcher.predict("m", record.clone()).unwrap()))
                .collect();
            for h in full {
                assert_eq!(h.join().unwrap().batch_size, 4);
            }
            assert!(t0.elapsed() < DOOR, "full batch waited {:?}", t0.elapsed());
            drop(ticket);
        });
    }

    /// Every early error releases its ticket: afterwards a lone request is
    /// answered at once, which it would not be with a ticket leaked.
    #[test]
    fn failed_requests_release_their_tickets() {
        let dir = std::env::temp_dir()
            .join(format!("nautilus-batcher-tickets-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let serving = ServingConfig {
            max_delay_us: 10_000_000,
            delta_store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServingConfig::default()
        };
        let registry = Arc::new(ModelRegistry::with_config(&serving).unwrap());
        registry.publish("m", model(1, 6, 2)).unwrap();
        registry.publish("gone", model(2, 6, 2)).unwrap();
        let batcher = MicroBatcher::start(Arc::clone(&registry), &serving);

        assert!(matches!(
            batcher.predict("nobody", vec![0.0; 6]),
            Err(PredictError::UnknownModel(_))
        ));
        assert!(matches!(
            batcher.predict("m", vec![0.0; 4]),
            Err(PredictError::BadShape { got: 4, want: 6 })
        ));
        // A fault-in that finds its store gone is a registry error.
        registry.evict("gone").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            batcher.predict("gone", vec![0.0; 6]),
            Err(PredictError::Registry(_))
        ));
        assert_eq!(batcher.inner.state.lock().unwrap().announced, 0);

        let t0 = Instant::now();
        batcher.predict("m", vec![0.5; 6]).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(2), "a leaked ticket held the door");
    }

    #[test]
    fn predict_validates_shape_and_missing_model() {
        let registry = Arc::new(ModelRegistry::new());
        let batcher = MicroBatcher::start(Arc::clone(&registry), &cfg(4, 100));
        assert!(matches!(
            batcher.predict("nobody", vec![0.0; 4]),
            Err(PredictError::UnknownModel(_))
        ));
        registry.publish("m", model(1, 6, 2)).unwrap();
        assert!(matches!(
            batcher.predict("m", vec![0.0; 4]),
            Err(PredictError::BadShape { got: 4, want: 6 })
        ));
        let out = batcher.predict("m", vec![0.5; 6]).unwrap();
        assert_eq!(out.values.len(), 2);
    }

    /// A hot swap that changes the input shape while requests sit in the
    /// queue: each request must be answered by the exact model it was
    /// validated against, even when both versions share one batch window.
    #[test]
    fn hot_swap_mid_batch_answers_each_request_with_its_pinned_model() {
        let g1 = model(31, 6, 2);
        let g2 = model(32, 9, 3);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", g1.clone()).unwrap();
        let batcher = MicroBatcher::start(Arc::clone(&registry), &cfg(8, 10_000_000));

        let r1 = vec![0.25f32; 6];
        let r2 = vec![-0.5f32; 9];
        // The second request's ticket is taken first, so the first waits
        // for it: both land in the same batch window.
        let second = batcher.announce();
        let (o1, o2) = std::thread::scope(|s| {
            let h1 = s.spawn(|| batcher.predict("m", r1.clone()));
            // Once the first request is queued (validated against v1),
            // swap to a model with a different input shape and submit the
            // second request, validated against v2.
            wait_for("the v1 request to queue", Duration::from_secs(10), || {
                batcher.queue_depth() == 1
            });
            registry.publish("m", g2.clone()).unwrap();
            let o2 = batcher.predict_announced(second, "m", r2.clone());
            (h1.join().unwrap(), o2)
        });
        let o1 = o1.expect("v1 request must survive the swap");
        let o2 = o2.expect("v2 request must succeed");
        assert_eq!(o1.version, 1);
        assert_eq!(o1.values, solo_forward(&g1, &r1));
        assert_eq!(o2.version, 2);
        assert_eq!(o2.values, solo_forward(&g2, &r2));
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", model(2, 8, 3)).unwrap();
        // An outstanding ticket under a wide-open cap: the requests would
        // sit for 10s without the drain.
        let batcher = &MicroBatcher::start(Arc::clone(&registry), &cfg(64, 10_000_000));
        let _never_redeemed = batcher.announce();
        std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|i| s.spawn(move || batcher.predict("m", vec![i as f32; 8]))).collect();
            wait_for("all four to queue", Duration::from_secs(10), || batcher.queue_depth() == 4);
            batcher.inner.state.lock().unwrap().shutdown = true;
            batcher.inner.cv.notify_all();
            for h in handles {
                assert!(h.join().unwrap().is_ok(), "drained request must be answered");
            }
        });
    }
}
