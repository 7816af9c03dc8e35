//! Twin runs: one Table 3 workload at Tiny scale under one strategy, 3
//! cycles of 24 + 6 records, once on each backend over the same candidates
//! and counts. The feature store is the one IO ledger on both, so a twin
//! pair must agree on everything but time.

use nautilus_core::backend::Backend;
use nautilus_core::multimodel::MNodeId;
use nautilus_core::session::{
    CycleInput, CycleWork, LocalUnits, ModelSelection, SessionError, UnitExecutor, UnitOutcome,
};
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, Strategy, SystemConfig};
use nautilus_store::{SharedIoStats, TensorStore};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The five strategies of the paper's system points.
pub const STRATEGIES: [Strategy; 5] = [
    Strategy::CurrentPractice,
    Strategy::MatAll,
    Strategy::MatOnly,
    Strategy::FuseOnly,
    Strategy::Nautilus,
];

const CYCLES: usize = 3;
const N_TRAIN: usize = 24;
const N_VALID: usize = 6;

/// What one run did, apart from time.
#[derive(Debug, PartialEq)]
pub struct Twin {
    /// Training units after initialization.
    pub units: usize,
    /// The materialized set each cycle trained with.
    pub v: Vec<BTreeSet<MNodeId>>,
    /// Total FLOPs, bit for bit.
    pub flops: u64,
    /// Installed feature bytes.
    pub feature_bytes: u64,
    /// The store's manifest: `(key, records, bytes)` in key order.
    pub manifest: Vec<(String, usize, u64)>,
    /// The ledger's `(written, disk read, cached read)` bytes.
    pub io: (u64, u64, u64),
}

/// Records the `V` every cycle trains with, then trains locally.
struct RecordV(Arc<Mutex<Vec<BTreeSet<MNodeId>>>>);

impl UnitExecutor for RecordV {
    fn train_units(
        &mut self,
        work: &CycleWork<'_>,
        backend: &mut Backend,
    ) -> Result<Vec<UnitOutcome>, SessionError> {
        self.0.lock().unwrap().push(work.v.clone());
        LocalUnits.train_units(work, backend)
    }
}

/// Runs `kind` under `strategy` on `backend`.
pub fn run(kind: WorkloadKind, strategy: Strategy, backend: BackendKind) -> Twin {
    let spec = WorkloadSpec {
        kind,
        scale: Scale::Tiny,
    };
    let dir = std::env::temp_dir().join(format!(
        "nautilus-twin-{}-{}-{backend:?}-{}",
        kind.name(),
        strategy.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = ModelSelection::new(
        spec.candidates().unwrap(),
        SystemConfig::tiny(),
        strategy,
        backend,
        &dir,
    )
    .unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    session.set_unit_executor(Box::new(RecordV(log.clone())));
    let per_cycle = N_TRAIN + N_VALID;
    let pool = (backend == BackendKind::Real).then(|| match kind {
        WorkloadKind::Ftu => spec.image_config().generate(CYCLES * per_cycle),
        _ => spec.ner_config().generate(CYCLES * per_cycle),
    });
    for c in 0..CYCLES {
        let input = match &pool {
            Some(pool) => {
                let (train, valid) = pool
                    .range(c * per_cycle, (c + 1) * per_cycle)
                    .split_at(N_TRAIN);
                CycleInput::Real { train, valid }
            }
            None => CycleInput::Virtual {
                n_train: N_TRAIN,
                n_valid: N_VALID,
            },
        };
        session
            .fit(input)
            .unwrap_or_else(|e| panic!("{} {strategy:?} {backend:?}: {e}", kind.name()));
    }
    let stats = session.stats();
    let store = TensorStore::open(dir.join("features"), SharedIoStats::new()).unwrap();
    let twin = Twin {
        units: session.init_report().num_units,
        v: log.lock().unwrap().clone(),
        flops: stats.flops.to_bits(),
        feature_bytes: session.feature_bytes(),
        manifest: store
            .keys()
            .into_iter()
            .map(|k| (store.num_records(&k), store.bytes(&k), k))
            .map(|(r, b, k)| (k, r, b))
            .collect(),
        io: (
            stats.disk_write_bytes,
            stats.disk_read_bytes,
            stats.cached_read_bytes,
        ),
    };
    drop((session, store));
    let _ = std::fs::remove_dir_all(&dir);
    twin
}
