//! Cross-crate integration: incremental feature materialization across
//! labeling cycles produces the same features as materializing the full
//! snapshot at once (paper §4.2.3), and plans always respect budgets.

use nautilus_repro::core::backend::{Backend, BackendKind};
use nautilus_repro::core::materializer::Materializer;
use nautilus_repro::core::multimodel::{MNodeId, MultiModelGraph};
use nautilus_repro::core::spec::{CandidateModel, Hyper};
use nautilus_repro::core::SystemConfig;
use nautilus_repro::data::NerDatasetConfig;
use nautilus_repro::dnn::{OptimizerSpec, TaskKind};
use nautilus_repro::models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
use nautilus_repro::models::BuildScale;
use nautilus_repro::store::{SharedIoStats, TensorStore};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn workdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nautilus-it-inc-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn candidate() -> CandidateModel {
    let cfg = BertConfig::tiny(12, 60);
    CandidateModel {
        name: "ftr".into(),
        graph: feature_transfer_model(&cfg, FeatureStrategy::SumLast4, 9, BuildScale::Real)
            .unwrap(),
        hyper: Hyper { batch_size: 8, epochs: 1, optimizer: OptimizerSpec::sgd(0.01) },
        task: TaskKind::TokenTagging,
    }
}

#[test]
fn chunked_materialization_equals_one_shot() {
    let cands = vec![candidate()];
    let multi = MultiModelGraph::build(&cands);
    // V = the sum-last-4 node.
    let v: BTreeSet<MNodeId> = (0..multi.nodes.len())
        .map(MNodeId)
        .filter(|&m| multi.node(m).name.contains("sum-last-4"))
        .collect();
    assert_eq!(v.len(), 1);
    let key = multi.node(*v.iter().next().unwrap()).key.clone();

    let data = NerDatasetConfig { vocab: 60, seq_len: 12, ..Default::default() }.generate(30);
    let cfg = SystemConfig::tiny();

    // Incremental: three chunks of 10.
    let io = SharedIoStats::new();
    let mut backend = Backend::new(BackendKind::Real, cfg.hardware, io.clone());
    let mut inc =
        Materializer::new(TensorStore::open(workdir("chunks"), io.clone()).unwrap(), 64 << 20);
    inc.install_v(&multi, &cands, v.clone()).unwrap();
    for i in 0..3 {
        let chunk = data.range(i * 10, (i + 1) * 10);
        let inputs = Some(&chunk.inputs);
        inc.materialize(&multi, &cands, &v, "train", inputs, 10, &mut backend).unwrap();
    }

    // One shot: all 30 at once.
    let io2 = SharedIoStats::new();
    let mut backend2 = Backend::new(BackendKind::Real, cfg.hardware, io2.clone());
    let mut oneshot =
        Materializer::new(TensorStore::open(workdir("oneshot"), io2).unwrap(), 64 << 20);
    oneshot.install_v(&multi, &cands, v.clone()).unwrap();
    let inputs = Some(&data.inputs);
    oneshot.materialize(&multi, &cands, &v, "train", inputs, 30, &mut backend2).unwrap();

    let (a, _) = inc.store.read_all(&format!("{key}:train")).unwrap();
    let (b, _) = oneshot.store.read_all(&format!("{key}:train")).unwrap();
    assert_eq!(a, b, "incremental features must equal one-shot features bitwise");
}

#[test]
fn fused_plans_respect_memory_budget() {
    use nautilus_repro::core::fusion::fuse_models;
    let cands: Vec<CandidateModel> = (0..4)
        .map(|i| {
            let mut c = candidate();
            c.name = format!("ftr-{i}");
            c.hyper.optimizer = OptimizerSpec::sgd(0.01 + i as f32 * 0.01);
            c
        })
        .collect();
    let multi = MultiModelGraph::build(&cands);
    for budget_mb in [1u64, 4, 16, 64, 256] {
        let cfg = SystemConfig::tiny()
            .into_builder()
            .memory_budget_bytes(budget_mb << 20)
            .workspace_bytes(0)
            .build();
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true);
        let covered: usize = units.iter().map(|u| u.members.len()).sum();
        assert_eq!(covered, 4, "all models trained at budget {budget_mb} MiB");
        for u in &units {
            if u.members.len() > 1 {
                assert!(
                    u.memory.total() <= cfg.memory_budget_bytes,
                    "fused unit {}B exceeds budget {}B",
                    u.memory.total(),
                    cfg.memory_budget_bytes
                );
            }
        }
    }
}
