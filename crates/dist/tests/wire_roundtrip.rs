//! Checkpoint wire round-trips are bit-exact.
//!
//! The distributed plane's bit-identity contract rests on checkpoints
//! surviving the wire unchanged: candidate graphs ship coordinator→worker
//! inside train requests, trained plan graphs ship back inside responses,
//! and the serving plane's adapter/head deltas must survive the same
//! byte-level transport. Each test round-trips through the full encode →
//! bytes → DTO → bytes → decode path and compares every parameter tensor
//! bit for bit.

use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::Strategy;
use nautilus_data::Dataset;
use nautilus_dist::proto;
use nautilus_dnn::delta::{
    apply_delta, extract_delta, load_delta_from_bytes, save_delta_to_bytes, strip_trainable,
};
use nautilus_dnn::{checkpoint, ModelGraph};
use nautilus_tensor::Tensor;
use std::collections::BTreeSet;

/// Asserts two graphs are structurally equal with bit-identical params.
fn assert_graphs_bit_identical(a: &ModelGraph, b: &ModelGraph, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: node count");
    for i in 0..a.len() {
        let (na, nb) = (a.node(nautilus_dnn::NodeId(i)), b.node(nautilus_dnn::NodeId(i)));
        assert_eq!(na.params.len(), nb.params.len(), "{what}: node {i} param count");
        for (pi, (pa, pb)) in na.params.iter().zip(&nb.params).enumerate() {
            assert_eq!(pa.shape(), pb.shape(), "{what}: node {i} param {pi} shape");
            let bits_a: Vec<u32> = pa.data().iter().map(|x| x.to_bits()).collect();
            let bits_b: Vec<u32> = pb.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "{what}: node {i} param {pi} bits");
        }
    }
}

fn tiny_datasets() -> (Dataset, Dataset) {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let pool = spec.ner_config().generate(12);
    pool.split_at(8)
}

#[test]
fn train_request_round_trips_candidate_graphs_bit_exactly() {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(2);
    let (train, valid) = tiny_datasets();

    let config = nautilus_core::SystemConfig::tiny();
    let graph_blocks: Vec<Vec<u8>> =
        candidates.iter().map(|c| checkpoint::save_to_bytes(&c.graph)).collect();
    let data_block = proto::encode_data_block(&train, &valid);
    let v = BTreeSet::new();
    let bytes = proto::encode_train_request(
        Strategy::CurrentPractice,
        1,
        &v,
        &config,
        &candidates,
        &data_block,
        &graph_blocks,
        &[],
    );
    let back = proto::decode_train_request(&bytes).expect("decodes");

    assert_eq!(back.unit_index, 1);
    assert_eq!(back.strategy, Strategy::CurrentPractice);
    assert_eq!(back.candidates.len(), candidates.len());
    for (orig, rt) in candidates.iter().zip(&back.candidates) {
        assert_eq!(orig.name, rt.name);
        assert_eq!(orig.hyper, rt.hyper);
        assert_graphs_bit_identical(&orig.graph, &rt.graph, &orig.name);
    }
    // Dataset tensors survive exactly too (raw f32 bit transport).
    let pairs: [(&Tensor, &Tensor); 4] = [
        (&train.inputs, &back.train.inputs),
        (&train.labels, &back.train.labels),
        (&valid.inputs, &back.valid.inputs),
        (&valid.labels, &back.valid.labels),
    ];
    for (a, b) in pairs {
        assert_eq!(a.shape(), b.shape());
        let bits_a: Vec<u32> = a.data().iter().map(|x| x.to_bits()).collect();
        let bits_b: Vec<u32> = b.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits_a, bits_b);
    }
}

#[test]
fn feature_chunks_round_trip_in_manifest_order() {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(1);
    let (train, valid) = tiny_datasets();
    let config = nautilus_core::SystemConfig::tiny();

    let t1 = Tensor::from_vec([2, 2], vec![0.5f32, -1.25, 3.75, 0.125]).unwrap();
    let t2 = Tensor::from_vec([3, 1], vec![9.0f32, -0.0, f32::MIN_POSITIVE]).unwrap();
    let features = vec![
        ("enc0:train".to_string(), 2u64, nautilus_tensor::ser::encode(&t1)),
        ("enc0:valid".to_string(), 3u64, nautilus_tensor::ser::encode(&t2)),
    ];
    let graph_blocks: Vec<Vec<u8>> =
        candidates.iter().map(|c| checkpoint::save_to_bytes(&c.graph)).collect();
    let bytes = proto::encode_train_request(
        Strategy::Nautilus,
        0,
        &BTreeSet::new(),
        &config,
        &candidates,
        &proto::encode_data_block(&train, &valid),
        &graph_blocks,
        &features,
    );
    let back = proto::decode_train_request(&bytes).expect("decodes");
    assert_eq!(back.features.len(), 2);
    assert_eq!(back.features[0].0, "enc0:train");
    assert_eq!(back.features[1].0, "enc0:valid");
    let b1: Vec<u32> = back.features[0].1.data().iter().map(|x| x.to_bits()).collect();
    assert_eq!(b1, t1.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    let b2: Vec<u32> = back.features[1].1.data().iter().map(|x| x.to_bits()).collect();
    assert_eq!(b2, t2.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
}

#[test]
fn trained_graph_and_adapter_deltas_survive_the_wire() {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(1);
    let graph = candidates.remove(0).graph;

    // Response path: trained graph rides a framed train response.
    let bytes = proto::encode_train_response(0, 1.5, 2.5e9, &[], Some(&graph));
    let back = proto::decode_train_response(&bytes).expect("decodes");
    let rt = back.trained.expect("trained graph present");
    assert_graphs_bit_identical(&graph, &rt, "trained graph");

    // Serving path: extract the trainable (adapter/head) delta from the
    // wire-restored graph, round-trip the delta bytes, and re-apply onto
    // the stripped base — the recomposed graph must match the original
    // bit for bit (same contract the multi-tenant registry relies on).
    let delta = extract_delta(&rt).expect("graph has trainable layers");
    let delta_bytes = save_delta_to_bytes(&delta);
    let delta_rt = load_delta_from_bytes(&delta_bytes).expect("delta decodes");
    assert_eq!(delta.base_sig, delta_rt.base_sig);
    let base = strip_trainable(&rt);
    let recomposed = apply_delta(&base, &delta_rt).expect("delta applies");
    assert_graphs_bit_identical(&graph, &recomposed, "recomposed from delta");
}
