//! Versioned wire DTOs for the distributed execution plane.
//!
//! Framing follows the in-tree checkpoint idiom: a `u64` little-endian
//! header length, a JSON header (built with [`json_struct!`] DTOs), then
//! concatenated binary payload sections whose lengths the header
//! declares. Every float that influences selection travels as exact
//! bits: tensors ship through [`nautilus_tensor::ser`] (raw f32 bit
//! patterns), metric scalars ship as `to_bits()` integers, and the JSON
//! config floats round-trip exactly because Rust's `f64` `Display` is
//! shortest-roundtrip. That is what lets a distributed run reproduce the
//! single-box selection output bit for bit.
//!
//! Schema versioning policy: both request and response headers carry
//! `version` = [`WIRE_VERSION`]. A decoder rejects any other value with
//! [`ProtoError::Version`] — there is no cross-version negotiation, so
//! any breaking change to a DTO or section layout MUST bump the
//! constant. Coordinator and workers are expected to run the same build.

use nautilus_core::config::SystemConfig;
use nautilus_core::multimodel::MNodeId;
use nautilus_core::spec::{CandidateModel, Hyper};
use nautilus_core::trainer::MemberResult;
use nautilus_core::Strategy;
use nautilus_data::Dataset;
use nautilus_dnn::{checkpoint, ModelGraph, TaskKind};
use nautilus_tensor::{ser, Tensor};
use nautilus_util::json::{self, FromJson, Json, ToJson};
use nautilus_util::json_struct;
use std::collections::BTreeSet;

/// Current wire-schema version; bump on any breaking DTO change.
pub const WIRE_VERSION: u64 = 2;

/// Errors from encoding/decoding wire messages.
#[derive(Debug)]
pub enum ProtoError {
    /// Framing damage: truncated buffer, bad lengths.
    Frame(String),
    /// JSON header failed to parse or validate.
    Header(String),
    /// Peer speaks a different wire-schema version.
    Version {
        /// The version the peer sent.
        got: u64,
    },
    /// A binary section failed to decode (tensor/checkpoint payloads).
    Payload(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Frame(e) => write!(f, "wire framing: {e}"),
            ProtoError::Header(e) => write!(f, "wire header: {e}"),
            ProtoError::Version { got } => {
                write!(f, "wire version {got} != supported {WIRE_VERSION}")
            }
            ProtoError::Payload(e) => write!(f, "wire payload: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One candidate in the request header; the graph itself is a binary
/// checkpoint section of `graph_len` bytes.
#[derive(Debug, Clone)]
pub struct CandidateDto {
    /// Candidate name (unique within the workload).
    pub name: String,
    /// Training hyperparameters.
    pub hyper: Hyper,
    /// Task head semantics.
    pub task: TaskKind,
    /// Byte length of this candidate's checkpoint section.
    pub graph_len: u64,
}

json_struct!(CandidateDto { name, hyper, task, graph_len });

/// One materialized-feature chunk in the request manifest; the encoded
/// tensor is a binary section of `len` bytes. Chunks are listed (and
/// re-appended by the worker) in store append order, so the worker's
/// feature store reproduces the coordinator's chunk boundaries exactly.
#[derive(Debug, Clone)]
pub struct FeatureChunkDto {
    /// Full store key, including the `:train`/`:valid` split suffix.
    pub key: String,
    /// Records in the chunk.
    pub records: u64,
    /// Byte length of the chunk's encoded-tensor section.
    pub len: u64,
}

json_struct!(FeatureChunkDto { key, records, len });

#[derive(Debug, Clone)]
struct TrainRequestHeader {
    version: u64,
    strategy: String,
    unit_index: u64,
    v: Vec<u64>,
    config: SystemConfig,
    candidates: Vec<CandidateDto>,
    data_len: u64,
    features: Vec<FeatureChunkDto>,
}

json_struct!(TrainRequestHeader {
    version,
    strategy,
    unit_index,
    v,
    config,
    candidates,
    data_len,
    features
});

/// One member's training outcome; metric floats travel as exact bits.
#[derive(Debug, Clone)]
pub struct MemberResultDto {
    /// Candidate index in the workload.
    pub candidate: u64,
    /// Candidate name.
    pub name: String,
    /// `f32::to_bits` of the validation accuracy, if evaluated.
    pub accuracy_bits: Option<u64>,
    /// `f32::to_bits` of the final-epoch mean training loss.
    pub train_loss_bits: Option<u64>,
}

json_struct!(MemberResultDto { candidate, name, accuracy_bits, train_loss_bits });

#[derive(Debug, Clone)]
struct TrainResponseHeader {
    version: u64,
    unit_index: u64,
    busy_secs_bits: u64,
    flops_bits: u64,
    members: Vec<MemberResultDto>,
    trained_len: u64,
}

json_struct!(TrainResponseHeader {
    version,
    unit_index,
    busy_secs_bits,
    flops_bits,
    members,
    trained_len
});

/// A decoded `/work/train` request: the worker's full shard spec.
#[derive(Debug)]
pub struct TrainRequest {
    /// Execution strategy (parsed from its wire label).
    pub strategy: Strategy,
    /// Which training unit of the deterministic unit list to run.
    pub unit_index: usize,
    /// The chosen materialized set `V`, as merged-node indices.
    pub v: BTreeSet<MNodeId>,
    /// Full system configuration (identical on every participant).
    pub config: SystemConfig,
    /// The candidate workload, graphs restored bit-exactly.
    pub candidates: Vec<CandidateModel>,
    /// Accumulated training split.
    pub train: Dataset,
    /// Accumulated validation split.
    pub valid: Dataset,
    /// Materialized-feature chunks `(store key, tensor)`, in append order.
    pub features: Vec<(String, Tensor)>,
}

/// A decoded `/work/train` response.
#[derive(Debug)]
pub struct TrainResponse {
    /// Echo of the request's unit index.
    pub unit_index: usize,
    /// The worker backend's busy seconds, for `absorb_compute`.
    pub busy_secs: f64,
    /// The worker backend's executed FLOPs, for `absorb_compute`.
    pub flops: f64,
    /// Per-member training outcomes, metric bits restored exactly.
    pub members: Vec<MemberResult>,
    /// The trained plan graph (`None` only if training retained nothing).
    pub trained: Option<ModelGraph>,
}

fn frame(header: Json, sections: &[&[u8]]) -> Vec<u8> {
    let header_bytes = json::to_vec(&header);
    let payload: usize = sections.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(8 + header_bytes.len() + payload);
    out.extend_from_slice(&(header_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&header_bytes);
    for s in sections {
        out.extend_from_slice(s);
    }
    out
}

fn unframe(bytes: &[u8]) -> Result<(Json, &[u8]), ProtoError> {
    if bytes.len() < 8 {
        return Err(ProtoError::Frame("shorter than length prefix".into()));
    }
    let header_len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let rest = &bytes[8..];
    if rest.len() < header_len {
        return Err(ProtoError::Frame(format!(
            "header length {header_len} exceeds remaining {} bytes",
            rest.len()
        )));
    }
    let header = std::str::from_utf8(&rest[..header_len])
        .map_err(|e| ProtoError::Header(format!("not utf-8: {e}")))?;
    let header = Json::parse(header).map_err(|e| ProtoError::Header(e.to_string()))?;
    Ok((header, &rest[header_len..]))
}

fn take<'a>(payload: &mut &'a [u8], len: u64, what: &str) -> Result<&'a [u8], ProtoError> {
    let len = len as usize;
    if payload.len() < len {
        return Err(ProtoError::Frame(format!(
            "{what}: section of {len} bytes exceeds remaining {}",
            payload.len()
        )));
    }
    let (head, rest) = payload.split_at(len);
    *payload = rest;
    Ok(head)
}

fn check_version(version: u64) -> Result<(), ProtoError> {
    if version != WIRE_VERSION {
        return Err(ProtoError::Version { got: version });
    }
    Ok(())
}

/// Encodes a `/work/train` request body.
///
/// Section order after the JSON header: one checkpoint per candidate,
/// the dataset block (`train.inputs, train.labels, valid.inputs,
/// valid.labels` via [`ser::encode_many`]), then one encoded tensor per
/// feature chunk, in manifest order.
#[allow(clippy::too_many_arguments)]
pub fn encode_train_request(
    strategy: Strategy,
    unit_index: usize,
    v: &BTreeSet<MNodeId>,
    config: &SystemConfig,
    candidates: &[CandidateModel],
    data_block: &[u8],
    graph_blocks: &[Vec<u8>],
    features: &[(String, u64, Vec<u8>)],
) -> Vec<u8> {
    debug_assert_eq!(candidates.len(), graph_blocks.len());
    let cand_dtos: Vec<CandidateDto> = candidates
        .iter()
        .zip(graph_blocks)
        .map(|(c, g)| CandidateDto {
            name: c.name.clone(),
            hyper: c.hyper.clone(),
            task: c.task,
            graph_len: g.len() as u64,
        })
        .collect();
    let feat_dtos: Vec<FeatureChunkDto> = features
        .iter()
        .map(|(key, records, bytes)| FeatureChunkDto {
            key: key.clone(),
            records: *records,
            len: bytes.len() as u64,
        })
        .collect();
    let header = TrainRequestHeader {
        version: WIRE_VERSION,
        strategy: strategy.label().to_string(),
        unit_index: unit_index as u64,
        v: v.iter().map(|m| m.index() as u64).collect(),
        config: config.clone(),
        candidates: cand_dtos,
        data_len: data_block.len() as u64,
        features: feat_dtos,
    };
    let mut sections: Vec<&[u8]> = graph_blocks.iter().map(|g| g.as_slice()).collect();
    sections.push(data_block);
    for (_, _, bytes) in features {
        sections.push(bytes);
    }
    frame(header.to_json(), &sections)
}

/// Encodes the shared dataset block shipped with every shard.
pub fn encode_data_block(train: &Dataset, valid: &Dataset) -> Vec<u8> {
    ser::encode_many(&[
        train.inputs.clone(),
        train.labels.clone(),
        valid.inputs.clone(),
        valid.labels.clone(),
    ])
}

/// Decodes a `/work/train` request body back into domain types.
pub fn decode_train_request(bytes: &[u8]) -> Result<TrainRequest, ProtoError> {
    let (header, mut payload) = unframe(bytes)?;
    let header =
        TrainRequestHeader::from_json(&header).map_err(|e| ProtoError::Header(e.to_string()))?;
    check_version(header.version)?;
    let strategy = Strategy::from_label(&header.strategy)
        .ok_or_else(|| ProtoError::Header(format!("unknown strategy '{}'", header.strategy)))?;

    let mut candidates = Vec::with_capacity(header.candidates.len());
    for dto in &header.candidates {
        let block = take(&mut payload, dto.graph_len, "candidate checkpoint")?;
        let graph = checkpoint::load_from_bytes(block)
            .map_err(|e| ProtoError::Payload(format!("candidate '{}': {e}", dto.name)))?;
        candidates.push(CandidateModel {
            name: dto.name.clone(),
            graph,
            hyper: dto.hyper.clone(),
            task: dto.task,
        });
    }

    let data_block = take(&mut payload, header.data_len, "dataset block")?;
    let tensors =
        ser::decode_many(data_block).map_err(|e| ProtoError::Payload(format!("datasets: {e}")))?;
    let [ti, tl, vi, vl]: [Tensor; 4] = tensors
        .try_into()
        .map_err(|t: Vec<Tensor>| ProtoError::Payload(format!("expected 4 tensors, got {}", t.len())))?;
    let train =
        Dataset::new(ti, tl).map_err(|e| ProtoError::Payload(format!("train split: {e}")))?;
    let valid =
        Dataset::new(vi, vl).map_err(|e| ProtoError::Payload(format!("valid split: {e}")))?;

    let mut features = Vec::with_capacity(header.features.len());
    for dto in &header.features {
        let block = take(&mut payload, dto.len, "feature chunk")?;
        let tensor = ser::decode(block)
            .map_err(|e| ProtoError::Payload(format!("feature chunk '{}': {e}", dto.key)))?;
        features.push((dto.key.clone(), tensor));
    }
    if !payload.is_empty() {
        return Err(ProtoError::Frame(format!("{} trailing bytes", payload.len())));
    }

    Ok(TrainRequest {
        strategy,
        unit_index: header.unit_index as usize,
        v: header.v.iter().map(|&i| MNodeId(i as usize)).collect(),
        config: header.config,
        candidates,
        train,
        valid,
        features,
    })
}

/// Encodes a `/work/train` response body.
pub fn encode_train_response(
    unit_index: usize,
    busy_secs: f64,
    flops: f64,
    members: &[MemberResult],
    trained: Option<&ModelGraph>,
) -> Vec<u8> {
    let trained_block = trained.map(checkpoint::save_to_bytes).unwrap_or_default();
    let header = TrainResponseHeader {
        version: WIRE_VERSION,
        unit_index: unit_index as u64,
        busy_secs_bits: busy_secs.to_bits(),
        flops_bits: flops.to_bits(),
        members: members
            .iter()
            .map(|m| MemberResultDto {
                candidate: m.candidate as u64,
                name: m.name.clone(),
                accuracy_bits: m.accuracy.map(|a| a.to_bits() as u64),
                train_loss_bits: m.train_loss.map(|l| l.to_bits() as u64),
            })
            .collect(),
        trained_len: trained_block.len() as u64,
    };
    frame(header.to_json(), &[&trained_block])
}

/// Decodes a `/work/train` response body.
pub fn decode_train_response(bytes: &[u8]) -> Result<TrainResponse, ProtoError> {
    let (header, mut payload) = unframe(bytes)?;
    let header =
        TrainResponseHeader::from_json(&header).map_err(|e| ProtoError::Header(e.to_string()))?;
    check_version(header.version)?;
    let trained = if header.trained_len > 0 {
        let block = take(&mut payload, header.trained_len, "trained checkpoint")?;
        Some(
            checkpoint::load_from_bytes(block)
                .map_err(|e| ProtoError::Payload(format!("trained graph: {e}")))?,
        )
    } else {
        None
    };
    if !payload.is_empty() {
        return Err(ProtoError::Frame(format!("{} trailing bytes", payload.len())));
    }
    Ok(TrainResponse {
        unit_index: header.unit_index as usize,
        busy_secs: f64::from_bits(header.busy_secs_bits),
        flops: f64::from_bits(header.flops_bits),
        members: header
            .members
            .iter()
            .map(|m| MemberResult {
                candidate: m.candidate as usize,
                name: m.name.clone(),
                accuracy: m.accuracy_bits.map(|b| f32::from_bits(b as u32)),
                train_loss: m.train_loss_bits.map(|b| f32::from_bits(b as u32)),
            })
            .collect(),
        trained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_round_trips_metric_bits_exactly() {
        // Awkward floats whose decimal representations don't round-trip
        // at low precision — the bit transport must not care.
        let members = vec![
            MemberResult {
                candidate: 2,
                name: "m2".into(),
                accuracy: Some(f32::from_bits(0x3f7f_ffff)),
                train_loss: Some(0.1f32 + 0.2f32),
            },
            MemberResult { candidate: 0, name: "m0".into(), accuracy: None, train_loss: None },
        ];
        let busy = 1.0 / 3.0;
        let flops = f64::from_bits(1.23456789e12_f64.to_bits() + 1);
        let bytes = encode_train_response(7, busy, flops, &members, None);
        let back = decode_train_response(&bytes).unwrap();
        assert_eq!(back.unit_index, 7);
        assert_eq!(back.busy_secs.to_bits(), busy.to_bits());
        assert_eq!(back.flops.to_bits(), flops.to_bits());
        assert_eq!(back.members.len(), 2);
        assert_eq!(
            back.members[0].accuracy.unwrap().to_bits(),
            members[0].accuracy.unwrap().to_bits()
        );
        assert_eq!(
            back.members[0].train_loss.unwrap().to_bits(),
            members[0].train_loss.unwrap().to_bits()
        );
        assert!(back.members[1].accuracy.is_none());
        assert!(back.trained.is_none());
    }

    #[test]
    fn rejects_foreign_versions_and_damaged_frames() {
        let bytes = encode_train_response(0, 0.0, 0.0, &[], None);
        // Flip the version inside the JSON header.
        let tampered = String::from_utf8(bytes[8..].to_vec())
            .unwrap()
            .replacen(&format!("\"version\":{WIRE_VERSION}"), "\"version\":999", 1);
        let mut raw = ((tampered.len()) as u64).to_le_bytes().to_vec();
        raw.extend_from_slice(tampered.as_bytes());
        match decode_train_response(&raw) {
            Err(ProtoError::Version { got: 999 }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        // Truncations fail cleanly at every prefix length.
        let ok = encode_train_response(0, 1.5, 2.5, &[], None);
        for n in 0..ok.len() {
            assert!(decode_train_response(&ok[..n]).is_err(), "prefix {n} must fail");
        }
    }
}
