//! Failure injection: corrupted files must surface as typed errors, never
//! panics or silent bad data.

use nautilus_store::{SharedIoStats, StoreError, TensorStore};
use nautilus_tensor::Tensor;
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nautilus-failinj-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn find_chunk(root: &PathBuf) -> PathBuf {
    fn walk(dir: &PathBuf, out: &mut Vec<PathBuf>) {
        for e in std::fs::read_dir(dir).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.file_name().unwrap().to_string_lossy().starts_with("chunk-") {
                out.push(p);
            }
        }
    }
    let mut chunks = Vec::new();
    walk(root, &mut chunks);
    chunks.into_iter().next().expect("at least one chunk on disk")
}

#[test]
fn truncated_chunk_is_reported() {
    let root = temp_root("truncated");
    let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
    s.append_many(&[("k".to_string(), Tensor::ones([4, 8]))]).unwrap();
    let chunk = find_chunk(&root);
    let data = std::fs::read(&chunk).unwrap();
    std::fs::write(&chunk, &data[..data.len() / 2]).unwrap();
    match s.read_all("k") {
        Err(StoreError::BadChunk(_)) => {}
        other => panic!("expected BadChunk, got {other:?}"),
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn garbage_chunk_is_reported() {
    let root = temp_root("garbage");
    let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
    s.append_many(&[("k".to_string(), Tensor::ones([2, 2]))]).unwrap();
    let chunk = find_chunk(&root);
    std::fs::write(&chunk, b"not a tensor at all").unwrap();
    assert!(matches!(s.read_all("k"), Err(StoreError::BadChunk(_))));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn corrupted_manifest_fails_open() {
    let root = temp_root("manifest");
    {
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append_many(&[("k".to_string(), Tensor::ones([2, 2]))]).unwrap();
    }
    std::fs::write(root.join("manifest.json"), b"{ definitely not json").unwrap();
    assert!(matches!(
        TensorStore::open(&root, SharedIoStats::new()),
        Err(StoreError::BadManifest(_))
    ));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn missing_chunk_file_is_io_error() {
    let root = temp_root("missing");
    let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
    s.append_many(&[("k".to_string(), Tensor::ones([2, 2]))]).unwrap();
    std::fs::remove_file(find_chunk(&root)).unwrap();
    assert!(matches!(s.read_all("k"), Err(StoreError::Io(_))));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn corrupted_checkpoint_is_reported() {
    use nautilus_dnn::checkpoint;
    use nautilus_dnn::graph::{ModelGraph, ParamInit};
    use nautilus_dnn::layer::{Activation, LayerKind};
    let mut rng = nautilus_tensor::init::seeded_rng(1);
    let mut g = ModelGraph::new();
    let i = g.add_input("in", [4]);
    let o = g
        .add_layer(
            "head",
            LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
            &[i],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    g.add_output(o).unwrap();
    let root = temp_root("ckpt");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join("m.ckpt");
    checkpoint::save(&g, &path).unwrap();
    // Flip bytes in the JSON header region.
    let mut data = std::fs::read(&path).unwrap();
    for b in data.iter_mut().skip(12).take(16) {
        *b = b'#';
    }
    std::fs::write(&path, &data).unwrap();
    assert!(checkpoint::load(&path).is_err());
    std::fs::remove_dir_all(&root).unwrap();
}
