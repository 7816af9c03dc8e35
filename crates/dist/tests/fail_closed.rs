//! Both halves of the plane fail closed on what the other half sends: a
//! worker rejects shipped inputs that would index past the plan, and the
//! coordinator never folds a reply for a unit it did not lease.

use nautilus_core::multimodel::MNodeId;
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{Strategy, SystemConfig};
use nautilus_dist::{proto, run_search, run_worker, DistError, DistJob, WorkerOptions};
use nautilus_dnn::checkpoint;
use nautilus_util::http::{self, Limits, Request, Response};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nautilus-dist-fc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn job(n_candidates: usize) -> DistJob {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(n_candidates);
    let (train, valid) = spec.ner_config().generate(12).split_at(8);
    DistJob {
        candidates,
        config: SystemConfig::tiny(),
        strategy: Strategy::Nautilus,
        train,
        valid,
    }
}

#[test]
fn worker_rejects_out_of_range_v_and_empty_candidates_with_422() {
    let dir = scratch("worker");
    let handle = run_worker(WorkerOptions {
        workdir: dir.clone(),
        ..WorkerOptions::default()
    })
    .expect("worker binds");
    let addr = handle.addr().to_string();
    let job = job(1);
    let data = proto::encode_data_block(&job.train, &job.valid);
    let graphs: Vec<Vec<u8>> =
        job.candidates.iter().map(|c| checkpoint::save_to_bytes(&c.graph)).collect();
    let timeout = Duration::from_secs(30);

    let far_v: BTreeSet<MNodeId> = [MNodeId(10_000)].into_iter().collect();
    let hostile_v = proto::encode_train_request(
        job.strategy, 0, &far_v, &job.config, &job.candidates, &data, &graphs, &[],
    );
    let no_candidates = proto::encode_train_request(
        job.strategy, 0, &BTreeSet::new(), &job.config, &[], &data, &[], &[],
    );
    for (what, body) in [("V index 10000", hostile_v), ("zero candidates", no_candidates)] {
        let (status, _) = http::request(&addr, "POST", "/work/train", Some(&body), timeout)
            .expect("worker answers");
        assert_eq!(status, 422, "{what}");
    }
    let (status, _) = http::request(&addr, "GET", "/healthz", None, timeout).expect("healthz");
    assert_eq!(status, 200, "the handler survived both requests");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_never_folds_a_reply_for_another_unit() {
    let dir = scratch("coord");
    // A confused worker: healthy, but answers every shard with a
    // well-formed response for the next unit.
    let handler = |req: &Request| match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "text/plain", "ok"),
        ("POST", "/work/probe") => Response::text(200, "application/octet-stream", req.body.clone()),
        ("POST", "/work/train") => match proto::decode_train_request(&req.body) {
            Ok(spec) => Response::text(
                200,
                "application/octet-stream",
                proto::encode_train_response(spec.unit_index + 1, 0.0, 0.0, &[], None),
            ),
            Err(e) => Response::error(400, &e.to_string()),
        },
        _ => Response::error(404, "unknown route"),
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let limits = Limits { max_head_bytes: 16 * 1024, max_body_bytes: 256 << 20 };
    let fake = http::serve(listener, limits, Duration::from_secs(30), 2, Arc::new(handler))
        .expect("fake worker serves");

    let mut job = job(1);
    job.config = job
        .config
        .into_builder()
        .dist_max_shard_retries(1)
        .dist_retry_backoff_ms(1)
        .build();
    match run_search(&job, &[fake.addr().to_string()], &dir.join("coord")) {
        Err(DistError::ShardFailed { unit: 0, attempts: 2, last }) => {
            assert!(last.contains("does not match leased unit 0"), "{last}");
        }
        other => panic!("expected ShardFailed and no report, got {other:?}"),
    }
    fake.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
