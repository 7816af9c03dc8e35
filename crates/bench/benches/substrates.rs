//! Micro-benchmarks for the substrates: tensor kernels, the
//! store with its page-cache ablation, and real training steps.

use nautilus_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nautilus_core::backend::{Backend, BackendKind};
use nautilus_core::config::HardwareProfile;
use nautilus_dnn::exec::{backward, forward, BatchInputs};
use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
use nautilus_models::BuildScale;
use nautilus_store::{SharedIoStats, TensorStore};
use nautilus_tensor::init::{randn, seeded_rng};
use nautilus_tensor::ops::{conv2d, matmul, softmax_last};
use nautilus_tensor::Tensor;
use std::collections::HashMap;

fn bench_tensor_kernels(c: &mut Criterion) {
    let mut rng = seeded_rng(1);
    let mut group = c.benchmark_group("tensor");
    for n in [32usize, 64, 128] {
        let a = randn([n, n], 1.0, &mut rng);
        let b = randn([n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| matmul(&a, &b).unwrap())
        });
    }
    let img = randn([4, 8, 16, 16], 1.0, &mut rng);
    let w = randn([16, 8, 3, 3], 0.1, &mut rng);
    let bias = Tensor::zeros([16]);
    group.bench_function("conv2d/4x8x16x16", |bch| {
        bch.iter(|| conv2d(&img, &w, &bias, 1, 1).unwrap())
    });
    let x = randn([64, 128], 1.0, &mut rng);
    group.bench_function("softmax/64x128", |bch| bch.iter(|| softmax_last(&x)));
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    // Sequential-vs-pooled baseline for the shared work-stealing pool, at
    // sizes past the parallel-dispatch threshold. `with_parallelism_limit(1)`
    // forces inline execution of the identical kernel, so the pair isolates
    // pool dispatch + parallel speedup; outputs are bit-identical by the
    // pool's determinism contract.
    use nautilus_tensor::ops::{matmul_ex, MatmulSpec};
    use nautilus_util::pool;
    let mut rng = seeded_rng(7);
    let mut group = c.benchmark_group("pool");
    let a = randn([128, 256], 1.0, &mut rng);
    let b = randn([256, 256], 1.0, &mut rng);
    group.bench_function("matmul_seq/128x256x256", |bch| {
        bch.iter(|| pool::with_parallelism_limit(1, || matmul_ex(&a, &b, MatmulSpec::plain()).unwrap()))
    });
    group.bench_function("matmul_pooled/128x256x256", |bch| {
        bch.iter(|| matmul_ex(&a, &b, MatmulSpec::plain()).unwrap())
    });
    // A MiniResNet-scale convolution: 8-image batch, 16->32 channels, 32x32.
    let img = randn([8, 16, 32, 32], 1.0, &mut rng);
    let w = randn([32, 16, 3, 3], 0.1, &mut rng);
    let bias = Tensor::zeros([32]);
    group.bench_function("conv2d_seq/8x16x32x32", |bch| {
        bch.iter(|| pool::with_parallelism_limit(1, || conv2d(&img, &w, &bias, 1, 1).unwrap()))
    });
    group.bench_function("conv2d_pooled/8x16x32x32", |bch| {
        bch.iter(|| conv2d(&img, &w, &bias, 1, 1).unwrap())
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    // Blocked-vs-naive kernel quality gate. Both sides run single-task
    // (`gemm_serial` / `gemm_naive`) so the ratio measures the packed
    // microkernel against the triple loop, not pool parallelism.
    // scripts/verify.sh requires blocked >= 1.5x naive at n >= 256.
    use nautilus_tensor::ops::gemm::{self, MatRef};
    let mut rng = seeded_rng(13);
    let mut group = c.benchmark_group("gemm");
    group.sample_size(15);
    for n in [64usize, 256, 512] {
        let a = randn([n, n], 1.0, &mut rng).into_vec();
        let b = randn([n, n], 1.0, &mut rng).into_vec();
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| {
                out.fill(0.0);
                gemm::gemm_naive(n, n, n, MatRef::row_major(&a, n), MatRef::row_major(&b, n), &mut out);
            })
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| {
                out.fill(0.0);
                gemm::gemm_serial(n, n, n, MatRef::row_major(&a, n), MatRef::row_major(&b, n), &mut out);
            })
        });
    }
    group.finish();
}

fn bench_gemm_census(c: &mut Criterion) {
    // The engine against the naive loop, single task on the resolved kernel,
    // at the products the five benchmark workloads run: the FTR-2 tiny block
    // (96 rows = 8 records x 12 tokens) in all four transpose forms and its
    // attention heads, the batch-folded MiniResNet lowering at three stages
    // (forward `W·panel`, `Wᵀ·dY`, per-image `dY_n·col_nᵀ`) and its batch-4
    // head, and the serving tier's single-record and one-request products.
    // The naive column is `gemm::gemm_naive` as written — the loop
    // `matmul_ex` keeps for safe-kernel row vectors (m < MR). Against a
    // transposed operand it strides, so the `nt`/`tt` rows time that strided
    // loop, not a transpose-once naive kernel. Labels are
    // `{workload}/{m}x{k}x{n}/{form}`, `t` marking a transposed operand.
    use nautilus_tensor::ops::gemm::{self, MatRef};
    let mut rng = seeded_rng(37);
    let mut group = c.benchmark_group("gemm_census");
    let (nn, tn, nt, tt) = ((false, false), (true, false), (false, true), (true, true));
    let mut products = Vec::new();
    for (m, k, n) in [(96usize, 32usize, 32usize), (96, 32, 64)] {
        for form in [nn, tn, nt, tt] {
            products.push(("ftr2", m, k, n, form));
        }
    }
    products.extend([
        ("ftr2_head", 12, 8, 12, nt),
        ("ftr2_head", 12, 12, 8, nn),
        ("ftu_fwd", 8, 72, 768, nn),
        ("ftu_wtdy", 72, 8, 768, tn),
        ("ftu_dw", 8, 256, 72, nt),
        ("ftu_fwd", 16, 144, 256, nn),
        ("ftu_wtdy", 144, 16, 256, tn),
        ("ftu_dw", 16, 64, 144, nt),
        ("ftu_fwd", 32, 288, 32, nn),
        ("ftu_wtdy", 288, 32, 32, tn),
        ("ftu_dw", 32, 4, 288, nt),
        ("ftu_head", 4, 32, 10, nn),
        ("ftu_head", 4, 10, 32, nt),
        ("serve", 1, 32, 32, nn),
        ("serve", 1, 48, 96, nn),
        ("serve", 16, 48, 48, nn),
    ]);
    for (workload, m, k, n, (ta, tb)) in products {
        let a = randn([m * k], 1.0, &mut rng).into_vec();
        let b = randn([k * n], 1.0, &mut rng).into_vec();
        let av = if ta { MatRef::transposed(&a, m) } else { MatRef::row_major(&a, k) };
        let bv = if tb { MatRef::transposed(&b, k) } else { MatRef::row_major(&b, n) };
        let form = [ta, tb].map(|t| if t { "t" } else { "n" }).concat();
        let label = format!("{workload}/{m}x{k}x{n}/{form}");
        let mut out = vec![0.0f32; m * n];
        group.bench_function(format!("engine/{label}"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                gemm::gemm_serial(m, k, n, av, bv, &mut out);
            })
        });
        group.bench_function(format!("naive/{label}"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                gemm::gemm_naive(m, k, n, av, bv, &mut out);
            })
        });
    }
    group.finish();
}

fn bench_gemm_fma(c: &mut Criterion) {
    // Explicit-FMA microkernel vs the portable safe kernel, both serial so
    // the ratio isolates the register kernel + blocking, not the pool.
    // scripts/verify.sh gates fma >= 1.3x safe at 512^3 via
    // results/BENCH_gemm_fma.json; the fma side is only registered when
    // the host has AVX2+FMA (the gate skips when the id is absent).
    use nautilus_tensor::ops::gemm::{self, KernelKind, MatRef};
    let mut rng = seeded_rng(29);
    let n = 512usize;
    let a = randn([n, n], 1.0, &mut rng).into_vec();
    let b = randn([n, n], 1.0, &mut rng).into_vec();
    let mut out = vec![0.0f32; n * n];
    let mut group = c.benchmark_group("gemm_fma");
    group.sample_size(15);
    group.bench_with_input(BenchmarkId::new("safe", n), &n, |bch, _| {
        bch.iter(|| {
            out.fill(0.0);
            gemm::gemm_serial_with(
                KernelKind::Safe,
                n,
                n,
                n,
                MatRef::row_major(&a, n),
                MatRef::row_major(&b, n),
                &mut out,
            );
        })
    });
    if gemm::fma_supported() {
        group.bench_with_input(BenchmarkId::new("fma", n), &n, |bch, _| {
            bch.iter(|| {
                out.fill(0.0);
                gemm::gemm_serial_with(
                    KernelKind::Fma,
                    n,
                    n,
                    n,
                    MatRef::row_major(&a, n),
                    MatRef::row_major(&b, n),
                    &mut out,
                );
            })
        });
    }
    group.finish();
}

fn bench_int8(c: &mut Criterion) {
    // f32 vs int8 row-quantized serving forward on an MLP at micro-batch
    // scale. Per-record work sits below the parallel-dispatch threshold
    // (the serving regime), so f32 runs the blocked engine on one thread
    // while int8 runs the i32-accumulate dot kernels over 4x-smaller weights.
    // Both run the one serving entry over one group, differing only in the
    // group's int8 form. scripts/verify.sh gates int8 >= 1.2x f32 via
    // results/BENCH_int8.json.
    use nautilus_dnn::exec::{forward_batch_shared_trunk, TrunkGroup};
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::{Activation, LayerKind};
    use nautilus_dnn::quant::QuantizedModel;
    use nautilus_dnn::ModelGraph;

    const IN: usize = 256;
    const HIDDEN: usize = 256;
    const OUT: usize = 32;
    const BATCH: usize = 8;

    let mut rng = seeded_rng(31);
    let mut g = ModelGraph::new();
    let inp = g.add_input("features", [IN]);
    let hidden = g
        .add_layer(
            "hidden",
            LayerKind::Dense { in_dim: IN, out_dim: HIDDEN, act: Activation::Relu },
            &[inp],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    let head = g
        .add_layer(
            "head",
            LayerKind::Dense { in_dim: HIDDEN, out_dim: OUT, act: Activation::None },
            &[hidden],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    g.add_output(head).unwrap();
    let quant = QuantizedModel::from_graph(&g, None).unwrap();

    let stacked = randn([BATCH, IN], 1.0, &mut rng);
    let f32_group = [TrunkGroup { rows: BATCH, overrides: None, quant: None }];
    let int8_group = [TrunkGroup { rows: BATCH, overrides: None, quant: Some(&quant) }];
    let run = |groups: &[TrunkGroup<'_>]| {
        forward_batch_shared_trunk(&g, inp, head, stacked.clone(), groups).unwrap()
    };

    let mut group = c.benchmark_group("int8");
    group.bench_function("f32_forward/8", |b| b.iter(|| run(&f32_group)));
    group.bench_function("int8_forward/8", |b| b.iter(|| run(&int8_group)));
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    // The sequential direct reference loops vs the im2col + packed-GEMM
    // lowering `conv2d` runs, recorded for the verify report
    // (informational; the hard gate lives on `gemm`).
    use nautilus_tensor::ops::conv::{conv2d, conv2d_direct};
    let mut rng = seeded_rng(17);
    let mut group = c.benchmark_group("conv");
    group.sample_size(15);
    for (b, ci, co, hw) in [(4usize, 8usize, 16usize, 16usize), (8, 16, 32, 32)] {
        let label = format!("{b}x{ci}x{hw}x{hw}");
        let img = randn([b, ci, hw, hw], 1.0, &mut rng);
        let w = randn([co, ci, 3, 3], 0.1, &mut rng);
        let bias = Tensor::zeros([co]);
        group.bench_function(format!("direct/{label}"), |bch| {
            bch.iter(|| conv2d_direct(&img, &w, &bias, 1, 1).unwrap())
        });
        group.bench_function(format!("im2col/{label}"), |bch| {
            bch.iter(|| conv2d(&img, &w, &bias, 1, 1).unwrap())
        });
    }
    group.finish();
}

fn bench_conv_batch(c: &mut Criterion) {
    // The convolutions of a MiniResNet fine-tuning step (3x3, pad 1), at the
    // trainer's mini-batch sizes and pool width 1: few output positions per
    // image (256 down to 4), so what is measured is how well the lowering
    // fills GEMM tiles across the batch. Informational; the end-to-end
    // number is the benchmark's `ftu_nautilus`.
    use nautilus_tensor::ops::conv2d_backward;
    use nautilus_util::pool;
    let mut rng = seeded_rng(18);
    let mut group = c.benchmark_group("conv_batch");
    for (ci, co, hw, stride) in
        [(8usize, 8usize, 16usize, 1usize), (16, 16, 8, 1), (24, 24, 4, 1), (24, 32, 4, 2), (32, 32, 2, 1)]
    {
        for b in [4usize, 8] {
            let s2 = if stride == 2 { "s2" } else { "" };
            let label = format!("{ci}to{co}_{hw}x{hw}{s2}/b{b}");
            let img = randn([b, ci, hw, hw], 1.0, &mut rng);
            let w = randn([co, ci, 3, 3], 0.1, &mut rng);
            let bias = randn([co], 0.1, &mut rng);
            let dout = conv2d(&img, &w, &bias, stride, 1).unwrap();
            group.bench_function(format!("forward/{label}"), |bch| {
                bch.iter(|| pool::with_parallelism_limit(1, || conv2d(&img, &w, &bias, stride, 1).unwrap()))
            });
            group.bench_function(format!("backward/{label}"), |bch| {
                bch.iter(|| {
                    pool::with_parallelism_limit(1, || conv2d_backward(&img, &w, &dout, stride, 1).unwrap())
                })
            });
        }
    }
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    // Disabled-path overhead gate: a span around a small kernel must cost
    // no more than the untraced kernel (one relaxed atomic load), and the
    // enabled path is measured for the record. scripts/verify.sh compares
    // untraced vs span_disabled minima.
    use nautilus_util::telemetry;
    let mut rng = seeded_rng(11);
    let a = randn([32, 32], 1.0, &mut rng);
    let b = randn([32, 32], 1.0, &mut rng);
    let mut group = c.benchmark_group("telemetry");
    telemetry::disable();
    group.bench_function("untraced/matmul32", |bch| bch.iter(|| matmul(&a, &b).unwrap()));
    group.bench_function("span_disabled/matmul32", |bch| {
        bch.iter(|| {
            let _sp = telemetry::span("bench", "bench.work");
            matmul(&a, &b).unwrap()
        })
    });
    telemetry::enable();
    group.bench_function("span_enabled/matmul32", |bch| {
        bch.iter(|| {
            let _sp = telemetry::span("bench", "bench.work");
            matmul(&a, &b).unwrap()
        })
    });
    telemetry::disable();
    telemetry::reset();
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(20);
    let root = std::env::temp_dir().join(format!("nautilus-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut store = TensorStore::open(&root, SharedIoStats::new()).unwrap();
    let mut rng = seeded_rng(2);
    let batch = randn([64, 32, 32], 1.0, &mut rng);
    store.append_many(&[("warm".to_string(), batch.clone())]).unwrap();
    let mut item = [(String::new(), batch)];
    group.bench_function("append/64x32x32", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            item[0].0 = format!("k{i}");
            store.append_many(&item).unwrap()
        })
    });
    group.bench_function("scan/64x32x32", |b| b.iter(|| store.read_all("warm").unwrap()));
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_pagecache_ablation(c: &mut Criterion) {
    // MAT-ALL's repeated epoch reads: with a cache that fits the working
    // set vs one that thrashes (the Fig 6A mechanism), through the store's
    // ledger of modeled 4 MiB chunks and the simulated clock over it.
    let mut group = c.benchmark_group("pagecache_epoch_reads");
    for (label, cache_bytes) in [("fits", 1u64 << 30), ("thrashes", 1u64 << 20)] {
        let root = std::env::temp_dir()
            .join(format!("nautilus-bench-pagecache-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let hw = HardwareProfile { page_cache_bytes: cache_bytes, ..Default::default() };
        let backend = Backend::new(BackendKind::Simulated, hw, SharedIoStats::new());
        let mut store = TensorStore::open(&root, backend.io.clone()).unwrap();
        store.set_page_cache_bytes(cache_bytes);
        let keys: Vec<String> = (0..8).map(|k| format!("feat{k}")).collect();
        let items: Vec<_> = keys.iter().map(|k| (k.clone(), vec![1 << 10], 1 << 10)).collect();
        store.append_modeled(&items).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                for _epoch in 0..5 {
                    for k in &keys {
                        store.scan(k).unwrap();
                    }
                }
                backend.elapsed_secs()
            })
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }
    group.finish();
}

fn bench_serve(c: &mut Criterion) {
    use nautilus_dnn::exec::forward_batch;
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::{Activation, LayerKind};
    use nautilus_dnn::ModelGraph;

    // The shape a micro-batched serving forward pass sees: an MLP head of
    // the size `export_best` produces for small feature-transfer models.
    // Per-record work sits below the parallel-dispatch threshold, so the
    // batched-vs-unbatched ratio measures per-forward overhead
    // amortization (graph walk, allocation, dispatch), not parallelism —
    // which is exactly the win the micro-batcher exists to capture.
    const IN: usize = 16;
    const HIDDEN: usize = 16;
    const OUT: usize = 4;
    const BATCH: usize = 8;

    let mut rng = seeded_rng(9);
    let mut g = ModelGraph::new();
    let inp = g.add_input("features", [IN]);
    let hidden = g
        .add_layer(
            "hidden",
            LayerKind::Dense { in_dim: IN, out_dim: HIDDEN, act: Activation::Relu },
            &[inp],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    let head = g
        .add_layer(
            "head",
            LayerKind::Dense { in_dim: HIDDEN, out_dim: OUT, act: Activation::None },
            &[hidden],
            false,
            ParamInit::Seeded(&mut rng),
        )
        .unwrap();
    g.add_output(head).unwrap();

    let records: Vec<Vec<f32>> =
        (0..BATCH).map(|_| randn([IN], 1.0, &mut rng).data().to_vec()).collect();
    let singles: Vec<BatchInputs> = records
        .iter()
        .map(|r| {
            let mut bi = BatchInputs::new();
            bi.insert(inp, Tensor::from_vec([1, IN], r.clone()).unwrap());
            bi
        })
        .collect();
    let mut stacked = BatchInputs::new();
    stacked.insert(
        inp,
        Tensor::from_vec([BATCH, IN], records.iter().flatten().copied().collect::<Vec<f32>>())
            .unwrap(),
    );

    let mut group = c.benchmark_group("serve");
    group.bench_function("unbatched/8", |b| {
        b.iter(|| {
            for bi in &singles {
                forward_batch(&g, bi, 1).unwrap();
            }
        })
    });
    group.bench_function("batched/8", |b| {
        b.iter(|| forward_batch(&g, &stacked, BATCH).unwrap())
    });
    group.finish();
}

fn bench_multitenant(c: &mut Criterion) {
    use nautilus_dnn::exec::{forward_batch, forward_batch_shared_trunk, ParamOverrides, TrunkGroup};
    use nautilus_models::personalize;
    use nautilus_util::rng::Rng;
    use std::sync::Arc;

    // The multi-tenant serving batch shape: 16 adapter variants of one
    // frozen base at the scale a serving head sees (per-record work below
    // the parallel-dispatch threshold, so per-forward overhead matters —
    // the same regime as the `serve` gate). `solo/16` walks each tenant's
    // full standalone graph; `shared_trunk/16` runs the frozen trunk once
    // over the 16-row union batch and only the per-tenant adapter/head
    // suffixes separately — the serving dual of FUSE. scripts/verify.sh
    // gates shared_trunk faster than solo via
    // results/BENCH_multitenant.json.
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::{Activation, LayerKind};
    use nautilus_dnn::ModelGraph;

    const TENANTS: usize = 16;
    const DIM: usize = 32;
    let mut grng = seeded_rng(19);
    let mut template = ModelGraph::new();
    let inp = template.add_input("features", [DIM]);
    let mut prev = inp;
    for i in 0..6 {
        prev = template
            .add_layer(
                &format!("trunk{i}"),
                LayerKind::Dense { in_dim: DIM, out_dim: DIM, act: Activation::Gelu },
                &[prev],
                true,
                ParamInit::Seeded(&mut grng),
            )
            .unwrap();
    }
    let ad = template
        .add_layer(
            "adapter",
            LayerKind::Adapter { dim: DIM, bottleneck: 4 },
            &[prev],
            false,
            ParamInit::Seeded(&mut grng),
        )
        .unwrap();
    let head = template
        .add_layer(
            "head",
            LayerKind::Dense { in_dim: DIM, out_dim: 4, act: Activation::None },
            &[ad],
            false,
            ParamInit::Seeded(&mut grng),
        )
        .unwrap();
    template.add_output(head).unwrap();

    let variants: Vec<_> =
        (0..TENANTS as u64).map(|t| personalize(&template, t).unwrap()).collect();
    let input = template.input_ids()[0];
    let output = template.outputs()[0];

    let mut rng = seeded_rng(23);
    let records: Vec<Vec<f32>> = (0..TENANTS)
        .map(|_| (0..DIM).map(|_| rng.gen_f32() * 2.0 - 1.0).collect())
        .collect();
    let singles: Vec<BatchInputs> = records
        .iter()
        .map(|r| {
            let mut bi = BatchInputs::new();
            bi.insert(input, Tensor::from_vec([1, DIM], r.clone()).unwrap());
            bi
        })
        .collect();
    let stacked = Tensor::from_vec(
        [TENANTS, DIM],
        records.iter().flatten().copied().collect::<Vec<f32>>(),
    )
    .unwrap();
    let overrides: Vec<ParamOverrides> = variants
        .iter()
        .map(|v| {
            v.ids()
                .filter(|&id| v.node(id).trainable())
                .map(|id| (id, Arc::new(v.node(id).params.clone())))
                .collect()
        })
        .collect();
    let groups: Vec<TrunkGroup> =
        overrides.iter().map(|o| TrunkGroup { rows: 1, overrides: Some(o), quant: None }).collect();

    let mut group = c.benchmark_group("multitenant");
    group.sample_size(15);
    group.bench_function("solo/16", |b| {
        b.iter(|| {
            for (v, bi) in variants.iter().zip(&singles) {
                forward_batch(v, bi, 1).unwrap();
            }
        })
    });
    group.bench_function("shared_trunk/16", |b| {
        b.iter(|| {
            forward_batch_shared_trunk(&template, input, output, stacked.clone(), &groups)
                .unwrap()
        })
    });
    group.finish();
}

/// One transformer block alone, at the two shapes the end-to-end benchmark
/// spends its time in: inference forward, training forward (caches kept)
/// and backward. This is where a change to the block's non-GEMM half —
/// bias broadcasts, the attention core, GELU — shows layer by layer.
fn bench_block(c: &mut Criterion) {
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::LayerKind;
    use nautilus_dnn::ModelGraph;

    let mut group = c.benchmark_group("block");
    // (label, batch, seq, dim, heads, ff): an FTR-2 tiny training batch, and
    // one request against the serving benchmark's adapter model.
    for (label, b, s, dim, heads, ff) in
        [("ftr2_8x12x32", 8usize, 12usize, 32usize, 4usize, 64usize), ("serve_1x16x48", 1, 16, 48, 4, 96)]
    {
        let mut rng = seeded_rng(14);
        let mut g = ModelGraph::new();
        let inp = g.add_input("x", [s, dim]);
        let block = g
            .add_layer(
                "block",
                LayerKind::TransformerBlock { dim, heads, ff_dim: ff },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(block).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([b, s, dim], 1.0, &mut rng));
        let dout = randn([b, s, dim], 1.0, &mut rng);

        group.bench_function(format!("forward/{label}"), |bch| {
            bch.iter(|| forward(&g, &inputs, false).unwrap())
        });
        group.bench_function(format!("forward_training/{label}"), |bch| {
            bch.iter(|| forward(&g, &inputs, true).unwrap())
        });
        let fwd = forward(&g, &inputs, true).unwrap();
        group.bench_function(format!("backward/{label}"), |bch| {
            bch.iter(|| backward(&g, &fwd, HashMap::from([(block, dout.clone())])).unwrap())
        });
    }
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    let cfg = BertConfig::tiny(8, 40);
    let graph =
        feature_transfer_model(&cfg, FeatureStrategy::LastHidden, 5, BuildScale::Real).unwrap();
    let input = graph.input_ids()[0];
    let out = graph.outputs()[0];
    let mut rng = seeded_rng(3);
    use nautilus_util::rng::Rng;
    let ids: Vec<f32> = (0..8 * 8).map(|_| rng.gen_range(0..40) as f32).collect();
    let mut inputs = BatchInputs::new();
    inputs.insert(input, Tensor::from_vec([8, 8], ids).unwrap());
    let targets: Vec<i64> = (0..64).map(|i| (i % 5) as i64).collect();

    c.bench_function("train_step/tiny_bert_batch8", |b| {
        b.iter(|| {
            let fwd = forward(&graph, &inputs, true).unwrap();
            let (_, grad) =
                nautilus_tensor::ops::cross_entropy_logits(fwd.output(out), &targets).unwrap();
            let mut og = HashMap::new();
            og.insert(out, grad);
            backward(&graph, &fwd, og).unwrap()
        })
    });
    c.bench_function("inference/tiny_bert_batch8", |b| {
        b.iter(|| forward(&graph, &inputs, false).unwrap())
    });
}

criterion_group!(
    benches,
    bench_tensor_kernels,
    bench_gemm,
    bench_gemm_census,
    bench_gemm_fma,
    bench_int8,
    bench_conv,
    bench_conv_batch,
    bench_pool,
    bench_telemetry,
    bench_serve,
    bench_multitenant,
    bench_block,
    bench_store,
    bench_pagecache_ablation,
    bench_training_step
);
criterion_main!(benches);
