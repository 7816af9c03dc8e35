#!/usr/bin/env bash
# Hermetic verification: the workspace must build and test fully offline,
# and no crate may declare a registry (non-path) dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

# Guard: any of the former external dependencies reappearing in a manifest
# fails fast, before the (slower) build does.
banned='^(rand|serde|serde_json|proptest|criterion|crossbeam|parking_lot|bytes)[[:space:]]*='
if grep -rEn "$banned" --include=Cargo.toml .; then
    echo "error: banned external dependency declared above" >&2
    exit 1
fi

# Guard: every dependency in every manifest must be a path dependency
# (version-only or registry deps would require network access).
bad=0
while IFS= read -r manifest; do
    if python3 - "$manifest" <<'EOF'
import re, sys

path = sys.argv[1]
section = None
offenders = []
for line in open(path):
    stripped = line.strip()
    m = re.match(r'^\[(.+)\]$', stripped)
    if m:
        section = m.group(1)
        continue
    if section is None or not (
        section.endswith('dependencies') or section == 'workspace.dependencies'
    ):
        continue
    m = re.match(r'^([A-Za-z0-9_-]+)\s*=\s*(.+)$', stripped)
    if not m:
        continue
    name, spec = m.groups()
    if 'path' not in spec and 'workspace' not in spec:
        offenders.append(f'{path}: [{section}] {name} = {spec}')
if offenders:
    print('\n'.join(offenders))
    sys.exit(1)
EOF
    then :; else bad=1; fi
done < <(find . -name Cargo.toml -not -path './target/*')
if [ "$bad" -ne 0 ]; then
    echo "error: non-path dependencies declared above" >&2
    exit 1
fi

# Guard: the session, materializer and trainer run one path on both
# backends; only the device in `backend.rs` knows which one it is. Count the
# places outside it (and outside `#[cfg(test)]` modules) that still branch
# on the backend kind or on which kind of input a cycle carries. A site is
# a run of matching lines no more than 12 lines apart in one file (one
# `if` or `match`). Three are expected, each commented: `LocalUnits`'
# fan-out (the virtual clock is one timeline), the calibration probe, and
# where what the session stores meets its backend (an input's records, a
# checkpoint's bytes or modeled size).
max_backend_sites=3
backend_sites=$(
    for f in crates/core/src/*.rs; do
        [ "$f" = crates/core/src/backend.rs ] && continue
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /is_real\(\)|backend\.kind\(\)|BackendKind::|CycleInput::(Real|Virtual)|CycleDataView::/ {
                print f ":" FNR ":" $0 }' "$f"
    done
)
n_backend_sites=$(printf '%s\n' "$backend_sites" | awk -F: 'NF > 1 {
        if ($1 != file || $2 - line > 12) sites++
        file = $1; line = $2 }
    END { print sites + 0 }')
if [ "$n_backend_sites" -gt "$max_backend_sites" ]; then
    printf '%s\n' "$backend_sites" >&2
    echo "error: $n_backend_sites backend-kind decision sites in crates/core/src (max $max_backend_sites)" >&2
    exit 1
fi

# Guard: the feature store is the one IO ledger. No second page-cache model
# or IO charge may reappear in the session's crate, and only the store
# records into the shared IO counters.
if grep -rnE 'PageCacheModel|charge_read|charge_write' crates/core/src; then
    echo "error: a second IO ledger in crates/core/src (the feature store accounts IO)" >&2
    exit 1
fi
if grep -rnE '\brecord_(write|[a-z_]*read)\(' --include='*.rs' crates src tests benchmark/src \
    | grep -v '^crates/store/src/'; then
    echo "error: IO recorded outside crates/store/src (the feature store accounts IO)" >&2
    exit 1
fi

# Guard: the store owns no threads. Every read and write runs on the
# calling thread and is finished when the call returns.
if grep -rnE 'thread::(spawn|Builder)' crates/store/src; then
    echo "error: a thread spawned in crates/store/src (store I/O runs on the caller's thread)" >&2
    exit 1
fi

cargo build --release --offline
cargo test -q --offline

# Kernel-dispatch coverage: the GEMM property suite must pass under both
# kernel selections. `safe` re-proves the pinned deterministic path;
# `fma` exercises the AVX2/FMA microkernel against the same oracles (the
# differential test inside the suite compares the two directly). On
# hardware without AVX2+FMA the fma run is skipped — dispatch sanitizes
# the request down to `safe` there, so it would only repeat the first run.
# The fma leg also runs the dnn and serve unit tests: batch invariance per
# layer, the `forward_batch*` bit-identity tests and the batcher's
# union-batch == solo tests (f32 and int8 groups) must hold on the fused
# kernel too (tier-1 above proved them on `safe`).
NAUTILUS_GEMM_KERNEL=safe \
    cargo test -q --offline -p nautilus-tensor --test gemm_properties
if grep -qm1 avx2 /proc/cpuinfo && grep -qm1 fma /proc/cpuinfo; then
    NAUTILUS_GEMM_KERNEL=fma \
        cargo test -q --offline -p nautilus-tensor --test gemm_properties
    NAUTILUS_GEMM_KERNEL=fma \
        cargo test -q --offline -p nautilus-dnn --lib
    NAUTILUS_GEMM_KERNEL=fma \
        cargo test -q --offline -p nautilus-serve --lib
else
    echo "verify: skipping NAUTILUS_GEMM_KERNEL=fma property run (no AVX2+FMA)"
fi

# Pool perf baseline: quick-mode micro-bench of sequential vs pooled kernels
# at sizes past the parallel-dispatch threshold. Emits BENCH_pool.json and
# fails if the pooled path regresses past a noise allowance — on a 1-core
# runner the pool degrades to inline execution, so pooled must track
# sequential; on multi-core it must beat it.
# NAUTILUS_RESULTS must be absolute: cargo runs bench binaries from the
# package directory, not the workspace root. Filters match by substring,
# so `gemm` also selects the `gemm_census` group.
NAUTILUS_BENCH_SAMPLES=9 NAUTILUS_RESULTS="$PWD/results" \
    cargo bench --offline -p nautilus-bench --bench substrates -- gemm conv pool telemetry serve multitenant int8
python3 - results/bench-substrates.json results/BENCH_pool.json <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
results = {r["id"]: r for r in json.load(open(src))}

# Pooled may not be slower than sequential beyond measurement noise.
# (1-core runners execute both inline; real speedups show up only with
# more workers, so the gate is a no-regression bound, not a >=2x demand.)
# The check compares minimum samples — the noise-robust statistic for
# A/B timing on shared machines — while the emitted JSON records medians.
GRACE = 1.25
out, failed = {}, False
for bench, seq_id, pool_id in [
    ("matmul/128x256x256", "pool/matmul_seq/128x256x256", "pool/matmul_pooled/128x256x256"),
    ("conv2d/8x16x32x32", "pool/conv2d_seq/8x16x32x32", "pool/conv2d_pooled/8x16x32x32"),
]:
    seq, pooled = results[seq_id], results[pool_id]
    seq_min, pool_min = min(seq["samples_ns"]), min(pooled["samples_ns"])
    speedup = seq["median_ns"] / pooled["median_ns"] if pooled["median_ns"] else 0.0
    out[bench] = {
        "sequential_ns": seq["median_ns"],
        "pooled_ns": pooled["median_ns"],
        "sequential_min_ns": seq_min,
        "pooled_min_ns": pool_min,
        "speedup": round(speedup, 3),
    }
    status = "ok"
    if pool_min > seq_min * GRACE:
        status, failed = "REGRESSION", True
    print(f"pool gate: {bench}: seq {seq['median_ns']} ns, pooled {pooled['median_ns']} ns "
          f"(min {seq_min} vs {pool_min}), speedup {speedup:.2f}x [{status}]")
json.dump(out, open(dst, "w"), indent=2)
print(f"pool gate: wrote {dst}")
sys.exit(1 if failed else 0)
EOF

# GEMM kernel-quality gate: the cache-blocked packed kernel must beat the
# naive triple loop by >= 1.5x at 256 and 512 (both sides single-task, so
# the ratio is pure kernel quality, not pool parallelism). 64 is recorded
# for the report only. Which products keep the naive loop at run time is
# shape-keyed (safe-kernel row vectors, m < MR) and rests on the
# `gemm_census` rows of bench-substrates.json, not on this gate.
# Conv direct-vs-im2col numbers ride along as information.
python3 - results/bench-substrates.json results/BENCH_gemm.json <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
results = {r["id"]: r for r in json.load(open(src))}

REQUIRED = 1.5
out, failed = {}, False
for n, gated in [(64, False), (256, True), (512, True)]:
    naive, blocked = results[f"gemm/naive/{n}"], results[f"gemm/blocked/{n}"]
    naive_min, blocked_min = min(naive["samples_ns"]), min(blocked["samples_ns"])
    # Minimum samples: the noise-robust statistic for A/B timing; the
    # emitted JSON records medians alongside.
    speedup = naive_min / blocked_min if blocked_min else 0.0
    out[f"gemm/{n}"] = {
        "naive_ns": naive["median_ns"],
        "blocked_ns": blocked["median_ns"],
        "naive_min_ns": naive_min,
        "blocked_min_ns": blocked_min,
        "speedup": round(speedup, 3),
        "gated": gated,
    }
    status = "ok" if not gated else ("ok" if speedup >= REQUIRED else "TOO SLOW")
    if gated and speedup < REQUIRED:
        failed = True
    print(f"gemm gate: n={n}: naive {naive['median_ns']} ns, blocked "
          f"{blocked['median_ns']} ns, speedup {speedup:.2f}x "
          f"(required {REQUIRED if gated else '-'}) [{status}]")
for shape in ("4x8x16x16", "8x16x32x32"):
    direct, lowered = results[f"conv/direct/{shape}"], results[f"conv/im2col/{shape}"]
    speedup = min(direct["samples_ns"]) / min(lowered["samples_ns"])
    out[f"conv/{shape}"] = {
        "direct_ns": direct["median_ns"],
        "im2col_ns": lowered["median_ns"],
        "speedup": round(speedup, 3),
        "gated": False,
    }
    print(f"gemm gate: conv {shape}: direct {direct['median_ns']} ns, "
          f"im2col {lowered['median_ns']} ns, speedup {speedup:.2f}x [info]")
json.dump(out, open(dst, "w"), indent=2)
print(f"gemm gate: wrote {dst}")
sys.exit(1 if failed else 0)
EOF

# FMA microkernel gate: on AVX2+FMA hardware the explicit 6x16 FMA tile
# must beat the portable blocked kernel by >= 1.3x at 512^3 (both sides
# single-task and packed, so the ratio is microkernel quality alone).
# The bench registers the fma side only when the CPU supports it, so the
# gate degrades to an informational skip on other hardware rather than
# failing the run.
python3 - results/bench-substrates.json results/BENCH_gemm_fma.json <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
results = {r["id"]: r for r in json.load(open(src))}

if "gemm_fma/fma/512" not in results:
    out = {"skipped": "no AVX2+FMA support detected by the bench harness"}
    json.dump(out, open(dst, "w"), indent=2)
    print("gemm_fma gate: fma kernel not benchable on this host [skipped]")
    sys.exit(0)

REQUIRED = 1.3
safe, fma = results["gemm_fma/safe/512"], results["gemm_fma/fma/512"]
safe_min, fma_min = min(safe["samples_ns"]), min(fma["samples_ns"])
# Minimum samples: the noise-robust statistic for A/B timing; the
# emitted JSON records medians alongside.
speedup = safe_min / fma_min if fma_min else 0.0
failed = speedup < REQUIRED
status = "ok" if not failed else "TOO SLOW"
out = {
    "safe_ns": safe["median_ns"],
    "fma_ns": fma["median_ns"],
    "safe_min_ns": safe_min,
    "fma_min_ns": fma_min,
    "speedup": round(speedup, 3),
    "required": REQUIRED,
}
print(f"gemm_fma gate: n=512: safe {safe['median_ns']} ns, fma "
      f"{fma['median_ns']} ns (min {safe_min} vs {fma_min}), speedup "
      f"{speedup:.2f}x (required {REQUIRED}) [{status}]")
json.dump(out, open(dst, "w"), indent=2)
print(f"gemm_fma gate: wrote {dst}")
sys.exit(1 if failed else 0)
EOF

# Int8 serving gate: a batch-8 forward through the row-quantized int8
# path must beat the f32 forward on the same model by >= 1.2x. The win
# is integer dot products (madd on AVX2) plus halved weight traffic; it
# does not depend on the pool, so it holds on a 1-core runner.
python3 - results/bench-substrates.json results/BENCH_int8.json <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
results = {r["id"]: r for r in json.load(open(src))}

REQUIRED = 1.2
f32, i8 = results["int8/f32_forward/8"], results["int8/int8_forward/8"]
f32_min, i8_min = min(f32["samples_ns"]), min(i8["samples_ns"])
# Minimum samples: the noise-robust statistic for A/B timing; the
# emitted JSON records medians alongside.
speedup = f32_min / i8_min if i8_min else 0.0
failed = speedup < REQUIRED
status = "ok" if not failed else "TOO SLOW"
out = {
    "f32_ns": f32["median_ns"],
    "int8_ns": i8["median_ns"],
    "f32_min_ns": f32_min,
    "int8_min_ns": i8_min,
    "batch_size": 8,
    "speedup": round(speedup, 3),
    "required": REQUIRED,
}
print(f"int8 gate: batch-8 f32 {f32['median_ns']} ns, int8 "
      f"{i8['median_ns']} ns (min {f32_min} vs {i8_min}), speedup "
      f"{speedup:.2f}x (required {REQUIRED}) [{status}]")
json.dump(out, open(dst, "w"), indent=2)
print(f"int8 gate: wrote {dst}")
sys.exit(1 if failed else 0)
EOF

# Telemetry disabled-path gate: a span site that is off must cost one
# relaxed atomic load — within noise of the identical untraced kernel.
python3 - results/bench-substrates.json results/BENCH_telemetry.json <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
results = {r["id"]: r for r in json.load(open(src))}

GRACE = 1.25
untraced = results["telemetry/untraced/matmul32"]
disabled = results["telemetry/span_disabled/matmul32"]
enabled = results["telemetry/span_enabled/matmul32"]
un_min, dis_min = min(untraced["samples_ns"]), min(disabled["samples_ns"])
out = {
    "untraced_ns": untraced["median_ns"],
    "span_disabled_ns": disabled["median_ns"],
    "span_enabled_ns": enabled["median_ns"],
    "untraced_min_ns": un_min,
    "span_disabled_min_ns": dis_min,
    "disabled_overhead": round(dis_min / un_min if un_min else 0.0, 3),
}
failed = dis_min > un_min * GRACE
status = "REGRESSION" if failed else "ok"
print(f"telemetry gate: untraced {untraced['median_ns']} ns, disabled-span "
      f"{disabled['median_ns']} ns, enabled-span {enabled['median_ns']} ns "
      f"(min {un_min} vs {dis_min}) [{status}]")
json.dump(out, open(dst, "w"), indent=2)
print(f"telemetry gate: wrote {dst}")
sys.exit(1 if failed else 0)
EOF

# Serving micro-batch gate: one batch-8 forward must beat 8 sequential
# single-record forwards by >= 2x on the serving-head model. The win is
# per-forward overhead amortization (graph walk, allocation, dispatch),
# not parallelism, so it holds on a 1-core runner — and it is the whole
# reason the server's micro-batcher exists.
python3 - results/bench-substrates.json results/BENCH_serve.json <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
results = {r["id"]: r for r in json.load(open(src))}

REQUIRED = 2.0
un, ba = results["serve/unbatched/8"], results["serve/batched/8"]
un_min, ba_min = min(un["samples_ns"]), min(ba["samples_ns"])
# Minimum samples: the noise-robust statistic for A/B timing; the
# emitted JSON records medians alongside.
speedup = un_min / ba_min if ba_min else 0.0
out = {
    "unbatched_ns": un["median_ns"],
    "batched_ns": ba["median_ns"],
    "unbatched_min_ns": un_min,
    "batched_min_ns": ba_min,
    "batch_size": 8,
    "speedup": round(speedup, 3),
    "required": REQUIRED,
}
failed = speedup < REQUIRED
status = "ok" if not failed else "TOO SLOW"
print(f"serve gate: 8x unbatched {un['median_ns']} ns, batched/8 "
      f"{ba['median_ns']} ns (min {un_min} vs {ba_min}), speedup "
      f"{speedup:.2f}x (required {REQUIRED}) [{status}]")
json.dump(out, open(dst, "w"), indent=2)
print(f"serve gate: wrote {dst}")
sys.exit(1 if failed else 0)
EOF

# Multi-tenant serving gate: (a) 16 adapter variants of one frozen base
# must serve from a deduplicated footprint at least 5x smaller than 16
# standalone models (logical/stored bytes, from the demo's registry
# accounting, which also asserts single-base Arc residency, bit-identical
# tenant routing, and evict/fault-in round-trips); (b) the shared-trunk
# batch — one frozen-trunk forward over the union batch plus per-tenant
# suffixes — must beat 16 per-tenant solo forwards. Batch-invariant
# dispatch pins kernels per-record for bit-identity, so the win is
# per-forward overhead amortization, not kernel re-selection; the gate is
# correspondingly modest.
NAUTILUS_RESULTS="$PWD/results" cargo run --release --offline --example multitenant_demo
python3 - results/bench-substrates.json results/multitenant_demo.json results/BENCH_multitenant.json <<'EOF'
import json, sys

bench_src, demo_src, dst = sys.argv[1], sys.argv[2], sys.argv[3]
results = {r["id"]: r for r in json.load(open(bench_src))}
demo = json.load(open(demo_src))

RATIO_REQUIRED = 5.0
SPEEDUP_REQUIRED = 1.1
failed = False

ratio = demo["dedup_ratio"]
if demo["variants"] != 16 or demo["bases"] != 1:
    print(f"multitenant gate: unexpected demo shape: {demo}")
    failed = True
status = "ok" if ratio >= RATIO_REQUIRED else "TOO LOW"
if ratio < RATIO_REQUIRED:
    failed = True
print(f"multitenant gate: {demo['variants']} variants / {demo['bases']} base: "
      f"{demo['bytes_logical']} logical B from {demo['bytes_stored']} stored B, "
      f"dedup {ratio:.2f}x (required {RATIO_REQUIRED}) [{status}]")

solo, shared = results["multitenant/solo/16"], results["multitenant/shared_trunk/16"]
solo_min, shared_min = min(solo["samples_ns"]), min(shared["samples_ns"])
# Minimum samples: the noise-robust statistic for A/B timing; the
# emitted JSON records medians alongside.
speedup = solo_min / shared_min if shared_min else 0.0
status = "ok" if speedup >= SPEEDUP_REQUIRED else "TOO SLOW"
if speedup < SPEEDUP_REQUIRED:
    failed = True
print(f"multitenant gate: 16x solo {solo['median_ns']} ns, shared-trunk "
      f"{shared['median_ns']} ns (min {solo_min} vs {shared_min}), speedup "
      f"{speedup:.2f}x (required {SPEEDUP_REQUIRED}) [{status}]")

out = {
    "variants": demo["variants"],
    "bases": demo["bases"],
    "bytes_logical": demo["bytes_logical"],
    "bytes_stored": demo["bytes_stored"],
    "dedup_ratio": round(ratio, 3),
    "dedup_required": RATIO_REQUIRED,
    "evictions": demo["evictions"],
    "fault_ins": demo["fault_ins"],
    "solo_ns": solo["median_ns"],
    "shared_trunk_ns": shared["median_ns"],
    "solo_min_ns": solo_min,
    "shared_trunk_min_ns": shared_min,
    "trunk_sharing_speedup": round(speedup, 3),
    "speedup_required": SPEEDUP_REQUIRED,
}
json.dump(out, open(dst, "w"), indent=2)
print(f"multitenant gate: wrote {dst}")
sys.exit(1 if failed else 0)
EOF

# Serving smoke test: train -> export -> checkpoint -> publish -> answer
# concurrent loopback predictions bit-identically, then drain cleanly.
# The example asserts bit-identity and zero server errors itself; the
# trace must carry serving spans, counters, and latency histograms.
NAUTILUS_TRACE="$PWD/results/TRACE_serve.json" \
NAUTILUS_RESULTS="$PWD/results" \
    cargo run --release --offline --example serve_demo
python3 - results/TRACE_serve.json <<'EOF'
import json, sys

path = sys.argv[1]
trace = json.load(open(path))
events = trace["traceEvents"]
spans = {e["name"] for e in events if e.get("ph") == "X"}
for want in ("serve.request", "serve.batch"):
    assert want in spans, f"missing serving span {want!r}: {sorted(spans)}"
counters = {e["name"]: e for e in events if e.get("ph") == "C"}
for want in ("serve.requests", "serve.batches", "serve.batch_size"):
    assert want in counters, f"missing counter {want!r}: {sorted(counters)}"
hists = {
    name: e["args"]
    for name, e in counters.items()
    if {"count", "p50", "p95", "p99", "max"} <= set(e["args"])
}
for want in ("serve.request_us", "serve.batch_us"):
    assert want in hists, f"missing histogram {want!r}: {sorted(hists)}"
    assert hists[want]["count"] > 0, f"histogram {want!r} recorded nothing"
    assert hists[want]["p50"] <= hists[want]["p99"] <= hists[want]["max"]
batched = counters["serve.batch_size"]["args"]["value"]
batches = counters["serve.batches"]["args"]["value"]
assert batches > 0 and batched >= batches, "batcher never fused work"
print(f"serve trace gate: spans {sorted(s for s in spans if s.startswith('serve'))}, "
      f"{batched} records in {batches} batches, histograms ok")
EOF

# Observability gate: the Prometheus exposition scraped from the serve
# demo's /metrics endpoint must be well-formed text format — unique
# `# TYPE` lines, monotone cumulative histogram buckets whose `+Inf`
# sample equals `_count`, and the expected serving families including
# the watchdog-maintained queue-depth gauges and per-endpoint labeled
# latency series.
python3 - results/METRICS_serve.txt results/METRICS_serve.json <<'EOF'
import json, re, sys

src, dst = sys.argv[1], sys.argv[2]
text = open(src).read()
assert text.strip(), "empty /metrics exposition"

NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
types = {}
for line in text.splitlines():
    if line.startswith("# TYPE "):
        name, kind = line[len("# TYPE "):].split(" ")
        assert NAME.match(name), f"bad metric name {name!r}"
        assert kind in ("counter", "gauge", "histogram"), f"bad kind {kind!r}"
        assert name not in types, f"duplicate # TYPE for {name}"
        types[name] = kind

series = []
for line in text.splitlines():
    if not line or line.startswith("#"):
        continue
    head, value = line.rsplit(" ", 1)
    value = float(value)
    if "{" in head:
        name, rest = head.split("{", 1)
        labels = dict(
            kv.split("=", 1) for kv in rest.rstrip("}").split(",") if kv
        )
        labels = {k: v.strip('"') for k, v in labels.items()}
    else:
        name, labels = head, {}
    assert NAME.match(name), f"bad sample name {name!r}"
    series.append((name, labels, value))

by_name = {}
for name, labels, value in series:
    by_name.setdefault(name, []).append((labels, value))

# Cumulative bucket checks per (family, label-set-minus-le).
buckets = {}
for name, labels, value in series:
    if name.endswith("_bucket"):
        base = name[: -len("_bucket")]
        key = (base, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
        buckets.setdefault(key, []).append((labels["le"], value))
assert buckets, "exposition has no histogram buckets"
for (base, key), rows in buckets.items():
    vals = [v for _, v in rows]
    assert vals == sorted(vals), f"non-cumulative buckets for {base} {key}"
    assert rows[-1][0] == "+Inf", f"last bucket of {base} {key} must be +Inf"
    counts = [
        v for labels, v in by_name.get(f"{base}_count", [])
        if tuple(sorted(labels.items())) == key
    ]
    assert counts and counts[0] == rows[-1][1], \
        f"+Inf bucket != _count for {base} {key}"

for want, kind in (
    ("serve_requests", "counter"),
    ("serve_request_us", "histogram"),
    ("serve_conn_queue_depth", "gauge"),
    ("serve_batch_queue_depth", "gauge"),
):
    assert types.get(want) == kind, \
        f"missing {kind} {want!r} in exposition: {sorted(types)}"
labeled = [
    labels for labels, _ in by_name.get("serve_request_us_count", [])
    if labels.get("endpoint")
]
assert labeled, "no per-endpoint serve_request_us series"

out = {
    "families": len(types),
    "series": len(series),
    "histogram_series": len(buckets),
    "labeled_request_series": len(labeled),
    "counters": sum(1 for k in types.values() if k == "counter"),
    "gauges": sum(1 for k in types.values() if k == "gauge"),
    "histograms": sum(1 for k in types.values() if k == "histogram"),
}
json.dump(out, open(dst, "w"), indent=2)
print(f"metrics gate: {out['families']} families ({out['counters']} counters, "
      f"{out['gauges']} gauges, {out['histograms']} histograms), "
      f"{out['series']} series, buckets cumulative, +Inf == _count [ok]")
EOF

# End-to-end trace artifact: the quickstart example run under
# NAUTILUS_TRACE must produce a valid Chrome trace covering every
# instrumented subsystem.
NAUTILUS_TRACE="$PWD/results/TRACE_quickstart.json" \
    cargo run --release --offline --example quickstart
python3 - results/TRACE_quickstart.json <<'EOF'
import json, sys

path = sys.argv[1]
trace = json.load(open(path))
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
counters = {e["name"] for e in events if e.get("ph") == "C"}
assert spans, "trace has no spans"
for e in spans:
    assert e["ts"] >= 0 and e["dur"] >= 0, f"negative time in {e['name']}"
cats = {e["cat"] for e in spans}
for want in ("core", "store", "dnn", "milp", "pool"):
    assert want in cats, f"no spans from subsystem {want!r}: {sorted(cats)}"
for want in ("flops", "disk_read_bytes", "cached_read_bytes", "pool.steals"):
    assert want in counters, f"missing counter {want!r}: {sorted(counters)}"

# Calibration: the MILP must have planned with the measured disk bandwidth
# (the example enables calibration), not the 500 MB/s static default.
counter_vals = {}
for e in events:
    if e.get("ph") == "C" and "value" in e.get("args", {}):
        counter_vals[e["name"]] = max(counter_vals.get(e["name"], 0), e["args"]["value"])
disk_bps = counter_vals.get("planner.disk_bytes_per_sec", 0)
assert disk_bps > 0, "MILP ran without recording its disk constant"
assert disk_bps != 500_000_000, "planner used the static default, not the probe"

# Training reads its feeds from the store on its own thread: at least one
# store.scan span is time-contained in a train.epoch span on the same tid.
by_tid = {}
for e in spans:
    by_tid.setdefault(e["tid"], []).append(e)
nested = 0
for tid, evs in by_tid.items():
    epochs = [e for e in evs if e["name"] == "train.epoch"]
    for r in (e for e in evs if e["name"] == "store.scan"):
        if any(t["ts"] <= r["ts"] and r["ts"] + r["dur"] <= t["ts"] + t["dur"] for t in epochs):
            nested += 1
assert nested > 0, "no store.scan span inside a train.epoch span on the same thread"
print(f"trace gate: {len(spans)} spans across {sorted(cats)}, "
      f"{len(counters)} counters, {nested} store.scan spans in train.epoch, "
      f"planner disk {disk_bps/1e6:.0f} MB/s [ok]")
EOF

# Distributed execution gate. The loopback tests (real worker subprocesses,
# bit-identity with a single box incl. FLOPs, worker-kill recovery) already
# ran in the workspace test above; the demo re-proves them from the shipped
# binary and emits the shard-throughput/speedup bench artifact.
NAUTILUS_RESULTS="$PWD/results" \
    cargo run --release --offline -p nautilus-dist --bin nautilus-dist -- demo
python3 - results/BENCH_dist.json <<'EOF'
import json, sys

path = sys.argv[1]
out = json.load(open(path))
assert out["bit_identical"] is True, "distributed selection diverged from single-box"
assert out["workers"] == 2 and out["units"] >= 2, f"unexpected shape: {out}"
assert out["kill_recovery_retries"] >= 1, "worker-kill recovery never retried a lease"
assert out["shard_throughput_per_sec"] > 0
assert out["dist_1worker_secs"] > 0 and out["dist_2worker_secs"] > 0
print(f"dist gate: {out['units']} units on 2 workers, bit-identical, "
      f"{out['shard_throughput_per_sec']:.2f} shards/s, "
      f"2-vs-1-worker speedup {out['speedup_2_over_1']:.2f}x, "
      f"{out['kill_recovery_retries']} recovery retries [ok]")
EOF

echo "verify: OK"
