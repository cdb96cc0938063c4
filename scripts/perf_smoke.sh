#!/usr/bin/env bash
# Perf smoke: run the resolver + trial-engine micro-benchmarks and record
# the raw google-benchmark output in BENCH_resolve.json.
#
# RELEASE GATE: bench_micro stamps the CMake build type into the benchmark
# context (context.fcr_build_type, see bench/CMakeLists.txt). The committed
# BENCH_resolve.json is the reference other changes are compared against,
# so this script REFUSES to write it from anything but a Release build —
# a debug/RelWithDebInfo run once slipped into the baseline and made every
# later comparison meaningless.
#
# DEBUG-STAMP NORMALIZATION: google-benchmark also writes its OWN
# context.library_build_type, which records how *libbenchmark.so* was
# compiled — the distro package ships it without NDEBUG, so it stamps
# "debug" even under a full Release build of this repo. That stamp leaked
# into committed baselines and read as "these numbers are from a debug
# build". The honest split: the reporter library's own build type is
# preserved as context.benchmark_reporter_build_type, and
# context.library_build_type is set from fcr_build_type (the flags the
# measured code was actually compiled with). After normalization the gate
# below fails if anything but Release would still leak into BENCH_*.json.
#
# PROVENANCE: the benchmarked commit (git SHA + dirty flag) is exported as
# FCR_GIT_SHA / FCR_GIT_DIRTY and stamped into the context by bench_micro,
# so every committed baseline is attributable to a tree state.
#
# TIMING GATE: absolute timings are machine-dependent and stay
# informational here; CI regression-gates on machine-independent RATIOS
# via scripts/perf_compare.py instead.
#
# Usage: scripts/perf_smoke.sh [--build-dir DIR] [--out FILE]
#          [--exec-out FILE] [--campaign-out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT=BENCH_resolve.json
EXEC_OUT=BENCH_execution.json
CAMPAIGN_OUT=BENCH_campaign.json
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --exec-out) EXEC_OUT="$2"; shift 2 ;;
    --campaign-out) CAMPAIGN_OUT="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 1 ;;
  esac
done

BIN="$BUILD_DIR/bench/bench_micro"
if [ ! -x "$BIN" ]; then
  echo "perf_smoke: $BIN not built (cmake --build $BUILD_DIR --target bench_micro)" >&2
  exit 1
fi

# Benchmark provenance: the exact commit (and whether the tree was dirty)
# these numbers came from.
FCR_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  FCR_GIT_DIRTY=1
else
  FCR_GIT_DIRTY=0
fi
export FCR_GIT_SHA FCR_GIT_DIRTY

TMP="$(mktemp --suffix=.json)"
trap 'rm -f "$TMP"' EXIT

"$BIN" \
  --benchmark_filter='BM_SinrResolve/|BM_BatchResolve/|BM_FullExecution|BM_Trial|BM_DecideKernel|BM_ResolveMask' \
  --benchmark_out="$TMP" \
  --benchmark_out_format=json

# Normalize the reporter's debug stamp (see header comment), then refuse to
# publish anything that still is not a Release measurement.
BUILD_TYPE="$(python3 - "$TMP" <<'EOF'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
ctx = doc["context"]
fcr = ctx.get("fcr_build_type", "unknown")
reporter = ctx.get("library_build_type")
if reporter is not None:
    ctx["benchmark_reporter_build_type"] = reporter
ctx["library_build_type"] = fcr
json.dump(doc, open(path, "w"), indent=1)
print(fcr)
EOF
)"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "perf_smoke: REFUSING to write $OUT: bench_micro was built as" \
       "'$BUILD_TYPE', not Release. Configure a Release tree, e.g.:" >&2
  echo "  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release &&" \
       "cmake --build build-perf --target bench_micro &&" \
       "scripts/perf_smoke.sh --build-dir build-perf" >&2
  exit 1
fi
LIB_TYPE="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["context"].get("library_build_type", "unknown"))
' "$TMP")"
if [ "$LIB_TYPE" != "Release" ]; then
  echo "perf_smoke: REFUSING to write $OUT: context.library_build_type is" \
       "'$LIB_TYPE' after normalization — a non-Release stamp would leak" \
       "into the committed baseline" >&2
  exit 1
fi

mv "$TMP" "$OUT"
trap - EXIT

# Execution-engine artifact: the BM_FullExecution* subset in its own JSON
# so CI can upload the columnar-vs-virtual numbers separately and the
# perf_compare columnar gate has a small, stable reference file.
python3 - "$OUT" "$EXEC_OUT" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["benchmarks"] = [b for b in doc["benchmarks"]
                     if b["name"].startswith("BM_FullExecution")]
json.dump(doc, open(sys.argv[2], "w"), indent=1)
EOF

# Non-gating speedup report: batch vs reference scan per n, the resolver's
# per-stage listener counts, the incremental-instrumentation gain on the
# trial benches, the columnar round loop vs the per-node virtual engine,
# and the SIMD lane kernels vs the scalar columnar kernels.
python3 - "$OUT" <<'EOF' || true
import json, sys
runs = {b["name"]: b["real_time"] for b in json.load(open(sys.argv[1]))["benchmarks"]}
for name, t in sorted(runs.items()):
    if not name.startswith("BM_SinrResolve/"):
        continue
    n = name.split("/")[1]
    batch = runs.get(f"BM_BatchResolve/{n}")
    if batch:
        print(f"perf_smoke: n={n}: scan {t/1e6:.3f} ms, batch {batch/1e6:.3f} ms, "
              f"speedup {t/batch:.2f}x")
    mask = runs.get(f"BM_ResolveMask/{n}")
    if batch and mask:
        print(f"perf_smoke: resolve-mask n={n}: id-vector {batch/1e6:.3f} ms, "
              f"mask {mask/1e6:.3f} ms, speedup {batch/mask:.2f}x")
# Which resolver stage decided the listeners, per n (16384 shows scaling).
for b in json.load(open(sys.argv[1]))["benchmarks"]:
    if not b["name"].startswith(("BM_BatchResolve/", "BM_ResolveMask/")):
        continue
    cell, sweep, exact = (b.get(k, 0.0) for k in
                          ("cell_certified", "sweep_certified", "exact"))
    if cell + sweep + exact > 0:
        print(f"perf_smoke: {b['name']}: {b['real_time']/1e6:.3f} ms; "
              f"decided by cell {cell:.0f}, sweep {sweep:.0f}, exact "
              f"{exact:.0f} (fallback share "
              f"{(sweep + exact) / (cell + sweep + exact):.3f})")
rebuild = runs.get("BM_TrialInstrumentedRebuild/256")
incr = runs.get("BM_TrialWorkspace/256")
if rebuild and incr:
    print(f"perf_smoke: instrumented trial n=256: per-round rebuild "
          f"{rebuild/1e6:.3f} ms, incremental {incr/1e6:.3f} ms, "
          f"speedup {rebuild/incr:.2f}x")
for n in (256, 1024, 16384):
    scalar = runs.get(f"BM_DecideKernelScalar/{n}")
    lanes = runs.get(f"BM_DecideKernelLanes/{n}")
    if scalar and lanes:
        print(f"perf_smoke: decide kernel n={n}: scalar {scalar/1e3:.2f} us, "
              f"lanes {lanes/1e3:.2f} us, speedup {scalar/lanes:.2f}x")
for n in (64, 256, 1024):
    virt = runs.get(f"BM_FullExecutionVirtual/{n}")
    col = runs.get(f"BM_FullExecution/{n}")
    if virt and col:
        print(f"perf_smoke: execution n={n}: virtual {virt/1e6:.3f} ms, "
              f"columnar {col/1e6:.3f} ms, speedup {virt/col:.2f}x")
EOF

# Campaign fabric artifact (docs/ROBUSTNESS.md §6): wall-clock the same
# campaign once through the in-process LocalBackend and once sharded over a
# 3-worker fcrw fleet on a local unix socket, best of $CAMPAIGN_REPS.
# Socket framing, lease bookkeeping, and result merging are all inside the
# measured window, so BM_CampaignFabric3 / BM_CampaignLocal is the fabric's
# end-to-end overhead ratio — on a single core it hovers around 1.0, on a
# multi-core runner sharding pulls it below 1. perf_compare --suite campaign
# gates the ratio against the committed BENCH_campaign.json. The two CSVs
# are also compared bit-for-bit: a perf artifact measured from a diverging
# fabric run would be worse than a slow one.
FCRSIM_BIN="$BUILD_DIR/tools/fcrsim"
FCRW_BIN="$BUILD_DIR/tools/fcrw"
if [ ! -x "$FCRSIM_BIN" ] || [ ! -x "$FCRW_BIN" ]; then
  echo "perf_smoke: skipping $CAMPAIGN_OUT (fcrsim/fcrw not built in $BUILD_DIR)"
  echo "perf_smoke: wrote $OUT and $EXEC_OUT (fcr_build_type=$BUILD_TYPE," \
       "git=$FCR_GIT_SHA dirty=$FCR_GIT_DIRTY)"
  exit 0
fi

CDIR="$(mktemp -d "${TMPDIR:-/tmp}/fcr_perf_campaign.XXXXXX")"
trap 'rm -rf "$CDIR"' EXIT
CAMPAIGN=(--n 8192 --trials 64 --seed 7 --retries 3)
CAMPAIGN_REPS=3
LOCAL_NS=""
FABRIC_NS=""
for _ in $(seq 1 "$CAMPAIGN_REPS"); do
  s=$(date +%s%N)
  "$FCRSIM_BIN" "${CAMPAIGN[@]}" --csv "$CDIR/local.csv" > /dev/null
  e=$(date +%s%N)
  ns=$((e - s))
  if [ -z "$LOCAL_NS" ] || [ "$ns" -lt "$LOCAL_NS" ]; then LOCAL_NS=$ns; fi
done
for rep in $(seq 1 "$CAMPAIGN_REPS"); do
  SOCK="$CDIR/perf_$rep.sock"
  for w in 1 2 3; do
    "$FCRW_BIN" --socket "$SOCK" --name "perf$w" \
      --connect-retry-ms 20 --connect-attempts 200 \
      > "$CDIR/worker$w.log" 2>&1 &
  done
  s=$(date +%s%N)
  "$FCRSIM_BIN" "${CAMPAIGN[@]}" --fabric-socket "$SOCK" \
    --csv "$CDIR/fabric.csv" > "$CDIR/fabric.log"
  e=$(date +%s%N)
  wait  # workers exit on the coordinator's Shutdown broadcast
  ns=$((e - s))
  if [ -z "$FABRIC_NS" ] || [ "$ns" -lt "$FABRIC_NS" ]; then FABRIC_NS=$ns; fi
done
if ! cmp -s "$CDIR/local.csv" "$CDIR/fabric.csv"; then
  echo "perf_smoke: REFUSING to write $CAMPAIGN_OUT: the fabric campaign" \
       "diverged from the local run (bit-identity broken)" >&2
  diff "$CDIR/local.csv" "$CDIR/fabric.csv" | head -5 >&2
  exit 1
fi
if ! grep -q ", 0 trial(s) run locally" "$CDIR/fabric.log"; then
  echo "perf_smoke: REFUSING to write $CAMPAIGN_OUT: the fabric run fell" \
       "back to local execution — the number would not measure the fleet" >&2
  cat "$CDIR/fabric.log" >&2
  exit 1
fi

python3 - "$CAMPAIGN_OUT" "$BUILD_TYPE" "$LOCAL_NS" "$FABRIC_NS" <<'EOF'
import json, os, sys
out, build_type, local_ns, fabric_ns = sys.argv[1:5]
doc = {
    "context": {
        "fcr_build_type": build_type,
        "library_build_type": build_type,
        "fcr_git_sha": os.environ.get("FCR_GIT_SHA", "unknown"),
        "fcr_git_dirty": os.environ.get("FCR_GIT_DIRTY", "0"),
        "num_cpus": os.cpu_count(),
        "fcr_campaign_spec": "n=8192 trials=64 seed=7 retries=3 "
                             "workers=3 lease_trials=8 transport=unix-socket",
    },
    "benchmarks": [
        {"name": "BM_CampaignLocal", "run_type": "iteration",
         "real_time": float(local_ns), "time_unit": "ns"},
        {"name": "BM_CampaignFabric3", "run_type": "iteration",
         "real_time": float(fabric_ns), "time_unit": "ns"},
    ],
}
json.dump(doc, open(out, "w"), indent=1)
ratio = float(fabric_ns) / float(local_ns)
print(f"perf_smoke: campaign local {float(local_ns)/1e9:.3f} s, "
      f"3-worker fabric {float(fabric_ns)/1e9:.3f} s, "
      f"overhead ratio {ratio:.3f} ({os.cpu_count()} core(s))")
EOF

echo "perf_smoke: wrote $OUT, $EXEC_OUT and $CAMPAIGN_OUT" \
     "(fcr_build_type=$BUILD_TYPE, git=$FCR_GIT_SHA dirty=$FCR_GIT_DIRTY)"
