#!/usr/bin/env bash
# Smoke-runs every bench binary with a tiny configuration and asserts a clean
# exit. This keeps the experiment harnesses compiling *and running* — a bench
# that only builds can still crash on a renamed flag or a changed TrainResult
# field. Usage: bench/smoke.sh <build-dir> (default: build).
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found (build first)" >&2
  exit 2
fi

run() {
  local name="$1"
  shift
  echo "--- $name $*"
  "$BENCH_DIR/$name" "$@" > "$OUT_DIR/$name.log" 2>&1 || {
    echo "FAILED: $name (exit $?)" >&2
    tail -40 "$OUT_DIR/$name.log" >&2
    exit 1
  }
}

run bench_table1_costmodel --batch_size 100 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_fig4_batchsize --iterations 2 --max_batch 100 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_fig7_loading --block_rows 4096 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_fig8_convergence --iterations 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_table4_periter_lr --iterations 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_table5_periter_fm --iterations 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_fig9_stragglers --iterations 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_fig10_modelsize --iterations 2 --max_dim 200000 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_fig11_clustersize --iterations 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_fig13_faults --iterations 6 --fail_at 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_ablation_partitioner --iterations 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_ablation_optimizer --iterations 2 --out_dir "$OUT_DIR" --bench_out "$ROOT"
run bench_serving --requests 300 --rate 4000 --query_rows 400 --query_features 300 --bench_out "$ROOT"
# Wall-clock kernel calibration: host-independent gate metrics (closure-error
# excess, profile validity) must stay zero; the measured rates are telemetry.
run bench_kernels --repeats 3 --inner_iters 4 --bench_out "$ROOT"

# The table-IV harness must emit the phase-breakdown columns produced by the
# tracing subsystem (src/obs).
if ! grep -q "serialization" "$OUT_DIR/table4_periter_lr.csv"; then
  echo "FAILED: table4_periter_lr.csv lacks phase-breakdown columns" >&2
  exit 1
fi
if ! grep -q "phase breakdown" "$OUT_DIR/bench_table4_periter_lr.log"; then
  echo "FAILED: bench_table4_periter_lr printed no phase breakdown" >&2
  exit 1
fi

# Critical-path smoke (DESIGN.md §16): record a causal DAG on a pinned tiny
# run, check the conservation invariant (path tiles the makespan, no gaps),
# and emit the blame suite for the regression gate.
TRAIN="$BUILD_DIR/tools/colsgd_train"
CRITPATH="$BUILD_DIR/tools/colsgd_critpath"
echo "--- colsgd_train --dag_out (critpath smoke)"
"$TRAIN" --synthetic tiny --engine columnsgd --iterations 6 --staleness 1 \
  --dag_out "$OUT_DIR/critpath_dag.json" \
  > "$OUT_DIR/critpath_train.log" 2>&1 || {
  echo "FAILED: colsgd_train --dag_out" >&2
  tail -40 "$OUT_DIR/critpath_train.log" >&2
  exit 1
}
echo "--- colsgd_critpath --check --bench_out"
"$CRITPATH" --dag "$OUT_DIR/critpath_dag.json" --check \
  --bench_out "$ROOT/BENCH_critpath.json" > "$OUT_DIR/critpath.log" 2>&1 || {
  echo "FAILED: colsgd_critpath --check" >&2
  tail -40 "$OUT_DIR/critpath.log" >&2
  exit 1
}

# Every emitted BENCH_*.json must parse against the colsgd.bench/v1 schema,
# and a suite compared against itself must pass the regression gate.
REPORT="$BUILD_DIR/tools/colsgd_report"
if [ ! -x "$REPORT" ]; then
  echo "error: $REPORT not found (build first)" >&2
  exit 2
fi
bench_count=0
for bench_json in "$ROOT"/BENCH_*.json; do
  [ -e "$bench_json" ] || { echo "FAILED: no BENCH_*.json emitted" >&2; exit 1; }
  "$REPORT" --check "$bench_json"
  "$REPORT" "$bench_json" "$bench_json" > /dev/null
  bench_count=$((bench_count + 1))
done
echo "bench smoke: $bench_count BENCH suites validated"

echo "bench smoke: all binaries exited cleanly"
