#!/usr/bin/env bash
# Full verification: build + test the default (Release) and sanitize
# (ASan/UBSan) presets, then the concurrency suites under the tsan preset.
# Run from anywhere; operates on the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

jobs="$(nproc 2>/dev/null || echo 4)"

for preset in default sanitize; do
  echo "==> configure [$preset]"
  cmake --preset "$preset"
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test [$preset]"
  ctest --preset "$preset" -j "$jobs"
done

# ThreadSanitizer pass over the concurrency surface: the thread pool and
# parallel_for, the sweep engine's shard stream (worker lanes publishing
# while the calling thread writes checkpoints), run_experiment's parallel
# chunks and the StreamSink drain racing the recorders. The tsan preset
# builds the library, tools and tests only.
echo "==> configure [tsan]"
cmake --preset tsan
echo "==> build [tsan]"
cmake --build --preset tsan -j "$jobs"
echo "==> test [tsan]"
ctest --preset tsan -j "$jobs" -R 'ThreadPool|SweepEngine|Runner|ObsStream'

# Repository benchmark self-tests (perfbench/, its own Release build): every
# workload's --smoke stream must reach the pinned reference digests, so this
# is the end-to-end bit-identity gate for the run_sweep and run_experiment
# paths. Run once; the sanitize preset does not apply to perfbench's build.
echo "==> perfbench self-tests [Release]"
python3 -m unittest discover -s perfbench/tests

# Smoke pass of the perf harnesses (tiny sizes): catches regressions in the
# benches themselves and asserts the cached hot paths build zero analyses /
# grow zero scheduler buffers. perf_slicing and perf_scheduling also
# re-check bit-identity against the reference slicer and schedulers
# (reference/), so they run under both presets — the sanitize build would
# catch any UB the equivalence relies on — and each exits 1 on a mismatch.
# The JSON of every run is diffed against the committed BENCH_*.json
# speedups (scripts/bench_compare.py — perf regressions fail loudly); the
# sanitize passes compare --correctness-only, since ASan/UBSan inflates the
# two sides of each ratio by different factors.
slicing_smoke() {
  local build="$1"; shift
  local out="$build/slicing-smoke"
  mkdir -p "$out"
  "$build/bench/perf_slicing" --smoke --json "$out/slicing.json"
  python3 scripts/bench_compare.py "$out/slicing.json" \
    --baseline BENCH_slicing.json --tolerance 0.6 "$@"
}

# Batch slicing kernel smoke: the lanes64-vs-reference A/B under both
# presets. The bit-identity and zero-allocation gates must hold under
# ASan/UBSan too; the absolute ADAPT-L speedup floor only applies to the
# Release run (sanitizer instrumentation skews the two engines by different
# factors, so the sanitize pass compares --correctness-only). A short
# instrumented pass validates the kernel's batch.* spans and counters.
batch_smoke() {
  local build="$1"; shift
  local tag="${build##*/}"
  local out="$build/slicing-batch-smoke"
  mkdir -p "$out"
  "$build/bench/perf_slicing_batch" --smoke \
    --json "$out/batch.json" > "$out/stdout.txt"
  python3 scripts/bench_compare.py "$out/batch.json" \
    --baseline BENCH_slicing_batch.json --tolerance 0.6 "$@"
  "$build/bench/perf_slicing_batch" --smoke \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" > /dev/null
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  for counter in batch.scenarios batch.passes; do
    grep -q "$counter" "$out/metrics.jsonl" ||
      { echo "batch smoke [$tag]: metrics missing $counter" >&2; exit 1; }
  done
}
# perf_scheduling runs two passes, mirroring scripts/bench.sh: a timed pass
# with recording off whose JSON is diffed against the committed
# BENCH_scheduling.json, and a short instrumented pass whose trace/metrics
# are validated by tools/trace_check and must carry the dispatcher
# event-queue counters.
scheduling_smoke() {
  local build="$1"; shift
  local tag="${build##*/}"
  local out="$build/scheduling-smoke"
  mkdir -p "$out"
  "$build/bench/perf_scheduling" --smoke \
    --json "$out/scheduling.json" > "$out/stdout.txt"
  "$build/bench/perf_scheduling" --smoke \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" > /dev/null
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  for counter in sched.dispatch.heap_ops sched.dispatch.queue_depth; do
    grep -q "$counter" "$out/metrics.jsonl" ||
      { echo "scheduling smoke [$tag]: metrics missing $counter" >&2;
        exit 1; }
  done
  # Smoke timings are short, so the band is wide; scripts/bench.sh numbers
  # feed the committed baseline with longer windows. The sanitize pass runs
  # --correctness-only: ASan/UBSan inflates the engine and legacy sides by
  # different factors, so its speedups are not comparable to the Release
  # baseline — only the identity and zero-allocation gates apply there.
  python3 scripts/bench_compare.py "$out/scheduling.json" \
    --baseline BENCH_scheduling.json --tolerance 0.6 "$@"
}

# Sweep smoke: the batched sweep engine on a tiny scenario count, under both
# presets. perf_sweep --smoke re-checks the bit-identity gates (batched vs
# single generation, sweep vs scalar fold, resume vs uninterrupted, 1 vs N
# threads) and the steady-state zero-allocation gate — all of which must
# also hold under ASan/UBSan — and its JSON is diffed against the committed
# BENCH_sweep.json.
# A short instrumented sweep_runner pass then validates the engine's
# trace/metrics exports with tools/trace_check.
sweep_smoke() {
  local build="$1"; shift
  local tag="${build##*/}"
  local out="$build/sweep-smoke"
  mkdir -p "$out"
  "$build/bench/perf_sweep" --smoke --json "$out/sweep.json" \
    --checkpoint "$out/bench.ckpt" > "$out/stdout.txt"
  python3 scripts/bench_compare.py "$out/sweep.json" \
    --baseline BENCH_sweep.json --tolerance 0.6 "$@"
  "$build/tools/sweep_runner" --scenarios 2048 --shard-size 256 \
    --checkpoint "$out/runner.ckpt" --checkpoint-every 2 \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" > /dev/null
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  for counter in sweep.shards_completed sweep.checkpoints_written \
                 sweep.scenarios_per_sec; do
    grep -q "$counter" "$out/metrics.jsonl" ||
      { echo "sweep smoke [$tag]: metrics missing $counter" >&2; exit 1; }
  done
}

# Degradation smoke: the graceful-degradation surface on a tiny grid, under
# both presets (the sanitize pass covers the shed/migrate recovery paths and
# the degraded-mode dispatch prologue under ASan/UBSan). The exported trace
# and JSONL metrics are validated by tools/trace_check; the metrics must
# include the recovery.shed_tasks counter the sweep is expected to hit.
degradation_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/degradation-smoke"
  mkdir -p "$out"
  "$build/bench/fig_degradation" --smoke \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" \
    --json "$out/surface.json" > "$out/stdout.txt"
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  grep -q "recovery.shed_tasks" "$out/metrics.jsonl" ||
    { echo "degradation smoke [$tag]: metrics missing shed counter" >&2;
      exit 1; }
}

# Observability smoke: a small sweep exporting a Chrome trace + JSONL
# metrics, validated by tools/trace_check, under both presets (the sanitize
# pass exercises the ring/accumulator paths under ASan/UBSan). The perf_obs
# overhead gates run after the streaming smoke below.
obs_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/obs-smoke"
  mkdir -p "$out"
  "$build/examples/experiment_runner" --graphs 16 \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" \
    --obs-summary > "$out/summary.txt"
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  grep -q "slice.run" "$out/summary.txt" ||
    { echo "obs smoke [$tag]: summary missing slicing spans" >&2; exit 1; }
}

# Streaming obs smoke: a checkpointed sweep watched live by the StreamSink
# (status heartbeat + metrics-delta stream + Chrome-trace chunks), under
# both presets (the sanitize pass runs the concurrent ring-drain path under
# ASan/UBSan). The stream's final cumulative values must reconcile exactly
# — bit-for-bit — with the quiescent snapshot export (obs_tail --check
# --against), and a chunk file cut mid-write at an arbitrary byte (what a
# mid-run reader sees under stdio buffering) must still validate as a
# truncated stream.
stream_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/stream-smoke"
  mkdir -p "$out"
  rm -f "$out/sweep.ckpt"
  "$build/tools/sweep_runner" --scenarios 10000 --shard-size 512 \
    --checkpoint "$out/sweep.ckpt" --checkpoint-every 4 \
    --status-file "$out/status.json" \
    --metrics-stream "$out/stream.jsonl" \
    --trace-stream "$out/chunks.json" \
    --metrics "$out/final.jsonl" > "$out/stdout.txt"
  "$build/tools/trace_check" --streaming "$out/chunks.json"
  "$build/tools/trace_check" --jsonl --streaming "$out/stream.jsonl"
  "$build/tools/trace_check" --jsonl "$out/final.jsonl"
  "$build/tools/obs_tail" --check --against "$out/final.jsonl" \
    "$out/stream.jsonl"
  head -c 10000 "$out/chunks.json" > "$out/chunks.trunc.json"
  "$build/tools/trace_check" --streaming "$out/chunks.trunc.json"
  grep -q '"type":"heartbeat"' "$out/status.json" &&
    grep -q '"sweep":true' "$out/status.json" ||
    { echo "stream smoke [$tag]: status file missing sweep heartbeat" >&2;
      exit 1; }
  for counter in sweep.progress.scenarios_done sweep.progress.wave \
                 sweep.checkpoint.save_ms sweep.checkpoint.bytes; do
    grep -q "$counter" "$out/final.jsonl" ||
      { echo "stream smoke [$tag]: metrics missing $counter" >&2; exit 1; }
  done
}

# Every smoke runs against ./build, then against ./build-sanitize with its
# sanitize-only extra arguments, in table order.
smokes=(
  "slicing_smoke --correctness-only"
  "batch_smoke --correctness-only"
  "scheduling_smoke --correctness-only"
  "sweep_smoke --correctness-only"
  "degradation_smoke"
  "obs_smoke"
  "stream_smoke"
)
for entry in "${smokes[@]}"; do
  read -r -a smoke <<< "$entry"
  echo "==> ${smoke[0]} [default]"
  "${smoke[0]}" ./build
  echo "==> ${smoke[0]} [sanitize]"
  "${smoke[0]}" ./build-sanitize "${smoke[@]:1}"
done

# perf_obs gates the runtime-disabled overhead at <=2% and the streaming
# (StreamSink attached) overhead at <=5%; its JSON is diffed against the
# committed BENCH_obs.json with an additive overhead band.
echo "==> obs overhead gate [perf_obs]"
mkdir -p ./build/obs-smoke
./build/bench/perf_obs --smoke --json ./build/obs-smoke/perf_obs.json
python3 scripts/bench_compare.py ./build/obs-smoke/perf_obs.json \
  --baseline BENCH_obs.json --tolerance 0.6

echo "All checks passed."
