#!/usr/bin/env bash
# Performance smoke gate for the compute and transfer hot paths: builds
# Release, runs bench_flow_throughput and bench_join_kernel, and fails
# when either regresses more than 20% against its checked-in baseline
# (BENCH_flow_throughput.json / BENCH_join_kernel.json) - measured as the
# geometric mean of the per-row current/baseline ratios, so one noisy row
# on a loaded machine cannot flip the verdict while a real regression
# (which drags every row) still does. Headline floors on top:
#   - batching must pay for itself (batch 64 >= 1.5x batch 1 on the
#     synthetic join_parallel_cells p=4 shuffle);
#   - checkpointing at interval=100 must cost <= 5% end-to-end throughput
#     vs checkpointing off, at both p=1 and p=4 (bench_checkpoint,
#     compared WITHIN the current run, so the floor is machine-neutral);
#   - tracing must stay cheap on the hottest exchange (trace_overhead
#     rows, also compared WITHIN the current run): the production sender
#     with tracing disabled within 1% of the frozen hook-free reference
#     (off/ref >= 0.99), and with the recorder on within 5% of disabled
#     (on/off >= 0.95);
#   - the word-parallel enumeration hot loop must pay: fast >= 3x the
#     naive replica for FBA on bench_enumerator's enumeration-bound
#     m4/k18/l3/g3/opc32 config (within the current run).
#
# The checkpoint rows only report drift against their baseline; their
# gate is the within-run overhead floor above. The transport rows
# (bench_fig14_scale_nodes --out, BENCH_transport.json) are split: the
# "threads" deployment rows join the geomean gate like any other
# workload, but the "unix"/"tcp" multi-process rows are REPORTED ONLY -
# loopback socket throughput swings with kernel and scheduler mood far
# beyond the 20% band, so regressing the build on it would be noise.
#
# The baselines are machine-specific; regenerate them on your hardware with
#   build-release/bench/bench_flow_throughput --out BENCH_flow_throughput.json
#   build-release/bench/bench_join_kernel --out BENCH_join_kernel.json
#   build-release/bench/bench_checkpoint --out BENCH_checkpoint.json
#   build-release/bench/bench_enumerator --out BENCH_enum.json
#   build-release/bench/bench_fig14_scale_nodes --out BENCH_transport.json
# before relying on the regression gate.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build-release)
set -euo pipefail

BUILD_DIR="${1:-build-release}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

BENCHES=(flow_throughput join_kernel checkpoint enum transport)
for bench in "${BENCHES[@]}"; do
  if [ ! -f "BENCH_$bench.json" ]; then
    echo "missing baseline BENCH_$bench.json" >&2
    exit 1
  fi
done

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_flow_throughput bench_join_kernel bench_checkpoint \
  bench_enumerator bench_fig14_scale_nodes

"$BUILD_DIR/bench/bench_flow_throughput" --out BENCH_flow_throughput.tmp.json
"$BUILD_DIR/bench/bench_join_kernel" --out BENCH_join_kernel.tmp.json
"$BUILD_DIR/bench/bench_checkpoint" --out BENCH_checkpoint.tmp.json
"$BUILD_DIR/bench/bench_enumerator" --out BENCH_enum.tmp.json
"$BUILD_DIR/bench/bench_fig14_scale_nodes" --out BENCH_transport.tmp.json

# The one baseline comparer. Every BENCH_<name>.json holds one row object
# per line, e.g.
#   {"workload": "checkpoint", "parallelism": 1, "interval": 100,
#    "snapshots_per_sec": 7364, ...}
# Rows of BENCH_<name>.json (baseline) and BENCH_<name>.tmp.json (this
# run) are joined on a key built from KEYSPEC: space-separated
# FIELD[:PREFIX] tokens joined by "/", fields absent from a row skipped
# (so "parallelism:p interval:i" gives "p1/i100"). Rows whose key matches
# the GATED regex join a geometric-mean gate (fail below 0.8x; an empty
# regex gates nothing). Each FLOOR "NUM|DEN|MIN|LABEL" compares two rows
# of THIS run (machine-neutral) and fails when NUM/DEN < MIN; MIN 0 only
# reports the ratio.
#
# Usage: compare NAME RATE_FIELD KEYSPEC GATED [FLOOR...]
compare() {
  local name=$1 rate=$2 keyspec=$3 gated=$4
  shift 4
  local floors=""
  if [ "$#" -gt 0 ]; then floors=$(printf '%s;' "$@"); fi
  awk -v name="$name" -v rate_field="$rate" -v keyspec="$keyspec" \
      -v gated="$gated" -v floors="$floors" '
    function field(line, f,    rest) {
      rest = line
      sub(".*\"" f "\": *", "", rest)
      sub("[,}].*", "", rest)
      gsub("\"", "", rest)
      return rest
    }
    function key_of(line,    n, i, tokens, tok, key) {
      n = split(keyspec, tokens, " ")
      key = ""
      for (i = 1; i <= n; i++) {
        split(tokens[i], tok, ":")
        if (index(line, "\"" tok[1] "\"") == 0) continue
        key = key (key == "" ? "" : "/") tok[2] field(line, tok[1])
      }
      return key
    }
    {
      key = key_of($0)
      rate = field($0, rate_field) + 0
      if (NR == FNR) { baseline[key] = rate; next }
      current[key] = rate
      seen += 1
      if (!(key in baseline)) {
        printf "NEW  %s/%-36s %12.0f (no baseline)\n", name, key, rate
        next
      }
      ratio = rate / baseline[key]
      verdict = "info"
      if (gated != "" && key ~ gated) {
        verdict = (ratio >= 0.8) ? "ok  " : "low "
        log_sum += log(ratio)
        rows += 1
      }
      printf "%s %s/%-36s %12.0f  baseline %12.0f  (%.2fx)\n", \
             verdict, name, key, rate, baseline[key], ratio
    }
    END {
      if (seen == 0) { printf "FAIL: no %s rows\n", name; exit 1 }
      if (gated != "") {
        if (rows == 0) { printf "FAIL: no comparable %s rows\n", name; exit 1 }
        geomean = exp(log_sum / rows)
        printf "geometric-mean %s ratio over %d rows = %.2fx\n", \
               name, rows, geomean
        if (geomean < 0.8) {
          printf "FAIL: %s regressed more than 20%% overall\n", name
          failed = 1
        }
      }
      n = split(floors, list, ";")
      for (i = 1; i <= n; i++) {
        if (list[i] == "") continue
        split(list[i], fl, "|")
        num = current[fl[1]]
        den = current[fl[2]]
        if (num <= 0 || den <= 0) {
          if (fl[3] + 0 == 0) continue
          printf "FAIL: missing rows for %s (%s, %s)\n", fl[4], fl[1], fl[2]
          failed = 1
          continue
        }
        if (fl[3] + 0 == 0) {
          printf "%s = %.2fx (reported, not gated)\n", fl[4], num / den
        } else {
          printf "%s = %.3f (floor %s)\n", fl[4], num / den, fl[3]
          if (num / den < fl[3] + 0) {
            printf "FAIL: %s below %s\n", fl[4], fl[3]
            failed = 1
          }
        }
      }
      exit failed
    }
  ' "BENCH_$name.json" "BENCH_$name.tmp.json"
}

status=0
# Tracing overhead is paired WITHIN the current run (see bench header).
compare flow_throughput records_per_sec "workload parallelism:p batch:b mode" . \
  "join_parallel_cells/p4/b64|join_parallel_cells/p4/b1|1.5|join_parallel_cells p=4 batch64/batch1" \
  "trace_overhead/p4/b64/off|trace_overhead/p4/b64/ref|0.99|trace_overhead off/ref" \
  "trace_overhead/p4/b64/on|trace_overhead/p4/b64/off|0.95|trace_overhead on/off" \
  || status=1
compare join_kernel pairs_per_sec "kernel eps_rel:eps opc:opc" . \
  || status=1
# interval=100 may cost at most 5% against checkpointing off (i0).
compare checkpoint snapshots_per_sec "parallelism:p interval:i" "" \
  "p1/i100|p1/i0|0.95|checkpoint p=1 interval=100 / off" \
  "p4/i100|p4/i0|0.95|checkpoint p=4 interval=100 / off" \
  || status=1
compare enum snapshots_per_sec "algo impl m:m k:k l:l g:g opc:opc" . \
  "fba/fast/m4/k18/l3/g3/opc32|fba/naive/m4/k18/l3/g3/opc32|3.0|enumerator headline (fba m4/k18/l3/g3/opc32) fast/naive" \
  || status=1
compare transport snapshots_per_sec "transport workers:w parallelism:p" "^threads/" \
  "unix/w4/p4|threads/w0/p4|0|p=4 transport tax unix/threads" \
  "tcp/w4/p4|threads/w0/p4|0|p=4 transport tax tcp/threads" \
  || status=1

for bench in "${BENCHES[@]}"; do rm -f "BENCH_$bench.tmp.json"; done
if [ "$status" -ne 0 ]; then
  echo "bench smoke FAILED (>20% regression or lost headline win)" >&2
else
  echo "bench smoke clean"
fi
exit "$status"
