#!/usr/bin/env bash
# Runs all four workloads at 1/50 size, traced (so the probes and the span
# accounting run too), and fails unless every run is correct. Takes a few
# seconds once the binary is built; meant for a CI step.
set -euo pipefail
cd "$(dirname "$0")/.."
for w in oltp_tpcc asof_rewind asof_beside_writes crash_recovery; do
  out=$(bash bench/run.sh --workload "$w" --seed 1 --seconds 0.24 --trace 1 | tail -1)
  case "$out" in
    '{"correct":true,'*'"failed":0,'*) echo "smoke: $w ok" ;;
    *) echo "smoke: $w FAILED: ${out:0:300}" >&2; exit 1 ;;
  esac
done
