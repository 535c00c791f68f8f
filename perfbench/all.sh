#!/usr/bin/env bash
# Run every workload end to end, then traced, from the root of the checkout.
#
#     bash perfbench/all.sh [seed] [seconds]
#
# seconds defaults to run_seconds in BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-0}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
for trace in 0 1; do
    for workload in train prefill decode; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
