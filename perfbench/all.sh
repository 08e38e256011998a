#!/usr/bin/env bash
# Runs the untraced and the traced pass of every workload once and stops at
# the first run whose correctness checks fail. Run it from the repository
# root:
#
#     bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-15}"
for workload in room-sync room-wave floor-ctrl; do
    for trace in 0 1; do
        bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
