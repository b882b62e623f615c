#!/bin/bash
# Run every workload once and print its end-to-end metrics.
# Usage, from the repository root: bash bench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
for workload in simulate-blockar verify-all analyze-1e6; do
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
