#!/usr/bin/env bash
# Ten untraced runs of every workload, each on another seed: the runs the
# end-to-end bounds are set from (README.md, Steadiness; TestBoundsFollowSpread
# holds the bounds to them). Rewrites baseline/steadiness.jsonl, one result
# line per run; takes about 18 minutes on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
for w in served-burst served-rpc cluster-churn offline-suite; do
  for seed in $(seq 400 409); do
    line="$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 20 --trace 0 | tail -n 1)"
    printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$seed" "$line"
  done
done > benchmark/baseline/steadiness.jsonl
