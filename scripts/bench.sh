#!/usr/bin/env bash
# bench.sh — the model-quality benchmarks the ledger has no metric for.
#
# Everything that measures a path's cost lives in the ledger (`go run
# ./bench`, BENCHMARK.json; bench/README.md maps each retired mode and
# BENCH_*.json key to its ledger metric). What stays here measures
# model quality or an ablation:
#
# figures mode (default) runs the root table/figure reproduction
# benchmarks once each — Fig 4/5/7, Tables 1–2, the Exposure and
# belief-propagation baselines, self-training, and BenchmarkAblation* —
# each reporting its headline quality metric (AUC, cluster count, ...)
# as a custom column.
#
# ablation mode sweeps the pluggable stage registry's backend grid —
# {line, mf} embedders x {svm, labelprop, ensemble} classifiers — with
# Fig-6-style k-fold cross-validated AUC per cell (cmd/experiments
# -ablation) and converts the log into BENCH_8.json.
#
# Usage: scripts/bench.sh [figures|ablation]

set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-figures}" in
figures)
    go test -run='^$' -bench=. -benchtime=1x -timeout 60m .
    ;;
ablation)
    log="$(mktemp)"
    trap 'rm -f "$log"' EXIT
    go run ./cmd/experiments -ablation -scale small -seed 1 -kfolds 5 | tee "$log"
    go run ./cmd/benchjson <"$log" >BENCH_8.json
    echo "wrote BENCH_8.json"
    ;;
*)
    echo "usage: scripts/bench.sh [figures|ablation]" >&2
    exit 1
    ;;
esac
