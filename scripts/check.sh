#!/usr/bin/env bash
# check.sh — the tier-1+ correctness gate for this repository.
#
# Runs, in order: formatting, go vet, build (and a vet, as arm64 and 386
# see them, without the AVX kernels, of the packages that have or call
# one), the sealed-file gate, the
# maldlint static analyzer (zero findings; //maldlint:ignore is the only
# way to accept one), the escape-analysis gate for the scoring, ingest and SGD
# hot paths (scripts/alloccheck.sh: no heap escape allowed), the full
# test suite under the race detector, a train/score persistence round
# trip on a tiny generated trace, a serving-daemon smoke
# (score/batch/404/healthz/metrics over HTTP, an observe→score fold-in
# round trip for an unseen domain, SIGHUP hot reload, graceful SIGTERM
# shutdown), a crash-recovery smoke (streaming run SIGKILLed
# mid-window, resumed from its checkpoint, feed compared byte-for-byte
# against an uninterrupted run), the two examples, the ledger's quick
# smoke, and a short fuzz smoke for each native fuzz target. Every step
# must pass; the script stops at the first failure.
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime  per-target -fuzztime for the smoke stage (default 10s;
#             pass 0 to skip fuzzing, e.g. in quick local iterations).

set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime="${1:-10s}"

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> GOARCH=arm64 and GOARCH=386 go vet (the builds without the AVX kernels)"
GOARCH=arm64 go vet ./internal/line ./internal/mathx ./internal/svm ./internal/core
GOARCH=386 go vet ./internal/line ./internal/mathx

echo "==> sealed-file gate (framing and commit live in internal/crcio only)"
if grep -rnE '(CreateTemp|\.Rename|crcio\.New(Writer|Reader))\(' --include='*.go' . |
    grep -vE '_test\.go:|/testdata/|^\./internal/(crcio|faultio)/'; then
    echo "temp-file commits and CRC framing must go through internal/crcio" >&2 && exit 1
fi

echo "==> maldlint ./..."
go run ./cmd/maldlint ./...

echo "==> escape-analysis gate for the scoring, ingest and SGD hot paths"
scripts/alloccheck.sh

echo "==> go test -race ./..."
go test -race ./...

echo "==> maldetect train/score round trip"
smokedir="$(mktemp -d)"
serve_pid=""
stream_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    [ -n "$stream_pid" ] && kill -9 "$stream_pid" 2>/dev/null || true
    rm -rf "$smokedir"
}
trap cleanup EXIT
go run ./cmd/dnsgen -scale small -seed 7 \
    -out "$smokedir/trace.tsv" -truth "$smokedir/truth.tsv"
go build -o "$smokedir/maldetect" ./cmd/maldetect
# A model is a function of (trace, flags, seed): trained twice, the two
# files are the same bytes.
for out in model.bin model-again.bin; do
    "$smokedir/maldetect" train -seed 7 \
        -trace "$smokedir/trace.tsv" -truth "$smokedir/truth.tsv" \
        -out "$smokedir/$out"
done
cmp "$smokedir/model.bin" "$smokedir/model-again.bin"
"$smokedir/maldetect" score -model "$smokedir/model.bin" -top 5 \
    >"$smokedir/scores.txt"
grep -q '^top 5 suspicious domains:' "$smokedir/scores.txt"

echo "==> maldetect pluggable-backend round trip (mf + labelprop)"
# The registry listing must name every built-in backend, and a
# non-default selection must train, persist, reload, and score with the
# backend names surfaced in the fingerprint.
"$smokedir/maldetect" backends >"$smokedir/backends.txt"
for name in line mf svm labelprop ensemble all query+ip; do
    grep -q "^  $name" "$smokedir/backends.txt"
done
"$smokedir/maldetect" train -seed 7 \
    -embedder mf -classifier labelprop \
    -trace "$smokedir/trace.tsv" -truth "$smokedir/truth.tsv" \
    -out "$smokedir/model-mf.bin" >"$smokedir/train-mf.txt"
grep -q 'embedder=mf classifier=labelprop' "$smokedir/train-mf.txt"
"$smokedir/maldetect" score -model "$smokedir/model-mf.bin" -top 5 \
    >"$smokedir/scores-mf.txt" 2>"$smokedir/score-mf.log"
grep -q '^top 5 suspicious domains:' "$smokedir/scores-mf.txt"
grep -q 'backends: embedder=mf classifier=labelprop' "$smokedir/score-mf.log"

echo "==> maldetect serve smoke"
# Start the daemon on an ephemeral port and parse the bound address
# from its startup log.
"$smokedir/maldetect" serve -model "$smokedir/model.bin" \
    -addr 127.0.0.1:0 2>"$smokedir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|.*serving on http://\([^ ]*\)$|\1|p' "$smokedir/serve.log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve daemon did not start:" >&2
    cat "$smokedir/serve.log" >&2
    exit 1
fi
# One known domain (first ranked row of the score output) and one
# unknown domain; then batch, health, and metrics. Curl output is
# captured into variables — piping straight into `grep -q` would close
# the pipe at the first match and fail curl under pipefail.
known="$(awk 'NR==3 {print $1}' "$smokedir/scores.txt")"
grep -q '"score"' <<<"$(curl -fsS "http://$addr/v1/score/$known")"
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/score/not-a-real-domain.invalid")"
[ "$code" = 404 ]
grep -q '"known":true' <<<"$(curl -fsS -X POST \
    -d '{"domains":["'"$known"'","not-a-real-domain.invalid"]}' \
    "http://$addr/v1/score/batch")"
grep -q '"status":"ok"' <<<"$(curl -fsS "http://$addr/healthz")"
grep -q '^maldomain_http_requests_total' <<<"$(curl -fsS "http://$addr/metrics")"
# Fold-in round trip: an unseen domain 404s with the structured error
# envelope, POST /v1/observe feeds relations to ranked known domains,
# and the next score is a provisional fold-in verdict with a
# confidence in [0,1].
n2="$(awk 'NR==4 {print $1}' "$smokedir/scores.txt")"
n3="$(awk 'NR==5 {print $1}' "$smokedir/scores.txt")"
grep -q '"code":"unknown_domain"' \
    <<<"$(curl -s "http://$addr/v1/score/folded.invalid")"
grep -q '"entries":1' <<<"$(curl -fsS -X POST -d '{
    "domain":"folded.invalid",
    "relations":[{"view":"query","neighbor":"'"$known"'","weight":2},
                 {"view":"ip","neighbor":"'"$n2"'","weight":1},
                 {"view":"time","neighbor":"'"$n3"'","weight":1}]}' \
    "http://$addr/v1/observe")"
folded="$(curl -fsS "http://$addr/v1/score/folded.invalid")"
grep -q '"known":false' <<<"$folded"
grep -q '"source":"foldin"' <<<"$folded"
conf="$(sed -n 's/.*"confidence":\([0-9.eE+-]*\),.*/\1/p' <<<"$folded")"
awk -v c="$conf" 'BEGIN { exit !(c >= 0 && c <= 1) }'
grep -q '"code":"bad_request"' <<<"$(curl -s -X POST \
    -d '{"domain":"x.invalid","relations":[{"view":"dns","neighbor":"y"}]}' \
    "http://$addr/v1/observe")"
# SIGHUP hot reload must keep the daemon serving.
kill -HUP "$serve_pid"
for _ in $(seq 1 100); do
    grep -q 'reloaded model' "$smokedir/serve.log" && break
    sleep 0.1
done
grep -q 'reloaded model' "$smokedir/serve.log"
grep -q '"score"' <<<"$(curl -fsS "http://$addr/v1/score/$known")"
grep -q 'maldomain_model_reloads_total{result="ok"} 1' <<<"$(curl -fsS "http://$addr/metrics")"
# Graceful shutdown: SIGTERM must end the process with status 0.
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""

echo "==> maldetect crash-recovery smoke"
# Reference: an uninterrupted streaming run over the same trace.
"$smokedir/maldetect" stream -seed 7 \
    -trace "$smokedir/trace.tsv" -truth "$smokedir/truth.tsv" \
    -feed "$smokedir/ref-alerts.tsv" 2>"$smokedir/ref-stream.log"
# SIGKILL a checkpointed run as soon as its first checkpoint lands (the
# remaining day boundaries are still pending), restart it, and require
# the resumed feed to be byte-identical to the reference.
"$smokedir/maldetect" stream -seed 7 \
    -trace "$smokedir/trace.tsv" -truth "$smokedir/truth.tsv" \
    -feed "$smokedir/crash-alerts.tsv" -checkpoint "$smokedir/crash.ckpt" \
    2>"$smokedir/crash.log" &
stream_pid=$!
for _ in $(seq 1 300); do
    [ -f "$smokedir/crash.ckpt" ] && break
    sleep 0.1
done
[ -f "$smokedir/crash.ckpt" ]
kill -9 "$stream_pid" 2>/dev/null || true
wait "$stream_pid" 2>/dev/null || true
stream_pid=""
"$smokedir/maldetect" stream -seed 7 \
    -trace "$smokedir/trace.tsv" -truth "$smokedir/truth.tsv" \
    -feed "$smokedir/crash-alerts.tsv" -checkpoint "$smokedir/crash.ckpt" \
    2>>"$smokedir/crash.log"
grep -q 'resumed from' "$smokedir/crash.log"
cmp "$smokedir/ref-alerts.tsv" "$smokedir/crash-alerts.tsv"

echo "==> examples"
# Each must run to its end: the toy trace surfaces its held-out C&C
# domain, and the rolling detector reports a feed.
grep -q 'correctly surfaced' <<<"$(go run ./examples/quickstart)"
grep -q '^feed precision over' <<<"$(go run ./examples/streaming-detection)"

echo "==> benchmark smoke (ledger quick run)"
# Skipped under -race, so the race stage above does not cover it.
go test -run '^TestQuickSmoke$' ./bench

if [ "$fuzztime" != "0" ]; then
    echo "==> fuzz smoke (${fuzztime} per target)"
    go test -run='^$' -fuzz='^FuzzDecodeMessage$' -fuzztime="$fuzztime" ./internal/dnswire
    go test -run='^$' -fuzz='^FuzzParseETLD$' -fuzztime="$fuzztime" ./internal/etld
    go test -run='^$' -fuzz='^FuzzParseLogLine$' -fuzztime="$fuzztime" ./internal/pipeline
    go test -run='^$' -fuzz='^FuzzReadLog$' -fuzztime="$fuzztime" ./internal/pipeline
    go test -run='^$' -fuzz='^FuzzRestore$' -fuzztime="$fuzztime" ./internal/stream
    go test -run='^$' -fuzz='^FuzzOpen$' -fuzztime="$fuzztime" ./internal/crcio
    go test -run='^$' -fuzz='^FuzzDecodeNDJSON$' -fuzztime="$fuzztime" ./internal/serve
    go test -run='^$' -fuzz='^FuzzJSONStringEquivalence$' -fuzztime="$fuzztime" ./internal/serve
    go test -run='^$' -fuzz='^FuzzBatchRequest$' -fuzztime="$fuzztime" ./internal/serve
    go test -run='^$' -fuzz='^FuzzObserveBody$' -fuzztime="$fuzztime" ./internal/serve
    go test -run='^$' -fuzz='^FuzzSampleKernel$' -fuzztime="$fuzztime" ./internal/line
    go test -run='^$' -fuzz='^FuzzRowDots$' -fuzztime="$fuzztime" ./internal/mathx
fi

echo "==> all checks passed"
