#!/usr/bin/env bash
# alloccheck.sh — escape-analysis gate for the scoring, ingest and SGD
# hot paths.
#
# Functions annotated with a `//alloccheck:hot` comment line (directly
# above the declaration, in the packages listed below) are the
# per-request hot path of the serving daemon (Scorer lookups, the cold
# fold-in behind a cache miss and the daemon's score handler), the
# per-event e2LD extraction and lease lookup of ingest, and
# the per-sample work of LINE training (matrix.sample, matrix.step and
# AliasTable.Sample).
# This script runs the compiler's escape analysis
# (go build -gcflags='-m') over those packages and fails if any
# `escapes to heap` diagnostic falls inside an annotated function: the
# budget is zero for every one of them.
#
# Usage: scripts/alloccheck.sh

set -euo pipefail
cd "$(dirname "$0")/.."

packages="internal/core internal/serve internal/etld internal/dhcp internal/line internal/graph"

# Locate annotated functions: file, name, start line, end line. The
# marker must sit in the comment block directly above the declaration;
# a function ends at the next column-0 closing brace.
marked="$(awk '
    FNR == 1   { hot = 0; infunc = 0 }
    /^\/\/alloccheck:hot/ { hot = 1; next }
    hot && /^func / {
        name = $0
        sub(/^func +(\([^)]*\) +)?/, "", name)
        sub(/[(\[].*/, "", name)
        start = FNR; fname = FILENAME
        infunc = 1; hot = 0
        next
    }
    hot && !/^\/\// { hot = 0 }
    infunc && /^}/  { print fname, name, start, FNR; infunc = 0 }
' $(printf '%s/*.go ' $packages))"
# Test files never compile into the serving binary; drop any markers
# that slipped into them.
marked="$(grep -v '_test\.go' <<<"$marked" || true)"

if [ -z "$marked" ]; then
    echo "alloccheck: no //alloccheck:hot annotations found" >&2
    exit 1
fi

# -m diagnostics go to stderr; naming the packages forces their
# recompilation so the diagnostics are produced even on a warm cache.
escapes="$(go build -gcflags='-m' $(printf './%s ' $packages) 2>&1 |
    grep 'escapes to heap' || true)"

fail=0
while read -r file name start end; do
    inside="$(awk -F: -v f="$file" -v s="$start" -v e="$end" \
        '$1 == f && $2 + 0 >= s && $2 + 0 <= e' <<<"$escapes")"
    if [ -n "$inside" ]; then
        echo "alloccheck: FAIL $file:$name: $(wc -l <<<"$inside" | tr -d ' ') heap escape(s)"
        sed 's/^/alloccheck:   /' <<<"$inside"
        fail=1
    else
        echo "alloccheck: ok   $file:$name"
    fi
done <<<"$marked"

if [ "$fail" -ne 0 ]; then
    echo "alloccheck: hot-path functions gained heap escapes; remove them" >&2
    exit 1
fi
echo "alloccheck: no heap escapes on the hot path"
