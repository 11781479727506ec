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
# (go build -gcflags='-m') over those packages, counts
# `escapes to heap` diagnostics inside each annotated function, and
# compares the counts against the committed budget in
# scripts/alloccheck.baseline (one `file:Func N` line per function;
# an unlisted function's budget is 0).
#
# Unlike its earlier informational incarnation, this is a CI gate: a
# change that introduces a new heap escape in an annotated function
# fails check.sh. If the escape is intentional, re-run with -update and
# commit the regenerated baseline alongside the change.
#
# Usage: scripts/alloccheck.sh [-update]

set -euo pipefail
cd "$(dirname "$0")/.."

baseline="scripts/alloccheck.baseline"
packages="internal/core internal/serve internal/etld internal/dhcp internal/line internal/graph"
update=0
[ "${1:-}" = "-update" ] && update=1

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

budget_for() {
    local key="$1"
    if [ -f "$baseline" ]; then
        awk -v k="$key" '$1 == k { print $2; found = 1 } END { if (!found) print 0 }' "$baseline"
    else
        echo 0
    fi
}

fail=0
newbase=""
while read -r file name start end; do
    count="$(awk -F: -v f="$file" -v s="$start" -v e="$end" \
        '$1 == f && $2 + 0 >= s && $2 + 0 <= e' <<<"$escapes" | wc -l | tr -d ' ')"
    newbase+="$file:$name $count"$'\n'
    budget="$(budget_for "$file:$name")"
    if [ "$count" -gt "$budget" ]; then
        echo "alloccheck: FAIL $file:$name: $count heap escape(s), budget $budget"
        awk -F: -v f="$file" -v s="$start" -v e="$end" \
            '$1 == f && $2 + 0 >= s && $2 + 0 <= e' <<<"$escapes" |
            sed 's/^/alloccheck:   /'
        fail=1
    else
        echo "alloccheck: ok   $file:$name: $count heap escape(s) (budget $budget)"
    fi
done <<<"$marked"

if [ "$update" -eq 1 ]; then
    printf '%s' "$newbase" | sort >"$baseline"
    echo "alloccheck: wrote $baseline"
    exit 0
fi

if [ "$fail" -ne 0 ]; then
    echo "alloccheck: hot-path functions gained heap escapes; fix them or re-baseline with scripts/alloccheck.sh -update" >&2
    exit 1
fi
echo "alloccheck: hot path within allocation budget"
