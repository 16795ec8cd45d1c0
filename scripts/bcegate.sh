#!/usr/bin/env bash
# bcegate.sh — bounds-check-elimination gate for the portable inner loops.
#
# Compiles internal/linalg and internal/mvn with -d=ssa/check_bce and counts
# the bounds checks the compiler could NOT eliminate in the gated files: the
# packed BLAS-3 kernels (blocked.go) and the chain-blocked sweep (sweep.go),
# whose portable fallback loops are the hot path on machines without the
# AVX2+FMA micro-kernels. The gate fails when a source line of a gated file
# carries more bounds checks than the checked-in golden allows — the usual
# way a "harmless" refactor of an inner loop quietly reintroduces
# per-element branches.
#
# Checks are counted per source line, keyed by the line's text rather than
# its number, so edits elsewhere in the file do not trip the gate, and a
# check that moves from a one-time reslice into the loop it guarded does
# (the file's total would not change). When a line loses checks the gate
# still passes but asks for a re-bless so the ceiling stays tight:
#
#   scripts/bcegate.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=scripts/golden/bce.golden
GATED='^internal/(linalg/blocked|mvn/sweep)\.go:'

# One "count<TAB>file<TAB>line text" row per gated source line that keeps a
# bounds check. sort -u first: the same diagnostic can be replayed once per
# build action that names the package.
current() {
    go build -gcflags=-d=ssa/check_bce ./internal/linalg ./internal/mvn 2>&1 |
        grep -E ': Found (IsInBounds|IsSliceInBounds)$' |
        grep -E "$GATED" |
        sort -u |
        while IFS=: read -r file line _; do
            printf '%s\t%s\n' "$file" "$(sed -n "${line}p" "$file" | sed -E 's/^[[:space:]]+//')"
        done |
        sort | uniq -c | sed -E 's/^ *([0-9]+) /\1\t/'
}

if [[ "${1:-}" == "--update" ]]; then
    mkdir -p "$(dirname "$GOLDEN")"
    current > "$GOLDEN"
    cut -f2 "$GOLDEN" | sort | uniq -c
    echo "bcegate: golden updated"
    exit 0
fi

if [[ ! -f "$GOLDEN" ]]; then
    echo "bcegate: missing $GOLDEN — run scripts/bcegate.sh --update" >&2
    exit 1
fi

awk -F'\t' '
    NR == FNR { golden[$2 FS $3] = $1; files[$2] = 1; next }
    {
        key = $2 FS $3; seen[$2] = 1; total[$2] += $1
        if ($1 > golden[key]) {
            printf "bcegate: FAIL %s: %d bounds check(s) on `%s` (golden %d) — an inner loop regressed; restructure the indexing or re-bless deliberately\n", $2, $1, $3, golden[key] > "/dev/stderr"
            rc = 1
        } else if ($1 < golden[key]) {
            improved[$2] = 1
        }
        cur[key] = 1
    }
    END {
        for (key in golden) {
            split(key, k, FS)
            if (!(key in cur) && k[1] in seen) improved[k[1]] = 1
        }
        for (f in files) {
            if (!(f in seen)) {
                printf "bcegate: golden file %s produced no diagnostics — deleted or renamed? run scripts/bcegate.sh --update\n", f > "/dev/stderr"
                rc = 1
            } else if (f in improved) {
                printf "bcegate: note %s: %d bounds checks, fewer on some line than the golden — re-bless with scripts/bcegate.sh --update\n", f, total[f]
            } else {
                printf "bcegate: ok %s: %d bounds checks\n", f, total[f]
            }
        }
        exit rc
    }' "$GOLDEN" <(current)
