#!/usr/bin/env bash
# escapegate.sh — escape-analysis gate for the certified hot-path files.
#
# Compiles the kernel packages with -gcflags=-m and compares the compiler's
# "escapes to heap" / "moved to heap" diagnostics for the gated files against
# the checked-in golden list. The gated files are the ones the
# //repro:noalloc annotations certify: their parameters and scratch must stay
# on the stack (or on the workspace pool), so any NEW escape diagnostic there
# is a hot-path allocation regression — exactly the kind a benchmark only
# notices later.
#
# The comparison is content-based, not line-based: diagnostics are normalized
# to "count file: message", so ordinary edits that shift line numbers do not
# trip the gate, while a new escape (or a new copy of an old one) does.
#
# When a hot path legitimately changes (or the Go toolchain's escape
# analysis improves), re-bless the output:
#
#   scripts/escapegate.sh --update
#
# and commit the regenerated golden file together with the change.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=scripts/golden/escape.golden

# The certified warm path: the chain-blocked sweep and the factor's tile
# applies it propagates through (f64 and the f32 shadow), the packed
# BLAS-3 kernels (including the resident packed-A operand and the AVX2
# dispatch shims), the batched special functions with their vector backends,
# the f32 tile kernels and the QMC block generators. (The scalar fallbacks in
# sov.go ride along: chainStep is the sweep's sparse path.)
GATED='^internal/(mvn/(sweep|factor|sov|pmvn|wave)|linalg/(blocked|packed|blas|kern_amd64)|stats/(batch|spec_amd64|phinv|stats)|tile/(f32|pool32)|qmc/qmc)\.go'

current() {
    go build -gcflags=-m ./internal/mvn ./internal/linalg ./internal/stats ./internal/tile ./internal/qmc 2>&1 |
        grep -E '(escapes to heap|moved to heap)' |
        sed -E 's/^([^:]*):[0-9]+:[0-9]+: /\1: /' |
        grep -E "$GATED" |
        sort | uniq -c | sed -E 's/^ *//'
}

if [[ "${1:-}" == "--update" ]]; then
    mkdir -p "$(dirname "$GOLDEN")"
    current > "$GOLDEN"
    echo "escapegate: golden list updated ($(wc -l < "$GOLDEN") entries)"
    exit 0
fi

if [[ ! -f "$GOLDEN" ]]; then
    echo "escapegate: missing $GOLDEN — run scripts/escapegate.sh --update" >&2
    exit 1
fi

if ! diff -u "$GOLDEN" <(current); then
    cat >&2 <<'EOF'
escapegate: FAIL — heap-escape diagnostics changed in a gated hot-path file.
Lines with + are new escapes (a hot-path allocation regression: fix it, or
pool/stack the value); lines with - disappeared (an improvement: re-bless
with scripts/escapegate.sh --update and commit the golden file).
EOF
    exit 1
fi
echo "escapegate: ok ($(wc -l < "$GOLDEN") known escapes in gated files)"
