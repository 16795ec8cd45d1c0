#!/usr/bin/env bash
# coverfloor.sh — statement-coverage floors for the serving-critical code.
#
# Runs the root and serving test suites with a coverage profile over the
# public facade and internal/serve, computes per-target statement coverage
# (whole serve package; api.go, cache.go, query.go, validate.go as files),
# and fails if any target drops below its recorded floor.
#
# The floors are deliberately a few points under the measured values at the
# time of recording — they exist to catch "a refactor silently dropped the
# serving tests", not to enforce a style of testing. Re-record by running
# this script and reading the printed percentages.
#
# Usage: scripts/coverfloor.sh [coverprofile]
#   With no argument, the profile is generated into a temp file.
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE="${1:-}"
if [[ -z "$PROFILE" ]]; then
    PROFILE="$(mktemp)"
    trap 'rm -f "$PROFILE"' EXIT
    go test -coverprofile="$PROFILE" \
        -coverpkg=repro,repro/internal/serve \
        . ./internal/serve > /dev/null
fi

# Floors (percent). Measured at recording time (2026-07): serve 90.4,
# api.go 89.4, cache.go 93.7, validate.go 95.8. Each floor sits ~8 points
# under the measurement to absorb small refactors while still tripping on a
# lost test file.
# query.go holds the one query path every entry point runs (2026-10: 85.3
# before the entry points merged, 98.7 after), so its floor is 90.
check() {
    local label="$1" pattern="$2" floor="$3"
    awk -v pat="$pattern" -v floor="$floor" -v label="$label" '
        NR > 1 {
            split($0, f, ":")
            if (f[1] !~ pat) next
            # fields: start,end numStmts hitCount
            n = split($0, g, " ")
            stmts = g[n-1]; hits = g[n]
            key = f[1] ":" g[n-2]
            if (!(key in seen)) { seen[key] = stmts; total += stmts }
            if (hits > 0 && !(key in cov)) { cov[key] = 1; covered += seen[key] }
        }
        END {
            if (total == 0) { printf "coverfloor: %-20s no statements matched\n", label; exit 1 }
            pct = 100 * covered / total
            status = (pct + 1e-9 >= floor) ? "ok" : "FAIL"
            printf "coverfloor: %-20s %6.1f%% (floor %s%%) %s\n", label, pct, floor, status
            if (status == "FAIL") exit 1
        }' "$PROFILE"
}

rc=0
check "internal/serve"      "^repro/internal/serve/" 82 || rc=1
check "api.go"              "^repro/api\\.go$"       80 || rc=1
check "cache.go"            "^repro/cache\\.go$"     85 || rc=1
check "query.go"            "^repro/query\\.go$"     90 || rc=1
check "validate.go"         "^repro/validate\\.go$"  88 || rc=1
exit $rc
