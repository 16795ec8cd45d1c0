#!/usr/bin/env bash
# serve_e2e.sh — end-to-end smoke of the persistence and routing layer:
#
#   1. store restart: factorize once with -store, restart over the same
#      directory, and assert the first query after restart is served warm
#      (factorizations 0, store_hits 1);
#   2. load: 64 requests, 8 in flight, over four kernels (every other group
#      of four with a max_error budget) against one direct backend, whose
#      /stats must then read 64 requests and no bad request, compute error
#      or rejection; then the same load through a 2-backend rendezvous-hash
#      router, which must have forwarded to both backends. Any non-2xx
#      answer fails the script.
#
# Needs: go, curl, xargs, python3 (JSON assertions). Exits nonzero on any
# broken invariant.
set -euo pipefail

QMC=500
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/mvnserve" ./cmd/mvnserve

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "serve_e2e: $1 never became healthy" >&2
  return 1
}

stat_field() { # url field
  curl -fsS "$1/stats" | python3 -c "import json,sys; print(json.load(sys.stdin)[\"$2\"])"
}

load() { # url label: 64 POSTs, 8 in flight; request i asks for kernel range
  # 0.05·(1 + i mod 4), and every other group of four carries max_error 0.01.
  # A non-2xx answer fails curl -f, so xargs exits 123 and set -e stops here.
  seq 0 63 | xargs -P 8 -I{} bash -c '
    i=$1 budget=""
    range=$(printf "0.%02d" $((5 + 5 * (i % 4))))
    if [ $((i / 4 % 2)) = 1 ]; then budget=",\"max_error\":0.01"; fi
    curl -fsS -o /dev/null -X POST "$0/v1/mvnprob" -d "{\"grid\":{\"nx\":12,\"ny\":12},\"kernel\":{\"family\":\"exponential\",\"sigma2\":1,\"range\":$range},\"lower\":-1$budget}"
  ' "$1" {}
  echo "load $2: 64 requests answered"
}

QUERY='{"grid":{"nx":12,"ny":12},"kernel":{"family":"exponential","range":0.1},"lower":-1}'

echo "== store restart: cold run =="
STORE="$WORK/factors"
"$WORK/mvnserve" -addr 127.0.0.1:18411 -qmc $QMC -store "$STORE" &
S1=$!; PIDS+=("$S1")
wait_healthy http://127.0.0.1:18411
curl -fsS -X POST http://127.0.0.1:18411/v1/mvnprob -d "$QUERY" | grep -q '"prob"'
for _ in $(seq 1 50); do
  [ "$(stat_field http://127.0.0.1:18411 store_saves)" = "1" ] && break
  sleep 0.1
done
[ "$(stat_field http://127.0.0.1:18411 factorizations)" = "1" ] || { echo "cold run: want 1 factorization" >&2; exit 1; }
[ "$(stat_field http://127.0.0.1:18411 store_saves)" = "1" ] || { echo "cold run: factor never persisted" >&2; exit 1; }
kill "$S1"; wait "$S1" 2>/dev/null || true

echo "== store restart: warm run =="
"$WORK/mvnserve" -addr 127.0.0.1:18412 -qmc $QMC -store "$STORE" &
S2=$!; PIDS+=("$S2")
wait_healthy http://127.0.0.1:18412
T0=$(date +%s%N)
curl -fsS -X POST http://127.0.0.1:18412/v1/mvnprob -d "$QUERY" | grep -q '"prob"'
T1=$(date +%s%N)
[ "$(stat_field http://127.0.0.1:18412 factorizations)" = "0" ] || { echo "restart: want 0 factorizations (warm from store)" >&2; exit 1; }
[ "$(stat_field http://127.0.0.1:18412 store_hits)" = "1" ] || { echo "restart: want 1 store hit" >&2; exit 1; }
[ "$(stat_field http://127.0.0.1:18412 cache_hits)" = "1" ] || { echo "restart: want 1 cache hit" >&2; exit 1; }
kill "$S2"; wait "$S2" 2>/dev/null || true
WARM_MS=$(( (T1 - T0) / 1000000 ))
echo "restart-warm first query: ${WARM_MS}ms, 0 factorizations"

echo "== load: 1 direct backend =="
"$WORK/mvnserve" -addr 127.0.0.1:18421 -qmc $QMC &
B1=$!; PIDS+=("$B1")
wait_healthy http://127.0.0.1:18421
load http://127.0.0.1:18421 direct-1

# The backend counted every request, and none failed or was turned away.
python3 <<'EOF'
import json, sys, urllib.request
st = json.load(urllib.request.urlopen("http://127.0.0.1:18421/stats"))
want = {"requests": 64, "bad_requests": 0, "compute_errors": 0, "rejected": 0}
got = {k: st[k] for k in want}
if got != want:
    sys.exit(f"direct load: /stats read {got}, want {want}")
print(f"direct /stats {got}")
EOF

echo "== load: 2 backends behind the router =="
"$WORK/mvnserve" -addr 127.0.0.1:18422 -qmc $QMC &
B2=$!; PIDS+=("$B2")
"$WORK/mvnserve" -addr 127.0.0.1:18423 -route http://127.0.0.1:18421,http://127.0.0.1:18422 -health-interval 300ms &
RT=$!; PIDS+=("$RT")
wait_healthy http://127.0.0.1:18422
wait_healthy http://127.0.0.1:18423
load http://127.0.0.1:18423 router-2

# Both backends must have taken traffic (a failed request has already failed
# the script through load's exit status).
python3 <<'EOF'
import json, sys, urllib.request
st = json.load(urllib.request.urlopen("http://127.0.0.1:18423/stats"))
fw = [b["forwarded"] for b in st["backends"]]
if min(fw) == 0:
    sys.exit(f"router never used one backend: forwarded={fw}")
print(f"router forwarded {fw}")
EOF

echo "serve_e2e: ok"
