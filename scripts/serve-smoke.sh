#!/usr/bin/env bash
# serve-smoke: what only real processes can show about serving. Every
# property of the answers themselves — warm == cold, sharded ==
# unsharded, /v1 aliases, multi-model routing, shard-down degradation,
# the scrape surface, and identical bytes over json, wire and tcp — is
# held by the Go suites (internal/serve, pkg/client's
# FuzzShapesAndTransports). This script keeps the rest:
#   - the runtime series gsgcn-serve registers on its own scrape;
#   - flag and -config parsing end to end, one boot each, and one
#     dataset load per data path (a model naming -data's file shares
#     the process-wide dataset);
#   - -addr discovery (the next port on a bind collision) and
#     -wire-addr discovery (an ephemeral port, read from the log);
#   - SIGHUP advances the snapshot version, SIGTERM exits cleanly;
#   - an i8pq warm boot from shard artifacts gsgcn-index wrote in
#     another process, mapped without asking (no flag selects it:
#     /healthz must report mapped_bytes);
#   - gsgcn-loadgen through a reload storm and shard churn: no hard
#     failure, and the share of requests the stopped shard turned away
#     above zero and at most 35%.
# Binaries are expected in ./bin (built by `make serve-smoke`).
set -euo pipefail

BIN=${BIN:-./bin}
PORT=${PORT:-18473}
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: $*" >&2
    exit 1
}

# start_server ARGS... — launch gsgcn-serve, retrying on the next
# port only when the failure really was a bind collision (another
# process may own the default port on a shared CI host), and wait for
# /healthz to answer. Any other startup crash fails fast with the
# server's own output.
start_server() {
    local attempt i
    for attempt in 1 2 3 4 5; do
        "$BIN/gsgcn-serve" "$@" -addr "127.0.0.1:$PORT" 2>"$TMP/server.log" &
        SERVER_PID=$!
        base="http://127.0.0.1:$PORT"
        for i in $(seq 1 50); do
            if curl -sf "$base/healthz" >/dev/null 2>&1; then
                cat "$TMP/server.log" >&2
                return 0
            fi
            if ! kill -0 "$SERVER_PID" 2>/dev/null; then
                break
            fi
            sleep 0.2
        done
        if kill -0 "$SERVER_PID" 2>/dev/null; then
            cat "$TMP/server.log" >&2
            fail "server up but /healthz never answered"
        fi
        SERVER_PID=""
        if ! grep -q "address already in use" "$TMP/server.log"; then
            cat "$TMP/server.log" >&2
            fail "server crashed at startup"
        fi
        PORT=$((PORT + 1))
        echo "serve-smoke: port collision, retrying on $PORT" >&2
    done
    fail "no free port after 5 attempts"
}

# stop_server — SIGTERM must drain and exit 0, logging its shutdown.
stop_server() {
    local code=0
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || code=$?
    SERVER_PID=""
    if [ "$code" != 0 ]; then
        cat "$TMP/server.log" >&2
        fail "SIGTERM exit status $code, want 0"
    fi
    grep -q '"event":"shutdown","signal":"terminated"' "$TMP/server.log" ||
        fail "SIGTERM left no shutdown event in the log"
}

# expect PATH PATTERN... — GET PATH must answer 200 with a body holding
# every fixed-string PATTERN.
expect() {
    local path=$1 body p
    shift
    body=$(curl -sf "$base$path") || fail "GET $path failed"
    for p in "$@"; do
        if ! printf '%s' "$body" | grep -qF -- "$p"; then
            fail "GET $path lacks $p: $body"
        fi
    done
}

# version — the default model's snapshot version, from /healthz.
version() {
    curl -sf "$base/healthz" | sed -n 's/.*"version":\([0-9]*\).*/\1/p'
}

echo "== datagen"
"$BIN/gsgcn-datagen" -dataset ppi -scale 0.02 -out "$TMP/g.gsg" -stats=false

echo "== train (2 epochs)"
"$BIN/gsgcn-train" -data "$TMP/g.gsg" -epochs 2 -hidden 16 -save "$TMP/m.ckpt" >/dev/null

echo "== index (i8pq, 3 shards, written by its own process)"
"$BIN/gsgcn-index" -load "$TMP/m.ckpt" -data "$TMP/g.gsg" -out "$TMP/sh.art" \
    -dtype i8pq -shards 3 -shard-seed 42
for i in 0 1 2; do
    [ -s "$TMP/sh.art.s${i}of3" ] && [ -s "$TMP/sh.art.s${i}of3.json" ] ||
        fail "missing shard artifact s${i}of3 or its manifest"
done

echo "== serve -config (three models over one data file, canary the default)"
cat >"$TMP/fleet.json" <<EOF
{
  "default": "canary",
  "models": [
    {"name": "prod", "checkpoint": "$TMP/m.ckpt"},
    {"name": "canary", "checkpoint": "$TMP/m.ckpt", "ann": true},
    {"name": "named", "checkpoint": "$TMP/m.ckpt", "data": "$TMP/g.gsg"}
  ]
}
EOF
start_server -data "$TMP/g.gsg" -config "$TMP/fleet.json"
loads=$(grep -c '"event":"dataset"' "$TMP/server.log" || true)
[ "$loads" = 1 ] || fail "$loads dataset loads for one data file, want 1"
expect /models '"default":"canary"' '"name":"canary","default":true' '"name":"prod","default":false'
expect /models/canary/healthz '"ann_default":true'
expect /models/prod/healthz '"ann_default":false'
# The process registers its runtime series itself (the Go suites build
# registries without them): they must reach the real scrape.
expect /metrics 'gsgcn_build_info{commit=' 'gsgcn_go_heap_alloc_bytes_total ' 'gsgcn_go_gc_cycles_total '

echo "== SIGHUP: every model reloads, the version advances"
v=$(version)
[ "$v" = 1 ] || fail "boot version $v, want 1"
kill -HUP "$SERVER_PID"
for i in $(seq 1 50); do
    [ "$(version)" = 2 ] && break
    sleep 0.1
done
[ "$(version)" = 2 ] || fail "SIGHUP left the version at $(version), want 2"
expect "/models/prod/healthz" '"version":2'

echo "== SIGTERM: drain and exit 0"
stop_server

echo "== serve flags (3 i8pq shards, mapped warm start, wire listener)"
start_server -data "$TMP/g.gsg" -load "$TMP/m.ckpt" -ann \
    -artifact "$TMP/sh.art" -dtype i8pq -shards 3 -shard-seed 42 \
    -deadline 2s -shed-queue 256 -wire-addr 127.0.0.1:0
expect /healthz '"shards":3' '"warm_start":true' '"dtype":"i8pq"' '"mapped_bytes":'
expect /shards '"shard_seed":42'

# The wire listener bound an ephemeral port; the server logs the real
# address in its wire_listening event.
WADDR=$(sed -n 's/.*"event":"wire_listening","addr":"\([^"]*\)".*/\1/p' "$TMP/server.log" | head -1)
[ -n "$WADDR" ] || fail "server log has no wire_listening event"
echo "== loadgen over framed TCP at $WADDR"
"$BIN/gsgcn-loadgen" -addr "$base" -transport tcp -wire-addr "$WADDR" \
    -rate 100 -duration 500ms -fail-on-errors >/dev/null

echo "== loadgen (mixed load + reload storm + shard churn)"
# Reloads and shard kill/restart cycles run mid-traffic; the only
# acceptable outcomes are answers, sheds (429) and degraded 503s from
# the killed shard — any client_error/server_error/transport fails
# the gate (-fail-on-errors), as does an empty success sample.
"$BIN/gsgcn-loadgen" -addr "$base" -rate 150 -duration 4s \
    -reload-every 1s -churn-shard 1 -churn-every 1s \
    -fail-on-errors 2>&1 | tee "$TMP/loadgen.txt" >&2

# The availability number, stated: shard 1 of 3 is down for about half
# the run, and a request naming any id it owns comes back 503 — 130 or
# 131 of some 600 (22%) in every run seen, the workload being seeded. Zero
# means the churn never took the shard down and the phase tested
# nothing; the 35% ceiling leaves room for a stop or start landing
# late on a loaded host, not for a second shard's worth of 503s.
# The class lines of loadgen's summary are its only two-field lines
# (pinned by TestReportListsOnlyNonZeroClasses).
total=$(awk 'NF == 2 && $2 ~ /^[0-9]+$/ { n += $2 } END { print n + 0 }' "$TMP/loadgen.txt")
unavail=$(awk 'NF == 2 && $1 == "unavailable" { n = $2 } END { print n + 0 }' "$TMP/loadgen.txt")
echo "serve-smoke: $unavail of $total requests unavailable under shard churn"
if [ "$unavail" -le 0 ] || [ $((100 * unavail)) -gt $((35 * total)) ]; then
    fail "unavailable share must be above 0 and at most 35%"
fi

echo "== SIGTERM: drain and exit 0"
stop_server

echo "serve-smoke: OK"
