#!/usr/bin/env bash
# serve-smoke: end-to-end check of the serving pipeline —
# datagen → short train → save checkpoint → launch gsgcn-serve →
# curl /embed, /predict, /topk → assert HTTP 200 and sane shapes —
# then the warm path: gsgcn-index builds a snapshot artifact, the
# server restarts against it, /healthz must report warm_start:true and
# every /topk answer must match the cold run byte-for-byte (the
# artifact determinism contract, asserted over HTTP).
# The memory-plane phase rebuilds the artifact quantized (-dtype
# i8pq), restarts the server memory-mapped (-mmap), and asserts the
# contract both ways: exact answers byte-identical to the f64 run,
# private working set (gsgcn_resident_bytes) at least 3x smaller.
# The final phase shards the same graph 3 ways: gsgcn-index -shards
# builds per-shard artifacts, the sharded server must answer /embed,
# /predict and exact /topk byte-identically to the single process,
# and stopping one shard must degrade /healthz (still HTTP 200) while
# ids on live shards keep answering unchanged.
# Each phase also scrapes /metrics and asserts the exposition tracks
# it: cold boots gauge warm_start 0, warm boots 1, multi-model rows
# scope by model label, and a stopped shard flips gsgcn_shard_up and
# grows the degraded-query counter.
# The sharded server also opens the binary wire transport
# (-wire-addr): /v1 aliases must answer byte-identically to the legacy
# routes, gsgcn-probe must decode identical answers over JSON,
# negotiated-binary HTTP and framed TCP (one TCP connection surviving
# a reload storm).
# Last, gsgcn-loadgen drives mixed open-loop traffic through a reload
# storm and shard churn: no hard failure, and the share of requests
# the stopped shard turned away is asserted — above zero, at most 35%.
# Binaries are expected in ./bin (built by `make serve-smoke`).
set -euo pipefail

BIN=${BIN:-./bin}
PORT=${PORT:-18473}
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    stop_server
    rm -rf "$TMP"
}
stop_server() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
        SERVER_PID=""
    fi
}
trap cleanup EXIT

# start_server ARGS... — launch gsgcn-serve, retrying on the next
# port only when the failure really was a bind collision (another
# process may own the default port on a shared CI host), and wait for
# /healthz to answer. Any other startup crash fails fast with the
# server's own output.
start_server() {
    local attempt
    for attempt in 1 2 3 4 5; do
        "$BIN/gsgcn-serve" "$@" -addr "127.0.0.1:$PORT" 2>"$TMP/server.log" &
        SERVER_PID=$!
        base="http://127.0.0.1:$PORT"
        local i
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
            echo "serve-smoke: server up but /healthz never answered" >&2
            cat "$TMP/server.log" >&2
            exit 1
        fi
        SERVER_PID=""
        if ! grep -q "address already in use" "$TMP/server.log"; then
            echo "serve-smoke: server crashed at startup:" >&2
            cat "$TMP/server.log" >&2
            exit 1
        fi
        PORT=$((PORT + 1))
        echo "serve-smoke: port collision, retrying on $PORT" >&2
    done
    echo "serve-smoke: no free port after 5 attempts" >&2
    exit 1
}

check() {
    local path=$1 field=$2
    local out code body
    out=$(curl -s -w '\n%{http_code}' "$base$path")
    code=${out##*$'\n'}
    body=${out%$'\n'*}
    if [ "$code" != 200 ]; then
        echo "serve-smoke: GET $path returned $code: $body" >&2; exit 1
    fi
    if ! printf '%s' "$body" | grep -q "\"$field\""; then
        echo "serve-smoke: GET $path response lacks \"$field\": $body" >&2; exit 1
    fi
}

# metrics_grep EXPR [PATH] — assert the scrape at PATH (default the
# global /metrics) matches the extended regex EXPR. The body is
# buffered first: grep -q quitting on an early match would otherwise
# hand curl a closed pipe, and pipefail would read that as a failure.
metrics_grep() {
    local expr=$1 path=${2:-/metrics} body
    body=$(curl -sf "$base$path")
    if ! printf '%s\n' "$body" | grep -Eq "$expr"; then
        echo "serve-smoke: GET $path lacks $expr" >&2
        printf '%s\n' "$body" | head -60 >&2
        exit 1
    fi
}

echo "== datagen"
"$BIN/gsgcn-datagen" -dataset ppi -scale 0.02 -out "$TMP/g.gsg" -stats=false

echo "== train (2 epochs)"
"$BIN/gsgcn-train" -data "$TMP/g.gsg" -epochs 2 -hidden 16 -save "$TMP/m.ckpt" >/dev/null

echo "== serve (cold)"
start_server -data "$TMP/g.gsg" -load "$TMP/m.ckpt" -ann

echo "== query"
check "/healthz" "model_version"
check "/embed?ids=0,1" "embeddings"
check "/predict?ids=0,1" "labels"
check "/topk?id=0&k=3" "neighbors"
# -ann makes the HNSW index the default mode; both per-request
# overrides must answer too.
check "/topk?id=0&k=3" "ann"
check "/topk?id=0&k=3&mode=exact" "neighbors"
check "/topk?id=0&k=3&mode=ann&ef=32" "neighbors"

# Shape sanity: two embedding vectors for two ids.
vectors=$(curl -s "$base/embed?ids=0,1" | grep -o '\[\[' | wc -l)
if [ "$vectors" -lt 1 ]; then
    echo "serve-smoke: /embed returned no vector array" >&2; exit 1
fi

# A cold start must not claim a warm one.
if curl -s "$base/healthz" | grep -q '"warm_start":true'; then
    echo "serve-smoke: cold start reports warm_start:true" >&2; exit 1
fi

echo "== scrape (cold)"
# The queries above must have landed in the exposition: every tracked
# family present, the served requests counted, and the warm-start
# gauge agreeing with /healthz that this boot computed from scratch.
for family in gsgcn_http_requests_total gsgcn_http_request_duration_seconds \
    gsgcn_batcher_queue_depth gsgcn_batcher_batches_total gsgcn_batcher_batch_size \
    gsgcn_batcher_flush_duration_seconds gsgcn_snapshot_version \
    gsgcn_snapshot_warm_start gsgcn_index_resident; do
    metrics_grep "^# TYPE $family "
done
metrics_grep '^gsgcn_http_requests_total\{code="2xx",endpoint="/embed",model="default"\} [1-9]'
metrics_grep '^gsgcn_snapshot_warm_start\{model="default"\} 0$'
metrics_grep '^gsgcn_snapshot_version\{model="default"\} 1$'

# Capture cold answers for the byte-for-byte warm comparison.
topk_queries="/topk?id=0&k=3 /topk?id=1&k=5&mode=ann /topk?id=2&k=4&mode=exact"
for q in $topk_queries; do
    curl -s "$base$q" > "$TMP/cold$(printf '%s' "$q" | tr '/?&=' '____')"
done

echo "== index (build snapshot artifact)"
"$BIN/gsgcn-index" -load "$TMP/m.ckpt" -data "$TMP/g.gsg" -out "$TMP/m.ckpt.art"
if [ ! -s "$TMP/m.ckpt.art" ] || [ ! -s "$TMP/m.ckpt.art.json" ]; then
    echo "serve-smoke: gsgcn-index left no artifact or manifest" >&2; exit 1
fi

echo "== serve (warm restart)"
stop_server
start_server -data "$TMP/g.gsg" -load "$TMP/m.ckpt" -ann -artifact "$TMP/m.ckpt.art"

if ! curl -s "$base/healthz" | grep -q '"warm_start":true'; then
    echo "serve-smoke: warm restart does not report warm_start:true:" >&2
    curl -s "$base/healthz" >&2; exit 1
fi

echo "== scrape (warm): the gauge must flip with the artifact boot"
metrics_grep '^gsgcn_snapshot_warm_start\{model="default"\} 1$'
metrics_grep '^gsgcn_index_resident\{model="default"\} 1$'

echo "== warm answers must equal cold answers byte-for-byte"
for q in $topk_queries; do
    f="$TMP/cold$(printf '%s' "$q" | tr '/?&=' '____')"
    curl -s "$base$q" > "$f.warm"
    if ! cmp -s "$f" "$f.warm"; then
        echo "serve-smoke: warm $q differs from cold:" >&2
        diff "$f" "$f.warm" >&2 || true
        exit 1
    fi
done

# Capture exact-mode answers for the memory-plane phase now, while
# the snapshot is still at version 1 — a fresh quantized server starts
# there too, so the comparison is byte-for-byte including the version.
mem_queries="/topk?id=0&k=3&mode=exact /topk?id=3&k=5&mode=exact /embed?ids=0,4,9 /predict?ids=2,6"
for q in $mem_queries; do
    curl -s "$base$q" > "$TMP/memf64$(printf '%s' "$q" | tr '/?&,=' '_____')"
done

# /reload against the unchanged artifact must stay warm.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/reload")
if [ "$code" != 200 ]; then
    echo "serve-smoke: POST /reload returned $code" >&2; exit 1
fi
if ! curl -s "$base/healthz" | grep -q '"warm_start":true'; then
    echo "serve-smoke: reload lost the warm start" >&2; exit 1
fi

echo "== memory plane (i8pq artifact, mmap-backed serving)"
# The warm f64 server still running above is the baseline (its
# exact-mode answers were captured pre-reload): scrape its private
# working set, then swap the resident representation to mmap-backed
# int8-PQ. Exact answers must not move by a byte, and the working set
# must shrink at least 3x.
metric_value() {
    curl -sf "$base/metrics" | sed -n "s/^$1 \([0-9][0-9]*\)\$/\1/p" | head -1
}
if ! curl -s "$base/healthz" | grep -q '"dtype":"f64"'; then
    echo "serve-smoke: f64 baseline healthz does not report its dtype:" >&2
    curl -s "$base/healthz" >&2; exit 1
fi
R64=$(metric_value 'gsgcn_resident_bytes{dtype="f64",model="default"}')
if [ -z "$R64" ] || [ "$R64" -le 0 ]; then
    echo "serve-smoke: no f64 gsgcn_resident_bytes gauge:" >&2
    curl -sf "$base/metrics" | grep resident_bytes >&2 || true
    exit 1
fi
metrics_grep '^gsgcn_mapped_bytes\{dtype="f64",model="default"\} 0$'

"$BIN/gsgcn-index" -load "$TMP/m.ckpt" -data "$TMP/g.gsg" -dtype i8pq -out "$TMP/m8.art"
if ! grep -q '"dtype": "i8pq"' "$TMP/m8.art.json"; then
    echo "serve-smoke: i8pq manifest does not record its dtype:" >&2
    cat "$TMP/m8.art.json" >&2; exit 1
fi

stop_server
start_server -data "$TMP/g.gsg" -load "$TMP/m.ckpt" -ann \
    -artifact "$TMP/m8.art" -dtype i8pq -mmap
for field in '"warm_start":true' '"dtype":"i8pq"' '"mapped_bytes":'; do
    if ! curl -s "$base/healthz" | grep -q "$field"; then
        echo "serve-smoke: mmap i8pq healthz lacks $field:" >&2
        curl -s "$base/healthz" >&2; exit 1
    fi
done

# Exact answers at the quantized dtype are byte-identical to f64.
for q in $mem_queries; do
    f="$TMP/memf64$(printf '%s' "$q" | tr '/?&,=' '_____')"
    curl -s "$base$q" > "$f.i8pq"
    if ! cmp -s "$f" "$f.i8pq"; then
        echo "serve-smoke: i8pq $q differs from the f64 baseline:" >&2
        diff "$f" "$f.i8pq" >&2 || true
        exit 1
    fi
done
# ANN mode still answers (recall-bounded, so only shape-checked here).
check "/topk?id=0&k=3&mode=ann" "neighbors"

R8=$(metric_value 'gsgcn_resident_bytes{dtype="i8pq",model="default"}')
M8=$(metric_value 'gsgcn_mapped_bytes{dtype="i8pq",model="default"}')
if [ -z "$R8" ] || [ -z "$M8" ] || [ "$M8" -le 0 ]; then
    echo "serve-smoke: mmap i8pq gauges missing (resident=$R8 mapped=$M8):" >&2
    curl -sf "$base/metrics" | grep -E 'resident_bytes|mapped_bytes' >&2 || true
    exit 1
fi
echo "serve-smoke: resident f64=${R64}B i8pq+mmap=${R8}B (mapped ${M8}B)"
if [ $((3 * R8)) -gt "$R64" ]; then
    echo "serve-smoke: mmap i8pq resident ${R8}B is not 3x under the f64 ${R64}B" >&2
    exit 1
fi

echo "== train second model (for the multi-model phase)"
"$BIN/gsgcn-train" -data "$TMP/g.gsg" -epochs 1 -hidden 16 -seed 7 -save "$TMP/m2.ckpt" >/dev/null

echo "== serve (multi-model: warm prod + cold canary in one process)"
stop_server
start_server -data "$TMP/g.gsg" \
    -model "prod=$TMP/m.ckpt,artifact=$TMP/m.ckpt.art,ann=true" \
    -model "canary=$TMP/m2.ckpt"

check "/models" "default"
check "/models/prod/healthz" "checkpoint"
check "/models/prod/embed?ids=0,1" "embeddings"
check "/models/canary/predict?ids=0,1" "labels"
check "/models/canary/topk?id=0&k=3" "neighbors"

# Per-model warm state: prod restarted from the artifact, canary cold.
if ! curl -s "$base/models/prod/healthz" | grep -q '"warm_start":true'; then
    echo "serve-smoke: multi-model prod is not warm:" >&2
    curl -s "$base/models/prod/healthz" >&2; exit 1
fi
if ! curl -s "$base/models/canary/healthz" | grep -q '"warm_start":false'; then
    echo "serve-smoke: multi-model canary claims a warm start" >&2; exit 1
fi

# prod is the default model: the legacy unprefixed routes and the
# prefixed spelling must both answer byte-identically to the
# dedicated single-model server's answers captured above.
for q in $topk_queries; do
    f="$TMP/cold$(printf '%s' "$q" | tr '/?&=' '____')"
    curl -s "$base$q" > "$f.multi"
    if ! cmp -s "$f" "$f.multi"; then
        echo "serve-smoke: multi-model legacy $q differs from single-model:" >&2
        diff "$f" "$f.multi" >&2 || true
        exit 1
    fi
    curl -s "$base/models/prod$q" > "$f.multip"
    if ! cmp -s "$f" "$f.multip"; then
        echo "serve-smoke: /models/prod$q differs from single-model:" >&2
        diff "$f" "$f.multip" >&2 || true
        exit 1
    fi
done

echo "== scrape (multi-model): one shared registry, rows scoped by model"
metrics_grep '^gsgcn_snapshot_warm_start\{model="prod"\} 1$'
metrics_grep '^gsgcn_snapshot_warm_start\{model="canary"\} 0$'
metrics_grep 'endpoint="/embed",model="prod"'
# The per-model scrape filters to that model's series only.
metrics_grep '^gsgcn_snapshot_version\{model="canary"\} 1$' /models/canary/metrics
if curl -sf "$base/models/canary/metrics" | grep 'model="prod"' >/dev/null; then
    echo "serve-smoke: canary's scoped scrape leaks prod series" >&2; exit 1
fi

# Per-model reload: canary bumps to version 2, prod stays at 1.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/models/canary/reload")
if [ "$code" != 200 ]; then
    echo "serve-smoke: POST /models/canary/reload returned $code" >&2; exit 1
fi
if ! curl -s "$base/models/canary/healthz" | grep -q '"version":2'; then
    echo "serve-smoke: canary reload did not advance its version" >&2; exit 1
fi
if ! curl -s "$base/models/prod/healthz" | grep -q '"version":1'; then
    echo "serve-smoke: canary reload disturbed prod's version" >&2; exit 1
fi

# Unknown model names come back as clean 404s.
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/models/nope/embed?ids=0")
if [ "$code" != 404 ]; then
    echo "serve-smoke: unknown model returned $code, want 404" >&2; exit 1
fi

echo "== serve (single process: baseline for the sharded phase)"
stop_server
start_server -data "$TMP/g.gsg" -load "$TMP/m.ckpt" -ann

# Capture unsharded answers for the sharded byte-equality phase:
# /embed, /predict and exact /topk are the deployment-independent
# contract (ann answers are only pinned at a fixed shard count).
exact_queries="/embed?ids=0,1,2 /predict?ids=0,1 /topk?id=0&k=3&mode=exact /topk?id=5&k=4&mode=exact"
for q in $exact_queries; do
    curl -s "$base$q" > "$TMP/unsharded$(printf '%s' "$q" | tr '/?&,=' '_____')"
done

echo "== index (per-shard artifacts, 3 shards)"
"$BIN/gsgcn-index" -load "$TMP/m.ckpt" -data "$TMP/g.gsg" -out "$TMP/sh.art" \
    -shards 3 -shard-seed 42
for i in 0 1 2; do
    if [ ! -s "$TMP/sh.art.s${i}of3" ] || [ ! -s "$TMP/sh.art.s${i}of3.json" ]; then
        echo "serve-smoke: missing shard artifact s${i}of3 or its manifest" >&2; exit 1
    fi
done

echo "== serve (sharded: 3 shards, warm from per-shard artifacts)"
stop_server
start_server -data "$TMP/g.gsg" -load "$TMP/m.ckpt" -ann \
    -artifact "$TMP/sh.art" -shards 3 -shard-seed 42 \
    -deadline 2s -shed-queue 256 \
    -wire-addr 127.0.0.1:0

# The wire listener bound an ephemeral port; the server logs the real
# address in its wire_listening event.
WADDR=$(sed -n 's/.*"event":"wire_listening","addr":"\([^"]*\)".*/\1/p' "$TMP/server.log" | head -1)
if [ -z "$WADDR" ]; then
    echo "serve-smoke: server log has no wire_listening event:" >&2
    cat "$TMP/server.log" >&2; exit 1
fi
echo "serve-smoke: wire transport on $WADDR"

check "/shards" "shard_seed"
# The /v1 spelling is the canonical surface; the legacy alias above
# and the versioned route must both answer.
check "/v1/healthz" "model_version"
if ! curl -s "$base/healthz" | grep -q '"shards":3'; then
    echo "serve-smoke: sharded healthz does not report 3 shards:" >&2
    curl -s "$base/healthz" >&2; exit 1
fi
if ! curl -s "$base/healthz" | grep -q '"warm_start":true'; then
    echo "serve-smoke: sharded fleet did not warm-start from its artifacts:" >&2
    curl -s "$base/healthz" >&2; exit 1
fi

echo "== sharded answers must equal unsharded answers byte-for-byte"
for q in $exact_queries; do
    f="$TMP/unsharded$(printf '%s' "$q" | tr '/?&,=' '_____')"
    curl -s "$base$q" > "$f.sharded"
    if ! cmp -s "$f" "$f.sharded"; then
        echo "serve-smoke: sharded $q differs from unsharded:" >&2
        diff "$f" "$f.sharded" >&2 || true
        exit 1
    fi
done

echo "== kill one shard: degraded, not dead"
# Pre-outage answers for a spread of ids, to prove live shards keep
# answering byte-identically during the outage.
for id in 0 1 2 3 4 5 6 7 8 9; do
    curl -s "$base/embed?ids=$id" > "$TMP/pre$id"
done
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/shards/1/stop")
if [ "$code" != 200 ]; then
    echo "serve-smoke: POST /shards/1/stop returned $code" >&2; exit 1
fi

# /healthz stays HTTP 200 but reports the degradation.
code=$(curl -s -o "$TMP/degraded.json" -w '%{http_code}' "$base/healthz")
if [ "$code" != 200 ]; then
    echo "serve-smoke: degraded /healthz returned $code, want 200" >&2; exit 1
fi
if ! grep -q '"status":"degraded"' "$TMP/degraded.json"; then
    echo "serve-smoke: /healthz with a shard down is not degraded:" >&2
    cat "$TMP/degraded.json" >&2; exit 1
fi
if ! grep -q '"shards_down":1' "$TMP/degraded.json"; then
    echo "serve-smoke: /healthz does not count the down shard:" >&2
    cat "$TMP/degraded.json" >&2; exit 1
fi

# Ids on live shards answer byte-identically; ids owned by the dead
# shard fail 503. With 10 ids over 3 shards both classes must occur.
live=0 dead=0
for id in 0 1 2 3 4 5 6 7 8 9; do
    code=$(curl -s -o "$TMP/during$id" -w '%{http_code}' "$base/embed?ids=$id")
    case "$code" in
    200)
        live=$((live + 1))
        if ! cmp -s "$TMP/pre$id" "$TMP/during$id"; then
            echo "serve-smoke: live-shard id $id changed during the outage:" >&2
            diff "$TMP/pre$id" "$TMP/during$id" >&2 || true
            exit 1
        fi
        ;;
    503)
        dead=$((dead + 1))
        if ! grep -q "stopped shard 1" "$TMP/during$id"; then
            echo "serve-smoke: 503 for id $id does not name the stopped shard:" >&2
            cat "$TMP/during$id" >&2; exit 1
        fi
        ;;
    *)
        echo "serve-smoke: id $id during outage returned $code:" >&2
        cat "$TMP/during$id" >&2; exit 1
        ;;
    esac
done
if [ "$live" -eq 0 ] || [ "$dead" -eq 0 ]; then
    echo "serve-smoke: outage split live=$live dead=$dead over 10 ids — expected both" >&2; exit 1
fi

echo "== scrape (shard down): health gauges and degraded counters"
metrics_grep '^gsgcn_shard_up\{model="default",shard="0"\} 1$'
metrics_grep '^gsgcn_shard_up\{model="default",shard="1"\} 0$'
metrics_grep '^gsgcn_shard_up\{model="default",shard="2"\} 1$'
metrics_grep '^gsgcn_degraded_queries_total\{model="default"\} [1-9]'
metrics_grep '^gsgcn_snapshot_warm_start\{model="default",shard="0"\} 1$'

echo "== restart the shard: fully recovered"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/shards/1/start")
if [ "$code" != 200 ]; then
    echo "serve-smoke: POST /shards/1/start returned $code" >&2; exit 1
fi
if ! curl -s "$base/healthz" | grep -q '"status":"ok"'; then
    echo "serve-smoke: fleet not ok after shard restart" >&2; exit 1
fi
for q in $exact_queries; do
    f="$TMP/unsharded$(printf '%s' "$q" | tr '/?&,=' '_____')"
    curl -s "$base$q" > "$f.recovered"
    if ! cmp -s "$f" "$f.recovered"; then
        echo "serve-smoke: post-recovery $q differs from unsharded:" >&2
        diff "$f" "$f.recovered" >&2 || true
        exit 1
    fi
done

echo "== v1 aliases answer byte-identically to the legacy routes"
for q in $exact_queries; do
    f="$TMP/unsharded$(printf '%s' "$q" | tr '/?&,=' '_____')"
    curl -s "$base/v1$q" > "$f.v1"
    if ! cmp -s "$f" "$f.v1"; then
        echo "serve-smoke: /v1$q differs from $q:" >&2
        diff "$f" "$f.v1" >&2 || true
        exit 1
    fi
done

echo "== probe (JSON / negotiated binary / framed TCP must decode identically)"
# gsgcn-probe issues the same queries over all three transports via
# pkg/client and requires bit-identical decoded answers, then holds
# one TCP connection across 5 hot reloads.
"$BIN/gsgcn-probe" -addr "$base" -wire-addr "$WADDR" \
    -ids 0,1,2 -topk-id 0 -topk-k 3 -reload-storm 5

echo "== scrape (wire): the TCP frames must be billed to their transport"
metrics_grep '^gsgcn_requests_total\{model="default",transport="wire"\} [1-9]'
metrics_grep '^gsgcn_requests_total\{model="default",transport="http"\} [1-9]'

echo "== loadgen (mixed load + reload storm + shard churn)"
# The sharded server is still up with -deadline 2s -shed-queue 256.
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
    echo "serve-smoke: unavailable share must be above 0 and at most 35%" >&2
    exit 1
fi

echo "serve-smoke: OK"
