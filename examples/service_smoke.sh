#!/usr/bin/env bash
# Service smoke test: the full train-once / compress-many loop through a
# real `repro serve` process and the `repro client` CLI.  Run from the
# repository root (CI does); needs only PYTHONPATH=src.
# SMOKE_WORKERS=N runs the same flow against a multi-process fleet.
set -euo pipefail

PORT="${SMOKE_PORT:-7339}"
WORKERS="${SMOKE_WORKERS:-0}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -TERM "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

cat > "$WORK/app.c" <<'EOF'
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main(void) { putint(fib(10)); putchar('\n'); return 0; }
EOF

echo "== compile + train =="
python -m repro compile "$WORK/app.c" -o "$WORK/app.rbc"
python -m repro train "$WORK/app.rbc" -o "$WORK/g.rgr"

echo "== registry add (content-addressed, tagged) =="
HASH="$(python -m repro registry -d "$WORK/reg" add "$WORK/g.rgr" --tag prod)"
echo "grammar hash: $HASH"
python -m repro registry -d "$WORK/reg" list

echo "== serve (workers=$WORKERS) =="
python -m repro serve -d "$WORK/reg" --port "$PORT" \
    --workers "$WORKERS" &
SERVER_PID=$!
for _ in $(seq 1 50); do
    if python -m repro client --port "$PORT" health >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done
python -m repro client --port "$PORT" health

echo "== compress -> decompress -> run through the client =="
python -m repro client --port "$PORT" compress "$WORK/app.rbc" -g prod \
    -o "$WORK/app.rcx"
python -m repro client --port "$PORT" decompress "$WORK/app.rcx" \
    -o "$WORK/back.rbc"
cmp "$WORK/app.rbc" "$WORK/back.rbc"
echo "round trip is byte-identical"

# four runs of one container: each worker decodes its grammar once
for _ in 1 2 3 4; do
    OUT="$(python -m repro client --port "$PORT" run "$WORK/app.rcx")"
    [[ "$OUT" == "55" ]] || { echo "expected 55, got: $OUT" >&2; exit 1; }
done
echo "remote execution output: $OUT"

echo "== stats reflect the traffic =="
python -m repro client --port "$PORT" stats > "$WORK/stats.json"
python - "$WORK/stats.json" "$WORKERS" <<'EOF'
import json
import sys

stats = json.load(open(sys.argv[1]))
workers = int(sys.argv[2])
requests = stats["counters"]["requests_total"]
for method in ("compress", "decompress", "run_compressed"):
    assert requests.get(f"{method}|ok", 0) >= 1, (method, requests)
assert stats["counters"]["bytes_in_total"] > 0
assert stats["counters"]["bytes_out_total"] > 0
assert stats["histograms"]["batch_size"]["count"] >= 1
assert stats["histograms"]["request_seconds"]["compress"]["count"] == 1
# one decompress + four runs of one container: a miss per worker at most
table = stats["grammar_table"]
assert table["hits"] >= 1, table
assert table["misses"] <= max(1, workers), table
print("stats OK:", json.dumps(requests), "grammar_table:", json.dumps(table))
EOF

echo "== SIGTERM drains cleanly =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
echo "service smoke test passed"
