#!/usr/bin/env bash
# Trainer-matrix smoke test: both trainers (greedy, hybrid) through the
# real CLI — train, store with provenance, and read the trainer identity
# back via `repro registry show` and `repro grammar stats`.  Run from the
# repository root (CI does); needs only PYTHONPATH=src.
set -euo pipefail

WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

cat > "$WORK/app.c" <<'EOF'
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main(void) { putint(fib(10)); putchar('\n'); return 0; }
EOF

python -m repro compile "$WORK/app.c" -o "$WORK/app.rbc"

for TRAINER in greedy hybrid; do
    echo "== train --trainer $TRAINER =="
    python -m repro train "$WORK/app.rbc" -o "$WORK/$TRAINER.rgr" \
        --trainer "$TRAINER" --registry "$WORK/reg" --tag "$TRAINER" \
        | tee "$WORK/$TRAINER.train.out"
    grep -q "\[$TRAINER\]" "$WORK/$TRAINER.train.out" \
        || { echo "train output missing [$TRAINER] marker" >&2; exit 1; }

    echo "== provenance: registry show =="
    python -m repro registry -d "$WORK/reg" show "$TRAINER" \
        | tee "$WORK/$TRAINER.show.out"
    grep -q "\"trainer\": \"$TRAINER\"" "$WORK/$TRAINER.show.out" \
        || { echo "registry meta missing trainer id" >&2; exit 1; }

    echo "== provenance: grammar stats =="
    python -m repro grammar -d "$WORK/reg" stats "$TRAINER" \
        | tee "$WORK/$TRAINER.stats.out"
    grep -q "trainer $TRAINER" "$WORK/$TRAINER.stats.out" \
        || { echo "grammar stats missing trainer line" >&2; exit 1; }

    echo "== the trained grammar round-trips the corpus =="
    python -m repro compress "$WORK/app.rbc" -g "$WORK/$TRAINER.rgr" \
        -o "$WORK/$TRAINER.rcx"
    python -m repro decompress "$WORK/$TRAINER.rcx" \
        -o "$WORK/$TRAINER.back.rbc"
    cmp "$WORK/app.rbc" "$WORK/$TRAINER.back.rbc"
    OUT="$(python -m repro run "$WORK/$TRAINER.rcx")"
    [[ "$OUT" == "55" ]] || { echo "expected 55, got: $OUT" >&2; exit 1; }
done

echo "trainer smoke test passed"
