#!/usr/bin/env bash
# SIGINT mid-batch must flush the journal, print the partial summary
# ("batch interrupted: C completed, F failed, R remaining") and exit 2.
# Usage: batch_sigint.sh <cubisg-binary> <workdir>
set -u

CUBISG=$1
WORK=$2/cli_sigint_work
rm -rf "$WORK"
mkdir -p "$WORK"

fail() { echo "FAIL: $*"; exit 1; }

# Enough medium jobs that the batch runs for seconds on one worker (about
# 10 ms a job on a 4-vCPU AVX-512 Xeon, so ~3 s), and the SIGINT below,
# sent within one 50 ms poll of the second result, lands mid-run with a
# wide margin.
N=320
: > "$WORK/manifest.txt"
for i in $(seq 1 "$N"); do
  "$CUBISG" generate --targets 150 --seed "$i" \
    --out "$WORK/job$i.scn" >/dev/null || fail "generate $i"
  echo "$WORK/job$i.scn" >> "$WORK/manifest.txt"
done

"$CUBISG" batch "$WORK/manifest.txt" --workers 1 --segments 30 \
  --journal "$WORK/journal.log" > "$WORK/out.txt" 2>&1 &
PID=$!

# Interrupt once the batch is demonstrably mid-flight (>= 2 results out).
for _ in $(seq 1 200); do
  if [ "$(grep -c '^batch [0-9]*:' "$WORK/out.txt" 2>/dev/null)" -ge 2 ]; then
    break
  fi
  kill -0 "$PID" 2>/dev/null || fail "batch finished before SIGINT (too fast)"
  sleep 0.05
done
kill -INT "$PID" 2>/dev/null || fail "batch gone before SIGINT"
wait "$PID"
CODE=$?

cat "$WORK/out.txt"
[ "$CODE" -eq 2 ] || fail "expected exit 2 after SIGINT, got $CODE"
grep -q "^batch interrupted: " "$WORK/out.txt" \
  || fail "partial summary line missing"
grep -q "rerun with --resume" "$WORK/out.txt" \
  || fail "resume hint missing from partial summary"
grep -qE "^done [0-9a-f]{16} ok [0-9]+ [0-9]+ [0-9a-f]{8} " "$WORK/journal.log" \
  || fail "journal holds no completed record after SIGINT"

# The journal must make the interrupted work resumable to completion.
"$CUBISG" batch "$WORK/manifest.txt" --workers 2 --segments 30 \
  --journal "$WORK/journal.log" --resume 1 > "$WORK/resume.txt" 2>&1
CODE=$?
cat "$WORK/resume.txt"
[ "$CODE" -eq 0 ] || fail "resume run expected exit 0, got $CODE"
grep -q "batch done: $N files, $N solved ok, 0 failed, 0 skipped" \
  "$WORK/resume.txt" || fail "resume run did not finish every job"

echo "PASS: batch_sigint"
