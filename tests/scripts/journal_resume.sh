#!/usr/bin/env bash
# Journal resume idempotence: kill -9 a journaled batch mid-run, resume,
# and the union of both runs must (a) solve every job exactly once and
# (b) produce digests bitwise-identical to an uninterrupted run — the
# journal digest is canonical solution bytes with run-specific fields
# zeroed, so equality here is bitwise solution equality.
# Usage: journal_resume.sh <cubisg-binary> <workdir>
set -u

CUBISG=$1
WORK=$2/cli_resume_work
rm -rf "$WORK"
mkdir -p "$WORK"

fail() { echo "FAIL: $*"; exit 1; }

# Enough jobs that the batch runs for seconds on one worker (about 4.5 ms
# a job on a 4-vCPU AVX-512 Xeon, so ~2 s), and the kill -9 below, sent
# within one 50 ms poll of the second journaled job, lands mid-run with a
# wide margin.
N=480
: > "$WORK/manifest.txt"
for i in $(seq 1 "$N"); do
  "$CUBISG" generate --targets 120 --seed "$((100 + i))" \
    --out "$WORK/job$i.scn" >/dev/null || fail "generate $i"
  echo "$WORK/job$i.scn" >> "$WORK/manifest.txt"
done

# Oracle: one uninterrupted run.
"$CUBISG" batch "$WORK/manifest.txt" --workers 1 --segments 25 \
  --journal "$WORK/oracle.log" > "$WORK/oracle.txt" 2>&1 \
  || fail "oracle run failed"
[ "$(grep -cE '^done [0-9a-f]{16} ok [0-9]+ [0-9]+ [0-9a-f]{8} ' "$WORK/oracle.log")" -eq "$N" ] \
  || fail "oracle journal incomplete"

# Interrupted run: kill -9 once at least two jobs are journaled (kill -9
# is the point — no signal handler, no flush; only fsynced records count).
"$CUBISG" batch "$WORK/manifest.txt" --workers 1 --segments 25 \
  --journal "$WORK/journal.log" > "$WORK/run1.txt" 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  if [ "$(grep -cE '^done [0-9a-f]{16} ok [0-9]+ [0-9]+ [0-9a-f]{8} ' "$WORK/journal.log" 2>/dev/null)" -ge 2 ]
  then
    break
  fi
  kill -0 "$PID" 2>/dev/null || fail "batch finished before kill -9"
  sleep 0.05
done
kill -9 "$PID" 2>/dev/null || fail "batch gone before kill -9"
wait "$PID" 2>/dev/null

DONE_BEFORE=$(grep -cE '^done [0-9a-f]{16} ok [0-9]+ [0-9]+ [0-9a-f]{8} ' "$WORK/journal.log")
[ "$DONE_BEFORE" -ge 2 ] || fail "journal lost records after kill -9"
[ "$DONE_BEFORE" -lt "$N" ] || fail "batch finished before kill -9"

# Resume: only the pending jobs may be re-solved.
"$CUBISG" batch "$WORK/manifest.txt" --workers 1 --segments 25 \
  --journal "$WORK/journal.log" --resume 1 > "$WORK/run2.txt" 2>&1
CODE=$?
cat "$WORK/run2.txt"
[ "$CODE" -eq 0 ] || fail "resume run expected exit 0, got $CODE"
grep -q "resume: journal .* has $DONE_BEFORE completed jobs" \
  "$WORK/run2.txt" || fail "resume did not report $DONE_BEFORE skips"
RESOLVED=$(grep -c '^batch [0-9]*: status=' "$WORK/run2.txt")
[ "$RESOLVED" -eq "$((N - DONE_BEFORE))" ] \
  || fail "resume re-solved $RESOLVED jobs, expected $((N - DONE_BEFORE))"

# Bitwise idempotence: per-tag digests equal the uninterrupted oracle's.
# Strict record regex so a torn half-line from the kill can never match.
REC='^done [0-9a-f]{16} ok [0-9]+ [0-9]+ [0-9a-f]{8} '
grep -E "$REC" "$WORK/oracle.log" | awk '{print $7, $2}' | sort \
  > "$WORK/oracle.digests"
grep -E "$REC" "$WORK/journal.log" | awk '{print $7, $2}' | sort -u \
  > "$WORK/resumed.digests"
diff "$WORK/oracle.digests" "$WORK/resumed.digests" \
  || fail "resumed digests differ from the uninterrupted run"

echo "PASS: journal_resume"
