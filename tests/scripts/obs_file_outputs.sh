#!/usr/bin/env bash
# The job log's file outputs: `solve --slow-solve-ms 0 --slow-solve-out F`
# must write the one-shot solve's job-0 record with its phase totals, and
# `verify --audit-out F` under an injected corruption must write the
# failed verdict.  The scenario path carries a tab and a 0x01 byte, so
# the files are also checked to be parseable JSON (python3, when present).
# Usage: obs_file_outputs.sh <cubisg-binary> <workdir> slow|audit
set -u

CUBISG=$1
WORK=$2/cli_obs_outputs_$3
rm -rf "$WORK"
mkdir -p "$WORK"

fail() { echo "FAIL: $*"; exit 1; }

SCN="$WORK/a"$'\t'"b"$'\x01'".scn"
"$CUBISG" table1 --out "$SCN" >/dev/null || fail "table1"
OUT="$WORK/out.json"

case "$3" in
  slow)
    "$CUBISG" solve "$SCN" --segments 10 --slow-solve-ms 0 \
      --slow-solve-out "$OUT" >/dev/null 2>&1 || fail "solve exited $?"
    grep -q '"job_id":0' "$OUT" || fail "no job-0 record in $OUT"
    grep -q '"phases":' "$OUT" || fail "no phase totals in $OUT"
    ;;
  audit)
    CUBISG_FAULT_INJECT=audit-corrupt-solution:1 \
      "$CUBISG" verify "$SCN" --segments 10 --audit-out "$OUT" \
      >/dev/null 2>&1
    [ -s "$OUT" ] || fail "verify wrote no $OUT"
    grep -q 'worst-case-mismatch' "$OUT" || fail "no verdict in $OUT"
    ;;
  *)
    fail "unknown mode $3"
    ;;
esac

if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$OUT" \
    || fail "$OUT is not valid JSON"
fi
echo "PASS: obs_file_outputs $3"
