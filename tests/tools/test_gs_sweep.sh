#!/usr/bin/env bash
# gs_sweep command-line contract, the one the resume-integrity and chaos
# lanes drive: the fingerprint and resume counts it prints in each mode,
# and exit 2 for every command line it must refuse.
#
# Usage: test_gs_sweep.sh path/to/gs_sweep
set -euo pipefail

BIN="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/gs_sweep_test.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

SMOKE_FP=ed32a5c885a91ed8
STORM_FP=146a06aa43d8c2ad
failures=0

# expect_line <pattern> <gs_sweep args...>: exit 0, stdout matches.
expect_line() {
  local pattern="$1"
  shift
  local out
  if ! out="$("$BIN" "$@")"; then
    echo "FAIL: gs_sweep $* exited nonzero"
    failures=$((failures + 1))
  elif ! grep -Eq "$pattern" <<< "$out"; then
    echo "FAIL: gs_sweep $*: '$out' does not match '$pattern'"
    failures=$((failures + 1))
  else
    echo "ok: gs_sweep $* -> $out"
  fi
}

# expect_usage <gs_sweep args...>: exit 2 with the usage text on stderr.
expect_usage() {
  local rc=0 err
  err="$("$BIN" "$@" 2>&1 >/dev/null)" || rc=$?
  if [ "$rc" != 2 ] || ! grep -q '^usage: gs_sweep' <<< "$err"; then
    echo "FAIL: gs_sweep $* exited $rc, want 2 with usage"
    failures=$((failures + 1))
  else
    echo "ok: gs_sweep $* -> exit 2 ($(head -1 <<< "$err"))"
  fi
}

expect_line "^gs_sweep: cells=8 resumed=0 run=8 fp=$SMOKE_FP\$" \
    --smoke --dir "$WORK/single"
expect_line "^gs_sweep: cells=8 resumed=8 run=0 fp=$SMOKE_FP\$" \
    --smoke --dir "$WORK/single" --resume
# Two concurrent workers share one directory; a --resume run merges them.
"$BIN" --smoke --storm --worker --dir "$WORK/mp" > /dev/null &
w1=$!
"$BIN" --smoke --storm --worker --dir "$WORK/mp" > /dev/null &
w2=$!
if ! wait "$w1" || ! wait "$w2"; then
  echo "FAIL: a concurrent gs_sweep --worker exited nonzero"
  failures=$((failures + 1))
fi
expect_line "^gs_sweep: cells=8 resumed=8 run=0 fp=$STORM_FP\$" \
    --smoke --storm --dir "$WORK/mp" --resume
# Concurrent workers compute each cell exactly once: in every round the
# run= counts of two --cells 400 workers sum to 400, and neither a lease
# nor a lease temp is left behind.
for round in 1 2 3 4 5; do
  D="$WORK/race$round"
  "$BIN" --cells 400 --worker --dir "$D" > "$D.w1" &
  w1=$!
  "$BIN" --cells 400 --worker --dir "$D" > "$D.w2" &
  w2=$!
  if ! wait "$w1" || ! wait "$w2"; then
    echo "FAIL: race round $round: a gs_sweep --worker exited nonzero"
    failures=$((failures + 1))
    continue
  fi
  runs=0
  for n in $(sed -n 's/^gs_sweep: cells=400 run=\([0-9]*\) .*/\1/p' \
      "$D.w1" "$D.w2"); do
    runs=$((runs + n))
  done
  leftovers=$(find "$D" -name '*.lease' -o -name '*.tmp-p*' | wc -l)
  if [ "$runs" != 400 ] || [ "$leftovers" != 0 ]; then
    echo "FAIL: race round $round: workers computed $runs of 400 cells," \
         "$leftovers lease file(s) left"
    failures=$((failures + 1))
  else
    echo "ok: race round $round: 400 cells, each computed once"
  fi
done
expect_line '^gs_sweep: cells=8 run=8 stale_leases_taken=0$' \
    --smoke --worker --dir "$WORK/worker"
expect_line "^gs_sweep: cells=8 resumed=8 run=0 fp=$SMOKE_FP\$" \
    --smoke --dir "$WORK/worker" --resume

U="$WORK/usage"
expect_usage --smoke
expect_usage --dir "$U" --cells abc
expect_usage --dir "$U" --cells 12abc
expect_usage --dir "$U" --cells 0
expect_usage --dir "$U" --cells -4
expect_usage --dir "$U" --workers 2
expect_usage --dir "$U" --worker --stale-after abc
expect_usage --dir "$U" --worker --stale-after 0
expect_usage --dir "$U" --worker --stale-after -1
expect_usage --dir "$U" --checkpoint-every 2
expect_usage --dir "$U" --failpoints 'ckpt.snapshot.write=off' --failpoint-seed x
expect_usage --dir "$U" --failpoint-seed 3
expect_usage --dir "$U" --failpoints 'no.such=warp'
expect_usage --dir "$U" --bogus
expect_usage --dir "$U" --smoke extra
expect_usage --dir "$U" --cells 8 extra
expect_usage extra --dir "$U"
expect_usage --dir "$U" --smoke=1
expect_usage --dir "$U" --cells
expect_usage --dir "$U" --stale-after 5
expect_usage --dir "$U" --worker --resume
if [ -e "$U" ]; then
  echo "FAIL: a refused command line created $U"
  failures=$((failures + 1))
fi

if [ "$failures" != 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "PASS"
