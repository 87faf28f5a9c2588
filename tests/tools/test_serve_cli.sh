#!/usr/bin/env bash
# greensprintd and gs_feed command-line contract: a valid batch run prints
# its fingerprint, and every command line either tool must refuse (an
# unknown option, a malformed operand, a missing required option) exits 2
# with the usage text instead of running a default campaign or aborting.
#
# Usage: test_serve_cli.sh path/to/greensprintd path/to/gs_feed
set -euo pipefail

DAEMON="$1"
FEED="$2"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/serve_cli_test.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

failures=0

# Every run is bounded: a daemon that wrongly accepts a command line with
# --socket would otherwise serve until the ctest timeout.
# expect_line <pattern> <binary> <args...>: exit 0, stdout matches.
expect_line() {
  local pattern="$1" bin="$2"
  shift 2
  local out
  if ! out="$(timeout 30 "$bin" "$@")"; then
    echo "FAIL: $(basename "$bin") $* exited nonzero"
    failures=$((failures + 1))
  elif ! grep -Eq "$pattern" <<< "$out"; then
    echo "FAIL: $(basename "$bin") $*: '$out' does not match '$pattern'"
    failures=$((failures + 1))
  else
    echo "ok: $(basename "$bin") $* -> $out"
  fi
}

# expect_usage <binary> <args...>: exit 2 with the usage text on stderr.
expect_usage() {
  local bin="$1"
  shift
  local name rc=0 err
  name="$(basename "$bin")"
  err="$(timeout 30 "$bin" "$@" 2>&1 >/dev/null)" || rc=$?
  if [ "$rc" != 2 ] || ! grep -q "^usage: $name" <<< "$err"; then
    echo "FAIL: $name $* exited $rc, want 2 with usage"
    failures=$((failures + 1))
  else
    echo "ok: $name $* -> exit 2 ($(head -1 <<< "$err"))"
  fi
}

T="$WORK/feed.trace"
S="$WORK/gs.sock"

expect_line '^batch fp 1e6b5d5845a67e8 bursts 3$' "$DAEMON" --batch
expect_line '^batch fp 26768ff9a6170fcc bursts 6$' "$DAEMON" --batch --days 2
expect_line '^batch fp cec85cb45b3b7370 bursts 3$' \
    "$DAEMON" --batch --faults all=0.3,seed=7
expect_line '^gs_feed: wrote 2880 epochs to ' "$FEED" --gen --trace "$T" --days 2
rm -f "$T"
# The edges of the accepted ranges still run.
expect_line '^batch fp [0-9a-f]+ bursts 3$' "$DAEMON" --batch --panels 0
expect_line '^batch fp [0-9a-f]+ bursts 3$' "$DAEMON" --batch --background 1.5

expect_usage "$DAEMON"
expect_usage "$DAEMON" --batch --dayz 2
expect_usage "$DAEMON" --batch --days abc
expect_usage "$DAEMON" --batch --faults nonsense=1
expect_usage "$DAEMON" --batch --strategy nosuch
expect_usage "$DAEMON" --batch --failpoints 'no.such=warp'
expect_usage "$DAEMON" --batch 2
expect_usage "$DAEMON" extra --batch
expect_usage "$DAEMON" --socket
expect_usage "$DAEMON" --socket "$S" --tsdb bogus
expect_usage "$DAEMON" --socket "$S" --tsdb cache --tsdb-dir "$WORK/tsdb"
expect_usage "$DAEMON" --socket "$S" --tsdb wal
expect_usage "$DAEMON" --socket "$S" --queue-cap x
# Scenario operands the simulator would refuse are refused as usage.
for bad in "--servers 0" "--servers -2" "--days 0" "--days -1" \
           "--panels -1" "--background -0.5"; do
  # shellcheck disable=SC2086  # split each probe into flag and operand
  expect_usage "$DAEMON" --batch $bad
  # shellcheck disable=SC2086
  expect_usage "$FEED" --gen --trace "$T" $bad
done

expect_usage "$FEED"
expect_usage "$FEED" --gen --trace "$T" --dayz 3
expect_usage "$FEED" --gen --trace "$T" --days abc
expect_usage "$FEED" --gen --trace "$T" --strategy nosuch
expect_usage "$FEED" --gen
expect_usage "$FEED" extra --gen --trace "$T"
expect_usage "$FEED" --stat --socket "$S" --retry-seed x
expect_usage "$FEED" --stat
expect_usage "$FEED" --wait-epoch x --socket "$S"
expect_usage "$FEED" --play --trace "$T"
expect_usage "$FEED" --play --trace "$T" --socket "$S" --until abc
expect_usage "$FEED" --play --trace "$T" --socket "$S" --strategy-at 5
expect_usage "$FEED" --play --trace "$T" --socket "$S" --drain now
for made in "$T" "$S" "$WORK/tsdb"; do
  if [ -e "$made" ]; then
    echo "FAIL: a refused command line created $made"
    failures=$((failures + 1))
  fi
done

if [ "$failures" != 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "PASS"
