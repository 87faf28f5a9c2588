#!/usr/bin/env bash
# gs_fsck verdicts on known artifacts: an intact sweep directory is ok;
# damage the recovery path absorbs is salvageable (exit 0); a series
# catalog that WAL replay refuses is corrupt (exit 1).
#
# Usage: test_gs_fsck.sh path/to/gs_fsck path/to/gs_sweep
set -euo pipefail

FSCK="$1"
SWEEP="$2"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/gs_fsck_test.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

failures=0

# expect_verdict <exit> <pattern> <dir>: gs_fsck <dir> exits <exit> and
# one report line matches <pattern>.
expect_verdict() {
  local want="$1" pattern="$2" dir="$3"
  local rc=0 out
  out="$("$FSCK" "$dir" 2>&1)" || rc=$?
  if [ "$rc" != "$want" ] || ! grep -Eq "$pattern" <<< "$out"; then
    echo "FAIL: gs_fsck $(basename "$dir") exited $rc (want $want)," \
         "no line matches '$pattern':"
    sed 's/^/    /' <<< "$out"
    failures=$((failures + 1))
  else
    echo "ok: gs_fsck $(basename "$dir") -> exit $rc: $(grep -E "$pattern" <<< "$out" | head -1)"
  fi
}

# catalog <name> <printf format>: a directory holding one series catalog.
catalog() {
  mkdir -p "$WORK/$1"
  # shellcheck disable=SC2059
  printf "$2" > "$WORK/$1/series.gscat"
}

catalog malformed 'x\t0\t0\tm\n'
expect_verdict 1 '^corrupt +series-catalog .*malformed' "$WORK/malformed"
catalog out_of_order '5\t0\t0\tm\n'
expect_verdict 1 '^corrupt +series-catalog .*out of order' "$WORK/out_of_order"
catalog conflict '0\t0\t0\tm\n0\t0\t1\tm\n'
expect_verdict 1 '^corrupt +series-catalog .*different identity' \
    "$WORK/conflict"
catalog torn '0\t0\t0\tm\n1\t0\t0\tpa'
expect_verdict 0 '^salvageable +series-catalog ' "$WORK/torn"

"$SWEEP" --smoke --dir "$WORK/intact" > /dev/null
expect_verdict 0 '^gs_fsck: [0-9]+ ok, 0 salvageable, 0 corrupt$' \
    "$WORK/intact"

# A second fresh run writes the manifest's second generation; bit rot in
# it leaves the first as the intact sibling.
cp -r "$WORK/intact" "$WORK/manifest"
"$SWEEP" --smoke --dir "$WORK/manifest" > /dev/null
printf 'XXXX' | dd of="$WORK/manifest/sweep.g000002.manifest" bs=1 seek=24 \
    conv=notrunc status=none
expect_verdict 0 '^salvageable +sweep-manifest .*g000002.*intact sibling' \
    "$WORK/manifest"

cp -r "$WORK/intact" "$WORK/cell"
cell="$WORK/cell/cell-000003.gsck"
truncate -s "$(( $(stat -c %s "$cell") / 2 ))" "$cell"
expect_verdict 0 '^salvageable +sweep-cell .*cell-000003' "$WORK/cell"

cp -r "$WORK/intact" "$WORK/lease"
sh -c 'exit 0' &
dead=$!
wait "$dead"
echo "$dead" > "$WORK/lease/cell-000005.lease"
expect_verdict 0 "^salvageable +lease .*owner pid $dead is gone" \
    "$WORK/lease"

if [ "$failures" != 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "PASS"
