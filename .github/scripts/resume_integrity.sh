#!/usr/bin/env bash
# Kill-and-resume integrity check for the checkpoint subsystem (src/ckpt).
#
# For each lane (baseline, and a --storm lane with correlated fault storms
# plus health-aware Hybrid recovery):
#
#   1. Run a checkpointed gs_sweep to completion (reference fingerprint).
#   2. Start the same sweep in a fresh checkpoint directory and SIGKILL it
#      mid-run, once a few cell snapshots have been persisted.
#   3. Resume the killed sweep with --resume.
#   4. Fail unless the resumed sweep's fingerprint is bit-identical to the
#      uninterrupted reference.
#
# The storm lane kills campaigns whose cells run through active storm
# windows: the resumed run recomputes every unfinished cell whole, so it
# must regenerate the StormModel, the per-class correlated edge detectors
# and the health-extended Q-table exactly.
#
# A further multi-process lane drives the same campaign with two
# cooperating `gs_sweep --worker` processes (sim/sweep_mp: lease-file cell
# claiming over a shared checkpoint directory), SIGKILLs one of them
# mid-campaign, lets the survivor reclaim its stale leases, and requires
# the merged fingerprint to equal the single-process reference
# bit-for-bit.
#
# Usage: resume_integrity.sh [path-to-gs_sweep] [work-dir]
#   CELLS (env)       — baseline sweep size; larger widens the kill window.
#   STORM_CELLS (env) — storm-lane sweep size (storm cells run slower).
#   MP_CELLS (env)    — multi-process lane sweep size.
set -euo pipefail

BIN="${1:-./build/tools/gs_sweep}"
WORK="${2:-resume-integrity}"
CELLS="${CELLS:-400}"
STORM_CELLS="${STORM_CELLS:-120}"
MP_CELLS="${MP_CELLS:-200}"

rm -rf "$WORK"
mkdir -p "$WORK"

# field <name> <file>: the value of name=VALUE on gs_sweep's result line.
field() {
  grep -o "$1=[0-9a-f]*" "$2" | tail -1 | cut -d= -f2
}

# The first poll can run before the sweep has created its checkpoint
# directory, and find also fails when a temp file vanishes mid-walk; under
# pipefail either would end the script with the sweep still running, so a
# failed find counts what it saw.
cells_persisted() {
  { find "$1" -name '*.gsck' 2>/dev/null || true; } | wc -l | tr -d ' '
}

# run_lane <label> <cells> [extra gs_sweep grid flags...]
run_lane() {
  local label="$1" cells="$2"
  shift 2

  echo "== [$label] reference run (uninterrupted, $cells cells) =="
  "$BIN" --cells "$cells" "$@" --dir "$WORK/$label-ref-ckpt" \
      > "$WORK/$label-ref.out"
  local ref_fp
  ref_fp="$(field fp "$WORK/$label-ref.out")"
  echo "[$label] reference fingerprint: $ref_fp"

  echo "== [$label] interrupted run (SIGKILL mid-sweep) =="
  "$BIN" --cells "$cells" "$@" --dir "$WORK/$label-kill-ckpt" \
      > "$WORK/$label-interrupted.out" &
  local pid=$!
  # Wait for the first few cell snapshots to land, then kill -9: the
  # process gets no chance to clean up, exactly like a preempted batch job.
  for _ in $(seq 1 200); do
    local n
    n="$(cells_persisted "$WORK/$label-kill-ckpt")"
    [ "${n:-0}" -ge 5 ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
  done
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true

  local persisted
  persisted="$(cells_persisted "$WORK/$label-kill-ckpt")"
  echo "[$label] cells persisted at kill: ${persisted:-0} of $cells"
  if [ "${persisted:-0}" -ge "$cells" ]; then
    echo "warning: the sweep finished before the kill landed; the resume" \
         "below still checks the full-restore path, but consider raising" \
         "the cell count to widen the kill window"
  fi

  echo "== [$label] resumed run =="
  "$BIN" --cells "$cells" "$@" --dir "$WORK/$label-kill-ckpt" --resume \
      > "$WORK/$label-resumed.out"
  local res_fp resumed
  res_fp="$(field fp "$WORK/$label-resumed.out")"
  resumed="$(field resumed "$WORK/$label-resumed.out")"
  echo "[$label] resumed fingerprint:   $res_fp (cells resumed: $resumed)"

  if [ "$ref_fp" != "$res_fp" ]; then
    echo "FAIL[$label]: resumed sweep fingerprint differs from the" \
         "uninterrupted reference ($res_fp != $ref_fp)"
    exit 1
  fi
  echo "PASS[$label]: kill-and-resume reproduced the reference bit-for-bit"
}

# run_mp_lane <label> <cells> [shared grid flags...]
#
# Two `gs_sweep --worker` processes cooperate on one checkpoint directory;
# one is SIGKILLed once a few cells have been persisted (leaving a stale
# lease behind with high probability). The survivor must finish the whole
# campaign, and the merged fingerprint must equal the single-process
# reference.
run_mp_lane() {
  local label="$1" cells="$2"
  shift 2

  echo "== [$label] reference run (single process, $cells cells) =="
  "$BIN" --cells "$cells" "$@" --dir "$WORK/$label-ref-ckpt" \
      > "$WORK/$label-ref.out"
  local ref_fp
  ref_fp="$(field fp "$WORK/$label-ref.out")"
  echo "[$label] reference fingerprint: $ref_fp"

  echo "== [$label] 2-worker multi-process run, one worker SIGKILLed =="
  local dir="$WORK/$label-mp-ckpt"
  "$BIN" --worker --dir "$dir" --cells "$cells" "$@" &
  local victim=$!
  "$BIN" --worker --dir "$dir" --cells "$cells" "$@" &
  local survivor=$!
  for _ in $(seq 1 200); do
    local n
    n="$(cells_persisted "$dir")"
    [ "${n:-0}" -ge 3 ] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.05
  done
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true
  wait "$survivor"

  echo "== [$label] merge =="
  "$BIN" --cells "$cells" "$@" --dir "$dir" --resume \
      > "$WORK/$label-merged.out"
  local mp_fp
  mp_fp="$(field fp "$WORK/$label-merged.out")"
  echo "[$label] merged fingerprint:    $mp_fp"

  if [ "$ref_fp" != "$mp_fp" ]; then
    echo "FAIL[$label]: multi-process merge differs from the" \
         "single-process reference ($mp_fp != $ref_fp)"
    exit 1
  fi
  echo "PASS[$label]: 2-worker sweep with a SIGKILLed worker merged" \
       "bit-for-bit"
}

run_lane baseline "$CELLS"
run_lane storm "$STORM_CELLS" --storm
run_mp_lane mp "$MP_CELLS"

echo "PASS: all lanes reproduced their references bit-for-bit"
