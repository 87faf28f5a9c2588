#!/usr/bin/env bash
# Randomized crash-consistency (chaos) lane for the failpoint subsystem
# (src/common/failpoint, src/common/io, src/ckpt/rotation).
#
# Each seed derives a deterministic failpoint schedule — induced crashes
# (_exit mid-write), torn writes (the firmware lies: success reported,
# half the bytes on disk), EIO/ENOSPC storms — and aims it at one of
# three durability surfaces:
#
#   sweep   checkpointed gs_sweep: cell snapshots + rotated manifest
#   mp      two cooperating `gs_sweep --worker` processes: lease
#           claims/steals on top of the same snapshot writes
#   daemon  wall-clock-paced greensprintd replay: rotated periodic
#           checkpoints, the drain checkpoint, and (seed-dependent) the
#           tsdb WAL
#
# After every induced failure the victim is restarted with --resume and
# must pick up from the last-known-good checkpoint generation. A seed
# passes only if
#
#   1. the campaign completes within MAX_ATTEMPTS restarts,
#   2. gs_fsck finds nothing `corrupt` in the storm-battered work dir
#      (torn artifacts must classify as salvageable, never corrupt),
#   3. a final run with failpoints DISARMED resumes from whatever the
#      storm left behind and reproduces the clean reference fingerprint
#      bit-for-bit.
#
# Exit code 121 is the failpoint crash contract (failpoint::kCrashExitCode);
# anything else nonzero except an induced-IO exit (1) fails the seed hard.
#
# Usage: chaos.sh [build-dir] [work-dir]
#   SEEDS (env)        — schedule ids to run (default "1 2 3 4 5 6 7 8").
#   SWEEP_CELLS (env)  — sweep/mp campaign size (default 64).
#   DAYS (env)         — daemon campaign length in days (default 1).
#   SIM_SPEED (env)    — daemon pacing, sim-seconds per wall-second.
#   MAX_ATTEMPTS (env) — restart budget per seed (default 30).
set -euo pipefail

BUILD="${1:-./build}"
WORK="${2:-chaos}"
SWEEP="$BUILD/tools/gs_sweep"
DAEMON="$BUILD/tools/greensprintd"
FEED="$BUILD/tools/gs_feed"
FSCK="$BUILD/tools/gs_fsck"
SEEDS="${SEEDS:-1 2 3 4 5 6 7 8}"
SWEEP_CELLS="${SWEEP_CELLS:-64}"
DAYS="${DAYS:-1}"
SIM_SPEED="${SIM_SPEED:-6000}"
MAX_ATTEMPTS="${MAX_ATTEMPTS:-30}"
KCRASH=121  # failpoint::kCrashExitCode

rm -rf "$WORK"
mkdir -p "$WORK"

DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -KILL "$DPID" 2>/dev/null || true
}
trap cleanup EXIT

# fingerprint <file>: the fp=HEX field of gs_sweep's result line.
fingerprint() {
  grep -o 'fp=[0-9a-f]*' "$1" | tail -1 | cut -d= -f2
}

# The seed -> (lane, spec) table. Specs are deterministic: an integer
# seed fully determines when every trigger fires (see failpoint.hpp), so
# a failing seed replays exactly.
lane_of() {
  case "$1" in
    1|2|3|4) echo sweep ;;
    5)       echo mp ;;
    *)       echo daemon ;;
  esac
}
spec_of() {
  case "$1" in
    1) echo "ckpt.snapshot.write=crash@every:6" ;;
    2) echo "ckpt.snapshot.write=torn@p:0.25" ;;
    3) echo "ckpt.snapshot.write=eio@p:0.2" ;;
    4) echo "ckpt.snapshot.write=short@every:5" ;;
    5) echo "sweep.lease.claim=eio@p:0.15;ckpt.snapshot.write=crash@every:9" ;;
    6) echo "ckpt.snapshot.write=crash@every:4" ;;
    7) echo "ckpt.snapshot.write=torn@every:3;serve.drain.checkpoint=enospc@hit:1" ;;
# Seed 8 pairs a WAL-append crash with flaky checkpoint writes. The crash
# threshold must exceed one checkpoint interval's worth of burst appends
# (8 per burst epoch), or no attempt can reach the next checkpoint and the
# storm livelocks instead of converging.
    8) echo "tsdb.wal.append=crash@every:400;ckpt.snapshot.write=eio@p:0.5" ;;
    *) echo "ckpt.snapshot.write=crash@p:0.1" ;;
  esac
}

fsck_gate() {
  local report="$1/fsck.txt"
  if "$FSCK" "$1" > "$report"; then
    echo "-- gs_fsck gate: $(tail -1 "$report")"
  else
    cat "$report"
    echo "FAIL[seed $2]: gs_fsck found corrupt artifacts after the storm"
    exit 1
  fi
}

# --- sweep lane -------------------------------------------------------------

SWEEP_REF_FP=""
sweep_reference() {
  [ -n "$SWEEP_REF_FP" ] && return 0
  echo "== sweep reference (clean, $SWEEP_CELLS cells) =="
  "$SWEEP" --cells "$SWEEP_CELLS" --dir "$WORK/sweep-ref-ckpt" \
      > "$WORK/sweep-ref.out"
  SWEEP_REF_FP="$(fingerprint "$WORK/sweep-ref.out")"
  echo "sweep reference fingerprint: $SWEEP_REF_FP"
}

run_sweep_seed() {
  local seed="$1" spec="$2"
  local dir="$WORK/sweep-$seed"
  local attempt=0 rc=0
  while :; do
    attempt=$((attempt + 1))
    if [ "$attempt" -gt "$MAX_ATTEMPTS" ]; then
      echo "FAIL[seed $seed]: campaign incomplete after $MAX_ATTEMPTS attempts"
      exit 1
    fi
    rc=0
    "$SWEEP" --cells "$SWEEP_CELLS" --dir "$dir" --resume \
        --failpoints "$spec" --failpoint-seed "$seed" \
        >> "$WORK/sweep-$seed.log" 2>&1 || rc=$?
    case "$rc" in
      0) break ;;
      1|"$KCRASH") ;;  # induced IO failure / induced crash: resume
      *) echo "FAIL[seed $seed]: unexpected exit $rc (attempt $attempt)"
         tail -5 "$WORK/sweep-$seed.log"
         exit 1 ;;
    esac
  done
  echo "-- storm completed after $attempt attempt(s)"
  fsck_gate "$dir" "$seed"
  # Disarmed resume over the battered directory: torn cells and manifest
  # generations must be detected and recomputed, bit-identically.
  "$SWEEP" --cells "$SWEEP_CELLS" --dir "$dir" --resume \
      > "$WORK/sweep-$seed-final.out" 2>> "$WORK/sweep-$seed.log"
  local fp
  fp="$(fingerprint "$WORK/sweep-$seed-final.out")"
  if [ "$fp" != "$SWEEP_REF_FP" ]; then
    echo "FAIL[seed $seed]: fingerprint $fp != reference $SWEEP_REF_FP"
    exit 1
  fi
  echo "PASS[seed $seed]: bit-identical after storm ($fp)"
}

# --- mp lane ----------------------------------------------------------------

run_mp_seed() {
  local seed="$1" spec="$2"
  local dir="$WORK/mp-$seed"
  local attempt=0
  while :; do
    attempt=$((attempt + 1))
    if [ "$attempt" -gt "$MAX_ATTEMPTS" ]; then
      echo "FAIL[seed $seed]: mp campaign incomplete after $MAX_ATTEMPTS attempts"
      exit 1
    fi
    local rc1=0 rc2=0
    "$SWEEP" --worker --dir "$dir" --cells "$SWEEP_CELLS" --stale-after 1 \
        --failpoints "$spec" --failpoint-seed "$seed" \
        >> "$WORK/mp-$seed.log" 2>&1 &
    local w1=$!
    "$SWEEP" --worker --dir "$dir" --cells "$SWEEP_CELLS" --stale-after 1 \
        --failpoints "$spec" --failpoint-seed "$((seed + 1))" \
        >> "$WORK/mp-$seed.log" 2>&1 &
    local w2=$!
    wait "$w1" || rc1=$?
    wait "$w2" || rc2=$?
    local bad=0
    for rc in "$rc1" "$rc2"; do
      case "$rc" in
        0|1|"$KCRASH") ;;
        *) bad="$rc" ;;
      esac
    done
    if [ "$bad" != 0 ]; then
      echo "FAIL[seed $seed]: unexpected worker exit $bad (attempt $attempt)"
      tail -5 "$WORK/mp-$seed.log"
      exit 1
    fi
    [ "$rc1" = 0 ] && [ "$rc2" = 0 ] && break
  done
  echo "-- mp storm completed after $attempt attempt(s)"
  fsck_gate "$dir" "$seed"
  # Disarmed merge must equal the single-process reference.
  "$SWEEP" --cells "$SWEEP_CELLS" --dir "$dir" --resume \
      > "$WORK/mp-$seed-final.out" 2>> "$WORK/mp-$seed.log"
  local fp
  fp="$(fingerprint "$WORK/mp-$seed-final.out")"
  if [ "$fp" != "$SWEEP_REF_FP" ]; then
    echo "FAIL[seed $seed]: mp fingerprint $fp != reference $SWEEP_REF_FP"
    exit 1
  fi
  echo "PASS[seed $seed]: mp merge bit-identical after storm ($fp)"
}

# --- daemon lane ------------------------------------------------------------

BATCH_FP=""
TRACE="$WORK/feed.trace"
daemon_reference() {
  [ -n "$BATCH_FP" ] && return 0
  echo "== daemon batch reference ($DAYS day(s)) =="
  "$DAEMON" --batch --days "$DAYS" | tee "$WORK/batch.log"
  BATCH_FP="$(grep -o 'batch fp [0-9a-f]*' "$WORK/batch.log" | awk '{print $3}')"
  [ -n "$BATCH_FP" ] || { echo "chaos: no batch fingerprint"; exit 1; }
  "$FEED" --gen --trace "$TRACE" --days "$DAYS"
}

# replay_once <seed> <log> [daemon flags...]: start the daemon (resuming
# when a checkpoint generation exists), replay the full trace, drain.
# Echoes "fp HEX" on a completed drain; returns the daemon's exit code.
replay_once() {
  local seed="$1" log="$2"
  shift 2
  local dir="$WORK/daemon-$seed"
  local sock="$dir/gsd.sock" base="$dir/gsd.gsck"
  local resume=()
  ls "$dir"/gsd.g*.gsck >/dev/null 2>&1 && resume=(--resume "$base")
  "$DAEMON" --socket "$sock" --sim-speed "$SIM_SPEED" --stall-grace 400 \
      --checkpoint "$base" --checkpoint-every 150 --days "$DAYS" \
      "${resume[@]}" "$@" >> "$log" 2>&1 &
  DPID=$!
  # The feed's connector retries with backoff; exit 3 (connection lost)
  # just means the daemon crashed mid-replay — the restart loop handles it.
  "$FEED" --play --trace "$TRACE" --socket "$sock" --drain \
      > "$WORK/daemon-$seed-replay.log" 2>&1 || true
  local drc=0
  wait "$DPID" || drc=$?
  DPID=""
  grep -o 'ok drain .* fp [0-9a-f]*' "$WORK/daemon-$seed-replay.log" \
    | awk '{for (i = 1; i < NF; i++) if ($i == "fp") print "fp", $(i + 1)}' \
    | tail -1
  return "$drc"
}

run_daemon_seed() {
  local seed="$1" spec="$2"
  local dir="$WORK/daemon-$seed"
  local log="$WORK/daemon-$seed.log"
  mkdir -p "$dir"
  local extra=()
  case "$spec" in
    *tsdb.wal*) mkdir -p "$dir/tsdb"; extra=(--tsdb wal --tsdb-dir "$dir/tsdb") ;;
  esac
  local attempt=0 drc=0 out=""
  while :; do
    attempt=$((attempt + 1))
    if [ "$attempt" -gt "$MAX_ATTEMPTS" ]; then
      echo "FAIL[seed $seed]: daemon campaign incomplete after $MAX_ATTEMPTS attempts"
      exit 1
    fi
    drc=0
    out="$(replay_once "$seed" "$log" \
        --failpoints "$spec" --failpoint-seed "$seed" "${extra[@]}")" || drc=$?
    if [ "$drc" = 0 ] && [ -n "$out" ]; then
      break
    fi
    case "$drc" in
      0|1|"$KCRASH") ;;  # crashed or failed mid-campaign: restart + resume
      *) echo "FAIL[seed $seed]: unexpected daemon exit $drc (attempt $attempt)"
         tail -5 "$log"
         exit 1 ;;
    esac
  done
  echo "-- daemon storm completed after $attempt attempt(s)"
  fsck_gate "$dir" "$seed"
  local storm_fp="${out#fp }"
  if [ "$storm_fp" != "$BATCH_FP" ]; then
    echo "FAIL[seed $seed]: storm drain fp $storm_fp != batch $BATCH_FP"
    exit 1
  fi
  # Disarmed resume from whatever generations the storm left behind.
  drc=0
  out="$(replay_once "$seed" "$log" "${extra[@]}")" || drc=$?
  if [ "$drc" != 0 ] || [ -z "$out" ]; then
    echo "FAIL[seed $seed]: disarmed resume failed (exit $drc)"
    tail -5 "$log"
    exit 1
  fi
  local fp="${out#fp }"
  if [ "$fp" != "$BATCH_FP" ]; then
    echo "FAIL[seed $seed]: disarmed resume fp $fp != batch $BATCH_FP"
    exit 1
  fi
  echo "PASS[seed $seed]: daemon bit-identical after storm ($fp)"
}

# --- driver -----------------------------------------------------------------

for seed in $SEEDS; do
  lane="$(lane_of "$seed")"
  spec="$(spec_of "$seed")"
  echo ""
  echo "== seed $seed [$lane]: $spec =="
  case "$lane" in
    sweep)  sweep_reference; run_sweep_seed "$seed" "$spec" ;;
    mp)     sweep_reference; run_mp_seed "$seed" "$spec" ;;
    daemon) daemon_reference; run_daemon_seed "$seed" "$spec" ;;
  esac
done

echo ""
echo "PASS: all chaos seeds recovered bit-identically ($SEEDS)"
