#!/usr/bin/env python3
"""Build gs_bench from this source tree and run one workload.

    python3 gs_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory of a full source tree. The first run configures
and builds gs_bench and the GreenSprint libraries it links into
.bench_build/ at the tree's root; later runs rebuild only what changed.
Build output goes to stderr. gs_bench's own output is passed through, and
its last line is the JSON result. The exit code is gs_bench's, or 2 when
the build fails (for instance outside a full source tree).
"""
import argparse
import ctypes
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# Longest a single run may take once built; a run that hangs is killed.
RUN_TIMEOUT_S = 170


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(
        os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")
    )
    if not configured:
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "gs_bench"), "-B", BUILD,
             *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "gs_bench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "gs_bench")


def fixed_layout():
    """Turn off address-space randomisation in the child: where the heap
    lands changes construction times by up to 50% from run to run."""
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ctypes.c_ulong(addr_no_randomize))


def commit():
    """The tree's git commit, or "unknown" when it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "day_clean", "day_storm", "daemon_feed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 1:
        ap.error("--seed must be at least 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"gs_bench: build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(BUILD, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", commit()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=work, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        print(f"gs_bench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
