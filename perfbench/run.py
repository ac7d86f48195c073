#!/usr/bin/env python3
"""Build and run the robonet benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

The script builds `perfbench/` from source (`cargo build --release
--offline`) into `$CARGO_TARGET_DIR`, or `.bench_build/` when that is
unset, then runs `perfbench` (`--trace 0`, end-to-end metrics) or
`perfbench-traced` (`--trace 1`, per-layer metrics). Its standard output
is the binary's: a diagnostics line, an exact-count ledger line and,
last, the result line. The diagnostics and ledger lines are also
appended to `perfbench-samples.jsonl` in the build directory.

Exit codes: 0 success, 2 bad arguments or missing sources, 3 build
failure, 4 the run failed or timed out. Nothing is printed to standard
output unless the run succeeds.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def commit_id():
    """The checked-out commit, read from `.git` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
    except OSError:
        return os.environ.get("PERFBENCH_COMMIT", "unknown")
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    for needed in (MANIFEST, os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; the benchmark "
                  "builds robonet from source", file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
             "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    binary = "perfbench-traced" if args.trace == "1" else "perfbench"
    cmd = [os.path.join(target, "release", binary),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--commit", commit_id(),
           "--log", os.path.join(target, "perfbench-samples.jsonl")]
    # A terminated run.py must not leave the benchmark running: turn
    # SIGTERM into an exception so the `finally` below stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(4))
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"run.py: cannot start {binary}: {e}", file=sys.stderr)
        return 4
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {binary} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        sys.stderr.write(stdout)
        print(f"run.py: {binary} exited with {child.returncode}", file=sys.stderr)
        return 4
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
