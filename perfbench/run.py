#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload ns-open|gcp-commit|dsm-pages \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
perfbench/clouds_bench.exe with dune (release profile, no shared
cache, so nothing is written outside the checkout), then runs it with
the same arguments.  The executable prints the human-readable report
and, as its last line, the JSON result; its exit code is passed on.
A traced run also writes a Perfetto-readable trace to perfbench/out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ns-open", "gcp-commit", "dsm-pages")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, root, timeout, **kw):
    """Run [cmd] to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, cwd=root, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no {needed} in {root}: run from a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./perfbench/clouds_bench.exe"
    status = run(
        [dune, "build", "--root", ".", "--profile", "release", target],
        root,
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if status != 0:
        fail(f"build failed (dune exit {status})")

    exe = os.path.join(root, "_build", "default", "perfbench", "clouds_bench.exe")
    sys.stdout.flush()
    status = run(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--out-dir", os.path.join("perfbench", "out"),
        ],
        root,
        RUN_TIMEOUT_S,
    )
    sys.exit(status)


if __name__ == "__main__":
    main()
