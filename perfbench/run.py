#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fuzz-riscv --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments. The last line of standard output is the
JSON result. Scratch files (databases, Chrome traces, temporary files) go
to .perfbench/ in the checkout. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    for needed in ("dune-project", "lib", os.path.join("examples", "verilog", "rv.v")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2
    os.makedirs(WORK, exist_ok=True)
    # keep dune's shared cache and every temporary file inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=WORK)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe, "--work", WORK] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
