"""Benchmark entry point; run it from the root of a hopffact checkout:

    python3 benchmarks/run.py --workload gf36 --seed 1 --seconds 10 --trace 0

It starts ``worker.py`` in a fresh process whose environment fixes the
BLAS thread count and puts the checkout's ``src`` first on the import path,
waits for it, and exits with its code.  The worker's last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# At most the machine's cores; one keeps the dense mod-p products off a
# second core that other processes may be using.
BLAS_THREADS = 1
# A run must end within 180 s; this leaves 5 s to kill the worker and exit.
# The longest run, a traced gf36 run (one set-up, one untraced and one
# traced 40-45 s op), takes about 90 s on the host README.md describes;
# the cap is 1.9 times that, room for a program 25% slower in a period when
# that host runs 1.5x slow.
TIMEOUT_S = 175


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one hopffact benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hopffact", "__init__.py")):
        print("run.py: no src/hopffact here; run from the root of a hopffact checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ]
    with subprocess.Popen(cmd, env=env) as proc:
        try:
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
