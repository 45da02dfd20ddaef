"""Benchmark of the builtup library: one run of one workload.

    python3 bench/run.py --workload train_desk --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The run builds nothing: it starts
bench/worker.py in a fresh child process with PYTHONPATH pointing at the
checkout's src/ and OPENBLAS_NUM_THREADS pinned to the number of CPUs this
process may use, waits for it and passes its output and exit code on.
Scratch files go to .bench_work/ in the checkout and are removed at the
end. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("train_desk", "map_desk", "paper")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny zones and one epoch, for the benchmark's own test")
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "builtup" / "__init__.py").is_file():
        print(f"no builtup sources under {root / 'src'}", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS=threads)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    cmd = [sys.executable, str(root / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--root", str(root)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, env=env, cwd=root,
                              timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {CHILD_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
