"""Start-up times of fresh `latglue` processes, written as one JSON file.

Each case is a fresh interpreter: `import latglue.cli`, then each command
(`skeleton`, `check`, `glue`, `dot`, `connect`, `construct`, `suite`) on a
small input shaped like perfbench's (the 30-element grid(5,6) of
skeleton-sweep's small tier, its decomposition, the local system of
grid(4,4) that connect-reglue cuts, and suite-7's `--corpus-max 7`).
Each case is timed, wall clock from the parent process, in two ways:

- without bytecode: `PYTHONDONTWRITEBYTECODE=1` on a copy of the
  library's sources that has no `__pycache__`, so every module of the
  library is compiled from source, as in a checkout where bytecode is
  never written;
- with bytecode: the same copy with `PYTHONPYCACHEPREFIX` set to a
  temporary directory, filled by one untimed run first.

Neither writes into the checkout.  Each figure is the median of k runs,
the cases and the two ways interleaved round by round.  With `--before
SRC`, the `src` directory of another checkout is timed the same way,
alternating with this one, and each result also carries its figures.
The file records the Python and numpy versions, the core count and the
BLAS/OpenMP thread variables.

Usage: python bench/startup.py [-k RUNS] [--before SRC] --out FILE
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from latglue import io  # noqa: E402
from latglue.connect import local_system  # noqa: E402
from latglue.constructions import grid  # noqa: E402
from latglue.skeleton import decompose  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CASES = [
    ("import latglue.cli", ["-c", "import latglue.cli"]),
    ("skeleton", ["-m", "latglue.cli", "skeleton", "lattice.json"]),
    ("check", ["-m", "latglue.cli", "check", "lattice.json",
               "--property", "modular"]),
    ("glue", ["-m", "latglue.cli", "glue", "system.json"]),
    ("dot", ["-m", "latglue.cli", "dot", "lattice.json"]),
    ("connect", ["-m", "latglue.cli", "connect", "local.json"]),
    ("construct", ["-m", "latglue.cli", "construct", "grid", "5", "6"]),
    ("suite", ["-m", "latglue.cli", "suite", "--corpus-max", "7"]),
]


def write_inputs(workdir):
    M = grid(5, 6)
    io.save(M, workdir / "lattice.json")
    io.save(decompose(M).system, workdir / "system.json")
    io.save(local_system(decompose(grid(4, 4)).system)[0],
            workdir / "local.json")


def copy_sources(src, dest):
    """The library's .py files under `dest`, without any bytecode."""
    shutil.copytree(src / "latglue", dest / "latglue",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return dest


def timed(argv, env, cwd):
    t = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - t
    if done.returncode != 0:
        sys.exit(f"startup: {argv} exited {done.returncode}: "
                 f"{done.stderr.decode()}")
    return seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=7, help="runs per figure")
    ap.add_argument("--before", type=Path,
                    help="the src directory of a checkout to compare with")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args()
    trees = {"": SRC}
    if args.before is not None:
        trees["before_"] = args.before
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        work = tmp / "work"
        work.mkdir()
        write_inputs(work)
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        envs = {}
        for tag, src in trees.items():
            name = tag or "this"
            lib = {"PYTHONPATH": str(copy_sources(src, tmp / f"src-{name}"))}
            envs[f"{tag}no_bytecode_s"] = {**base, **lib,
                                           "PYTHONDONTWRITEBYTECODE": "1"}
            envs[f"{tag}bytecode_s"] = {**base, **lib, "PYTHONPYCACHEPREFIX":
                                        str(tmp / f"pycache-{name}")}
        for _, argv in CASES:  # fills the bytecode caches, untimed
            for env in envs.values():
                timed(argv, env, work)
        times = {(name, key): [] for name, _ in CASES for key in envs}
        for _ in range(args.k):
            for name, argv in CASES:
                for key, env in envs.items():
                    times[name, key].append(timed(argv, env, work))
    results = [{"name": name, "argv": argv,
                **{key: statistics.median(times[name, key]) for key in envs}}
               for name, argv in CASES]
    out = {"script": "bench/startup.py", "k": args.k,
           "env": {"python": platform.python_version(),
                   "numpy": np.__version__,
                   "nproc": len(os.sched_getaffinity(0)),
                   "machine": platform.machine(),
                   "threads": {v: os.environ.get(v) for v in THREAD_VARS}},
           "results": results}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for r in results:
        print(f"{r['name']:>20}: " + ", ".join(
            f"{key} {r[key] * 1000:.1f} ms" for key in envs))


if __name__ == "__main__":
    main()
