"""Size→time curves of the corpus families, printed as one JSON line.

For n = 5..8 it times `enumerate_lattices(n)` and the square systems
(`square_sublattices`) over the modular lattices of at most n elements,
each point the median of k in-process runs, with the number of
`core._least_bounds` calls (table steps) one run makes.  The line also
records the Python and numpy versions, the core count and
OPENBLAS_NUM_THREADS, which sets how many threads the products use.

The package is imported from the `src` directory of this checkout.  On a
checkout without `square_sublattices`, the square systems are built one
S at a time by `square_sublattice`, so that two revisions can be compared.

Usage: python bench/corpus_curve.py [-k RUNS]   (default k = 5)
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from latglue import constructions, core  # noqa: E402
from latglue.predicates import is_modular  # noqa: E402

SIZES = range(5, 9)


def _squares(Ss):
    batch = getattr(constructions, "square_sublattices", None)
    if batch is None:
        return [constructions.square_sublattice(S) for S in Ss]
    return batch(Ss)


def _point(run, k):
    """{"ms": median of k runs of run(), "least_bounds": its calls in one}"""
    real, calls = core._least_bounds, []

    def counted(leq, topo):
        calls.append(1)
        return real(leq, topo)

    times = []
    core._least_bounds = counted
    try:
        for _ in range(k):
            calls.clear()
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
    finally:
        core._least_bounds = real
    return {"ms": round(statistics.median(times) * 1e3, 3),
            "least_bounds": len(calls)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=5, help="runs per point")
    k = parser.parse_args(argv).k
    enumerate_curve, square_curve = {}, {}
    for n in SIZES:
        enumerate_curve[n] = _point(
            lambda: list(constructions.enumerate_lattices(n)), k)
        Ss = [L for L in constructions.enumerate_lattices(n) if is_modular(L)]
        square_curve[n] = dict(_point(lambda: _squares(Ss), k), systems=len(Ss))
    print(json.dumps({
        "runs_per_point": k,
        "enumerate_lattices": enumerate_curve,
        "square_sublattices": square_curve,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }))


if __name__ == "__main__":
    main()
