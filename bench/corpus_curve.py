"""Size→time curves of the corpus families, printed as one JSON line.

For n = 5..8 it times `enumerate_lattices(n)`, the square systems
(`square_sublattices`) over the modular lattices of at most n elements,
and the decompositions (`decompositions`) of those lattices and of the
sums of their square systems, each point the median of k in-process runs,
with the number of `core._least_bounds` calls (table steps) one run makes.
Each run decomposes fresh copies of the lattices, which keep neither a*
and a⁺ nor S(M) from an earlier run.  A build line times, the same way,
`grid(p, p)` for p = 4, 8, 16, 24, 32, 40, `boolean(n)` for n = 4..8 and
`distributive_with_skeleton` over each lattice of at most 5 elements.
A blocks line gives, for the same p, the ms to decompose a fresh
`grid(p, p)` and the ms to then ask its decomposition for every block,
each the median of k runs.
A query line gives the ns per call of `sup_via_formulas`,
`inf_via_formulas` and `blocks_of` on the system of
`decompose(grid(p, p))`, and of `join` and `leq` on its sum, for
p = 3..8: each the median of k runs over the same seeded pairs of
carrier elements, once the system's tables and the sum are built.
The line also records the Python and numpy versions, the core count and
OPENBLAS_NUM_THREADS, which sets how many threads the products use.

The package is imported from the `src` directory of this checkout.  On a
checkout without `square_sublattices` or `decompositions`, the square
systems are built one S at a time by `square_sublattice` and the lattices
decomposed one at a time by `decompose`, so that two revisions can be
compared.

Usage: python bench/corpus_curve.py [-k RUNS]   (default k = 5)
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from latglue import constructions, core, skeleton  # noqa: E402
from latglue.glue import (glued_sum, inf_via_formulas,  # noqa: E402
                          sup_via_formulas)
from latglue.predicates import is_modular  # noqa: E402

SIZES = range(5, 9)
GRID_SIDES = (4, 8, 16, 24, 32, 40)
BOOLEAN_RANKS = range(4, 9)
QUERY_SIDES = range(3, 9)
QUERY_PAIRS = 2000


def _squares(Ss):
    batch = getattr(constructions, "square_sublattices", None)
    if batch is None:
        return [constructions.square_sublattice(S) for S in Ss]
    return batch(Ss)


def _decompositions(Ms):
    batch = getattr(skeleton, "decompositions", None)
    if batch is None:
        return [skeleton.decompose(M) for M in Ms]
    return batch(Ms)


def _fresh(Ms):
    """Copies of Ms that keep nothing an earlier decomposition kept on
    them: they share the order and tables, not a*, a⁺ or S(M)."""
    out = []
    for M in Ms:
        L = M._relabelled(M.elements)
        for kept in ("_star_plus", "_skeleton"):
            vars(L).pop(kept, None)
        out.append(L)
    return out


def _point(run, k, setup=tuple):
    """{"ms": median of k runs of run(*setup()), set-up untimed,
    "least_bounds": its calls in one}"""
    real, calls = core._least_bounds, []

    def counted(leq, topo):
        calls.append(1)
        return real(leq, topo)

    times = []
    core._least_bounds = counted
    try:
        for _ in range(k):
            args = setup()
            calls.clear()
            start = time.perf_counter()
            run(*args)
            times.append(time.perf_counter() - start)
    finally:
        core._least_bounds = real
    return {"ms": round(statistics.median(times) * 1e3, 3),
            "least_bounds": len(calls)}


def _ns_per_call(query, args, k):
    """Median over k runs of the ns per call of query(*a) for a in args."""
    times = []
    for _ in range(k):
        start = time.perf_counter()
        for a in args:
            query(*a)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) / len(args) * 1e9, 1)


def _query_point(p, k):
    """ns per call of the element queries on decompose(grid(p, p))'s
    system and its sum, over QUERY_PAIRS seeded carrier pairs."""
    sys = skeleton.decompose(constructions.grid(p, p)).system
    L = glued_sum(sys)
    rng = random.Random(p)
    pairs = [tuple(rng.choices(sys.carrier(), k=2)) for _ in range(QUERY_PAIRS)]
    sup_via_formulas(sys, *pairs[0])  # builds the staircase tables
    return {
        "sup": _ns_per_call(partial(sup_via_formulas, sys), pairs, k),
        "inf": _ns_per_call(partial(inf_via_formulas, sys), pairs, k),
        "join": _ns_per_call(L.join, pairs, k),
        "leq": _ns_per_call(L.leq, pairs, k),
        "blocks_of": _ns_per_call(sys.blocks_of, [(a,) for a, _ in pairs], k),
        "elements": L.n,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=5, help="runs per point")
    k = parser.parse_args(argv).k
    enumerate_curve, square_curve, decompose_curve = {}, {}, {}
    for n in SIZES:
        enumerate_curve[n] = _point(
            lambda: list(constructions.enumerate_lattices(n)), k)
        Ss = [L for L in constructions.enumerate_lattices(n) if is_modular(L)]
        square_curve[n] = dict(_point(lambda: _squares(Ss), k), systems=len(Ss))
        Ms = Ss + [glued_sum(sys) for sys in _squares(Ss)]
        decompose_curve[n] = dict(_point(_decompositions, k,
                                         lambda: (_fresh(Ms),)),
                                  lattices=len(Ms))
    small = list(constructions.enumerate_lattices(5))
    build_curve = {
        "grid": {p: _point(lambda: constructions.grid(p, p), k)
                 for p in GRID_SIDES},
        "boolean": {n: _point(lambda: constructions.boolean(n), k)
                    for n in BOOLEAN_RANKS},
        "distributive_with_skeleton": dict(
            _point(lambda: [constructions.distributive_with_skeleton(S)
                            for S in small], k), skeletons=len(small)),
    }
    blocks_curve = {p: {
        "decompose": _point(skeleton.decompose, k,
                            lambda: (constructions.grid(p, p),)),
        "blocks": _point(lambda B: [B[x] for x in B], k, lambda: (
            skeleton.decompose(constructions.grid(p, p)).blocks,)),
    } for p in GRID_SIDES}
    query_curve = {p: _query_point(p, k) for p in QUERY_SIDES}
    print(json.dumps({
        "runs_per_point": k,
        "build": build_curve,
        "blocks": blocks_curve,
        "queries_ns": query_curve,
        "enumerate_lattices": enumerate_curve,
        "square_sublattices": square_curve,
        "decompositions": decompose_curve,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }))


if __name__ == "__main__":
    main()
