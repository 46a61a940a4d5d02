"""A built lattice is read-only: on every route that makes one, a write into
its order matrix or its join/meet tables raises ValueError.  `validate`
proves that the blocks of an accepted system agree on joins and meets from
this (see its docstring)."""

import pytest

from latglue import io as lio
from latglue.connect import connected_sum, elevate
from latglue.constructions import boolean, chain, \
    distributive_with_skeleton, enumerate_lattices, grid, m3, n5
from latglue.core import FiniteLattice, product
from latglue.glue import glued_sum
from latglue.skeleton import decompose, skeleton_lattice
from latglue.suite import connected_fixtures, glued_fixtures


def _loaded(tmp_path, obj):
    path = tmp_path / "system.json"
    lio.save(obj, path)
    return lio.load(path)


def _blocks(sys):
    return list(sys.blocks.values())


def _quotient():
    quotient, _ = connected_sum(elevate(connected_fixtures()["copies_over_b2"]))
    return quotient


B3 = boolean(3)
GLUED = glued_fixtures()["fig_3by3"]

# route -> f(tmp_path), one lattice or a list of them built by that route
ROUTES = {
    "covers": lambda _: FiniteLattice(["0", "a", "1"],
                                      [("0", "a"), ("a", "1")]),
    "from_leq": lambda _: FiniteLattice.from_leq(B3.elements, B3._leq),
    "enumerate_lattices": lambda _: list(enumerate_lattices(5)),
    "chain": lambda _: [chain(0), chain(5)],
    "product": lambda _: [product(m3(), chain(1)), grid(3, 4)],
    "boolean": lambda _: [boolean(0), boolean(4)],
    "distributive-block": lambda _: _blocks(distributive_with_skeleton(n5())),
    "restrict": lambda _: B3.restrict(["0", "a", "b", "ab"]),
    "dual": lambda _: [n5().dual(), chain(0).dual()],
    "interval": lambda _: B3.interval("a", "abc").lattice,
    "skeleton_lattice": lambda _: skeleton_lattice(grid(3, 3)),
    "decompose-block": lambda _: _blocks(decompose(grid(3, 3)).system),
    "glued_sum": lambda _: glued_sum(GLUED),
    "connected_sum-quotient-block": lambda _: _blocks(_quotient()),
    "io.load-connected-block": lambda tmp: _blocks(
        _loaded(tmp, connected_fixtures()["copies_over_b2"])),
    "io.load-glued-block": lambda tmp: _blocks(_loaded(tmp, GLUED)),
    "io.load-lattice": lambda tmp: _loaded(tmp, grid(3, 3)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_no_table_of_a_built_lattice_can_be_written(route, tmp_path):
    built = ROUTES[route](tmp_path)
    for L in built if isinstance(built, list) else [built]:
        for name in ("_leq", "_join", "_meet"):
            table = getattr(L, name)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = table[0, 0]
            with pytest.raises(ValueError, match="read-only"):
                table.fill(0)
