"""FiniteLattice.from_leq, the one route from an order to a lattice, checked
against the hand-written transitive reductions and the set-fixpoint closure
it replaced, which are kept here as the oracle."""

import numpy as np
import pytest

from latglue.constructions import enumerate_lattices
from latglue.core import FiniteLattice, LatticeError
from latglue.glue import NotALattice, glued_sum
from latglue.suite import glued_fixtures

CORPUS = list(enumerate_lattices(7))
GLUED = glued_fixtures()


def oracle_covers(elements, up):
    """Transitive reduction by the triple loop: a ≺ b when a < b and no c
    lies strictly between them.  `up[a]` is the up-set of a."""
    return [(a, b) for a in elements for b in up[a]
            if b != a and not any(c != a and c != b and b in up[c]
                                  for c in up[a])]


def oracle_glued_sum(sys):
    """The sum as the set-fixpoint closure of the union of block orders."""
    carrier = sys.carrier()
    order = {a: {a} for a in carrier}
    for x in sys.skeleton.elements:
        L = sys.blocks[x]
        for a in L.elements:
            order[a] |= L.up_set(a)
    changed = True
    while changed:
        changed = False
        for a in carrier:
            new = set()
            for b in order[a]:
                new |= order[b]
            if len(new) > len(order[a]):
                order[a] = new
                changed = True
    for a in carrier:
        for b in order[a]:
            if a != b and a in order[b]:
                raise NotALattice(f"not antisymmetric at ({a!r}, {b!r})")
    return FiniteLattice(carrier, oracle_covers(carrier, order))


def assert_same(L, M):
    assert L.elements == M.elements
    assert set(L.covers) == set(M.covers)
    for table in ("_leq", "_join", "_meet"):
        np.testing.assert_array_equal(getattr(L, table), getattr(M, table))


def test_from_leq_matches_triple_loop_on_corpus():
    for L in CORPUS:
        up = {a: L.up_set(a) for a in L.elements}
        for ids in (L.elements, L.elements[::-1]):
            pos = [L.index(a) for a in ids]
            built = FiniteLattice.from_leq(ids, L._leq[np.ix_(pos, pos)])
            assert_same(built, FiniteLattice(ids, oracle_covers(ids, up)))


def test_intervals_match_triple_loop_on_corpus():
    for L in CORPUS:
        for lo in L.elements:
            for hi in L.up_set(lo):
                sub = L.interval(lo, hi).carrier
                up = {a: L.up_set(a) & set(sub) for a in sub}
                assert_same(L.restrict(sub),
                            FiniteLattice(sub, oracle_covers(sub, up)))


@pytest.mark.parametrize("name", sorted(GLUED))
def test_glued_sum_matches_set_fixpoint(name):
    assert_same(glued_sum(GLUED[name]), oracle_glued_sum(GLUED[name]))


def test_from_leq_rejects_non_transitive_relation():
    # a ≦ b ≦ c without a ≦ c
    leq = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
    with pytest.raises(LatticeError):
        FiniteLattice.from_leq(["a", "b", "c"], leq)


def test_from_leq_rejects_two_cycle():
    # 0 below a and b, both below 1, and a ≦ b ≦ a
    leq = np.array([[1, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1]],
                   dtype=bool)
    with pytest.raises(LatticeError):
        FiniteLattice.from_leq(["0", "a", "b", "1"], leq)
    with pytest.raises(LatticeError):
        FiniteLattice.from_leq(["a", "b"], np.ones((2, 2), dtype=bool))


def test_from_leq_rejects_non_reflexive_relation():
    with pytest.raises(LatticeError):
        FiniteLattice.from_leq(["a", "b"], [[0, 1], [0, 1]])
