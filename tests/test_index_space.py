"""The index-space skeleton pipeline checked against the per-element code it
replaced, which is kept here as the oracle: the `_bound` join/meet tables,
the star(plus(a)) skeleton scans and the all-pairs `validate` loop.  Also
the InvariantViolated checks, which must hold under `python -O`."""

import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import latglue
from latglue.constructions import boolean, chain, enumerate_lattices, grid, \
    section1_nonexample_a1, section1_nonexample_a4
from latglue.core import FiniteLattice, InvariantViolated, NoUniqueJoin, \
    NoUniqueMeet
from latglue.glue import GluedSystem, GlueViolation, _assert_derived, \
    _membership, glued_sum, validate
from latglue.predicates import is_modular
from latglue.skeleton import decompose, dual_skeleton, plus, skeleton_set, star
from latglue.suite import glued_fixtures

CORPUS = list(enumerate_lattices(7))
MODULAR = [L for L in CORPUS if is_modular(L)]
GLUED = glued_fixtures()


# -- the join/meet tables -------------------------------------------------

class OracleNoBound(Exception):
    def __init__(self, err, pair):
        super().__init__(err, pair)
        self.err, self.pair = err, pair


def _ranks(leq):
    """Longest-chain height of every element, from the order matrix."""
    n = len(leq)
    rank = [0] * n
    for i in np.argsort(leq.sum(axis=0), kind="stable"):
        for j in np.flatnonzero(leq[:, i]):
            if j != i:
                rank[i] = max(rank[i], rank[j] + 1)
    return rank


def oracle_tables(leq):
    """The O(n³) `_bound` loop: the least of the common bounds of each
    pair, by rank, checked against all of them."""
    n = len(leq)
    ups = [frozenset(np.flatnonzero(leq[i])) for i in range(n)]
    downs = [frozenset(np.flatnonzero(leq[:, i])) for i in range(n)]
    height, depth = _ranks(leq), _ranks(leq.T)

    def bound(a, b, cones, rank, err):
        common = cones[a] & cones[b]
        c = min(common, key=lambda i: rank[i])
        if all(i in cones[c] for i in common):
            return c
        raise OracleNoBound(err, (a, b))

    join = np.empty((n, n), dtype=np.int32)
    meet = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            if leq[a, b]:
                j, m = b, a
            elif leq[b, a]:
                j, m = a, b
            else:
                j = bound(a, b, ups, height, NoUniqueJoin)
                m = bound(a, b, downs, depth, NoUniqueMeet)
            join[a, b] = join[b, a] = j
            meet[a, b] = meet[b, a] = m
    return join, meet


def assert_tables_match(L):
    join, meet = oracle_tables(L._leq)
    np.testing.assert_array_equal(L._join, join)
    np.testing.assert_array_equal(L._meet, meet)


def test_tables_match_bound_loop_on_corpus():
    for L in CORPUS:
        for ids in (L.elements, L.elements[::-1]):
            pos = [L.index(a) for a in ids]
            assert_tables_match(
                FiniteLattice.from_leq(ids, L._leq[np.ix_(pos, pos)]))


def test_tables_match_bound_loop_on_intervals():
    for L in CORPUS:
        for lo in L.elements:
            for hi in L.up_set(lo):
                assert_tables_match(L.interval(lo, hi).lattice)


@pytest.mark.parametrize("name", sorted(GLUED))
def test_tables_match_bound_loop_on_glued_sums(name):
    assert_tables_match(glued_sum(GLUED[name]))


@pytest.mark.parametrize("L", [boolean(8), grid(11, 12)],
                         ids=["boolean8", "grid11x12"])
def test_tables_match_bound_loop_on_large_lattices(L):
    assert_tables_match(L)


def random_bounded_orders(count, seed):
    """Seeded bounded orders in shuffled element order: two or three
    antichains of two to four elements between a bottom and a top, each
    element below each of the next antichain with probability 0.6.  About
    three in five are not lattices."""
    rng = random.Random(seed)
    for _ in range(count):
        widths = [rng.randrange(2, 5) for _ in range(rng.randrange(2, 4))]
        n = sum(widths) + 2
        rel = np.eye(n, dtype=bool)
        rel[0] = rel[:, n - 1] = True
        start = 1
        for w, w2 in zip(widths, widths[1:]):
            for i in range(start, start + w):
                for j in range(start + w, start + w + w2):
                    rel[i, j] = rng.random() < 0.6
            start += w
        for k in range(n):
            rel |= np.outer(rel[:, k], rel[k])
        perm = rng.sample(range(n), n)
        yield [f"e{p}" for p in perm], rel[np.ix_(perm, perm)]


def test_non_lattices_fail_exactly_where_the_bound_loop_does():
    failures = 0
    for ids, leq in random_bounded_orders(400, seed=7):
        try:
            want = oracle_tables(leq)
        except OracleNoBound as e:
            want = e
        try:
            L = FiniteLattice.from_leq(ids, leq)
        except (NoUniqueJoin, NoUniqueMeet) as e:
            assert isinstance(want, OracleNoBound), str(e)
            assert type(e) is want.err
            a, b, c, d = (ids.index(x) for x in re.findall(r"'(e\d+)'", str(e)))
            assert (a, b) == want.pair
            cones = leq if want.err is NoUniqueJoin else leq.T
            common = np.flatnonzero(cones[a] & cones[b])
            for bound in (c, d):
                assert bound in common
                assert not any(cones[k, bound] for k in common if k != bound)
            assert not cones[c, d] and not cones[d, c]
            failures += 1
        else:
            assert not isinstance(want, OracleNoBound)
            np.testing.assert_array_equal(L._join, want[0])
            np.testing.assert_array_equal(L._meet, want[1])
    assert failures > 200


# -- the skeleton -----------------------------------------------------------

def test_skeleton_sets_match_per_element_scan():
    for M in MODULAR:
        assert skeleton_set(M) == {a for a in M.elements
                                   if plus(M, star(M, a)) == a}
        assert dual_skeleton(M) == {a for a in M.elements
                                    if star(M, plus(M, a)) == a}


# -- glue validation -------------------------------------------------------

def _is_filter(L, subset):
    if not subset:
        return False
    for a in subset:
        for b in L.up_set(a):
            if b not in subset:
                return False
    return all(L.meet(a, b) in subset for a in subset for b in subset)


def _is_ideal(L, subset):
    if not subset:
        return False
    for a in subset:
        for b in L.down_set(a):
            if b not in subset:
                return False
    return all(L.join(a, b) in subset for a in subset for b in subset)


def oracle_violations(sys):
    """The all-pairs (A1)-(A4) loop over id sets."""
    S = sys.skeleton
    out = []
    sets = {x: sys.block_set(x) for x in S.elements}
    for x in S.elements:
        for y in S.elements:
            if x == y:
                continue
            inter = sets[x] & sets[y]
            if S.leq(x, y):
                if inter:
                    if not _is_filter(sys.blocks[x], inter):
                        out.append(GlueViolation("A1", (x, y, "overlap is not a filter of the lower block")))
                    elif not _is_ideal(sys.blocks[y], inter):
                        out.append(GlueViolation("A1", (x, y, "overlap is not an ideal of the upper block")))
                    else:
                        Lx, Ly = sys.blocks[x], sys.blocks[y]
                        for a in inter:
                            for b in inter:
                                if Lx.leq(a, b) != Ly.leq(a, b):
                                    out.append(GlueViolation("A2", (x, y, a, b)))
                if not inter and y in S.upper_covers(x):
                    out.append(GlueViolation("A3", (x, y)))
            if not S.leq(x, y) and not S.leq(y, x):
                lo, hi = S.meet(x, y), S.join(x, y)
                bad = inter - (sets[lo] & sets[hi])
                if bad:
                    out.append(GlueViolation("A4", (x, y, tuple(sorted(bad, key=str)))))
    return out


def canonical(violations):
    """The A2 witnesses of one pair in a fixed order: the oracle lists them
    in set order, which varies with the hash seed."""
    group = {}
    for v in violations:
        group.setdefault((v.axiom, v.witness[:2]), len(group))
    return sorted(violations, key=lambda v: (group[v.axiom, v.witness[:2]],
                                             str(v.witness)))


def _rotated(sys):
    """The same blocks moved one skeleton element on: mostly invalid."""
    xs = sys.skeleton.elements
    return GluedSystem(sys.skeleton, {x: sys.blocks[xs[(i + 1) % len(xs)]]
                                      for i, x in enumerate(xs)})


def _systems():
    out = dict(GLUED)
    out["nonexample_a1"] = section1_nonexample_a1()
    out["nonexample_a4"] = section1_nonexample_a4()
    out["a2"] = GluedSystem(chain(1), {
        "0": FiniteLattice(["z", "a", "b"], [("z", "a"), ("a", "b")]),
        "1": FiniteLattice(["b", "a", "t"], [("b", "a"), ("a", "t")])})
    out["a3"] = GluedSystem(chain(1), {
        "0": chain(1), "1": FiniteLattice(["x", "y"], [("x", "y")])})
    for name, sys in list(out.items()):
        if sys.skeleton.n > 1:
            out[f"{name}-rotated"] = _rotated(sys)
    for i, M in enumerate(MODULAR):
        out[f"decompose-{i}"] = decompose(M).system
    return out


SYSTEMS = _systems()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_validate_matches_all_pairs_loop(name):
    sys = SYSTEMS[name]
    assert canonical(validate(sys)) == canonical(oracle_violations(sys))


def test_invalid_systems_are_in_the_differential_corpus():
    axioms = {v.axiom for sys in SYSTEMS.values() for v in validate(sys)}
    assert axioms == {"A1", "A2", "A3", "A4"}


# Systems that break (A1)-(A4) in ways the derived checks see, one per check
DERIVED = {
    "meet-join-overlap": (section1_nonexample_a4(), "meet-block ∩ join-block",
                          ("sx", "sy")),
    "interval": (SYSTEMS["a2"], "[0_y, 1_x]", ("0", "1")),
    "join": (GluedSystem(chain(1), {
        "0": FiniteLattice(["z", "a", "b", "c", "d"], [
            ("z", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
        "1": FiniteLattice(["a", "b", "c", "d", "t"], [
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "t")])}),
        "disagree on join", ("0", "1")),
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_checks_raise_with_a_witness(name):
    sys, what, witness = DERIVED[name]
    with pytest.raises(InvariantViolated, match=re.escape(what)) as e:
        _assert_derived(sys, *_membership(sys))
    assert e.value.witness == witness


WRONG_PLUS = """
import sys
import numpy as np
from latglue import skeleton
from latglue.constructions import grid
from latglue.core import InvariantViolated

right = skeleton._star_plus
def wrong(M):
    st, pl = right(M)
    return st, np.arange(M.n)  # every element its own plus
skeleton._star_plus = wrong
try:
    skeleton.decompose(grid(2, 2))
except InvariantViolated as e:
    print(sys.flags.optimize, e.witness)
"""


def test_skeleton_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(latglue.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", WRONG_PLUS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1", "2,2"]
