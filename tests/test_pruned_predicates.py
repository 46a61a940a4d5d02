"""The pruned decision procedures checked against the brute-force code they
replaced, which is kept here or in `oracles` as the oracle: the multiset
`is_n_distributive`, the per-cover `principal_congruence` `is_simple`, the
per-pair `is_modular`, the Boolean-embedding `breadth` and the per-element
`is_distributive`; past the multiset oracle's size, the shortcut-free
`oracle_is_n_distributive`."""

from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest

from latglue.constructions import boolean, chain, enumerate_lattices, \
    fano_lattice, grid, m3, n5, section4_example
from latglue.core import FiniteLattice, product
from latglue.glue import glued_sum
from latglue.predicates import NotModular, _irredundant_sets, \
    _join_irreducibles, breadth, is_distributive, is_modular, \
    is_n_distributive, is_simple
from latglue.suite import glued_fixtures
from oracles import oracle_breadth, oracle_distributive, \
    oracle_is_n_distributive, principal_congruence

CORPUS8 = list(enumerate_lattices(8))
NS = (1, 2, 3, 4)
# Multisets the oracle may hold at once: its prefix/suffix arrays take
# about 8(n+2) bytes per multiset.
ORACLE_ROWS = 1_100_000


def oracle_modular(L):
    """One n-length comparison per comparable pair (a, c)."""
    J, M, leq = L._join, L._meet, L._leq
    for a in range(L.n):
        for c in np.flatnonzero(leq[a]):
            if not np.array_equal(J[a, M[:, c]], M[J[a, :], c]):
                return False
    return True


def oracle_simple(L):
    """One union-find congruence closure per cover."""
    if L.n < 2:
        return False
    return all(principal_congruence(L, a, b).is_full() for a, b in L.covers)


def oracle_n_distributive(L, n):
    """The identity over every multiset of n+1 elements."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not oracle_modular(L):
        raise NotModular("n-distributivity is defined for modular lattices")
    J, M = L._join, L._meet
    ys = np.array(list(combinations_with_replacement(range(L.n), n + 1)))
    total = ys[:, 0]
    for i in range(1, n + 1):
        total = J[total, ys[:, i]]
    pre = np.zeros((len(ys), n + 2), dtype=np.int32)
    suf = np.zeros((len(ys), n + 2), dtype=np.int32)
    pre[:, 0] = L._bot
    suf[:, n + 1] = L._bot
    for i in range(n + 1):
        pre[:, i + 1] = J[pre[:, i], ys[:, i]]
    for i in range(n, -1, -1):
        suf[:, i] = J[suf[:, i + 1], ys[:, i]]
    drop = [J[pre[:, j], suf[:, j + 1]] for j in range(n + 1)]
    for x in range(L.n):
        lhs = M[x, total]
        rhs = M[x, drop[0]]
        for j in range(1, n + 1):
            rhs = J[rhs, M[x, drop[j]]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def assert_same_verdicts(L):
    """Compares every verdict with the oracle's and returns the
    n-distributivity verdicts by n ({} for a non-modular L)."""
    fresh = FiniteLattice(L.elements, L.covers)  # no cached verdicts
    assert is_modular(L) == oracle_modular(fresh)
    assert breadth(L) == oracle_breadth(fresh)
    assert is_distributive(L) == oracle_distributive(fresh)
    assert is_simple(L) == oracle_simple(fresh)
    if not is_modular(L):
        for n in NS:
            with pytest.raises(NotModular):
                is_n_distributive(L, n)
        return {}
    verdicts = {}
    for n in NS:
        verdicts[n] = is_n_distributive(L, n)
        # with no breadth cached, `is_n_distributive` computes it
        uncached = FiniteLattice(L.elements, L.covers)
        assert is_n_distributive(uncached, n) == verdicts[n], n
        if comb(L.n + n, n + 1) <= ORACLE_ROWS:
            assert verdicts[n] == oracle_n_distributive(fresh, n), n
        else:
            assert verdicts[n] == oracle_is_n_distributive(fresh, n), n
    return verdicts


def test_corpus8_both_element_orders():
    false_cases = 0
    for L in CORPUS8:
        for ids in (L.elements, L.elements[::-1]):
            pos = [L.index(a) for a in ids]
            v = assert_same_verdicts(
                FiniteLattice.from_leq(ids, L._leq[np.ix_(pos, pos)]))
            false_cases += sum(not x for x in v.values())
    assert false_cases  # M3 and its relatives fail at n = 1


def test_corpus7_duals():
    for L in CORPUS8:
        if L.n <= 7:
            assert_same_verdicts(L.dual())


NAMED = {f"glued_{name}": glued_sum(sys)
         for name, sys in glued_fixtures().items()}
NAMED.update({
    "projective_all_m3": section4_example(all_m3=True)["sum"],
    "boolean5": boolean(5),
    "grid4x4": grid(4, 4),
    "m3xm3": product(m3(), m3()),
    "fano": fano_lattice(),
    "m3xc1": product(m3(), chain(1)),
    "boolean4": boolean(4),
    "m3xc5": product(m3(), chain(4)),
    "fanoxc2": product(fano_lattice(), chain(1)),
    "section4": section4_example()["sum"],
})
NAMED.update({f"glued_{name}[{x}]": sys.blocks[x]
              for name, sys in glued_fixtures().items()
              for x in sys.skeleton.elements})
# beyond the multiset oracle at n = 4, where `oracle_is_n_distributive`
# stands in for it
LARGE = {"boolean6": boolean(6), "grid6x6": grid(6, 6)}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_lattices(name):
    assert_same_verdicts(NAMED[name])


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_named_lattices(name):
    assert_same_verdicts(LARGE[name])


def test_oracle_covers_every_named_case_but_one():
    # the 68-element distributive sum at n = 4 has 13.9M multisets
    skipped = [(name, n) for name, L in NAMED.items() if is_modular(L)
               for n in NS if comb(L.n + n, n + 1) > ORACLE_ROWS]
    assert skipped == [("glued_distributive_over_b2", 4)]


@pytest.mark.parametrize("make", [
    lambda: grid(8, 8),
    lambda: boolean(6),
    lambda: product(m3(), m3()),
    lambda: section4_example(all_m3=False)["sum"],
    lambda: section4_example(all_m3=True)["sum"],
], ids=["grid8x8", "boolean6", "m3xm3", "projective", "projective_all_m3"])
def test_breadth_and_distributive_match_search_oracles(make):
    L = make()
    fresh = FiniteLattice(L.elements, L.covers)
    assert breadth(L) == oracle_breadth(fresh)
    assert is_distributive(L) == oracle_distributive(fresh)


def test_breadth_beyond_the_search():
    # the Boolean-embedding search takes 42 s and over 60 s on the first
    # and last of these
    assert breadth(grid(10, 10)) == 2
    assert breadth(boolean(8)) == 8
    assert breadth(product(boolean(4), grid(3, 3))) == 6


def test_distributive_needs_modularity_first():
    # N5 has |J| = 3 = length, so only the modularity gate rejects it
    L = n5()
    assert len(_join_irreducibles(L)) == L.length()
    assert not is_modular(L) and not is_distributive(L)


def brute_irredundant(L, k):
    """Sorted (total, sorted leave-one-out joins) rows of every k-set of L
    with no member below the join of the others."""
    J, leq = L._join, L._leq
    rows = []
    for ys in combinations(range(L.n), k):
        loo = []
        for j in range(k):
            o = L._bot
            for i in range(k):
                if i != j:
                    o = J[o, ys[i]]
            loo.append(o)
        if not any(leq[y, o] for y, o in zip(ys, loo)):
            total = J[loo[0], ys[0]]
            rows.append((total, *sorted(loo)))
    return sorted(rows)


@pytest.mark.parametrize("name", ["fano", "m3xm3", "grid4x4",
                                  "glued_projective_example"])
def test_irredundant_sets_match_brute_force(name):
    L = NAMED[name]
    for k in range(1, 6 if L.n <= 25 else 5):
        got = _irredundant_sets(L, k)
        rows = [] if got is None else sorted(
            (int(t), *map(int, sorted(o))) for t, o in zip(*got))
        assert rows == brute_irredundant(L, k), k


def test_false_verdicts():
    proj = NAMED["glued_projective_example"]
    fresh = FiniteLattice(proj.elements, proj.covers)
    for n in (1, 2):
        assert not is_n_distributive(proj, n)
        assert not oracle_n_distributive(fresh, n)
    assert is_n_distributive(proj, 3)
    fano = fano_lattice()
    assert not is_n_distributive(fano, 2)
    assert not oracle_n_distributive(fano, 2)
    assert is_n_distributive(fano, 3)


def test_errors_keep_their_order():
    with pytest.raises(ValueError):
        is_n_distributive(n5(), 0)  # before the modularity check
    with pytest.raises(ValueError):
        is_n_distributive(m3(), -1)
    with pytest.raises(NotModular):
        is_n_distributive(n5(), 2)
    for name in ("glued_unbounded_2", "glued_unbounded_3"):
        assert not is_modular(NAMED[name])
        with pytest.raises(NotModular):
            is_n_distributive(NAMED[name], 1)


def test_trivial_sizes():
    for L in (chain(0), chain(1)):
        assert_same_verdicts(L)
    assert not is_simple(chain(0)) and is_simple(chain(1))
    assert is_n_distributive(chain(0), 3)
