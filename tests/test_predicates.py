"""Law checkers against brute-force oracles, breadth, n-distributivity,
and the congruence and sublattice oracles that `is_simple` and
`generated_sublattice` are checked against."""

import random
from itertools import combinations

import pytest

from latglue.constructions import boolean, chain, enumerate_lattices, \
    fano_lattice, grid, m3, m_k, n5, section4_example
from latglue.core import FiniteLattice, UnknownElement, product
from latglue.predicates import NotModular, breadth, generated_sublattice, \
    is_atomistic, is_coatomistic, is_distributive, is_dual_semimodular, \
    is_modular, is_n_distributive, is_semimodular, is_simple
from oracles import CongruencePartition, has_forbidden_n_config, \
    is_sublattice, oracle_atomistic, oracle_generated_sublattice, \
    order_embeds_boolean, principal_congruence

CORPUS6 = list(enumerate_lattices(6))
CORPUS8 = list(enumerate_lattices(8))
# 0 < 1, b < 2: an element with an int and a str upper cover
MIXED = FiniteLattice([0, 1, "b", 2], [(0, 1), (0, "b"), (1, 2), ("b", 2)])


def oracle_modular(L):
    return all(L.join(a, L.meet(b, c)) == L.meet(L.join(a, b), c)
               for a in L.elements for c in L.elements if L.leq(a, c)
               for b in L.elements)


def oracle_distributive(L):
    return all(L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
               for a in L.elements for b in L.elements for c in L.elements)


def oracle_semimodular(L):
    for a in L.elements:
        for b in L.upper_covers(a):
            for c in L.upper_covers(a):
                if b != c:
                    s = L.join(b, c)
                    if s not in L.upper_covers(b) or s not in L.upper_covers(c):
                        return False
    return True


def test_modular_examples():
    assert is_modular(m3())
    assert not is_modular(n5())
    assert is_modular(boolean(4))
    assert is_modular(grid(3, 3))
    assert is_modular(fano_lattice())


def test_modular_matches_oracle_on_corpus():
    for L in CORPUS6:
        assert is_modular(L) == oracle_modular(L)


def test_semimodular_matches_oracle_on_corpus():
    for L in CORPUS6:
        assert is_semimodular(L) == oracle_semimodular(L)
        assert is_dual_semimodular(L) == oracle_semimodular(L.dual())


def test_semimodular_but_not_modular():
    # every semimodular lattice with at most 6 elements is modular; the
    # smallest separating examples have 7 elements
    assert all(is_modular(L) for L in CORPUS6 if is_semimodular(L))
    separating = [L for L in enumerate_lattices(7)
                  if is_semimodular(L) and not is_modular(L)]
    assert separating
    for L in separating:
        assert is_modular(L) == (is_semimodular(L) and is_dual_semimodular(L))


def test_distributive_examples_and_oracle():
    assert is_distributive(boolean(3))
    assert is_distributive(chain(4))
    assert not is_distributive(m3())
    assert not is_distributive(n5())
    for L in CORPUS6:
        assert is_distributive(L) == oracle_distributive(L)


def test_atomistic():
    assert is_atomistic(boolean(3))
    assert is_atomistic(m3())
    assert is_atomistic(fano_lattice())
    assert not is_atomistic(chain(2))
    assert not is_atomistic(n5())
    assert is_coatomistic(m3())
    assert not is_coatomistic(chain(2))


def test_breadth_examples():
    assert breadth(chain(0)) == 0
    assert breadth(chain(5)) == 1
    assert breadth(m3()) == 2
    assert breadth(m_k(7)) == 2
    for n in range(1, 5):
        assert breadth(boolean(n)) == n
    assert breadth(grid(3, 4)) == 2
    assert breadth(fano_lattice()) == 3


def test_breadth_is_self_dual_and_monotone():
    for L in [m3(), n5(), grid(2, 3), boolean(3)]:
        assert breadth(L.dual()) == breadth(L)
    assert order_embeds_boolean(boolean(3), 2)
    assert not order_embeds_boolean(chain(9), 2)


def test_n_distributive_basics():
    assert is_n_distributive(boolean(4), 1)  # distributive = 1-distributive
    assert not is_n_distributive(m3(), 1)
    assert is_n_distributive(m3(), 2)
    assert not is_n_distributive(fano_lattice(), 2)
    assert is_n_distributive(fano_lattice(), 3)
    with pytest.raises(NotModular):
        is_n_distributive(n5(), 1)
    with pytest.raises(ValueError):
        is_n_distributive(m3(), 0)


def test_n_distributive_equals_distributive_at_1():
    for L in CORPUS6:
        if is_modular(L):
            assert is_n_distributive(L, 1) == is_distributive(L)


def test_n_distributive_matches_forbidden_configuration():
    for L in CORPUS6:
        if is_modular(L):
            for n in (1, 2):
                assert is_n_distributive(L, n) == \
                    (not has_forbidden_n_config(L, n))
    assert has_forbidden_n_config(fano_lattice(), 2)
    assert not has_forbidden_n_config(fano_lattice(), 3)


def oracle_congruences(L):
    """All congruence partitions, by filtering every partition of the
    carrier for join/meet compatibility."""
    elems = list(L.elements)

    def parts(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for p in parts(rest):
            for i in range(len(p)):
                yield p[:i] + [[first] + p[i]] + p[i + 1:]
            yield [[first]] + p

    out = []
    for p in parts(elems):
        blk = {a: i for i, b in enumerate(p) for a in b}
        if all(blk[L.join(a, b)] == blk[L.join(c, d)]
               and blk[L.meet(a, b)] == blk[L.meet(c, d)]
               for a in elems for b in elems for c in elems for d in elems
               if blk[a] == blk[c] and blk[b] == blk[d]):
            out.append(frozenset(frozenset(b) for b in p))
    return out


def test_principal_congruence_is_smallest_compatible():
    for L in [n5(), m3(), chain(3), boolean(2)]:
        cons = oracle_congruences(L)
        for a in L.elements:
            for b in L.elements:
                theta = frozenset(principal_congruence(L, a, b).blocks)
                assert theta in cons
                # smallest: contained in every congruence collapsing a, b
                for c in cons:
                    if any(a in blk and b in blk for blk in c):
                        assert all(any(t <= blk for blk in c) for t in theta)


def test_is_simple_matches_congruence_oracle():
    for L in enumerate_lattices(5):
        cons = oracle_congruences(L)
        assert is_simple(L) == (L.n >= 2 and len(cons) == 2)


def test_simple_examples():
    assert is_simple(chain(1))
    assert not is_simple(chain(2))
    assert is_simple(m3())
    assert not is_simple(boolean(2))
    assert is_simple(fano_lattice())
    assert not is_simple(chain(0))
    assert not is_simple(product(m3(), chain(1)))


def test_congruence_partition_accessors():
    theta = principal_congruence(chain(2), "0", "1")
    assert isinstance(theta, CongruencePartition)
    assert theta.collapses("0", "1")
    assert not theta.collapses("0", "2")
    assert not theta.is_full() and not theta.is_trivial()
    assert principal_congruence(m3(), "a", "b").is_full()
    assert principal_congruence(m3(), "a", "a").is_trivial()


def test_sublattice_utilities():
    L = boolean(3)
    assert is_sublattice(L, ["0", "a", "ab", "abc"])
    assert not is_sublattice(L, ["0", "a", "b", "abc"])  # missing a+b
    assert generated_sublattice(L, ["a", "b"]) == {"0", "a", "b", "ab"}
    assert generated_sublattice(L, ["a", "bc"]) == {"0", "a", "bc", "abc"}
    gens = ["a", "b", "c"]
    assert generated_sublattice(L, gens) == set(L.elements)


def test_breadth_bound_for_products_of_chains():
    # the breadth of a product is at most the number of factors
    for p, q in combinations(range(1, 4), 2):
        assert breadth(grid(p, q)) <= 2


def _index_space_inputs():
    """The ≤ 8 corpus, every interval of its modular members, grid(16,16),
    the section 4 sum and the mixed-id square."""
    out = [(f"corpus8-{k}", L) for k, L in enumerate(CORPUS8)]
    for k, L in enumerate(CORPUS8):
        if is_modular(L):
            out += [(f"corpus8-{k}[{a},{b}]", L.interval(a, b).lattice)
                    for a in L.elements for b in L.elements if L.leq(a, b)]
    return out + [("grid16x16", grid(16, 16)),
                  ("section4", section4_example()["sum"]), ("mixed", MIXED)]


INDEX_SPACE = _index_space_inputs()


def test_cover_walk_predicates_match_the_id_level_oracles():
    for name, L in INDEX_SPACE:
        D = L.dual()
        assert is_semimodular(L) == oracle_semimodular(L), name
        assert is_dual_semimodular(L) == oracle_semimodular(D), name
        assert is_atomistic(L) == oracle_atomistic(L), name
        assert is_coatomistic(L) == oracle_atomistic(D), name


def test_generated_sublattice_matches_the_id_pair_closure():
    rng = random.Random(0)
    for name, L in INDEX_SPACE:
        for _ in range(3):
            gens = rng.sample(L.elements, rng.randint(0, min(L.n, 4)))
            assert generated_sublattice(L, gens) == \
                oracle_generated_sublattice(L, gens), (name, gens)


def test_generated_sublattice_refuses_an_unknown_generator():
    with pytest.raises(UnknownElement):
        generated_sublattice(boolean(3), ["a", "zz"])
    assert generated_sublattice(boolean(3), []) == set()
