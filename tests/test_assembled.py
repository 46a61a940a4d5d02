"""Chains, products, Boolean lattices and the blocks of
`distributive_with_skeleton` are assembled from their tables
(`core._assembled`): every field equal to the cover build they replaced,
kept in `oracles.py` (a chain's is the constructor on its covers), on the
corpus, the named lattices and factors whose covers or ids are out of the
ordinary;
an id collision raises the cover build's error; and a relabelled lattice
refuses repeated ids."""

import random

import pytest

from latglue.constructions import boolean, chain, distributive_with_skeleton, \
    enumerate_lattices, fano_lattice, m3, n5
from latglue.core import FiniteLattice, LatticeError, NotBounded, product
from oracles import oracle_boolean, oracle_distributive_cover_build, \
    oracle_distributive_with_skeleton, oracle_product
from test_batch_build import assert_same_fields, shuffled

SMALL = list(enumerate_lattices(5))
NAMED = {"m3": m3(), "n5": n5(), "fano": fano_lattice(), "chain0": chain(0),
         "chain40": chain(40)}


def test_chains_match_the_cover_build():
    for n in range(41):
        ids = [str(i) for i in range(n + 1)]
        assert_same_fields(chain(n), FiniteLattice(ids, zip(ids, ids[1:])))
    with pytest.raises(NotBounded, match="^empty element list$"):
        chain(-1)


def test_products_of_the_corpus_match_the_cover_build():
    for L1 in SMALL:
        for L2 in SMALL:
            assert_same_fields(product(L1, L2), oracle_product(L1, L2))


@pytest.mark.parametrize("first", sorted(NAMED))
def test_products_of_named_lattices_match_the_cover_build(first):
    L1 = NAMED[first]
    for L2 in NAMED.values():
        assert_same_fields(product(L1, L2), oracle_product(L1, L2))


def _int_ids(L):
    """L with ids 0, 1, … in its element order."""
    index = {a: i for i, a in enumerate(L.elements)}
    return FiniteLattice(range(L.n), [(index[a], index[b])
                                      for a, b in L.covers])


def test_products_of_unusual_factors_match_the_cover_build():
    # covers listed out of index order change the adjacency and the cover
    # listing; int ids name the pairs by their str
    rng = random.Random(33)
    factors = [FiniteLattice(*shuffled(L, rng))
               for L in (m3(), n5(), fano_lattice(), chain(3), boolean(3))]
    factors += [_int_ids(L) for L in (n5(), chain(2), boolean(2))]
    for L1 in factors:
        for L2 in factors:
            assert_same_fields(product(L1, L2), oracle_product(L1, L2))


@pytest.mark.parametrize("n", range(9))
def test_boolean_matches_the_cover_build(n):
    assert_same_fields(boolean(n), oracle_boolean(n))


def _same_blocks(got, want):
    assert list(got.blocks) == list(want.blocks)
    for x, B in got.blocks.items():
        assert_same_fields(B, want.blocks[x])


def test_distributive_blocks_match_the_cover_build():
    corpus = list(enumerate_lattices(6))
    for S in corpus:
        _same_blocks(distributive_with_skeleton(S),
                     oracle_distributive_with_skeleton(S))
    # ids with separators, escaped, and int ids
    corpus += [FiniteLattice(["a", "b", "a,b"], [("a", "b"), ("b", "a,b")]),
               FiniteLattice(["|", "\\"], [("|", "\\")]), _int_ids(n5())]
    for S in corpus:
        _same_blocks(distributive_with_skeleton(S),
                     oracle_distributive_cover_build(S))


def _error(build, *args):
    with pytest.raises(LatticeError) as info:
        build(*args)
    return type(info.value), str(info.value)


def test_an_id_collision_raises_the_cover_builds_error():
    # "x" with "y,z" and "x,y" with "z" are both "x,y,z"
    L1 = FiniteLattice(["x", "x,y"], [("x", "x,y")])
    L2 = FiniteLattice(["y,z", "z"], [("y,z", "z")])
    got = _error(product, L1, L2)
    assert got == _error(oracle_product, L1, L2) == (
        LatticeError, "duplicate element ids: 'x,y,z' is repeated")
    # 1 and "1" have one str, so their subsets share names
    S = FiniteLattice([1, "1", 2], [(1, "1"), ("1", 2)])
    got = _error(distributive_with_skeleton, S)
    assert got == _error(oracle_distributive_cover_build, S) \
        == _error(oracle_distributive_with_skeleton, S)
    assert got[0] is LatticeError and "duplicate element ids" in got[1]


def test_relabelled_refuses_repeated_ids():
    L = chain(2)
    with pytest.raises(LatticeError,
                       match="duplicate element ids: 'a' is repeated"):
        L._relabelled(["a", "a", "b"])
    R = L._relabelled(["a", "b", "c"])
    assert R._idx == {"a": 0, "b": 1, "c": 2} and R.covers == (("a", "b"),
                                                             ("b", "c"))
