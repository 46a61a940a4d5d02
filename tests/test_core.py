"""Construction validation, order/join/meet behavior, derived lattices,
isomorphism search, and the JSON/DOT round trips."""

import json

import numpy as np
import pytest

from latglue import io as lio
from latglue.constructions import boolean, chain, fano_lattice, fig_3by3_system, \
    grid, m3, n5, section4_example
from latglue.core import CycleDetected, FiniteLattice, LatticeError, \
    NoUniqueJoin, NoUniqueMeet, NotBounded, NotComparable, \
    NotTransitiveReduction, UnknownElement, find_isomorphism, product
from oracles import maximal_chains
from test_pruned_predicates import CORPUS8


def test_construction_rejects_empty():
    with pytest.raises(NotBounded):
        FiniteLattice([], [])


def test_construction_rejects_duplicates_and_unknowns():
    with pytest.raises(LatticeError):
        FiniteLattice(["a", "a"], [])
    with pytest.raises(UnknownElement):
        FiniteLattice(["a", "b"], [("a", "z")])
    with pytest.raises(LatticeError):
        FiniteLattice(["a", "b"], [("a", "b"), ("a", "b")])


def test_construction_rejects_cycles():
    with pytest.raises(CycleDetected):
        FiniteLattice(["a"], [("a", "a")])
    with pytest.raises(CycleDetected):
        FiniteLattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_construction_rejects_transitive_edges():
    with pytest.raises(NotTransitiveReduction):
        FiniteLattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_construction_rejects_unbounded():
    # two maximal elements
    with pytest.raises(NotBounded):
        FiniteLattice(["a", "b", "c"], [("a", "b"), ("a", "c")])


def test_construction_rejects_missing_joins_meets():
    # "bowtie": two minimal elements below two maximal ones has neither
    # unique bounds nor a bottom; with bounds added, the middle antichain
    # of an hexagon still lacks a unique join
    with pytest.raises(NotBounded):
        FiniteLattice(["a", "b", "c", "d"],
                      [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    with pytest.raises((NoUniqueJoin, NoUniqueMeet)):
        FiniteLattice(["0", "a", "b", "c", "d", "1"],
                      [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                       ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")])


@pytest.mark.parametrize("L", [boolean(3), n5(), m3(), grid(2, 3)],
                         ids=["b3", "n5", "m3", "grid"])
def test_lattice_laws(L):
    for a in L.elements:
        assert L.join(a, a) == a and L.meet(a, a) == a
        for b in L.elements:
            assert L.join(a, b) == L.join(b, a)
            assert L.meet(a, b) == L.meet(b, a)
            assert L.join(a, L.meet(a, b)) == a
            assert L.meet(a, L.join(a, b)) == a
            assert L.leq(a, b) == (L.join(a, b) == b) == (L.meet(a, b) == a)
            for c in L.elements:
                assert L.join(L.join(a, b), c) == L.join(a, L.join(b, c))
                assert L.meet(L.meet(a, b), c) == L.meet(a, L.meet(b, c))


def test_join_is_least_upper_bound():
    L = boolean(3)
    for a in L.elements:
        for b in L.elements:
            uppers = {c for c in L.elements if L.leq(a, c) and L.leq(b, c)}
            assert L.join(a, b) in uppers
            assert all(L.leq(L.join(a, b), c) for c in uppers)


def test_covers_are_a_transitive_reduction():
    # dropping any single cover changes the closure order
    L = boolean(3)
    for k in range(len(L.covers)):
        trimmed = [c for i, c in enumerate(L.covers) if i != k]
        try:
            L2 = FiniteLattice(L.elements, trimmed)
        except LatticeError:
            continue
        assert L2.order_pairs() != L.order_pairs()


def test_maximal_chains():
    L = boolean(3)
    chains = list(maximal_chains(L, "0", "abc"))
    assert len(chains) == 6 and len({tuple(c) for c in chains}) == 6
    assert all(c[0] == "0" and c[-1] == "abc" and len(c) == 4 for c in chains)
    assert all(b in L.upper_covers(a) for c in chains for a, b in zip(c, c[1:]))
    assert list(maximal_chains(L, "a", "ab")) == [["a", "ab"]]
    assert list(maximal_chains(L, "b", "b")) == [["b"]]
    assert list(maximal_chains(L, "a", "bc")) == []
    assert len(list(maximal_chains(grid(2, 2), "0,0", "2,2"))) == 6


def test_basic_accessors():
    L = boolean(3)
    assert L.bottom == "0" and L.top == "abc"
    assert L.length() == 3
    assert L.atoms() == {"a", "b", "c"}
    assert L.coatoms() == {"ab", "ac", "bc"}
    assert L.upper_covers("a") == {"ab", "ac"}
    assert L.lower_covers("ab") == {"a", "b"}
    assert L.up_set("bc") == {"bc", "abc"}
    assert L.down_set("ab") == {"0", "a", "b", "ab"}
    assert L.height("ab") == 2 and L.depth("ab") == 1
    assert len(L) == 8 and "ab" in L and "zz" not in L


def test_join_all_meet_all():
    L = boolean(3)
    assert L.join_all(["a", "b"]) == "ab"
    assert L.join_all([]) == "0"
    assert L.meet_all(["ab", "ac"]) == "a"
    assert L.meet_all([]) == "abc"


def test_dual():
    L = n5()
    D = L.dual()
    assert D.bottom == L.top and D.top == L.bottom
    assert D.dual().order_pairs() == L.order_pairs()
    for a in L.elements:
        for b in L.elements:
            assert L.leq(a, b) == D.leq(b, a)
            assert D.join(a, b) == L.meet(a, b)


def test_product():
    P = product(chain(2), chain(3))
    assert P.n == 12
    assert P.length() == 5
    assert P.join("1,0", "0,2") == "1,2"
    assert find_isomorphism(P, grid(2, 3)) is not None


def test_restrict_and_interval():
    L = boolean(3)
    I = L.interval("a", "abc")
    assert set(I.carrier) == {"a", "ab", "ac", "abc"}
    assert find_isomorphism(I.lattice, boolean(2)) is not None
    with pytest.raises(NotComparable):
        L.interval("a", "bc")
    # a restriction that is not a lattice is rejected
    with pytest.raises(LatticeError):
        L.restrict(["a", "b"])


def test_find_isomorphism():
    relabeled = FiniteLattice(["z", "p", "q", "r", "t"],
                              [("z", "p"), ("z", "q"), ("z", "r"),
                               ("p", "t"), ("q", "t"), ("r", "t")])
    iso = find_isomorphism(m3(), relabeled)
    assert iso is not None and iso["0"] == "z" and iso["1"] == "t"
    assert find_isomorphism(m3(), n5()) is None
    assert find_isomorphism(n5(), n5(), anti=True) is not None
    assert find_isomorphism(chain(2), chain(2), anti=True) is not None


@pytest.mark.parametrize("L", [m3(), boolean(2), grid(2, 2), fano_lattice()],
                         ids=["m3", "b2", "grid", "fano"])
def test_lattice_json_roundtrip(L, tmp_path):
    path = tmp_path / "lat.json"
    lio.save(L, path)
    L2 = lio.load(path)
    assert L2.elements == L.elements and L2.covers == L.covers


def test_glued_json_roundtrip(tmp_path):
    sys = fig_3by3_system()
    path = tmp_path / "sys.json"
    lio.save(sys, path)
    sys2 = lio.load(path)
    assert sys2.skeleton.covers == sys.skeleton.covers
    for x in sys.skeleton.elements:
        assert sys2.blocks[x].covers == sys.blocks[x].covers


def test_connected_json_roundtrip(tmp_path):
    lcs = section4_example()["local_system"]
    path = tmp_path / "local.json"
    lio.save(lcs, path)
    lcs2 = lio.load(path)
    assert type(lcs2) is type(lcs)
    assert set(lcs2.maps) == set(lcs.maps)
    # the loader namespaces block elements by their skeleton index to
    # guarantee disjointness, so compare maps modulo that prefix
    for (x, y), m in lcs.maps.items():
        assert lcs2.maps[(x, y)] == {f"{x}:{a}": f"{y}:{b}"
                                     for a, b in m.items()}


def test_json_is_valid_and_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    lio.save(boolean(2), p1)
    lio.save(boolean(2), p2)
    assert p1.read_text() == p2.read_text()
    json.loads(p1.read_text())


def test_to_dot():
    text = lio.to_dot(m3(), highlight=["0"])
    assert text.startswith("graph lattice {")
    assert '"0" -- "a";' in text
    assert "lightblue" in text
    assert text.count("--") == len(m3().covers)


def test_cov_array_is_the_covers_as_a_read_only_index_array():
    for L in [*CORPUS8, *(L.dual() for L in CORPUS8), chain(0), grid(3, 4)]:
        cov = L._cov_array
        want = np.array(L._cov, dtype=np.intp).reshape(-1, 2)
        assert cov.dtype == want.dtype and cov.shape == want.shape
        np.testing.assert_array_equal(cov, want)
        assert not cov.flags.writeable and L._cov_array is cov
    assert chain(0)._cov_array.shape == (0, 2)
    L = grid(1, 1)
    cov = L._cov_array
    assert L._relabelled(list("abcd"))._cov_array is cov
