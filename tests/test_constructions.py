"""Fixture manifests: every property each fixture claims is machine-checked,
plus the enumerator's counts and canonicalization."""

import pytest

from latglue.constructions import FANO_LINES, LimitExceeded, boolean, \
    canonical_key, chain, copies_local_system, distributive_with_skeleton, \
    enumerate_lattices, fano_lattice, fig_3by3_system, grid, hd_two_chains, \
    m3, m_k, n5, naive_lattice_count, note2_overlap_system, \
    section4_example, square_sublattice, translator_fixtures, \
    unbounded_family
from latglue.core import FiniteLattice, find_isomorphism
from latglue.glue import glued_sum, validate
from latglue.predicates import breadth, generated_sublattice, is_atomistic, \
    is_distributive, is_modular, is_simple
from latglue.skeleton import skeleton_lattice

from oracles import oracle_distributive_with_skeleton, \
    oracle_naive_lattice_count, oracle_square_sublattice

SMALL = list(enumerate_lattices(5))
MODULAR7 = [L for L in enumerate_lattices(7) if is_modular(L)]


def same_blocks(sys, want):
    """The two systems' blocks list the same elements and the same covers,
    in the same order."""
    assert list(sys.blocks) == list(want.blocks)
    for x, B in sys.blocks.items():
        assert B.elements == want.blocks[x].elements
        assert B.covers == want.blocks[x].covers


def test_named_lattice_shapes():
    assert chain(4).n == 5 and chain(4).length() == 4
    assert boolean(4).n == 16 and boolean(4).length() == 4
    assert m_k(5).n == 7 and len(m_k(5).atoms()) == 5
    assert m3().n == 5 and n5().n == 5
    assert grid(2, 3).n == 12
    assert find_isomorphism(m_k(3), m3()) is not None
    assert is_modular(m3()) and not is_modular(n5())


@pytest.mark.parametrize("n", [-1, 9])
def test_boolean_rejects_sizes_its_letters_cannot_name(n):
    with pytest.raises(ValueError):
        boolean(n)
    assert boolean(8).n == 256


def test_fano_lines_form_a_projective_plane():
    # 7 points, 7 lines, 3 points per line, 3 lines per point, any two
    # lines meet in exactly one point, any two points lie on one line
    assert len(FANO_LINES) == 7
    assert all(len(l) == 3 for l in FANO_LINES)
    for p in range(1, 8):
        assert sum(p in l for l in FANO_LINES) == 3
    for i, l1 in enumerate(FANO_LINES):
        for l2 in FANO_LINES[i + 1:]:
            assert len(set(l1) & set(l2)) == 1
    for p in range(1, 8):
        for q in range(p + 1, 8):
            assert sum(p in l and q in l for l in FANO_LINES) == 1


def test_fano_lattice_properties():
    F = fano_lattice()
    assert F.n == 16 and F.length() == 3
    assert is_modular(F) and is_atomistic(F) and is_simple(F)
    assert not is_distributive(F)
    assert breadth(F) == 3
    assert fano_lattice("x:").elements[0] == "x:0"


def test_fig_3by3_manifest():
    sys = fig_3by3_system()
    assert validate(sys) == []
    assert find_isomorphism(sys.skeleton, boolean(2)) is not None
    assert find_isomorphism(glued_sum(sys), grid(2, 2)) is not None


def test_translator_fixture_catalog():
    cat = translator_fixtures()
    assert set(cat) == {"fig_3by3", "overlap", "note3", "unbounded_family"}
    assert validate(cat["overlap"]) == []
    assert validate(cat["note3"]) == []
    assert validate(cat["unbounded_family"](2)) == []


def test_overlap_fixture_blocks_nest():
    sys = note2_overlap_system()
    assert sys.block_set("1") < sys.block_set("2")
    assert sys.block_set("3") == sys.block_set("4")


def test_unbounded_family_shapes():
    for n in (1, 4):
        sys = unbounded_family(n)
        assert len(sys.skeleton.atoms()) == n
        assert sys.skeleton.length() == 2
        # the k-th rung has length k+1 through the staircase side
        assert sys.blocks[str(n)].length() == n + 1


def test_hall_dilworth_two_chains():
    sys = hd_two_chains()
    assert validate(sys) == []
    assert find_isomorphism(glued_sum(sys), chain(2)) is not None


def test_distributive_with_skeleton_manifest():
    for S in [chain(2), boolean(2), n5()]:
        sys = distributive_with_skeleton(S)
        assert validate(sys) == []
        M = glued_sum(sys)
        assert is_distributive(M)
        assert find_isomorphism(skeleton_lattice(M), S) is not None


def test_distributive_with_skeleton_escapes_separators_in_ids():
    # unescaped, (∅, {'a,b'}) and (∅, {'a', 'b'}) were both '{|a,b}'
    S = FiniteLattice(["a", "b", "a,b"], [("a", "b"), ("b", "a,b")])
    sys = distributive_with_skeleton(S)
    assert validate(sys) == []
    M = glued_sum(sys)
    assert is_distributive(M)
    assert find_isomorphism(skeleton_lattice(M), S) is not None
    assert "{a,a\\,b|a\\,b}" in sys.blocks["a,b"].elements
    assert "{a,b|a\\,b}" in sys.blocks["a,b"].elements
    S = FiniteLattice(["|", "\\"], [("|", "\\")])
    assert "{\\||\\\\}" in distributive_with_skeleton(S).blocks["|"].elements


def test_square_sublattice_manifest():
    for S in [m3(), boolean(2), chain(2)]:
        sys = square_sublattice(S)
        assert validate(sys) == []
        M = glued_sum(sys)
        assert find_isomorphism(skeleton_lattice(M), S) is not None
        for x in S.elements:
            assert is_atomistic(sys.blocks[x])
    # the two-element skeleton gives the length-2 chain
    sys = square_sublattice(chain(1))
    assert find_isomorphism(glued_sum(sys), chain(2)) is not None


@pytest.mark.parametrize("corpus", ["small", "modular7"])
def test_constructions_name_their_blocks_as_the_oracle_does(corpus):
    for S in SMALL if corpus == "small" else MODULAR7:
        same_blocks(distributive_with_skeleton(S),
                    oracle_distributive_with_skeleton(S))
        if is_modular(S):
            same_blocks(square_sublattice(S), oracle_square_sublattice(S))


def test_projective_example_manifest():
    ex = section4_example()
    assert set(ex) == {"local_system", "connected_system", "glued_system",
                       "projections", "sum", "generators"}
    sys = ex["glued_system"]
    assert validate(sys) == []
    assert find_isomorphism(sys.skeleton, m_k(4)) is not None
    # two plane blocks of 16 elements, four connectors of length 2
    sizes = sorted(sys.blocks[x].n for x in sys.skeleton.elements)
    assert sizes == [4, 4, 4, 5, 16, 16]
    M = ex["sum"]
    assert M.n == 36
    assert len(ex["generators"]) == 5
    assert generated_sublattice(M, ex["generators"]) == set(M.elements)
    # dropping any one generator no longer generates everything
    for g in ex["generators"]:
        rest = [h for h in ex["generators"] if h != g]
        assert generated_sublattice(M, rest) != set(M.elements)


def test_projective_example_all_m3_variant():
    sys = section4_example(all_m3=True)["glued_system"]
    sizes = sorted(sys.blocks[x].n for x in sys.skeleton.elements)
    assert sizes == [5, 5, 5, 5, 16, 16]


def test_copies_local_system_shape():
    lcs = copies_local_system(boolean(2), m3())
    assert set(lcs.maps) == set(boolean(2).covers)
    assert all(B.n == 5 for B in lcs.blocks.values())


def test_canonical_key():
    relabeled = FiniteLattice(["z", "q", "p", "r", "t"],
                              [("z", "p"), ("z", "q"), ("z", "r"),
                               ("p", "t"), ("q", "t"), ("r", "t")])
    assert canonical_key(m3()) == canonical_key(relabeled)
    assert canonical_key(m3()) != canonical_key(n5())
    assert canonical_key(chain(2)) != canonical_key(chain(3))


def test_enumeration_counts():
    counts = {}
    for L in enumerate_lattices(6):
        counts[L.n] = counts.get(L.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
    with pytest.raises(LimitExceeded):
        list(enumerate_lattices(9))


def test_enumeration_yields_distinct_classes():
    keys = [canonical_key(L) for L in enumerate_lattices(5)]
    assert len(keys) == len(set(keys)) == 10


def test_naive_count_cross_check():
    # the batched count against the one that builds a lattice per
    # relation; no lattice has 0 elements (from_leq refuses the empty set)
    assert [naive_lattice_count(n) for n in range(6)] == \
        [oracle_naive_lattice_count(n) for n in range(6)] == [0, 1, 1, 1, 2, 5]
    for count in (naive_lattice_count, oracle_naive_lattice_count):
        with pytest.raises(LimitExceeded):
            count(6)


def test_five_element_lattices_are_the_known_ones():
    # C4, M3, N5 and the two "square plus pendant" shapes
    five = [L for L in enumerate_lattices(5) if L.n == 5]
    assert len(five) == 5
    for ref in [chain(4), m3(), n5()]:
        assert sum(find_isomorphism(L, ref) is not None for L in five) == 1
