"""The corpus criteria in index space: `maximal_atomistic_intervals`,
`lemma61_suite` and `skeleton_duality_suite` against the id-level
versions they replaced (kept in `oracles`), list for list and dict for
dict, on the modular lattices of at most 8 elements and five named ones.
A corrupted a* entry is caught and named by both suites.  `star` and
`plus`, lookups in `_star_plus`'s arrays, against the join and meet of the
covers.  Also the work the suite saves: one decomposition per lattice and
one a*/a⁺ computation per lattice object in a `run_suite` call, and
criterion 5 with no interval built."""

import numpy as np
import pytest

from latglue import skeleton, suite
from latglue.constructions import boolean, chain, fano_lattice, grid, m3, \
    n5, section4_example
from latglue.core import FiniteLattice, UnknownElement, product
from latglue.predicates import NotModular, is_modular
from latglue.skeleton import lemma61_suite, maximal_atomistic_intervals, \
    plus, skeleton_duality_suite, star
from oracles import oracle_lemma61_suite, \
    oracle_maximal_atomistic_intervals, oracle_plus, \
    oracle_skeleton_duality_suite, oracle_star
from test_pruned_predicates import CORPUS8

MODULAR8 = [L for L in CORPUS8 if is_modular(L)]
LATTICES = {**{f"modular8-{i}": L for i, L in enumerate(MODULAR8)},
            "grid3x4": grid(3, 4), "boolean4": boolean(4),
            "m3xc2": product(m3(), chain(2)), "fano": fano_lattice(),
            "section4-sum": section4_example()["sum"]}


def test_the_corpus_is_complete():
    assert len(MODULAR8) == 67 and len(LATTICES) == 72


@pytest.mark.parametrize("name", LATTICES)
def test_intervals_match_the_slicing_oracle(name):
    M = LATTICES[name]
    assert maximal_atomistic_intervals(M) \
        == oracle_maximal_atomistic_intervals(M)


@pytest.mark.parametrize("name", LATTICES)
def test_suites_match_their_loop_oracles(name):
    M = LATTICES[name]
    assert lemma61_suite(M) == oracle_lemma61_suite(M)
    got, want = skeleton_duality_suite(M), oracle_skeleton_duality_suite(M)
    assert got == want and list(got) == list(want)


def test_intervals_require_modularity():
    with pytest.raises(NotModular):
        maximal_atomistic_intervals(n5())


def _names(witness, a):
    return witness == a or isinstance(witness, tuple) and a in witness


@pytest.mark.parametrize("wrong, check", [
    ("0,1", "dual_of_dual_skeleton"),  # a* = a
    ("0,2", "order_iso"),  # a* below the true one
])
def test_a_corrupted_star_is_named_by_both_suites(wrong, check, monkeypatch):
    M = grid(2, 3)
    i, j = M.index("0,1"), M.index(wrong)
    real = skeleton._star_plus

    def corrupted(L):
        st, pl = real(L)
        if L is M:
            st = st.copy()
            st[i] = j
        return st, pl
    monkeypatch.setattr(skeleton, "_star_plus", corrupted)
    calculus = lemma61_suite(M)
    assert not calculus["ok"] and _names(calculus["violations"][0][1], "0,1")
    duality = skeleton_duality_suite(M)
    assert not duality["ok"] and not duality[check]
    assert _names(duality["witness"], "0,1")


def test_run_suite_decomposes_each_lattice_once(monkeypatch):
    seen, calls = [], []

    def counted(Ms, real=skeleton.decompositions):
        Ms = list(Ms)
        seen.extend(Ms)  # held, so that no two lattices seen share an id
        calls.append(len(Ms))
        return real(Ms)
    monkeypatch.setattr(skeleton, "decompositions", counted)
    monkeypatch.setattr(suite, "decompositions", counted)
    ok, results = suite.run_suite(7, emit=lambda line: None)
    assert ok
    assert len({id(M) for M in seen}) == len(seen)
    # criterion 1's 82 lattices (the modular corpus and the square sums
    # among them, which criteria 2, 5 and 7 reuse) and criterion 10's 3
    assert results[0][2].startswith("82 modular lattices")
    assert len(seen) == 82 + 3
    # criterion 1's in one call, criterion 10's one at a time
    assert calls == [82, 1, 1, 1]


def test_criterion_5_builds_no_interval(monkeypatch):
    def refused(self, lo, hi):
        raise AssertionError(f"interval [{lo}, {hi}] built")
    monkeypatch.setattr(FiniteLattice, "interval", refused)
    monkeypatch.setattr(suite, "_corpus",
                        lambda m: [L for L in CORPUS8 if L.n <= m])
    ok, detail = suite.criterion_05_skeleton(8)
    assert ok, detail


@pytest.mark.parametrize("name", LATTICES)
def test_star_and_plus_are_the_join_and_meet_of_the_covers(name):
    M = LATTICES[name]
    for a in M.elements:
        assert star(M, a) == oracle_star(M, a)
        assert plus(M, a) == oracle_plus(M, a)


def test_star_and_plus_refuse_as_before():
    # modularity is checked before the element is looked up
    for f, oracle in ((star, oracle_star), (plus, oracle_plus)):
        for M, a, err in ((n5(), "0", NotModular), (n5(), "zz", NotModular),
                          (grid(2, 2), "zz", UnknownElement)):
            with pytest.raises(err) as got:
                f(M, a)
            with pytest.raises(err) as want:
                oracle(M, a)
            assert str(got.value) == str(want.value)


def test_star_plus_arrays_are_kept_read_only_and_shared_by_relabelling():
    M = grid(3, 4)
    st, pl = skeleton._star_plus(M)
    assert skeleton._star_plus(M)[0] is st
    for op in (st, pl):
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0] = 0
    renamed = M._relabelled([f"r{a}" for a in M.elements])
    assert skeleton._star_plus(renamed)[1] is pl
    # a dual computes its own: its a* is M's a⁺ and its a⁺ M's a*
    dst, dpl = skeleton._star_plus(M.dual())
    assert dst is not pl
    np.testing.assert_array_equal(dst, pl)
    np.testing.assert_array_equal(dpl, st)


def test_run_suite_computes_star_and_plus_once_per_lattice(monkeypatch):
    # a family fold checks each lattice it folds for modularity first, so
    # a lattice folded twice is listed twice; a lattice that keeps its
    # arrays is not folded, nor checked, again
    folded, depth = [], []
    fold, check = skeleton._star_pluses, skeleton._require_modular

    def counted_fold(fam):
        depth.append(fam)
        try:
            return fold(fam)
        finally:
            depth.pop()

    def counted_check(M):
        if depth:
            folded.append(M)  # held, so that no two listed share an id
        return check(M)
    monkeypatch.setattr(skeleton, "_star_pluses", counted_fold)
    monkeypatch.setattr(skeleton, "_require_modular", counted_check)
    ok, _ = suite.run_suite(7, emit=lambda line: None)
    assert ok
    assert len(folded) > 100
    assert len({id(M) for M in folded}) == len(folded)
