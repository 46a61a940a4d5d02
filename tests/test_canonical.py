"""One canonical form: the individualisation–refinement search behind
`canonical_key` and `find_isomorphism`, and the bitset enumerator, checked
against the routines they replaced (kept in `oracles.py`)."""

import gc
import random

import numpy as np
import pytest

from latglue import constructions, core
from latglue.constructions import LimitExceeded, boolean, canonical_key, \
    chain, enumerate_lattices, fano_lattice, grid, m3, m_k, n5
from latglue.core import FiniteLattice, find_isomorphism

from oracles import oracle_canonical_key, oracle_enumerate_lattices, \
    oracle_find_isomorphism, oracle_keyed_enumerate_lattices, \
    oracle_lattice_states

CORPUS7 = list(enumerate_lattices(7))
CORPUS8 = list(enumerate_lattices(8))


def relabel(L, rng):
    """L with its elements listed, and its covers given, in a random order,
    so that its order matrix is permuted, not only renamed."""
    ids = [f"x{a}" for a in L.elements]
    rng.shuffle(ids)
    name = dict(zip(L.elements, ids))
    covers = [(name[a], name[b]) for a, b in L.covers]
    rng.shuffle(covers)
    rng.shuffle(ids)
    return FiniteLattice(ids, covers)


def same_lattices(got, want):
    assert len(got) == len(want)
    for L, M in zip(got, want):
        assert L.elements == M.elements
        assert L.covers == M.covers
        assert np.array_equal(L._leq, M._leq)


def assert_checked(L1, L2, iso, anti=False):
    """iso is a bijection L1 → L2 that preserves (anti: reverses) the
    order both ways."""
    assert sorted(iso) == sorted(L1.elements)
    assert sorted(iso.values()) == sorted(L2.elements)
    for a in L1.elements:
        for b in L1.elements:
            want = L2.leq(iso[b], iso[a]) if anti else L2.leq(iso[a], iso[b])
            assert L1.leq(a, b) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_matches_frozenset_oracle(n):
    got = CORPUS8 if n == 8 else list(enumerate_lattices(n))
    same_lattices(got, list(oracle_enumerate_lattices(n)))


@pytest.mark.parametrize("m", range(-1, 9))
def test_pruned_enumeration_yields_the_keyed_enumerators_sequence(m):
    # keying every state and extending one per class changes no lattice
    # yielded, nor its place
    got = CORPUS8 if m == 8 else list(enumerate_lattices(m))
    want = list(oracle_keyed_enumerate_lattices(m))
    same_lattices(got, want)
    for L, M in zip(got, want):
        assert np.array_equal(L._join, M._join)
        assert np.array_equal(L._meet, M._meet)


@pytest.mark.parametrize("m, keyed", [(7, 129), (8, 617)])
def test_enumerator_keys_each_extended_state_once(m, keyed, monkeypatch):
    # 371 (7) and 4,008 (8) lattice states keyed, when every state was
    # extended
    calls = []
    order_key = constructions._order_key

    def counted(leq):
        calls.append(len(leq))
        return order_key(leq)

    monkeypatch.setattr(constructions, "_order_key", counted)
    assert len(list(enumerate_lattices(m))) == {7: 78, 8: 300}[m]
    assert len(calls) == keyed


def test_lattice_mask_is_from_leqs_verdict_on_six_elements():
    # up to five elements every bounded order is a lattice; at six the
    # bowtie 0 < a, b < c, d < 1 is the first that is not
    above = np.triu_indices(6, 1)
    leq = np.repeat(np.eye(6, dtype=bool)[None], 1 << 15, axis=0)
    leq[:, above[0], above[1]] = \
        np.arange(1 << 15)[:, None] >> np.arange(15) & 1
    leq = leq[[np.array_equal(r, core._transitive_closure(r)) for r in leq]]
    accepted = []
    for r in leq:
        try:
            FiniteLattice.from_leq([str(i) for i in range(6)], r)
        except core.LatticeError:
            accepted.append(False)
        else:
            accepted.append(True)
    mask = constructions._lattice_mask(leq)
    assert mask.tolist() == accepted
    bounded = leq[:, 0].all(axis=1) & leq[:, :, 5].all(axis=1)
    assert (bounded & ~mask).any()


@pytest.mark.parametrize("m", range(1, 8))
def test_smaller_corpus_is_a_filter_of_the_larger(m):
    same_lattices([L for L in CORPUS7 if L.n <= m],
                  list(enumerate_lattices(m)))


def test_keys_split_every_enumerator_state_like_the_oracle():
    states = list(oracle_lattice_states(7))
    assert len(states) == 371  # duplicates included
    new = [canonical_key(L) for L in states]
    old = [oracle_canonical_key(L) for L in states]
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old))) == 78


def test_keys_split_relabelled_corpus8_like_the_oracle():
    rng = random.Random(8)
    lattices = CORPUS8 + [relabel(L, rng) for L in CORPUS8 for _ in range(2)]
    new = [canonical_key(L) for L in lattices]
    old = [oracle_canonical_key(L) for L in lattices]
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old))) == 300


def test_key_of_the_enumerator_state_is_the_key_of_its_lattice():
    for L in CORPUS8:
        assert constructions._order_key(L._leq) == canonical_key(L)


@pytest.mark.parametrize("anti", [False, True], ids=["iso", "anti"])
def test_find_isomorphism_agrees_with_oracle_on_corpus7_pairs(anti):
    rng = random.Random(7 + anti)
    second = [relabel(L, rng) for L in CORPUS7]
    found = 0
    for L1 in CORPUS7:
        for L2 in second:
            iso = find_isomorphism(L1, L2, anti=anti)
            assert (iso is None) == \
                (oracle_find_isomorphism(L1, L2, anti=anti) is None)
            if iso is not None:
                assert_checked(L1, L2, iso, anti)
                found += 1
    if not anti:
        assert found == 78


FIXTURES = {"boolean4": lambda: boolean(4), "boolean5": lambda: boolean(5),
            "boolean6": lambda: boolean(6), "grid88": lambda: grid(8, 8),
            "fano": fano_lattice, "m_k8": lambda: m_k(8)}


@pytest.mark.parametrize("name", FIXTURES)
def test_relabelled_fixtures_are_found_and_keyed_alike(name):
    L = FIXTURES[name]()
    R = relabel(L, random.Random(name))
    assert_checked(L, R, find_isomorphism(L, R))
    assert_checked(L, R, find_isomorphism(L, R, anti=True), anti=True)
    if L.n <= 32:
        assert canonical_key(L) == canonical_key(R)


def test_keys_of_large_symmetric_lattices():
    # boolean(5) has 120 automorphisms; the atoms of m_k are twins
    assert canonical_key(boolean(5)) == \
        canonical_key(relabel(boolean(5), random.Random(5)))
    keys = {canonical_key(m_k(k)) for k in range(6, 11)}
    assert len(keys) == 5
    assert canonical_key(fano_lattice()) != canonical_key(m_k(14))


def test_keys_of_different_sizes_differ():
    assert canonical_key(chain(2)) != canonical_key(chain(3))
    assert len({canonical_key(L) for L in CORPUS8}) == 300


def test_small_isomorphisms_and_anti_isomorphisms():
    assert find_isomorphism(m3(), n5()) is None
    assert_checked(n5(), n5(), find_isomorphism(n5(), n5(), anti=True),
                   anti=True)
    assert_checked(grid(2, 3), grid(2, 3),
                   find_isomorphism(grid(2, 3), grid(2, 3), anti=True),
                   anti=True)
    assert_checked(grid(1, 2), grid(2, 1),
                   find_isomorphism(grid(1, 2), grid(2, 1)))


@pytest.mark.parametrize("keep_true_leaf", [True, False])
def test_a_leaf_map_that_is_no_isomorphism_is_refused(keep_true_leaf,
                                                      monkeypatch):
    # n5 has no automorphism but the identity, so swapping two positions
    # of a leaf's colouring gives a map that is no isomorphism
    leaves = core._leaves

    def wrong_leaf_first(leq, guide=None):
        for colours, traces in leaves(leq, guide):
            if guide is not None:
                wrong = list(colours)
                wrong[0], wrong[1] = wrong[1], wrong[0]
                yield wrong, traces
                if not keep_true_leaf:
                    continue
            yield colours, traces

    monkeypatch.setattr(core, "_leaves", wrong_leaf_first)
    R = relabel(n5(), random.Random(3))
    iso = find_isomorphism(n5(), R)
    if keep_true_leaf:
        assert_checked(n5(), R, iso)
    else:
        assert iso is None


def test_anti_isomorphism_builds_no_dual(monkeypatch):
    def no_dual(self):
        raise AssertionError("dual() called")

    monkeypatch.setattr(FiniteLattice, "dual", no_dual)
    R = relabel(n5(), random.Random(5))
    assert_checked(n5(), R, find_isomorphism(n5(), R, anti=True), anti=True)
    for L in CORPUS7:
        iso = find_isomorphism(L, L, anti=True)
        if iso is not None:
            assert_checked(L, L, iso, anti=True)


def test_leaf_bound_raises_limit_exceeded(monkeypatch):
    assert constructions.LimitExceeded is core.LimitExceeded
    monkeypatch.setattr(core, "_MAX_LEAVES", 1)
    assert canonical_key(chain(3))  # one leaf
    with pytest.raises(LimitExceeded, match="1 leaves"):
        canonical_key(boolean(3))  # six leaves, one per order of the atoms


def test_enumerator_builds_one_lattice_per_class(monkeypatch):
    # one order per class goes to one batch, one table step per size
    built, tabled = [], []

    def counted(items, real=constructions._from_orders):
        built.extend(len(elements) for elements, _ in items)
        return real(items)

    def counted_bounds(leq, topo, real=core._least_bounds):
        tabled.append(leq.shape)
        return real(leq, topo)

    monkeypatch.setattr(constructions, "_from_orders", counted)
    monkeypatch.setattr(core, "_least_bounds", counted_bounds)
    assert len(list(enumerate_lattices(7))) == len(built) == 78
    assert sorted(n for _, n, _ in tabled) == list(range(1, 8))


def test_searches_leave_no_cyclic_garbage():
    # the search and the enumerator walk explicit stacks: no function of
    # core or constructions is left in a reference cycle
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        canonical_key(boolean(4))
        assert find_isomorphism(grid(3, 3), grid(3, 3).dual()) is not None
        assert len(list(enumerate_lattices(5))) == 10
        gc.collect()
        left = [f for f in gc.garbage if callable(f) and getattr(
            f, "__module__", None) in (core.__name__, constructions.__name__)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert left == []
