"""The connection-condition kernels that look only where a condition can
fail, checked against the full-grid kernels they replaced (kept in
`oracles`): (20)/(20δ) on the incomparable pairs, mirrored, and (19) on
the listed cover triples x ≺ c < y.  Also the identification record's
flat preimage scan against the 3-axis split, and the heights and depths
set in Kahn's pass against a separate rank pass."""

import random

import numpy as np
import pytest

import test_connect
import test_derived_skeleton
import test_index_space
from latglue import connect, glue
from latglue.connect import ConnectedSystem, ConnectViolation, elevate, \
    validate_connected
from latglue.constructions import boolean, enumerate_lattices, grid, \
    section4_example
from latglue.core import FiniteLattice, InvariantViolated, LatticeError, \
    _from_order, _linked, _named
from latglue.glue import glued_sum
from latglue.suite import glued_fixtures
from oracles import oracle_chain_failures, oracle_glue_failures, \
    oracle_linked, oracle_preimages, oracle_validate_connected


@pytest.fixture
def checked_kernels(monkeypatch):
    """Every call of the two kernels, wherever it comes from, is compared
    with the full-grid oracle: equal arrays, and equal dicts with the same
    keys in the same order and the same z lists.  Returns the calls, by
    condition."""
    calls = []

    def chains(S, phi, real=glue._chain_failures):
        got, want = real(S, phi), oracle_chain_failures(S, phi)
        assert list(got.items()) == list(want.items())
        calls.append("19")
        return got

    def glues(S, phi, real=connect._glue_failures):
        got, want = real(S, phi), oracle_glue_failures(S, phi)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        calls.append("20")
        return got

    monkeypatch.setattr(glue, "_chain_failures", chains)
    monkeypatch.setattr(connect, "_chain_failures", chains)
    monkeypatch.setattr(connect, "_glue_failures", glues)
    return calls


@pytest.mark.parametrize("build", test_connect.DIFF_SYSTEMS.values(),
                         ids=test_connect.DIFF_SYSTEMS)
def test_kernels_match_the_grid_on_local_systems(build, checked_kernels):
    lcs = build()
    del checked_kernels[:]  # a fixture may elevate a system of its own
    assert validate_connected(elevate(lcs)) == []
    assert checked_kernels == ["19", "20"]


@pytest.mark.parametrize("build", test_connect.MUTANT_SYSTEMS.values(),
                         ids=test_connect.MUTANT_SYSTEMS)
def test_kernels_match_the_grid_on_seeded_mutants(build, checked_kernels):
    test_connect.test_mutants_match_id_level_oracle(build)
    assert "20" in checked_kernels


def _formula_outcome(sys):
    try:
        glue._formula_tables(sys)
    except InvariantViolated as e:
        return e.witness
    return None


def test_kernels_match_the_grid_on_staircase_mutants(checked_kernels):
    """The (A1)/(A2) mutants through the formula tables, whose certificate
    runs on S and then on its dual."""
    refused, runs = [], []
    for m in test_derived_skeleton.MUTANTS:
        del checked_kernels[:]
        refused.append(_formula_outcome(m[4]))
        runs.append(len(checked_kernels))
    assert any(refused) and not all(refused)
    # some are refused before the certificate runs, some after its run on
    # S, and some reach its run on the dual
    assert set(runs) == {0, 1, 2}


@pytest.mark.parametrize("name", sorted(test_index_space.SYSTEMS))
def test_kernels_match_the_grid_on_glued_systems(name, checked_kernels):
    try:
        _formula_outcome(test_index_space.SYSTEMS[name])
    except LatticeError:  # not a glued system: no tables to certify
        assert not checked_kernels


def _random_tensor(S, b, rng, density):
    """A random phi tensor over S: blocks of b elements, each cell defined
    with probability `density`, the diagonal the identity."""
    n = S.n
    phi = np.where(rng.random((n, n, b)) < density,
                   rng.integers(0, b, (n, n, b)), -1)
    phi[np.arange(n), np.arange(n)] = np.arange(b)
    return phi


SKELETONS = {**{f"corpus-{i}": L for i, L in enumerate(enumerate_lattices(6))},
             "boolean(3)": boolean(3), "grid(4,5)": grid(4, 5),
             "grid(8,8)": grid(8, 8)}


@pytest.mark.parametrize("name", sorted(SKELETONS))
def test_kernels_match_the_grid_on_random_tensors(name):
    """Also: the grid never flags a comparable pair, whatever the tensor."""
    S = SKELETONS[name]
    rng = np.random.default_rng(S.n)
    comparable = S._leq | S._leq.T
    for density in (0.2, 0.6, 0.95):
        for b in (1, 3):
            phi = _random_tensor(S, b, rng, density)
            assert list(glue._chain_failures(S, phi).items()) \
                == list(oracle_chain_failures(S, phi).items())
            for got, want in zip(connect._glue_failures(S, phi),
                                 oracle_glue_failures(S, phi)):
                np.testing.assert_array_equal(got, want)
                assert not (want & comparable).any()


# -- (20) and (20δ) pinned on B2 -------------------------------------------------

def _b2_system(elements):
    """Four 2-element chains p, q, r, s over B2 = {0, a, b, 1}, the cover
    maps each sending the top of the lower block to the bottom of the
    upper one: a and b meet at s0 in block 1, and p1 has images in both,
    yet φ(0, 1) is empty."""
    S = FiniteLattice(elements, [("0", "a"), ("0", "b"), ("a", "1"),
                                 ("b", "1")])
    blocks = {x: FiniteLattice([f"{p}0", f"{p}1"], [(f"{p}0", f"{p}1")])
              for x, p in zip("0ab1", "pqrs")}
    maps = {("0", "a"): {"p1": "q0"}, ("0", "b"): {"p1": "r0"},
            ("a", "1"): {"q1": "s0"}, ("b", "1"): {"r1": "s0"}}
    return ConnectedSystem(S, blocks, maps)


def test_conditions_20_and_20d_on_b2():
    want = [ConnectViolation(c, pair) for pair in (("a", "b"), ("b", "a"))
            for c in ("20", "20d")]
    cs = _b2_system(["0", "a", "b", "1"])
    assert validate_connected(cs) == oracle_validate_connected(cs) == want
    # listing b before a changes the index order of the two pairs only
    cs = _b2_system(["0", "b", "a", "1"])
    assert validate_connected(cs) == oracle_validate_connected(cs) \
        == want[2:] + want[:2]


def test_maps_on_comparable_pairs_leave_20_silent():
    """Changing the map on a comparable pair can break (17)-(19), and (20)
    at the incomparable pair through its meet and join, but never flags
    (20) or (20δ) at a comparable pair."""
    rng = random.Random(20)
    base = _b2_system(["0", "a", "b", "1"])
    S = base.skeleton
    pairs = [(x, y) for x in S.elements for y in S.elements if S.leq(x, y)]
    seen = set()
    for _ in range(60):
        maps = {k: dict(m) for k, m in base.maps.items()}
        x, y = rng.choice(pairs)
        src, dst = base.blocks[x].elements, base.blocks[y].elements
        maps[(x, y)] = {a: rng.choice(dst) for a in src if rng.random() < 0.6}
        cs = ConnectedSystem(S, base.blocks, maps)
        got = validate_connected(cs)
        assert got == oracle_validate_connected(cs)
        seen |= {v.condition for v in got}
        assert all(v.pair in (("a", "b"), ("b", "a")) for v in got
                   if v.condition in ("20", "20d"))
    assert {"17", "19"} <= seen


# -- the identification record's preimages -------------------------------------

def _non_injective(cs):
    """cs with one map sending two elements to one place."""
    key = next(k for k in cs.maps if len(cs.maps[k]) > 1)
    m = dict(cs.maps[key])
    a, b = list(m)[:2]
    m[a] = m[b]
    return ConnectedSystem(cs.skeleton, cs.blocks, {**cs.maps, key: m})


IDENTIFIED = {
    **{name: lambda build=build: elevate(build())
       for name, build in test_connect.RECORD_SYSTEMS.items()},
    "section4-non-injective":
        lambda: _non_injective(elevate(section4_example()["local_system"])),
    "grid(3,3)-non-injective": lambda: _non_injective(
        elevate(test_connect.DIFF_SYSTEMS["grid(3,3)"]())),
}


@pytest.mark.parametrize("build", IDENTIFIED.values(), ids=IDENTIFIED)
def test_flat_preimage_scan_matches_the_3_axis_split(build):
    cs = build()
    np.testing.assert_array_equal(connect._identification(cs).pre,
                                  oracle_preimages(cs))


def test_a_non_injective_map_keeps_the_last_preimage():
    cs = _non_injective(elevate(section4_example()["local_system"]))
    (x, _), m = next((k, m) for k, m in cs.maps.items()
                     if len(set(m.values())) < len(m))
    c = next(c for c in m.values() if list(m.values()).count(c) > 1)
    last = max((a for a in m if m[a] == c), key=cs.blocks[x].index)
    rec = connect._identification(cs)
    assert rec.carrier[rec.pre[rec.index[c], cs.skeleton.index(x)]] == last


# -- ranks from Kahn's pass ---------------------------------------------------

def _rank_lattices():
    out = {}
    for i, L in enumerate(enumerate_lattices(7)):
        out[f"corpus-{i}"] = L
        out[f"corpus-{i}-dual"] = L.dual()
    out.update(test_derived_skeleton.sweep_shapes())
    out.update({f"sum-{name}": glued_sum(sys)
                for name, sys in glued_fixtures().items()})
    return out


RANKED = _rank_lattices()


def _assert_linked_like_oracle(L, topo, want):
    up, down, kahn, height, depth = want
    assert (L._up_adj, L._down_adj, L._height, L._depth) \
        == (up, down, height, depth)
    assert list(topo) == kahn


@pytest.mark.parametrize("name", sorted(RANKED))
def test_ranks_from_kahns_pass_match_the_rank_pass(name):
    L = RANKED[name]
    want = oracle_linked(L.n, L._cov)
    fresh = _named(L._ids)
    _assert_linked_like_oracle(fresh, _linked(fresh, L._cov), want)
    # and the lattice itself, however it was built, has those ranks
    assert (L._height, L._depth) == want[3:]
    # from the order matrix: its covers come in row-major order
    M, topo = _from_order(L._ids, L._leq)
    _assert_linked_like_oracle(M, topo, oracle_linked(M.n, M._cov))
    assert (M._height, M._depth) == want[3:]

