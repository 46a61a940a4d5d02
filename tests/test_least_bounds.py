"""The join/meet tables from one Möbius product and a counting certificate,
checked against the first-common-bound search they replaced (kept in
`oracles.py`): equal tables on lattices, the same error at the same pair on
orders that are not lattices, and exact repair of the candidates the
certificate rejects.  Also the skeleton lattice, now cut from M's tables
instead of rebuilt, and the block-operation oracle on forged tables, with
`validate` on the same forgeries."""

import itertools
import random
import re

import numpy as np
import pytest

from latglue import core, skeleton
from latglue.constructions import boolean, grid, m_k
from latglue.core import FiniteLattice, LatticeError, NoUniqueJoin, \
    NoUniqueMeet, _family, product
from latglue.glue import GluedSystem, glued_sum, validate
from latglue.predicates import is_modular
from latglue.skeleton import _skeleton_lattices, _star_plus, decompose
from latglue.suite import glued_fixtures
from oracles import kahn_order, oracle_block_operations, \
    oracle_glue_violations, oracle_membership, oracle_skeleton_lattice, \
    oracle_tables
from test_derived_skeleton import FIELDS, sweep_shapes
from test_index_space import SYSTEMS
from test_pruned_predicates import CORPUS8

GLUED = glued_fixtures()


def row_major_kahn(leq):
    """Kahn's order of the covers of `leq` listed in row-major order, as
    `from_leq` hands them to the constructor."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    covers = lt & ~(lt.astype(int) @ lt.astype(int) > 0)
    indeg = list(covers.sum(axis=0))
    topo = [i for i in range(len(leq)) if indeg[i] == 0]
    for i in topo:
        for j in np.flatnonzero(covers[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                topo.append(j)
    return np.array(topo)


def assert_tables_match_search(L):
    join, meet = oracle_tables(L._leq, kahn_order(L), L._ids)
    for got, want in ((L._join, join), (L._meet, meet)):
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)


def test_tables_match_search_on_corpus8_in_both_element_orders():
    for L in CORPUS8:
        for ids in (L.elements, L.elements[::-1]):
            pos = [L.index(a) for a in ids]
            assert_tables_match_search(
                FiniteLattice.from_leq(ids, L._leq[np.ix_(pos, pos)]))


@pytest.mark.parametrize("name", sorted(sweep_shapes()))
def test_tables_match_search_on_sweep_shapes(name):
    assert_tables_match_search(sweep_shapes()[name])


@pytest.mark.parametrize("name", sorted(GLUED))
def test_tables_match_search_on_glued_sums(name):
    assert_tables_match_search(glued_sum(GLUED[name]))


def partition_lattice(k):
    """Π_k, the partitions of {0, …, k−1} ordered by refinement, built by
    `from_leq`; μ(0, 1) = (−1)^(k−1)·(k−1)!."""
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for p in partitions(rest):
            for i in range(len(p)):
                yield p[:i] + [[first] + p[i]] + p[i + 1:]
            yield [[first]] + p

    parts = [[set(b) for b in p] for p in partitions(list(range(k)))]
    ids = ["|".join("".join(map(str, sorted(b))) for b in p) for p in parts]
    leq = np.array([[all(any(b <= c for c in q) for b in p) for q in parts]
                    for p in parts])
    return FiniteLattice.from_leq(ids, leq)


@pytest.mark.parametrize("L", [m_k(30), product(m_k(10), m_k(10)),
                               partition_lattice(5)],
                         ids=["M30", "M10xM10", "Pi5"])
def test_tables_match_search_with_large_moebius_values(L):
    vw = core._mobius(L._leq[None], kahn_order(L)[None])
    assert np.abs(vw).max() > L.n  # far from the indices they sum to
    assert_tables_match_search(L)


def random_orders(count, seed):
    """Seeded bounded orders of 2 to 40 elements in shuffled element order:
    a random relation among the inner elements, closed, between a bottom
    and a top.  Most are not lattices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 41)
        p = rng.choice([0.05, 0.1, 0.2, 0.4])
        rel = np.eye(n, dtype=bool)
        rel[0] = rel[:, n - 1] = True
        for i, j in itertools.combinations(range(1, n - 1), 2):
            rel[i, j] = rng.random() < p
        for k in range(n):
            rel |= np.outer(rel[:, k], rel[k])
        perm = rng.sample(range(n), n)
        yield [f"e{q}" for q in perm], rel[np.ix_(perm, perm)]


def test_non_lattices_fail_at_the_same_pair_naming_the_same_bounds():
    failures = 0
    for ids, leq in random_orders(300, seed=9):
        try:
            want = oracle_tables(leq, row_major_kahn(leq), ids)
        except (NoUniqueJoin, NoUniqueMeet) as e:
            want = e
        try:
            L = FiniteLattice.from_leq(ids, leq)
        except (NoUniqueJoin, NoUniqueMeet) as e:
            assert type(e) is type(want) and str(e) == str(want)
            a, b, c, d = (ids.index(x) for x in re.findall(r"'(e\d+)'", str(e)))
            cones = leq if type(e) is NoUniqueJoin else leq.T
            common = np.flatnonzero(cones[a] & cones[b])
            for bound in (c, d):  # both are minimal common bounds
                assert bound in common
                assert not any(cones[k, bound] for k in common if k != bound)
            failures += 1
        else:
            assert not isinstance(want, Exception), str(want)
            np.testing.assert_array_equal(L._join, want[0])
            np.testing.assert_array_equal(L._meet, want[1])
    assert 100 < failures < 300


@pytest.mark.parametrize("kind", ["not-a-bound", "bound-not-least",
                                  "above-one-with-the-count"])
def test_a_corrupted_candidate_is_flagged_alone_and_repaired(kind):
    L = grid(4, 5)
    a, b = sorted([L.index("1,2"), L.index("2,1")])
    j = L._join[a, b]  # 2,2, with 12 elements above it, as 1,3 has
    c = {"not-a-bound": L.index("0,0"), "bound-not-least": L._top,
         "above-one-with-the-count": L.index("1,3")}[kind]
    assert c != j
    tables = np.array([L._join, L._meet])
    tables[0, a, b] = c
    flagged = core._uncertified(
        np.array([L._leq, L._leq.T]).astype(np.float32), tables)
    assert {tuple(sorted(p)) for p in np.argwhere(flagged.any(axis=0))} \
        == {(a, b)}
    join, meet = tables
    core._settle(L._leq, kahn_order(L), L._ids, join, meet, flagged)
    np.testing.assert_array_equal(join, L._join)
    np.testing.assert_array_equal(meet, L._meet)


def shifted(leq, topo):
    """The Möbius values less n at the top (bottom in the dual), so that
    every candidate is its bound less n: one row lower in the flat
    tables, where a gather unchecked for range would find a count."""
    vw = MOBIUS(leq, topo)
    m, n = topo.shape
    vw[np.arange(m), topo[:, -1]] -= n
    vw[m + np.arange(m), topo[:, 0]] -= n
    return vw


MOBIUS = core._mobius


@pytest.mark.parametrize("garbage", [0.0, 0.5, np.nan, "shifted"])
def test_wrong_moebius_values_are_never_accepted(garbage, monkeypatch):
    # every candidate is then wrong or unchecked arithmetic; the tables
    # must still come out of the exact recheck, and non-lattices still fail
    monkeypatch.setattr(core, "_mobius", shifted if garbage == "shifted" else
                        lambda leq, topo: np.full((2 * len(topo), topo.shape[1]),
                                                  garbage))
    lattices = (boolean(4), grid(3, 5), m_k(5), grid(1, 7), m_k(14))
    for L in lattices:
        assert_tables_match_search(FiniteLattice(L.elements, L.covers))
    # a batch stacks the orders of one size: 16 elements three times
    for L in core._lattices([(L.elements, L.covers) for L in lattices]):
        assert_tables_match_search(L)
    for ids, leq in random_orders(30, seed=10):
        try:
            want = oracle_tables(leq, row_major_kahn(leq), ids)
        except LatticeError as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                FiniteLattice.from_leq(ids, leq)
        else:
            L = FiniteLattice.from_leq(ids, leq)
            np.testing.assert_array_equal(L._join, want[0])
            np.testing.assert_array_equal(L._meet, want[1])


def test_valid_lattices_leave_nothing_to_the_recheck(monkeypatch):
    # the Möbius candidates are exact: every pair of a lattice is
    # certified, and the per-pair recheck never runs
    lattices = list(sweep_shapes().values()) + CORPUS8[::7] + [
        m_k(30), product(m_k(10), m_k(10)), partition_lattice(5)]
    lattices += [glued_sum(sys) for sys in GLUED.values()]
    flagged = []
    settle = core._settle

    def recording(leq, order, ids, join, meet, mask):
        flagged.append(int(mask.any(axis=0).sum()))
        return settle(leq, order, ids, join, meet, mask)

    monkeypatch.setattr(core, "_settle", recording)
    for L in lattices:
        FiniteLattice(L.elements, L.covers)
    assert flagged == [0] * len(lattices)


# -- the skeleton lattice ---------------------------------------------------

def modular_lattices():
    out = {f"corpus8-{i}": L for i, L in enumerate(CORPUS8) if is_modular(L)}
    out.update((name, L) for name, L in sweep_shapes().items()
               if is_modular(L))
    return out


MODULAR = modular_lattices()


def assert_same_lattice(S, T):
    for f in FIELDS:
        assert getattr(S, f) == getattr(T, f), f
    for f in ("_leq", "_join", "_meet"):
        got, want = getattr(S, f), getattr(T, f)
        assert got.dtype == want.dtype, f
        np.testing.assert_array_equal(got, want)


def _skeleton_lattice(M, st, pl):
    """S(M) cut from the given a* and a⁺, on a copy of M that keeps no
    S(M), as the family of one."""
    return _skeleton_lattices(_family([M._relabelled(M.elements)]), st, pl)[0]


@pytest.mark.parametrize("name", sorted(MODULAR))
def test_skeleton_lattice_equals_the_rebuilt_one(name):
    M = MODULAR[name]
    st, pl = _star_plus(M)
    assert_same_lattice(_skeleton_lattice(M, st, pl),
                        oracle_skeleton_lattice(M, st, pl))


def test_skeleton_lattice_fails_as_the_rebuilt_one_on_wrong_operators():
    # a* and a⁺ mutated at random: whatever the rebuilt S raised (a
    # NotBounded or NoUnique* from from_leq, or an InvariantViolated with
    # its witness), the cut S raises too; otherwise the two are equal
    rng = random.Random(11)
    outcomes = set()
    for name in sorted(MODULAR):
        M = MODULAR[name]
        right = _star_plus(M)
        for _ in range(3):
            st, pl = (op.copy() for op in right)
            for op in rng.sample([st, pl], rng.randrange(1, 3)):
                for i in rng.sample(range(M.n), min(M.n, rng.randrange(1, 3))):
                    op[i] = rng.randrange(M.n)
            try:
                want = oracle_skeleton_lattice(M, st, pl)
            except LatticeError as e:
                with pytest.raises(type(e)) as got:
                    _skeleton_lattice(M, st, pl)
                assert str(got.value) == str(e)
                assert getattr(got.value, "witness", None) == \
                    getattr(e, "witness", None)
                outcomes.add(type(e).__name__)
            else:
                assert_same_lattice(_skeleton_lattice(M, st, pl), want)
                outcomes.add("equal")
    assert {"equal", "InvariantViolated", "NotBounded", "NoUniqueJoin"} \
        <= outcomes


def test_decompose_builds_no_lattice(monkeypatch):
    M = grid(6, 7)

    def refuse(*args, **kwargs):
        pytest.fail("a lattice was rebuilt")

    monkeypatch.setattr(FiniteLattice, "__init__", refuse)
    monkeypatch.setattr(FiniteLattice, "from_leq", refuse)
    S = skeleton.skeleton_lattice(M)
    assert S.n == 42
    assert decompose(M).reglues()


# -- the block-operation check ------------------------------------------------

def corrupted(sys, rng):
    """`sys` with the join or meet of one pair of shared elements of one
    block moved to another element of that block, forged by replacing the
    block's table, with that block's key and the pair; None when the
    drawn block has fewer than two shared elements."""
    S = sys.skeleton
    shared = {a for a, k in _count(sys).items() if k > 1}
    x = rng.choice(S.elements)
    L = sys.blocks[x]
    idx = [i for i, a in enumerate(L.elements) if a in shared]
    if len(idx) < 2:
        return None
    p, q = rng.sample(idx, 2)
    op = rng.choice(["_join", "_meet"])
    table = getattr(L, op).copy()
    other = rng.choice([i for i in range(L.n) if i != table[p, q]])
    table[p, q] = other
    if rng.random() < 0.5:  # or both cells of the pair
        table[q, p] = other
    B = L._relabelled(L.elements)
    setattr(B, op, table)
    return GluedSystem(S, {**sys.blocks, x: B}), x, (L.elements[p], L.elements[q])


def _count(sys):
    count = {}
    for L in sys.blocks.values():
        for a in L.elements:
            count[a] = count.get(a, 0) + 1
    return count


def block_operations(sys):
    return oracle_block_operations(sys, *oracle_membership(sys))


VALID = {name: sys for name, sys in SYSTEMS.items() if not validate(sys)}
VALID.update((f"decompose-{name}", decompose(M).system)
             for name, M in sorted(sweep_shapes().items())[:12]
             if is_modular(M))


@pytest.mark.parametrize("name", sorted(VALID))
def test_block_operation_check_names_the_pair_the_loop_named(name):
    """The block-operation oracle finds nothing on a system validate
    accepts, and flags a forged table exactly when the moved pair lies in
    an overlap, naming the forged block."""
    sys = VALID[name]
    assert block_operations(sys) is None
    rng = random.Random(name)
    for _ in range(6):
        forged = corrupted(sys, rng)
        if forged is not None:
            bad, x, pair = forged
            result = block_operations(bad)
            if any(y != x and set(pair) <= set(L.elements)
                   for y, L in sys.blocks.items()):
                what, witness = result
                assert what.startswith("blocks disagree on ") and x in witness
            else:
                assert result is None


@pytest.mark.parametrize("name", sorted(VALID))
def test_validate_lists_what_the_loop_lists_on_corrupted_tables(name):
    """A block whose join or meet on shared elements was moved: validate
    lists the (A1) violations the per-pair loop lists, since the (17)
    kernel reads the same tables.  When the loop lists none, validate
    accepts the system, whose forged table differs from the one
    `from_leq` builds from the block's order: the tables of a built
    lattice are read-only, so only a forgery gets here."""
    rng = random.Random(name)
    for _ in range(6):
        forged = corrupted(VALID[name], rng)
        if forged is not None:
            bad, x, _ = forged
            want = oracle_glue_violations(bad)
            assert validate(bad) == want
            if not want:
                L = bad.blocks[x]
                built = FiniteLattice.from_leq(L.elements, L._leq)
                assert not (np.array_equal(L._join, built._join)
                            and np.array_equal(L._meet, built._meet))
