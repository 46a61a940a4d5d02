"""`core._from_order`, the one route from an order matrix to a lattice,
against the two routes it replaced, kept in `oracles`: `oracle_from_leq`
(the covers as id pairs through the constructor, then compared with the
input) and `oracle_suborder` (the order induced on a parent's indices),
the latter also for every interval `oracle_slice` cuts, with the parent's
tables renumbered.  The blocks a decomposition assembles and the lattice
of every `interval` are checked against `oracle_slice`.  Every field is
compared with its type, dtype and layout, and a refused relation with its
exception class and text."""

import numpy as np
import pytest

from latglue import skeleton
from latglue.constructions import boolean, chain, enumerate_lattices, \
    fano_lattice, grid, m3, n5
from latglue.core import CycleDetected, FiniteLattice, LatticeError, \
    NotBounded, NotTransitiveReduction, product
from latglue.glue import order_closure
from latglue.predicates import is_modular
from latglue.suite import glued_fixtures
from oracles import oracle_from_leq, oracle_slice, oracle_sliced_blocks, \
    oracle_suborder
from test_decompositions import SQUARE_SUMS
from test_derived_skeleton import sweep_shapes
from test_pruned_predicates import CORPUS8

MODULAR8 = [L for L in CORPUS8 if is_modular(L)]


def assert_identical(got, want):
    """Every field of `want` equal in `got`, Python ints where `want` has
    them (compared by repr) and arrays of one dtype and layout."""
    assert sorted(vars(got)) == sorted(vars(want))
    for f, b in vars(want).items():
        a = getattr(got, f)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.flags.c_contiguous) \
                == (b.dtype, b.flags.c_contiguous), f
            np.testing.assert_array_equal(a, b, err_msg=f)
        else:
            assert repr(a) == repr(b), f
    assert all(type(i) is int for c in got._cov for i in c)


def orders(L):
    """L's ids and order matrix, in its element order and reversed."""
    for pos in (np.arange(L.n), np.arange(L.n)[::-1]):
        yield [L._ids[i] for i in pos], L._leq[np.ix_(pos, pos)]


def test_the_corpus_has_300_lattices():
    assert len(CORPUS8) == 300


def test_from_leq_matches_the_old_route_on_the_corpus():
    for L in CORPUS8:
        for ids, leq in orders(L):
            assert_identical(FiniteLattice.from_leq(ids, leq),
                             oracle_from_leq(ids, leq))


@pytest.mark.parametrize("name", sorted(sweep_shapes()))
def test_from_leq_matches_the_old_route_on_the_sweep_shapes(name):
    for ids, leq in orders(sweep_shapes()[name]):
        assert_identical(FiniteLattice.from_leq(ids, leq),
                         oracle_from_leq(ids, leq))


@pytest.mark.parametrize("name", sorted(glued_fixtures()))
def test_from_leq_matches_the_old_route_on_the_glued_sums(name):
    carrier, leq = order_closure(glued_fixtures()[name])
    assert_identical(FiniteLattice.from_leq(carrier, leq),
                     oracle_from_leq(carrier, leq))


def assert_slices_match(M):
    """S(M), and every block [x, x*] of decompose(M) and its `interval`,
    against the order the old `_suborder` induced on the same indices and
    against `oracle_slice`.  A block owns its tables: it shares no memory
    with the membership record's stacks."""
    st, pl = skeleton._star_plus(M)
    k = np.flatnonzero(pl[st] == np.arange(M.n))
    # on a copy, which keeps M's a* and a⁺ but not its S(M), so that S is
    # built afresh, with no cache a use of M's added
    S = skeleton.skeleton_lattice(M._relabelled(M.elements))
    want = oracle_suborder(M, k)
    want._join, want._meet = S._join, S._meet
    assert_identical(S, want)
    blocks = skeleton.decompose(M).blocks
    stacks = (blocks.members.leq, blocks.members.join, blocks.members.meet)
    for x, B in blocks.items():
        idxs = np.array(sorted(M.index(a) for a in B.elements))
        want = oracle_suborder(M, idxs)
        want._join, want._meet = B._join, B._meet
        assert_identical(B, want)
        cut = oracle_slice(M, M.index(x), M.index(B.top))
        assert_identical(B, cut)
        assert_identical(M.interval(x, B.top).lattice, cut)
        assert not any(np.shares_memory(a, t) for t in stacks
                       for a in (B._leq, B._join, B._meet))


INTERVAL_LATTICES = [*enumerate_lattices(6), grid(4, 4), boolean(4),
                     product(m3(), chain(2)), n5(), fano_lattice()]


def test_every_interval_cut_is_the_parents_tables_renumbered():
    """The proof in `glue._sliced_blocks`, checked on every interval
    [lo, hi] of the 25 lattices of at most 6 elements, grid(4,4),
    boolean(4), M3×C2, N5 and the Fano lattice: `oracle_slice`'s cut is
    the order the old `_suborder` induced, with the parent's join and meet
    renumbered one entry at a time, `interval` gives the same lattice, and
    the oracle's closure and bound checks pass on every interval."""
    count = 0
    for M in INTERVAL_LATTICES:
        lo, hi = np.nonzero(M._leq)
        oracle_sliced_blocks(range(len(lo)), M, lo, hi)
        for a, b in zip(lo, hi):
            idxs = np.flatnonzero(M._leq[a] & M._leq[:, b])
            pos = {int(k): i for i, k in enumerate(idxs)}
            want = oracle_suborder(M, idxs)
            want._join, want._meet = (
                np.array([[pos[T[i, j]] for j in idxs] for i in idxs],
                         dtype=np.int32) for T in (M._join, M._meet))
            cut = oracle_slice(M, a, b)
            assert_identical(cut, want)
            assert_identical(M.interval(M._ids[a], M._ids[b]).lattice, cut)
        count += len(lo)
    assert len(INTERVAL_LATTICES) == 30 and count == 827


def test_skeleton_and_block_slices_match_the_old_route_on_the_corpus():
    """The modular lattices of at most 8 elements and their 67 square
    sums."""
    assert len(MODULAR8) > 60 and len(SQUARE_SUMS) == 67
    for M in MODULAR8 + SQUARE_SUMS:
        assert_slices_match(M)


@pytest.mark.parametrize("name", sorted(sweep_shapes()))
def test_skeleton_and_block_slices_match_the_old_route_on_the_sweep_shapes(
        name):
    assert_slices_match(sweep_shapes()[name])


def test_skeleton_and_block_slices_match_the_old_route_on_grid_40x40():
    assert_slices_match(grid(40, 40))


def relation(rows):
    return np.array(rows, dtype=bool)


NOT_A_PARTIAL_ORDER = (LatticeError, "relation is not a partial order: its "
                       "covers generate a different order")
CYCLE = (CycleDetected, "cover digraph contains a cycle")

# name: (elements, relation, the old route's error, from_leq's error when
# it differs)
REFUSED = {
    "non-reflexive": (["a", "b"], relation([[0, 1], [0, 1]]),
                      NOT_A_PARTIAL_ORDER, None),
    "non-transitive-chain": (["a", "b", "c"],
                             relation([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
                             NOT_A_PARTIAL_ORDER, None),
    "two-cycle": (["0", "a", "b", "1"],
                  relation([[1, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1],
                            [0, 0, 0, 1]]), CYCLE, None),
    "two-clique": (["a", "b"], relation([[1, 1], [1, 1]]), CYCLE, None),
    # refused right after the cycle check; the old route built the covers
    # into a lattice first and refused it as unbounded
    "transitive-3-clique": (
        ["0", "a", "b", "c", "1"],
        relation([[1, 1, 1, 1, 1], [0, 1, 1, 1, 1], [0, 1, 1, 1, 1],
                  [0, 1, 1, 1, 1], [0, 0, 0, 0, 1]]),
        (NotBounded, "minimal elements ['0', 'a', 'b', 'c', '1'], "
                     "maximal elements ['0', 'a', 'b', 'c', '1']"),
        NOT_A_PARTIAL_ORDER),
    # a < b < c < d and a < d only: the old route refused the cover (a, d)
    # as implied via b
    "skipping-chain": (["a", "b", "c", "d"],
                       relation([[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1],
                                 [0, 0, 0, 1]]),
                       (NotTransitiveReduction,
                        "cover ('a', 'd') is implied via 'b'"),
                       NOT_A_PARTIAL_ORDER),
    "duplicate-ids": (["a", "b", "a"], np.eye(3, dtype=bool),
                      (LatticeError, "duplicate element ids: 'a' is repeated"),
                      None),
    "empty": ([], np.zeros((0, 0), dtype=bool),
              (NotBounded, "empty element list"), None),
}


def raised(f, *args):
    with pytest.raises(LatticeError) as e:
        f(*args)
    return type(e.value), str(e.value)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_relations_are_pinned(name):
    ids, leq, old, new = REFUSED[name]
    assert raised(oracle_from_leq, ids, leq) == old
    assert raised(FiniteLattice.from_leq, ids, leq) == (new or old)
