"""Lattices built in one batch (`core._lattices`): every field equal to the
one-lattice-at-a-time constructor kept in `oracles.py`, on the corpus up to
8 elements, the benchmarked sweep shapes, the blocks of every decomposition
of a modular corpus lattice and batches mixing sizes; the error of the
first failing spec in input order; and one stacked Möbius product per
block size when a local system file is loaded.  The batch of orders
(`core._from_orders`) and the batch of square systems
(`square_sublattices`) equal their batches of one, errors included."""

import collections
import random

import numpy as np
import pytest

from latglue import core, io as lio
from latglue.connect import local_system
from latglue.constructions import chain, distributive_with_skeleton, grid, \
    m3, n5, square_sublattice, square_sublattices
from latglue.core import CycleDetected, FiniteLattice, LatticeError, \
    NoUniqueJoin, NoUniqueMeet, NotBounded, NotTransitiveReduction, \
    UnknownElement, product
from latglue.predicates import NotModular, is_modular
from latglue.skeleton import decompose
from oracles import oracle_lattice
from test_derived_skeleton import sweep_shapes
from test_least_bounds import random_orders
from test_pruned_predicates import CORPUS8

FIELDS = ("n", "_ids", "_idx", "_cov", "_up_adj", "_down_adj", "_height",
          "_depth", "_bot", "_top")
ARRAYS = {"_leq": np.bool_, "_join": np.int32, "_meet": np.int32}


def assert_same_fields(got, want):
    assert set(vars(got)) == set(vars(want))
    for f in FIELDS:
        assert getattr(got, f) == getattr(want, f), f
    for f, dtype in ARRAYS.items():
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype == dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)


def spec(L):
    return list(L.elements), list(L.covers)


def shuffled(L, rng):
    """L's spec with its elements and covers in a seeded order, so that
    the linear extension, and with it every Möbius value, changes."""
    elements, covers = spec(L)
    rng.shuffle(elements)
    rng.shuffle(covers)
    return elements, covers


def assert_batch_matches_oracle(specs):
    for got, s in zip(core._lattices(specs), specs, strict=True):
        assert_same_fields(got, oracle_lattice(*s))


def test_corpus_up_to_8_elements_in_one_batch():
    assert len(CORPUS8) == 300
    rng = random.Random(14)
    assert_batch_matches_oracle([spec(L) for L in CORPUS8])
    assert_batch_matches_oracle([shuffled(L, rng) for L in CORPUS8])


@pytest.mark.parametrize("name", sorted(sweep_shapes()))
def test_sweep_shape_alone(name):
    L = sweep_shapes()[name]
    assert_same_fields(FiniteLattice(*spec(L)), oracle_lattice(*spec(L)))


def test_sweep_shapes_in_one_batch():
    rng = random.Random(15)
    shapes = list(sweep_shapes().values())
    assert_batch_matches_oracle([shuffled(L, rng) for L in shapes])


def modular_decompositions():
    return [decompose(L) for L in CORPUS8 if is_modular(L)]


def test_blocks_of_every_modular_decomposition_up_to_8_elements():
    decs = modular_decompositions()
    assert len(decs) > 60
    every = []
    for dec in decs:
        specs = [spec(dec.blocks[x]) for x in dec.skeleton_lattice.elements]
        assert_batch_matches_oracle(specs)
        every += specs
    assert_batch_matches_oracle(every)


def test_batches_mixing_sizes():
    rng = random.Random(16)
    pool = [spec(L) for L in CORPUS8] + [
        spec(L) for L in sweep_shapes().values() if L.n <= 64]
    for _ in range(20):
        batch = [rng.choice(pool) for _ in range(rng.randrange(1, 40))]
        assert_batch_matches_oracle(batch)


def test_construction_blocks_match_the_oracle():
    for sys in (distributive_with_skeleton(grid(1, 1)),
                square_sublattice(product(m3(), chain(2)))):
        for B in sys.blocks.values():
            assert_same_fields(B, oracle_lattice(*spec(B)))


# -- errors -------------------------------------------------------------------

BOWTIE = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
          ("b", "d"), ("c", "1"), ("d", "1")]

INVALID = {
    "empty": ([], []),
    "two-tops": (["0", "a", "b"], [("0", "a"), ("0", "b")]),
    "duplicate-id": (["0", "a", "b", "a"], [("0", "a")]),
    "duplicate-cover": (["0", "1"], [("0", "1"), ("0", "1")]),
    "unknown-element": (["0", "1"], [("0", "2")]),
    "self-cover": (["0", "1"], [("0", "0")]),
    "cycle": (["0", "a", "b", "1"],
              [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")]),
    "implied-cover": (["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")]),
    "no-join": (["0", "a", "b", "c", "d", "1"], BOWTIE),
    "no-meet": (["0", "c", "d", "a", "b", "1"], BOWTIE),
    "unhashable": ([["0"], ["1"]], []),
}
CLASSES = {"empty": NotBounded, "two-tops": NotBounded,
           "duplicate-id": LatticeError, "duplicate-cover": LatticeError,
           "unknown-element": UnknownElement, "self-cover": CycleDetected,
           "cycle": CycleDetected, "implied-cover": NotTransitiveReduction,
           "no-join": NoUniqueJoin, "no-meet": NoUniqueMeet,
           "unhashable": TypeError}


def first_error(specs):
    """The error building the specs one at a time raises first, with the
    index of its spec."""
    for k, s in enumerate(specs):
        try:
            oracle_lattice(*s)
        except Exception as e:
            return k, e
    return None


@pytest.mark.parametrize("kind", sorted(INVALID))
def test_each_error_class_alone(kind):
    with pytest.raises(CLASSES[kind]) as got:
        FiniteLattice(*INVALID[kind])
    _, want = first_error([INVALID[kind]])
    assert type(got.value) is type(want) and str(got.value) == str(want)
    assert got.value.spec == 0


def test_duplicate_ids_name_the_first_repeat():
    with pytest.raises(LatticeError,
                       match=r"^duplicate element ids: 'b' is repeated$"):
        FiniteLattice(["a", "b", "b", "a"], [])


@pytest.mark.parametrize("kind", sorted(INVALID))
@pytest.mark.parametrize("at", [0, 3, 7])
def test_first_failing_spec_wins(kind, at):
    rng = random.Random(f"{kind}:{at}")
    valid = [spec(L) for L in rng.sample(CORPUS8, 8)]
    for later in sorted(set(INVALID) - {kind}):
        specs = valid[:at] + [INVALID[kind]] + valid[at:] + [INVALID[later]]
        k, want = first_error(specs)
        assert k == at
        with pytest.raises(CLASSES[kind]) as got:
            core._lattices(specs)
        assert type(got.value) is type(want) and str(got.value) == str(want)
        assert got.value.spec == at


def test_missing_bound_beats_a_later_check():
    # the tables of an earlier spec fail before a later spec's checks
    for table_error in ("no-join", "no-meet"):
        specs = [spec(grid(2, 2)), INVALID[table_error], INVALID["cycle"],
                 spec(grid(3, 1))]
        with pytest.raises(CLASSES[table_error]) as got:
            core._lattices(specs)
        assert str(got.value) == str(first_error(specs)[1])
        assert got.value.spec == 1


def test_generator_error_comes_after_earlier_missing_bounds():
    def specs(fail):
        yield spec(grid(2, 2))
        yield INVALID["no-join"]
        if fail:
            raise LatticeError("malformed spec")
        yield spec(m3())

    with pytest.raises(NoUniqueJoin):
        core._lattices(specs(fail=True))

    def clean_then_fail():
        yield spec(grid(2, 2))
        raise LatticeError("malformed spec")

    with pytest.raises(LatticeError, match="^malformed spec$") as got:
        core._lattices(clean_then_fail())
    assert got.value.spec == 1


# -- batches of orders and of square systems ---------------------------------

def order_item(L, reverse=False):
    """L's elements and order matrix, the elements reversed if asked."""
    p = np.arange(L.n)[::-1] if reverse else np.arange(L.n)
    return [L.elements[i] for i in p], L._leq[np.ix_(p, p)]


@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
def test_order_batch_equals_from_leq_one_at_a_time(reverse):
    items = [order_item(L, reverse) for L in CORPUS8]
    for got, item in zip(core._from_orders(items), items, strict=True):
        assert_same_fields(got, FiniteLattice.from_leq(*item))


def first_order_error(items):
    """(index, error) of the first item from_leq refuses, or None."""
    for k, item in enumerate(items):
        try:
            FiniteLattice.from_leq(*item)
        except LatticeError as e:
            return k, e
    return None


@pytest.mark.parametrize("seed", range(4))
def test_order_batch_raises_the_first_error_from_leq_raises(seed):
    rng = random.Random(seed)
    orders = list(random_orders(12, seed=20 + seed))
    errors = 0
    for _ in range(8):
        items = [order_item(L, rng.random() < 0.5)
                 for L in rng.sample(CORPUS8, 10)]
        for order in rng.sample(orders, 3):
            items.insert(rng.randrange(len(items) + 1), order)
        first = first_order_error(items)
        if first is None:
            for got, item in zip(core._from_orders(items), items, strict=True):
                assert_same_fields(got, FiniteLattice.from_leq(*item))
            continue
        k, want = first
        with pytest.raises(LatticeError) as got:
            core._from_orders(items)
        assert type(got.value) is type(want) and str(got.value) == str(want)
        assert got.value.spec == k
        errors += 1
    assert errors > 0


def test_square_batch_equals_the_systems_one_at_a_time():
    Ss = [L for L in CORPUS8 if is_modular(L)]
    assert len(Ss) == 67
    for sys, S in zip(square_sublattices(Ss), Ss, strict=True):
        want = square_sublattice(S)
        assert sys.skeleton is S and list(sys.blocks) == list(want.blocks)
        for x, B in sys.blocks.items():
            assert_same_fields(B, want.blocks[x])


def test_square_batch_raises_the_not_modular_the_singles_raise():
    with pytest.raises(NotModular) as want:
        for S in (m3(), n5(), m3()):
            square_sublattice(S)
    with pytest.raises(NotModular) as got:
        square_sublattices([m3(), n5(), m3()])
    assert str(got.value) == str(want.value)
    assert got.value.spec == m3().n  # raised while planning n5, after m3


# -- one stacked product per block size ------------------------------------

def local_system_file(M, path):
    """decompose(M) as a locally connected system file, written from the
    bridge: one disjoint copy of every block, cover maps identifying each
    overlap with itself."""
    dec = decompose(M)
    lio.save(local_system(dec.system)[0], path)
    S = dec.skeleton_lattice
    return S, collections.Counter(dec.blocks[x].n for x in S.elements)


@pytest.mark.parametrize("M, block_sizes", [
    (grid(8, 8), {4: 64}), (product(m3(), chain(16)), None)],
    ids=["grid(8,8)", "M3xC16"])
def test_loading_a_local_system_runs_one_moebius_per_block_size(
        M, block_sizes, tmp_path, monkeypatch):
    path = tmp_path / "local.json"
    S, sizes = local_system_file(M, path)
    calls = []

    def counted(leq, topo, real=core._mobius):
        calls.append(topo.shape)
        return real(leq, topo)
    monkeypatch.setattr(core, "_mobius", counted)
    cs = lio.load(path)
    assert len(cs.blocks) == S.n
    assert block_sizes is None or sizes == block_sizes
    # the skeleton is built alone, then every block size once
    assert calls[0] == (1, S.n)
    assert sorted(calls[1:]) == sorted((m, n) for n, m in sizes.items())
