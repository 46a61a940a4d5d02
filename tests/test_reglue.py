"""The round trip by two containments and the sum built once per system.

`SkeletonDecomposition.reglues()` compares the union of the block orders
with the source's order and covers, without a closure or a sum; here it
is checked against the oracle that builds the sum, on the modular
lattices of at most 8 elements and the shapes `latglue skeleton` is
benchmarked on, with the true source and with sources and systems that
must not reglue.  `glued_sum` builds a system's sum once and keeps it on
the system, and a suite run builds each system's sum once."""

import random

import pytest

from latglue import glue, suite
from latglue.connect import connected_sum
from latglue.constructions import fig_3by3_system, grid, section4_example
from latglue.core import FiniteLattice
from latglue.glue import GluedSystem, glued_sum
from latglue.skeleton import SkeletonDecomposition, decompose
from oracles import oracle_reglues
from test_sliced_decompose import LATTICES


def with_source(dec, source):
    return SkeletonDecomposition(source, dec.skeleton_set, dec.skeleton_lattice,
                                 dec.blocks, dec.system, dec.dual_skeleton)


def with_blocks(dec, blocks):
    sys = GluedSystem(dec.skeleton_lattice, blocks)
    return SkeletonDecomposition(dec.source, dec.skeleton_set,
                                 dec.skeleton_lattice, sys.blocks, sys,
                                 dec.dual_skeleton)


def swapped(M, i, j):
    """M with the ids of elements i and j exchanged."""
    ids = list(M.elements)
    ids[i], ids[j] = ids[j], ids[i]
    return M._relabelled(ids)


def as_chain(L):
    """A linear extension of L, as a chain on its elements."""
    ext = sorted(L.elements, key=L.height)
    return FiniteLattice(ext, list(zip(ext, ext[1:])))


def is_chain(L):
    return L.length() == L.n - 1


def perturbed(name, M):
    """The decomposition of M with its true source, then variants, by
    kind, each with whether it must reglue (None: the oracle decides)."""
    dec = decompose(M)
    rng = random.Random(name)
    out = {"true": (dec, True)}
    if M.n < 2:
        return out
    out["swap-0-1"] = (with_source(dec, swapped(M, M._bot, M._top)), False)
    i, j = rng.sample(range(M.n), 2)
    out["swap-random"] = (with_source(dec, swapped(M, i, j)), None)
    # the carrier lacks the top: it is renamed, or cut off with a coatom
    ids = list(M.elements)
    ids[M._top] = ("not", ids[M._top])
    out["renamed-top"] = (with_source(dec, M._relabelled(ids)), False)
    coatom = M._ids[M._down_adj[M._top][0]]
    out["coatom-interval"] = (
        with_source(dec, M.interval(M.bottom, coatom).lattice), False)
    # a chain on the same carrier: the block orders lie in it, its covers
    # between incomparable elements of M are in none of them
    out["linear-extension"] = (with_source(dec, as_chain(M)), is_chain(M))
    # the largest block reversed, or made a chain: the union of the block
    # orders leaves M's order, though in the chain's case it still holds
    # every cover of M
    x = max(dec.skeleton_lattice.elements, key=lambda x: dec.blocks[x].n)
    B = dec.blocks[x]
    out["dual-block"] = (with_blocks(dec, {**dec.blocks, x: B.dual()}), False)
    out["chain-block"] = (with_blocks(dec, {**dec.blocks, x: as_chain(B)}),
                          is_chain(B))
    return out


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_reglues_matches_the_oracle_on_perturbed_sources(name):
    for kind, (dec, want) in perturbed(name, LATTICES[name]).items():
        got = dec.reglues()
        assert got is oracle_reglues(dec), kind
        if want is not None:
            assert got is want, kind


def test_reglues_refuses_a_dual_source_and_a_swapped_one():
    M = grid(3, 3)
    dec = decompose(M)
    assert dec.reglues() is True
    assert with_source(dec, M.dual()).reglues() is False
    assert with_source(dec, swapped(M, 0, 1)).reglues() is False


def test_reglues_takes_no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a closure was taken")

    monkeypatch.setattr(glue, "order_closure", refuse)
    monkeypatch.setattr(glue, "_transitive_closure", refuse)
    assert decompose(grid(6, 7)).reglues() is True


# -- one sum per system --------------------------------------------------------

def quotient():
    return connected_sum(section4_example()["connected_system"])[0]


@pytest.mark.parametrize("make", [fig_3by3_system,
                                  lambda: decompose(grid(3, 3)).system,
                                  quotient],
                         ids=["hand-made", "sliced", "quotient"])
def test_the_sum_is_built_once_and_kept(make, monkeypatch):
    calls = []
    real = glue.order_closure

    def counted(sys):  # the sum's closure: one per build
        calls.append(sys)
        return real(sys)
    monkeypatch.setattr(glue, "order_closure", counted)
    sys = make()
    assert glued_sum(sys) is glued_sum(sys)
    assert sum(c is sys for c in calls) == 1


def test_a_suite_run_builds_each_sum_once(monkeypatch):
    calls = []
    real = glue.order_closure

    def counted(sys):  # the sum's closure: one per build
        calls.append(sys)  # kept alive, so no two share an id
        return real(sys)
    monkeypatch.setattr(glue, "order_closure", counted)
    ok, _ = suite.run_suite(7, emit=lambda line: None)
    assert ok
    assert calls and len({id(sys) for sys in calls}) == len(calls)
