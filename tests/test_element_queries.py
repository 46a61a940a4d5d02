"""The per-element accessors against a read of the index tables.

Every accessor answers one element query from a lattice's or a system's
frozen tables: `FiniteLattice.leq/lt/join/meet/join_all/meet_all`,
`skeleton.star/plus`, `GluedSystem.zero/one/block_set/blocks_of`,
`sup_via_formulas/inf_via_formulas` and `ConnectedSystem.block_of`.  Each
is checked on every element, pair or block against the table it reads,
with its return type pinned and the returned ids the lattice's or the
carrier's own objects, on the lattices of at most 6 elements, a few
larger shapes, the modular decompositions of at most 7 elements, the glued
fixtures, and copies of them under tuple ids, int ids, and ids 1 and "1"
side by side.  The unknown-id and unhashable-id errors are pinned too."""

import itertools

import numpy as np
import pytest

from latglue.connect import ConnectedSystem, elevate, equivalent, local_system
from latglue.constructions import boolean, chain, enumerate_lattices, \
    fano_lattice, grid, m3, n5, section4_example
from latglue.core import FiniteLattice, LatticeError, UnknownElement, product
from latglue.glue import GluedSystem, inf_via_formulas, sup_via_formulas
from latglue.predicates import is_modular
from latglue.skeleton import _star_plus, decompositions, plus, star
from latglue.suite import glued_fixtures

MISSING = "zzz"


def _renamings(n):
    """Three id renamings of n elements: tuples, ints, and 1 and "1"
    side by side."""
    return {
        "tuple": [(k, "t") for k in range(n)],
        "int": [1000 + 7 * k for k in range(n)],
        "1-and-'1'": [1, "1", *(f"v{k}" for k in range(2, n))][:n],
    }


def _copy(L, ids):
    """L built afresh under ids, the covers naming equal but distinct
    objects, so that an answer taken from the covers would not be the
    lattice's own id."""
    def twin(a):
        if isinstance(a, tuple):
            return tuple(list(a))
        return int(str(a)) if isinstance(a, int) else "".join(list(a))
    return FiniteLattice(list(ids), [(twin(ids[i]), twin(ids[j]))
                                     for i, j in L._cov])


SHAPES = {
    **{f"corpus{k}": L for k, L in enumerate(enumerate_lattices(6))},
    "grid(4,4)": grid(4, 4),
    "boolean(4)": boolean(4),
    "M3xC2": product(m3(), chain(2)),
    "N5": n5(),
    "fano": fano_lattice(),
}
LATTICES = {**SHAPES,
            **{f"{name}-{kind}": _copy(SHAPES[name], ids)
               for name in ("grid(4,4)", "M3xC2", "N5", "fano", "corpus20")
               for kind, ids in _renamings(SHAPES[name].n).items()}}

MODULAR = [L for L in enumerate_lattices(7) if is_modular(L)]


def _system_copy(sys, ids):
    """sys with carrier element g renamed ids[g], in every block."""
    name = dict(zip(sys.carrier(), ids))
    S = sys.skeleton
    return GluedSystem(S, {x: sys.blocks[x]._relabelled(
        [name[a] for a in sys.blocks[x].elements]) for x in S.elements})


_glued = glued_fixtures()
BASE_SYSTEMS = {**_glued,
                **{f"decompose-modular{k}": dec.system
                   for k, dec in enumerate(decompositions(MODULAR))}}
SYSTEMS = {**BASE_SYSTEMS,
           **{f"{name}-{kind}": _system_copy(sys, ids)
              for name in ("fig_3by3", "projective_example",
                           "decompose-modular30")
              for sys in [BASE_SYSTEMS[name]]
              for kind, ids in _renamings(len(sys.carrier())).items()}}


def test_the_inputs_are_the_ones_named():
    assert sum(name.startswith("corpus") for name in SHAPES) == 25
    assert len(MODULAR) == 33
    assert len(_glued) == 14


# -- FiniteLattice and star/plus ----------------------------------------------

@pytest.mark.parametrize("name", LATTICES)
def test_lattice_accessors_read_the_tables(name):
    L = LATTICES[name]
    ids = L.elements
    for i, j in itertools.product(range(L.n), repeat=2):
        a, b = ids[i], ids[j]
        leq, lt = L.leq(a, b), L.lt(a, b)
        assert type(leq) is bool and leq == bool(L._leq[i, j])
        assert type(lt) is bool and lt == (i != j and bool(L._leq[i, j]))
        assert L.join(a, b) is ids[L._join[i, j]]
        assert L.meet(a, b) is ids[L._meet[i, j]]
    assert L.join_all([]) is L.bottom and L.meet_all([]) is L.top
    assert L.join_all(ids) is L.top and L.meet_all(ids) is L.bottom
    for triple in itertools.combinations(range(L.n), 3):
        items = [ids[k] for k in triple]
        j = L._join[L._join[triple[0], triple[1]], triple[2]]
        m = L._meet[L._meet[triple[0], triple[1]], triple[2]]
        assert L.join_all(iter(items)) is ids[j]
        assert L.meet_all(items) is ids[m]
    for k, a in enumerate(ids):
        assert L.up_set(a) == {ids[j] for j in range(L.n) if L._leq[k, j]}
        assert L.down_set(a) == {ids[j] for j in range(L.n) if L._leq[j, k]}


@pytest.mark.parametrize("name", [name for name, L in LATTICES.items()
                                  if is_modular(L)])
def test_star_and_plus_read_the_index_arrays(name):
    M = LATTICES[name]
    st, pl = _star_plus(M)
    for k, a in enumerate(M.elements):
        assert star(M, a) is M.elements[st[k]]
        assert plus(M, a) is M.elements[pl[k]]


@pytest.mark.parametrize("name", ["N5", "fano-1-and-'1'", "M3xC2-tuple"])
def test_lattice_unknown_ids(name):
    L = LATTICES[name]
    a = L.elements[-1]
    for query in (L.leq, L.lt, L.join, L.meet):
        for args, named in (((MISSING, a), MISSING), ((a, "yyy"), "yyy"),
                            ((MISSING, "yyy"), MISSING)):
            with pytest.raises(UnknownElement) as e:
                query(*args)
            assert str(e.value) == repr(named)
        with pytest.raises(TypeError):
            query([], a)
        with pytest.raises(TypeError):
            query(a, [])
    for query in (L.join_all, L.meet_all):
        with pytest.raises(UnknownElement) as e:
            query([a, MISSING, "yyy"])
        assert str(e.value) == repr(MISSING)
    with pytest.raises(UnknownElement):
        L.lt(MISSING, MISSING)  # unknown even when the two ids agree
    if is_modular(L):
        for query in (star, plus):
            with pytest.raises(UnknownElement) as e:
                query(L, MISSING)
            assert str(e.value) == repr(MISSING)


# -- glued systems ------------------------------------------------------------

@pytest.mark.parametrize("name", SYSTEMS)
def test_system_accessors_read_the_tables(name):
    sys = SYSTEMS[name]
    S, m = sys.skeleton, sys._members
    carrier, index, sup, inf = sys._formulas
    assert carrier is sys.carrier() and index is m.index
    for g, h in itertools.product(range(len(carrier)), repeat=2):
        a, b = carrier[g], carrier[h]
        assert sup_via_formulas(sys, a, b) is carrier[sup[g, h]]
        assert inf_via_formulas(sys, a, b) is carrier[inf[g, h]]
    for i, x in enumerate(S.elements):
        assert sys.zero(x) is carrier[m.zero[i]]
        assert sys.one(x) is carrier[m.one[i]]
        got = sys.block_set(x)
        assert type(got) is set
        assert got == {carrier[c] for c in m.rows[m.start[i]:m.start[i + 1]]}
        assert got == set(sys.blocks[x].elements)
    for g, a in enumerate(carrier):
        got = sys.blocks_of(a)
        assert type(got) is list
        want = [S.elements[i] for i in np.flatnonzero(m.B[:, g])]
        assert got == want and all(x is y for x, y in zip(got, want))
        got.append(MISSING)  # a fresh list each call
        assert sys.blocks_of(a) == want


@pytest.mark.parametrize("name", ["fig_3by3", "projective_example-int",
                                  "projective_example-1-and-'1'",
                                  "decompose-modular30-tuple"])
def test_system_unknown_ids(name):
    sys = SYSTEMS[name]
    a = sys.carrier()[-1]
    for query in (sup_via_formulas, inf_via_formulas):
        for args, named in (((MISSING, a), MISSING), ((a, "yyy"), "yyy"),
                            ((MISSING, "yyy"), MISSING)):
            with pytest.raises(UnknownElement) as e:
                query(sys, *args)
            assert str(e.value) == f"{named!r} is in no block"
        with pytest.raises(TypeError):
            query(sys, [], a)
        with pytest.raises(TypeError):
            query(sys, a, [])
    for query in (sys.zero, sys.one, sys.block_set):
        with pytest.raises(UnknownElement) as e:
            query(MISSING)
        assert str(e.value) == repr(MISSING)
        with pytest.raises(TypeError):
            query([])
    assert sys.blocks_of(MISSING) == []
    with pytest.raises(TypeError):
        sys.blocks_of([])


# -- connected systems -------------------------------------------------------

def _connected():
    out = {"section4": section4_example()["connected_system"]}
    for name in ("fig_3by3", "decompose-modular30"):
        out[name] = elevate(local_system(BASE_SYSTEMS[name])[0])
    return out


CONNECTED = _connected()


@pytest.mark.parametrize("name", CONNECTED)
def test_block_of_reads_the_owner_array(name):
    cs = CONNECTED[name]
    assert isinstance(cs, ConnectedSystem)
    rec = cs._identification
    ids = cs.skeleton.elements
    for g, a in enumerate(rec.carrier):
        assert cs.block_of(a) is ids[rec.owner[g]]
        assert a in cs.blocks[cs.block_of(a)]
    for query in (cs.block_of, lambda a: equivalent(cs, a, rec.carrier[0]),
                  lambda a: equivalent(cs, rec.carrier[0], a)):
        with pytest.raises(LatticeError) as e:
            query(MISSING)
        assert type(e.value) is UnknownElement
        assert str(e.value) == f"{MISSING!r} is in no block"
