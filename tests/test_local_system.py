"""The glued→connected bridge `connect.local_system`: connected_sum of its
elevation, renamed back, is the glued sum on the glued fixtures and on
the decompositions of the modular lattices of at most 8 elements, the
grids up to 6×6 and the section 4 sum; one dropped or redirected cover
pair per decomposition is refused by `validate_local` exactly as by the
id-level oracle; copies are named by io's escaped prefix, so
`copies_local_system` no longer merges ids and, on every skeleton it is
called on, builds the systems it built before."""

import random

import pytest

from latglue import connect, io as lio
from latglue.connect import LocalConnectedSystem, connected_sum, elevate, \
    local_system
from latglue.constructions import boolean, chain, copies_local_system, \
    grid, m3, n5, section4_example
from latglue.core import FiniteLattice, LatticeError, product
from latglue.glue import glued_sum
from latglue.predicates import is_modular
from latglue.skeleton import decompose
from latglue.suite import glued_fixtures
from oracles import oracle_copies_local_system
from test_connect import _checked_local
from test_pruned_predicates import CORPUS8

DECOMPOSED = {
    **{f"modular8-{i}": decompose(M).system
       for i, M in enumerate(L for L in CORPUS8 if is_modular(L))},
    **{f"grid({p},{q})": decompose(grid(p, q)).system
       for p in range(1, 7) for q in range(p, 7)},
    "section4": decompose(section4_example()["sum"]).system}
SYSTEMS = {**{f"glued-{name}": sys for name, sys in glued_fixtures().items()},
           **DECOMPOSED}


def test_the_systems_tested():
    assert len(DECOMPOSED) == 89 and len(SYSTEMS) == 89 + 14


@pytest.mark.parametrize("name", SYSTEMS)
def test_the_quotient_of_the_bridge_is_the_glued_sum(name):
    sys = SYSTEMS[name]
    lcs, names = local_system(sys)
    quotient, pis = connected_sum(elevate(lcs))
    back = {}  # each quotient element to the element of sys it copies
    for x in sys.skeleton.elements:
        for a, copy in names[x].items():
            assert back.setdefault(pis[x][copy], a) == a
    got, want = glued_sum(quotient), glued_sum(sys)
    assert len(back) == got.n == want.n
    assert {back[a] for a in got.elements} == set(want.elements)
    assert {(back[a], back[b]) for a, b in got.covers} == set(want.covers)


def test_copies_share_the_tables_and_maps_follow_the_carrier():
    sys = DECOMPOSED["grid(3,4)"]
    S, carrier = sys.skeleton, sys.carrier()
    lcs, names = local_system(sys)
    m = sys._members
    assert lcs._tables == (m.leq, m.join, m.meet)
    for x in S.elements:
        L, copy = sys.blocks[x], lcs.blocks[x]
        assert copy._leq is L._leq and copy._join is L._join
        assert copy.elements == tuple(connect._prefix(x) + a
                                      for a in L.elements)
        assert names[x] == dict(zip(L.elements, copy.elements))
    assert list(lcs.maps) == list(S.covers)
    for (x, y), pairs in lcs.maps.items():
        shared = [a for a in carrier
                  if a in sys.block_set(x) and a in sys.block_set(y)]
        assert list(pairs.items()) == [(names[x][a], names[y][a])
                                       for a in shared]


def _seeded_defects():
    """One cover-map defect per decomposition with a cover and per kind:
    a pair dropped, or its image moved to another element of the upper
    block."""
    out = []
    for name, sys in DECOMPOSED.items():
        lcs = local_system(sys)[0]
        covers = list(lcs.maps)
        if not covers:
            continue
        rng = random.Random(name)
        for kind in ("dropped", "redirected"):
            key = rng.choice(covers)
            m = dict(lcs.maps[key])
            a = rng.choice(list(m))
            if kind == "dropped":
                del m[a]
            else:
                m[a] = rng.choice([c for c in lcs.blocks[key[1]].elements
                                   if c != m[a]])
            out.append((f"{name}-{kind}", LocalConnectedSystem(
                lcs.skeleton, lcs.blocks, {**lcs.maps, key: m})))
    return out


def test_seeded_cover_defects_are_refused_as_the_oracle_refuses_them():
    defects = _seeded_defects()
    refused = [name for name, lcs in defects if _checked_local(lcs)]
    assert len(defects) == 160 and len(refused) >= 150, \
        sorted(set(name for name, _ in defects) - set(refused))


# -- naming ---------------------------------------------------------------------

BLOCK = FiniteLattice(["c", "b:c"], [("c", "b:c")])


@pytest.mark.parametrize("low, high", [("a", "a:b"), ("a\\", "a\\:b")],
                         ids=["colon", "backslash"])
def test_copies_stay_distinct_where_plain_prefixes_merged_them(low, high):
    """Plain `f"{x}:{a}"` names a:b:c (a\\:b:c) twice here."""
    S = FiniteLattice([low, high], [(low, high)])
    plain = oracle_copies_local_system(S, BLOCK)
    assert len({a for L in plain.blocks.values() for a in L.elements}) == 3
    lcs = copies_local_system(S, BLOCK)
    assert len({a for L in lcs.blocks.values() for a in L.elements}) == 4
    quotient, pis = connected_sum(elevate(lcs))
    assert len(quotient.carrier()) == 2


def test_a_block_id_that_is_no_string_is_refused_as_io_refuses_it():
    with pytest.raises(LatticeError, match="^element id 1 is not a string$"):
        copies_local_system(chain(1), FiniteLattice([1, 2], [(1, 2)]))
    doc = {"skeleton": {"elements": ["x"], "covers": []},
           "blocks": {"x": {"elements": [1, 2], "covers": [[1, 2]]}},
           "maps": []}
    with pytest.raises(LatticeError,
                       match="^block 'x': element id 1 is not a string$"):
        lio.connected_from_dict(doc)


# every skeleton and block copies_local_system is called on in the library
# and the tests
CALLS = {"b2": (boolean(2), None), "b3-c2": (boolean(3), chain(2)),
         "b3-m3": (boolean(3), m3()), "n5": (n5(), None),
         "b2-m3": (boolean(2), m3()),
         "m3xc1-m3": (product(m3(), chain(1)), m3()),
         "two-by-three-c2": (FiniteLattice(
             ["00", "10", "01", "11", "02", "12"],
             [("00", "10"), ("00", "01"), ("10", "11"), ("01", "11"),
              ("01", "02"), ("11", "12"), ("02", "12")]), chain(2))}


@pytest.mark.parametrize("name", CALLS)
def test_copies_are_the_plainly_named_copies_on_every_call(name):
    S, block = CALLS[name]
    got = copies_local_system(S, block)
    want = oracle_copies_local_system(S, chain(1) if block is None else block)
    for x in S.elements:
        assert got.blocks[x].elements == want.blocks[x].elements
        assert got.blocks[x].covers == want.blocks[x].covers
    assert list(got.maps) == list(want.maps)
    for key, m in want.maps.items():
        assert list(got.maps[key].items()) == list(m.items())

