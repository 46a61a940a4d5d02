"""The staircase sup/inf tables against the closure order and against the
maximal-chain walker they replaced (kept in `oracles`): equal answers on
valid systems, and on the seeded (A1)/(A2) mutants either the walker's
answers or InvariantViolated, never another answer.  Also the table-based
`zero_one_maps`, `corollary_54_check`, `check_star` and homomorphism test
against their id-level loops."""

import random

import pytest

from latglue import glue, hom
from latglue.constructions import distributive_with_skeleton, \
    enumerate_lattices, grid, square_sublattice
from latglue.core import InvariantViolated, UnknownElement, product
from latglue.glue import glued_sum, inf_via_formulas, sup_via_formulas, \
    zero_one_maps
from latglue.hom import LatticeHom, check_star, corollary_54_check
from latglue.predicates import is_modular
from latglue.skeleton import decompose
from latglue.suite import _formulas_match, glued_fixtures, \
    hom_family_fixtures
from oracles import oracle_check_star, oracle_corollary_54_check, \
    oracle_inf_via_formulas, oracle_sup_via_formulas, \
    oracle_unpreserved_pair, oracle_zero_one_maps
from test_derived_skeleton import MUTANTS, VALID

CORPUS = list(enumerate_lattices(8))
MODULAR = [L for L in CORPUS if is_modular(L)]
SMALL_MODULAR = [S for S in MODULAR if S.n <= 7]
SYSTEMS = {**{f"glued-{name}": sys for name, sys in glued_fixtures().items()},
           **{f"decompose-{i}": decompose(M).system
              for i, M in enumerate(MODULAR)}}


def test_the_corpora_are_the_suites():
    assert len(MODULAR) == 67 and len(SMALL_MODULAR) == 33
    assert len(SYSTEMS) == 14 + 67
    assert len(MUTANTS) == 340


def _walker_pairs(sys):
    """All carrier pairs, or, when the carrier is larger than 100, those
    whose first element is one of 12 seeded picks (the walker takes about
    20 µs a query)."""
    carrier = sys.carrier()
    firsts = carrier
    if len(carrier) > 100:
        firsts = random.Random(len(carrier)).sample(carrier, 12)
    return [(a, b) for a in firsts for b in carrier]


def _agrees_with_walker(sys, pairs):
    for a, b in pairs:
        assert sup_via_formulas(sys, a, b) == oracle_sup_via_formulas(sys, a, b)
        assert inf_via_formulas(sys, a, b) == oracle_inf_via_formulas(sys, a, b)


@pytest.mark.parametrize("name", sorted(SYSTEMS) + sorted(VALID))
def test_tables_are_the_sums_join_and_meet(name):
    sys = SYSTEMS.get(name) or VALID[name]
    L = glued_sum(sys)
    assert set(sys.carrier()) == set(L.elements)
    for a in L.elements:
        for b in L.elements:
            assert sup_via_formulas(sys, a, b) == L.join(a, b)
            assert inf_via_formulas(sys, a, b) == L.meet(a, b)
    assert _formulas_match(sys, L)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_tables_match_the_chain_walker(name):
    sys = SYSTEMS[name]
    _agrees_with_walker(sys, _walker_pairs(sys))


@pytest.mark.parametrize("name, kind, x, y, sys", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutants_match_the_walker_or_are_refused(name, kind, x, y, sys):
    try:
        sys._formulas
    except InvariantViolated as e:
        assert e.witness[0] in sys.skeleton and e.witness[1] in sys.skeleton
        return
    _agrees_with_walker(sys, _walker_pairs(sys))


def test_formulas_match_sees_a_wrong_entry():
    sys = decompose(grid(3, 3)).system
    carrier, index, sup, inf = sys._formulas
    assert _formulas_match(sys)
    # a lattice with the carrier as a sublattice and more, or less of it
    assert not _formulas_match(sys, grid(3, 4))
    assert not _formulas_match(sys, grid(2, 2))
    sup[index["0,0"], index["1,1"]] = index["2,2"]
    assert not _formulas_match(sys)


MUTANT = {m[0]: m[4] for m in MUTANTS}


def test_step_leaving_the_upper_block_raises_with_witness():
    # the new element below 1_1 in L_1 is also above 0_2, so the step
    # from block 1 to block 2 lands on it, and it is not in L_2
    sys = MUTANT["note3-not-filter-1-2"]
    new = ("new", "ab", "1")
    with pytest.raises(InvariantViolated,
                       match="sup staircase step leaves its cover's blocks") as e:
        sup_via_formulas(sys, "0", "0")
    assert e.value.witness == ("1", "2", new)
    assert new in sys.block_set("1") and new not in sys.block_set("2")


def test_cover_whose_lower_block_lacks_the_upper_zero_raises():
    name = next(m[0] for m in MUTANTS if m[1] == "zero-outside")
    sys = MUTANT[name]
    with pytest.raises(InvariantViolated, match="step leaves") as e:
        inf_via_formulas(sys, *sys.carrier()[:2])
    x, c, end = e.value.witness
    assert sys.skeleton.covers and (x, c) in set(sys.skeleton.covers)
    assert end == sys.zero(c) and end not in sys.block_set(x)


@pytest.mark.parametrize("query", [sup_via_formulas, inf_via_formulas])
def test_an_element_outside_every_block_is_named(query):
    sys = decompose(grid(8, 8)).system
    with pytest.raises(UnknownElement, match="'zzz' is in no block"):
        query(sys, "zzz", "0,0")
    with pytest.raises(UnknownElement, match="'zzz' is in no block"):
        query(sys, "0,0", "zzz")


def test_blocks_are_read_only_and_tables_built_once(monkeypatch):
    built = []

    def counted(sys, real=glue._formula_tables):
        built.append(sys)
        return real(sys)
    monkeypatch.setattr(glue, "_formula_tables", counted)
    sys = decompose(grid(3, 3)).system
    with pytest.raises(TypeError):
        sys.blocks["0,0"] = grid(1, 1)
    for a in sys.carrier():
        sup_via_formulas(sys, a, "0,0")
        inf_via_formulas(sys, "3,3", a)
    zero_one_maps(sys)
    assert built == [sys]


# -- the all-pairs loops replaced by one comparison ----------------------------

@pytest.mark.parametrize("i", range(len(SMALL_MODULAR)))
def test_zero_one_maps_and_corollary_54_match_the_loops(i):
    S = SMALL_MODULAR[i]
    sys = square_sublattice(S)
    assert zero_one_maps(sys) == oracle_zero_one_maps(sys)
    host = product(S, S)
    assert corollary_54_check(sys, host) is oracle_corollary_54_check(sys, host)
    assert corollary_54_check(sys, host)
    dual = host.dual()
    assert corollary_54_check(sys, dual) is oracle_corollary_54_check(sys, dual)


SMALL = [S for S in CORPUS if S.n <= 5]


def _identity_family(sys, host):
    return {x: LatticeHom(sys.blocks[x], host,
                          {a: a for a in sys.blocks[x].elements})
            for x in sys.skeleton.elements}


@pytest.mark.parametrize("i", range(len(SMALL)))
def test_star_and_corollary_54_over_any_skeleton_match_the_loops(i):
    sys = distributive_with_skeleton(SMALL[i])
    assert zero_one_maps(sys) == oracle_zero_one_maps(sys)
    host = glued_sum(sys)
    for h in (host, host.dual()):
        assert corollary_54_check(sys, h) is oracle_corollary_54_check(sys, h)
        fam = _identity_family(sys, h)
        assert check_star(sys, fam) is oracle_check_star(sys, fam)


def test_star_and_glued_maps_on_the_suites_families_match_the_loops():
    for sys, fam, host in hom_family_fixtures().values():
        assert check_star(sys, fam) is oracle_check_star(sys, fam)
        for h in fam.values():
            assert hom._unpreserved_pair(h) == oracle_unpreserved_pair(h)


@pytest.mark.parametrize("seed", range(40))
def test_unpreserved_pair_matches_the_loop_on_random_maps(seed):
    rng = random.Random(seed)
    L, M = rng.choice(CORPUS[:80]), rng.choice(CORPUS[:80])
    # a random map, and one that sends a random up-set to 1 and the rest
    # to 0 (a homomorphism onto the two-element chain exactly when the
    # up-set is a prime filter)
    up = L.up_set(rng.choice(L.elements))
    for m in ({a: rng.choice(M.elements) for a in L.elements},
              {a: M.top if a in up else M.bottom for a in L.elements}):
        h = LatticeHom(L, M, m)
        assert hom._unpreserved_pair(h) == oracle_unpreserved_pair(h)
