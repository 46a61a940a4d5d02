"""A family decomposed in one pass (`skeleton.decompositions`) checked
against the per-lattice decomposition it replaced, kept in `oracles` as
`oracle_decompose_one`: field by field on the modular lattices of at most
8 elements, the shapes `latglue skeleton` is benchmarked on and the sums of
the square systems, each as one family.  Errors: a family raises what
decomposing its lattices one at a time raises first, with `spec`, on
non-modular lattices and on lattices and systems with forged tables.  The
family forms of `validate` and of the glued sum against their oracles."""

import random

import numpy as np
import pytest

from latglue import core, skeleton
from latglue.constructions import m3, n5, square_sublattices
from latglue.core import LatticeError
from latglue.glue import GluedSystem, glued_sums, validations
from latglue.predicates import NotModular, is_modular
from latglue.skeleton import decompose, decompositions
from oracles import oracle_decompose_one, oracle_glue_violations, \
    oracle_glued_sum, oracle_validate_one
from test_derived_skeleton import CLOSURE, assert_same_lattice, sweep_shapes
from test_least_bounds import corrupted
from test_overlap_shape import seeded_systems
from test_pruned_predicates import CORPUS8
from test_sliced_decompose import assert_same_members

MODULAR8 = [L for L in CORPUS8 if is_modular(L)]
SQUARE_SUMS = glued_sums(square_sublattices(MODULAR8))
FAMILIES = {"modular8": MODULAR8, "sweep": list(sweep_shapes().values()),
            "square-sums": SQUARE_SUMS}


def fresh(L):
    """L as a new object, which shares its tables and a* and a⁺ but keeps
    no S(M), so that S(M) is built again."""
    return L._relabelled(L.elements)


def test_the_families_are_complete():
    assert [len(F) for F in FAMILIES.values()] == [67, 34, 67]


def assert_same_decomposition(got, want):
    assert got.source is want.source
    assert got.skeleton_set == want.skeleton_set
    assert got.dual_skeleton == want.dual_skeleton
    assert_same_lattice(got.skeleton_lattice, want.skeleton_lattice)
    assert list(got.blocks) == list(want.blocks)
    for x in want.blocks:
        assert_same_lattice(got.blocks[x], want.blocks[x])
    assert got.system.carrier() == want.system.carrier()
    assert_same_members(got.system._members, want.system)
    assert got.reglues() is want.reglues() is True


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_family_decomposes_as_its_lattices_one_at_a_time(name):
    Ms = [fresh(L) for L in FAMILIES[name]]
    got = decompositions(Ms)
    assert len(got) == len(Ms)
    for dec, M in zip(got, Ms):
        assert_same_decomposition(dec, oracle_decompose_one(M))
    systems = [dec.system for dec in got]
    assert validations(systems) == [oracle_validate_one(s) for s in systems] \
        == [[]] * len(Ms)


def test_a_family_shares_the_skeleton_kept_on_each_lattice():
    Ms = [fresh(L) for L in MODULAR8[:20]]
    got = decompositions(Ms)
    for M, dec in zip(Ms, got):
        assert skeleton.skeleton_lattice(M) is dec.skeleton_lattice
        assert decompose(M).skeleton_lattice is dec.skeleton_lattice
    # a relabelled copy shares a* and a⁺ but builds its own S(M)
    copy = fresh(Ms[-1])
    assert skeleton._star_plus(copy) is skeleton._star_plus(Ms[-1])
    assert skeleton.skeleton_lattice(copy) is not got[-1].skeleton_lattice


def test_the_empty_family_has_no_decompositions():
    assert decompositions([]) == [] and validations([]) == []


def test_a_non_modular_lattice_is_refused_with_its_index():
    with pytest.raises(NotModular) as e:
        decompositions([m3(), n5(), m3()])
    assert e.value.spec == 1
    assert str(e.value) == "skeleton operations are defined for modular lattices"


def outcome(run):
    """(type, text, witness, spec) of what run() raises, or None."""
    try:
        run()
    except LatticeError as e:
        return (type(e).__name__, str(e), getattr(e, "witness", None),
                getattr(e, "spec", None))
    return None


def forged(M, rng):
    """A copy of M with one join or meet entry, and maybe its mirror,
    moved to another element; it keeps no a*, a⁺ or S(M), and half of
    the copies keep M's modularity, so that they pass that check and fail
    a later one."""
    L = fresh(M)
    vars(L).pop("_star_plus", None)
    if rng.random() < 0.5:
        vars(L).pop("_modular", None)
    op = rng.choice(["_join", "_meet"])
    table = getattr(L, op).copy()
    a, b = rng.randrange(L.n), rng.randrange(L.n)
    table[a, b] = rng.choice([c for c in range(L.n) if c != table[a, b]])
    if rng.random() < 0.5:
        table[b, a] = table[a, b]
    setattr(L, op, table)
    return L


# the oracle's cut still checks closure and bounds, which `decompose`'s cut
# has by proof (`glue._sliced_blocks`): only a forged table fails them, and
# `decompose` then raises at a later stage or not at all
CUT_CHECKS = ("subset is not closed under", "block is not bounded by its ends")


def first_single_error(Ms):
    """What decomposing Ms one at a time raises first, with the index of
    its lattice, or None.  Each lattice's error is also the oracle's,
    unless the oracle's cut refuses a block."""
    for k, M in enumerate(Ms):
        got, want = (outcome(lambda: run(fresh(M)))
                     for run in (decompose, oracle_decompose_one))
        if want is None or not want[1].startswith(CUT_CHECKS):
            assert (got and got[:3]) == (want and want[:3])
        if got is not None:
            return (*got[:3], k)
    return None


def test_a_family_raises_what_its_lattices_one_at_a_time_raise_first(
        monkeypatch):
    """Seeded families of valid, non-modular and forged lattices: the
    family raises the first error the singles raise, also where a later
    lattice fails an earlier stage than the one the first error comes
    from, so that the family pass first meets the later lattice's."""
    met = []
    real = skeleton._decompositions

    def logged(Ms):
        try:
            return real(Ms)
        except LatticeError as e:
            met.append(e.spec)
            raise
    monkeypatch.setattr(skeleton, "_decompositions", logged)
    rng = random.Random(5)
    pool = [L for L in MODULAR8 if L.n > 2] + list(sweep_shapes().values())[:8]
    kinds, later = set(), 0
    for _ in range(300):
        family = []
        for _ in range(rng.randrange(1, 6)):
            r = rng.random()
            family.append(n5() if r < 0.1 else forged(rng.choice(pool), rng)
                          if r < 0.6 else fresh(rng.choice(pool)))
        want = first_single_error(family)
        met.clear()
        got = outcome(lambda: decompositions(family))
        assert got == want
        if want is not None:
            kinds.add(want[1].split(":")[0])
            later += met[0] > want[3]
            assert got == (*outcome(lambda: decompose(family[want[3]]))[:3],
                           want[3])
    # all but one of the six kinds: the cut's closure checks no longer raise
    assert len(kinds) >= 5 and later >= 10, (kinds, later)


def test_a_forged_block_table_in_a_family_raises_as_it_does_alone():
    """Systems with one block's table forged (`test_least_bounds.corrupted`)
    in the middle of a family of decompositions: the family check raises
    what checking the forged system alone raises, with its index."""
    rng = random.Random(3)
    systems = [decompose(M).system for M in MODULAR8
               if len(skeleton.skeleton_set(M)) > 2]
    raised = 0
    for _ in range(200):
        made = corrupted(rng.choice(systems), rng)
        if made is None:
            continue
        bad = made[0]
        alone = outcome(lambda: skeleton._check_decompositions([bad]))
        family = [rng.choice(systems), bad, rng.choice(systems)]
        got = outcome(lambda: skeleton._check_decompositions(family))
        if alone is None:
            assert got is None
        else:
            raised += 1
            assert got == (*alone[:3], 1)
            assert alone[1].startswith("decomposition violates the glue axioms")
    assert raised >= 10


def test_family_validate_lists_what_the_per_pair_oracle_lists():
    systems = list(seeded_systems(5000, seed=0))
    got = validations(systems)
    assert got == [oracle_glue_violations(s) for s in systems]
    assert sum(not bad for bad in got) >= 100


def test_glued_sums_build_and_refuse_as_the_oracle_one_at_a_time():
    """Seeded families of the systems whose closure the derived-skeleton
    tests check, six of whose sums are refused, drawn more often: the sums
    equal the oracle's, and a family raises the NotALattice the oracle
    raises first, with its index.  Each system is copied, so that no sum
    is kept from before."""
    names = sorted(CLOSURE)
    refusing = [name for name in names
                if outcome(lambda: oracle_glued_sum(CLOSURE[name])) is not None]
    assert len(refusing) == 6
    rng = random.Random(8)
    refused = 0
    for _ in range(60):
        family = [GluedSystem(sys.skeleton, dict(sys.blocks)) for sys in
                  (CLOSURE[rng.choice(refusing if rng.random() < 0.2 else names)]
                   for _ in range(rng.randrange(1, 5)))]
        want = None
        for k, sys in enumerate(family):
            got = outcome(lambda: oracle_glued_sum(sys))
            if got is not None:
                want = (*got[:3], k)
                break
        got = outcome(lambda: glued_sums(family))
        assert got == want
        if want is None:
            for sys, L in zip(family, glued_sums(family)):
                assert sys._sum is L
                assert_same_lattice(L, oracle_glued_sum(sys))
        else:
            refused += 1
    assert refused >= 10


def test_square_sums_are_built_in_one_batch(monkeypatch):
    calls = []
    real = core._least_bounds

    def counted(leq, topo):
        calls.append(len(leq))
        return real(leq, topo)
    monkeypatch.setattr(core, "_least_bounds", counted)
    systems = square_sublattices(MODULAR8)
    calls.clear()
    sums = glued_sums(systems)
    assert sum(calls) == len(sums) == 67
    assert len(calls) == len({L.n for L in sums})
    assert glued_sums(systems) == sums and sum(calls) == 67  # kept
    for sys, L in zip(systems, sums):
        np.testing.assert_array_equal(L._leq, oracle_glued_sum(sys)._leq)
