"""The facts about overlaps that `validate` proves from (A1)-(A4) instead
of checking them (see its docstring), checked by the id-level oracles
`oracle_overlap_shape` and `oracle_block_operations` on every system
`validate` accepts: a seeded family of small systems, most of which it
refuses, the modular decompositions of the 8-element corpus and the
quotients of the connected fixtures."""

import random

import pytest

from latglue.connect import connected_sum, elevate
from latglue.constructions import boolean, chain, enumerate_lattices, grid, \
    m3, n5
from latglue.glue import GluedSystem, validate
from latglue.predicates import is_modular
from latglue.skeleton import decompose
from latglue.suite import connected_fixtures
from oracles import oracle_block_operations, oracle_membership, \
    oracle_overlap_shape

SKELETONS = (chain(1), chain(2), boolean(2), m3(), n5(), grid(1, 2))
BLOCKS = list(enumerate_lattices(5))


def seeded_systems(count, seed):
    """`count` seeded systems: a skeleton from SKELETONS, and for each of
    its elements a lattice of at most 5 elements renamed into one pool of
    3 to 9 ids.  Blocks that share ids overlap.  A block keeps the pool's
    order (the corpus lists elements in a linear extension), so no two
    blocks order a pair oppositely and more systems are accepted."""
    rng = random.Random(seed)
    for _ in range(count):
        S = rng.choice(SKELETONS)
        pool = [f"p{i}" for i in range(rng.randrange(3, 10))]
        fit = [L for L in BLOCKS if L.n <= len(pool)]
        blocks = {}
        for x in S.elements:
            L = rng.choice(fit)
            picked = sorted(rng.sample(range(len(pool)), L.n))
            blocks[x] = L._relabelled([pool[i] for i in picked])
        yield GluedSystem(S, blocks)


def family_outcome(count, seed):
    """The accepted systems of `seeded_systems` that an oracle refuses,
    each with what the two oracles found, the number `validate` accepts
    and the number the overlap-shape oracle refuses."""
    failed, accepted, refused = [], 0, 0
    for sys in seeded_systems(count, seed):
        shape = oracle_overlap_shape(sys)
        refused += shape is not None
        if not validate(sys):
            accepted += 1
            ops = oracle_block_operations(sys, *oracle_membership(sys))
            if shape is not None or ops is not None:
                failed.append((sys, shape, ops))
    return failed, accepted, refused


def test_every_accepted_system_of_the_seeded_family_has_the_overlap_shapes():
    failed, accepted, refused = family_outcome(5000, seed=0)
    assert failed == []
    assert accepted >= 100 and refused >= 1000


OTHERS = {f"decompose-{i}": decompose(M).system
          for i, M in enumerate(enumerate_lattices(8)) if is_modular(M)}
OTHERS.update((f"quotient-{name}", connected_sum(elevate(lcs))[0])
              for name, lcs in connected_fixtures().items())


@pytest.mark.parametrize("name", sorted(OTHERS))
def test_decompositions_and_quotients_have_the_overlap_shapes(name):
    sys = OTHERS[name]
    assert validate(sys) == []
    assert oracle_overlap_shape(sys) is None
    assert oracle_block_operations(sys, *oracle_membership(sys)) is None
