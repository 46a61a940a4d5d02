"""Connected systems are checked once: `connected_sum` and `equivalent`
read the system's verdict, validate_connected's list, and prove the rest
from (17)-(20δ) (see `connected_sum`'s docstring).  On a seeded family of
small connected systems, every one the check accepts gives the id-level
oracle's quotient and projections and one identification relation
((ii) = (iv) on every pair), and neither function raises on it; every one
it refuses, both refuse with its list.  Among the refused systems are some
refused for (18) alone, for (19) alone and for (20)/(20δ) alone whose
oracle quotient or clash check fails: each condition the proof uses is
needed."""

import random

from latglue.connect import ConnectedSystem, connected_sum, equivalent
from latglue.constructions import boolean, chain, enumerate_lattices, grid, \
    m3, n5
from latglue.core import LatticeError
from oracles import oracle_connected_sum, oracle_equiv_matrices

SKELETONS = (chain(1), chain(2), boolean(2), m3(), n5(), grid(1, 2))
BLOCKS = list(enumerate_lattices(4))


def _ranked(L):
    return sorted(L.elements, key=L.height)


def _random_map(Lx, Ly, rng):
    """Mostly, when both blocks are chains, a rank-shifted identity: the
    element of rank r to that of rank r - s in L_y, for a shift s that
    keeps the domain a filter; otherwise a random injective partial map.
    Empty one time in twenty."""
    if rng.random() < 0.05:
        return {}
    if Lx.length() == Lx.n - 1 and Ly.length() == Ly.n - 1 \
            and rng.random() < 0.85:
        s = rng.randrange(max(0, Lx.n - Ly.n), Lx.n)
        src, dst = _ranked(Lx), _ranked(Ly)
        return {src[r]: dst[r - s] for r in range(s, Lx.n)}
    k = rng.randint(1, min(Lx.n, Ly.n))
    return dict(zip(rng.sample(Lx.elements, k), rng.sample(Ly.elements, k)))


def seeded_systems(count, seed):
    """`count` seeded connected systems: a skeleton from SKELETONS, for
    each of its elements a lattice of at most 4 elements under ids of its
    own, a random map (`_random_map`) on each cover, and on each other
    pair x < y, taken by growing height difference, the composition
    φ(c, y) ∘ φ(x, c) through a random upper cover c of x below y, or,
    one time in ten, a random map of its own."""
    rng = random.Random(seed)
    for _ in range(count):
        S = rng.choice(SKELETONS)
        blocks = {x: L._relabelled([f"{i}:{a}" for a in L.elements])
                  for i, (x, L) in enumerate(
                      (x, rng.choice(BLOCKS)) for x in S.elements)}
        maps = {}
        pairs = sorted(((x, y) for x in S.elements for y in S.elements
                        if S.lt(x, y)),
                       key=lambda p: S.height(p[1]) - S.height(p[0]))
        for x, y in pairs:
            ups = sorted(c for c in S.upper_covers(x) if S.leq(c, y))
            if y in ups or rng.random() < 0.1:
                m = _random_map(blocks[x], blocks[y], rng)
            else:
                c = rng.choice(ups)
                inner, outer = maps.get((x, c), {}), maps.get((c, y), {})
                m = {a: outer[b] for a, b in inner.items() if b in outer}
            if m:
                maps[(x, y)] = m
        yield ConnectedSystem(S, blocks, maps)


def _oracle_fails(cs):
    """Does the oracle quotient raise, or (ii) differ from (iv) somewhere?"""
    try:
        oracle_connected_sum(cs)
    except LatticeError:
        return True
    want = oracle_equiv_matrices(cs)
    return bool((want[1] != want[3]).any())


def _same_as_oracle(cs):
    """Does an accepted system give the oracle's quotient and projections,
    and (ii) = (iv) on every pair, with equivalent answering (ii)?"""
    (got, pis), (want, pis0) = connected_sum(cs), oracle_connected_sum(cs)
    if pis != pis0 or any(
            (got.blocks[x].elements, got.blocks[x].covers)
            != (want.blocks[x].elements, want.blocks[x].covers)
            for x in cs.skeleton.elements):
        return False
    rel = oracle_equiv_matrices(cs)
    carrier = cs._identification.carrier
    return bool((rel[1] == rel[3]).all()) and [
        [equivalent(cs, a, b) for b in carrier] for a in carrier] \
        == rel[1].tolist()


ALONE = {"18": {"18"}, "19": {"19"}, "20": {"20", "20d"}}


def family_outcome(count, seed):
    """The family's verdicts: (failed, accepted, alone), where `failed`
    lists the systems on which connected_sum or equivalent disagree with
    the check or the oracles (an accepted system unlike the oracle, a
    refused one not refused with the check's list), accepted counts the
    accepted systems over a chain and over a skeleton with incomparable
    elements, and alone[k] counts the systems refused for the conditions
    ALONE[k] only, as (refused, of them failing the oracle quotient or
    clash check)."""
    failed, accepted = [], [0, 0]
    alone = {k: [0, 0] for k in ALONE}
    for cs in seeded_systems(count, seed):
        bad = cs._violations  # validate_connected(cs), kept on cs
        if not bad:
            S = cs.skeleton
            accepted[S.length() < S.n - 1] += 1
            try:
                if not _same_as_oracle(cs):
                    failed.append(cs)
            except LatticeError as e:
                failed.append((cs, str(e)))
            continue
        refusal = f"invalid connected system: {bad}"
        a = cs.blocks[cs.skeleton.bottom].bottom
        for fn, args in ((connected_sum, ()), (equivalent, (a, a))):
            try:
                fn(cs, *args)
                failed.append((cs, fn.__name__))
            except LatticeError as e:
                if str(e) != refusal:
                    failed.append((cs, str(e)))
        conditions = {v.condition for v in bad}
        for k, only in ALONE.items():
            if conditions <= only:
                alone[k][0] += 1
                alone[k][1] += _oracle_fails(cs)
    return failed, accepted, alone


def test_the_check_is_the_only_gate_on_the_seeded_family():
    """Seed 0 accepts 653 systems over chains and 43 over the other
    skeletons, and refuses 63 for (18) alone, 116 for (19) alone and 78
    for (20)/(20δ) alone; the oracles fail on all but one of these."""
    failed, accepted, alone = family_outcome(4000, seed=0)
    assert failed == []
    assert accepted[0] >= 400 and accepted[1] >= 25, accepted
    assert all(hit >= 40 for _, hit in alone.values()), alone
