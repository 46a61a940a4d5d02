"""Connected systems: the connection conditions, the identification
relation, the quotient construction, and local systems over modular
skeletons."""

import random

import numpy as np
import pytest

from oracles import maximal_chains, oracle_connected_check, \
    oracle_connected_sum, oracle_elevate, oracle_equiv_criteria, \
    oracle_equiv_matrices, oracle_equivalent, oracle_not_an_equivalence, \
    oracle_validate_connected, oracle_validate_local
from latglue import connect
from latglue.connect import ConnectedSystem, LocalConnectedSystem, \
    NotModularSkeleton, _map_tensor, connected_sum, elevate, equivalent, \
    local_system, validate_connected, validate_local
from latglue.constructions import boolean, chain, copies_local_system, \
    grid, m3, n5, section4_example
from latglue.core import FiniteLattice, LatticeError, UnknownElement, \
    product
from latglue.skeleton import decompose
from latglue.glue import glued_sum, validate as glue_validate
from latglue.hom import LatticeHom, is_homomorphism, is_injective
from latglue.suite import _criteria, _not_an_equivalence, check_connected, \
    connected_fixtures


@pytest.fixture(scope="module")
def example():
    return section4_example()


def _copy(L, prefix):
    return FiniteLattice([f"{prefix}:{a}" for a in L.elements],
                         [(f"{prefix}:{a}", f"{prefix}:{b}")
                          for a, b in L.covers])


def _checked_validate(cs):
    """validate_connected, required equal to the id-level oracle."""
    bad = validate_connected(cs)
    assert bad == oracle_validate_connected(cs)
    return bad


def _checked_local(lcs):
    """validate_local, required equal to the id-level oracle."""
    bad = validate_local(lcs)
    assert bad == oracle_validate_local(lcs)
    return bad


def _outcome(fn, *args):
    """What fn returns, or the class and text of the LatticeError it raises."""
    try:
        return fn(*args)
    except LatticeError as e:
        return type(e), str(e)


def _same_quotient(got, want):
    """connected_sum results agree: projections, block elements and covers
    (or the same error)."""
    if isinstance(want[0], type):
        assert got == want
        return
    (gsys, pis), (gsys0, pis0) = got, want
    assert pis == pis0
    for x in gsys0.skeleton.elements:
        assert gsys.blocks[x].elements == gsys0.blocks[x].elements
        assert gsys.blocks[x].covers == gsys0.blocks[x].covers


def _refusal(bad):
    """What connected_sum and equivalent raise on a system whose check
    lists `bad`, as `_outcome` gives it."""
    return LatticeError, f"invalid connected system: {bad}"


def _checked_sum(cs):
    """connected_sum: refused with the check's list when validate_connected
    refuses cs, and otherwise the id-level oracle's quotient."""
    got = _outcome(connected_sum, cs)
    bad = validate_connected(cs)
    if bad:
        assert got == _refusal(bad)
    else:
        _same_quotient(got, _outcome(oracle_connected_sum, cs))
    return got


def _all_chains_elevation(lcs):
    """Oracle for elevate: compose the cover maps along every maximal chain
    of every comparable pair, require all chains of a pair to agree, and
    return the nonempty maps."""
    S = lcs.skeleton
    maps = {}
    for x in S.elements:
        for y in S.elements:
            if x == y or not S.leq(x, y):
                continue
            composed = []
            for ch in maximal_chains(S, x, y):
                m = {a: a for a in lcs.blocks[x].elements}
                for u, v in zip(ch, ch[1:]):
                    step = lcs.phi(u, v)
                    m = {a: step[b] for a, b in m.items() if b in step}
                composed.append(m)
            assert all(m == composed[0] for m in composed), (x, y)
            if composed[0]:
                maps[(x, y)] = composed[0]
    return maps


def _decomposition_local_system(M):
    """decompose(M) cut into disjoint block copies by the bridge: a locally
    connected system whose cover maps identify each overlap with itself."""
    return local_system(decompose(M).system)[0]


ORACLE_SYSTEMS = {
    **{f"section4-all_m3={flag}":
       lambda flag=flag: section4_example(all_m3=flag)["local_system"]
       for flag in (False, True)},
    "copies-b2": lambda: copies_local_system(boolean(2)),
    "copies-b3": lambda: copies_local_system(boolean(3), m3()),
    **{f"grid({p},{q})": lambda p=p, q=q: _decomposition_local_system(grid(p, q))
       for p in range(1, 6) for q in range(p, 6)},
    **{f"M3xC{k}": lambda k=k: _decomposition_local_system(product(m3(), chain(k)))
       for k in (1, 2, 3, 4)},
}


@pytest.mark.parametrize("build", ORACLE_SYSTEMS.values(), ids=ORACLE_SYSTEMS)
def test_elevate_matches_all_chains_oracle(build):
    lcs = build()
    assert elevate(lcs).maps == _all_chains_elevation(lcs)


def test_broken_diamond_is_refused_locally_and_breaks_19_when_filled(
        example, monkeypatch):
    """elevate proves (19) from (23) instead of checking it: a cover map
    that breaks a diamond is refused by validate_local, and filling it
    anyway gives maps that do not compose along the order."""
    lcs = example["local_system"]
    maps = dict(lcs.maps)
    maps[("s0", "x2")] = {"lo:l124": "c2:0", "lo:1": "c2:e"}
    broken = LocalConnectedSystem(lcs.skeleton, lcs.blocks, maps)
    S = lcs.skeleton
    diamonds = [v.pair for v in _checked_local(broken) if v.condition == "23"]
    assert diamonds
    for w, x, y, j in diamonds:
        assert {x, y} <= S.upper_covers(w) and "x2" in (x, y)
        assert j in S.upper_covers(x) & S.upper_covers(y)
    monkeypatch.setattr(connect, "validate_local", lambda lcs: [])
    filled = elevate(broken)
    triples = [v.pair for v in oracle_validate_connected(filled)
               if v.condition == "19"]
    assert triples
    for x, z, y in triples:
        assert S.lt(x, z) and S.lt(z, y)


def test_local_fixture_validates(example):
    assert _checked_local(example["local_system"]) == []
    assert _checked_validate(example["connected_system"]) == []


def test_local_system_requires_modular_skeleton():
    with pytest.raises(NotModularSkeleton):
        validate_local(copies_local_system(n5()))
    with pytest.raises(NotModularSkeleton):
        oracle_validate_local(copies_local_system(n5()))


def test_disjointness_is_enforced():
    L = chain(1)
    cs = ConnectedSystem(chain(1), {"0": L, "1": L}, {})
    with pytest.raises(LatticeError):
        validate_connected(cs)
    assert _outcome(validate_connected, cs) \
        == _outcome(oracle_validate_connected, cs)


def test_condition_17_rejects_bad_maps():
    S = chain(1)
    blocks = {"0": _copy(chain(2), "u"), "1": _copy(chain(2), "v")}
    # image {v:0, v:2} is not an ideal
    cs = ConnectedSystem(S, blocks, {("0", "1"): {"u:1": "v:0", "u:2": "v:2"}})
    bad = _checked_validate(cs)
    assert any(v.condition == "17" for v in bad)
    # order-reversing map
    cs = ConnectedSystem(S, blocks, {("0", "1"): {"u:1": "v:1", "u:2": "v:0"}})
    bad = _checked_validate(cs)
    assert any(v.condition == "17" for v in bad)
    # map on a non-comparable (here: downward) pair
    cs = ConnectedSystem(S, blocks, {("0", "1"): {"u:2": "v:0"},
                                     ("1", "0"): {"v:0": "u:2"}})
    assert any(v.condition == "17" for v in _checked_validate(cs))


def test_condition_18_requires_maps_on_covers():
    S = chain(1)
    blocks = {"0": _copy(chain(1), "u"), "1": _copy(chain(1), "v")}
    cs = ConnectedSystem(S, blocks, {})
    assert any(v.condition == "18" for v in _checked_validate(cs))


def test_condition_19_composition():
    S = chain(2)
    blocks = {x: _copy(chain(1), f"c{x}") for x in S.elements}
    ident = lambda x, y: {f"c{x}:0": f"c{y}:0", f"c{x}:1": f"c{y}:1"}
    maps = {("0", "1"): ident("0", "1"), ("1", "2"): ident("1", "2"),
            ("0", "2"): {"c0:0": "c2:1", "c0:1": "c2:0"}}
    # the direct map disagrees with the composition and reverses order
    bad = _checked_validate(ConnectedSystem(S, blocks, maps))
    assert any(v.condition == "19" for v in bad)
    maps[("0", "2")] = ident("0", "2")
    assert _checked_validate(ConnectedSystem(S, blocks, maps)) == []


def test_condition_23_diamond_mismatch(example):
    lcs = example["local_system"]
    maps = dict(lcs.maps)
    # redirect one connector map so the two diamond compositions disagree
    maps[("s0", "x2")] = {"lo:l124": "c2:0", "lo:1": "c2:e"}
    broken = LocalConnectedSystem(lcs.skeleton, lcs.blocks, maps)
    bad = _checked_local(broken)
    assert bad and any(v.condition == "23" for v in bad)
    with pytest.raises(LatticeError):
        elevate(broken)
    assert _outcome(elevate, broken) == _outcome(oracle_elevate, broken)


def test_elevate_is_chain_independent(example):
    lcs = example["local_system"]
    cs = elevate(lcs)
    assert _checked_validate(cs) == []
    assert cs.maps == _all_chains_elevation(lcs)
    # elevation restricted to covers reproduces the cover maps
    for key, m in lcs.maps.items():
        assert cs.maps[key] == m


@pytest.mark.parametrize("S,block", [(boolean(2), chain(1)),
                                     (boolean(3), m3())],
                         ids=["b2", "b3"])
def test_copies_systems_elevate_and_quotient(S, block):
    lcs = copies_local_system(S, block)
    cs = elevate(lcs)
    assert cs.maps == _all_chains_elevation(lcs)
    gsys, pis = _checked_sum(cs)
    assert glue_validate(gsys) == []
    # total identifications: one class per block element
    assert len(gsys.carrier()) == block.n
    for x in S.elements:
        h = LatticeHom(cs.blocks[x], gsys.blocks[x], pis[x])
        assert is_homomorphism(h) and is_injective(h)


def test_equivalence_follows_the_maps(example):
    cs = example["connected_system"]
    for (x, y), m in cs.maps.items():
        for a, b in m.items():
            assert equivalent(cs, a, b)
            assert equivalent(cs, b, a)
    assert not equivalent(cs, "lo:0", "hi:0")
    assert equivalent(cs, "lo:1", "c1:a")
    assert equivalent(cs, "c1:a", "c2:a")  # both identified with lo:1


def test_quotient_projections_are_isomorphisms(example):
    cs = example["connected_system"]
    gsys, pis = _checked_sum(cs)
    assert glue_validate(gsys) == []
    for x in cs.skeleton.elements:
        h = LatticeHom(cs.blocks[x], gsys.blocks[x], pis[x])
        assert is_homomorphism(h) and is_injective(h)
    assert glued_sum(gsys).n == 36


def test_quotient_class_count(example):
    cs = example["connected_system"]
    total = sum(cs.blocks[x].n for x in cs.skeleton.elements)
    identified = set()
    for m in cs.maps.values():
        identified |= set(m)
    gsys, _ = _checked_sum(cs)
    # every identification removes exactly one element from the carrier
    assert len(glued_sum(gsys).elements) == total - len(identified)


def test_quotient_rejects_internal_collapse():
    # a map chain that folds a block onto itself must be rejected
    S = chain(1)
    blocks = {"0": _copy(chain(1), "u"), "1": _copy(chain(1), "v")}
    maps = {("0", "1"): {"u:0": "v:0", "u:1": "v:1"}}
    cs = ConnectedSystem(S, blocks, maps)
    assert _checked_validate(cs) == []
    gsys, _ = _checked_sum(cs)
    assert len(gsys.carrier()) == 2
    bad = ConnectedSystem(S, blocks, {("0", "1"): {"u:1": "v:0"}})
    assert _checked_validate(bad) == []
    # identifying the top of one chain with the bottom of the next is the
    # Hall-Dilworth one-point case; the quotient is the 3-element chain
    gsys, _ = _checked_sum(bad)
    assert glued_sum(gsys).length() == 2


def test_equivalent_raises_when_join_and_meet_criteria_disagree():
    """a:p and b:p meet at the join block but have no common preimage, the
    clash (20) excludes: the check refuses the system for (20) at (a, b),
    and equivalent raises the check's list."""
    S = boolean(2)
    blocks = {x: FiniteLattice([f"{x}:p"], []) for x in S.elements}
    maps = {("a", "ab"): {"a:p": "ab:p"}, ("b", "ab"): {"b:p": "ab:p"}}
    cs = ConnectedSystem(S, blocks, maps)
    bad = _checked_validate(cs)
    assert [v.pair for v in bad if v.condition == "20"] == [("a", "b"),
                                                            ("b", "a")]
    carrier = cs._identification.carrier
    want = oracle_equiv_matrices(cs)
    g, h = np.argwhere(want[1] != want[3])[0]
    assert (carrier[g], carrier[h]) == ("a:p", "b:p")
    assert _outcome(equivalent, cs, "a:p", "b:p") == _refusal(bad)



# -- index space against the id-level oracles ----------------------------------

DIFF_SYSTEMS = {
    **{f"section4-all_m3={flag}":
       lambda flag=flag: section4_example(all_m3=flag)["local_system"]
       for flag in (False, True)},
    "copies-b2": lambda: copies_local_system(boolean(2)),
    "copies-b3": lambda: copies_local_system(boolean(3), m3()),
    **{f"grid({p},{q})": lambda p=p, q=q: _decomposition_local_system(grid(p, q))
       for p in range(1, 9) for q in range(p, 9)},
    **{f"M3xC{k}": lambda k=k: _decomposition_local_system(product(m3(), chain(k)))
       for k in (1, 2, 3, 4, 6)},
}


@pytest.mark.parametrize("build", DIFF_SYSTEMS.values(), ids=DIFF_SYSTEMS)
def test_index_space_matches_id_level_oracle(build):
    lcs = build()
    assert _checked_local(lcs) == []
    cs, ref = elevate(lcs), oracle_elevate(lcs)
    assert cs.maps == ref.maps
    assert list(cs.maps) == list(ref.maps)
    assert validate_connected(cs) == []
    _same_quotient(connected_sum(cs), oracle_connected_sum(ref))


def _diamonds(S):
    return [(w, x, y, S.join(x, y)) for w in S.elements
            for x in S.upper_covers(w) for y in S.upper_covers(w)
            if x != y and S.join(x, y) in S.upper_covers(x) & S.upper_covers(y)]


def _mutant(S, blocks, maps, kind, rng):
    """A copy of `maps` with one seeded defect, or None if `maps` has no
    place for it."""
    maps = {k: dict(m) for k, m in maps.items()}
    keys = sorted(maps, key=str)
    if kind == "dropped-map":
        if not keys:
            return None
        del maps[rng.choice(keys)]
        return maps
    if kind == "broken-diamond":
        spots = [(x, j) for _, x, _, j in _diamonds(S) if len(maps.get((x, j), ())) > 1]
        if not spots:
            return None
        m = maps[rng.choice(sorted(spots, key=str))]
        values = list(m.values())
        m.update(zip(m, values[1:] + values[:1]))
        return maps
    pool = [k for k in keys if len(maps[k]) > (
        0 if kind in ("dropped-entry", "redirected-entry") else 1)]
    if not pool:
        return None
    x, y = key = rng.choice(pool)
    m = maps[key]
    if kind == "dropped-entry":
        del m[rng.choice(sorted(m))]
    elif kind == "redirected-entry":
        a = rng.choice(sorted(m))
        m[a] = rng.choice([b for b in blocks[y].elements if b != m[a]] or [m[a]])
    elif kind == "non-injective":
        a, b = rng.sample(sorted(m), 2)
        m[a] = m[b]
    elif kind == "non-filter-domain":
        del m[blocks[x].top]
    elif kind == "non-ideal-image":
        del m[next(a for a in m if m[a] == blocks[y].bottom)]
    return maps


MUTANTS = ("dropped-entry", "redirected-entry", "dropped-map",
           "non-injective", "non-filter-domain", "non-ideal-image",
           "broken-diamond")
MUTANT_SYSTEMS = {name: DIFF_SYSTEMS[name] for name in (
    "section4-all_m3=False", "section4-all_m3=True",
    "grid(1,4)", "grid(2,2)", "grid(2,3)", "grid(3,3)", "grid(3,4)",
    "grid(2,6)", "grid(4,5)", "M3xC2", "M3xC3")}


def _same_elevation(lcs):
    got, want = _outcome(elevate, lcs), _outcome(oracle_elevate, lcs)
    if isinstance(want, ConnectedSystem):
        assert got.maps == want.maps and list(got.maps) == list(want.maps)
    else:
        assert got == want


@pytest.mark.parametrize("build", MUTANT_SYSTEMS.values(), ids=MUTANT_SYSTEMS)
def test_mutants_match_id_level_oracle(build):
    """Seeded defects in the cover maps (validate_local, elevate) and in the
    elevated maps (validate_connected, connected_sum)."""
    lcs = build()
    cs = elevate(lcs)
    S = lcs.skeleton
    applied = set()
    for kind in MUTANTS:
        rng = random.Random(f"{kind}:{S.n}:{len(cs.maps)}")
        for _ in range(4):
            maps = _mutant(S, lcs.blocks, lcs.maps, kind, rng)
            if maps is not None:
                applied.add(kind)
                local = LocalConnectedSystem(S, lcs.blocks, maps)
                _checked_local(local)
                _same_elevation(local)
            maps = _mutant(S, cs.blocks, cs.maps, kind, rng)
            if maps is not None:
                applied.add(kind)
                mutated = ConnectedSystem(S, cs.blocks, maps)
                _checked_validate(mutated)
                _checked_sum(mutated)
    assert applied == set(MUTANTS) - (set() if _diamonds(S) else {"broken-diamond"})


def _perturbed(lcs, rng):
    """lcs with one cover-map entry perturbed: dropped, redirected to
    another image, added, or its image swapped with another entry's; None
    when the map drawn has no place for the kind drawn."""
    maps = {k: dict(m) for k, m in lcs.maps.items()}
    x, y = key = rng.choice(sorted(maps, key=str))
    m = maps[key]
    kind = rng.choice(("drop", "redirect", "add", "swap"))
    outside = [a for a in lcs.blocks[x].elements if a not in m]
    if kind == "drop":
        del m[rng.choice(sorted(m, key=str))]
    elif kind == "redirect":
        a = rng.choice(sorted(m, key=str))
        m[a] = rng.choice([b for b in lcs.blocks[y].elements if b != m[a]])
    elif kind == "add" and outside:
        m[rng.choice(outside)] = rng.choice(lcs.blocks[y].elements)
    elif kind == "swap" and len(m) > 1:
        a, b = rng.sample(sorted(m, key=str), 2)
        m[a], m[b] = m[b], m[a]
    else:
        return None
    return LocalConnectedSystem(lcs.skeleton, lcs.blocks, maps)


def test_elevate_needs_no_check_past_the_local_conditions():
    """The theorem behind elevate: (22)-(24δ) over a modular skeleton
    imply (17)-(20δ) of the filled maps.  Each draw perturbs the last
    system validate_local accepted.  Every one it accepts elevates to a
    system the full id-level check passes, and oracle_elevate, which
    checks it again, gives the same maps; so every perturbation that
    oracle_elevate refuses was refused by validate_local already."""
    systems = {**DIFF_SYSTEMS, "copies-M3xC1-m3":
               lambda: copies_local_system(product(m3(), chain(1)), m3())}
    tried, accepted = 0, {True: 0, False: 0}
    for name, build in systems.items():
        lcs = build()
        if not lcs.maps:
            continue
        diamonds = bool(_diamonds(lcs.skeleton))
        rng = random.Random(name)
        # of the systems with diamonds, only the section4 ones accept
        # single changes here, about one draw in eighty, so they get more
        for _ in range(600 if name.startswith("section4") else 100):
            perturbed = None
            while perturbed is None:
                perturbed = _perturbed(lcs, rng)
            tried += 1
            if validate_local(perturbed):
                continue
            lcs = perturbed
            accepted[diamonds] += 1
            cs = elevate(lcs)
            assert oracle_validate_connected(cs) == [], name
            ref = oracle_elevate(lcs)
            assert cs.maps == ref.maps and list(cs.maps) == list(ref.maps)
    assert tried >= 3000
    # accepted over skeletons with diamonds, where (19)-(20δ) have
    # something to prove, as well as over chains
    assert accepted[True] >= 10 and accepted[False] >= 10, accepted


def test_cover_triples_certify_19_and_the_full_list_is_reported():
    """Only the non-first cover triple (00, 01, 02) fails; the full list
    also names the non-cover triple (00, 02, 12)."""
    S = FiniteLattice(["00", "10", "01", "11", "02", "12"],
                      [("00", "10"), ("00", "01"), ("10", "11"), ("01", "11"),
                       ("01", "02"), ("11", "12"), ("02", "12")])
    lcs = copies_local_system(S, chain(2))
    cs = elevate(lcs)
    maps = dict(cs.maps)
    maps[("00", "02")] = {"00:1": "02:0", "00:2": "02:1"}
    broken = ConnectedSystem(S, cs.blocks, maps)
    bad = _checked_validate(broken)
    triples = [v.pair for v in bad if v.condition == "19"]
    assert triples == [("00", "01", "02"), ("00", "02", "12")]
    first = S.elements[S._up_adj[S.index("00")][0]]
    covers_failing = [t for t in triples if t[1] in S.upper_covers(t[0])]
    assert covers_failing == [("00", "01", "02")] and first != "01"


def test_conditions_24_and_24d_on_a_diamond():
    """Both compositions across the diamond are empty, yet the cover maps
    meet at the top and share a source at the bottom."""
    S = boolean(2)
    blocks = {x: _copy(chain(1), x) for x in S.elements}
    maps = {(x, y): {f"{x}:1": f"{y}:0"} for x, y in S.covers}
    bad = _checked_local(LocalConnectedSystem(S, blocks, maps))
    assert [v.condition for v in bad] == ["24", "24d", "24", "24d"]


def test_quotient_collapse_matches_oracle():
    """A map on a diagonal pair that would collapse block 1: (17) refuses
    it, so connected_sum raises the check's list, where the oracle, which
    checks no condition first, finds the collapse."""
    S = chain(1)
    blocks = {"0": _copy(chain(1), "u"), "1": _copy(chain(1), "v")}
    cs = ConnectedSystem(S, blocks, {("0", "1"): {"u:1": "v:0"},
                                     ("1", "1"): {"v:0": "v:1"}})
    bad = _checked_validate(cs)
    assert [(v.condition, v.pair) for v in bad] == [("17", ("1", "1"))]
    assert _checked_sum(cs) == _refusal(bad)
    assert _outcome(oracle_connected_sum, cs) \
        == (LatticeError, "quotient collapses block '1' internally")


def _square(prefix, i, j):
    """The square [ij, (i+1)(j+1)] of the 3×3 grid, its ids prefixed."""
    ids = [f"{prefix}:{a}{b}" for a, b in ((i, j), (i + 1, j), (i, j + 1),
                                          (i + 1, j + 1))]
    return FiniteLattice(ids, [(ids[0], ids[1]), (ids[0], ids[2]),
                               (ids[1], ids[3]), (ids[2], ids[3])])


def test_a_class_shared_by_blocks_of_one_rank_is_named_from_their_meet():
    """The skeleton atoms 1 and "1" tie in (height, str).  A class shared
    by their blocks alone, {r:1, q:1, s:0}, breaks (20) and (20δ): the
    check refuses the system, so connected_sum raises its list, where the
    oracle finds (A4) broken in the quotient.  On an accepted system a
    class shared by the two meets their meet block too, the least block it
    meets, and is named from there, as the oracle names it: the 3×3 grid
    glued from four squares, whose centre is in all four."""
    S = FiniteLattice(["0", 1, "1", "t"],
                      [("0", 1), ("0", "1"), (1, "t"), ("1", "t")])
    blocks = {"0": _copy(chain(1), "p"), 1: _copy(chain(1), "r"),
              "1": _copy(chain(1), "q"), "t": _copy(chain(1), "s")}
    cs = ConnectedSystem(S, blocks, {
        ("0", 1): {"p:1": "r:0"}, ("0", "1"): {"p:1": "q:0"},
        (1, "t"): {"r:1": "s:0"}, ("1", "t"): {"q:1": "s:0"}})
    bad = _checked_validate(cs)
    assert [(v.condition, v.pair) for v in bad] == [
        (c, p) for p in ((1, "1"), ("1", 1)) for c in ("20", "20d")]
    assert _checked_sum(cs) == _refusal(bad)
    witness = ("p:1", "q:1")
    assert _outcome(oracle_connected_sum, cs) == (LatticeError, (
        "quotient is not a glued system: ["
        f"GlueViolation(axiom='A4', witness=(1, '1', {witness})), "
        f"GlueViolation(axiom='A4', witness=('1', 1, {witness}))]"))
    blocks = {"0": _square("p", 0, 0), 1: _square("r", 1, 0),
              "1": _square("q", 0, 1), "t": _square("s", 1, 1)}
    cs = ConnectedSystem(S, blocks, {
        ("0", 1): {"p:10": "r:10", "p:11": "r:11"},
        ("0", "1"): {"p:01": "q:01", "p:11": "q:11"},
        (1, "t"): {"r:11": "s:11", "r:21": "s:21"},
        ("1", "t"): {"q:11": "s:11", "q:12": "s:12"},
        ("0", "t"): {"p:11": "s:11"}})
    assert _checked_validate(cs) == []
    gsys, pis = _checked_sum(cs)
    assert pis[1]["r:11"] == pis["1"]["q:11"] == pis["t"]["s:11"] == "p:11"
    assert glued_sum(gsys).n == 9


def test_map_entries_must_lie_in_their_blocks():
    S = chain(1)
    blocks = {"0": _copy(chain(1), "u"), "1": _copy(chain(1), "v")}
    for cls in (ConnectedSystem, LocalConnectedSystem):
        with pytest.raises(UnknownElement, match="'u:9' is not an element of block '0'"):
            cls(S, blocks, {("0", "1"): {"u:9": "v:0"}})
        with pytest.raises(UnknownElement, match="'u:0' is not an element of block '1'"):
            cls(S, blocks, {("0", "1"): {"u:1": "u:0"}})
        with pytest.raises(UnknownElement, match="'2' is not a skeleton element"):
            cls(S, blocks, {("0", "2"): {}})


# -- the identification record against the id-level oracles -------------------

SUITE_SYSTEMS = ("projective_example", "copies_over_b2", "copies_over_b3")
RECORD_SYSTEMS = {
    **{f"suite-{name}": lambda name=name: connected_fixtures()[name]
       for name in SUITE_SYSTEMS},
    **DIFF_SYSTEMS,
}


@pytest.mark.parametrize("build", RECORD_SYSTEMS.values(), ids=RECORD_SYSTEMS)
def test_identification_matches_id_level_oracle(build):
    """The criteria (i)-(iv) from img/pre, and equivalent, on every pair;
    the per-pair oracles themselves where they are affordable."""
    cs = elevate(build())
    carrier = cs._identification.carrier
    want = oracle_equiv_matrices(cs)
    assert np.array_equal(_criteria(cs), want)
    assert [[equivalent(cs, a, b) for b in carrier] for a in carrier] \
        == want[1].tolist()
    assert [cs.block_of(a) for a in carrier] == [
        x for x in cs.skeleton.elements for _ in cs.blocks[x].elements]
    if len(carrier) <= 64:
        assert want.transpose(1, 2, 0).tolist() == [
            [list(oracle_equiv_criteria(cs, a, b)) for b in carrier]
            for a in carrier]
        assert [[oracle_equivalent(cs, a, b) for b in carrier]
                for a in carrier] == want[1].tolist()


def _redirected(cs, rng):
    """cs with one map entry a -> b redirected to c; the entry that went
    to c, if any, takes b, so that the map stays injective."""
    key = rng.choice(sorted(cs.maps, key=str))
    m = dict(cs.maps[key])
    a = rng.choice(sorted(m))
    c = rng.choice([d for d in cs.blocks[key[1]].elements if d != m[a]])
    for e in m:
        if m[e] == c:
            m[e] = m[a]
    m[a] = c
    return ConnectedSystem(cs.skeleton, cs.blocks, {**cs.maps, key: m})


def _unshared_preimage(cs, rng):
    """cs with φ(w, x) losing a common preimage p of a ∈ L_x and b ∈ L_y,
    x and y incomparable with meet w: a and b stay identified at x ∨ y, but
    have no common preimage at x ∧ y."""
    S = cs.skeleton
    spots = [(S.meet(x, y), x, p) for x in S.elements for y in S.elements
             if not (S.leq(x, y) or S.leq(y, x))
             for p in sorted(set(cs.phi(S.meet(x, y), x))
                             & set(cs.phi(S.meet(x, y), y)))]
    w, x, p = rng.choice(spots)
    m = dict(cs.maps[(w, x)])
    del m[p]
    return ConnectedSystem(S, cs.blocks, {**cs.maps, (w, x): m})


@pytest.mark.parametrize("corrupt", [_redirected, _unshared_preimage])
@pytest.mark.parametrize("name", SUITE_SYSTEMS)
def test_connected_check_matches_oracle_on_corruptions(name, corrupt):
    """Criterion 9's check gives the per-pair loops' verdict and detail."""
    cs = elevate(connected_fixtures()[name])
    assert check_connected(cs) is None and oracle_connected_check(cs) is None
    for seed in range(4):
        broken = corrupt(cs, random.Random(f"{corrupt.__name__}:{name}:{seed}"))
        got = _outcome(check_connected, broken)
        assert got == _outcome(oracle_connected_check, broken)
        assert got is not None
        if corrupt is _unshared_preimage:
            assert got.startswith("criteria disagree at ")
        # what criterion 9 refuses, the check refuses too, and equivalent
        # raises its list
        bad = validate_connected(broken)
        assert bad
        a = broken._identification.carrier[0]
        assert _outcome(equivalent, broken, a, a) == _refusal(bad)


def test_block_of_scans_no_pair_of_the_carrier(monkeypatch):
    """block_of reads the owner of an element only: it answers, with the
    check patched to raise, on a system the check refuses, and leaves the
    verdict uncomputed; equivalent raises the check's list once the check
    is back.  equivalent scans no pair either: on the elevated system,
    whose verdict elevate presets, it answers with the check patched."""
    cs = elevate(connected_fixtures()["projective_example"])
    broken = _unshared_preimage(cs, random.Random("block_of"))
    carrier = [a for x in broken.skeleton.elements
               for a in broken.blocks[x].elements]

    def refuse(cs):
        raise AssertionError("the check ran")
    with monkeypatch.context() as patch:
        patch.setattr(connect, "validate_connected", refuse)
        assert [broken.block_of(a) for a in carrier] == \
            [x for x in broken.skeleton.elements for _ in broken.blocks[x].elements]
        assert "_violations" not in vars(broken)
        assert equivalent(cs, "lo:1", "c1:a")
    bad = validate_connected(broken)
    assert bad
    assert _outcome(equivalent, broken, carrier[0], carrier[0]) \
        == _refusal(bad)


def test_maps_are_read_only_and_the_record_is_built_once(example, monkeypatch):
    lcs = example["local_system"]
    cs = elevate(lcs)
    key = next(iter(cs.maps))
    with pytest.raises(TypeError):
        cs.maps[key] = {}
    with pytest.raises(TypeError):
        cs.maps[key]["lo:0"] = "lo:0"
    with pytest.raises(TypeError):
        cs.blocks["s0"] = cs.blocks["s1"]
    # elevate hands over the tensor it filled, read-only and equal to the
    # one derived from the maps
    assert "_tensor" in vars(cs)
    phi, given = cs._tensor
    ref_phi, ref_given = _map_tensor(
        cs.skeleton, [cs.blocks[x] for x in cs.skeleton.elements], cs.maps)
    assert np.array_equal(phi, ref_phi) and np.array_equal(given, ref_given)
    with pytest.raises(ValueError):
        phi[0, 0, 0] = 1
    # a hand-made system copies the maps it is given
    maps = {k: dict(m) for k, m in cs.maps.items()}
    made = ConnectedSystem(cs.skeleton, cs.blocks, maps)
    maps[key].clear()
    assert made.maps == cs.maps
    built = []
    build = connect._identification
    monkeypatch.setattr(connect, "_identification",
                        lambda cs: built.append(cs) or build(cs))
    carrier = [a for x in cs.skeleton.elements for a in cs.blocks[x].elements]
    for a in carrier:
        cs.block_of(a)
        for b in carrier[:5]:
            equivalent(cs, a, b)
    assert check_connected(cs) is None
    assert built == [cs]
    with pytest.raises(LatticeError, match="'zz' is in no block"):
        cs.block_of("zz")
    with pytest.raises(LatticeError, match="'zz' is in no block"):
        equivalent(cs, "lo:0", "zz")


def test_equivalence_failures_match_the_loops():
    """Seeded relations near an equivalence (a partition with a few cells
    flipped): the same verdict and detail as the reflexivity, symmetry and
    transitivity loops."""
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        label = [rng.randrange(3) for _ in range(n)]
        R = np.array([[p == q for q in label] for p in label])
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            R[i, j] = not R[i, j]
        carrier = [f"e{i}" for i in range(n)]
        rel = {(carrier[i], carrier[j]): bool(R[i, j])
               for i in range(n) for j in range(n)}
        got = _not_an_equivalence(R, carrier)
        assert got == oracle_not_an_equivalence(carrier, rel)
        seen.add(got if got is None else got.split(" at ")[0])
    assert seen == {None, "not reflexive", "not symmetric", "not transitive"}
