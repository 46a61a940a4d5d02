"""The skeleton pipeline derived from tables already validated, checked
against the rebuilds it replaced (kept in `oracles`): sliced intervals,
the transposed dual, modularity by the rank identity, the closure by
squaring, the closure-only round trip and (A1)/(A2) decided as
condition (17) on the overlaps, for all pairs at once, against the
per-pair loop."""

import functools
import random

import numpy as np
import pytest

from latglue import glue, skeleton
from latglue.constructions import boolean, chain, distributive_with_skeleton, \
    enumerate_lattices, fano_lattice, grid, m3, n5, section4_example
from latglue.core import FiniteLattice, InvariantViolated, product
from latglue.glue import GluedSystem, GlueViolation, NotALattice, \
    glued_sum, order_closure, validate
from latglue.predicates import is_modular
from latglue.skeleton import SkeletonDecomposition, decompose
from latglue.suite import glued_fixtures
from oracles import oracle_closure, oracle_glue_violations, \
    oracle_glued_sum, oracle_interval, oracle_is_modular, \
    oracle_overlap_shape, oracle_reglues, oracle_sliced_blocks
from test_index_space import SYSTEMS

CORPUS = list(enumerate_lattices(7))
GLUED = glued_fixtures()


@functools.cache
def sweep_shapes():
    """The lattices `latglue skeleton` is benchmarked on, 12 to 256
    elements, by name."""
    def dws(S):
        return glued_sum(distributive_with_skeleton(S))

    out = {f"grid({p},{q})": grid(p, q) for p, q in (
        (3, 3), (3, 5), (4, 4), (4, 5), (5, 5), (5, 6), (7, 7), (8, 9),
        (9, 10), (11, 12), (9, 15))}
    out.update({f"boolean({n})": boolean(n) for n in (4, 5, 6, 7, 8)})
    out.update({f"M3xC{k}": product(m3(), chain(k))
                for k in (4, 6, 8, 10, 17, 40)})
    out.update({f"FanoxC{k}": product(fano_lattice(), chain(k))
                for k in (1, 2, 5, 14)})
    out.update({f"dws(C{k})": dws(chain(k)) for k in (1, 2, 3, 4)})
    out.update({"dws(B2)": dws(boolean(2)), "dws(M3)": dws(m3()),
                "dws(N5)": dws(n5()), "section4": section4_example()["sum"]})
    return out


def graded_non_modular():
    """Lattices of the corpus whose covers all raise the height by 1 but
    which are not modular."""
    return [L for L in CORPUS if not oracle_is_modular(L)
            and all(L._height[j] == L._height[i] + 1 for i, j in L._cov)]


def named_lattices():
    out = {f"corpus-{i}": L for i, L in enumerate(CORPUS)}
    out.update(sweep_shapes())
    out.update({f"N5xC{k}": product(n5(), chain(k)) for k in range(1, 7)})
    out.update({f"sum-{name}": glued_sum(sys) for name, sys in GLUED.items()})
    return out


LATTICES = named_lattices()
FIELDS = ("_ids", "_idx", "n", "_cov", "_up_adj", "_down_adj", "_height",
          "_depth", "_bot", "_top")


def assert_same_lattice(got, want):
    assert sorted(vars(got)) == sorted(vars(want))
    for f in FIELDS:
        assert getattr(got, f) == getattr(want, f), f
    for f in ("_leq", "_join", "_meet"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)


# -- modularity -------------------------------------------------------------

def test_graded_non_modular_lattices_are_in_the_corpus():
    assert len(graded_non_modular()) >= 5


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_rank_identity_matches_modular_law(name):
    L = LATTICES[name]
    assert is_modular(FiniteLattice(L.elements, L.covers)) \
        == oracle_is_modular(L)


# -- intervals and duals ------------------------------------------------------

def _sampled_pairs(L, count, seed):
    rng = random.Random(seed)
    pairs = [(L.bottom, L.top)]
    for _ in range(count):
        a = rng.choice(L.elements)
        pairs.append((a, rng.choice(sorted(L.up_set(a), key=str))))
    return pairs


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_sliced_intervals_match_rebuilt_ones(name):
    L = LATTICES[name]
    if L.n <= 40:
        pairs = [(a, b) for a in L.elements for b in L.up_set(a)]
    else:
        pairs = _sampled_pairs(L, 20, seed=name)
        if is_modular(L):
            dec = decompose(L)
            pairs += [(x, dec.blocks[x].top) for x in dec.skeleton_lattice.elements]
    for lo, hi in pairs:
        I = L.interval(lo, hi)
        assert I.carrier == I.lattice.elements
        assert_same_lattice(I.lattice, oracle_interval(L, lo, hi))


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_transposed_dual_matches_rebuilt_dual(name):
    L = LATTICES[name]
    D = L.dual()
    assert_same_lattice(D, FiniteLattice(L.elements,
                                         [(b, a) for a, b in L.covers]))
    assert D._leq.flags.c_contiguous
    assert_same_lattice(D.dual(), FiniteLattice(L.elements, L.covers))


# -- closure and round trip ---------------------------------------------------

def sweep_systems():
    """The decompositions of the sweep shapes, and of B3×C2, whose
    overlaps (cubes) have comparable elements strictly inside."""
    out = {f"decompose-{name}": decompose(M).system
           for name, M in sweep_shapes().items()}
    out["decompose-B3xC2"] = decompose(product(boolean(3), chain(2))).system
    return out


SWEEP = sweep_systems()
# the glued fixtures, the non-examples, their rotations (mostly not
# lattices) and the corpus decompositions, then the sweep decompositions
CLOSURE = {**SYSTEMS, **SWEEP}


@pytest.mark.parametrize("name", sorted(CLOSURE))
def test_closure_by_squaring_matches_warshall(name):
    sys = CLOSURE[name]
    carrier, leq = order_closure(sys)
    want_carrier, want = oracle_closure(sys)
    assert carrier == want_carrier
    np.testing.assert_array_equal(leq, want)
    try:
        want = oracle_glued_sum(sys)
    except NotALattice as e:
        with pytest.raises(NotALattice) as got:
            glued_sum(sys)
        assert str(got.value) == str(e)
    else:
        assert_same_lattice(glued_sum(sys), want)


def modular_lattices():
    return {name: L for name, L in LATTICES.items() if oracle_is_modular(L)}


MODULAR = modular_lattices()


@pytest.mark.parametrize("name", sorted(MODULAR))
def test_closure_round_trip_matches_built_sum(name):
    dec = decompose(MODULAR[name])
    assert dec.reglues() is True
    assert oracle_reglues(dec) is True


def test_round_trip_refuses_a_source_with_another_order():
    M = grid(3, 3)
    dec = decompose(M)
    # the same carrier under the dual order
    other = M.dual()
    wrong = SkeletonDecomposition(other, dec.skeleton_set, dec.skeleton_lattice,
                                  dec.blocks, dec.system, dec.dual_skeleton)
    assert wrong.reglues() is False and oracle_reglues(wrong) is False
    fewer = SkeletonDecomposition(M.interval(M.bottom, M.coatoms().pop()).lattice,
                                  dec.skeleton_set, dec.skeleton_lattice,
                                  dec.blocks, dec.system, dec.dual_skeleton)
    assert fewer.reglues() is False and oracle_reglues(fewer) is False


def test_decompose_computes_star_and_plus_once(monkeypatch):
    calls = []
    right = skeleton._star_pluses

    def counted(fam):
        calls.append(fam)
        return right(fam)
    monkeypatch.setattr(skeleton, "_star_pluses", counted)
    decompose(grid(3, 4))
    assert len(calls) == 1
    skeleton.skeleton_lattice(grid(3, 4))
    assert len(calls) == 2


# -- (A1)/(A2) as condition (17) on the overlaps ----------------------------

@pytest.mark.parametrize("name", sorted(SWEEP))
def test_kernel_gives_the_per_pair_violations(name):
    sys = SWEEP[name]
    assert validate(sys) == oracle_glue_violations(sys)


VALID = {name: sys for name, sys in CLOSURE.items() if not validate(sys)}


@pytest.mark.parametrize("name", sorted(VALID))
def test_accepted_systems_have_the_overlap_shapes(name):
    """What `validate` proves instead of checking (see its docstring)."""
    assert oracle_overlap_shape(VALID[name]) is None


FILTER = "overlap is not a filter of the lower block"
IDEAL = "overlap is not an ideal of the upper block"


@pytest.mark.parametrize("name", sorted(CLOSURE))
def test_validate_runs_the_kernel_once_on_the_overlapping_pairs(
        name, monkeypatch):
    """One call of the (17) kernel per system, on every pair x < y that
    overlaps, in skeleton order; none when no such pair overlaps."""
    sys = CLOSURE[name]
    S, C = sys.skeleton, sys._members.C
    calls = []

    def counted(tables, X, Y, f, real=glue._iso_failures):
        calls.append(list(zip(X.tolist(), Y.tolist())))
        return real(tables, X, Y, f)
    monkeypatch.setattr(glue, "_iso_failures", counted)
    validate(sys)
    lt = S._leq & ~np.eye(S.n, dtype=bool)
    pairs = list(map(tuple, np.argwhere(lt & (C > 0)).tolist()))
    assert calls == ([pairs] if pairs else [])


def _chain(*ids):
    return FiniteLattice(ids, list(zip(ids, ids[1:])))


def _two_blocks(lower, upper):
    """A system over the skeleton x < y with L_x = lower, L_y = upper."""
    return GluedSystem(_chain("x", "y"), {"x": lower, "y": upper})


B2 = FiniteLattice(("0", "a", "b", "1"),
                   [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
# Each system breaks one condition on its overlap, but for one: an overlap
# closed upward in L_x, an ideal of L_y and ordered alike in both is
# closed under L_x's meets (the meet in L_y of two of its elements lies in
# it, below their meet in L_x, which the up-closure then puts in it).  So
# the overlap that is only not closed under meets is also not an ideal (m
# is missing), and is reported once, as not a filter.
TWO_BLOCKS = {
    "not-up-closed": (_two_blocks(_chain("0", "a", "c", "1"),
                                  _chain("a", "1", "t")),
                      [GlueViolation("A1", ("x", "y", FILTER))]),
    "not-meet-closed": (_two_blocks(B2, FiniteLattice(
        ("m", "a", "b", "1", "t"),
        [("m", "a"), ("m", "b"), ("a", "1"), ("b", "1"), ("1", "t")])),
                        [GlueViolation("A1", ("x", "y", FILTER))]),
    "not-an-ideal": (_two_blocks(_chain("0", "a", "1"),
                                 _chain("a", "c", "1", "t")),
                     [GlueViolation("A1", ("x", "y", IDEAL))]),
    "orders-differ": (_two_blocks(_chain("0", "a", "b"),
                                  _chain("b", "a", "t")),
                      [GlueViolation("A2", ("x", "y", "a", "b")),
                       GlueViolation("A2", ("x", "y", "b", "a"))]),
}


@pytest.mark.parametrize("name", sorted(TWO_BLOCKS))
def test_two_block_systems_break_one_condition(name):
    sys, want = TWO_BLOCKS[name]
    assert validate(sys) == oracle_glue_violations(sys) == want


def _renamed(L, old, new):
    return L._relabelled([new if a == old else a for a in L.elements])


def _swapped(L, a, b):
    return L._relabelled([b if c == a else a if c == b else c
                          for c in L.elements])


def _subdivided(L, lo, hi, new):
    """L with a new element put on its cover lo ≺ hi."""
    covers = [c for c in L.covers if c != (lo, hi)] + [(lo, new), (new, hi)]
    return FiniteLattice(L.elements + (new,), covers)


def _inside(sys, x, y):
    """Comparable pairs a < b of the overlap [0_y, 1_x] of x < y, neither
    of them 0_y or 1_x, in block order."""
    Ly = sys.blocks[y]
    inner = sys.block_set(x) & sys.block_set(y) - {Ly.bottom, sys.blocks[x].top}
    return [(a, b) for a in Ly.elements for b in Ly.elements
            if a in inner and b in inner and Ly.lt(a, b)]


def mutate(sys, kind, x, y):
    """Break (A1) or (A2) on the pair x < y, whose overlap [0_y, 1_x] has
    two elements or more, by changing one of its blocks."""
    Lx, Ly = sys.blocks[x], sys.blocks[y]
    zero, one = Ly.bottom, Lx.top
    overlap = sys.block_set(x) & sys.block_set(y)
    blocks = dict(sys.blocks)
    if kind == "not-filter":        # a new element of L_x below 1_x
        c = next(c for c in Lx.elements if c in overlap
                 and one in Lx.upper_covers(c))
        blocks[x] = _subdivided(Lx, c, one, ("new", c, one))
    elif kind == "not-ideal":       # a new element of L_y above 0_y
        a = next(a for a in Ly.elements if a in overlap
                 and a in Ly.upper_covers(zero))
        blocks[y] = _subdivided(Ly, zero, a, ("new", zero, a))
    elif kind == "flipped-ends":    # 0_y and 1_x trade places in L_y
        blocks[y] = _swapped(Ly, zero, one)
    elif kind == "flipped-inside":  # two elements strictly inside do
        blocks[y] = _swapped(Ly, *_inside(sys, x, y)[0])
    else:                           # 0_y outside L_x
        blocks[x] = _renamed(Lx, zero, ("fresh", zero))
    return GluedSystem(sys.skeleton, blocks)


# The axiom each kind breaks on its pair.  Taking 0_y out of L_x leaves
# an overlap that is not an ideal of L_y, but when 0_y had two upper
# covers in it, not a filter of L_x either, and the filter comes first.
WANT = {"not-filter": ("A1", {FILTER}),
        "not-ideal": ("A1", {IDEAL}),
        "flipped-ends": ("A2", None),
        "flipped-inside": ("A2", None),
        "zero-outside": ("A1", {FILTER, IDEAL})}


class Unbuilt:
    """Stands in for a mutant that `mutate` failed to build, so that the
    failure is the mutant's own tests' and not the collection of every
    module importing `MUTANTS`: reading any attribute of it raises,
    naming the mutant, from the error."""

    def __init__(self, name, error):
        self.name, self.error = name, error

    def __getattr__(self, attr):
        if attr.startswith("__"):  # protocol lookups see no such attribute
            raise AttributeError(attr)
        raise AssertionError(f"mutant {self.name} was not built: "
                             f"{type(self.error).__name__}: {self.error}") \
            from self.error


def mutants():
    rng = random.Random(8)
    out = []
    for name in sorted(VALID):
        sys = VALID[name]
        S = sys.skeleton
        pairs = [(x, y) for x in S.elements for y in S.elements
                 if S.lt(x, y) and len(sys.block_set(x) & sys.block_set(y)) > 1]
        for kind in WANT:
            able = [p for p in pairs
                    if kind != "flipped-inside" or _inside(sys, *p)]
            for x, y in rng.sample(able, min(2, len(able))):
                mutant = f"{name}-{kind}-{x}-{y}"
                try:
                    built = mutate(sys, kind, x, y)
                except Exception as e:
                    built = Unbuilt(mutant, e)
                out.append((mutant, kind, x, y, built))
    return out


MUTANTS = mutants()


def test_every_mutant_is_built():
    assert [m[0] for m in MUTANTS if isinstance(m[4], Unbuilt)] == []


def test_every_kind_of_mutant_is_seeded_many_times():
    for kind in WANT:
        assert sum(m[1] == kind for m in MUTANTS) >= \
            (4 if kind == "flipped-inside" else 20)


@pytest.mark.parametrize("name, kind, x, y, sys", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutants_give_the_per_pair_violations(name, kind, x, y, sys):
    got = validate(sys)
    assert got == oracle_glue_violations(sys)
    axiom, text = WANT[kind]
    assert any(v.axiom == axiom and v.witness[:2] == (x, y)
               and (text is None or v.witness[2] in text) for v in got)


def forged_order(L, *pairs):
    """A copy of L whose order matrix flips the entries at `pairs`, id
    pairs: a forgery, the only lattice an interval of which can fail to be
    closed or bounded."""
    F = L._relabelled(L.elements)
    F._leq = L._leq.copy()
    for a, b in pairs:
        F._leq[L.index(a), L.index(b)] ^= True
    return F


def test_the_oracle_cut_of_a_forged_block_raises_with_a_witness():
    """The closure and bound checks the cut no longer needs, kept on the
    oracle: in boolean(2) with b forged below a, the block [0, a] holds
    both atoms and not their join ab; with a forged below b, [a, ab]
    holds both and not their meet 0; in the chain 0 < 1 < 2 < 3 with 2
    forged not below itself, [1, 2] lacks its own top."""
    L = boolean(2)
    for (lo, hi), forged, what in ((("0", "a"), ("b", "a"), "join"),
                                   (("a", "ab"), ("a", "b"), "meet")):
        F = forged_order(L, forged)
        with pytest.raises(InvariantViolated,
                           match=f"not closed under {what}") as e:
            oracle_sliced_blocks(["x"], F, [F.index(lo)], [F.index(hi)])
        assert e.value.witness == ("a", "b")
    F = forged_order(chain(3), ("2", "2"))
    with pytest.raises(InvariantViolated) as e:
        oracle_sliced_blocks(["x"], F, [1], [2])
    assert str(e.value) == "block is not bounded by its ends: ('1', '2')"
    assert e.value.witness == ("1", "2")
