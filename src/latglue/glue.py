"""S-glued systems: blocks over a shared carrier indexed by a skeleton
lattice.  Validates the gluing axioms, builds the sum as the transitive
closure of the union of the block orders, and computes sup/inf through the
block-local staircase formulas."""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import FiniteLattice, LatticeError


class NotALattice(LatticeError):
    pass


@dataclass(frozen=True)
class GlueViolation:
    axiom: str  # A1 | A2 | A3 | A4
    witness: tuple

    def __str__(self):
        return f"{self.axiom}: {self.witness}"


@dataclass(frozen=True)
class GluedSystem:
    skeleton: FiniteLattice
    blocks: dict  # skeleton element -> FiniteLattice over the shared carrier

    def __post_init__(self):
        odd = set(self.skeleton.elements) ^ set(self.blocks)
        if odd:
            raise LatticeError(f"blocks missing or keyed outside the skeleton: {sorted(odd, key=str)}")

    def carrier(self):
        seen = {}
        for x in self.skeleton.elements:
            for a in self.blocks[x].elements:
                seen[a] = None
        return tuple(seen)

    def block_set(self, x):
        return set(self.blocks[x].elements)

    def blocks_of(self, a):
        return [x for x in self.skeleton.elements if a in self.blocks[x]]

    def zero(self, x):
        return self.blocks[x].bottom

    def one(self, x):
        return self.blocks[x].top


def _is_filter(L, subset):
    if not subset:
        return False
    for a in subset:
        for b in L.up_set(a):
            if b not in subset:
                return False
    return all(L.meet(a, b) in subset for a in subset for b in subset)


def _is_ideal(L, subset):
    if not subset:
        return False
    for a in subset:
        for b in L.down_set(a):
            if b not in subset:
                return False
    return all(L.join(a, b) in subset for a in subset for b in subset)


def validate(sys):
    """Check axioms (A1)-(A4); empty list means the system is a valid
    S-glued system.  On success the derived overlap facts (interval shape
    of overlaps, overlap equality through skeleton meet/join, agreement of
    block operations) are asserted as internal sanity checks."""
    S = sys.skeleton
    out = []
    sets = {x: sys.block_set(x) for x in S.elements}
    for x in S.elements:
        for y in S.elements:
            if x == y:
                continue
            inter = sets[x] & sets[y]
            if S.leq(x, y):
                if inter:
                    if not _is_filter(sys.blocks[x], inter):
                        out.append(GlueViolation("A1", (x, y, "overlap is not a filter of the lower block")))
                    elif not _is_ideal(sys.blocks[y], inter):
                        out.append(GlueViolation("A1", (x, y, "overlap is not an ideal of the upper block")))
                    else:
                        Lx, Ly = sys.blocks[x], sys.blocks[y]
                        for a in inter:
                            for b in inter:
                                if Lx.leq(a, b) != Ly.leq(a, b):
                                    out.append(GlueViolation("A2", (x, y, a, b)))
                if not inter and y in S.upper_covers(x):
                    out.append(GlueViolation("A3", (x, y)))
            if not S.leq(x, y) and not S.leq(y, x):
                lo, hi = S.meet(x, y), S.join(x, y)
                bad = inter - (sets[lo] & sets[hi])
                if bad:
                    out.append(GlueViolation("A4", (x, y, tuple(sorted(bad, key=str)))))
    if not out:
        _assert_derived(sys, sets)
    return out


def _assert_derived(sys, sets):
    S = sys.skeleton
    for x in S.elements:
        for y in S.elements:
            inter = sets[x] & sets[y]
            if x != y and S.lt(x, y) and inter:
                Lx, Ly = sys.blocks[x], sys.blocks[y]
                # overlap = [0_y, 1_x] computed in either block
                lo, hi = Ly.bottom, Lx.top
                assert inter == {a for a in sets[x] if Lx.leq(lo, a)}, (x, y)
                assert inter == {a for a in sets[y] if Ly.leq(a, hi)}, (x, y)
            if not S.leq(x, y) and not S.leq(y, x):
                both = sets[S.meet(x, y)] & sets[S.join(x, y)]
                assert inter == both, (x, y)
            # block operations agree on overlaps
            Lx, Ly = sys.blocks[x], sys.blocks[y]
            for a in inter:
                for b in inter:
                    assert Lx.join(a, b) == Ly.join(a, b), (x, y, a, b)
                    assert Lx.meet(a, b) == Ly.meet(a, b), (x, y, a, b)


def glued_sum(sys):
    """The sum lattice: transitive closure of the union of block orders,
    re-validated from scratch (unique joins/meets are checked, not assumed).
    """
    carrier = sys.carrier()
    idx = {a: i for i, a in enumerate(carrier)}
    n = len(carrier)
    leq = np.zeros((n, n), dtype=bool)
    for L in sys.blocks.values():
        pos = [idx[a] for a in L.elements]
        leq[np.ix_(pos, pos)] |= L._leq
    for k in range(n):  # Warshall
        leq |= np.outer(leq[:, k], leq[k])
    cyclic = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))
    if len(cyclic):
        a, b = (carrier[i] for i in cyclic[0])
        raise NotALattice(f"closure order not antisymmetric at ({a!r}, {b!r})")
    try:
        return FiniteLattice.from_leq(carrier, leq)
    except LatticeError as e:
        raise NotALattice(str(e)) from e


def _staircase_up(sys, a, chain):
    # sup(a, 0_last) along a maximal chain, using only block joins
    c = a
    for x, y in zip(chain, chain[1:]):
        c = sys.blocks[x].join(c, sys.zero(y))
    return c


def _staircase_down(sys, a, chain):
    # inf(a, 1_last) along a descending maximal chain, using block meets
    c = a
    for x, y in zip(chain, chain[1:]):
        c = sys.blocks[x].meet(c, sys.one(y))
    return c


def _sup_to_zero(sys, a, x, z):
    first, *second = islice(sys.skeleton.maximal_chains(x, z), 2)
    result = _staircase_up(sys, a, first)
    for chain in second:
        assert _staircase_up(sys, a, chain) == result, (a, x, z)
    return result


def _inf_to_one(sys, a, x, z):
    first, *second = (chain[::-1] for chain in
                      islice(sys.skeleton.maximal_chains(z, x), 2))
    result = _staircase_down(sys, a, first)
    for chain in second:
        assert _staircase_down(sys, a, chain) == result, (a, x, z)
    return result


def sup_via_formulas(sys, a, b):
    """sup in the sum, computed from block joins only: raise both arguments
    to the zero of the join block by the staircase rule, then join there."""
    S = sys.skeleton
    x = sys.blocks_of(a)[0]
    y = sys.blocks_of(b)[0]
    z = S.join(x, y)
    return sys.blocks[z].join(_sup_to_zero(sys, a, x, z),
                              _sup_to_zero(sys, b, y, z))


def inf_via_formulas(sys, a, b):
    S = sys.skeleton
    x = sys.blocks_of(a)[0]
    y = sys.blocks_of(b)[0]
    z = S.meet(x, y)
    return sys.blocks[z].meet(_inf_to_one(sys, a, x, z),
                              _inf_to_one(sys, b, y, z))


def is_monotone_strict(sys):
    """Neither block of a skeleton cover contains the other."""
    for x, y in sys.skeleton.covers:
        sx, sy = sys.block_set(x), sys.block_set(y)
        if sx <= sy or sy <= sx:
            return False
    return True


def is_monotone_original(sys):
    """A weaker monotonicity variant: for every skeleton cover x ≺ y,
    L_y is not contained in L_x.  Too weak to support the skeleton
    reconstruction results; kept to exhibit where it breaks down."""
    for x, y in sys.skeleton.covers:
        if sys.block_set(y) <= sys.block_set(x):
            return False
    return True


def zero_one_maps(sys):
    """The maps x ↦ 0_x and x ↦ 1_x with their structural flags."""
    S = sys.skeleton
    zero = {x: sys.zero(x) for x in S.elements}
    one = {x: sys.one(x) for x in S.elements}
    join_ok = all(sup_via_formulas(sys, zero[x], zero[y]) == zero[S.join(x, y)]
                  for x in S.elements for y in S.elements)
    meet_ok = all(inf_via_formulas(sys, one[x], one[y]) == one[S.meet(x, y)]
                  for x in S.elements for y in S.elements)
    flags = {
        "zero_join_preserving": join_ok,
        "one_meet_preserving": meet_ok,
        "zero_injective": len(set(zero.values())) == len(zero),
        "one_injective": len(set(one.values())) == len(one),
    }
    return zero, one, flags


def length_bound_check(sys):
    """length(sum) ≦ k(l+1) for k = max block length, l = skeleton length."""
    k = max(sys.blocks[x].length() for x in sys.skeleton.elements)
    l = sys.skeleton.length()
    return glued_sum(sys).length() <= k * (l + 1)
