"""S-glued systems: blocks over a shared carrier indexed by a skeleton
lattice.  Validates the gluing axioms, builds the sum as the transitive
closure of the union of the block orders, and computes sup/inf through the
block-local staircase formulas."""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import FiniteLattice, InvariantViolated, LatticeError


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


def _mask(L, subset):
    m = np.zeros(L.n, dtype=bool)
    m[[L.index(a) for a in subset]] = True
    return m


def _is_filter(L, mask):
    """Are the elements marked in `mask` a filter of L: nonempty, closed
    upward and under meets?"""
    i = np.flatnonzero(mask)
    return len(i) > 0 and not L._leq[i][:, ~mask].any() \
        and mask[L._meet[i][:, i]].all()


def _is_ideal(L, mask):
    """Are the elements marked in `mask` an ideal of L: nonempty, closed
    downward and under joins?"""
    i = np.flatnonzero(mask)
    return len(i) > 0 and not L._leq[:, i][~mask].any() \
        and mask[L._join[i][:, i]].all()


def _membership(sys):
    """The blocks in carrier indices: pos[i] lists the carrier index of each
    element of the i-th block (in block order), loc[i] maps a carrier index
    to its index in that block (-1 outside it), B is the skeleton × carrier
    membership matrix and C = B·Bᵀ the overlap sizes."""
    S = sys.skeleton
    carrier = sys.carrier()
    idx = {a: i for i, a in enumerate(carrier)}
    pos = [np.array([idx[a] for a in sys.blocks[x].elements])
           for x in S.elements]
    loc = np.full((S.n, len(carrier)), -1)
    for i, p in enumerate(pos):
        loc[i, p] = np.arange(len(p))
    B = loc >= 0
    Bf = B.astype(np.float32)  # overlap sizes up to 2**24 are exact
    return carrier, pos, loc, B, (Bf @ Bf.T).astype(np.intp)


def validate(sys):
    """Check axioms (A1)-(A4); empty list means the system is a valid
    S-glued system.  On success the derived overlap facts (interval shape
    of overlaps, overlap equality through skeleton meet/join, agreement of
    block operations) are checked too, and a failure raises
    InvariantViolated.

    Only pairs of blocks that overlap can break A1, A2 or A4, and only
    skeleton covers can break A3, so only those pairs are looked at, in
    skeleton order.  The A2 witnesses of one pair come in carrier order."""
    S = sys.skeleton
    carrier, pos, loc, B, C = _membership(sys)
    blocks = [sys.blocks[x] for x in S.elements]
    visit = C > 0
    for i, j in S._cov:
        visit[i, j] = True
    np.fill_diagonal(visit, False)
    I, J = np.nonzero(visit)
    incomparable = ~(S._leq[I, J] | S._leq[J, I])
    # (A4): an incomparable pair overlaps inside its meet- and join-block
    outside = B[I] & B[J] & ~(B[S._meet[I, J]] & B[S._join[I, J]])
    a4 = incomparable & outside.any(axis=1)
    out = []
    for p in np.flatnonzero(S._leq[I, J] | a4):
        i, j = I[p], J[p]
        x, y = S.elements[i], S.elements[j]
        if a4[p]:
            bad = sorted((carrier[c] for c in np.flatnonzero(outside[p])), key=str)
            out.append(GlueViolation("A4", (x, y, tuple(bad))))
        elif not C[i, j]:
            out.append(GlueViolation("A3", (x, y)))
        elif not _is_filter(blocks[i], B[j, pos[i]]):
            out.append(GlueViolation("A1", (x, y, "overlap is not a filter of the lower block")))
        elif not _is_ideal(blocks[j], B[i, pos[j]]):
            out.append(GlueViolation("A1", (x, y, "overlap is not an ideal of the upper block")))
        else:
            ov = np.flatnonzero(B[i] & B[j])
            ix, iy = loc[i, ov], loc[j, ov]
            differ = blocks[i]._leq[ix][:, ix] != blocks[j]._leq[iy][:, iy]
            out += [GlueViolation("A2", (x, y, carrier[ov[a]], carrier[ov[b]]))
                    for a, b in np.argwhere(differ)]
    if not out:
        _assert_derived(sys, carrier, pos, loc, B, C)
    return out


def _assert_derived(sys, carrier, pos, loc, B, C):
    """The facts (A1)-(A4) imply, each checked for all pairs of blocks at
    once; a failure raises InvariantViolated with an offending pair."""
    S = sys.skeleton
    blocks = [sys.blocks[x] for x in S.elements]
    n = len(carrier)

    def fail(what, i, j):
        raise InvariantViolated(what, (S.elements[i], S.elements[j]))

    # an incomparable pair overlaps in its meet-block ∩ join-block: (A4)
    # gives ⊆, so the sizes must agree
    inc = ~(S._leq | S._leq.T)
    bad = np.argwhere(inc)[C[inc] != C[S._meet[inc], S._join[inc]]]
    if len(bad):
        fail("overlap is not meet-block ∩ join-block", *bad[0])

    # a pair x < y overlaps in [0_y, 1_x], computed in either block.  Row
    # start[i] + k of `up` (`down`) is the up-set (down-set) of the k-th
    # element of block i in that block, as a carrier mask.
    start = np.cumsum([0] + [len(p) for p in pos])
    up = np.zeros((start[-1], n), dtype=bool)
    down = np.zeros_like(up)
    for i, (p, L) in enumerate(zip(pos, blocks)):
        up[start[i]:start[i + 1], p] = L._leq
        down[start[i]:start[i + 1], p] = L._leq.T
    zero = np.array([p[L._bot] for p, L in zip(pos, blocks)])
    one = np.array([p[L._top] for p, L in zip(pos, blocks)])
    I, J = np.nonzero((C > 0) & S._leq & ~np.eye(S.n, dtype=bool))
    at0, at1 = loc[I, zero[J]], loc[J, one[I]]
    overlap = B[I] & B[J]
    ok = (at0 >= 0) & (at1 >= 0) \
        & (up[start[I] + at0] == overlap).all(axis=1) \
        & (down[start[J] + at1] == overlap).all(axis=1)
    if not ok.all():
        p = np.argmin(ok)
        fail("overlap is not [0_y, 1_x]", I[p], J[p])

    # block operations agree on overlaps: every block holding a and b
    # gives a + b (a·b) the same carrier index; only elements of two or
    # more blocks can be in an overlap
    blocks_of = B.sum(axis=0)
    shared = [np.flatnonzero(blocks_of[p] > 1) for p in pos]
    owner = np.repeat(np.arange(S.n), [len(k) ** 2 for k in shared])
    a = np.concatenate([np.repeat(p[k], len(k)) for p, k in zip(pos, shared)])
    b = np.concatenate([np.tile(p[k], len(k)) for p, k in zip(pos, shared)])
    held = np.empty((n, n), dtype=np.intp)
    held[a, b] = np.arange(len(a))  # one block's entry for each pair
    other = held[a, b]
    for op in ("_join", "_meet"):
        got = np.concatenate([p[getattr(L, op)[k][:, k]].ravel()
                              for p, L, k in zip(pos, blocks, shared)])
        bad = np.flatnonzero(got != got[other])
        if len(bad):
            fail(f"blocks disagree on {op[1:]}", owner[bad[0]],
                 owner[other[bad[0]]])


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


def nested_cover(sys):
    """The first skeleton cover one of whose blocks contains the other,
    or None."""
    for x, y in sys.skeleton.covers:
        sx, sy = sys.block_set(x), sys.block_set(y)
        if sx <= sy or sy <= sx:
            return x, y
    return None


def is_monotone_strict(sys):
    """Neither block of a skeleton cover contains the other."""
    return nested_cover(sys) is None


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
