"""S-glued systems: blocks over a shared carrier indexed by a skeleton
lattice.  Validates the gluing axioms, builds the sum as the transitive
closure of the union of the block orders, and computes sup/inf through the
block-local staircase formulas, by the cover recurrence `connect` uses."""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .core import _BLOCK_CELLS, FiniteLattice, InvariantViolated, \
    LatticeError, UnknownElement


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
        _check_block_keys(self.skeleton, self.blocks)
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))

    @cached_property
    def _formulas(self):
        return _formula_tables(self)  # built once: the blocks are read-only

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


def _check_block_keys(skeleton, blocks):
    odd = set(skeleton.elements) ^ set(blocks)
    if odd:
        raise LatticeError(f"blocks missing or keyed outside the skeleton: {sorted(odd, key=str)}")


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
    membership matrix and C = B·Bᵀ the overlap sizes.  Row start[i] + k of
    `up` (`down`) is the up-set (down-set) of the k-th element of block i
    in that block, as a carrier mask."""
    S = sys.skeleton
    carrier = sys.carrier()
    idx = {a: i for i, a in enumerate(carrier)}
    blocks = [sys.blocks[x] for x in S.elements]
    pos = [np.array([idx[a] for a in L.elements]) for L in blocks]
    loc = np.full((S.n, len(carrier)), -1)
    for i, p in enumerate(pos):
        loc[i, p] = np.arange(len(p))
    B = loc >= 0
    Bf = B.astype(np.float32)  # overlap sizes up to 2**24 are exact
    start = np.cumsum([0] + [len(p) for p in pos])
    up = np.zeros((start[-1], len(carrier)), dtype=bool)
    down = np.zeros_like(up)
    for i, (p, L) in enumerate(zip(pos, blocks)):
        up[start[i]:start[i + 1], p] = L._leq
        down[start[i]:start[i + 1], p] = L._leq.T
    return (carrier, pos, loc, B, (Bf @ Bf.T).astype(np.intp),
            start, up, down)


def _interval_overlaps(sys, pos, loc, B, start, up, down, I, J):
    """For pairs x < y of skeleton indices I, J: is their overlap the
    principal filter ↑0_y of block x and the principal ideal ↓1_x of
    block y, i.e. [0_y, 1_x] in either block?"""
    blocks = [sys.blocks[x] for x in sys.skeleton.elements]
    zero = np.array([p[L._bot] for p, L in zip(pos, blocks)])
    one = np.array([p[L._top] for p, L in zip(pos, blocks)])
    at0, at1 = loc[I, zero[J]], loc[J, one[I]]
    overlap = B[I] & B[J]
    return (at0 >= 0) & (at1 >= 0) \
        & (up[start[I] + at0] == overlap).all(axis=1) \
        & (down[start[J] + at1] == overlap).all(axis=1)


def _orders_agree(loc, B, start, up, I, J):
    """For pairs x < y of skeleton indices I, J: does every element of
    their overlap have the same up-set within the overlap in both blocks?
    Looked at in chunks of about 2**16 cells."""
    p, c = np.nonzero(B[I] & B[J])
    differ = np.zeros(len(I), dtype=bool)
    step = max(1, _BLOCK_CELLS // B.shape[1])
    for s in range(0, len(p), step):
        q, d = p[s:s + step], c[s:s + step]
        rx = start[I[q]] + loc[I[q], d]
        ry = start[J[q]] + loc[J[q], d]
        differ[q[((up[rx] ^ up[ry]) & B[I[q]] & B[J[q]]).any(axis=1)]] = True
    return ~differ


def validate(sys):
    """Check axioms (A1)-(A4); empty list means the system is a valid
    S-glued system.  On success the derived overlap facts (interval shape
    of overlaps, overlap equality through skeleton meet/join, agreement of
    block operations) are checked too, and a failure raises
    InvariantViolated.

    Only pairs of blocks that overlap can break A1, A2 or A4, and only
    skeleton covers can break A3, so only those pairs are looked at, in
    skeleton order.  A pair x < y whose overlap is [0_y, 1_x] in both
    blocks, ordered alike in both, is a filter and an ideal on which the
    orders agree; it is passed for all pairs at once, and only the others
    are checked one at a time.  The A2 witnesses of one pair come in
    carrier order."""
    S = sys.skeleton
    membership = _membership(sys)
    carrier, pos, loc, B, C, start, up, down = membership
    blocks = [sys.blocks[x] for x in S.elements]
    visit = C > 0
    for i, j in S._cov:
        visit[i, j] = True
    np.fill_diagonal(visit, False)
    I, J = np.nonzero(visit)
    comparable = S._leq[I, J]
    incomparable = ~(comparable | S._leq[J, I])
    # (A4): an incomparable pair overlaps inside its meet- and join-block
    outside = B[I] & B[J] & ~(B[S._meet[I, J]] & B[S._join[I, J]])
    a4 = incomparable & outside.any(axis=1)
    glued = np.flatnonzero(comparable & (C[I, J] > 0))
    passed = np.zeros(len(I), dtype=bool)
    passed[glued] = _interval_overlaps(sys, pos, loc, B, start, up, down,
                                       I[glued], J[glued]) \
        & _orders_agree(loc, B, start, up, I[glued], J[glued])
    out = []
    for p in np.flatnonzero((comparable & ~passed) | a4):
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
        _assert_derived(sys, *membership)
    return out


def _assert_derived(sys, carrier, pos, loc, B, C, start, up, down):
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

    # a pair x < y overlaps in [0_y, 1_x], computed in either block
    I, J = np.nonzero((C > 0) & S._leq & ~np.eye(S.n, dtype=bool))
    ok = _interval_overlaps(sys, pos, loc, B, start, up, down, I, J)
    if not ok.all():
        p = np.argmin(ok)
        fail("overlap is not [0_y, 1_x]", I[p], J[p])

    # block operations agree on overlaps: every block holding a and b
    # gives a + b (a·b) the same carrier index; only elements of two or
    # more blocks can be in an overlap.  Row start[i] + k stands for the
    # k-th element of block i; the pairs of shared rows of each block are
    # listed for all blocks at once, block by block and a-major
    sizes = np.diff(start)
    rows = np.concatenate(pos)  # carrier index of each row
    shared = np.flatnonzero(B.sum(axis=0)[rows] > 1)
    count = np.bincount(np.searchsorted(start, shared, side="right") - 1,
                        minlength=S.n)
    owner = np.repeat(np.arange(S.n), count ** 2)
    q = np.arange(len(owner)) - np.repeat(np.cumsum(count ** 2) - count ** 2,
                                          count ** 2)
    first = np.cumsum(count) - count
    ra = shared[first[owner] + q // count[owner]]
    rb = shared[first[owner] + q % count[owner]]
    a, b = rows[ra], rows[rb]
    held = np.empty((n, n), dtype=np.intp)
    held[a, b] = np.arange(len(a))  # one block's entry for each pair
    other = held[a, b]
    cell = (np.cumsum(sizes ** 2) - sizes ** 2)[owner] \
        + (ra - start[owner]) * sizes[owner] + rb - start[owner]
    for op in ("_join", "_meet"):
        table = np.concatenate([getattr(L, op).ravel() for L in blocks])
        got = rows[start[owner] + table[cell]]
        bad = np.flatnonzero(got != got[other])
        if len(bad):
            fail(f"blocks disagree on {op[1:]}", owner[bad[0]],
                 owner[other[bad[0]]])


def order_closure(sys):
    """The carrier and the transitive closure of the union of the block
    orders over it.  The union is reflexive, so squaring it (a float32
    product through BLAS) doubles the length of the paths it closes over;
    squaring stops when the relation no longer grows."""
    carrier = sys.carrier()
    idx = {a: i for i, a in enumerate(carrier)}
    n = len(carrier)
    leq = np.zeros((n, n), dtype=bool)
    for L in sys.blocks.values():
        pos = [idx[a] for a in L.elements]
        leq[np.ix_(pos, pos)] |= L._leq
    while True:
        f = leq.astype(np.float32)
        closed = (f @ f) > 0
        if np.array_equal(closed, leq):
            return carrier, leq
        leq = closed


def glued_sum(sys):
    """The sum lattice: transitive closure of the union of block orders,
    re-validated from scratch (unique joins/meets are checked, not assumed).
    """
    carrier, leq = order_closure(sys)
    n = len(carrier)
    cyclic = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))
    if len(cyclic):
        a, b = (carrier[i] for i in cyclic[0])
        raise NotALattice(f"closure order not antisymmetric at ({a!r}, {b!r})")
    try:
        return FiniteLattice.from_leq(carrier, leq)
    except LatticeError as e:
        raise NotALattice(str(e)) from e


# -- maps along the skeleton: padded n×n×bmax index tensors (see connect) ---

def _block_tables(blocks):
    """The blocks' order, join and meet tables stacked and padded to the
    largest block; leq is False and join/meet are 0 on padding."""
    b = max(L.n for L in blocks)
    leq = np.zeros((len(blocks), b, b), dtype=bool)
    join = np.zeros((len(blocks), b, b), dtype=np.intp)
    meet = np.zeros_like(join)
    for i, L in enumerate(blocks):
        leq[i, :L.n, :L.n] = L._leq
        join[i, :L.n, :L.n] = L._join
        meet[i, :L.n, :L.n] = L._meet
    return leq, join, meet


def _compose(outer, inner):
    """outer ∘ inner for index maps (-1 undefined); `outer` is gathered at
    the defined entries of `inner` and may broadcast against it."""
    return np.where(inner >= 0, outer(np.maximum(inner, 0)), -1)


def _fill(S, phi):
    """Extend maps given on the covers of S to every pair x < y, in place,
    going down S one height at a time: phi[x, y] = phi[c, y] ∘ phi[x, c]
    for the first upper cover c of x below y."""
    n, leq = S.n, S._leq
    first = np.zeros((n, n), dtype=np.intp)
    for x, up in enumerate(S._up_adj):
        if up:
            up = np.array(up)
            first[x] = up[np.argmax(leq[up], axis=0)]
    lt = leq & ~np.eye(n, dtype=bool)
    height = np.array(S._height)
    for h in range(S.length() - 1, -1, -1):
        x, y = np.nonzero(lt & (height == h)[:, None])
        c = first[x, y]
        phi[x, y] = _compose(lambda a: phi[c[:, None], y[:, None], a],
                             phi[x, c])


def _chain_failures(S, phi):
    """The triples x < z < y with φ(x, y) ≠ φ(z, y)∘φ(x, z), as {(x, y): [z]}.

    Only cover triples x ≺ c < y are checked first.  That is exact: if
    φ(x, y) = φ(c, y)∘φ(x, c) for every upper cover c of x, then by
    induction on the length of [x, z] and associativity of partial
    composition φ(x, y) = φ(z, y)∘φ(x, z) for every z in [x, y], and all
    maximal chains compose alike.  Only when a cover triple fails are all
    triples materialised, one x at a time."""
    n, b = S.n, phi.shape[2]
    lt = S._leq & ~np.eye(n, dtype=bool)
    cov = np.array(S._cov, dtype=np.intp).reshape(-1, 2)
    step = max(1, _BLOCK_CELLS // (n * b))
    ys = np.arange(n)[None, :, None]
    for s in range(0, len(cov), step):
        x, c = cov[s:s + step, 0], cov[s:s + step, 1]
        comp = _compose(lambda a: phi[c[:, None, None], ys, a],
                        phi[x, c][:, None, :])
        if ((comp != phi[x]).any(2) & lt[c]).any():
            break
    else:
        return {}
    out = {}
    for x in range(n):
        up = np.flatnonzero(lt[x])
        comp = _compose(lambda a: phi[up[:, None, None], up[None, :, None], a],
                        phi[x, up][:, None, :])
        bad = (comp != phi[x, up][None]).any(2) & lt[np.ix_(up, up)]
        for y, z in zip(*np.nonzero(bad.T)):
            out.setdefault((x, int(up[y])), []).append(int(up[z]))
    return out


def _formula_tables(sys):
    """The carrier, its index and the sum's sup and inf tables over it,
    from block operations only.  U[x, z] maps block x to block z for each
    x ≦ z of the skeleton, a ↦ a ∨ 0_c ∨ … ∨ 0_z by the joins of the lower
    blocks along a chain x ≺ c ≺ … ≺ z; sup(a, b) = U[x, z](a) ∨_z
    U[y, z](b) with x, y the first blocks of a, b and z = x ∨ y.  inf is
    the same on the dual skeleton, with meets and 1_c.  A step outside
    its cover's blocks, or chains that disagree, raise InvariantViolated."""
    S = sys.skeleton
    carrier, pos, loc, _, _, start, _, _ = _membership(sys)
    blocks = [sys.blocks[x] for x in S.elements]
    _, join, meet = _block_tables(blocks)
    rows, size = np.concatenate(pos), np.diff(start)
    first = np.argmax(loc >= 0, axis=0)
    at = loc[first, np.arange(len(carrier))]
    n, k = S.n, np.arange(join.shape[1])
    tables = []
    for T, op, end, name in ((S, join, "_bot", "sup"),
                             (S.dual(), meet, "_top", "inf")):
        end = rows[start[:-1] + [getattr(L, end) for L in blocks]]
        U = np.full((n, n, len(k)), -1, dtype=np.intp)
        U[np.arange(n), np.arange(n)] = np.where(k < size[:, None], k, -1)
        X, C = np.array(T._cov, dtype=np.intp).reshape(-1, 2).T
        e = loc[X, end[C]][:, None]  # 0_c in block x, -1 if it is not there
        held = k < size[X][:, None]
        g = rows[start[X][:, None] + np.where(held, op[X[:, None], k, e], 0)]
        U[X, C] = np.where(held, loc[C[:, None], g], -1)
        bad = np.argwhere(held & ((e < 0) | (U[X, C] < 0)))
        if len(bad):  # witness: 0_c if block x lacks it, else the step's end
            i, a = bad[0]
            raise InvariantViolated(
                f"{name} staircase step leaves its cover's blocks",
                (S._ids[X[i]], S._ids[C[i]],
                 carrier[end[C[i]] if e[i, 0] < 0 else g[i, a]]))
        _fill(T, U)
        chains = _chain_failures(T, U)
        if chains:
            (x, z), (c, *_) = next(iter(chains.items()))
            raise InvariantViolated(f"{name} staircase depends on the chain",
                                    (S._ids[x], S._ids[c], S._ids[z]))
        z = T._join[first[:, None], first]
        r = op[z, U[first[:, None], z, at[:, None]], U[first, z, at]]
        tables.append(rows[start[z] + r])
    return (carrier, {a: i for i, a in enumerate(carrier)}, *tables)


def _lookup(sys, table, a, b):
    carrier, index = sys._formulas[:2]
    for c in (a, b):
        if c not in index:
            raise UnknownElement(f"{c!r} is in no block")
    return carrier[sys._formulas[table][index[a], index[b]]]


def sup_via_formulas(sys, a, b):
    """sup in the sum from block joins only (see _formula_tables)."""
    return _lookup(sys, 2, a, b)


def inf_via_formulas(sys, a, b):
    """inf in the sum from block meets only, the dual of sup_via_formulas."""
    return _lookup(sys, 3, a, b)


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
    _, index, sup, inf = sys._formulas
    z, o = (np.array([index[a] for a in m.values()]) for m in (zero, one))
    flags = {
        "zero_join_preserving": np.array_equal(sup[np.ix_(z, z)], z[S._join]),
        "one_meet_preserving": np.array_equal(inf[np.ix_(o, o)], o[S._meet]),
        "zero_injective": len(set(zero.values())) == len(zero),
        "one_injective": len(set(one.values())) == len(one),
    }
    return zero, one, flags


def length_bound_check(sys):
    """length(sum) ≦ k(l+1) for k = max block length, l = skeleton length."""
    k = max(sys.blocks[x].length() for x in sys.skeleton.elements)
    l = sys.skeleton.length()
    return glued_sum(sys).length() <= k * (l + 1)
