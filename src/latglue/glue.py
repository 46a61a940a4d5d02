"""S-glued systems: blocks over a shared carrier indexed by a skeleton
lattice.  Validates the gluing axioms, builds the sum as the transitive
closure of the union of the block orders, and computes sup/inf through the
block-local staircase formulas, by the cover recurrence `connect` uses.

Inside, a system is read through one membership record in carrier
indices (`Membership`), built once per system: from the blocks' ids for a
hand-made system, or in one pass over a lattice's tables when every
block is a sublattice of it (`_sliced_blocks`), as in a decomposition."""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import _BLOCK_CELLS, FiniteLattice, InvariantViolated, \
    LatticeError, UnknownElement, _transitive_closure


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
        if not (isinstance(self.blocks, SlicedBlocks)
                and self.blocks.keys_in_order == self.skeleton.elements):
            object.__setattr__(self, "blocks",
                               MappingProxyType(dict(self.blocks)))

    @cached_property
    def _members(self):
        """The blocks in carrier indices, built once: the blocks are
        read-only."""
        if isinstance(self.blocks, SlicedBlocks):
            return self.blocks.members
        return _membership(self)

    @cached_property
    def _formulas(self):
        return _formula_tables(self)  # built once: the blocks are read-only

    @cached_property
    def _sum(self):
        """The sum lattice, built once (the blocks are read-only): the
        transitive closure of the union of block orders, re-validated from
        scratch (unique joins/meets are checked, not assumed)."""
        carrier, leq = order_closure(self)
        cyclic = np.argwhere(leq & leq.T & ~np.eye(len(carrier), dtype=bool))
        if len(cyclic):
            a, b = (carrier[i] for i in cyclic[0])
            raise NotALattice(
                f"closure order not antisymmetric at ({a!r}, {b!r})")
        try:
            return FiniteLattice.from_leq(carrier, leq)
        except LatticeError as e:
            raise NotALattice(str(e)) from e

    def carrier(self):
        return self._members.carrier

    def block_set(self, x):
        m = self._members
        i = self.skeleton._idx[x]
        return {m.carrier[c] for c in m.rows[m.start[i]:m.start[i + 1]]}

    def blocks_of(self, a):
        m = self._members
        if a not in m.index:
            return []
        return [self.skeleton._ids[i] for i in np.flatnonzero(m.B[:, m.index[a]])]

    def zero(self, x):
        return self._members.carrier[self._members.zero[self.skeleton._idx[x]]]

    def one(self, x):
        return self._members.carrier[self._members.one[self.skeleton._idx[x]]]


def _check_block_keys(skeleton, blocks):
    odd = set(skeleton.elements) ^ set(blocks)
    if odd:
        raise LatticeError(f"blocks missing or keyed outside the skeleton: {sorted(odd, key=str)}")


class Membership(NamedTuple):
    """A system's blocks in carrier indices, block i the i-th skeleton
    element.  The carrier lists each element where it first appears,
    block by block in skeleton order and in block order within a block;
    `index` maps an id to its carrier index.  Row r, from start[i] to
    start[i + 1] - 1 for block i, stands for the (r - start[i])-th element
    of that block: rows[r] is its carrier index.  loc[i] maps a carrier
    index to its index in block i (-1 outside it), B = loc >= 0 and
    C = B·Bᵀ the overlap sizes.  zero and one are the carrier indices of
    each block's 0 and 1.  leq, join and meet are the blocks' tables in
    their own indices, stacked and padded to the largest block:
    `_block_tables`' layout, which connect's kernels share."""
    carrier: tuple
    index: dict
    rows: np.ndarray
    loc: np.ndarray
    B: np.ndarray
    C: np.ndarray
    start: np.ndarray
    zero: np.ndarray
    one: np.ndarray
    leq: np.ndarray
    join: np.ndarray
    meet: np.ndarray


def _block_tables(blocks):
    """The blocks' order, join and meet tables stacked and padded to the
    largest block; leq is False and join/meet (int32) are 0 on padding.
    The membership record keeps all three, and connect's kernels read
    them."""
    b = max(L.n for L in blocks)
    leq = np.zeros((len(blocks), b, b), dtype=bool)
    join = np.zeros((len(blocks), b, b), dtype=np.int32)
    meet = np.zeros_like(join)
    for i, L in enumerate(blocks):
        leq[i, :L.n, :L.n] = L._leq
        join[i, :L.n, :L.n] = L._join
        meet[i, :L.n, :L.n] = L._meet
    return leq, join, meet


def _members(carrier, rows, start, zero, one, leq, join, meet):
    """The membership record; loc, B and C come from `rows`."""
    n = len(start) - 1
    owner = np.repeat(np.arange(n), np.diff(start))
    loc = np.full((n, len(carrier)), -1, dtype=np.intp)
    loc[owner, rows] = np.arange(len(rows)) - start[owner]
    B = loc >= 0
    Bf = B.astype(np.float32)  # overlap sizes up to 2**24 are exact
    return Membership(carrier, {a: i for i, a in enumerate(carrier)}, rows,
                      loc, B, (Bf @ Bf.T).astype(np.intp), start, zero, one,
                      leq, join, meet)


def _membership(sys):
    """The membership record of a system from its blocks' ids."""
    blocks = [sys.blocks[x] for x in sys.skeleton.elements]
    carrier = tuple(dict.fromkeys(a for L in blocks for a in L.elements))
    idx = {a: i for i, a in enumerate(carrier)}
    rows = np.array([idx[a] for L in blocks for a in L.elements],
                    dtype=np.intp)
    return _block_membership(blocks, _block_tables(blocks), carrier, rows)


def _block_membership(blocks, tables, carrier, rows):
    """The membership record of `blocks`, in skeleton order, whose
    elements, block after block, are carrier[rows]; `tables` are their
    `_block_tables`, which the record keeps."""
    start = np.concatenate(([0], np.cumsum([L.n for L in blocks])))
    zero, one = (rows[start[:-1] + [getattr(L, end) for L in blocks]]
                 for end in ("_bot", "_top"))
    return _members(carrier, rows, start, zero, one, *tables)


class SlicedBlocks(Mapping):
    """Blocks that are sublattices of one lattice M, given as masks over
    its elements and keyed by skeleton element: a read-only mapping that
    slices a block's FiniteLattice out of M (`FiniteLattice._slice`, with
    its closure check) only when it is asked for, once.  `members` is the
    system's membership record."""

    def __init__(self, keys, M, mask, members):
        self.keys_in_order = tuple(keys)
        self._key = {x: i for i, x in enumerate(self.keys_in_order)}
        self._M, self._mask, self.members = M, mask, members
        self._built = {}

    def __getitem__(self, x):
        if x not in self._built:
            self._built[x] = self._M._slice(
                np.flatnonzero(self._mask[self._key[x]]))
        return self._built[x]

    def __contains__(self, x):
        return x in self._key

    def __iter__(self):
        return iter(self.keys_in_order)

    def __len__(self):
        return len(self.keys_in_order)

    def __repr__(self):
        return f"SlicedBlocks({len(self)} blocks of {self._M!r})"


def _sliced_blocks(keys, M, mask, lo, hi):
    """The blocks mask[i] of M, keyed by keys[i], each to be a sublattice
    with 0 = lo[i] and 1 = hi[i] (index arrays), with their membership
    record cut in one pass from M's order and tables.

    A block's join and meet tables are M's, looked up for all blocks at
    once; the first block, in key order, with a join (then a meet) that
    leaves it raises InvariantViolated as `FiniteLattice._slice` does, and
    so does the first block that lo and hi do not bound."""
    ids, n = M._ids, M.n
    owner, elem = np.nonzero(mask)  # block by block, in M's order
    size = mask.sum(axis=1)
    start = np.concatenate(([0], np.cumsum(size)))
    place = np.full(mask.shape, -1, dtype=np.intp)  # index in block i
    place[owner, elem] = np.arange(len(elem)) - start[owner]
    # the tables, M's looked up for the blocks of one size at a time
    leq = np.zeros((len(mask), size.max(), size.max()), dtype=bool)
    tables = np.zeros((2, *leq.shape), dtype=np.int32)
    for s in np.unique(size):
        g = np.flatnonzero(size == s)
        e = elem[start[g][:, None] + np.arange(s)]
        pair = e[:, :, None] * n + e[:, None, :]
        leq[g, :s, :s] = M._leq.take(pair)
        for t, T in zip(tables, (M._join, M._meet)):
            c = T.take(pair).astype(np.intp)  # take is slow on int32 indices
            c += g[:, None, None] * n
            t[g, :s, :s] = place.take(c)
    out = [np.argwhere(t < 0)[:1] for t in tables]
    if any(len(o) for o in out):
        i = min(o[0, 0] for o in out if len(o))
        for what, o in zip(("join", "meet"), out):
            if len(o) and o[0, 0] == i:
                a, b = o[0, 1:]
                raise InvariantViolated(
                    f"subset is not closed under {what}",
                    (ids[elem[start[i] + a]], ids[elem[start[i] + b]]))
    every = np.arange(len(mask))
    bounded = mask[every, lo] & mask[every, hi] \
        & ~(mask & ~(M._leq[lo] & M._leq.T[hi])).any(axis=1)
    if not bounded.all():
        i = np.argmin(bounded)
        raise InvariantViolated("block is not bounded by its ends",
                                (ids[lo[i]], ids[hi[i]]))
    # the carrier: elements by the first block they are in, then M's order
    held = mask.any(axis=0)
    perm = np.argsort(np.where(held, mask.argmax(axis=0), len(mask)),
                      kind="stable")[:held.sum()]
    where = np.full(n, -1, dtype=np.intp)
    where[perm] = np.arange(len(perm))
    members = _members(tuple(ids[p] for p in perm), where[elem], start,
                       where[lo], where[hi], leq, *tables)
    return SlicedBlocks(keys, M, mask, members)


def _images(f, b):
    """Image masks over the target block of index maps f (rows)."""
    img = np.zeros((len(f), b + 1), dtype=bool)
    img[np.arange(len(f))[:, None], f] = True  # -1 lands in the extra column
    return img[:, :b]


def _gather(mask, table):
    """mask[k, table[k, i, j]] for a stack of masks and index tables, by
    flat index (faster than take_along_axis on these shapes)."""
    k, b = mask.shape
    return mask.take(table + (np.arange(k) * b)[:, None, None])


def _iso_failures(tables, X, Y, f):
    """Condition (17)/(22) for the nonempty maps f[k] from block X[k] to
    block Y[k], in chunks of pairs: returns boolean arrays (not injective,
    domain not a filter, image not an ideal, order not matched).  On the
    identity of an overlap these are (A1) in the lower block, (A1) in the
    upper block and (A2)."""
    leq, join, meet = tables
    b = leq.shape[1]
    out = np.zeros((4, len(f)), dtype=bool)
    step = max(1, _BLOCK_CELLS // (b * b))
    for s in range(0, len(f), step):
        x, y, g = X[s:s + step], Y[s:s + step], f[s:s + step]
        dom, img = g >= 0, _images(g, b)
        both = dom[:, :, None] & dom[:, None, :]
        ib = img[:, :, None] & img[:, None, :]
        lx, ly = leq[x], leq[y]
        gc = np.maximum(g, 0)
        out[0, s:s + step] = img.sum(1) != dom.sum(1)
        out[1, s:s + step] = (dom[:, :, None] & ~dom[:, None, :] & lx).any((1, 2)) \
            | (both & ~_gather(dom, meet[x])).any((1, 2))
        out[2, s:s + step] = (img[:, None, :] & ~img[:, :, None] & ly).any((1, 2)) \
            | (ib & ~_gather(img, join[y])).any((1, 2))
        image_leq = ly[np.arange(len(g))[:, None, None], gc[:, :, None], gc[:, None, :]]
        out[3, s:s + step] = (both & (lx != image_leq)).any((1, 2))
    return out


def _overlap_maps(m, I, J):
    """The identity on the overlap of blocks I[k] and J[k] as index maps:
    f[k, a] is the index in block J[k] of the a-th element of block I[k],
    -1 outside the overlap or past block I[k]'s size."""
    r = m.start[I][:, None] + np.arange(m.leq.shape[1])  # rows of block I
    return np.where(r < m.start[I + 1][:, None],
                    m.loc[J[:, None], m.rows.take(r, mode="clip")], -1)


def validate(sys):
    """Check axioms (A1)-(A4); empty list means the system is a valid
    S-glued system.

    Only pairs of blocks that overlap can break A1, A2 or A4, and only
    skeleton covers can break A3, so only those pairs are looked at, in
    skeleton order.  (A1) and (A2) on a pair x < y say that the identity
    on their overlap is an isomorphism of a filter of L_x onto an ideal of
    L_y, condition (17) on that map: `_iso_failures` decides it for all
    overlapping pairs at once.  A pair is reported for the first of its
    filter, ideal and order failures; the A2 witnesses come in carrier
    order.

    Three facts about the overlaps of an accepted system follow from what
    is checked here, and are not checked again (`tests/oracles.py` keeps
    the checks, `oracle_overlap_shape` and `oracle_block_operations`).
    The proof uses, for every x < y whose overlap O is nonempty, only
    that O is closed upward in L_x and downward in L_y (the order terms
    of `_iso_failures`' flags 1 and 2, not their table terms) and ordered
    alike by both (flag 3), and (A3) and (A4); the last fact also uses
    that each block's join and meet tables are its order's.  Every
    constructor computes them from the order and makes them read-only
    (`core._freeze`), so only a forged lattice breaks that.

    - O = [0_y, 1_x] in either block.  O is closed downward in L_y, so
      0_y ∈ O.  Every b ∈ O has 0_y ≤_y b, so 0_y ≤_x b, since both
      blocks order O alike.  O is closed upward in L_x, so O = ↑0_y in
      L_x.  Dually, 1_x ∈ O and O = ↓1_x in L_y.
    - Convexity: L_x ∩ L_z ⊆ L_y for x ≤ y ≤ z.  First take x ≤ c ≤ z
      with L_x ∩ L_c ≠ ∅ and a ∈ L_x ∩ L_z.  Both overlaps are closed
      upward in L_x, so both hold 1_x.  So 1_x ∈ L_c ∩ L_z, which is
      closed downward in L_z.  a ≤_x 1_x, and the orders agree on
      L_x ∩ L_z, so a ≤_z 1_x, and a ∈ L_c.  Now walk a maximal chain
      x = c₀ ≺ c₁ ≺ … ≺ c_k = y: (A3) gives every L_cᵢ ∩ L_cᵢ₊₁ ≠ ∅, and
      the step above with cᵢ ≤ cᵢ₊₁ ≤ z carries a ∈ L_cᵢ ∩ L_z to
      a ∈ L_cᵢ₊₁.
    - Incomparable x, y overlap in L_{x∧y} ∩ L_{x∨y}.  (A4) gives ⊆, and
      convexity, on x∧y ≤ x ≤ x∨y and x∧y ≤ y ≤ x∨y, gives ⊇; this holds
      for the pairs whose overlap is empty too.
    - The blocks' joins and meets agree on every overlap.  For x < y,
      O = [0_y, 1_x] is an interval, so a sublattice, of both blocks,
      and both order it alike: the join (meet) of two elements of O in
      either block is their join (meet) in O.  For incomparable x, y and
      w = x∧y, O lies in L_w by the fact above, so O ⊆ L_w ∩ L_x and
      O ⊆ L_w ∩ L_y; by the comparable case on w < x and w < y, a join
      (meet) of two elements of O in L_x, and in L_y, is theirs in L_w.
    """
    S = sys.skeleton
    m = sys._members
    carrier, loc, B, C = m.carrier, m.loc, m.B, m.C
    visit = C > 0
    visit[tuple(S._cov_array.T)] = True
    np.fill_diagonal(visit, False)
    I, J = np.nonzero(visit)
    comparable = S._leq[I, J]
    incomparable = ~(comparable | S._leq[J, I])
    # (A4): an incomparable pair overlaps inside its meet- and join-block
    outside = B[I] & B[J] & ~(B[S._meet[I, J]] & B[S._join[I, J]])
    a4 = incomparable & outside.any(axis=1)
    glued = comparable & (C[I, J] > 0)
    g = np.flatnonzero(glued)
    iso = np.zeros((4, len(I)), dtype=bool)
    iso[:, g] = _iso_failures((m.leq, m.join, m.meet), I[g], J[g],
                              _overlap_maps(m, I[g], J[g]))
    out = []
    for p in np.flatnonzero((comparable & ~glued) | iso.any(axis=0) | a4):
        i, j = I[p], J[p]
        x, y = S.elements[i], S.elements[j]
        if a4[p]:
            bad = sorted((carrier[c] for c in np.flatnonzero(outside[p])), key=str)
            out.append(GlueViolation("A4", (x, y, tuple(bad))))
        elif not glued[p]:
            out.append(GlueViolation("A3", (x, y)))
        elif iso[1, p]:
            out.append(GlueViolation("A1", (x, y, "overlap is not a filter of the lower block")))
        elif iso[2, p]:
            out.append(GlueViolation("A1", (x, y, "overlap is not an ideal of the upper block")))
        else:
            ov = np.flatnonzero(B[i] & B[j])
            ix, iy = loc[i, ov], loc[j, ov]
            differ = m.leq[i][np.ix_(ix, ix)] != m.leq[j][np.ix_(iy, iy)]
            out += [GlueViolation("A2", (x, y, carrier[ov[a]], carrier[ov[b]]))
                    for a, b in np.argwhere(differ)]
    return out


def _order_union(sys):
    """The carrier and the union of the block orders over it, reflexive."""
    m = sys._members
    i, a, b = np.nonzero(m.leq)
    R = np.zeros((len(m.carrier), len(m.carrier)), dtype=bool)
    R[m.rows[m.start[i] + a], m.rows[m.start[i] + b]] = True
    return m.carrier, R


def order_closure(sys):
    """The carrier and the transitive closure of `_order_union`."""
    carrier, R = _order_union(sys)
    return carrier, _transitive_closure(R)


def glued_sum(sys):
    """The sum lattice of a system, kept on it (`GluedSystem._sum`)."""
    return sys._sum


# -- maps along the skeleton: padded n×n×bmax index tensors (see connect) ---

def _compose(outer, inner):
    """outer ∘ inner for index maps (-1 undefined); `outer` is gathered at
    the defined entries of `inner` and may broadcast against it."""
    return np.where(inner >= 0, outer(np.maximum(inner, 0)), -1)


def _by_height(S):
    """The elements of S by descending height, ties in index order."""
    return np.argsort(-np.array(S._height), kind="stable")


def _fill(S, phi):
    """Extend maps given on the covers of S to every pair x < y, in place,
    going down S one height at a time: phi[x, y] = phi[c, y] ∘ phi[x, c]
    for the first upper cover c of x below y."""
    n, leq = S.n, S._leq
    # the pairs x < y, by descending height of x
    rows = _by_height(S)
    x, y = np.nonzero((leq & ~np.eye(n, dtype=bool))[rows])
    if not len(x):
        return
    x = rows[x]
    # each pair's first upper cover of x below y: x has one, so the -1
    # padding after x's covers is never reached
    d = max(map(len, S._up_adj))
    up = np.array([list(u) + [-1] * (d - len(u)) for u in S._up_adj],
                  dtype=np.intp)
    first = up[x, leq[up[x], y[:, None]].argmax(1)]
    h = np.array(S._height)[x]
    ends = [*(np.flatnonzero(h[1:] != h[:-1]) + 1).tolist(), len(x)]
    for s, e in zip([0, *ends], ends):
        xs, ys, c = x[s:e], y[s:e], first[s:e]
        phi[xs, ys] = _compose(lambda a: phi[c[:, None], ys[:, None], a],
                               phi[xs, c])


def _chain_failures(S, phi):
    """The triples x < z < y with φ(x, y) ≠ φ(z, y)∘φ(x, z), as {(x, y): [z]}.

    Only the cover triples x ≺ c < y are checked first, listed flat and
    compared in chunks.  That is exact: if φ(x, y) = φ(c, y)∘φ(x, c) for
    every upper cover c of x, then by induction on the length of [x, z]
    and associativity of partial composition φ(x, y) = φ(z, y)∘φ(x, z)
    for every z in [x, y], and all maximal chains compose alike.  Only
    when a cover triple fails are all triples materialised, one x at a
    time."""
    n, b = S.n, phi.shape[2]
    rows = phi.reshape(n * n, b)
    lt = S._leq & ~np.eye(n, dtype=bool)
    cov = S._cov_array
    k, Y = np.nonzero(lt[cov[:, 1]])
    X, C = cov[k, 0], cov[k, 1]
    step = max(1, _BLOCK_CELLS // b)
    for s in range(0, len(k), step):
        x, c, y = X[s:s + step], C[s:s + step], Y[s:s + step]
        outer = rows.take(c * n + y, axis=0)
        comp = _compose(lambda a: np.take_along_axis(outer, a, 1),
                        rows.take(x * n + c, axis=0))
        if (comp != rows.take(x * n + y, axis=0)).any():
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
    m = sys._members
    carrier, rows, start = m.carrier, m.rows, m.start
    size = np.diff(start)
    first = np.argmax(m.B, axis=0)
    at = m.loc[first, np.arange(len(carrier))]
    n, k = S.n, np.arange(m.join.shape[1])
    tables = []
    for T, op, end, name in ((S, m.join, m.zero, "sup"),
                             (S.dual(), m.meet, m.one, "inf")):
        U = np.full((n, n, len(k)), -1, dtype=np.intp)
        U[np.arange(n), np.arange(n)] = np.where(k < size[:, None], k, -1)
        X, C = T._cov_array.T
        e = m.loc[X, end[C]][:, None]  # 0_c in block x, -1 if it is not there
        held = k < size[X][:, None]
        g = rows[start[X][:, None] + np.where(held, op[X[:, None], k, e], 0)]
        U[X, C] = np.where(held, m.loc[C[:, None], g], -1)
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
    return (carrier, m.index, *tables)


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
    or None: a block is in another when their overlap is all of it."""
    S, C = sys.skeleton, sys._members.C
    i, j = S._cov_array.T
    nested = np.flatnonzero((C[i, j] == C[i, i]) | (C[i, j] == C[j, j]))
    if len(nested):
        return S._ids[i[nested[0]]], S._ids[j[nested[0]]]
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
