"""S-glued systems: blocks over a shared carrier indexed by a skeleton
lattice.  Validates the gluing axioms, builds the sum as the transitive
closure of the union of the block orders, and computes sup/inf through the
block-local staircase formulas, by the cover recurrence `connect` uses.

Inside, a system is read through one membership record in carrier
indices (`Membership`), built once per system: from the blocks' ids for a
hand-made system, or in one pass over a family of lattices' tables when
every block is an interval of one of them (`_sliced_blocks`), as in a
decomposition.  A family of systems is validated (`validations`) and
summed (`glued_sums`) in one pass; one system is a family of one."""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import _BLOCK_CELLS, FiniteLattice, InvariantViolated, \
    LatticeError, UnknownElement, _assembled, _from_orders, _offsets, \
    _transitive_closure, _with_spec


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
        family of one of `glued_sums`."""
        return glued_sums([self])[0]

    @cached_property
    def _blocks_of(self):
        """The skeleton ids of each carrier element's blocks, in skeleton
        order, built once: the blocks are read-only."""
        out = [[] for _ in self._members.carrier]
        ids = self.skeleton._ids
        for g, x in zip(*(k.tolist() for k in np.nonzero(self._members.B.T))):
            out[g].append(ids[x])
        return tuple(map(tuple, out))

    def carrier(self):
        return self._members.carrier

    def block_set(self, x):
        m = self._members
        i = self.skeleton.index(x)
        rows = m.rows[m.start.item(i):m.start.item(i + 1)].tolist()
        return {m.carrier[c] for c in rows}

    def blocks_of(self, a):
        g = self._members.index.get(a)
        return [] if g is None else list(self._blocks_of[g])

    def zero(self, x):
        m = self._members
        return m.carrier[m.zero.item(self.skeleton.index(x))]

    def one(self, x):
        m = self._members
        return m.carrier[m.one.item(self.skeleton.index(x))]


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
    owner = np.repeat(np.arange(n), start[1:] - start[:-1])
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
    """Blocks that are intervals [lo[i], hi[i]] of one lattice M, their
    ends given as M's indices, keyed by skeleton element: a read-only
    mapping that assembles a block's FiniteLattice (`core._assembled`)
    only when it is asked for, once, from M's covers and heights and the
    block's tables in `members`, the system's membership record (proof in
    `_sliced_blocks`)."""

    def __init__(self, keys, M, lo, hi, members):
        self.keys_in_order = tuple(keys)
        self._key = {x: i for i, x in enumerate(self.keys_in_order)}
        self._M, self._lo, self._hi, self.members = M, lo, hi, members
        self._built = {}

    def __getitem__(self, x):
        if x not in self._built:
            self._built[x] = self._block(self._key[x])
        return self._built[x]

    def _block(self, i):
        """Block i: its elements in M's order, M's covers between them in
        row-major order, heights and depths from M's heights, and its
        tables copied out of the record's stacks."""
        M, m, h = self._M, self.members, self._M._height
        ids = [m.carrier[c] for c in m.rows[m.start[i]:m.start[i + 1]].tolist()]
        pos = {M._idx[a]: p for p, a in enumerate(ids)}
        cov = [(p, q) for k, p in pos.items()
               for q in sorted(pos[j] for j in M._up_adj[k] if j in pos)]
        lo, hi, s = h[self._lo[i]], h[self._hi[i]], len(ids)
        return _assembled(ids, cov, [h[k] - lo for k in pos], [hi - h[k] for k in pos],
                          *(t[i, :s, :s].copy() for t in (m.leq, m.join, m.meet)))

    def __contains__(self, x):
        return x in self._key

    def __iter__(self):
        return iter(self.keys_in_order)

    def __len__(self):
        return len(self.keys_in_order)

    def __repr__(self):
        return f"SlicedBlocks({len(self)} blocks of {self._M!r})"


def _sliced_blocks(fam, keys, lo, hi):
    """The blocks of the lattices of `fam` (a `core._Family`), each the
    interval between its ends, cut in one pass over the family's tables.
    keys[k] keys the blocks of lattices[k]; lo and hi are the family
    indices of each block's 0 and 1, the blocks of one lattice after
    another, lo ≤ hi.  Returns one `SlicedBlocks`, with its membership
    record, per lattice.

    A block's join and meet tables are its lattice's, renumbered and
    looked up for all blocks of one size at once.  An interval [lo, hi] is
    a sublattice: the join of two of its elements lies above lo, which is
    below both, and, being their least upper bound, below hi, which is
    above both; meets dually.  So its joins and meets are the lattice's,
    with nothing to check.  An interval is convex, so nothing outside it
    lies between two of its elements: its covers are the lattice's covers
    with both ends in it.  Every lattice whose blocks are cut is modular
    (`skeleton.decompositions` refuses any other) and so graded, so an
    element e has height h(e) - h(lo) and depth h(hi) - h(e) in [lo, hi],
    h its height in the lattice.  `SlicedBlocks` assembles each block
    from these."""
    Ms, start = fam.lattices, fam.start
    nb = [len(x) for x in keys]
    first = _offsets(nb)  # each lattice's first block
    blat = np.repeat(np.arange(len(Ms)), nb)  # the lattice of each block
    n = (start[1:] - start[:-1])[blat]
    cell0 = _offsets(n)
    base = start[blat] - cell0[:-1]  # cell c of block i is element c + base[i]
    # one cell per element e of a block's lattice, kept where lo ≤ e ≤ hi
    cell_block = np.repeat(np.arange(len(blat)), n)
    cell_elem = np.arange(cell0[-1]) + base[cell_block]
    cells = np.flatnonzero(fam.leq[fam.row[lo[cell_block]] + cell_elem]
                           & fam.leq[fam.row[cell_elem] + hi[cell_block]])
    # block by block, in each lattice's order
    owner, elem = cell_block[cells], cell_elem[cells]
    size = np.bincount(owner, minlength=len(blat))
    bstart = _offsets(size)
    place = np.full(cell0[-1], -1, dtype=np.intp)  # a cell's index in its block
    place[cells] = np.arange(len(cells)) - bstart[owner]
    # the tables of the lattices whose largest block has w elements, their
    # blocks stacked and padded to w; at[i] is block i's place in its stack
    widest = np.maximum.reduceat(size, first[:-1]).tolist()
    sizes, by_width = size.tolist(), {}
    for m, w in enumerate(widest):
        by_width.setdefault(w, []).extend(range(first[m], first[m + 1]))
    stacks, at = {}, np.empty(len(blat), dtype=np.intp)
    for w, g in by_width.items():
        at[g] = np.arange(len(g))
        by_size = {}
        for r, i in enumerate(g):
            by_size.setdefault(sizes[i], []).append(r)
        g = np.array(g)
        leq = np.zeros((len(g), w, w), dtype=bool)
        ops = np.zeros((2, len(g), w, w), dtype=np.int32)
        for s, r in by_size.items():
            i = g[r]
            e = elem[bstart[i][:, None] + np.arange(s)]
            cell = fam.row[e][:, :, None] + e[:, None, :]
            leq[r, :s, :s] = fam.leq[cell]
            for t, T in zip(ops, (fam.join, fam.meet)):
                t[r, :s, :s] = place[T[cell] - base[i][:, None, None]]
        stacks[w] = leq, *ops
    # each carrier: its lattice's elements by the first block they are in,
    # then in the lattice's order; an element in no block comes last
    firstblock = np.full(start[-1], len(blat))
    np.minimum.at(firstblock, elem, owner)
    perm = np.argsort(firstblock, kind="stable")[:np.count_nonzero(firstblock < len(blat))]
    lat = fam.lat[perm]
    cfirst = _offsets(np.bincount(lat, minlength=len(Ms)))
    where = np.full(start[-1], -1, dtype=np.intp)
    where[perm] = np.arange(len(perm)) - cfirst[lat]
    rows, zero, one = where[elem], where[lo], where[hi]
    perm = (perm - start[lat]).tolist()
    blocks = []
    for k, M in enumerate(Ms):
        i, j = first[k], first[k + 1]
        ids, r, a, s = M._ids, bstart[i], at[i], start[k]
        members = _members(tuple(ids[p] for p in perm[cfirst[k]:cfirst[k + 1]]),
                           rows[r:bstart[j]], bstart[i:j + 1] - r, zero[i:j],
                           one[i:j], *(t[a:a + j - i] for t in stacks[widest[k]]))
        blocks.append(SlicedBlocks(keys[k], M, lo[i:j] - s, hi[i:j] - s,
                                   members))
    return blocks


def _images(f, b):
    """Image masks over the target block of index maps f (rows)."""
    img = np.zeros((len(f), b + 1), dtype=bool)
    img[np.arange(len(f))[:, None], f] = True  # -1 lands in the extra column
    return img[:, :b]


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
        di, dj, ii, ij = dom[:, :, None], dom[:, None, :], img[:, :, None], img[:, None, :]
        both = di & dj
        lx, ly = leq[x], leq[y]
        gc = np.maximum(g, 0)
        # a flat index into a stack of masks or tables: row k starts at k·b
        row = (np.arange(len(g)) * b)[:, None, None]
        out[0, s:s + step] = img.sum(1) != dom.sum(1)
        out[1, s:s + step] = ((di & ~dj & lx)
                              | (both & ~dom.take(meet[x] + row))).any((1, 2))
        out[2, s:s + step] = ((ij & ~ii & ly)
                              | (ii & ij & ~img.take(join[y] + row))).any((1, 2))
        image_leq = ly.take(gc[:, :, None] * b + gc[:, None, :] + row * b)
        out[3, s:s + step] = (both & (lx != image_leq)).any((1, 2))
    return out


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
    return validations([sys])[0]


def validations(systems):
    """`validate` of each of `systems`, in order, in one pass over all of
    them: their visited pairs found together (`_visited`), every block's
    membership in one padded array (`_memberships`), and one (17) kernel
    call per table width."""
    if not systems:
        return []
    Ss = [sys.skeleton for sys in systems]
    ms = [sys._members for sys in systems]
    out = [[] for _ in systems]
    k, i, j, comparable, converse, overlap, meet, join = _visited(Ss, ms)
    fb = _offsets([S.n for S in Ss])  # each system's first block
    I, J = fb[k] + i, fb[k] + j
    glued = comparable & overlap
    q = np.nonzero(overlap & ~(comparable | converse))[0]
    g = np.nonzero(glued)[0]
    a4 = np.zeros(len(k), dtype=bool)
    iso = np.zeros((4, len(k)), dtype=bool)
    if len(q) or len(g):
        rows, r0, loc, B = _memberships(ms)
    if len(q):
        # (A4): an incomparable pair overlaps inside its meet- and join-block
        x = fb[k[q]]
        a4[q] = (B[I[q]] & B[J[q]] & ~(B[meet[q] + x] & B[join[q] + x])).any(axis=1)
    if len(g):
        # (A1), (A2): the kernel on the identity of each overlap, once per
        # table width, on the stacked tables of the systems of that width
        width = [m.leq.shape[1] for m in ms]
        by_width = {}
        for m, w in enumerate(width):
            by_width.setdefault(w, []).append(m)
        one = len(by_width) == 1  # then the stack is every block, in order
        wide = None if one else np.array(width)[k[g]]
        for w, group in by_width.items():
            p = g if one else g[wide == w]
            if not len(p):
                continue
            tables = [_joined(t) for t in
                      zip(*((ms[m].leq, ms[m].join, ms[m].meet) for m in group))]
            X, Y = I[p], J[p]
            if not one:  # a system's blocks start at its first row
                shift = np.zeros(len(ms), dtype=np.intp)
                shift[group] = fb[group] - _offsets([Ss[m].n for m in group])[:-1]
                X, Y = X - shift[k[p]], Y - shift[k[p]]
            # f[p, a]: the index in block J of the a-th element of block I,
            # -1 outside the overlap or past block I's size
            r = r0[I[p]][:, None] + np.arange(w)
            f = np.where(r < r0[I[p] + 1][:, None],
                         loc[J[p][:, None], rows.take(r, mode="clip")], -1)
            iso[:, p] = _iso_failures(tables, X, Y, f)
    for p in np.nonzero((comparable & ~glued) | iso.any(axis=0) | a4)[0]:
        S, m, i_, j_ = Ss[k[p]], ms[k[p]], i[p], j[p]
        x, y = S.elements[i_], S.elements[j_]
        if a4[p]:
            inside = m.B[i_] & m.B[j_] & ~(m.B[S._meet[i_, j_]] & m.B[S._join[i_, j_]])
            bad = sorted((m.carrier[c] for c in np.flatnonzero(inside)), key=str)
            out[k[p]].append(GlueViolation("A4", (x, y, tuple(bad))))
        elif not glued[p]:
            out[k[p]].append(GlueViolation("A3", (x, y)))
        elif iso[1, p]:
            out[k[p]].append(GlueViolation("A1", (x, y, "overlap is not a filter of the lower block")))
        elif iso[2, p]:
            out[k[p]].append(GlueViolation("A1", (x, y, "overlap is not an ideal of the upper block")))
        else:
            ov = np.flatnonzero(m.B[i_] & m.B[j_])
            ix, iy = m.loc[i_, ov], m.loc[j_, ov]
            differ = m.leq[i_][np.ix_(ix, ix)] != m.leq[j_][np.ix_(iy, iy)]
            out[k[p]] += [GlueViolation("A2", (x, y, m.carrier[ov[a]], m.carrier[ov[b]]))
                          for a, b in np.argwhere(differ)]
    return out


def _visited(Ss, ms):
    """The pairs x ≠ y of the skeletons Ss whose blocks overlap or that
    are a cover, system by system and row by row: the system k, the
    elements i and j, whether i ≤ j, whether j ≤ i, whether the blocks
    overlap, and i·j and i + j.  A system alone is read from its own n×n
    arrays, a family from its arrays flattened one after another."""
    if len(Ss) == 1:
        (S,), (m,) = Ss, ms
        visit = m.C > 0
        visit[tuple(S._cov_array.T)] = True
        np.fill_diagonal(visit, False)
        i, j = np.nonzero(visit)
        return (np.zeros(len(i), dtype=np.intp), i, j, S._leq[i, j],
                S._leq[j, i], m.C[i, j] > 0, S._meet[i, j], S._join[i, j])
    nb = np.array([S.n for S in Ss])
    # pair (i, j) of system k is cell sq[k] + i·nb[k] + j
    sq = _offsets(nb * nb)
    C = np.concatenate([m.C.ravel() for m in ms])
    leq = np.concatenate([S._leq.ravel() for S in Ss])
    visit = C > 0
    s = np.repeat(np.arange(len(Ss)), [len(S._cov) for S in Ss])  # each cover's system
    lo, hi = np.concatenate([S._cov_array for S in Ss]).T
    visit[sq[s] + lo * nb[s] + hi] = True
    P = np.nonzero(visit)[0]
    k = np.searchsorted(sq, P, side="right") - 1
    n = nb[k]
    i, j = np.divmod(P - sq[k], n)
    pairs = i != j
    P, k, n, i, j = P[pairs], k[pairs], n[pairs], i[pairs], j[pairs]
    return (k, i, j, leq[P], leq[P - (i - j) * (n - 1)], C[P] > 0,
            np.concatenate([S._meet.ravel() for S in Ss])[P],
            np.concatenate([S._join.ravel() for S in Ss])[P])


def _memberships(ms):
    """The membership records `ms` side by side, their blocks one after
    another: every block's rows, from r0[b] to r0[b + 1], and loc[b, c],
    the index in block b of element c of its system's carrier (-1 outside
    it), padded to the largest carrier, with B = loc ≥ 0.  A record alone
    is read as it is."""
    if len(ms) == 1:
        m, = ms
        return m.rows, m.start, m.loc, m.B
    rows = np.concatenate([m.rows for m in ms])
    r0 = np.concatenate([m.start[:-1] + s for m, s in
                         zip(ms, _offsets([len(m.rows) for m in ms]))] + [[len(rows)]])
    owner = np.repeat(np.arange(len(r0) - 1), r0[1:] - r0[:-1])
    loc = np.full((len(r0) - 1, max(len(m.carrier) for m in ms)), -1, dtype=np.intp)
    loc[owner, rows] = np.arange(len(rows)) - r0[owner]
    return rows, r0, loc, loc >= 0


def _joined(arrays):
    """Arrays one after another along the first axis; one alone is
    itself, not a copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _order_union(sys, at=None):
    """The carrier and the union of the block orders over it, reflexive.
    Given `at`, an array that puts carrier element k at position at[k],
    the union is laid out in that order instead."""
    m = sys._members
    rows = m.rows if at is None else at[m.rows]
    i, a, b = np.nonzero(m.leq)
    R = np.zeros((len(m.carrier), len(m.carrier)), dtype=bool)
    R[rows[m.start[i] + a], rows[m.start[i] + b]] = True
    return m.carrier, R


def order_closure(sys):
    """The carrier and the transitive closure of `_order_union`."""
    carrier, R = _order_union(sys)
    return carrier, _transitive_closure(R)


def glued_sum(sys):
    """The sum lattice of a system, kept on it (`GluedSystem._sum`)."""
    return sys._sum


def glued_sums(systems):
    """The sum lattice of each of `systems`, in order, each kept on its
    system: the transitive closure of the union of its block orders,
    re-validated from scratch (unique joins/meets are checked, not
    assumed).  The sums not yet built are built as one `_from_orders`
    batch.  The error raised is the NotALattice that building the sums one
    at a time raises first, with `spec`, the index of its system."""
    todo = [k for k, sys in enumerate(systems) if "_sum" not in vars(sys)]

    def orders():
        for k in todo:
            carrier, leq = order_closure(systems[k])
            cyclic = np.argwhere(leq & leq.T & ~np.eye(len(carrier), dtype=bool))
            if len(cyclic):
                a, b = (carrier[i] for i in cyclic[0])
                raise NotALattice(
                    f"closure order not antisymmetric at ({a!r}, {b!r})")
            yield carrier, leq

    try:
        sums = _from_orders(orders())
    except LatticeError as e:
        k = todo[e.spec]
        if isinstance(e, NotALattice):
            raise _with_spec(e, k)
        raise _with_spec(NotALattice(str(e)), k) from e
    for k, L in zip(todo, sums):
        vars(systems[k])["_sum"] = L
    return [sys._sum for sys in systems]


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


def sup_via_formulas(sys, a, b):
    """sup in the sum from block joins only (see _formula_tables), read
    in place as a Python int; UnknownElement names the first of a, b in
    no block."""
    carrier, index, sup, _ = sys._formulas
    try:
        return carrier[sup.item(index[a], index[b])]
    except KeyError as e:
        raise UnknownElement(f"{e.args[0]!r} is in no block") from None


def inf_via_formulas(sys, a, b):
    """inf in the sum from block meets only, the dual of sup_via_formulas."""
    carrier, index, _, inf = sys._formulas
    try:
        return carrier[inf.item(index[a], index[b])]
    except KeyError as e:
        raise UnknownElement(f"{e.args[0]!r} is in no block") from None


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
