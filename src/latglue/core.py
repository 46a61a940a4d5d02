"""Finite bounded lattices given by their cover relation or their order.

A lattice is built from a list of element ids and a list of cover pairs
(lower, upper).  Construction eagerly computes the order closure and the
join/meet tables and validates everything: the cover digraph must be acyclic,
must be its own transitive reduction, the order must be bounded, and every
pair of elements must have a unique least upper bound and greatest lower
bound.  Instances are immutable after construction: the order matrix and
the join/meet tables are made read-only where they are finished
(`_freeze`), so a write into them raises ValueError, and the covers,
adjacency, heights and depths are tuples.  Many lattices are built as one
batch, from covers (`_lattices`) or from orders (`_from_orders`); both
share one table step (`_batch`) among the lattices of one size.  The
constructor is the batch of one of covers, `from_leq` that of orders.

A lattice whose covers, order, tables, heights and depths are known by
proof is `_assembled`: its ids are checked and the rest is stored as given
(`product`, `boolean`, `chain`, the blocks of `distributive_with_skeleton`
and the blocks of a decomposition).  Any other goes through the batch:
from covers (`_lattices`), or from an order matrix (`_from_orders`, so
`from_leq`, `restrict` and `interval`), which takes one route,
`_from_order`, to a lattice without tables.  The skeleton S(M) takes that
route too, with the parent's tables; the dual transposes a lattice's, and
a relabelled copy shares them.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np


class LatticeError(Exception):
    pass


class CycleDetected(LatticeError):
    pass


class NotTransitiveReduction(LatticeError):
    pass


class NoUniqueJoin(LatticeError):
    pass


class NoUniqueMeet(LatticeError):
    pass


class NotBounded(LatticeError):
    pass


class UnknownElement(LatticeError):
    pass


class NotComparable(LatticeError):
    pass


class LimitExceeded(LatticeError):
    """An exponential search reached its explicit bound."""


class InvariantViolated(LatticeError):
    """A derived fact the library checks, not assumes, failed to hold.
    `witness` is the first offending pair or element."""

    def __init__(self, what, witness):
        super().__init__(f"{what}: {witness!r}")
        self.witness = witness


# About how many cells a chunked kernel looks at at once.
_BLOCK_CELLS = 1 << 16


# Size of one block of the Möbius back-substitution.
_SOLVE_BLOCK = 32


def _mobius(leq, topo):
    """The Möbius transforms v and w of the indices along the orders
    leq[k, i, j] (i below j), m of them of one size n, and their duals:
    row k of the (2m, n) result is v of order k and row m + k its w.
    ζ·v = ζᵀ·w = (0, 1, …, n−1) for ζ = leq[k], so that the sum of v over
    the up-set of c, and of w over its down-set, is c.  In the linear
    extension topo[k] ζ is unit upper triangular, and so is ζᵀ in its
    reverse, so every row comes from one stacked back-substitution, a block
    of at most _SOLVE_BLOCK positions at a time.  A block I + N, N its
    strict order, is inverted as (I − N)(I + N²)(I + N⁴)…, whose integer
    entries count chains of at most 32 elements, below 2**30; every step is
    exact while the values stay integers below 2**53."""
    m, n = topo.shape
    offset = np.arange(0, 2 * m * n, n)[:, None]  # of each row, flattened
    rows = topo + offset[:m]
    # ζ in positions, transposed: rows permuted, then rows of the transpose
    posT = leq.reshape(m * n, n)[rows].transpose(0, 2, 1) \
        .reshape(m * n, n)[rows]
    # strict, in positions: the orders, then their duals reversed
    lt = np.concatenate([posT.transpose(0, 2, 1), posT[:, ::-1, ::-1]])
    lt.reshape(2 * m, n * n)[:, ::n + 1] = False
    order = np.concatenate([topo, topo[:, ::-1]])
    t = order.astype(np.float64)[:, :, None]
    x = np.zeros((2 * m, n, 1))
    for e in range(n, 0, -_SOLVE_BLOCK):
        b = slice(max(0, e - _SOLVE_BLOCK), e)
        rows = lt[:, b].astype(np.float64)
        y = t[:, b] - rows @ x if e < n else t[:, b]
        N = rows[:, :, b]
        y = y - N @ y
        for _ in range(1, (e - b.start - 1).bit_length()):
            N = N @ N
            y += N @ y
        x[:, b] = y
    vw = np.empty(2 * m * n)
    vw[order + offset] = x[..., 0]
    return vw.reshape(2 * m, n)


def _least_bounds(leq, topo):
    """Candidate join and meet tables of the orders leq[k, i, j] (i below
    j), m of them of one size n, found without search, with the mask of
    the pairs their counting certificate leaves open; both (2m, n, n), the
    join of order k at k and its meet at m + k.

    A pair with a least upper bound j has ↑j as its common upper bounds,
    so with v from `_mobius` the sum of v over them, the entry of
    (ζ·diag v)·ζᵀ, is j; meets come dually from ζᵀ and w.  The products
    are exact in float32 while the sum of |v| stays below 2**24 (it is
    3,300 for boolean(8) and 16,136 for the partition lattice Π₆).  Every
    candidate is certified by counting (`_uncertified`), so rounding can
    flag a pair but never accept one; `_settle` rechecks the flagged
    pairs exactly."""
    m, n, _ = leq.shape
    # the orders ζ, then their transposes ζᵀ
    Uf = np.concatenate([leq, leq.transpose(0, 2, 1)], dtype=np.float32)
    v = _mobius(leq, topo).astype(np.float32)
    tables = np.empty((2 * m, n, n), dtype=np.int32)
    for o, rows in _chunks(2 * m, n):
        c = (Uf[o, rows] * v[o, None, :]) @ Uf[o].transpose(0, 2, 1)
        # any value is only a candidate: NaN becomes 0, the rest is clipped
        np.fmax(c, 0, out=c)
        tables[o, rows] = np.fmin(c, n - 1, out=c)
    return tables, _uncertified(Uf, tables)


def _chunks(k, n):
    """Slices (orders, rows) that cover the products of a stack of k n×n
    matrices, each touching about _BLOCK_CELLS cells: many small orders at
    a time, one large order a block of rows at a time."""
    per = max(1, _BLOCK_CELLS // (n * n))
    step = max(1, _BLOCK_CELLS // (per * n))
    for o in range(0, k, per):
        for s in range(0, n, step):
            yield slice(o, o + per), slice(s, s + step)


def _uncertified(Uf, table):
    """The counting certificate of the candidate least bounds table[k]
    over the orders Uf[k, i, j] (i below j, in float32): c is certified
    for (a, b) when it is a common bound and the pair has exactly as many
    common bounds as c has elements above it, so that they are ↑c and c
    is least.  Returns a mask over the orders that flags (a, b) or (b, a)
    in every pair that fails in some order: (a, b) is flagged unless
    table[k, a, b] = table[k, b, a] is above a with that count, and (b, a)
    tests b.  Counts up to 2**24 are exact in float32."""
    k, n, _ = Uf.shape
    # the size of ↑c in row a where a ≤ c and 0 elsewhere, never a number
    # of common bounds (the top is one): one gather tests both
    sized = (Uf * Uf.sum(axis=2)[:, None, :]).ravel()
    row = np.arange(0, k * n * n, n).reshape(k, n, 1)
    bad = table != table.transpose(0, 2, 1)
    for o, rows in _chunks(k, n):
        bad[o, rows] |= sized.take(table[o, rows] + row[o, rows]) \
            != Uf[o, rows] @ Uf[o].transpose(0, 2, 1)
    return bad


def _transitive_closure(rel):
    """The transitive closure of a reflexive boolean relation, squared (a
    float32 product through BLAS) until it no longer grows."""
    while True:
        f = rel.astype(np.float32)
        closed = (f @ f) > 0
        if np.array_equal(closed, rel):
            return rel
        rel = closed


def _settle(leq, order, ids, join, meet, flagged):
    """Recheck the pairs flagged in any layer of `flagged` exactly with
    the per-pair rule: the first common bound in `order`, a linear
    extension, is least exactly when the pair has as many common bounds as
    it has elements above it.  A least bound is patched into the table; at
    the first pair (a ≤ b, row-major) that has none, the join before the
    meet, NoUniqueJoin or NoUniqueMeet is raised."""
    if not flagged.any():
        return
    n = len(order)
    flagged = flagged.reshape(-1, n, n).any(axis=0)
    A, B = np.nonzero(np.triu(flagged | flagged.T))
    rules = ((leq, order, join), (leq.T, order[::-1], meet))
    step = max(1, _BLOCK_CELLS // n)
    for s in range(0, len(A), step):
        a, b = A[s:s + step], B[s:s + step]
        least = []
        for up, ext, table in rules:
            common = up[a][:, ext] & up[b][:, ext]
            first = ext[common.argmax(axis=1)]
            table[a, b] = table[b, a] = first
            least.append(common.sum(axis=1) == up[first].sum(axis=1))
        bad = np.flatnonzero(~(least[0] & least[1]))
        if len(bad):
            p = bad[0]
            if not least[0][p]:
                _raise_no_bound(ids, a[p], b[p], join[a[p], b[p]], leq,
                                NoUniqueJoin, "upper")
            _raise_no_bound(ids, a[p], b[p], meet[a[p], b[p]], leq.T,
                            NoUniqueMeet, "lower")


def _raise_no_bound(ids, a, b, c, up, err, kind):
    # c is a minimal common bound but not the least, so some common bound
    # lies outside up[c]; the one with fewest elements below it is minimal
    # too, and incomparable with c
    rest = up[a] & up[b] & ~up[c]
    other = min(np.flatnonzero(rest), key=lambda i: up[:, i].sum())
    raise err(f"({ids[a]!r}, {ids[b]!r}) has incomparable minimal {kind} "
              f"bounds {ids[c]!r} and {ids[other]!r}")


def _with_spec(e, k):
    """The error e, carrying `spec`: the index of the item of a batch it
    was raised for."""
    e.spec = int(k)
    return e


def _freeze(L):
    """Make L's order and join/meet tables read-only, once they are
    final: a write into them raises ValueError."""
    for a in (L._leq, L._join, L._meet):
        a.flags.writeable = False


class _Family(NamedTuple):
    """Lattices side by side in one index space, so that a stage can run
    once over all of them: element i of lattices[k] is start[k] + i, and
    lat maps an element to its lattice.  leq, join and meet are the
    lattices' tables flattened one after another, joins and meets in
    family indices; the entry of a and b (one lattice's) is at
    row[a] + b."""
    lattices: list
    start: np.ndarray
    lat: np.ndarray
    row: np.ndarray
    leq: np.ndarray
    join: np.ndarray
    meet: np.ndarray


def _offsets(sizes):
    """Where each of consecutive runs of `sizes` items starts, and the
    total: [0, s0, s0 + s1, …]."""
    out = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.add.accumulate(sizes, out=out[1:])
    return out


def _family(Ms):
    """The lattices `Ms` as one `_Family`; a family of one reads its
    lattice's own tables."""
    n = [M.n for M in Ms]
    start = _offsets(n)
    lat = np.repeat(np.arange(len(Ms)), n)
    if len(Ms) == 1:
        M, = Ms
        return _Family(Ms, start, lat, np.arange(0, M.n * M.n, M.n),
                       M._leq.ravel(), M._join.ravel(), M._meet.ravel())
    size = np.array(n)
    # row[a] = the cell of (a, first element of a's lattice) - that element
    row = np.arange(start[-1]) * size[lat] \
        + (_offsets(size * size)[:-1] - start[:-1] * (size + 1))[lat]
    offset = np.repeat(start[:-1], size * size)
    return _Family(Ms, start, lat, row,
                   np.concatenate([M._leq.ravel() for M in Ms]),
                   np.concatenate([M._join.ravel() for M in Ms]) + offset,
                   np.concatenate([M._meet.ravel() for M in Ms]) + offset)


def _bounds(ids, up_adj, down_adj):
    """The indices of the bottom and the top; NotBounded unless each is
    the only element without lower (upper) covers."""
    bottoms = [i for i, d in enumerate(down_adj) if not d]
    tops = [i for i, u in enumerate(up_adj) if not u]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotBounded(
            f"minimal elements {[ids[i] for i in bottoms]}, "
            f"maximal elements {[ids[i] for i in tops]}")
    return bottoms[0], tops[0]


def _bit_matrix(rows, n=None):
    """The boolean matrix whose row i holds the low n bits of the int
    rows[i]; n is len(rows) unless given."""
    n = len(rows) if n is None else n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in rows]),
                           dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _named(elements):
    """A lattice with the ids `elements` and nothing else yet; NotBounded
    when there are none, LatticeError naming the first repeated id."""
    ids = tuple(elements)
    if not ids:
        raise NotBounded("empty element list")
    L = object.__new__(FiniteLattice)
    L._ids = ids
    L._idx = _indexed(ids)
    L.n = len(ids)
    return L


def _indexed(ids):
    """The index of each of the ids, a dict; LatticeError naming the
    first repeated id."""
    idx = {a: i for i, a in enumerate(ids)}
    if len(idx) != len(ids):
        seen = set()
        for a in ids:
            if a in seen:
                raise LatticeError(f"duplicate element ids: {a!r} is repeated")
            seen.add(a)
    return idx


def _linked(L, cov):
    """Give L the covers `cov`, index pairs, their adjacency up and down,
    and every element's height and depth (longest chain down to 0 and up
    to 1); returns Kahn's linear extension.  CycleDetected on a cycle.

    Kahn's pass visits elements first in, first out, and so by
    nondecreasing height.  An element is appended while its last lower
    cover is visited; its other lower covers were visited before, so none
    is higher, and its height is that cover's plus one, final when it is
    appended.  Depths come from one pass back along Kahn's order."""
    n = L.n
    up_adj, down_adj = _adjacency(L, cov)
    indeg = list(map(len, down_adj))
    height = [0] * n
    topo = [i for i in range(n) if indeg[i] == 0]
    for i in topo:
        h = height[i] + 1
        for j in up_adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                height[j] = h
                topo.append(j)
    if len(topo) != n:
        raise CycleDetected("cover digraph contains a cycle")
    depth = [0] * n
    for i in reversed(topo):
        d = 0
        for j in up_adj[i]:
            if depth[j] >= d:
                d = depth[j] + 1
        depth[i] = d
    L._height, L._depth = tuple(height), tuple(depth)
    return topo


def _adjacency(L, cov):
    """Give L the covers `cov`, index pairs, and the upper and lower
    covers of each element in the order of `cov`; returns them as lists."""
    L._cov = tuple(cov)
    up_adj = [[] for _ in range(L.n)]
    down_adj = [[] for _ in range(L.n)]
    for i, j in L._cov:
        up_adj[i].append(j)
        down_adj[j].append(i)
    L._up_adj = tuple(map(tuple, up_adj))
    L._down_adj = tuple(map(tuple, down_adj))
    return up_adj, down_adj


def _assembled(ids, cov, height, depth, leq, join, meet):
    """The lattice a construction knows by proof: its ids, its covers
    `cov` (index pairs, in the order the lattice lists them), every
    element's height and depth, the order leq[i, j] (i below j) and the
    join/meet tables, all given, so that nothing is derived from the
    covers or checked but the ids (`_named`).  The adjacency is read off
    `cov` as `_linked` reads it; the bottom is the element of height 0
    and the top the one of depth 0."""
    L = _named(ids)
    _adjacency(L, cov)
    L._height, L._depth = tuple(height), tuple(depth)
    L._bot, L._top = L._height.index(0), L._depth.index(0)
    L._leq = leq
    L._join = join.astype(np.int32, copy=False)
    L._meet = meet.astype(np.int32, copy=False)
    _freeze(L)
    return L


def _ordered(elements, covers):
    """The lattice of `elements` and `covers` without its order matrix
    and tables, checked in Python: distinct ids, covers between known
    elements and each listed once, no cycle, no cover implied by a path,
    one bottom and one top.  Returns it with Kahn's linear extension and
    the closure, bit j of up[i] set when i ≦ j."""
    L = _named(elements)
    ids, idx = L._ids, L._idx
    cov = []
    seen = set()
    for lo, hi in covers:
        if lo not in idx or hi not in idx:
            raise UnknownElement(f"cover ({lo!r}, {hi!r}) references unknown element")
        if lo == hi:
            raise CycleDetected(f"self-cover at {lo!r}")
        pair = (idx[lo], idx[hi])
        if pair in seen:
            raise LatticeError(f"duplicate cover ({lo!r}, {hi!r})")
        seen.add(pair)
        cov.append(pair)
    topo = _linked(L, cov)
    up_adj = L._up_adj

    # reflexive-transitive closure, bottom-up: bit j of up[i] is i ≦ j
    up = [0] * L.n
    for i in reversed(topo):
        bits = 1 << i
        for j in up_adj[i]:
            bits |= up[j]
        up[i] = bits

    # strict transitive-reduction check: no cover may be implied by a path
    for i, j in cov:
        for k in up_adj[i]:
            if k != j and up[k] >> j & 1:
                raise NotTransitiveReduction(
                    f"cover ({ids[i]!r}, {ids[j]!r}) is implied via {ids[k]!r}")

    L._bot, L._top = _bounds(L._ids, up_adj, L._down_adj)
    return L, topo, up


def _from_order(elements, leq):
    """The lattice of the partial order leq[i, j] (i below j) over
    `elements`, without join/meet tables, and Kahn's linear extension of
    it.  Its covers lt & ~(lt·lt), in row-major order, come from one
    float32 product, which also refuses a relation that is not a partial
    order, right after the cycle check; NotBounded unless bounded."""
    L = _named(elements)
    lt = leq & ~np.eye(L.n, dtype=bool)
    # float32 products go through BLAS and count paths up to n exactly
    ltf = lt.astype(np.float32)
    two_steps = (ltf @ ltf) > 0
    lo, hi = np.nonzero(lt & ~two_steps)
    topo = _linked(L, zip(lo.tolist(), hi.tolist()))
    # transitive and antisymmetric exactly when every two-step path is a
    # strict step (a cycle a < b < a is the two-step path a, a)
    if not leq.diagonal().all() or (two_steps & ~lt).any():
        raise LatticeError("relation is not a partial order: its covers "
                           "generate a different order")
    L._leq = leq
    L._bot, L._top = _bounds(L._ids, L._up_adj, L._down_adj)
    return L, np.array(topo)


def _lattices(specs):
    """The lattices of the (elements, covers) pairs in `specs`, in order,
    built as one batch (`_batch`).  Each is checked in Python (`_ordered`);
    the lattices of one size get their order matrices from one bit
    unpacking.

    The error raised is the one that building the specs one at a time
    raises first: a failed check, or a pair without a least bound
    (NoUniqueJoin, NoUniqueMeet) in an earlier spec's tables.  `specs` may
    be a generator, whose own errors count as the spec's it was making.
    The error carries `spec`, the index of the spec it was raised for."""
    def stacked(ups, n):
        return _bit_matrix([r for up in ups for r in up], n) \
            .reshape(len(ups), n, n)

    return _batch(specs, _ordered, stacked)


def _from_orders(items):
    """The lattices of the (elements, leq) pairs in `items`, in order, each
    built as `from_leq` builds it, as one batch (`_batch`): the order is
    checked and reduced to its covers (`_from_order`).  Errors as in
    `_lattices`."""
    def checked(elements, leq):
        L, topo = _from_order(elements, np.array(leq, dtype=bool, order="C"))
        return L, topo, L._leq

    def stacked(leqs, n):
        # a lattice alone keeps its own copy of the order
        return leqs[0][None] if len(leqs) == 1 else np.stack(leqs)

    return _batch(items, checked, stacked)


def _batch(items, check, stacked):
    """The lattices of `items`, in order, built with one table step per
    size.  check(*item) returns a lattice without tables, its linear
    extension and its order in any form; stacked(orders, n) stacks the
    orders of the lattices of size n as an (m, n, n) boolean array.  The
    lattices of one size get their join/meet tables from one
    `_least_bounds`, then the pairs left open are settled per lattice
    (`_settle`), in order.  The first error, a settled one before one that
    `check` or `items` raised, gets `spec`, the index of its item."""
    built, error = [], None
    try:
        for item in items:
            built.append(check(*item))
    except Exception as e:  # raised after the items before it are settled
        error = e
    sizes = {}
    for k, (L, _, _) in enumerate(built):
        sizes.setdefault(L.n, []).append(k)
    to_settle = [None] * len(built)  # (linear extension, flagged pairs)
    for n, ks in sizes.items():
        leq = stacked([built[k][2] for k in ks], n)
        topo = np.array([built[k][1] for k in ks])
        tables, flagged = _least_bounds(leq, topo)
        for i, k in enumerate(ks):
            L = built[k][0]
            L._leq, L._join, L._meet = leq[i], tables[i], tables[len(ks) + i]
            to_settle[k] = topo[i], flagged[i::len(ks)]
    for k, ((L, _, _), (topo, flagged)) in enumerate(zip(built, to_settle)):
        try:
            _settle(L._leq, topo, L._ids, L._join, L._meet, flagged)
        except LatticeError as e:
            e.spec = k
            raise
        _freeze(L)
    if error is not None:
        error.spec = len(built)
        raise error
    return [L for L, _, _ in built]


class FiniteLattice:
    """A finite bounded lattice over hashable element ids, kept in index
    space: `_leq` is the order matrix, `_join` and `_meet` the index
    tables, `_cov` and the adjacency, heights and depths tuples.

    A built lattice is read-only: every route that finishes an order or
    a table (the batch step, `dual`, `_assembled`, the skeleton lattice)
    makes it read-only, and the other routes share or copy those arrays,
    so a write into `_leq`, `_join` or `_meet` raises ValueError.  The
    attributes themselves are not guarded, since a guard would tax every
    attribute set during construction and the caches kept on the
    lattice.  Replacing one of them forges another lattice, which only
    tests do, to show what a check refuses."""

    def __init__(self, elements, covers):
        self.__dict__ = _lattices([(elements, covers)])[0].__dict__

    @classmethod
    def from_leq(cls, elements, leq):
        """Lattice of the reflexive partial order `leq`, a boolean matrix
        over `elements` that the lattice keeps a copy of (`_from_order`),
        with its join/meet tables: the batch of one of `_from_orders`."""
        return _from_orders([(elements, leq)])[0]

    # -- basic accessors -------------------------------------------------

    @property
    def elements(self):
        return self._ids

    @property
    def covers(self):
        return tuple((self._ids[i], self._ids[j]) for i, j in self._cov)

    @cached_property
    def _cov_array(self):
        """The covers as a read-only (m, 2) intp array of index pairs, in
        `_cov`'s order; built on first use and shared by relabelled
        copies."""
        cov = np.array(self._cov, dtype=np.intp).reshape(-1, 2)
        cov.flags.writeable = False
        return cov

    @property
    def bottom(self):
        return self._ids[self._bot]

    @property
    def top(self):
        return self._ids[self._top]

    def index(self, a):
        try:
            return self._idx[a]
        except KeyError:
            raise UnknownElement(repr(a)) from None

    def __contains__(self, a):
        return a in self._idx

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FiniteLattice({self.n} elements, {len(self._cov)} covers)"

    # The element queries read the frozen tables in place as Python ints
    # (`ndarray.item`), in one `try` over the index lookups: an id outside
    # the lattice is UnknownElement naming it, the first argument first.

    def leq(self, a, b):
        idx = self._idx
        try:
            return self._leq.item(idx[a], idx[b])
        except KeyError as e:
            raise UnknownElement(repr(e.args[0])) from None

    def lt(self, a, b):
        idx = self._idx
        try:
            i, j = idx[a], idx[b]
        except KeyError as e:
            raise UnknownElement(repr(e.args[0])) from None
        return i != j and self._leq.item(i, j)

    def join(self, a, b):
        idx = self._idx
        try:
            return self._ids[self._join.item(idx[a], idx[b])]
        except KeyError as e:
            raise UnknownElement(repr(e.args[0])) from None

    def meet(self, a, b):
        idx = self._idx
        try:
            return self._ids[self._meet.item(idx[a], idx[b])]
        except KeyError as e:
            raise UnknownElement(repr(e.args[0])) from None

    def join_all(self, items):
        c, join, idx = self._bot, self._join, self._idx
        try:
            for a in items:
                c = join.item(c, idx[a])
        except KeyError as e:
            raise UnknownElement(repr(e.args[0])) from None
        return self._ids[c]

    def meet_all(self, items):
        c, meet, idx = self._top, self._meet, self._idx
        try:
            for a in items:
                c = meet.item(c, idx[a])
        except KeyError as e:
            raise UnknownElement(repr(e.args[0])) from None
        return self._ids[c]

    def height(self, a):
        return self._height[self.index(a)]

    def depth(self, a):
        return self._depth[self.index(a)]

    def length(self):
        return self._height[self._top]

    def atoms(self):
        return {self._ids[j] for j in self._up_adj[self._bot]}

    def coatoms(self):
        return {self._ids[j] for j in self._down_adj[self._top]}

    def upper_covers(self, a):
        return {self._ids[j] for j in self._up_adj[self.index(a)]}

    def lower_covers(self, a):
        return {self._ids[j] for j in self._down_adj[self.index(a)]}

    def up_set(self, a):
        up = np.flatnonzero(self._leq[self.index(a)]).tolist()
        return {self._ids[j] for j in up}

    def down_set(self, a):
        down = np.flatnonzero(self._leq[:, self.index(a)]).tolist()
        return {self._ids[j] for j in down}

    def order_pairs(self):
        """All pairs (a, b) with a ≦ b, as a set of id pairs."""
        return {(self._ids[i], self._ids[j])
                for i, j in zip(*np.nonzero(self._leq))}

    # -- derived lattices ------------------------------------------------

    def dual(self):
        """The dual lattice, by transposition: the order transposed, join
        and meet, up and down, height and depth, 0 and 1 swapped, every
        cover reversed in place."""
        L = object.__new__(FiniteLattice)
        L._ids, L._idx, L.n = self._ids, self._idx, self.n
        L._cov = tuple((j, i) for i, j in self._cov)
        L._up_adj, L._down_adj = self._down_adj, self._up_adj
        L._height, L._depth = self._depth, self._height
        L._bot, L._top = self._top, self._bot
        L._leq = np.ascontiguousarray(self._leq.T)
        L._join, L._meet = self._meet, self._join
        _freeze(L)
        return L

    def _relabelled(self, ids):
        """This lattice with element i renamed ids[i]; LatticeError naming
        the first repeated id unless they are distinct.  The order, the
        tables and what is kept in index space are shared, not rebuilt;
        the skeleton lattice, which holds ids, is not."""
        L = object.__new__(FiniteLattice)
        L.__dict__.update(self.__dict__)
        L.__dict__.pop("_skeleton", None)
        L._ids = tuple(ids)
        L._idx = _indexed(L._ids)
        return L

    def restrict(self, subset):
        """Lattice induced on a subset of elements (must itself be a lattice),
        in the parent's element order."""
        idxs = sorted({self.index(a) for a in subset})
        return FiniteLattice.from_leq([self._ids[i] for i in idxs],
                                      self._leq[idxs][:, idxs])

    def interval(self, lo, hi):
        """The interval [lo, hi], induced on its elements (`restrict`)."""
        i, j = self.index(lo), self.index(hi)
        if not self._leq[i, j]:
            raise NotComparable(f"{lo!r} is not below {hi!r}")
        L = self.restrict(compress(self._ids, self._leq[i] & self._leq[:, j]))
        return Interval(self, lo, hi, L.elements, L)


@dataclass(frozen=True)
class Interval:
    parent: FiniteLattice
    lo: object
    hi: object
    carrier: tuple
    lattice: FiniteLattice


def product(L1, L2):
    """Direct product with componentwise order; the pair (a, b) is 'a,b',
    at index i·n2 + j for a and b at i and j (row-major).  The covers are
    listed per lower element in that order, L1's covers of a first, then
    L2's of b, each in its factor's order.

    Assembled from the factors (`_assembled`), which is the lattice the
    cover build derives from those covers:
    - (a, b) ≤ (c, d) when a ≤ c and b ≤ d, and the covers are exactly
      the pairs listed: a cover changes one coordinate by a cover, since
      (c, b) lies strictly between (a, b) and (c, d) when both change,
      and an element strictly between a and c gives one between (a, b)
      and (c, b).  So the listed covers generate the product order.
    - (a, b) ∨ (c, d) = (a ∨ c, b ∨ d): it is a common upper bound, and
      every common upper bound lies above both coordinates; meets
      dually.  In indices, J1[i, k]·n2 + J2[j, l].
    - A chain from 0 up to (a, b) by covers steps up one coordinate per
      cover, so its length is that of its two projections, at most
      h(a) + h(b); a longest chain up to a in L1, then one up to b in
      L2, reaches it.  So heights add, and depths dually.
    The ids are checked as the cover build checks them, with its error."""
    n2 = L2.n
    n = L1.n * n2
    cov = []
    for i, ups1 in enumerate(L1._up_adj):
        for j, ups2 in enumerate(L2._up_adj):
            p = i * n2 + j
            cov += [(p, k * n2 + j) for k in ups1]
            cov += [(p, p - j + l) for l in ups2]

    def paired(t1, t2):
        return (t1[:, None, :, None] * n2 + t2[None, :, None, :]) \
            .reshape(n, n)

    return _assembled(
        [f"{a},{b}" for a in L1._ids for b in L2._ids], cov,
        [h + g for h in L1._height for g in L2._height],
        [d + e for d in L1._depth for e in L2._depth],
        (L1._leq[:, None, :, None] & L2._leq[None, :, None, :]).reshape(n, n),
        paired(L1._join, L2._join), paired(L1._meet, L2._meet))


# Leaves the individualisation–refinement search may visit.
_MAX_LEAVES = 4096


def _refine(above, below, colours):
    """Colour refinement on the order in which i lies below above[i] and
    above below[i]: split cells by the colours strictly above and below
    each element until none splits.  New colours rank the signatures,
    which start with the old colour, so they depend only on the order.
    Returns them and the trace, the distinct colours of every round."""
    trace = [sorted(set(colours))]
    while len(trace) < 2 or len(trace[-1]) > len(trace[-2]):
        get = colours.__getitem__
        sig = [(c, tuple(sorted(map(get, a))), tuple(sorted(map(get, b))))
               for c, a, b in zip(colours, above, below)]
        trace.append(sorted(set(sig)))
        rank = {s: r for r, s in enumerate(trace[-1])}
        colours = [rank[s] for s in sig]
    return colours, trace


def _leaves(leq, guide=None):
    """Individualisation–refinement (McKay and Piperno, "Practical graph
    isomorphism II", 2014) on the order leq[i, j] (i below j): refine, then
    branch on each twin class (same strict up- and down-set, so permuting
    it is an automorphism) of the first cell of several elements,
    individualising the class in index order.  Yields each leaf, a
    discrete colouring (element i at position colours[i]), with the traces
    down to it.  A node whose trace differs from `guide` (another order's
    leaf traces) at its depth is a dead end: no isomorphism maps the
    guide's path to it.  LimitExceeded when leaves and dead ends pass
    _MAX_LEAVES."""
    n = len(leq)
    lt = (leq & ~np.eye(n, dtype=bool)).tolist()
    above = [list(compress(range(n), row)) for row in lt]
    below = [list(compress(range(n), col)) for col in zip(*lt)]
    sets = list(zip(above, below))
    twin = [sets.index(s) for s in sets]
    visited = 0
    stack = [([0] * n, [])]  # (colouring, traces above it), depth first
    while stack:
        colours, traces = stack.pop()
        colours, trace = _refine(above, below, colours)
        traces = traces + [trace]
        dead = guide is not None and trace != guide[len(traces) - 1]
        if dead or len(colours) == len(trace[-1]):
            visited += 1
            if visited > _MAX_LEAVES:
                raise LimitExceeded(f"search passed {_MAX_LEAVES} leaves")
            if not dead:
                yield colours, traces
            continue
        target = min(c for c in colours if colours.count(c) > 1)
        cell = [i for i, c in enumerate(colours) if c == target]
        # pushed last to first, so that the first twin class is searched first
        for t in reversed(dict.fromkeys(twin[i] for i in cell)):
            split = [c * (n + 1) + n for c in colours]
            for r, i in enumerate(i for i in cell if twin[i] == t):
                split[i] -= n - r
            stack.append((split, traces))


def find_isomorphism(L1, L2, anti=False):
    """Order-isomorphism L1 → L2 as a dict, or None; with anti=True an
    anti-isomorphism, searched on the transposed order of L2 (no dual is
    built).  The first leaf of L1's search guides L2's; the map matching
    two leaves' colours is returned once checked to preserve the order."""
    if L1.n != L2.n or len(L1._cov) != len(L2._cov):
        return None
    leq2 = L2._leq.T if anti else L2._leq
    colours1, traces1 = next(_leaves(L1._leq))
    for colours2, _ in _leaves(leq2, traces1):
        image = np.argsort(colours2)[colours1]
        if np.array_equal(leq2[np.ix_(image, image)], L1._leq):
            return dict(zip(L1._ids, (L2._ids[j] for j in image)))
    return None
