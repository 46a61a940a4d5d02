"""Finite bounded lattices given by their cover relation.

A lattice is built from a list of element ids and a list of cover pairs
(lower, upper).  Construction eagerly computes the order closure and the
join/meet tables and validates everything: the cover digraph must be acyclic,
must be its own transitive reduction, the order must be bounded, and every
pair of elements must have a unique least upper bound and greatest lower
bound.  Instances are immutable after construction.
"""

from dataclasses import dataclass
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


class InvariantViolated(LatticeError):
    """A derived fact the library checks, not assumes, failed to hold.
    `witness` is the first offending pair or element."""

    def __init__(self, what, witness):
        super().__init__(f"{what}: {witness!r}")
        self.witness = witness


# Size of one block of the join/meet kernel: about 2**16 cells of the
# tensor of common bounds.
_BLOCK_CELLS = 1 << 16


def _first_common_bounds(up, order):
    """For every pair (a, b): the first common bound c in `order`, a linear
    extension of the order up[i, j] (i below j), and whether c is the least
    common bound.  Being first in a linear extension, c is minimal.  Every
    element above c is a common bound, so c is least exactly when the pair
    has as many common bounds as c has elements above it."""
    n = len(order)
    P = up[order][:, order]
    above = P.sum(axis=1)
    Pf = P.astype(np.float32)  # counts up to n are exact in float32
    n_common = Pf @ Pf.T
    # P is upper triangular, so the bounds of a pair lie at or after the
    # later of its two positions: a block of rows from s on looks only at
    # the pairs and candidates from s on, and the rest comes by symmetry
    first = np.zeros((n, n), dtype=np.intp)
    s = 0
    while s < n:
        e = min(n, s + max(1, _BLOCK_CELLS // (n - s) ** 2))
        first[s:e, s:] = s + (P[s:e, None, s:] & P[None, s:, s:]).argmax(axis=2)
        s = e
    first = np.maximum(first, first.T)  # the pairs left out are still 0
    least = n_common == above[first]
    pos = np.empty(n, dtype=np.intp)  # element index -> position in order
    pos[order] = np.arange(n)
    return (order[first[pos][:, pos]].astype(np.int32),
            least[pos][:, pos])


def _ranks(topo, up_adj, down_adj):
    """Height and depth (longest chain down to 0 and up to 1) of every
    element, given a linear extension `topo` of the order."""
    height = [0] * len(topo)
    depth = [0] * len(topo)
    for i in topo:
        for j in down_adj[i]:
            height[i] = max(height[i], height[j] + 1)
    for i in reversed(topo):
        for j in up_adj[i]:
            depth[i] = max(depth[i], depth[j] + 1)
    return tuple(height), tuple(depth)


class FiniteLattice:
    def __init__(self, elements, covers):
        ids = tuple(elements)
        if not ids:
            raise NotBounded("empty element list")
        if len(set(ids)) != len(ids):
            raise LatticeError("duplicate element ids")
        self._ids = ids
        self._idx = {a: i for i, a in enumerate(ids)}
        n = len(ids)
        self.n = n

        cov = []
        seen = set()
        for lo, hi in covers:
            if lo not in self._idx or hi not in self._idx:
                raise UnknownElement(f"cover ({lo!r}, {hi!r}) references unknown element")
            if lo == hi:
                raise CycleDetected(f"self-cover at {lo!r}")
            pair = (self._idx[lo], self._idx[hi])
            if pair in seen:
                raise LatticeError(f"duplicate cover ({lo!r}, {hi!r})")
            seen.add(pair)
            cov.append(pair)
        self._cov = tuple(cov)

        up_adj = [[] for _ in range(n)]
        down_adj = [[] for _ in range(n)]
        for i, j in cov:
            up_adj[i].append(j)
            down_adj[j].append(i)

        # topological order (Kahn); failure means a cycle
        indeg = [len(down_adj[i]) for i in range(n)]
        topo = [i for i in range(n) if indeg[i] == 0]
        for i in topo:
            for j in up_adj[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    topo.append(j)
        if len(topo) != n:
            raise CycleDetected("cover digraph contains a cycle")

        # reflexive-transitive closure, bottom-up
        leq = np.zeros((n, n), dtype=bool)
        for i in reversed(topo):
            leq[i, i] = True
            for j in up_adj[i]:
                leq[i] |= leq[j]

        # strict transitive-reduction check: no cover may be implied by a path
        for i, j in cov:
            for k in up_adj[i]:
                if k != j and leq[k, j]:
                    raise NotTransitiveReduction(
                        f"cover ({ids[i]!r}, {ids[j]!r}) is implied via {ids[k]!r}")

        bottoms = [i for i in range(n) if not down_adj[i]]
        tops = [i for i in range(n) if not up_adj[i]]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NotBounded(
                f"minimal elements {[ids[i] for i in bottoms]}, "
                f"maximal elements {[ids[i] for i in tops]}")
        self._bot = bottoms[0]
        self._top = tops[0]

        self._leq = leq
        self._up_adj = tuple(tuple(a) for a in up_adj)
        self._down_adj = tuple(tuple(a) for a in down_adj)

        self._height, self._depth = _ranks(topo, up_adj, down_adj)

        # joins over leq and meets over its transpose, each in a linear
        # extension of its own order: the dual's extension is the reverse
        topo = np.array(topo)
        join, join_ok = _first_common_bounds(leq, topo)
        meet, meet_ok = _first_common_bounds(leq.T, topo[::-1])
        bad = ~(join_ok & meet_ok)
        if bad.any():
            a, b = np.argwhere(np.triu(bad))[0]
            if not join_ok[a, b]:
                self._raise_no_bound(a, b, join[a, b], leq, NoUniqueJoin, "upper")
            self._raise_no_bound(a, b, meet[a, b], leq.T, NoUniqueMeet, "lower")
        self._join = join
        self._meet = meet

    @classmethod
    def from_leq(cls, elements, leq):
        """Lattice of the reflexive partial order `leq`, a boolean matrix
        over `elements`.  Its covers lt & ~(lt @ lt) go through the validating
        constructor; a relation that is not a partial order is rejected,
        because the order its covers generate differs from it."""
        ids = tuple(elements)
        leq = np.asarray(leq, dtype=bool)
        lt = leq & ~np.eye(len(ids), dtype=bool)
        # float32 products go through BLAS and count paths up to n exactly
        ltf = lt.astype(np.float32)
        covers = lt & ((ltf @ ltf) == 0)
        L = cls(ids, [(ids[i], ids[j]) for i, j in zip(*np.nonzero(covers))])
        if not np.array_equal(L._leq, leq):
            raise LatticeError("relation is not a partial order: its covers "
                               "generate a different order")
        return L

    def _raise_no_bound(self, a, b, c, up, err, kind):
        # c is a minimal common bound but not the least, so some common
        # bound lies outside up[c]; the one with fewest elements below it
        # is minimal too, and incomparable with c
        rest = up[a] & up[b] & ~up[c]
        other = min(np.flatnonzero(rest), key=lambda i: up[:, i].sum())
        ids = self._ids
        raise err(f"({ids[a]!r}, {ids[b]!r}) has incomparable minimal {kind} "
                  f"bounds {ids[c]!r} and {ids[other]!r}")

    # -- basic accessors -------------------------------------------------

    @property
    def elements(self):
        return self._ids

    @property
    def covers(self):
        return tuple((self._ids[i], self._ids[j]) for i, j in self._cov)

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

    def leq(self, a, b):
        return bool(self._leq[self.index(a), self.index(b)])

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def join(self, a, b):
        return self._ids[self._join[self.index(a), self.index(b)]]

    def meet(self, a, b):
        return self._ids[self._meet[self.index(a), self.index(b)]]

    def join_all(self, items):
        c = self._bot
        for a in items:
            c = self._join[c, self.index(a)]
        return self._ids[c]

    def meet_all(self, items):
        c = self._top
        for a in items:
            c = self._meet[c, self.index(a)]
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
        return {self._ids[j] for j in np.flatnonzero(self._leq[self.index(a)])}

    def down_set(self, a):
        return {self._ids[j] for j in np.flatnonzero(self._leq[:, self.index(a)])}

    def order_pairs(self):
        """All pairs (a, b) with a ≦ b, as a set of id pairs."""
        return {(self._ids[i], self._ids[j])
                for i, j in zip(*np.nonzero(self._leq))}

    def maximal_chains(self, lo, hi):
        """Maximal chains from lo up to hi through covers, as id lists,
        generated lazily in depth-first order."""
        j = self.index(hi)

        def walk(i):
            if i == j:
                yield [hi]
            elif self._leq[i, j]:
                for k in self._up_adj[i]:
                    for rest in walk(k):
                        yield [self._ids[i], *rest]
        return walk(self.index(lo))

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
        return L

    def _relabelled(self, ids):
        """This lattice with element i renamed ids[i]; the ids must be
        distinct.  The order and tables are shared, not rebuilt."""
        L = object.__new__(FiniteLattice)
        L.__dict__.update(self.__dict__)
        L._ids = tuple(ids)
        L._idx = {a: i for i, a in enumerate(L._ids)}
        return L

    def restrict(self, subset):
        """Lattice induced on a subset of elements (must itself be a lattice),
        in the parent's element order."""
        return self._restrict(sorted({self.index(a) for a in subset}))

    def _restrict(self, idxs):
        return FiniteLattice.from_leq([self._ids[i] for i in idxs],
                                      self._leq[idxs][:, idxs])

    def interval(self, lo, hi):
        i, j = self.index(lo), self.index(hi)
        if not self._leq[i, j]:
            raise NotComparable(f"{lo!r} is not below {hi!r}")
        L = self._slice(np.flatnonzero(self._leq[i] & self._leq[:, j]))
        return Interval(self, lo, hi, L.elements, L)

    def _slice(self, idxs):
        """The sublattice on the sorted indices `idxs`, cut out of this
        lattice's tables instead of rebuilt: the joins and meets of a
        sublattice are the parent's, so they are only checked to stay in
        it.  Covers come in row-major order, as `from_leq` gives them."""
        m = len(idxs)
        pos = np.full(self.n, -1, dtype=np.int32)
        pos[idxs] = np.arange(m, dtype=np.int32)
        pair = (idxs[:, None], idxs)
        join, meet = pos[self._join[pair]], pos[self._meet[pair]]
        if min(join.min(), meet.min()) < 0:
            for what, table in (("join", join), ("meet", meet)):
                bad = np.argwhere(table < 0)
                if len(bad):
                    a, b = idxs[bad[0]]
                    raise InvariantViolated(
                        f"subset is not closed under {what}",
                        (self._ids[a], self._ids[b]))
        leq = self._leq[pair]
        lt = leq & ~np.eye(m, dtype=bool)
        ltf = lt.astype(np.float32)
        lo, hi = np.nonzero(lt & ((ltf @ ltf) == 0))
        cov = list(zip(lo.tolist(), hi.tolist()))
        up_adj = [[] for _ in range(m)]
        down_adj = [[] for _ in range(m)]
        for a, b in cov:
            up_adj[a].append(b)
            down_adj[b].append(a)
        # the parent's heights rise along the order: a linear extension
        parent_height = [self._height[k] for k in idxs]
        topo = sorted(range(m), key=parent_height.__getitem__)
        L = object.__new__(FiniteLattice)
        L._ids = tuple(self._ids[k] for k in idxs)
        L._idx = {a: k for k, a in enumerate(L._ids)}
        L.n = m
        L._cov = tuple(cov)
        L._bot, L._top = topo[0], topo[-1]
        L._leq = leq
        L._up_adj = tuple(tuple(a) for a in up_adj)
        L._down_adj = tuple(tuple(a) for a in down_adj)
        L._height, L._depth = _ranks(topo, up_adj, down_adj)
        L._join, L._meet = join, meet
        return L


@dataclass(frozen=True)
class Interval:
    parent: FiniteLattice
    lo: object
    hi: object
    carrier: tuple
    lattice: FiniteLattice


def product(L1, L2, make_id=None):
    """Direct product with componentwise order; ids default to 'a,b'."""
    if make_id is None:
        make_id = lambda a, b: f"{a},{b}"
    elems = [make_id(a, b) for a in L1.elements for b in L2.elements]
    covers = []
    for a in L1.elements:
        for b in L2.elements:
            for a2 in L1.upper_covers(a):
                covers.append((make_id(a, b), make_id(a2, b)))
            for b2 in L2.upper_covers(b):
                covers.append((make_id(a, b), make_id(a, b2)))
    return FiniteLattice(elems, covers)


def _invariant_classes(L):
    """Refined structural invariant per element, for isomorphism pruning."""
    inv = {a: (L.height(a), L.depth(a), len(L.upper_covers(a)),
               len(L.lower_covers(a)), len(L.up_set(a)), len(L.down_set(a)))
           for a in L.elements}
    for _ in range(2):
        inv = {a: (inv[a],
                   tuple(sorted(inv[b] for b in L.upper_covers(a))),
                   tuple(sorted(inv[b] for b in L.lower_covers(a))))
              for a in L.elements}
    return inv


def find_isomorphism(L1, L2, anti=False):
    """Order-isomorphism L1 → L2 as a dict, or None.

    With anti=True searches for an anti-isomorphism (order-reversing).
    """
    if anti:
        L2 = L2.dual()
    if L1.n != L2.n or len(L1.covers) != len(L2.covers):
        return None
    inv1 = _invariant_classes(L1)
    inv2 = _invariant_classes(L2)
    if sorted(inv1.values()) != sorted(inv2.values()):
        return None
    cands = {a: [b for b in L2.elements if inv2[b] == inv1[a]]
             for a in L1.elements}
    order = sorted(L1.elements, key=lambda a: (len(cands[a]), L1.height(a)))
    assigned = {}
    used = set()

    def extend(k):
        if k == len(order):
            return True
        a = order[k]
        for b in cands[a]:
            if b in used:
                continue
            if all(L1.leq(a, a2) == L2.leq(b, b2)
                   and L1.leq(a2, a) == L2.leq(b2, b)
                   for a2, b2 in assigned.items()):
                assigned[a] = b
                used.add(b)
                if extend(k + 1):
                    return True
                del assigned[a]
                used.remove(b)
        return False

    return dict(assigned) if extend(0) else None
