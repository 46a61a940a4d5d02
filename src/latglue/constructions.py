"""Named lattices, glued/connected fixtures, the projective-plane example,
and the small-lattice enumerator used as the verification corpus."""

from itertools import combinations, islice

import numpy as np

from .core import FiniteLattice, LimitExceeded, _assembled, _bit_matrix, \
    _from_orders, _lattices, _leaves, product
from .connect import LocalConnectedSystem, connected_sum, elevate, \
    local_system
from .glue import GluedSystem, glued_sum

MAX_ENUMERATED = 8  # elements


# -- named lattices ----------------------------------------------------

def chain(n):
    """Chain of length n (n+1 elements '0'..'n'), element i covered by
    i + 1.

    Assembled (`core._assembled`), which is the lattice the cover build
    derives from those covers: j is reached from i by covers exactly when
    i ≤ j as integers, so that is the order; of two elements of a chain
    the larger is their join and the smaller their meet; the one chain of
    covers from 0 up to i has i of them, and the one from i up to n has
    n − i.  With no element (n < 0) it raises the cover build's
    NotBounded."""
    i = np.arange(n + 1)
    return _assembled([str(k) for k in range(n + 1)],
                      zip(range(n), range(1, n + 1)), range(n + 1),
                      range(n, -1, -1), i[:, None] <= i,
                      np.maximum.outer(i, i), np.minimum.outer(i, i))


def boolean(n):
    """Boolean lattice 2^n; element ids are sorted letter subsets ("0"
    for the empty one), listed by size, each size in lexicographic order.
    Letter i is bit i of a subset's mask (`_subset_lattice`)."""
    if not 0 <= n <= 8:
        raise ValueError(f"boolean(n) needs 0 <= n <= 8, got {n}")
    letters = "abcdefgh"[:n]
    subsets = [c for r in range(n + 1) for c in combinations(range(n), r)]
    return _subset_lattice(
        ["".join(letters[i] for i in c) or "0" for c in subsets],
        [sum(1 << i for i in c) for c in subsets], n)


def _subset_lattice(ids, masks, m):
    """The lattice of the subsets of m bits under inclusion, element i
    the subset masks[i] (each of the 2**m subsets once) named ids[i].
    Each element lists its upper covers, the subsets with one more bit,
    by that bit in increasing order.

    Assembled from the masks (`core._assembled`), which is the lattice the
    cover build derives from those covers: the subsets one bit larger are
    the covers of inclusion and generate it; the join and meet of two
    subsets are their union and intersection, the masks' OR and AND; a
    chain of covers up from the empty set adds one bit per cover, so a
    subset's height is its number of bits and its depth the number it
    lacks.  The ids are checked as the cover build checks them, with its
    error."""
    mask = np.array(masks)
    pos = np.empty(1 << m, dtype=np.int32)
    pos[mask] = np.arange(len(mask), dtype=np.int32)
    lo, bit = np.nonzero(~mask[:, None] >> np.arange(m) & 1)
    hi = pos[mask[lo] | 1 << bit]
    height = [c.bit_count() for c in masks]
    col = mask[:, None]
    return _assembled(ids, zip(lo.tolist(), hi.tolist()), height,
                      [m - h for h in height], (col & ~mask) == 0,
                      pos[col | mask], pos[col & mask])


def m_k(k, ids=None):
    """0, k pairwise-incomparable atoms, 1."""
    if ids is None:
        ids = ["0"] + [f"a{i}" for i in range(1, k + 1)] + ["1"]
    bot, mid, top = ids[0], ids[1:-1], ids[-1]
    return FiniteLattice(ids, [(bot, a) for a in mid] + [(a, top) for a in mid])


def m3():
    return FiniteLattice(["0", "a", "b", "c", "1"],
                         [("0", "a"), ("0", "b"), ("0", "c"),
                          ("a", "1"), ("b", "1"), ("c", "1")])


def n5():
    return FiniteLattice(["0", "a", "b", "c", "1"],
                         [("0", "a"), ("a", "b"), ("b", "1"),
                          ("0", "c"), ("c", "1")])


def grid(p, q):
    """The product of chains C_p × C_q (a (p+1)×(q+1) grid)."""
    return product(chain(p), chain(q))


FANO_LINES = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6),
              (2, 6, 7), (1, 3, 7)]


def fano_lattice(prefix=""):
    """Subspace lattice of the Fano plane: 0, 7 points, 7 lines, 1."""
    bot, top = prefix + "0", prefix + "1"
    pts = {i: f"{prefix}p{i}" for i in range(1, 8)}
    lns = {l: prefix + "l" + "".join(map(str, l)) for l in FANO_LINES}
    covers = [(bot, p) for p in pts.values()]
    covers += [(pts[i], lns[l]) for l in FANO_LINES for i in l]
    covers += [(ln, top) for ln in lns.values()]
    return FiniteLattice([bot, *pts.values(), *lns.values(), top], covers)


# -- glued fixtures over shared carriers -------------------------------

def _lat(elems, covers):
    return FiniteLattice(elems, covers)


def _square(a, b, c, d):
    # a < b,c < d
    return _lat([a, b, c, d], [(a, b), (a, c), (b, d), (c, d)])


def fig_3by3_system():
    """Four 2x2 squares glued over a diamond; the sum is the 3x3 grid."""
    S = _lat(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")])
    blocks = {
        "1": _square("a", "b", "c", "e"),
        "2": _square("b", "d", "e", "g"),
        "3": _square("c", "e", "f", "h"),
        "4": _square("e", "g", "h", "i"),
    }
    return GluedSystem(S, blocks)


def note2_overlap_system():
    """Valid gluing over a 4-chain where L1 ⊆ L2: not strictly monotone
    and 0_1 = 0_2."""
    S = _lat(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
    blocks = {
        "1": _lat(["a", "b"], [("a", "b")]),
        "2": _lat(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
        "3": _lat(["c", "d"], [("c", "d")]),
        "4": _lat(["c", "d"], [("c", "d")]),
    }
    return GluedSystem(S, blocks)


def note3_system():
    """B3 with the interval [b, 1] repeated as upper block: valid, not
    strictly monotone; the sum's skeleton is strictly smaller than the
    union of block skeletons."""
    S = _lat(["1", "2"], [("1", "2")])
    b3 = _lat(["0", "a", "b", "c", "ab", "ac", "bc", "1"],
              [("0", "a"), ("0", "b"), ("0", "c"),
               ("a", "ab"), ("a", "ac"), ("b", "ab"), ("b", "bc"),
               ("c", "ac"), ("c", "bc"),
               ("ab", "1"), ("ac", "1"), ("bc", "1")])
    upper = _square("b", "ab", "bc", "1")
    return GluedSystem(S, {"1": b3, "2": upper})


def unbounded_family(n):
    """Finite truncation of the unbounded-length construction: skeleton
    with n atoms, staircase block of length k+1 at the k-th atom."""
    S = m_k(n, ["A"] + [str(k) for k in range(1, n + 1)] + ["O"])
    bs = [f"b{k}" for k in range(1, n + 1)]
    gs = [f"g{k}" for k in range(1, n + 1)]
    blocks = {"A": _lat(["a", *bs, "e"],
                        [("a", b) for b in bs] + [(b, "e") for b in bs]),
              "O": _lat(["e", *gs, "h"],
                        [("e", g) for g in gs] + [(g, "h") for g in gs])}
    for k in range(1, n + 1):
        ds = [f"d{k}{i}" for i in range(1, k + 1)]
        rung = [f"b{k}", *ds, f"g{k}"]
        covers = list(zip(rung, rung[1:])) + [(f"b{k}", "e"), ("e", f"g{k}")]
        blocks[str(k)] = _lat([f"b{k}", *ds, "e", f"g{k}"], covers)
    return GluedSystem(S, blocks)


def hd_two_chains():
    """Hall-Dilworth gluing of two 2-chains sharing one element -> C2."""
    S = _lat(["s0", "s1"], [("s0", "s1")])
    return GluedSystem(S, {"s0": _lat(["a", "u"], [("a", "u")]),
                           "s1": _lat(["u", "b"], [("u", "b")])})


def hd_two_m3():
    """Two diamonds M3 sharing one element (top of one = bottom of other)."""
    S = _lat(["s0", "s1"], [("s0", "s1")])
    lo = m_k(3, ["z", "a", "b", "c", "t"])
    hi = m_k(3, ["t", "d", "e", "f", "u"])
    return GluedSystem(S, {"s0": lo, "s1": hi})


def hd_two_m3_edge():
    """Two diamonds M3 glued along a shared 2-chain (a filter of the lower
    one identified with an ideal of the upper one)."""
    S = _lat(["s0", "s1"], [("s0", "s1")])
    lo = m_k(3, ["z", "a", "b", "c", "t"])
    hi = m_k(3, ["a", "t", "e", "f", "w"])
    return GluedSystem(S, {"s0": lo, "s1": hi})


def m3_chain_edges():
    """Three diamonds glued along shared 2-chains over a chain skeleton."""
    S = chain(2)
    return GluedSystem(S, {
        "0": m_k(3, ["z", "a", "b", "c", "t"]),
        "1": m_k(3, ["a", "t", "e", "f", "w"]),
        "2": m_k(3, ["e", "w", "g", "h", "u"]),
    })


def copies_local_system(S, block=None):
    """Locally connected system over S: one disjoint copy of `block` per
    skeleton element, with total name-matching cover maps (so every chain
    composition agrees and the quotient identifies all copies).  It is
    the bridge `local_system` of the system with `block` at every x."""
    if block is None:
        block = chain(1)
    return local_system(GluedSystem(S, dict.fromkeys(S.elements, block)))[0]


def m3_chain_of_three():
    """Three diamonds stacked along a chain skeleton."""
    S = chain(2)
    return GluedSystem(S, {
        "0": m_k(3, ["z", "a1", "a2", "a3", "t"]),
        "1": m_k(3, ["t", "b1", "b2", "b3", "u"]),
        "2": m_k(3, ["u", "c1", "c2", "c3", "w"]),
    })


def section1_nonexample_a1():
    """Overlap {u0} fails to be a filter of the lower block."""
    S = _lat(["s0", "s1"], [("s0", "s1")])
    return GluedSystem(S, {
        "s0": _lat(["p", "u0", "t"], [("p", "u0"), ("u0", "t")]),
        "s1": _lat(["u0", "v"], [("u0", "v")]),
    })


def section1_nonexample_a4():
    """L_x ∩ L_y = {u1, a} escapes L_{x∧y} ∩ L_{x∨y} = {u1}."""
    S = _lat(["s0", "sx", "sy", "s1"],
             [("s0", "sx"), ("s0", "sy"), ("sx", "s1"), ("sy", "s1")])
    return GluedSystem(S, {
        "s0": _lat(["z", "a", "u1"], [("z", "a"), ("a", "u1")]),
        "sx": _lat(["a", "u1"], [("a", "u1")]),
        "sy": _lat(["a", "u1"], [("a", "u1")]),
        "s1": _lat(["u1", "w"], [("u1", "w")]),
    })


# -- worked constructions ------------------------------------------------

def _escaped(a):
    """str(a) with backslashes, commas and bars escaped by a backslash."""
    return str(a).replace("\\", "\\\\").replace(",", "\\,") \
        .replace("|", "\\|")


def _subsets(base):
    """The subsets of the list `base` as bitmasks over its positions, by
    size, each size in the lexicographic order of the members' str, and
    the name of each: its members' escaped str (`_escaped`) in that order,
    joined by commas."""
    order = sorted(range(len(base)), key=lambda i: str(base[i]))
    names = [_escaped(a) for a in base]
    masks, named = [], []
    for r in range(len(base) + 1):
        for c in combinations(order, r):
            masks.append(sum(1 << i for i in c))
            named.append(",".join(names[i] for i in c))
    return masks, named


def distributive_with_skeleton(S):
    """A distributive lattice whose skeleton is (isomorphic to) S.

    Block at x is the interval [(∅,[x)), ((x],∅)] of P(S) × P(S)ᵟ, i.e.
    pairs (A, B) with A ⊆ (x], B ⊆ [x); join is (∪,∩), meet is (∩,∪).
    Returns the glued system; its sum is the lattice M.

    (A, B) is named "{A|B}", A and B listed as their members' str sorted
    and joined by commas, with backslashes, commas and bars in each str
    escaped by a backslash, so that ids holding them name distinct
    elements.  Ids with one str, such as 1 and "1", still name one.
    The elements are listed by A, then B, each as `_subsets` lists them,
    and each lists its upper covers (A ∪ {a}, B) by a in S's order, then
    (A, B ∖ {b}) by b in S's order.

    A block is a Boolean lattice: with (x] and [x) as bit positions in
    S's order, (A, B) ↦ A | (B̄ << |(x]|), B̄ = [x) ∖ B, maps it onto
    the subsets of |(x]| + |[x)| bits, since A grows and B shrinks going
    up, and (∪, ∩) becomes the union, (∩, ∪) the intersection.  Its
    covers in the order above add a bit of A, then one of B̄, each in
    increasing order, as `_subset_lattice` lists them, which assembles
    the block.
    """
    def block(x):
        down = [a for a in S.elements if S.leq(a, x)]
        up = [b for b in S.elements if S.leq(x, b)]
        downs, down_names = _subsets(down)
        ups, up_names = _subsets(up)
        d, full = len(down), (1 << len(up)) - 1
        return _subset_lattice(
            ["{%s|%s}" % (a, b) for a in down_names for b in up_names],
            [A | (full ^ B) << d for A in downs for B in ups], d + len(up))

    return GluedSystem(S, {x: block(x) for x in S.elements})


def square_sublattices(Ss):
    """The glued systems of the intervals [(x⁺,x), (x,x*)] of S × S, for
    each modular S of `Ss`, in order; each sum is a sublattice of S×S with
    skeleton S.  The blocks of all the systems are built as one batch.
    Each S is planned when its blocks are made, so a non-modular S raises
    NotModular after the systems before it are built, as
    `square_sublattice` one S at a time would."""
    from .skeleton import _star_plus
    Ss = list(Ss)

    def block_specs():
        for S in Ss:
            st, pl = _star_plus(S)
            ids, leq, up = S._ids, S._leq, S._up_adj
            for x in range(S.n):
                # [x⁺, x] and [x, x*] in S's order; covers as S lists them.
                # The upper covers inside each interval and each pair's
                # name are made once, and covers read from them
                us = np.flatnonzero(leq[pl[x]] & leq[:, x]).tolist()
                vs = np.flatnonzero(leq[x] & leq[:, st[x]]).tolist()
                up_u = {u: [w for w in up[u] if leq[w, x]] for u in us}
                up_v = {v: [w for w in up[v] if leq[w, st[x]]] for v in vs}
                name = {(u, v): f"{ids[u]},{ids[v]}" for u in us for v in vs}
                covers = []
                for (u, v), here in name.items():
                    covers += [(here, name[w, v]) for w in up_u[u]]
                    covers += [(here, name[u, w]) for w in up_v[v]]
                yield list(name.values()), covers

    blocks = iter(_lattices(block_specs()))
    return [GluedSystem(S, dict(zip(S.elements, islice(blocks, S.n))))
            for S in Ss]


def square_sublattice(S):
    """Glued system of the intervals [(x⁺,x), (x,x*)] of S × S, for
    modular S; the sum is a sublattice of S×S with skeleton S.  The batch
    of one of `square_sublattices`."""
    return square_sublattices([S])[0]


# -- the projective-plane example ---------------------------------------

def _quad_lines():
    """Four lines of the Fano plane, no three concurrent (their six
    pairwise intersection points are distinct)."""
    for quad in combinations(FANO_LINES, 4):
        meets = [set(l1) & set(l2) for l1, l2 in combinations(quad, 2)]
        pts = [next(iter(m)) for m in meets]
        if all(len(m) == 1 for m in meets) and len(set(pts)) == 6:
            return quad
    raise AssertionError("no quadrilateral found")


def _quad_points():
    """Four points of the Fano plane, no three collinear."""
    for quad in combinations(range(1, 8), 4):
        if all(len(set(quad) & set(l)) <= 2 for l in FANO_LINES):
            return quad
    raise AssertionError("no quadrangle found")


def section4_example(all_m3=False):
    """Two Fano planes linked by four length-2 connector blocks over the
    diamond skeleton with four midpoints.

    Connector 1 is a diamond with atoms a1, e0, e1; connectors 2..4 are
    squares with atoms aj, ej (with all_m3=True they are diamonds with an
    extra atom fj, making every block simple).  Returns a dict with the
    local system, its elevation, the quotient glued system, the sum, and
    the five designated generators e0..e4.
    """
    S = m_k(4, ["s0", "x1", "x2", "x3", "x4", "s1"])
    lo = fano_lattice("lo:")
    hi = fano_lattice("hi:")
    g_lines = ["lo:l" + "".join(map(str, l)) for l in _quad_lines()]
    p_points = [f"hi:p{p}" for p in _quad_points()]
    blocks = {"s0": lo, "s1": hi}
    maps = {}
    gens = []
    for i in range(1, 5):
        x = f"x{i}"
        atoms = [f"c{i}:a", f"c{i}:e"]
        if i == 1:
            atoms = ["c1:a", "c1:e0", "c1:e"]
        elif all_m3:
            atoms.append(f"c{i}:f")
        blocks[x] = m_k(len(atoms), [f"c{i}:0", *atoms, f"c{i}:1"])
        gens.append(f"c{i}:e")
        maps[("s0", x)] = {g_lines[i - 1]: f"c{i}:0", "lo:1": f"c{i}:a"}
        maps[(x, "s1")] = {f"c{i}:a": "hi:0", f"c{i}:1": p_points[i - 1]}
    gens.insert(0, "c1:e0")
    lcs = LocalConnectedSystem(S, blocks, maps)
    cs = elevate(lcs)
    gsys, pis = connected_sum(cs)
    gen_ids = [pis["x1"][gens[0]]] + \
        [pis[f"x{i}"][g] for i, g in enumerate(gens[1:], start=1)]
    return {
        "local_system": lcs,
        "connected_system": cs,
        "glued_system": gsys,
        "projections": pis,
        "sum": glued_sum(gsys),
        "generators": gen_ids,
    }


def translator_fixtures():
    """Catalog of boundary-case systems: the grid gluing, the nested-block
    overlap, the shrinking-skeleton example, and the staircase family."""
    return {
        "fig_3by3": fig_3by3_system(),
        "overlap": note2_overlap_system(),
        "note3": note3_system(),
        "unbounded_family": unbounded_family,
    }


# -- enumeration of small lattices --------------------------------------

def _order_key(leq):
    """The least order-matrix code, one byte per cell, over the leaves of
    the individualisation–refinement search on the order leq."""
    return min(leq[p][:, p].tobytes()
               for p in (np.argsort(c) for c, _ in _leaves(leq)))


def canonical_key(L):
    """A key equal for two lattices exactly when they are isomorphic: the
    least code of L's order matrix relabelled by a leaf of `core._leaves`,
    over all leaves.  LimitExceeded when the search passes its bound."""
    return _order_key(L._leq)


def enumerate_lattices(max_elements):
    """All lattices with ≤ max_elements elements, one per isomorphism
    class, with ids '0', '1', … in a linear extension of the order.

    Elements are added one at a time in linear-extension order, each down-set
    a Python int bitset.  A new element's down-set D must meet every ↓j in
    a principal down-set, so D is down-closed, holds 0, and meets stay
    defined.  The newest element is maximal, so a state is a lattice when
    it is the top; any other state has two maximal elements and is no
    lattice.  Each state that is no lattice is keyed, and only the first
    state of each class is extended.  Lattice states are not keyed: each is
    the first of its class.  They are collected during the search and built
    after it, as one `_from_orders` batch that checks each as `from_leq`
    does, so the enumerator is not lazy: the first lattice comes once all
    are built.

    The lattices yielded are those of the unpruned search, first of each
    class, in the same order.  The search is depth first, so a later
    duplicate P of a state P′ is popped only after P′'s whole subtree.
    Isomorphic states have isomorphic children: an isomorphism carries each
    allowed D to an allowed D.  So every class in P's subtree appeared
    before, in P′'s, and the first state of each class in the unpruned
    order has no pruned ancestor.  A lattice state's parent is its lattice
    with the top removed, so isomorphic lattices have isomorphic parents; a
    parent has one top child, and only the first parent of each class is
    extended, so each lattice class is reached once, at its first state.
    """
    if max_elements > MAX_ENUMERATED:
        raise LimitExceeded(
            f"enumeration supported up to {MAX_ENUMERATED} elements")
    seen = set()  # keys of the states extended that are no lattices
    lattices = []  # the lattice states' orders, in the search's order
    stack = [[1]] if max_elements >= 1 else []  # down-sets, depth first
    while stack:
        downs = stack.pop()
        n = len(downs)
        full = (1 << n) - 1
        leq = _bit_matrix(downs).T
        if downs[-1] == full:
            lattices.append(([str(i) for i in range(n)], leq))
        elif (key := _order_key(leq)) in seen:
            continue
        else:
            seen.add(key)
        if n == max_elements:
            continue
        # only a child whose new element is the top (D holds everything)
        # is a lattice, and a child of the last level is not extended
        choices = range(1, 1 << n, 2) if n + 1 < max_elements else (full,)
        principal = set(downs)
        # pushed last to first, so that the least D is searched first
        stack += [downs + [D | 1 << n] for D in reversed(choices)
                  if principal.issuperset(map(D.__and__, downs))]
    yield from _from_orders(lattices)


def _lattice_mask(leq):
    """Which orders of the stack leq (i below j at [k, i, j]) are
    lattices, decided by counting, as `from_leq` decides it: a pair has a
    join when some common upper bound c has as many elements above it as
    the pair has common upper bounds (↑c is then all of them), and a meet
    dually."""
    lattice = np.ones(len(leq), dtype=bool)
    for up in (leq, leq.transpose(0, 2, 1)):
        common = up[:, :, None, :] & up[:, None, :, :]  # [k, a, b, c]
        size = up.sum(axis=2)[:, None, None, :]  # |↑c|
        least = common & (size == common.sum(axis=3, keepdims=True))
        lattice &= least.any(axis=3).all(axis=(1, 2))
    return lattice


def naive_lattice_count(n):
    """Independent cross-check for small n: every partial order on 0..n-1
    with 0 < 1 < … < n-1 as a linear extension is a transitive
    upper-triangular relation; count the isomorphism classes of the
    lattices among them.  All 2^(n(n-1)/2) relations are decided as one
    stack: transitivity by one float32 product, lattice-ness by
    `_lattice_mask`.  There is no lattice of fewer than one element."""
    if n > 5:
        raise LimitExceeded("naive filter is for n <= 5")
    if n < 1:
        return 0
    above = np.triu_indices(n, 1)
    bits = np.arange(1 << len(above[0]))[:, None] >> np.arange(len(above[0]))
    leq = np.repeat(np.eye(n, dtype=bool)[None], len(bits), axis=0)
    leq[:, above[0], above[1]] = bits & 1
    f = leq.astype(np.float32)
    leq = leq[((f @ f > 0) == leq).all(axis=(1, 2))]
    return len({_order_key(r) for r in leq[_lattice_mask(leq)]})
