"""Procedures the library replaced, kept as oracles: the Boolean-embedding
backtracker behind the old `breadth`, the per-element distributive law,
the forbidden-configuration search for n-distributivity, the irredundant
sets regrown from size 1 for each size `breadth` tries, and the
one-x-at-a-time Huhn check with no distributive or breadth shortcut, the
id-level connected-system code (validators, elevation, quotient, the
identification test and the connected-sums criterion's per-pair loops),
and the skeleton pipeline's rebuilds: the per-element modular law, the rebuilt
interval, the Warshall closure, the sum-building round trip and the
one-pair-at-a-time (A1)/(A2) loop.  Also the first-common-bound search
behind the join/meet tables, the `from_leq` skeleton lattice and the
per-block index arrays of the block-operation check.  Also the id-level
star/plus calculus and duality loops, `star` and `plus` as the join and
meet of the covers, and the maximal-atomistic-interval scan that slices
one interval per comparable pair.  Also the three
routines the individualisation–refinement search replaced: the
invariant-class permutation key, the dict-based invariant refinement with
the backtracking isomorphism search, and the frozenset enumerator.  Also
the bitset enumerator that keyed lattice states only, the naive count that
built one lattice per relation, and the two worked constructions that
named both ends of every cover anew.  Also
the maximal-chain walker behind the per-query staircase formulas, and the
id-level all-pairs loops of `zero_one_maps`, `corollary_54_check`,
`check_star` and the homomorphism test.  Also the one-lattice-at-a-time
constructor that the batch build replaced, with its unstacked Möbius
product.  Also the id-level predicates: atomistic as every element the
join of the atoms below it, the generated sublattice by id-pair closure,
and the congruence partitions, principal congruences and sublattice test
that `is_simple` is checked against.  Also the per-height cover
recurrence behind `elevate` and the formula tables, with its per-element
search for first covers.  Also the full-grid kernels of (19) and of
(20)/(20δ), the 3-axis split behind the identification record, and the
separate rank pass after Kahn's order.  Also the two overlap-shape checks
`validate` ran on every system it accepted, before it proved them.  Also
the decomposition one lattice at a time that the family pass replaced:
its star/plus fold, skeleton lattice, block cut and `validate`.  Also
the cover builds that `product`, `boolean` and the blocks of
`distributive_with_skeleton` went through before they were assembled
from their tables, and the cut of one interval through `_from_order`
that a decomposition's blocks took before they were assembled."""

from dataclasses import dataclass
from itertools import combinations, islice, permutations, product as iproduct

import numpy as np

from latglue import skeleton
from latglue.constructions import MAX_ENUMERATED, _order_key, _subsets
from latglue.connect import ConnectViolation, ConnectedSystem, \
    LocalConnectedSystem, NotModularSkeleton, _check_disjoint, connected_sum
from latglue.core import _BLOCK_CELLS, _SOLVE_BLOCK, CycleDetected, \
    FiniteLattice, InvariantViolated, LatticeError, NoUniqueJoin, \
    LimitExceeded, NoUniqueMeet, NotBounded, NotTransitiveReduction, \
    UnknownElement, _bit_matrix, _bounds, _freeze, _from_order, _lattices, \
    _settle, _uncertified, find_isomorphism
from latglue.glue import GluedSystem, GlueViolation, NotALattice, \
    SlicedBlocks, _compose as _index_compose, _iso_failures, _members, \
    nested_cover, validate as glue_validate
from latglue.glue import glued_sum
from latglue.hom import LatticeHom, is_homomorphism, is_injective
from latglue.predicates import NotModular, _join_irreducibles, \
    is_atomistic, is_modular


def order_embeds_boolean(L, n):
    """Does the Boolean lattice 2^n order-embed into L?

    Backtracking over the 2^n subsets (as bitmasks) in popcount order;
    atom images are forced into increasing element order since atom
    permutations are automorphisms of 2^n.
    """
    if n == 0:
        return True
    if L.length() < n:
        return False
    N = L.n
    leq = L._leq
    lt = leq & ~np.eye(N, dtype=bool)
    height = np.array(L._height)
    depth = np.array(L._depth)
    J = L._join
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    assigned = {}

    def extend(k):
        if k == len(masks):
            return True
        m = masks[k]
        pc = m.bit_count()
        cand = (height >= pc) & (depth >= n - pc)
        floor = None
        for m2, e2 in assigned.items():
            sub, sup = m & m2 == m, m & m2 == m2
            if sub and sup:
                continue
            elif sub:
                cand &= lt[:, e2]
            elif sup:
                cand &= lt[e2, :]
                floor = e2 if floor is None else J[floor, e2]
            else:
                cand &= ~leq[:, e2] & ~leq[e2, :]
        if floor is not None:
            # image must lie above the join of images of assigned subsets
            cand &= leq[floor, :]
        prev_atom = None
        if pc == 1 and m != 1:
            prev_atom = assigned[1 << ((m.bit_length() - 1) - 1)]
        for e in range(N):
            if not cand[e]:
                continue
            if prev_atom is not None and e <= prev_atom:
                continue
            assigned[m] = e
            if extend(k + 1):
                return True
            del assigned[m]
        return False

    return extend(0)


def oracle_breadth(L):
    """The largest n with 2^n order-embedded in L, one search per n."""
    n = 0
    while order_embeds_boolean(L, n + 1):
        n += 1
    return n


def oracle_distributive(L):
    """a·(b+c) = (a·b)+(a·c), one n×n table comparison per element a."""
    J, M = L._join, L._meet
    for a in range(L.n):
        if not np.array_equal(M[a, J], J[np.ix_(M[a], M[a])]):
            return False
    return True


def oracle_irredundant_sets(L, k, cand=None):
    """The irredundant k-sets of L, no member below the join of the others,
    as (total join, leave-one-out joins) per set; None once a size has none.
    Members are drawn from the sorted indices `cand`, by default every
    non-bottom index; each call grows sizes 1…k from scratch."""
    J, leq = L._join, L._leq
    if cand is None:
        cand = np.delete(np.arange(L.n), L._bot)
    rows = cand[:, None]
    total = rows[:, 0]
    loo = np.full((len(rows), 1), L._bot, dtype=J.dtype)
    step = max(1, _BLOCK_CELLS // L.n)
    for size in range(2, k + 1):
        if not len(rows):
            return None
        parts = []
        for s in range(0, len(rows), step):
            t = total[s:s + step]
            r, c = np.nonzero((cand > rows[s:s + step, -1:])
                              & ~leq[np.ix_(cand, t)].T)
            c = cand[c]
            old = J[loo[s + r], c[:, None]]
            keep = ~leq[rows[s + r], old].any(axis=1)
            r, c = s + r[keep], c[keep]
            parts.append((np.column_stack([rows[r], c]),
                          np.column_stack([old[keep], total[r]]),
                          J[total[r], c]))
        rows, loo, total = (np.concatenate(a) for a in zip(*parts))
    return (total, loo) if len(rows) else None


def oracle_irredundant_breadth(L):
    """The size of the largest irredundant subset of J(L), one growth from
    scratch per size."""
    cand = _join_irreducibles(L)
    n = 0
    while oracle_irredundant_sets(L, n + 1, cand) is not None:
        n += 1
    return n


def oracle_is_n_distributive(L, n):
    """The Huhn identity on every irredundant (n+1)-set of all of L, once
    per distinct (total, sorted leave-one-out joins) row, one x at a time,
    with no distributive or breadth shortcut."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_modular(L):
        raise NotModular("n-distributivity is defined for modular lattices")
    sets = oracle_irredundant_sets(L, n + 1)
    if sets is None:
        return True
    total, loo = sets
    keys = np.unique(np.column_stack([total, np.sort(loo, axis=1)]), axis=0)
    total, loo = keys[:, 0], keys[:, 1:]
    J, M = L._join, L._meet
    for x in range(L.n):
        rhs = M[x, loo[:, 0]]
        for j in range(1, n + 1):
            rhs = J[rhs, M[x, loo[:, j]]]
        if not np.array_equal(M[x, total], rhs):
            return False
    return True


def has_forbidden_n_config(L, n):
    """Search for a sublattice U ≅ 2^(n+1) with atoms aᵢ plus an element w
    with aᵢ·w = inf U and aᵢ+w = sup U for all i."""
    if not is_modular(L):
        raise NotModular("configuration search assumes a modular lattice")
    elems = L.elements
    for u in elems:
        above = [a for a in elems if L.lt(u, a)]
        for ats in combinations(above, n + 1):
            if any(L.leq(a, b) for a, b in combinations(ats, 2)) or \
               any(L.leq(b, a) for a, b in combinations(ats, 2)):
                continue
            # joins of subsets must form a copy of 2^(n+1)
            sub = {}
            ok = True
            for r in range(n + 2):
                for picked in combinations(range(n + 1), r):
                    sub[picked] = L.join_all([u] + [ats[i] for i in picked])
            if len(set(sub.values())) != 1 << (n + 1):
                continue
            for s1 in sub:
                for s2 in sub:
                    common = tuple(i for i in s1 if i in s2)
                    if L.meet(sub[s1], sub[s2]) != sub[common]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            v = sub[tuple(range(n + 1))]
            for w in elems:
                if all(L.meet(a, w) == u and L.join(a, w) == v for a in ats):
                    return True
    return False


# -- connected systems, one skeleton pair or triple at a time ------------------

def _mask(L, subset):
    m = np.zeros(L.n, dtype=bool)
    m[[L.index(a) for a in subset]] = True
    return m


def _is_filter(leq, meet, mask):
    """Are the elements marked in `mask` a filter of the lattice with order
    `leq` and meet table `meet`: nonempty, closed upward and under meets?
    One element at a time, apart from the library's (17) kernel."""
    inside = [a for a in range(len(mask)) if mask[a]]
    return bool(inside) \
        and all(mask[b] for a in inside for b in range(len(mask)) if leq[a, b]) \
        and all(mask[meet[a, b]] for a in inside for b in inside)


def _is_ideal(leq, join, mask):
    """Are the elements marked in `mask` an ideal of the lattice with order
    `leq` and join table `join`: nonempty, closed downward and under
    joins?  The dual of `_is_filter`."""
    return _is_filter(leq.T, join, mask)


def _images(f, b):
    """Image masks over the target block of index maps f (rows), -1
    undefined: each target index compared with every entry of its row."""
    return (f[:, :, None] == np.arange(b)).any(axis=1)


def _iso_filter_to_ideal(Lx, Ly, m, cond, pair, out):
    """(17)/(22) for one map; the order-mismatch witness is the first pair
    in the map's key order."""
    dom = set(m)
    img = set(m.values())
    if len(img) != len(dom):
        out.append(ConnectViolation(cond, pair, "map is not injective"))
        return
    if not dom <= set(Lx.elements) or not img <= set(Ly.elements):
        out.append(ConnectViolation(cond, pair, "map leaves its blocks"))
        return
    if not _is_filter(Lx._leq, Lx._meet, _mask(Lx, dom)):
        out.append(ConnectViolation(cond, pair, "domain is not a filter"))
    if not _is_ideal(Ly._leq, Ly._join, _mask(Ly, img)):
        out.append(ConnectViolation(cond, pair, "image is not an ideal"))
    for a in m:
        for b in m:
            if Lx.leq(a, b) != Ly.leq(m[a], m[b]):
                out.append(ConnectViolation(cond, pair, ("order mismatch", a, b)))
                return


def _compose(outer, inner):
    return {a: outer[b] for a, b in inner.items() if b in outer}


def oracle_validate_connected(cs):
    """(17)-(20δ) with id-level S.leq calls and dict compositions over
    every skeleton pair and triple; a nonempty map on a diagonal pair is a
    (17) violation."""
    _check_disjoint(cs.blocks)
    S = cs.skeleton
    out = []
    for x in S.elements:
        for y in S.elements:
            if x == y or not S.leq(x, y):
                if (x, y) in cs.maps and cs.maps[(x, y)]:
                    out.append(ConnectViolation(
                        "17", (x, y), "map on a diagonal pair" if x == y
                        else "map on a non-comparable pair"))
                continue
            m = cs.phi(x, y)
            if m:
                _iso_filter_to_ideal(cs.blocks[x], cs.blocks[y], m, "17", (x, y), out)
            if not m and y in S.upper_covers(x):
                out.append(ConnectViolation("18", (x, y), "empty map on a cover"))
            for z in S.elements:
                if S.leq(x, z) and S.leq(z, y):
                    comp = _compose(cs.phi(z, y), cs.phi(x, z))
                    if comp != m:
                        out.append(ConnectViolation("19", (x, z, y)))
    for x in S.elements:
        for y in S.elements:
            j, w = S.join(x, y), S.meet(x, y)
            im_x = set(cs.phi(x, j).values())
            im_y = set(cs.phi(y, j).values())
            if not im_x & im_y <= set(cs.phi(w, j).values()):
                out.append(ConnectViolation("20", (x, y)))
            dom_x = set(cs.phi(w, x))
            dom_y = set(cs.phi(w, y))
            if not dom_x & dom_y <= set(cs.phi(w, j)):
                out.append(ConnectViolation("20d", (x, y)))
    return out


def oracle_validate_local(lcs):
    """(22)-(24δ) with id-level cover and diamond loops."""
    if not is_modular(lcs.skeleton):
        raise NotModularSkeleton("locally connected systems require a modular skeleton")
    _check_disjoint(lcs.blocks)
    S = lcs.skeleton
    out = []
    for x, y in S.covers:
        m = lcs.phi(x, y)
        if not m:
            out.append(ConnectViolation("22", (x, y), "empty cover map"))
            continue
        _iso_filter_to_ideal(lcs.blocks[x], lcs.blocks[y], m, "22", (x, y), out)
    for (x, y) in lcs.maps:
        if y not in S.upper_covers(x):
            out.append(ConnectViolation("22", (x, y), "map on a non-cover pair"))
    for x in S.elements:
        for y in S.elements:
            w, j = S.meet(x, y), S.join(x, y)
            if not (x in S.upper_covers(w) and y in S.upper_covers(w)
                    and j in S.upper_covers(x) and j in S.upper_covers(y)
                    and x != y):
                continue
            via_x = _compose(lcs.phi(x, j), lcs.phi(w, x))
            via_y = _compose(lcs.phi(y, j), lcs.phi(w, y))
            if via_x != via_y:
                out.append(ConnectViolation("23", (w, x, y, j)))
                continue
            if not set(lcs.phi(x, j).values()) & set(lcs.phi(y, j).values()) \
                    <= set(via_x.values()):
                out.append(ConnectViolation("24", (w, x, y, j)))
            if not set(lcs.phi(w, x)) & set(lcs.phi(w, y)) <= set(via_x):
                out.append(ConnectViolation("24d", (w, x, y, j)))
    return out


def oracle_elevate(lcs):
    """The dict recurrence: going down the skeleton by height,
    φ(x, y) = φ(c, y) ∘ φ(x, c) for the first upper cover c of x below y,
    with (17)–(20δ) checked again on the result, which `elevate` proves
    instead."""
    bad = oracle_validate_local(lcs)
    if bad:
        raise LatticeError(f"invalid local system: {bad}")
    S = lcs.skeleton
    ids, up, leq = S._ids, S._up_adj, S._leq
    maps = {}

    def phi(x, y):
        return {a: a for a in lcs.blocks[x].elements} if x == y \
            else maps.get((x, y), {})

    for i in sorted(range(S.n), key=S._height.__getitem__, reverse=True):
        for j in np.flatnonzero(leq[i]):
            if j != i:
                c = next(k for k in up[i] if leq[k, j])
                m = _compose(phi(ids[c], ids[j]), lcs.phi(ids[i], ids[c]))
                if m:
                    maps[(ids[i], ids[j])] = m
    cs = ConnectedSystem(S, lcs.blocks, maps)
    bad = oracle_validate_connected(cs)
    if bad:
        raise LatticeError(f"elevated system invalid: {bad}")
    return cs


def oracle_fill(S, phi):
    """The cover recurrence one height at a time, with one n×n nonzero per
    height and the first upper cover of each element found by a per-element
    argmax: phi[x, y] = phi[c, y] ∘ phi[x, c], in place."""
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
        inner = phi[x, c]
        phi[x, y] = np.where(inner >= 0, phi[c[:, None], y[:, None],
                                             np.maximum(inner, 0)], -1)


def oracle_chain_failures(S, phi):
    """`glue._chain_failures` as it was: each cover x ≺ c composed against
    every column y of the skeleton, masked by c < y afterwards, then every
    triple listed one x at a time after the first failure."""
    n, b = S.n, phi.shape[2]
    lt = S._leq & ~np.eye(n, dtype=bool)
    cov = np.array(S._cov, dtype=np.intp).reshape(-1, 2)
    step = max(1, _BLOCK_CELLS // (n * b))
    ys = np.arange(n)[None, :, None]
    for s in range(0, len(cov), step):
        x, c = cov[s:s + step, 0], cov[s:s + step, 1]
        comp = _index_compose(lambda a: phi[c[:, None, None], ys, a],
                              phi[x, c][:, None, :])
        if ((comp != phi[x]).any(2) & lt[c]).any():
            break
    else:
        return {}
    out = {}
    for x in range(n):
        up = np.flatnonzero(lt[x])
        comp = _index_compose(
            lambda a: phi[up[:, None, None], up[None, :, None], a],
            phi[x, up][:, None, :])
        bad = (comp != phi[x, up][None]).any(2) & lt[np.ix_(up, up)]
        for y, z in zip(*np.nonzero(bad.T)):
            out.setdefault((x, int(up[y])), []).append(int(up[z]))
    return out


def oracle_glue_failures(S, phi):
    """`connect._glue_failures` as it was: (20) and (20δ) on every cell of
    the n×n grid, in chunks of rows, from image masks of the whole tensor."""
    n, b = S.n, phi.shape[2]
    img = _images(phi.reshape(n * n, b), b).reshape(n, n, b)
    dom = phi >= 0
    f20 = np.zeros((n, n), dtype=bool)
    f20d = np.zeros((n, n), dtype=bool)
    step = max(1, _BLOCK_CELLS // (n * b))
    cols = np.arange(n)[None, :]
    for s in range(0, n, step):
        rows = np.arange(s, min(n, s + step))[:, None]
        j, w = S._join[rows, cols], S._meet[rows, cols]
        f20[rows[:, 0]] = (img[rows, j] & img[cols, j] & ~img[w, j]).any(2)
        f20d[rows[:, 0]] = (dom[w, rows] & dom[w, cols] & ~dom[w, j]).any(2)
    return f20, f20d


def oracle_preimages(cs):
    """The `pre` array of the identification record from a nonzero on the
    tensor's 3 axes: the preimage in block x of each carrier element,
    the last in block order where a map is not injective."""
    S = cs.skeleton
    phi = cs._tensor[0]
    size = [cs.blocks[x].n for x in S._ids]
    start = np.concatenate(([0], np.cumsum(size))).astype(np.intp)
    pre = np.full((start[-1], S.n), -1, dtype=np.intp)
    x, y, a = np.nonzero(phi >= 0)
    pre[start[y] + phi[x, y, a], x] = start[x] + a
    return pre


def _oracle_block_of(cs, a):
    for x in cs.skeleton.elements:
        if a in cs.blocks[x]:
            return x
    raise LatticeError(f"{a!r} is in no block")


def oracle_equivalent(cs, a, b):
    """The id-level identification test: images at the join of the blocks,
    checked against preimages at their meet on the queried pair only."""
    x, y = _oracle_block_of(cs, a), _oracle_block_of(cs, b)
    S = cs.skeleton
    j, w = S.join(x, y), S.meet(x, y)
    up_a, up_b = cs.phi(x, j).get(a), cs.phi(y, j).get(b)
    join_side = up_a is not None and up_a == up_b
    inv_x = {v: k for k, v in cs.phi(w, x).items()}
    inv_y = {v: k for k, v in cs.phi(w, y).items()}
    meet_side = a in inv_x and b in inv_y and inv_x[a] == inv_y[b]
    if x == y:
        meet_side = a == b
    if join_side != meet_side:
        raise InvariantViolated("join-side and meet-side criteria disagree",
                                (a, b))
    return join_side


def oracle_equiv_criteria(cs, a, b):
    """The four identification criteria on one pair, by dict lookups:
    (i) images agree in some block, (ii) at the join of the blocks,
    (iii) preimages agree in some block, (iv) at their meet."""
    S = cs.skeleton
    x, y = _oracle_block_of(cs, a), _oracle_block_of(cs, b)
    i = any(cs.phi(x, z).get(a) is not None
            and cs.phi(x, z).get(a) == cs.phi(y, z).get(b)
            for z in S.elements)
    up_a, up_b = cs.phi(x, S.join(x, y)).get(a), cs.phi(y, S.join(x, y)).get(b)
    ii = up_a is not None and up_a == up_b
    inv = {}
    for z in S.elements:
        inv[z] = ({v: k for k, v in cs.phi(z, x).items()},
                  {v: k for k, v in cs.phi(z, y).items()})
    iii = any(a in ix and b in iy and ix[a] == iy[b]
              for ix, iy in inv.values())
    ix, iy = inv[S.meet(x, y)]
    iv = a in ix and b in iy and ix[a] == iy[b]
    return i, ii, iii, iv


def oracle_equiv_matrices(cs):
    """oracle_equiv_criteria on every pair of the carrier, as a 4×N×N
    array in carrier order, with the dicts and their inverses built once
    per system: (i) and (iii) look only at the blocks where a has an image
    or a preimage."""
    S = cs.skeleton
    to = {(y, z): cs.phi(y, z) for y in S.elements for z in S.elements}
    back = {(z, y): {v: k for k, v in m.items()} for (z, y), m in to.items()}
    carrier = [(y, b) for y in S.elements for b in cs.blocks[y].elements]
    out = []
    for x, a in carrier:
        ups = {z: to[x, z][a] for z in S.elements if a in to[x, z]}
        downs = {z: back[z, x][a] for z in S.elements if a in back[z, x]}
        row = []
        for y, b in carrier:
            j, w = S.join(x, y), S.meet(x, y)
            row.append((any(to[y, z].get(b) == c for z, c in ups.items()),
                        j in ups and to[y, j].get(b) == ups[j],
                        any(back[z, y].get(b) == p for z, p in downs.items()),
                        w in downs and back[w, y].get(b) == downs[w]))
        out.append(row)
    return np.array(out, dtype=bool).reshape(len(carrier), len(carrier), 4) \
        .transpose(2, 0, 1)


def oracle_not_an_equivalence(carrier, rel):
    """The reflexivity, symmetry and transitivity loops over rel, a dict on
    pairs: the first failure's detail, or None."""
    for a in carrier:
        if not rel[a, a]:
            return f"not reflexive at {a}"
        for b in carrier:
            if rel[a, b] != rel[b, a]:
                return "not symmetric"
            for c in carrier:
                if rel[a, b] and rel[b, c] and not rel[a, c]:
                    return "not transitive"
    return None


def oracle_connected_check(cs):
    """The per-pair loops of the connected-sums criterion on one system:
    the detail of its first failure, or None."""
    carrier = [a for x in cs.skeleton.elements for a in cs.blocks[x].elements]
    rel = {}
    for a in carrier:
        for b in carrier:
            i, ii, iii, iv = oracle_equiv_criteria(cs, a, b)
            if not i == ii == iii == iv:
                return f"criteria disagree at ({a}, {b})"
            rel[a, b] = ii
            if oracle_equivalent(cs, a, b) != ii:
                return f"equivalent disagrees at ({a}, {b})"
    bad = oracle_not_an_equivalence(carrier, rel)
    if bad is not None:
        return bad
    gsys, pis = connected_sum(cs)
    for x in cs.skeleton.elements:
        h = LatticeHom(cs.blocks[x], gsys.blocks[x], pis[x])
        if not (is_homomorphism(h) and is_injective(h)):
            return f"projection at {x} is not an iso"
    return None


def oracle_connected_sum(cs):
    """Union-find over element ids, representatives from the block least in
    (height, name), each quotient block rebuilt from its covers."""
    S = cs.skeleton
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in S.elements:
        for a in cs.blocks[x].elements:
            parent[a] = a
    for (x, y), m in cs.maps.items():
        for a, b in m.items():
            parent[find(a)] = find(b)

    block_rank = {x: (S.height(x), str(x)) for x in S.elements}
    classes = {}
    for x in S.elements:
        for a in cs.blocks[x].elements:
            classes.setdefault(find(a), []).append((block_rank[x], a))
    rep = {root: min(members)[1] for root, members in classes.items()}

    pis = {}
    blocks = {}
    for x in S.elements:
        L = cs.blocks[x]
        pi = {a: rep[find(a)] for a in L.elements}
        if len(set(pi.values())) != L.n:
            raise LatticeError(f"quotient collapses block {x!r} internally")
        blocks[x] = FiniteLattice([pi[a] for a in L.elements],
                                  [(pi[a], pi[b]) for a, b in L.covers])
        pis[x] = pi
    sys = GluedSystem(S, blocks)
    bad = glue_validate(sys)
    if bad:
        raise LatticeError(f"quotient is not a glued system: {bad}")
    return sys, pis


def oracle_copies_local_system(S, block):
    """The copies of `block` over S named `f"{x}:{a}"`, each built from its
    covers, as `copies_local_system` named them before it called the
    bridge; distinct (x, a) pairs share a name when x holds a colon."""
    blocks = dict(zip(S.elements, _lattices(
        ([f"{x}:{a}" for a in block.elements],
         [(f"{x}:{a}", f"{x}:{b}") for a, b in block.covers])
        for x in S.elements)))
    maps = {(x, y): {f"{x}:{a}": f"{y}:{a}" for a in block.elements}
            for x, y in S.covers}
    return LocalConnectedSystem(S, blocks, maps)


# -- the skeleton pipeline, rebuilt instead of derived -------------------------

def oracle_is_modular(L):
    """Modular law a ≦ c ⟹ a + (b·c) = (a+b)·c, over all triples: one
    comparison per element a, over all b and all c ≧ a at once."""
    J, M, leq = L._join, L._meet, L._leq
    for a in range(L.n):
        cs = np.flatnonzero(leq[a])
        if not np.array_equal(J[a][M[:, cs]], M[J[a][:, None], cs]):
            return False
    return True


def oracle_interval(L, lo, hi):
    """The interval [lo, hi] rebuilt from its order by `from_leq`."""
    idxs = np.flatnonzero(L._leq[L.index(lo)] & L._leq[:, L.index(hi)])
    return FiniteLattice.from_leq([L._ids[i] for i in idxs],
                                  L._leq[idxs][:, idxs])


def oracle_closure(sys):
    """The carrier and the closure of the union of the block orders, by
    Warshall's n steps."""
    carrier = sys.carrier()
    idx = {a: i for i, a in enumerate(carrier)}
    n = len(carrier)
    leq = np.zeros((n, n), dtype=bool)
    for L in sys.blocks.values():
        pos = [idx[a] for a in L.elements]
        leq[np.ix_(pos, pos)] |= L._leq
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k])
    return carrier, leq


def oracle_glued_sum(sys):
    """The sum rebuilt from the Warshall closure."""
    carrier, leq = oracle_closure(sys)
    n = len(carrier)
    cyclic = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))
    if len(cyclic):
        a, b = (carrier[i] for i in cyclic[0])
        raise NotALattice(f"closure order not antisymmetric at ({a!r}, {b!r})")
    try:
        return FiniteLattice.from_leq(carrier, leq)
    except LatticeError as e:
        raise NotALattice(str(e)) from e


def oracle_reglues(dec):
    """Build the sum of the decomposition and compare it with the source;
    a system whose closure order is no lattice does not reglue."""
    try:
        L = oracle_glued_sum(dec.system)
    except NotALattice:
        return False
    M = dec.source
    if set(L.elements) != set(M.elements):
        return False
    pos = [M.index(a) for a in L.elements]
    return np.array_equal(L._leq, M._leq[np.ix_(pos, pos)])


def oracle_membership(sys):
    """The blocks in carrier indices from ids, rebuilt on every call:
    pos[i] lists the carrier index of each element of the i-th block (in
    block order), loc[i] maps a carrier index to its index in that block
    (-1 outside it), B is the skeleton × carrier membership matrix and
    C = B·Bᵀ the overlap sizes; block i's elements are rows start[i] to
    start[i + 1] - 1 of the concatenated pos."""
    S = sys.skeleton
    blocks = [sys.blocks[x] for x in S.elements]
    seen = {}
    for L in blocks:
        for a in L.elements:
            seen[a] = None
    carrier = tuple(seen)
    idx = {a: i for i, a in enumerate(carrier)}
    pos = [np.array([idx[a] for a in L.elements]) for L in blocks]
    loc = np.full((S.n, len(carrier)), -1)
    for i, p in enumerate(pos):
        loc[i, p] = np.arange(len(p))
    B = loc >= 0
    Bf = B.astype(np.float32)
    start = np.cumsum([0] + [len(p) for p in pos])
    return carrier, pos, loc, B, (Bf @ Bf.T).astype(np.intp), start


def oracle_star_plus(M):
    """a* and a⁺ of every element of M alone, as `_star_plus` computed
    them before the family fold: a* folded up over the upper covers of a,
    one cover of each element per step, a⁺ dually."""
    if not is_modular(M):
        raise NotModular("skeleton operations are defined for modular lattices")
    lo, hi = M._cov_array.T
    st = np.arange(M.n)
    pl = np.arange(M.n)
    for tail, head, table, out in ((lo, hi, M._join, st), (hi, lo, M._meet, pl)):
        order = np.argsort(tail, kind="stable")
        tail, head = tail[order], head[order]
        k = np.arange(len(tail)) - np.searchsorted(tail, tail)
        for step in range(k.max(initial=-1) + 1):
            at = k == step
            out[tail[at]] = table[out[tail[at]], head[at]]
    return st, pl


def oracle_skeleton_lattice_one(M, st, pl):
    """S(M) of M alone, as `skeleton_lattice` built it before the family
    pass: its own meet certificate, settled and checked."""
    k = np.flatnonzero(pl[st] == np.arange(M.n))
    pair = np.ix_(k, k)
    S, topo = _from_order([M._ids[i] for i in k], M._leq[pair])
    join, meet = M._join[pair], pl[st[M._meet[pair]]]
    pos = np.full(M.n, -1, dtype=np.int32)
    pos[k] = np.arange(len(k), dtype=np.int32)
    S._join, S._meet = pos[join], pos[meet]
    outside = (S._join < 0) | (S._meet < 0)
    np.maximum(S._meet, 0, out=S._meet)
    flagged = outside | _uncertified(S._leq.T[None].astype(np.float32),
                                     S._meet[None])
    _settle(S._leq, topo, S.elements, S._join, S._meet, flagged)
    _freeze(S)
    for what, got, want in (
            ("skeleton join is not the join of M", k[S._join], join),
            ("skeleton meet is not (x·y)*⁺", k[S._meet], meet)):
        bad = np.argwhere(got != want)
        if len(bad):
            i, j = bad[0]
            raise InvariantViolated(what, (S.elements[i], S.elements[j]))
    if k[S._bot] != M._bot:
        raise InvariantViolated("skeleton bottom is not 0", S.bottom)
    if k[S._top] != pl[M._top]:
        raise InvariantViolated("skeleton top is not 1⁺", S.top)
    return S


def oracle_slice(M, lo, hi):
    """The interval [lo, hi] of M, lo ≤ hi given as indices, as
    `FiniteLattice._slice` cut it before a decomposition's blocks were
    assembled: the induced order through `_from_order`, M's join and meet
    tables renumbered (-1 outside the interval, which only a forged table
    has)."""
    idxs = np.flatnonzero(M._leq[lo] & M._leq[:, hi])
    pos = np.full(M.n, -1, dtype=np.int32)
    pos[idxs] = np.arange(len(idxs), dtype=np.int32)
    pair = (idxs[:, None], idxs)
    L, _ = _from_order([M._ids[k] for k in idxs], M._leq[pair])
    L._join, L._meet = pos[M._join[pair]], pos[M._meet[pair]]
    _freeze(L)
    return L


class OracleSlicedBlocks(SlicedBlocks):
    """`SlicedBlocks` whose blocks are cut by `oracle_slice`."""

    def _block(self, i):
        return oracle_slice(self._M, self._lo[i], self._hi[i])


def oracle_sliced_blocks(keys, M, lo, hi):
    """The blocks [lo[i], hi[i]] of M alone, cut as `glue._sliced_blocks`
    cut them before the family pass: M's tables looked up for the blocks
    of one size at a time, the closure and bound checks that the cut in
    `glue` leaves to the proof in `glue._sliced_blocks` (only a forged
    table fails them), then the carrier; each block is `oracle_slice`d."""
    ids, n = M._ids, M.n
    mask = M._leq[lo] & M._leq.T[hi]
    owner, elem = np.nonzero(mask)
    size = mask.sum(axis=1)
    start = np.concatenate(([0], np.cumsum(size)))
    place = np.full(mask.shape, -1, dtype=np.intp)
    place[owner, elem] = np.arange(len(elem)) - start[owner]
    leq = np.zeros((len(mask), size.max(), size.max()), dtype=bool)
    tables = np.zeros((2, *leq.shape), dtype=np.int32)
    for s in np.unique(size):
        g = np.flatnonzero(size == s)
        e = elem[start[g][:, None] + np.arange(s)]
        pair = e[:, :, None] * n + e[:, None, :]
        leq[g, :s, :s] = M._leq.take(pair)
        for t, T in zip(tables, (M._join, M._meet)):
            c = T.take(pair).astype(np.intp)
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
    held = mask.any(axis=0)
    perm = np.argsort(np.where(held, mask.argmax(axis=0), len(mask)),
                      kind="stable")[:held.sum()]
    where = np.full(n, -1, dtype=np.intp)
    where[perm] = np.arange(len(perm))
    members = _members(tuple(ids[p] for p in perm), where[elem], start,
                       where[lo], where[hi], leq, *tables)
    return OracleSlicedBlocks(keys, M, lo, hi, members)


def _overlap_maps(m, I, J):
    """The identity on the overlap of blocks I[k] and J[k] as index maps:
    f[k, a] is the index in block J[k] of the a-th element of block I[k],
    -1 outside the overlap or past block I[k]'s size."""
    r = m.start[I][:, None] + np.arange(m.leq.shape[1])  # rows of block I
    return np.where(r < m.start[I + 1][:, None],
                    m.loc[J[:, None], m.rows.take(r, mode="clip")], -1)


def oracle_validate_one(sys):
    """`glue.validate` on one system, as it ran before the family pass:
    the pairs, (A4) and the (17) kernel over this system's arrays alone."""
    S = sys.skeleton
    m = sys._members
    carrier, loc, B, C = m.carrier, m.loc, m.B, m.C
    visit = C > 0
    visit[tuple(S._cov_array.T)] = True
    np.fill_diagonal(visit, False)
    I, J = np.nonzero(visit)
    comparable = S._leq[I, J]
    incomparable = ~(comparable | S._leq[J, I])
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


def oracle_decompose_one(M):
    """`decompose` as it ran before `decompositions`, on M alone: its own
    star/plus fold, skeleton lattice, block cut and validation, each of
    the above, and the same errors."""
    st, pl = oracle_star_plus(M)
    S = oracle_skeleton_lattice_one(M, st, pl)
    k = np.flatnonzero(pl[st] == np.arange(M.n))
    top = st[k]
    sys = GluedSystem(S, oracle_sliced_blocks(S.elements, M, k, top))
    bad = oracle_validate_one(sys)
    if bad:
        raise InvariantViolated("decomposition violates the glue axioms", bad[0])
    nested = nested_cover(sys)
    if nested is not None:
        raise InvariantViolated("decomposition is not strictly monotone", nested)
    return skeleton.SkeletonDecomposition(
        M, frozenset(S.elements), S, sys.blocks, sys,
        frozenset(M._ids[i] for i in np.flatnonzero(st[pl] == np.arange(M.n))))


def oracle_decompose(M):
    """`decompose` as it was: S(M), then one `oracle_slice` per skeleton
    element, glued as a hand-made system (whose membership comes from the
    blocks' ids), validated and checked strictly monotone.  Returns the
    skeleton lattice, the blocks and the system."""
    st, pl = oracle_star_plus(M)
    S = oracle_skeleton_lattice_one(M, st, pl)
    blocks = {x: oracle_slice(M, M.index(x), st[M.index(x)])
              for x in S.elements}
    sys = GluedSystem(S, blocks)
    oracle_decompose_checks(sys)
    return S, blocks, sys


def oracle_decompose_checks(sys):
    """The checks `decompose` runs on its system, as it ran them."""
    bad = glue_validate(sys)
    if bad:
        raise InvariantViolated("decomposition violates the glue axioms",
                                bad[0])
    nested = oracle_nested_cover(sys)
    if nested is not None:
        raise InvariantViolated("decomposition is not strictly monotone",
                                nested)


def oracle_nested_cover(sys):
    """The first skeleton cover one of whose blocks contains the other, by
    id sets."""
    for x, y in sys.skeleton.covers:
        sx, sy = set(sys.blocks[x].elements), set(sys.blocks[y].elements)
        if sx <= sy or sy <= sx:
            return x, y
    return None


def oracle_glue_violations(sys):
    """The (A1)-(A4) violations as `glue.validate` lists them, every
    comparable overlapping pair checked on its own with about 20 numpy
    calls.  The derived checks that follow an empty list are left out."""
    S = sys.skeleton
    carrier, pos, loc, B, C = oracle_membership(sys)[:5]
    blocks = [sys.blocks[x] for x in S.elements]
    visit = C > 0
    for i, j in S._cov:
        visit[i, j] = True
    np.fill_diagonal(visit, False)
    I, J = np.nonzero(visit)
    incomparable = ~(S._leq[I, J] | S._leq[J, I])
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
        elif not _is_filter(blocks[i]._leq, blocks[i]._meet, B[j, pos[i]]):
            out.append(GlueViolation("A1", (x, y, "overlap is not a filter of the lower block")))
        elif not _is_ideal(blocks[j]._leq, blocks[j]._join, B[i, pos[j]]):
            out.append(GlueViolation("A1", (x, y, "overlap is not an ideal of the upper block")))
        else:
            ov = np.flatnonzero(B[i] & B[j])
            ix, iy = loc[i, ov], loc[j, ov]
            differ = blocks[i]._leq[ix][:, ix] != blocks[j]._leq[iy][:, iy]
            out += [GlueViolation("A2", (x, y, carrier[ov[a]], carrier[ov[b]]))
                    for a, b in np.argwhere(differ)]
    return out


def oracle_overlap_shape(sys):
    """The overlap shapes that (A1)-(A4) imply and `validate` proves (see
    its docstring), decided one pair at a time over id sets: every incomparable pair x, y overlaps
    in L_{x∧y} ∩ L_{x∨y}, and every x < y that overlaps does so in
    [0_y, 1_x] of either block.  Returns None, or the text and the first
    failing pair in row-major skeleton-index order, incomparable pairs
    first."""
    S = sys.skeleton
    xs = S.elements
    sets = {x: set(sys.blocks[x].elements) for x in xs}
    for x in xs:
        for y in xs:
            if not S.leq(x, y) and not S.leq(y, x) and sets[x] & sets[y] \
                    != sets[S.meet(x, y)] & sets[S.join(x, y)]:
                return "overlap is not meet-block ∩ join-block", (x, y)
    for x in xs:
        for y in xs:
            inter = sets[x] & sets[y]
            if x == y or not S.leq(x, y) or not inter:
                continue
            Lx, Ly = sys.blocks[x], sys.blocks[y]
            lo, hi = Ly.bottom, Lx.top
            if lo not in sets[x] or hi not in sets[y] \
                    or inter != Lx.up_set(lo) or inter != Ly.down_set(hi):
                return "overlap is not [0_y, 1_x]", (x, y)
    return None


# -- the join/meet tables, the skeleton lattice, block operations -------------

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


def oracle_linked(n, cov):
    """`core._linked` before it set ranks: the adjacency up and down of the
    index covers `cov` over range(n), Kahn's linear extension, and the
    heights and depths of a separate `_ranks` pass along it."""
    up_adj = [[] for _ in range(n)]
    down_adj = [[] for _ in range(n)]
    for i, j in cov:
        up_adj[i].append(j)
        down_adj[j].append(i)
    indeg = list(map(len, down_adj))
    topo = [i for i in range(n) if indeg[i] == 0]
    for i in topo:
        for j in up_adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                topo.append(j)
    if len(topo) != n:
        raise CycleDetected("cover digraph contains a cycle")
    return (tuple(map(tuple, up_adj)), tuple(map(tuple, down_adj)), topo,
            *_ranks(topo, up_adj, down_adj))


def kahn_order(L):
    """The linear extension the constructor checks the tables in: Kahn's
    order of the covers, minimal elements first in index order."""
    indeg = [len(d) for d in L._down_adj]
    topo = [i for i in range(L.n) if indeg[i] == 0]
    for i in topo:
        for j in L._up_adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                topo.append(j)
    return np.array(topo)


def oracle_tables(leq, topo, ids):
    """The join and meet tables by the first-common-bound search, or the
    NoUniqueJoin/NoUniqueMeet it raised at the first pair without a least
    bound, naming that pair's first common bound in `topo` and another
    minimal one."""
    join, join_ok = _first_common_bounds(leq, topo)
    meet, meet_ok = _first_common_bounds(leq.T, topo[::-1])
    bad = ~(join_ok & meet_ok)
    if bad.any():
        a, b = np.argwhere(np.triu(bad))[0]
        if not join_ok[a, b]:
            up, c, err, kind = leq, join[a, b], NoUniqueJoin, "upper"
        else:
            up, c, err, kind = leq.T, meet[a, b], NoUniqueMeet, "lower"
        rest = up[a] & up[b] & ~up[c]
        other = min(np.flatnonzero(rest), key=lambda i: up[:, i].sum())
        raise err(f"({ids[a]!r}, {ids[b]!r}) has incomparable minimal {kind} "
                  f"bounds {ids[c]!r} and {ids[other]!r}")
    return join, meet


def oracle_from_leq(elements, leq):
    """`FiniteLattice.from_leq` as it was: the covers lt & ~(lt @ lt) as id
    pairs through the validating constructor, and the order they generate
    compared with `leq` afterwards."""
    ids = tuple(elements)
    leq = np.asarray(leq, dtype=bool)
    lt = leq & ~np.eye(len(ids), dtype=bool)
    ltf = lt.astype(np.float32)
    covers = lt & ((ltf @ ltf) == 0)
    L = FiniteLattice(ids, [(ids[i], ids[j]) for i, j in zip(*np.nonzero(covers))])
    if not np.array_equal(L._leq, leq):
        raise LatticeError("relation is not a partial order: its covers "
                           "generate a different order")
    return L


def oracle_suborder(M, idxs):
    """The order M induces on the sorted indices `idxs` as a lattice
    without join/meet tables, as `FiniteLattice._suborder` built it: covers
    in row-major order, adjacency, bounds, and ranks along M's heights."""
    m = len(idxs)
    leq = M._leq[idxs[:, None], idxs]
    lt = leq & ~np.eye(m, dtype=bool)
    ltf = lt.astype(np.float32)
    lo, hi = np.nonzero(lt & ((ltf @ ltf) == 0))
    cov = list(zip(lo.tolist(), hi.tolist()))
    up_adj = [[] for _ in range(m)]
    down_adj = [[] for _ in range(m)]
    for a, b in cov:
        up_adj[a].append(b)
        down_adj[b].append(a)
    L = object.__new__(FiniteLattice)
    L._ids = tuple(M._ids[k] for k in idxs)
    L._idx = {a: k for k, a in enumerate(L._ids)}
    L.n = m
    L._cov = tuple(cov)
    L._bot, L._top = _bounds(L._ids, up_adj, down_adj)
    L._leq = leq
    L._up_adj = tuple(tuple(a) for a in up_adj)
    L._down_adj = tuple(tuple(a) for a in down_adj)
    # M's heights rise along the order: a linear extension
    parent_height = [M._height[k] for k in idxs]
    topo = sorted(range(m), key=parent_height.__getitem__)
    L._height, L._depth = _ranks(topo, up_adj, down_adj)
    return L


def oracle_skeleton_lattice(M, st, pl):
    """S(M) rebuilt by `from_leq` on the induced order, then checked
    against M's join and (x·y)*⁺."""
    k = np.flatnonzero(pl[st] == np.arange(M.n))
    S = FiniteLattice.from_leq([M._ids[i] for i in k], M._leq[np.ix_(k, k)])
    pair = np.ix_(k, k)
    for what, got, want in (
            ("skeleton join is not the join of M", k[S._join], M._join[pair]),
            ("skeleton meet is not (x·y)*⁺", k[S._meet], pl[st[M._meet[pair]]])):
        bad = np.argwhere(got != want)
        if len(bad):
            i, j = bad[0]
            raise InvariantViolated(what, (S.elements[i], S.elements[j]))
    if k[S._bot] != M._bot:
        raise InvariantViolated("skeleton bottom is not 0", S.bottom)
    if k[S._top] != pl[M._top]:
        raise InvariantViolated("skeleton top is not 1⁺", S.top)
    return S


def oracle_star(M, a):
    """`star` as it was: the join of a's upper covers, 1 at the top."""
    if not is_modular(M):
        raise NotModular("skeleton operations are defined for modular lattices")
    if a == M.top:
        return M.top
    return M.join_all(M.upper_covers(a))


def oracle_plus(M, a):
    """`plus` as it was: the meet of a's lower covers, 0 at the bottom."""
    if not is_modular(M):
        raise NotModular("skeleton operations are defined for modular lattices")
    if a == M.bottom:
        return M.bottom
    return M.meet_all(M.lower_covers(a))


def oracle_lemma61_suite(M):
    """`lemma61_suite` as it was: id-level loops over the elements and the
    pairs, a* and a⁺ from `oracle_star` and `oracle_plus`."""
    star, plus = oracle_star, oracle_plus
    st = {a: star(M, a) for a in M.elements}
    pl = {a: plus(M, a) for a in M.elements}
    bad = []
    for a in M.elements:
        if not M.leq(a, st[a]) or not M.leq(pl[a], a):
            bad.append(("bounds", a))
        if not (M.leq(a, st[pl[a]]) and M.leq(st[pl[a]], st[a])):
            bad.append(("b", a))
        if st[pl[st[a]]] != st[a]:
            bad.append(("c", a))
        if not (M.leq(pl[st[a]], a) and M.leq(pl[a], pl[st[a]])):
            bad.append(("b-dual", a))
        if pl[st[pl[a]]] != pl[a]:
            bad.append(("c-dual", a))
        for b in M.elements:
            if M.leq(a, b):
                if not M.leq(st[a], st[b]) or not M.leq(pl[a], pl[b]):
                    bad.append(("a", (a, b)))
            if pl[st[a]] == a and pl[st[b]] == b:
                s = M.join(a, b)
                if pl[st[s]] != s:
                    bad.append(("d", (a, b)))
            if st[pl[a]] == a and st[pl[b]] == b:
                m = M.meet(a, b)
                if st[pl[m]] != m:
                    bad.append(("d-dual", (a, b)))
            if M.join(pl[a], pl[b]) != pl[M.join(a, b)]:
                bad.append(("e", (a, b)))
            if M.meet(st[a], st[b]) != st[M.meet(a, b)]:
                bad.append(("e-dual", (a, b)))
    return {"violations": bad, "ok": not bad}


def oracle_maximal_atomistic_intervals(M):
    """`maximal_atomistic_intervals` as it was: slice every comparable
    pair's interval, keep the atomistic ones, return the maximal ones as
    (lo, hi) pairs."""
    if not is_modular(M):
        raise NotModular("skeleton operations are defined for modular lattices")
    found = []
    for a in M.elements:
        for b in M.elements:
            if M.leq(a, b) and is_atomistic(M.interval(a, b).lattice):
                found.append((a, b))
    return [(a, b) for (a, b) in found
            if not any((c, d) != (a, b) and M.leq(c, a) and M.leq(b, d)
                       for (c, d) in found)]


def oracle_skeleton_duality_suite(M):
    """`skeleton_duality_suite` as it was: the skeleton sets against
    id-level `oracle_star` and `oracle_plus`, element by element and pair
    by pair."""
    star, plus = oracle_star, oracle_plus
    sk = skeleton.skeleton_set(M)
    dsk = skeleton.dual_skeleton(M)
    report = {}
    up = {x: star(M, x) for x in sk}
    report["star_into_dual"] = set(up.values()) == dsk \
        and len(set(up.values())) == len(sk)
    report["mutually_inverse"] = all(plus(M, up[x]) == x for x in sk) and \
        all(up.get(plus(M, a)) == a for a in dsk)
    report["order_iso"] = all(M.leq(x, y) == M.leq(up[x], up[y])
                              for x in sk for y in sk)
    report["dual_of_dual_skeleton"] = dsk == skeleton.skeleton_set(M.dual())
    anti = find_isomorphism(M, M, anti=True)
    if anti is not None:
        S = skeleton.skeleton_lattice(M)
        report["skeleton_self_dual"] = find_isomorphism(S, S, anti=True) \
            is not None
    report["ok"] = all(v for k, v in report.items() if k != "ok")
    return report


def oracle_block_operations(sys, carrier, pos, loc, B, C, start):
    """The first pair of blocks that disagree on a join or meet of two of
    their shared elements, from index arrays built block by block; None
    when all agree.  `validate` proves that no system it accepts has
    one."""
    S = sys.skeleton
    blocks = [sys.blocks[x] for x in S.elements]
    n = len(carrier)
    blocks_of = B.sum(axis=0)
    shared = [np.flatnonzero(blocks_of[p] > 1) for p in pos]
    owner = np.repeat(np.arange(S.n), [len(k) ** 2 for k in shared])
    a = np.concatenate([np.repeat(p[k], len(k)) for p, k in zip(pos, shared)])
    b = np.concatenate([np.tile(p[k], len(k)) for p, k in zip(pos, shared)])
    held = np.empty((n, n), dtype=np.intp)
    held[a, b] = np.arange(len(a))
    other = held[a, b]
    for op in ("_join", "_meet"):
        got = np.concatenate([p[getattr(L, op)[k][:, k]].ravel()
                              for p, L, k in zip(pos, blocks, shared)])
        bad = np.flatnonzero(got != got[other])
        if len(bad):
            return (f"blocks disagree on {op[1:]}",
                    (S.elements[owner[bad[0]]], S.elements[owner[other[bad[0]]]]))
    return None


def oracle_invariant_classes(L):
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


def oracle_find_isomorphism(L1, L2, anti=False):
    """Order-isomorphism L1 → L2 as a dict, or None, by backtracking over
    invariant classes.  With anti=True searches for an anti-isomorphism
    (order-reversing)."""
    if anti:
        L2 = L2.dual()
    if L1.n != L2.n or len(L1.covers) != len(L2.covers):
        return None
    inv1 = oracle_invariant_classes(L1)
    inv2 = oracle_invariant_classes(L2)
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


def oracle_canonical_key(L):
    """Minimal order-matrix code over permutations respecting structural
    invariant classes (all automorphism-compatible relabelings)."""
    inv = oracle_invariant_classes(L)
    classes = {}
    for a in sorted(L.elements, key=L.index):
        classes.setdefault(inv[a], []).append(a)
    ordered = [classes[k] for k in sorted(classes)]
    best = None
    for perm_parts in iproduct(*(permutations(c) for c in ordered)):
        seq = [a for part in perm_parts for a in part]
        code = bytes(L.leq(a, b) for a in seq for b in seq)
        if best is None or code < best:
            best = code
    return best


def _lattice_from_downsets(downs):
    n = len(downs)
    leq = [[i in downs[j] for j in range(n)] for i in range(n)]
    return FiniteLattice.from_leq([str(i) for i in range(n)], leq)


def oracle_lattice_states(max_elements):
    """Every state of the frozenset enumerator with a unique maximal
    element, as a lattice, in visiting order, duplicates included.

    Elements are added one at a time in linear-extension order; each new
    element picks a downward-closed down-set D such that D ∩ ↓j has a
    maximum for every existing j (so meets stay well defined); states with
    a unique maximal element are bounded meet-semilattices, i.e. lattices.
    """
    def down_closed_choices(downs):
        k = len(downs)
        for bits in range(1, 1 << k):
            D = frozenset(i for i in range(k) if bits >> i & 1)
            if 0 not in D:
                continue
            if not all(downs[i] <= D for i in D):
                continue
            ok = True
            for j in range(k):
                cut = D & downs[j]
                if not any(cut <= downs[i] for i in cut):
                    ok = False
                    break
            if ok:
                yield D

    def rec(downs):
        maximal = [j for j in range(len(downs))
                   if not any(j in d for k, d in enumerate(downs) if k != j)]
        if len(maximal) == 1:
            yield _lattice_from_downsets(downs)
        if len(downs) == max_elements:
            return
        for D in down_closed_choices(downs):
            yield from rec(downs + [D | {len(downs)}])

    if max_elements >= 1:
        yield from rec([frozenset({0})])


def oracle_enumerate_lattices(max_elements):
    """All lattices with ≤ max_elements elements, one per isomorphism
    class: the states of `oracle_lattice_states`, isomorphs rejected by
    `oracle_canonical_key`."""
    seen = set()
    for L in oracle_lattice_states(max_elements):
        key = oracle_canonical_key(L)
        if key not in seen:
            seen.add(key)
            yield L


def oracle_keyed_enumerate_lattices(max_elements):
    """The bitset enumerator that keys lattice states only: every state is
    extended, duplicates included, and the first lattice of each class is
    built."""
    if max_elements > MAX_ENUMERATED:
        raise LimitExceeded(
            f"enumeration supported up to {MAX_ENUMERATED} elements")
    seen = set()
    stack = [[1]] if max_elements >= 1 else []  # down-sets, depth first
    while stack:
        downs = stack.pop()
        n = len(downs)
        full = (1 << n) - 1
        if downs[-1] == full:
            leq = _bit_matrix(downs).T
            if (key := _order_key(leq)) not in seen:
                seen.add(key)
                yield FiniteLattice.from_leq([str(i) for i in range(n)], leq)
        if n == max_elements:
            continue
        choices = range(1, 1 << n, 2) if n + 1 < max_elements else (full,)
        principal = set(downs)
        stack += [downs + [D | 1 << n] for D in reversed(choices)
                  if principal.issuperset(map(D.__and__, downs))]


def oracle_naive_lattice_count(n):
    """The naive count one relation at a time: each transitive
    upper-triangular relation on 0..n-1 that `from_leq` accepts, keyed."""
    if n > 5:
        raise LimitExceeded("naive filter is for n <= 5")
    above = np.triu_indices(n, 1)
    keys = set()
    for bits in range(1 << len(above[0])):
        leq = np.eye(n, dtype=bool)
        leq[above] = [bits >> b & 1 for b in range(len(above[0]))]
        if not np.array_equal(leq @ leq, leq):
            continue
        try:
            L = FiniteLattice.from_leq([str(i) for i in range(n)], leq)
        except LatticeError:
            continue
        keys.add(_order_key(L._leq))
    return len(keys)


def oracle_distributive_with_skeleton(S):
    """`distributive_with_skeleton` naming both ends of every cover anew."""
    def pid(A, B):
        return "{%s|%s}" % (",".join(sorted(map(str, A))),
                            ",".join(sorted(map(str, B))))

    def powerset(base):
        base = sorted(base, key=str)
        return [frozenset(c) for r in range(len(base) + 1)
                for c in combinations(base, r)]

    def block_spec(x):
        down = [a for a in S.elements if S.leq(a, x)]
        up = [b for b in S.elements if S.leq(x, b)]
        elems = [(A, B) for A in powerset(down) for B in powerset(up)]
        covers = []
        for A, B in elems:
            for a in down:
                if a not in A:
                    covers.append((pid(A, B), pid(A | {a}, B)))
            for b in up:
                if b in B:
                    covers.append((pid(A, B), pid(A, B - {b})))
        return [pid(A, B) for A, B in elems], covers

    return GluedSystem(S, dict(zip(S.elements,
                                   _lattices(map(block_spec, S.elements)))))


def oracle_square_sublattice(S):
    """`square_sublattice` naming both ends of every cover anew."""
    st, pl = skeleton._star_plus(S)
    ids, leq, up = S._ids, S._leq, S._up_adj

    def pid(u, v):
        return f"{ids[u]},{ids[v]}"

    def block_spec(x):
        us = np.flatnonzero(leq[pl[x]] & leq[:, x])
        vs = np.flatnonzero(leq[x] & leq[:, st[x]])
        covers = []
        for u in us:
            for v in vs:
                covers += [(pid(u, v), pid(u2, v)) for u2 in up[u] if leq[u2, x]]
                covers += [(pid(u, v), pid(u, v2))
                           for v2 in up[v] if leq[v2, st[x]]]
        return [pid(u, v) for u in us for v in vs], covers

    return GluedSystem(S, dict(zip(S.elements,
                                   _lattices(map(block_spec, range(S.n))))))


def oracle_product(L1, L2):
    """`product` by the cover build: the product's covers, listed per lower
    element in row-major order, L1's first, handed to the constructor."""
    ids = [[f"{a},{b}" for b in L2.elements] for a in L1.elements]
    covers = []
    for i, ups1 in enumerate(L1._up_adj):
        for j, ups2 in enumerate(L2._up_adj):
            covers += [(ids[i][j], ids[i2][j]) for i2 in ups1]
            covers += [(ids[i][j], ids[i][j2]) for j2 in ups2]
    return FiniteLattice([a for row in ids for a in row], covers)


def oracle_boolean(n):
    """`boolean` by the cover build: one cover per letter added."""
    letters = "abcdefgh"[:n]

    def name(s):
        return "".join(sorted(s)) or "0"

    ids = [name(s) for r in range(n + 1) for s in combinations(letters, r)]
    covers = [(name(s), name(set(s) | {x}))
              for r in range(n) for s in combinations(letters, r)
              for x in letters if x not in s]
    return FiniteLattice(ids, covers)


def oracle_distributive_cover_build(S):
    """`distributive_with_skeleton` by the cover build, its blocks built as
    one batch, covers read from the bitmasks of `_subsets`."""
    def block_spec(x):
        down = [a for a in S.elements if S.leq(a, x)]
        up = [b for b in S.elements if S.leq(x, b)]
        downs, down_names = _subsets(down)
        ups, up_names = _subsets(up)
        ids = ["{%s|%s}" % (a, b) for a in down_names for b in up_names]
        name = dict(zip([(A, B) for A in downs for B in ups], ids))
        covers = []
        for (A, B), here in name.items():
            covers += [(here, name[A | 1 << i, B])
                       for i in range(len(down)) if not A >> i & 1]
            covers += [(here, name[A, B & ~(1 << j)])
                       for j in range(len(up)) if B >> j & 1]
        return ids, covers

    return GluedSystem(S, dict(zip(S.elements,
                                   _lattices(map(block_spec, S.elements)))))


# -- the staircase formulas by walking maximal chains --------------------------

def maximal_chains(L, lo, hi):
    """Maximal chains from lo up to hi through covers, as id lists,
    generated lazily in depth-first order."""
    j = L.index(hi)

    def walk(i):
        if i == j:
            yield [hi]
        elif L._leq[i, j]:
            for k in L._up_adj[i]:
                for rest in walk(k):
                    yield [L._ids[i], *rest]
    return walk(L.index(lo))


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
    first, *second = islice(maximal_chains(sys.skeleton, x, z), 2)
    result = _staircase_up(sys, a, first)
    for chain in second:
        if _staircase_up(sys, a, chain) != result:
            raise InvariantViolated("sup staircase depends on the chain",
                                    (a, x, z))
    return result


def _inf_to_one(sys, a, x, z):
    first, *second = (chain[::-1] for chain in
                      islice(maximal_chains(sys.skeleton, z, x), 2))
    result = _staircase_down(sys, a, first)
    for chain in second:
        if _staircase_down(sys, a, chain) != result:
            raise InvariantViolated("inf staircase depends on the chain",
                                    (a, x, z))
    return result


def oracle_sup_via_formulas(sys, a, b):
    """One query: walk the first two maximal chains from each argument's
    first block up to the join block, then join there."""
    S = sys.skeleton
    x = sys.blocks_of(a)[0]
    y = sys.blocks_of(b)[0]
    z = S.join(x, y)
    return sys.blocks[z].join(_sup_to_zero(sys, a, x, z),
                              _sup_to_zero(sys, b, y, z))


def oracle_inf_via_formulas(sys, a, b):
    S = sys.skeleton
    x = sys.blocks_of(a)[0]
    y = sys.blocks_of(b)[0]
    z = S.meet(x, y)
    return sys.blocks[z].meet(_inf_to_one(sys, a, x, z),
                              _inf_to_one(sys, b, y, z))


def oracle_zero_one_maps(sys):
    """The preservation flags by one formula query per skeleton pair."""
    S = sys.skeleton
    zero = {x: sys.zero(x) for x in S.elements}
    one = {x: sys.one(x) for x in S.elements}
    join_ok = all(oracle_sup_via_formulas(sys, zero[x], zero[y])
                  == zero[S.join(x, y)]
                  for x in S.elements for y in S.elements)
    meet_ok = all(oracle_inf_via_formulas(sys, one[x], one[y])
                  == one[S.meet(x, y)]
                  for x in S.elements for y in S.elements)
    flags = {
        "zero_join_preserving": join_ok,
        "one_meet_preserving": meet_ok,
        "zero_injective": len(set(zero.values())) == len(zero),
        "one_injective": len(set(one.values())) == len(one),
    }
    return zero, one, flags


def oracle_corollary_54_check(sys, host):
    """Host joins and meets of every pair of the sum, id by id."""
    S = sys.skeleton
    zero_one = all(
        host.join(sys.zero(x), sys.zero(y)) == sys.zero(S.join(x, y))
        and host.meet(sys.one(x), sys.one(y)) == sys.one(S.meet(x, y))
        for x in S.elements for y in S.elements)
    if not is_modular(S) and not zero_one:
        return False
    L = glued_sum(sys)
    carrier = set(L.elements)
    for a in carrier:
        for b in carrier:
            j, m = host.join(a, b), host.meet(a, b)
            if j not in carrier or m not in carrier:
                return False
            if j != L.join(a, b) or m != L.meet(a, b):
                return False
    return True


def oracle_unpreserved_pair(h):
    """The first pair whose join or meet h does not preserve, or None."""
    m = h.map
    for a in h.domain.elements:
        for b in h.domain.elements:
            if m[h.domain.join(a, b)] != h.codomain.join(m[a], m[b]):
                return a, b
            if m[h.domain.meet(a, b)] != h.codomain.meet(m[a], m[b]):
                return a, b
    return None


def oracle_check_star(sys, fam):
    """Condition (*) pair by pair."""
    S = sys.skeleton
    host = next(iter(fam.values())).codomain
    for x in S.elements:
        for y in S.elements:
            j, w = S.join(x, y), S.meet(x, y)
            if host.join(fam[x].map[sys.zero(x)], fam[y].map[sys.zero(y)]) \
                    != fam[j].map[sys.zero(j)]:
                return False
            if host.meet(fam[x].map[sys.one(x)], fam[y].map[sys.one(y)]) \
                    != fam[w].map[sys.one(w)]:
                return False
    return True


# -- the one-lattice-at-a-time constructor ------------------------------------

def _oracle_mobius(leq, topo):
    """v and w of one order, as the two rows of one array (see
    `core._mobius`, which stacks many orders)."""
    n = len(topo)
    lt = leq[topo][:, topo]
    diagonal = np.arange(n)
    lt[diagonal, diagonal] = False
    lt = np.array([lt, lt.T[::-1, ::-1]])  # strict, in positions
    t = np.array([topo, topo[::-1]], dtype=np.float64)[:, :, None]
    x = np.zeros((2, n, 1))
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
    x[1] = x[1, ::-1]
    vw = np.empty((2, n))
    vw[:, topo] = x[..., 0]
    return vw


def _oracle_least_bounds(leq, topo, ids):
    """The join and meet tables of one order from its own Möbius product,
    certified by counting, rows of about _BLOCK_CELLS cells at a time."""
    n = len(topo)
    up = np.array([leq, leq.T])  # ζ and ζᵀ
    Uf = up.astype(np.float32)
    v = _oracle_mobius(leq, topo).astype(np.float32)
    tables = np.empty((2, n, n), dtype=np.int32)
    step = max(1, _BLOCK_CELLS // (2 * n))
    for s in range(0, n, step):
        rows = slice(s, s + step)
        c = (Uf[:, rows] * v[:, None, :]) @ Uf.transpose(0, 2, 1)
        np.fmax(c, 0, out=c)
        tables[:, rows] = np.fmin(c, n - 1, out=c)
    join, meet = tables
    _settle(leq, topo, ids, join, meet, _uncertified(Uf, tables))
    return join, meet


def oracle_lattice(elements, covers):
    """The constructor as it built one lattice before batches: the same
    checks in the same order (duplicate ids named by their first repeat),
    then the lattice's own tables."""
    L = object.__new__(FiniteLattice)
    ids = tuple(elements)
    if not ids:
        raise NotBounded("empty element list")
    if len(set(ids)) != len(ids):
        seen = set()
        dup = next(a for a in ids if a in seen or seen.add(a))
        raise LatticeError(f"duplicate element ids: {dup!r} is repeated")
    L._ids = ids
    L._idx = {a: i for i, a in enumerate(ids)}
    n = len(ids)
    L.n = n

    cov = []
    seen = set()
    for lo, hi in covers:
        if lo not in L._idx or hi not in L._idx:
            raise UnknownElement(f"cover ({lo!r}, {hi!r}) references unknown element")
        if lo == hi:
            raise CycleDetected(f"self-cover at {lo!r}")
        pair = (L._idx[lo], L._idx[hi])
        if pair in seen:
            raise LatticeError(f"duplicate cover ({lo!r}, {hi!r})")
        seen.add(pair)
        cov.append(pair)
    L._cov = tuple(cov)

    up_adj = [[] for _ in range(n)]
    down_adj = [[] for _ in range(n)]
    for i, j in cov:
        up_adj[i].append(j)
        down_adj[j].append(i)

    L._up_adj, L._down_adj = up_adj, down_adj
    topo = kahn_order(L).tolist()
    if len(topo) != n:
        raise CycleDetected("cover digraph contains a cycle")

    up = [0] * n
    for i in reversed(topo):
        bits = 1 << i
        for j in up_adj[i]:
            bits |= up[j]
        up[i] = bits

    for i, j in cov:
        for k in up_adj[i]:
            if k != j and up[k] >> j & 1:
                raise NotTransitiveReduction(
                    f"cover ({ids[i]!r}, {ids[j]!r}) is implied via {ids[k]!r}")
    leq = _bit_matrix(up)

    L._bot, L._top = _bounds(ids, up_adj, down_adj)
    L._leq = leq
    L._up_adj = tuple(tuple(a) for a in up_adj)
    L._down_adj = tuple(tuple(a) for a in down_adj)
    L._height, L._depth = _ranks(topo, up_adj, down_adj)
    L._join, L._meet = _oracle_least_bounds(leq, np.array(topo), ids)
    return L


def oracle_atomistic(L):
    """Every element is the join of the atoms below it, by id."""
    atoms = L.atoms()
    for a in L.elements:
        if L.join_all(p for p in atoms if L.leq(p, a)) != a:
            return False
    return True


def oracle_generated_sublattice(host, generators):
    """Closure of a generating set under join and meet, one id pair at a
    time."""
    closed = set(generators)
    frontier = list(closed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(closed):
                for c in (host.join(a, b), host.meet(a, b)):
                    if c not in closed:
                        closed.add(c)
                        fresh.append(c)
        frontier = fresh
    return closed


@dataclass(frozen=True)
class CongruencePartition:
    lattice: object
    blocks: tuple  # tuple of frozensets of element ids

    def collapses(self, a, b):
        for blk in self.blocks:
            if a in blk:
                return b in blk
        raise UnknownElement(repr(a))

    def is_full(self):
        return len(self.blocks) == 1

    def is_trivial(self):
        return len(self.blocks) == self.lattice.n


def principal_congruence(L, a, b):
    """Smallest congruence collapsing a and b, by closure under the
    join/meet compatibility rules."""
    n = L.n
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    J, M = L._join, L._meet
    work = [(L.index(a), L.index(b))]
    while work:
        i, j = work.pop()
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        for c in range(n):
            work.append((J[i, c], J[j, c]))
            work.append((M[i, c], M[j, c]))
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(L.elements[i])
    return CongruencePartition(L, tuple(frozenset(g) for g in groups.values()))


def is_sublattice(host, subset):
    subset = set(subset)
    for a in subset:
        host.index(a)
    for a in subset:
        for b in subset:
            if host.join(a, b) not in subset or host.meet(a, b) not in subset:
                return False
    return True
