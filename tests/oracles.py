"""Search-based decision procedures the library replaced, kept as oracles:
the Boolean-embedding backtracker behind the old `breadth`, the per-element
distributive law, and the forbidden-configuration search for
n-distributivity."""

from itertools import combinations

import numpy as np

from latglue.predicates import NotModular, is_modular


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
