"""Decision procedures for lattice classes: modularity, semimodularity,
distributivity, atomisticity, breadth, n-distributivity, simplicity."""

from itertools import combinations

import numpy as np

from .core import _BLOCK_CELLS, LatticeError, _transitive_closure


class NotModular(LatticeError):
    pass


def is_modular(L):
    """Rank identity h(a) + h(b) = h(a+b) + h(a·b) for the height h, one
    n×n comparison.  A modular lattice of finite length is graded and its
    height satisfies it (Birkhoff, *Lattice Theory*, 3rd ed., 1967,
    Ch. II).  Conversely h, the longest chain below an element, rises
    strictly along the order, so a lattice satisfying it has a positive
    valuation and is modular (ibid., Ch. X): when a ≦ c, a + (b·c) ≦
    (a+b)·c and both have height h(a) + h(b·c) - h(a·b).  So the identity
    also proves the lattice graded."""
    cached = getattr(L, "_modular", None)
    if cached is not None:
        return cached
    h = np.array(L._height, dtype=np.int32)
    ok = bool((h[:, None] + h == h[L._join] + h[L._meet]).all())
    L._modular = ok
    return ok


def _covers_close(adj, table):
    """Is table[b, c] in adj[b] and in adj[c] for every two members b ≠ c
    of one list of `adj`: semimodularity on (_up_adj, _join), its dual on
    (_down_adj, _meet)."""
    return all(table[b, c] in adj[b] and table[b, c] in adj[c]
               for covers in adj for b, c in combinations(covers, 2))


def is_semimodular(L):
    """Cover form: a ≺ b, a ≺ c, b ≠ c implies b+c covers both b and c."""
    return _covers_close(L._up_adj, L._join)


def is_dual_semimodular(L):
    return _covers_close(L._down_adj, L._meet)


def _join_irreducibles(L):
    """J(L): the indices with exactly one lower cover."""
    return np.flatnonzero([len(d) == 1 for d in L._down_adj])


def is_distributive(L):
    """Distributive lattices are modular, and a modular lattice of finite
    length is distributive iff |J(L)| = ℓ(L) (Grätzer, *Lattice Theory:
    Foundation*, 2011)."""
    return is_modular(L) and len(_join_irreducibles(L)) == L.length()


def is_atomistic(L):
    """A finite lattice is atomistic iff each join-irreducible (one lower
    cover) is an atom (that cover is 0): every element is the join of the
    join-irreducibles below it, and a join-irreducible is a join of atoms
    only if it is one."""
    return all(d == (L._bot,) for d in L._down_adj if len(d) == 1)


def is_coatomistic(L):
    return all(u == (L._top,) for u in L._up_adj if len(u) == 1)


def breadth(L):
    """The largest n with 2^n order-embedded in L: the size of the largest
    irredundant subset of J(L), no member below the join of the others.

    For an irredundant set {a₁…a_k}, S ↦ ∨S order-embeds 2^k: if ∨S ≦ ∨T,
    each aᵢ with i ∈ S is below ∨T, so i ∈ T.  Conversely the singleton
    images aᵢ = f({i}) of an embedding f are irredundant, since aᵢ ≦
    ∨_{k≠i} a_k ≦ f(all but i) would put {i} below its complement.  Each
    aᵢ is a join of join-irreducibles, one of which, jᵢ, is not below
    ∨_{k≠i} a_k; swapping aᵢ for jᵢ only lowers the other members'
    leave-one-out joins, so the set stays irredundant inside J(L)."""
    cached = getattr(L, "_breadth", None)
    if cached is None:
        cached = L._breadth = sum(
            len(total) > 0 for total, _ in _growth(L, _join_irreducibles(L)))
    return cached


def _growth(L, cand=None, k=None):
    """The irredundant sets of L, no member below the join of the others,
    one size at a time from 1: (total join, leave-one-out joins) per set,
    up to size `k` or to the first size with none, which is yielded too.
    Members are drawn from the sorted indices `cand`, by default every
    non-bottom index.

    Subsets of an irredundant set are irredundant, so each set grows by a
    larger index c not below its join, kept if every old member stays off
    its leave-one-out join with c."""
    J, leq = L._join, L._leq
    if cand is None:
        cand = np.delete(np.arange(L.n), L._bot)
    rows = cand[:, None]
    total = rows[:, 0]
    loo = np.full((len(rows), 1), L._bot, dtype=J.dtype)
    yield total, loo
    step = max(1, _BLOCK_CELLS // L.n)
    for _ in range(1, k or len(cand) + 1):
        if not len(rows):
            return
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
        yield total, loo


def _irredundant_sets(L, k):
    """The irredundant k-sets of `_growth` as (total join, leave-one-out
    joins) per set, members drawn from every non-bottom index; None once a
    size up to k has none."""
    for size, (total, loo) in enumerate(_growth(L, k=k), 1):
        pass
    return (total, loo) if size == k and len(total) else None


def _huhn_holds(L, total, loo):
    """x·total = Σⱼ x·looⱼ for every x and every row, all x of a chunk of
    `_BLOCK_CELLS` cells at once."""
    J, M = L._join, L._meet
    step = max(1, _BLOCK_CELLS // len(total))
    for s in range(0, L.n, step):
        x = np.arange(s, min(s + step, L.n))[:, None]
        rhs = M[x, loo[:, 0]]
        for j in range(1, loo.shape[1]):
            rhs = J[rhs, M[x, loo[:, j]]]
        if not np.array_equal(M[x, total], rhs):
            return False
    return True


def is_n_distributive(L, n):
    """Huhn identity x·Σyᵢ = Σⱼ(x·Σ_{i≠j}yᵢ) over all assignments of
    y₀…y_n.

    Only defined for modular lattices; raises NotModular otherwise.  Two
    cases hold without a search:

    - L distributive.  That is the identity at n = 1, and an
      n-distributive lattice is (n+1)-distributive (Huhn, 1972): apply the
      n-identity to y₀…y_{n-1}, y_n+y_{n+1}, then again to each term
      x·Σ_{i≠j}yᵢ with j < n, a join of n+1 of the y's.  Every term that
      comes out is x times a join of the y's that misses one of them, so
      below a term of the (n+1)-identity's right side, and that side is
      never above the left.
    - breadth(L) ≤ n.  If some yⱼ is below the join of the others, that
      leave-one-out join is the total and the two sides meet, so only
      irredundant (n+1)-sets matter, and `breadth`'s swap argument gives
      one inside J(L) when any exists.

    Otherwise the identity is checked on the irredundant (n+1)-sets of all
    of L, once per distinct set of leave-one-out joins."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_modular(L):
        raise NotModular("n-distributivity is defined for modular lattices")
    if is_distributive(L) or breadth(L) <= n:
        return True
    total, loo = _irredundant_sets(L, n + 1)
    # distinct sorted leave-one-out joins fix the total, the join of any two
    _, first = np.unique(np.sort(loo, axis=1), axis=0, return_index=True)
    return _huhn_holds(L, total[first], loo[first])


def is_simple(L):
    """Only congruences are trivial and full.  A 1-element lattice is not
    simple by convention.

    A finite lattice is simple iff the dependency digraph on its
    join-irreducibles is strongly connected: p D q when some x has
    p ≦ q+x but not p ≦ q₊+x, q₊ the lower cover of q (Freese, Ježek &
    Nation, *Free Lattices*, Thm 2.35 and Lemma 2.36).  The loop p D p
    (x = 0) keeps D reflexive for its closure by squaring."""
    if L.n < 2:
        return False
    J, leq = L._join, L._leq
    ps = _join_irreducibles(L)
    lower = np.array([L._down_adj[i][0] for i in ps])
    up, up_lower = J[ps], J[lower]  # q+x and q₊+x, one row per q
    D = np.empty((len(ps), len(ps)), dtype=bool)
    step = max(1, _BLOCK_CELLS // len(ps))
    for s in range(0, len(ps), step):
        p = ps[s:s + step, None, None]
        D[s:s + step] = (leq[p, up] & ~leq[p, up_lower]).any(axis=2)
    return bool(_transitive_closure(D).all())


def generated_sublattice(host, generators):
    """Closure of a generating set under join and meet: a mask of host
    indices grown by the tables on its own pairs until it stops growing."""
    mask = np.zeros(host.n, dtype=bool)
    mask[[host.index(a) for a in generators]] = True
    while True:
        i = np.flatnonzero(mask)
        mask[host._join[np.ix_(i, i)]] = True
        mask[host._meet[np.ix_(i, i)]] = True
        if mask.sum() == len(i):
            return {host._ids[k] for k in i}
