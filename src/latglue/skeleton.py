"""Skeleton theory for finite modular lattices: the a*/a⁺ operators, the
skeleton S(M) as the fixed points of x ↦ x*⁺, decomposition into maximal
atomistic intervals, and the regluing round-trip."""

from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, InvariantViolated, _freeze, _from_order, \
    _settle, _uncertified, find_isomorphism
from .glue import GluedSystem, _order_union, _sliced_blocks, nested_cover, \
    validate as glue_validate
from .predicates import NotModular, breadth, is_modular, is_n_distributive


def _require_modular(M):
    if not is_modular(M):
        raise NotModular("skeleton operations are defined for modular lattices")


def star(M, a):
    """Join of the upper covers of a (1 when a is the top)."""
    return M._ids[_star_plus(M)[0][M.index(a)]]


def plus(M, a):
    """Meet of the lower covers of a (0 when a is the bottom)."""
    return M._ids[_star_plus(M)[1][M.index(a)]]


# The element-wise identities of `lemma61_suite` and the pair-wise ones, in
# the order a violation list names them.
_ONE = ("bounds", "b", "c", "b-dual", "c-dual")
_TWO = ("a", "d", "d-dual", "e", "e-dual")


def lemma61_suite(M):
    """Exhaustively verify the star/plus calculus and its duals:
    (a) monotonicity, (b) a ≦ a⁺* ≦ a*, (c) a*⁺* = a*, (d) the *⁺-closed
    elements are closed under join, (e) a⁺ + b⁺ = (a+b)⁺.
    Returns a report dict with a list of violation witnesses (expected []):
    (tag, a) or (tag, (a, b)), a-major in M's order, each a's own
    identities before its pairs.

    Every identity is one gather from `_star_plus`'s index arrays and M's
    order and tables, over all elements or all pairs at once."""
    st, pl = _star_plus(M)
    leq, join, meet = M._leq, M._join, M._meet
    ix = np.arange(M.n)
    sp, ps = st[pl], pl[st]  # a⁺*, a*⁺
    one = np.stack([~leq[ix, st] | ~leq[pl, ix],
                    ~leq[ix, sp] | ~leq[sp, st],
                    st[ps] != st,
                    ~leq[ps, ix] | ~leq[pl, ps],
                    pl[sp] != pl], axis=1)
    closed, dclosed = _fixed_points(st, pl)
    two = np.stack([leq & ~(leq[np.ix_(st, st)] & leq[np.ix_(pl, pl)]),
                    closed[:, None] & closed & ~closed[join],
                    dclosed[:, None] & dclosed & ~dclosed[meet],
                    join[np.ix_(pl, pl)] != pl[join],
                    meet[np.ix_(st, st)] != st[meet]], axis=2)
    bad = []
    if one.any() or two.any():
        ids = M._ids
        for a in range(M.n):
            bad += [(tag, ids[a]) for tag, hit in zip(_ONE, one[a]) if hit]
            bad += [(_TWO[t], (ids[a], ids[b])) for b, t in np.argwhere(two[a])]
    return {"violations": bad, "ok": not bad}


def _star_plus(M):
    """a* and a⁺ of every element, as read-only index arrays over M's
    elements: the one place they are computed.  They are kept on M, so
    each lattice computes them once; a relabelled copy shares them and a
    dual computes its own.  a* is folded up over the upper covers of a,
    one cover of each element per step, from a itself (a + c = c for a
    cover c of a; 1* = 1), and a⁺ dually down over the lower covers."""
    cached = getattr(M, "_star_plus", None)
    if cached is None:
        _require_modular(M)
        lo, hi = M._cov_array.T
        st = np.arange(M.n)
        pl = np.arange(M.n)
        for tail, head, table, out in ((lo, hi, M._join, st), (hi, lo, M._meet, pl)):
            order = np.argsort(tail, kind="stable")
            tail, head = tail[order], head[order]
            # k-th cover of its tail: position minus the tail's first position
            k = np.arange(len(tail)) - np.searchsorted(tail, tail)
            for step in range(k.max(initial=-1) + 1):
                at = k == step
                out[tail[at]] = table[out[tail[at]], head[at]]
        st.flags.writeable = pl.flags.writeable = False
        cached = M._star_plus = st, pl
    return cached


def _fixed_points(st, pl):
    """The masks of S(M), the fixed points of x ↦ x*⁺, and of Sᵟ(M), those
    of a ↦ a⁺*, from a* and a⁺ as index arrays."""
    ix = np.arange(len(st))
    return pl[st] == ix, st[pl] == ix


def skeleton_set(M):
    """Fixed points of x ↦ x*⁺."""
    in_sk, _ = _fixed_points(*_star_plus(M))
    return {M._ids[i] for i in np.flatnonzero(in_sk)}


def dual_skeleton(M):
    """Fixed points of a ↦ a⁺*."""
    _, in_dsk = _fixed_points(*_star_plus(M))
    return {M._ids[i] for i in np.flatnonzero(in_dsk)}


def skeleton_lattice(M):
    """S(M) as a lattice under the induced order.

    Its joins are M's and its meets (x·y)*⁺, each checked to stay in
    S(M); the meets are certified by counting common lower bounds in the
    induced order, and a pair that fails is rechecked exactly.  The tables
    are then validated against the structural join/meet: x ∨ y must be
    x + y and x ∧ y must be (x·y)*⁺, with top 1⁺ and bottom 0.  A failure
    raises InvariantViolated with the first offending pair or element.
    """
    return _skeleton_lattice(M, *_star_plus(M))


def _skeleton_lattice(M, st, pl):
    """`skeleton_lattice` from a* and a⁺ as `_star_plus` gives them."""
    k = np.flatnonzero(_fixed_points(st, pl)[0])  # S(M), in M's order
    pair = np.ix_(k, k)
    S, topo = _from_order([M._ids[i] for i in k], M._leq[pair])
    join, meet = M._join[pair], pl[st[M._meet[pair]]]
    pos = np.full(M.n, -1, dtype=np.int32)
    pos[k] = np.arange(len(k), dtype=np.int32)
    # M's join of two elements of S(M) that lies in S(M) is their join
    # there; the meet is certified, and a pair leaving S(M) is flagged
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


@dataclass(frozen=True, eq=False)
class SkeletonDecomposition:
    source: FiniteLattice
    skeleton_set: frozenset
    skeleton_lattice: FiniteLattice
    blocks: dict  # x -> FiniteLattice on [x, x*]: the system's blocks
    system: GluedSystem
    dual_skeleton: frozenset

    def reglues(self):
        """Does regluing the system reproduce the source M element for
        element?  On one carrier, the sum's order R⁺, the closure of the
        reflexive union R of the block orders, is ≤_M iff R ⊆ ≤_M and R
        holds every cover of M; no closure or sum is built.  If both hold,
        R⁺ ⊆ ≤_M (≤_M is transitive) and ≤_M, the closure of its covers, is
        in R⁺.  Conversely, if R⁺ = ≤_M, a path in R from a to b with a ≺ b
        stays in [a, b] = {a, b}, so (a, b) is in R."""
        carrier, R = _order_union(self.system)
        M = self.source
        if set(carrier) != set(M.elements):
            return False
        at = np.argsort([M._idx[a] for a in carrier])  # M's order in carrier
        R = R[np.ix_(at, at)]
        return bool(R[tuple(M._cov_array.T)].all() and not (R & ~M._leq).any())


def decompose(M):
    """Split M into its maximal atomistic intervals [x, x*], x ∈ S(M),
    glued over the skeleton lattice.  The resulting system is validated
    and must be strictly monotone; a failure raises InvariantViolated.

    The blocks are cut from M's tables all at once, in M's index space
    (`glue._sliced_blocks`); a block's FiniteLattice is built only when
    `blocks[x]` is asked for."""
    st, pl = _star_plus(M)
    S = _skeleton_lattice(M, st, pl)
    sk, dsk = _fixed_points(st, pl)
    k = np.flatnonzero(sk)  # S(M), in M's order
    top = st[k]
    sys = GluedSystem(S, _sliced_blocks(S.elements, M,
                                        M._leq[k] & M._leq.T[top], k, top))
    _check_decomposition(sys)
    return SkeletonDecomposition(
        M, frozenset(S.elements), S, sys.blocks, sys,
        frozenset(M._ids[i] for i in np.flatnonzero(dsk)))


def _check_decomposition(sys):
    """A decomposition's system must satisfy the glue axioms and be
    strictly monotone; InvariantViolated names the first failure."""
    bad = glue_validate(sys)
    if bad:
        raise InvariantViolated("decomposition violates the glue axioms", bad[0])
    nested = nested_cover(sys)
    if nested is not None:
        raise InvariantViolated("decomposition is not strictly monotone", nested)


def roundtrip(M):
    """Does regluing the decomposition reproduce M element-for-element?"""
    return decompose(M).reglues()


def maximal_atomistic_intervals(M):
    """Independent oracle for S(M): the maximal atomistic intervals of M as
    (lo, hi) pairs, row-major in M's order, from M's order and covers
    alone; no interval is built and a* and a⁺ are not used.

    The join-irreducibles of [a, b] are the c in (a, b] with exactly one
    lower cover ≥ a, and [a, b] is atomistic when each of them covers a.
    Whether c is one depends on a only, so [a, b] fails exactly when some
    c ≤ b is a spoiler of a: above a, not covering it, with one lower
    cover ≥ a.  An atomistic interval is maximal when it is the only
    atomistic [c, d] with c ≤ a and b ≤ d.  The counts come from float32
    products, exact while they stay below 2**24."""
    _require_modular(M)
    leq = M._leq.astype(np.float32)
    cov = np.zeros((M.n, M.n), dtype=np.float32)
    cov[tuple(M._cov_array.T)] = 1
    # a lower cover of c that is ≥ a puts c above a
    spoiler = (leq @ cov == 1) & (cov == 0)
    atomistic = M._leq & (spoiler.astype(np.float32) @ leq == 0)
    around = leq.T @ atomistic.astype(np.float32) @ leq.T
    lo, hi = np.nonzero(atomistic & (around == 1))
    return [(M._ids[a], M._ids[b]) for a, b in zip(lo, hi)]


def skeleton_duality_suite(M):
    """Verify that * and ⁺ are mutually inverse order-isomorphisms between
    S(M) and Sᵟ(M), that Sᵟ(M) is the skeleton of the dual lattice, and —
    when M admits an anti-automorphism — that the skeleton lattice is
    self-dual.

    All on `_star_plus`'s index arrays, for M and for M.dual().  On one
    pair of arrays the first two checks restate the fixed-point
    definitions of S(M) and Sᵟ(M); the order, the dual's skeleton and the
    self-duality carry the content.  A failed report also names a
    `witness`: the first pair of S(M) whose order * does not keep, or the
    first element whose a* and a⁺ are not the dual lattice's a⁺ and a*."""
    st, pl = _star_plus(M)
    dst, dpl = _star_plus(M.dual())
    in_sk, in_dsk = _fixed_points(st, pl)
    sk, dsk = np.flatnonzero(in_sk), np.flatnonzero(in_dsk)
    up = st[sk]
    image = np.unique(up)
    keeps = M._leq[np.ix_(sk, sk)] == M._leq[np.ix_(up, up)]
    report = {
        "star_into_dual": np.array_equal(image, dsk)
        and len(image) == len(sk),
        "mutually_inverse": bool((pl[up] == sk).all()
                                 and in_sk[pl[dsk]].all()
                                 and (st[pl[dsk]] == dsk).all()),
        "order_iso": bool(keeps.all()),
        "dual_of_dual_skeleton": np.array_equal(
            dsk, np.flatnonzero(dpl[dst] == np.arange(M.n))),
    }
    if find_isomorphism(M, M, anti=True) is not None:
        S = _skeleton_lattice(M, st, pl)
        report["skeleton_self_dual"] = find_isomorphism(S, S, anti=True) is not None
    report["ok"] = all(report.values())
    if not report["order_iso"]:
        i, j = np.argwhere(~keeps)[0]
        report["witness"] = (M._ids[sk[i]], M._ids[sk[j]])
    elif not report["dual_of_dual_skeleton"]:
        report["witness"] = M._ids[np.argmax((dst != pl) | (dpl != st))]
    return report


def consequence_suite(M, n):
    """Block-wise characterizations through the decomposition: M has
    breadth ≦ n iff every block does, and M is n-distributive iff every
    block is."""
    dec = decompose(M)
    blocks = list(dec.blocks.values())
    report = {
        "breadth_equiv": (breadth(M) <= n) == all(breadth(B) <= n for B in blocks),
        "ndist_equiv": is_n_distributive(M, n) == all(is_n_distributive(B, n)
                                                      for B in blocks),
    }
    report["ok"] = report["breadth_equiv"] and report["ndist_equiv"]
    return report
