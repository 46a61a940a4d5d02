"""Skeleton theory for finite modular lattices: the a*/a⁺ operators, the
skeleton S(M) as the fixed points of x ↦ x*⁺, decomposition into maximal
atomistic intervals, and the regluing round-trip."""

from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, InvariantViolated, find_isomorphism
from .glue import GluedSystem, glued_sum, nested_cover, validate as glue_validate
from .predicates import NotModular, breadth, is_atomistic, is_modular, is_n_distributive


def _require_modular(M):
    if not is_modular(M):
        raise NotModular("skeleton operations are defined for modular lattices")


def star(M, a):
    """Join of the upper covers of a (1 when a is the top)."""
    _require_modular(M)
    if a == M.top:
        return M.top
    return M.join_all(M.upper_covers(a))


def plus(M, a):
    """Meet of the lower covers of a (0 when a is the bottom)."""
    _require_modular(M)
    if a == M.bottom:
        return M.bottom
    return M.meet_all(M.lower_covers(a))


def lemma61_suite(M):
    """Exhaustively verify the star/plus calculus and its duals:
    (a) monotonicity, (b) a ≦ a⁺* ≦ a*, (c) a*⁺* = a*, (d) the *⁺-closed
    elements are closed under join, (e) a⁺ + b⁺ = (a+b)⁺.
    Returns a report dict with a list of violation witnesses (expected []).
    """
    _require_modular(M)
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


def _star_plus(M):
    """a* and a⁺ of every element, as index arrays over M's elements.
    a* is folded up over the upper covers of a, one cover of each element
    per step, from a itself (a + c = c for a cover c of a; 1* = 1), and a⁺
    dually down over the lower covers."""
    _require_modular(M)
    lo, hi = np.array(M._cov, dtype=np.intp).reshape(-1, 2).T
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
    return st, pl


def skeleton_set(M):
    """Fixed points of x ↦ x*⁺."""
    st, pl = _star_plus(M)
    return {M.elements[i] for i in np.flatnonzero(pl[st] == np.arange(M.n))}


def dual_skeleton(M):
    """Fixed points of a ↦ a⁺*."""
    st, pl = _star_plus(M)
    return {M.elements[i] for i in np.flatnonzero(st[pl] == np.arange(M.n))}


def skeleton_lattice(M):
    """S(M) as a lattice under the induced order.

    Built from the transitive reduction of the induced order, then
    validated against the structural join/meet: x ∨ y must be x + y and
    x ∧ y must be (x·y)*⁺, with top 1⁺ and bottom 0.  A failure raises
    InvariantViolated with the first offending pair or element.
    """
    st, pl = _star_plus(M)
    k = np.flatnonzero(pl[st] == np.arange(M.n))  # S(M), in M's order
    S = M._restrict(k)
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


@dataclass(frozen=True, eq=False)
class SkeletonDecomposition:
    source: FiniteLattice
    skeleton_set: frozenset
    skeleton_lattice: FiniteLattice
    blocks: dict  # x -> FiniteLattice on the interval [x, x*]
    system: GluedSystem
    dual_skeleton: frozenset

    def reglues(self):
        """Does regluing the system reproduce the source element-for-element?"""
        L = glued_sum(self.system)
        M = self.source
        if set(L.elements) != set(M.elements):
            return False
        pos = [M.index(a) for a in L.elements]
        return np.array_equal(L._leq, M._leq[np.ix_(pos, pos)])


def decompose(M):
    """Split M into its maximal atomistic intervals [x, x*], x ∈ S(M),
    glued over the skeleton lattice.  The resulting system is validated
    and must be strictly monotone; a failure raises InvariantViolated."""
    S = skeleton_lattice(M)
    st, pl = _star_plus(M)
    ids = M.elements
    blocks = {x: M.interval(x, ids[st[M.index(x)]]).lattice for x in S.elements}
    sys = GluedSystem(S, blocks)
    bad = glue_validate(sys)
    if bad:
        raise InvariantViolated("decomposition violates the glue axioms", bad[0])
    nested = nested_cover(sys)
    if nested is not None:
        raise InvariantViolated("decomposition is not strictly monotone", nested)
    return SkeletonDecomposition(
        M, frozenset(S.elements), S, blocks, sys,
        frozenset(ids[i] for i in np.flatnonzero(st[pl] == np.arange(M.n))))


def roundtrip(M):
    """Does regluing the decomposition reproduce M element-for-element?"""
    return decompose(M).reglues()


def maximal_atomistic_intervals(M):
    """Independent oracle: scan all comparable pairs, keep the atomistic
    intervals, return the maximal ones as (lo, hi) pairs."""
    _require_modular(M)
    found = []
    for a in M.elements:
        for b in M.elements:
            if M.leq(a, b) and is_atomistic(M.interval(a, b).lattice):
                found.append((a, b))
    return [(a, b) for (a, b) in found
            if not any((c, d) != (a, b) and M.leq(c, a) and M.leq(b, d)
                       for (c, d) in found)]


def skeleton_duality_suite(M):
    """Verify that * and ⁺ are mutually inverse order-isomorphisms between
    S(M) and Sᵟ(M), that Sᵟ(M) is the skeleton of the dual lattice, and —
    when M admits an anti-automorphism — that the skeleton lattice is
    self-dual."""
    _require_modular(M)
    sk = skeleton_set(M)
    dsk = dual_skeleton(M)
    report = {}
    up = {x: star(M, x) for x in sk}
    report["star_into_dual"] = set(up.values()) == dsk and len(set(up.values())) == len(sk)
    report["mutually_inverse"] = all(plus(M, up[x]) == x for x in sk) and \
        all(up.get(plus(M, a)) == a for a in dsk)
    report["order_iso"] = all(M.leq(x, y) == M.leq(up[x], up[y])
                              for x in sk for y in sk)
    report["dual_of_dual_skeleton"] = dsk == skeleton_set(M.dual())
    anti = find_isomorphism(M, M, anti=True)
    if anti is not None:
        S = skeleton_lattice(M)
        report["skeleton_self_dual"] = find_isomorphism(S, S, anti=True) is not None
    report["ok"] = all(v for k, v in report.items() if k != "ok")
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
