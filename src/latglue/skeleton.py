"""Skeleton theory for finite modular lattices: the a*/a⁺ operators, the
skeleton S(M) as the fixed points of x ↦ x*⁺, decomposition into maximal
atomistic intervals, and the regluing round-trip.  A family of lattices
is decomposed in one pass (`decompositions`); one lattice is a family of
one."""

from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, InvariantViolated, LatticeError, _family, \
    _freeze, _from_order, _settle, _uncertified, _with_spec, find_isomorphism
from .glue import GluedSystem, _order_union, _sliced_blocks, nested_cover, \
    validations
from .predicates import NotModular, breadth, is_modular, is_n_distributive


def _require_modular(M):
    if not is_modular(M):
        raise NotModular("skeleton operations are defined for modular lattices")


def star(M, a):
    """Join of the upper covers of a (1 when a is the top)."""
    return M._ids[_star_plus(M)[0].item(M.index(a))]


def plus(M, a):
    """Meet of the lower covers of a (0 when a is the bottom)."""
    return M._ids[_star_plus(M)[1].item(M.index(a))]


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
    elements, kept on M: the family of one of `_star_pluses`, computed
    once per lattice."""
    cached = getattr(M, "_star_plus", None)
    if cached is None:
        _star_pluses(_family([M]))
        cached = M._star_plus
    return cached


def _star_pluses(fam):
    """a* and a⁺ of every element of the lattices of `fam` (a
    `core._Family`), in family indices: the one place they are computed.
    Each lattice keeps its own, as read-only index arrays over its
    elements (`_star_plus`), and is folded only once; a relabelled copy
    shares them and a dual computes its own.  a* is folded up over the
    upper covers of a, one cover of each element of every lattice per
    step, from a itself (a + c = c for a cover c of a; 1* = 1), and a⁺
    dually down over the lower covers.  NotModular, with `spec`, for the
    first lattice that is not modular."""
    Ms, start = fam.lattices, fam.start
    st = np.arange(start[-1])
    pl = np.arange(start[-1])
    new = []
    for k, M in enumerate(Ms):
        if "_star_plus" in vars(M):
            st[start[k]:start[k + 1]] = M._star_plus[0] + start[k]
            pl[start[k]:start[k + 1]] = M._star_plus[1] + start[k]
            continue
        try:
            _require_modular(M)
        except NotModular as e:
            raise _with_spec(e, k)
        new.append(k)
    if not new:
        return st, pl
    lo, hi = (np.concatenate([Ms[k]._cov_array for k in new])
              + np.repeat(start[new], [len(Ms[k]._cov) for k in new])[:, None]).T
    for tail, head, table, out in ((lo, hi, fam.join, st), (hi, lo, fam.meet, pl)):
        order = np.argsort(tail, kind="stable")
        tail, head = tail[order], head[order]
        # k-th cover of its tail: position minus the tail's first position
        k = np.arange(len(tail)) - np.searchsorted(tail, tail)
        for step in range(k.max(initial=-1) + 1):
            at = k == step
            out[tail[at]] = table[fam.row[out[tail[at]]] + head[at]]
    first = start[fam.lat]
    local = st - first, pl - first
    for a in local:
        a.flags.writeable = False
    for k in new:
        vars(Ms[k]).setdefault("_star_plus", tuple(a[start[k]:start[k + 1]]
                                                   for a in local))
    return st, pl


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
    """S(M) as a lattice under the induced order, kept on M: the family of
    one of `_skeleton_lattices`, built once per lattice.

    Its joins are M's and its meets (x·y)*⁺, each checked to stay in
    S(M); the meets are certified by counting common lower bounds in the
    induced order, and a pair that fails is rechecked exactly.  The tables
    are then validated against the structural join/meet: x ∨ y must be
    x + y and x ∧ y must be (x·y)*⁺, with top 1⁺ and bottom 0.  A failure
    raises InvariantViolated with the first offending pair or element.
    """
    cached = getattr(M, "_skeleton", None)
    if cached is None:
        fam = _family([M])
        cached, = _skeleton_lattices(fam, *_star_pluses(fam))
    return cached


def _skeleton_lattices(fam, st, pl):
    """`skeleton_lattice` of every lattice of `fam`, from a* and a⁺ as
    `_star_pluses` gives them.  A lattice that keeps its S(M) is not built
    again; the others are built and keep theirs.  The skeletons of one
    size share one meet certificate (`_uncertified`), and only the pairs
    it flags are settled.  The error raised is the one that building each
    S(M) alone, in order, raises first; it carries `spec`."""
    Ms, start = fam.lattices, fam.start
    K = np.nonzero(_fixed_points(st, pl)[0])[0]  # each S(M), in M's order
    cut = np.searchsorted(K, start)
    pos = np.full(len(st), -1, dtype=np.int32)
    pos[K] = np.arange(len(K)) - np.repeat(cut[:-1], cut[1:] - cut[:-1])
    cut, first = cut.tolist(), start.tolist()
    todo, by_size = [], {}
    for m, M in enumerate(Ms):
        if "_skeleton" not in vars(M):
            todo.append(m)
            by_size.setdefault(cut[m + 1] - cut[m], []).append(m)
    built = {}
    for s, g in by_size.items():
        k = K[np.array([cut[m] for m in g])[:, None] + np.arange(s)]
        cell = fam.row[k][:, :, None] + k[:, None, :]
        leq = fam.leq[cell]
        # M's join of two elements of S(M) that lies in S(M) is their join
        # there; the meet is certified, and a pair leaving S(M) is flagged.
        # So a pair left unflagged has k[J] = M's join and k[Mt] = (x·y)*⁺,
        # and only the settled pairs can fail the table checks below
        J, Mt = pos[fam.join[cell]], pos[pl[st[fam.meet[cell]]]]
        flagged = (J < 0) | (Mt < 0)
        np.maximum(Mt, 0, out=Mt)
        if s:  # an empty S(M) is refused by `_from_order` below
            flagged |= _uncertified(leq.transpose(0, 2, 1).astype(np.float32), Mt)
        built.update((m, (leq[i], J[i], Mt[i], flagged[i])) for i, m in enumerate(g))
    Ss = {}
    for m in todo:
        ids, a = Ms[m]._ids, first[m]
        try:
            Ss[m] = _from_order([ids[i - a] for i in K[cut[m]:cut[m + 1]].tolist()],
                                built[m][0])
        except LatticeError as e:
            raise _with_spec(e, m)
    for m in todo:
        (S, topo), (_, J, Mt, flagged) = Ss[m], built[m]
        S._join, S._meet = J, Mt
        try:
            _settle(S._leq, topo, S.elements, J, Mt, flagged)
        except LatticeError as e:
            raise _with_spec(e, m)
        _freeze(S)
    for m in todo:
        M, S, a = Ms[m], Ss[m][0], first[m]
        if built[m][3].any() or K[cut[m] + S._bot] != a + M._bot \
                or K[cut[m] + S._top] != pl[a + M._top]:
            failure = _skeleton_failure(S, K[cut[m]:cut[m + 1]], fam, st, pl, a)
            if failure is not None:
                raise _with_spec(failure, m)
        vars(M).setdefault("_skeleton", S)
    return [M._skeleton for M in Ms]


def _skeleton_failure(S, k, fam, st, pl, first):
    """The first check S(M) fails, of the lattice of `fam` starting at
    `first`, on its elements k (family indices), as InvariantViolated: a
    join not M's, a meet not (x·y)*⁺, a bottom not 0, a top not 1⁺; or
    None."""
    M = fam.lattices[fam.lat[first]]
    cell = fam.row[k][:, None] + k
    for what, got, want in (
            ("skeleton join is not the join of M", k[S._join], fam.join[cell]),
            ("skeleton meet is not (x·y)*⁺", k[S._meet], pl[st[fam.meet[cell]]])):
        bad = np.argwhere(got != want)
        if len(bad):
            i, j = bad[0]
            return InvariantViolated(what, (S.elements[i], S.elements[j]))
    if k[S._bot] != first + M._bot:
        return InvariantViolated("skeleton bottom is not 0", S.bottom)
    if k[S._top] != pl[first + M._top]:
        return InvariantViolated("skeleton top is not 1⁺", S.top)
    return None


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
        M = self.source
        carrier = self.system._members.carrier
        if set(carrier) != set(M.elements):
            return False
        _, R = _order_union(self.system, np.array([M._idx[a] for a in carrier]))
        return bool(R[tuple(M._cov_array.T)].all() and not (R & ~M._leq).any())


def decompose(M):
    """Split M into its maximal atomistic intervals [x, x*], x ∈ S(M),
    glued over the skeleton lattice: the family of one of
    `decompositions`."""
    return decompositions([M])[0]


def decompositions(Ms):
    """The decomposition of each lattice of `Ms`, in order, each stage run
    once over the whole family (`core._family`): one cover fold for a*
    and a⁺ (`_star_pluses`), one meet certificate per skeleton size
    (`_skeleton_lattices`), one cut of every block (`glue._sliced_blocks`)
    and one `glue.validations` pass.  Each system is validated and must be
    strictly monotone; a failure raises InvariantViolated.  A block's
    FiniteLattice is built only when `blocks[x]` is asked for.

    The error raised is the one that decomposing the lattices one at a
    time raises first, with `spec`, the index of its lattice: a stage
    raises for the first lattice it refuses, and since an earlier lattice
    may fail a later stage, the lattices before it are decomposed again
    and their error, if any, is raised instead."""
    Ms = list(Ms)
    if not Ms:
        return []
    try:
        return _decompositions(Ms)
    except LatticeError as e:
        first = e
    decompositions(Ms[:first.spec])
    raise first


def _decompositions(Ms):
    fam = _family(Ms)
    st, pl = _star_pluses(fam)
    Ss = _skeleton_lattices(fam, st, pl)
    sk, dsk = _fixed_points(st, pl)
    K = np.nonzero(sk)[0]  # S(M) of each M, in M's order
    # block [x, x*] of each x ∈ S(M)
    blocks = _sliced_blocks(fam, [S.elements for S in Ss], K, st[K])
    systems = [GluedSystem(S, b) for S, b in zip(Ss, blocks)]
    _check_decompositions(systems)
    D = np.nonzero(dsk)[0]
    cut = np.searchsorted(D, fam.start)
    return [SkeletonDecomposition(M, frozenset(S.elements), S, sys.blocks, sys,
                                  frozenset(M._ids[i] for i in (D[a:b] - first).tolist()))
            for M, S, sys, a, b, first in zip(Ms, Ss, systems, cut, cut[1:], fam.start)]


def _check_decompositions(systems):
    """A decomposition's system must satisfy the glue axioms and be
    strictly monotone.  InvariantViolated names the first violation of
    the first system that breaks the axioms, else the first nested cover
    of the first system that is not strictly monotone, with `spec`, the
    system's index."""
    for k, bad in enumerate(validations(systems)):
        if bad:
            raise _with_spec(InvariantViolated(
                "decomposition violates the glue axioms", bad[0]), k)
    for k, sys in enumerate(systems):
        nested = nested_cover(sys)
        if nested is not None:
            raise _with_spec(InvariantViolated(
                "decomposition is not strictly monotone", nested), k)


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
        S = skeleton_lattice(M)
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
