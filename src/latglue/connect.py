"""S-connected systems: disjoint blocks linked by partial isomorphisms,
their quotient into an S-glued system, and locally S-connected systems
over modular skeletons with maps given only on skeleton covers."""

from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, InvariantViolated, LatticeError
from .glue import GluedSystem, _check_block_keys, _is_filter, _is_ideal, \
    _mask, validate as glue_validate
from .predicates import is_modular


class NotModularSkeleton(LatticeError):
    pass


class ChainDependence(InvariantViolated):
    """Maps do not compose along the order (19); the witness is the
    skeleton triple (x, z, y)."""


@dataclass(frozen=True)
class ConnectViolation:
    condition: str
    pair: tuple
    witness: object = None

    def __str__(self):
        return f"({self.condition}) at {self.pair}: {self.witness}"


@dataclass(frozen=True, eq=False)
class ConnectedSystem:
    skeleton: FiniteLattice
    blocks: dict  # skeleton element -> FiniteLattice, pairwise disjoint
    maps: dict    # (x, y) with x ≦ y -> dict; absent means empty

    def __post_init__(self):
        _check_block_keys(self.skeleton, self.blocks)

    def phi(self, x, y):
        """The partial map φ_yx from L_x toward L_y (empty when absent)."""
        if x == y:
            return {a: a for a in self.blocks[x].elements}
        return self.maps.get((x, y), {})

    def block_of(self, a):
        for x in self.skeleton.elements:
            if a in self.blocks[x]:
                return x
        raise LatticeError(f"{a!r} is in no block")


@dataclass(frozen=True, eq=False)
class LocalConnectedSystem:
    skeleton: FiniteLattice  # must be modular
    blocks: dict
    maps: dict  # (x, y) for skeleton covers x ≺ y only

    def __post_init__(self):
        _check_block_keys(self.skeleton, self.blocks)

    def phi(self, x, y):
        return self.maps.get((x, y), {})


def _check_disjoint(blocks):
    seen = {}
    for x, L in blocks.items():
        for a in L.elements:
            if a in seen:
                raise LatticeError(
                    f"blocks {seen[a]!r} and {x!r} share element {a!r}")
            seen[a] = x


def _iso_filter_to_ideal(Lx, Ly, m, cond, pair, out):
    dom = set(m)
    img = set(m.values())
    if len(img) != len(dom):
        out.append(ConnectViolation(cond, pair, "map is not injective"))
        return
    if not dom <= set(Lx.elements) or not img <= set(Ly.elements):
        out.append(ConnectViolation(cond, pair, "map leaves its blocks"))
        return
    if not _is_filter(Lx, _mask(Lx, dom)):
        out.append(ConnectViolation(cond, pair, "domain is not a filter"))
    if not _is_ideal(Ly, _mask(Ly, img)):
        out.append(ConnectViolation(cond, pair, "image is not an ideal"))
    for a in dom:
        for b in dom:
            if Lx.leq(a, b) != Ly.leq(m[a], m[b]):
                out.append(ConnectViolation(cond, pair, ("order mismatch", a, b)))
                return


def _compose(outer, inner):
    return {a: outer[b] for a, b in inner.items() if b in outer}


def validate_connected(cs):
    """Exhaustive check of the connection conditions: each map is an
    isomorphism of a filter onto an ideal (17), covers carry nonempty maps
    (18), maps compose along the order (19), and images/domains over joins
    and meets are compatible (20)/(20δ)."""
    _check_disjoint(cs.blocks)
    S = cs.skeleton
    out = []
    for x in S.elements:
        for y in S.elements:
            if x == y or not S.leq(x, y):
                if x != y and (x, y) in cs.maps and cs.maps[(x, y)]:
                    out.append(ConnectViolation("17", (x, y), "map on a non-comparable pair"))
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


def equivalent(cs, a, b):
    """a ~ b: the images of a and b at the join of their blocks coincide.

    Agreement with the meet-side criterion (preimages at the block meet)
    is checked, as the two are provably equivalent."""
    x, y = cs.block_of(a), cs.block_of(b)
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


def connected_sum(cs):
    """Quotient the disjoint union by the identifications the maps induce.

    Returns (GluedSystem over the same skeleton, {x: π_x}) where each π_x
    relabels L_x by class representatives.  Representatives come from the
    ≦-least block under a fixed linear extension of the skeleton order.
    """
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


def validate_local(lcs):
    """Check a locally S-connected system: modular skeleton, cover maps
    that are filter-to-ideal isomorphisms (22), and on every skeleton
    diamond the two compositions agree (23) with compatible images and
    domains (24)/(24δ)."""
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


def elevate(lcs):
    """Extend cover maps to all comparable pairs, going down the skeleton:
    φ(x, y) = φ(c, y) ∘ φ(x, c) for the first upper cover c of x below y.
    By induction on its length, every maximal chain x ≺ c1 ≺ … ≺ y then
    composes to φ(x, y) exactly when (19) holds, as validate_connected
    checks; a (19) violation raises ChainDependence."""
    bad = validate_local(lcs)
    if bad:
        raise LatticeError(f"invalid local system: {bad}")
    S = lcs.skeleton
    ids, up, leq = S._ids, S._up_adj, S._leq
    cs = ConnectedSystem(S, dict(lcs.blocks), {})
    for i in sorted(range(S.n), key=S._height.__getitem__, reverse=True):
        for j in np.flatnonzero(leq[i]):
            if j != i:
                c = next(k for k in up[i] if leq[k, j])
                m = _compose(cs.phi(ids[c], ids[j]), lcs.phi(ids[i], ids[c]))
                if m:
                    cs.maps[(ids[i], ids[j])] = m
    bad = validate_connected(cs)
    for v in bad:
        if v.condition == "19":
            raise ChainDependence("maps do not compose along the order (19)",
                                  v.pair)
    if bad:
        raise LatticeError(f"elevated system invalid: {bad}")
    return cs
