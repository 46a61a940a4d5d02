"""S-connected systems: disjoint blocks linked by partial isomorphisms,
their quotient into an S-glued system, locally S-connected systems over
modular skeletons with maps given only on skeleton covers, and the bridge
back (`local_system`): a glued system as the local system whose cover
maps are the identities on the overlaps.

Maps are dicts of element ids at the API edge.  Inside, the blocks are
taken in skeleton index order and the maps become one padded n×n×bmax int
tensor: phi[x, y, a] is the index in block y of the image of the a-th
element of block x, -1 where undefined, and phi[x, x] is the identity.
A system's blocks and maps are read-only, so its tensor, block tables,
disjointness check, verdict (`_violations`, the list its check returns)
and identification record (`Identification`) are built once per system;
`elevate` hands the local system's to the system it returns, whose maps
(`TensorMaps`) are read from the filled tensor.  elevate, connected_sum
and equivalent run only on a system whose verdict is empty, and prove
what they need from it instead of checking their results."""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import _BLOCK_CELLS, FiniteLattice, LatticeError, UnknownElement
from .glue import GluedSystem, _block_membership, _block_tables, \
    _by_height, _chain_failures, _check_block_keys, _compose, _fill, \
    _images, _iso_failures
from .predicates import is_modular


class NotModularSkeleton(LatticeError):
    pass


@dataclass(frozen=True)
class ConnectViolation:
    condition: str
    pair: tuple
    witness: object = None

    def __str__(self):
        return f"({self.condition}) at {self.pair}: {self.witness}"


@dataclass(frozen=True, eq=False)
class _System:
    """Blocks and maps are kept as read-only copies of the ones given, and
    the maps' phi tensor is built with them, which checks that every map
    runs between skeleton elements and sends elements of its source block
    to elements of its target block.  The block tables and the
    disjointness check are built once, when first needed."""
    skeleton: FiniteLattice
    blocks: dict  # skeleton element -> FiniteLattice, pairwise disjoint
    maps: dict    # (x, y) -> dict; absent means empty

    def __post_init__(self):
        _check_block_keys(self.skeleton, self.blocks)
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))
        phi, given = _map_tensor(self.skeleton, self._block_list, self.maps)
        phi.flags.writeable = False
        self.__dict__["_tensor"] = phi, given
        object.__setattr__(self, "maps", MappingProxyType(
            {k: MappingProxyType(dict(m)) for k, m in self.maps.items()}))

    @cached_property
    def _block_list(self):
        return [self.blocks[x] for x in self.skeleton._ids]

    @cached_property
    def _tables(self):
        return _block_tables(self._block_list)

    @cached_property
    def _disjoint(self):
        _check_disjoint(self.blocks)
        return True


class ConnectedSystem(_System):
    """Maps on pairs x < y."""

    _kind = "connected"

    @cached_property
    def _violations(self):
        """The system's one verdict, validate_connected's list: the maps
        are read-only, so it is computed once, and connected_sum and
        equivalent refuse the system unless it is empty."""
        return validate_connected(self)

    @cached_property
    def _identification(self):
        return _identification(self)  # built once: the maps are read-only

    def phi(self, x, y):
        """The partial map φ_yx from L_x toward L_y (empty when absent)."""
        if x == y:
            return {a: a for a in self.blocks[x].elements}
        return self.maps.get((x, y), {})

    def block_of(self, a):
        rec = self._identification
        return self.skeleton._ids[rec.owner.item(rec.position(a))]


class LocalConnectedSystem(_System):
    """Maps on skeleton covers x ≺ y only; the skeleton must be modular."""

    _kind = "local"

    @cached_property
    def _violations(self):
        """validate_local's list, computed once; elevate refuses the system
        unless it is empty."""
        return validate_local(self)

    def phi(self, x, y):
        return self.maps.get((x, y), {})


def _valid(cs):
    """Refuse a system its check does not accept: LatticeError naming the
    kind of system and listing the violations."""
    if cs._violations:
        raise LatticeError(f"invalid {cs._kind} system: {cs._violations}")


class TensorMaps(Mapping):
    """The maps of an elevated system, read from its phi tensor: a
    read-only mapping keyed by the pairs x ≠ y with a nonempty map, that
    builds a pair's dict of element ids only when it is asked for, once.
    Pairs come in the order elevate fills them: x by descending height
    (ties in skeleton order), then y in skeleton order."""

    def __init__(self, S, blocks, phi, given):
        self._S, self._blocks, self._phi, self._given = S, blocks, phi, given
        self._built = {}

    def _index(self, key):
        try:
            x, y = key
            i, j = self._S._idx[x], self._S._idx[y]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if not self._given[i, j]:
            raise KeyError(key)
        return i, j

    def _pair_dict(self, i, j):
        a = np.flatnonzero(self._phi[i, j] >= 0)
        src, dst = self._blocks[i]._ids, self._blocks[j]._ids
        return MappingProxyType({src[k]: dst[c] for k, c in
                                 zip(a.tolist(), self._phi[i, j, a].tolist())})

    def __getitem__(self, key):
        if key not in self._built:
            self._built[key] = self._pair_dict(*self._index(key))
        return self._built[key]

    def __contains__(self, key):
        try:
            self._index(key)
        except KeyError:
            return False
        return True

    @cached_property
    def _pairs(self):
        ids = self._S._ids
        rows = _by_height(self._S)
        x, y = np.nonzero(self._given[rows])
        return tuple((ids[i], ids[j]) for i, j in zip(rows[x], y))

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self):
        return len(self._pairs)

    def __repr__(self):
        return f"TensorMaps({len(self)} maps)"


def _check_disjoint(blocks):
    seen = {}
    for x, L in blocks.items():
        for a in L.elements:
            if a in seen:
                raise LatticeError(
                    f"blocks {seen[a]!r} and {x!r} share element {a!r}")
            seen[a] = x


# -- index space --------------------------------------------------------------

def _map_tensor(S, blocks, maps):
    """The maps as the phi tensor, and `given`, the n×n matrix of pairs
    that carry a nonempty map.  Maps on diagonal pairs are not stored.
    UnknownElement for the first map, in `maps` order, with an end that
    is not a skeleton element or an entry outside its block."""
    n, b = S.n, max(L.n for L in blocks)
    phi = np.full((n, n, b), -1, dtype=np.intp)
    k = np.arange(b)
    phi[np.arange(n), np.arange(n)] = np.where(
        k < np.array([L.n for L in blocks])[:, None], k, -1)
    given = np.zeros((n, n), dtype=bool)
    cells, values = [], []
    for (x, y), m in maps.items():
        for z in (x, y):
            if z not in S._idx:
                raise UnknownElement(
                    f"map {x!r} -> {y!r}: {z!r} is not a skeleton element")
        i, j = S._idx[x], S._idx[y]
        src = _entries(blocks[i], m.keys(), x, y, x)
        dst = _entries(blocks[j], m.values(), x, y, y)
        given[i, j] = bool(m)
        if i != j:
            base = (i * n + j) * b
            cells += [base + a for a in src]
            values += dst
    phi.reshape(-1)[cells] = values
    return phi, given


def _entries(L, side, x, y, z):
    """The indices in block L (of skeleton element z) of one side of the
    map x -> y."""
    try:
        return [L._idx[a] for a in side]
    except KeyError as e:
        raise UnknownElement(f"map {x!r} -> {y!r}: {e.args[0]!r} is not an "
                             f"element of block {z!r}") from None


def _iso_violations(cond, pair, flags, Lx, Ly, m):
    """The (17)/(22) violations of one map, in the order they are checked:
    a map that is not injective is reported for that alone."""
    if flags[0]:
        return [ConnectViolation(cond, pair, "map is not injective")]
    out = []
    if flags[1]:
        out.append(ConnectViolation(cond, pair, "domain is not a filter"))
    if flags[2]:
        out.append(ConnectViolation(cond, pair, "image is not an ideal"))
    if flags[3]:
        keys = list(m)
        src = [Lx._idx[a] for a in keys]
        dst = [Ly._idx[c] for c in m.values()]
        bad = Lx._leq[np.ix_(src, src)] != Ly._leq[np.ix_(dst, dst)]
        a, c = divmod(int(np.argmax(bad)), len(keys))
        out.append(ConnectViolation(cond, pair,
                                    ("order mismatch", keys[a], keys[c])))
    return out


def _cover_matrix(S):
    cov = np.zeros((S.n, S.n), dtype=bool)
    cov[tuple(S._cov_array.T)] = True
    return cov


def _inclusion_failures(xj, yj, wj, wx, wy, b):
    """The two three-set inclusions of (20)/(20δ), for rows of index maps
    of pairs x, y with w = x∧y and j = x∨y (xj is φ(x, j), and so on):
    True where im xj ∩ im yj ⊄ im wj, and where dom wx ∩ dom wy ⊄ dom wj.
    (24)/(24δ) are the same with wj the composition xj ∘ wx."""
    img = _images(np.concatenate([xj, yj, wj]), b).reshape(3, len(xj), b)
    return ((img[0] & img[1] & ~img[2]).any(1),
            ((wx >= 0) & (wy >= 0) & (wj < 0)).any(1))


def _glue_failures(S, phi):
    """(20) and (20δ) for every pair (x, y): with j = x∨y and w = x∧y,
    im φ(x, j) ∩ im φ(y, j) ⊆ im φ(w, j) and dom φ(w, x) ∩ dom φ(w, y) ⊆
    dom φ(w, j).  For x ≦ y, j = y and w = x, so both read A ∩ B ⊆ A and
    hold for any tensor; and both are symmetric in x and y.  So only the
    incomparable pairs x < y (in index order) are looked at, their five
    maps gathered in chunks of pairs, and the result is mirrored."""
    n, b = S.n, phi.shape[2]
    rows = phi.reshape(n * n, b)
    X, Y = np.nonzero(np.triu(~(S._leq | S._leq.T)))
    f20 = np.zeros((n, n), dtype=bool)
    f20d = np.zeros((n, n), dtype=bool)
    step = max(1, _BLOCK_CELLS // b)
    for s in range(0, len(X), step):
        x, y = X[s:s + step], Y[s:s + step]
        j, w = S._join[x, y], S._meet[x, y]
        # φ(x, j), φ(y, j), φ(w, j), φ(w, x), φ(w, y)
        f = rows.take(np.concatenate([x, y, w, w, w]) * n
                      + np.concatenate([j, j, j, x, y]), axis=0) \
            .reshape(5, len(x), b)
        f20[x, y], f20d[x, y] = _inclusion_failures(*f, b)
    return f20 | f20.T, f20d | f20d.T


def validate_connected(cs):
    """Exhaustive check of the connection conditions: each map is an
    isomorphism of a filter onto an ideal (17), covers carry nonempty maps
    (18), maps compose along the order (19), and images/domains over joins
    and meets are compatible (20)/(20δ).  A map on a diagonal or
    non-comparable pair violates (17).  Violations come in (x, y) index
    order, then (20)/(20δ) in the same order."""
    cs._disjoint  # LatticeError unless the blocks are disjoint
    S = cs.skeleton
    ids, n = S._ids, S.n
    blocks = cs._block_list
    phi, given = cs._tensor
    lt = S._leq & ~np.eye(n, dtype=bool)
    count = (phi >= 0).sum(2)
    stray = given & ~lt
    X, Y = np.nonzero(lt & (count > 0))
    iso = np.zeros((4, n, n), dtype=bool)
    iso[:, X, Y] = _iso_failures(cs._tables, X, Y, phi[X, Y])
    f18 = _cover_matrix(S) & (count == 0)
    f19 = _chain_failures(S, phi)
    flagged = stray | iso.any(0) | f18
    for x, y in f19:
        flagged[x, y] = True
    out = []
    for x, y in zip(*np.nonzero(flagged)):
        pair = (ids[x], ids[y])
        if stray[x, y]:
            out.append(ConnectViolation("17", pair, "map on a diagonal pair"
                                        if x == y else
                                        "map on a non-comparable pair"))
            continue
        if iso[:, x, y].any():
            out += _iso_violations("17", pair, iso[:, x, y], blocks[x],
                                   blocks[y], cs.maps[pair])
        if f18[x, y]:
            out.append(ConnectViolation("18", pair, "empty map on a cover"))
        out += [ConnectViolation("19", (ids[x], ids[z], ids[y]))
                for z in f19.get((x, y), ())]
    f20, f20d = _glue_failures(S, phi)
    for x, y in zip(*np.nonzero(f20 | f20d)):
        if f20[x, y]:
            out.append(ConnectViolation("20", (ids[x], ids[y])))
        if f20d[x, y]:
            out.append(ConnectViolation("20d", (ids[x], ids[y])))
    return out


class Identification(NamedTuple):
    """A connected system's carrier in indices, built once from its phi
    tensor.  The carrier is the blocks concatenated in skeleton order, as
    connected_sum numbers it; `index` maps an id to its carrier index and
    owner[g] is the skeleton index of g's block.  img[g, z] is the carrier
    index of g's image in block z and pre[g, z] that of its preimage there
    (the last in block order, should a map not be injective), -1 where
    undefined; both are g itself in g's own block."""
    carrier: tuple
    index: dict
    owner: np.ndarray
    img: np.ndarray
    pre: np.ndarray

    def position(self, a):
        if a not in self.index:
            raise UnknownElement(f"{a!r} is in no block")
        return self.index[a]


def _identification(cs):
    """The identification record of cs, from its phi tensor."""
    S = cs.skeleton
    phi = cs._tensor[0]
    n, b = phi.shape[1:]
    size = [cs.blocks[x].n for x in S._ids]
    start = np.concatenate(([0], np.cumsum(size))).astype(np.intp)
    owner = np.repeat(np.arange(S.n), size)
    f = phi[owner, :, np.arange(start[-1]) - start[owner]]
    img = np.where(f >= 0, start[:-1] + f, -1)
    pre = np.full_like(img, -1)
    # block x's a-th element goes to block y; the flat scan keeps the C
    # order of a nonzero on 3 axes, so a later a overwrites an earlier one
    cell = np.flatnonzero(phi >= 0)
    x, y, a = cell // (n * b), cell // b % n, cell % b
    pre[start[y] + phi.reshape(-1)[cell], x] = start[x] + a
    carrier = tuple(a for x in S._ids for a in cs.blocks[x].elements)
    return Identification(carrier, {a: g for g, a in enumerate(carrier)},
                          owner, img, pre)


def _joined(rec, join, g, h):
    """Criterion (ii) for carrier indices g and h (broadcast): the image
    of g at z, the skeleton join of the blocks of g and h, is defined and
    is h's image there."""
    z = join[rec.owner[g], rec.owner[h]]
    mine = rec.img[g, z]
    return (mine >= 0) & (mine == rec.img[h, z])


def equivalent(cs, a, b):
    """a ~ b: the images of a and b at the join of their blocks coincide,
    a lookup in the system's identification record.

    Only a system its check accepts is asked (LatticeError "invalid
    connected system: [...]" otherwise).  On such a system this join-side
    criterion and the meet-side one, a common preimage at the meet of the
    blocks, agree on every pair: `connected_sum`'s docstring proves it
    from (17)–(20δ), so they are not compared here."""
    _valid(cs)
    rec = cs._identification
    return bool(_joined(rec, cs.skeleton._join, rec.position(a),
                        rec.position(b)))


def _relation(cs):
    """`equivalent` on every pair of the carrier, as an N×N matrix in
    carrier order, on any system: criterion 9 reads it on the systems it
    is checking, next to the criteria it computes apart."""
    rec = cs._identification
    g = np.arange(len(rec.carrier))
    return _joined(rec, cs.skeleton._join, g[:, None], g[None, :])


def _components(n, u, v):
    """Connected components of the graph on range(n) with edges (u, v):
    each vertex is labelled with the least vertex of its component.
    Roots hook under the least root they share an edge with, then every
    vertex jumps to its root, until no edge joins two roots."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        if (lu == lv).all():
            return label
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def connected_sum(cs):
    """Quotient the disjoint union by the identifications the maps induce.

    Returns (GluedSystem over the same skeleton, {x: π_x}) where each π_x
    relabels L_x by class representatives: each class is named by its
    element in the least block it meets, which is the block of least
    height it meets.  Elements are numbered globally, block after block in
    skeleton order.

    Only a system its check accepts is quotiented (LatticeError "invalid
    connected system: [...]" otherwise).  The quotient of such a system is
    an S-glued system and no π_x collapses its block; both follow from
    (17)–(20δ) and are not checked here (`oracle_connected_sum` in the
    tests checks both).  For a ∈ L_x and b ∈ L_y, with j = x∨y and
    w = x∧y, let (ii) say φ(x, j)(a) = φ(y, j)(b), and (iv) that some
    p ∈ L_w has φ(w, x)(p) = a and φ(w, y)(p) = b.  (19) reads
    φ(u, v) = φ(t, v) ∘ φ(u, t) for u ≦ t ≦ v, as partial maps.
    - (ii) ⇔ (iv).  For x ≦ y both say φ(x, y)(a) = b.  For incomparable
      x and y: given (iv), (20δ) puts p in dom φ(w, j), and (19) gives
      φ(x, j)(a) = φ(w, j)(p) = φ(y, j)(b).  Given (ii), (20) puts
      c = φ(x, j)(a) in im φ(w, j), say c = φ(w, j)(p).  By (19)
      φ(x, j)(φ(w, x)(p)) = c, and φ(x, j) is injective (17), so
      φ(w, x)(p) = a; likewise φ(w, y)(p) = b.
    - The classes are the (ii)-classes.  (17) refuses maps on diagonal
      and incomparable pairs, so the edges are a — φ(x, y)(a) for x < y,
      the tensor's cells off its diagonal, and each is a (ii) pair.  (ii)
      is reflexive and symmetric, and a step along an edge keeps it, so a
      path does.  Up: let a (ii) b, b ∈ L_y, y < y′, b′ = φ(y, y′)(b),
      j′ = x∨y′ and m = j∧y′, so y ≦ m and j∨y′ = j′.  b lies in
      dom φ(y, j) ∩ dom φ(y, y′), so by (19) φ(y, m)(b) lies in
      dom φ(m, j) ∩ dom φ(m, y′), and so in dom φ(m, j′) by (20δ) on the
      pair (j, y′).  By (19) again φ(x, j′)(a) = φ(y, j′)(b) =
      φ(y′, j′)(b′).  Down is the dual, through (iv), (20) and
      injectivity.
    - A class meets a block once: a (ii) a′ in one L_x says a = a′.  And
      the blocks a class meets are closed under meets by (iv), so it has
      a least one, below every other and so lower than each.
    - The quotient's axioms.  For x < y the overlap is the classes of
      dom φ(x, y), and the identity on it, in block indices, is φ(x, y):
      (A1)/(A2) are (17) on that map, the kernel glue.validate runs, and
      (A3) is (18).  For incomparable x and y a shared class holds some
      a (ii) b, a ∈ L_x and b ∈ L_y, so by (iv) and (ii) it meets L_w and
      L_j: (A4).  The blocks keep the connected system's tables, each its
      order's, so their joins and meets agree on the overlaps (the last
      fact proved in glue.validate's docstring)."""
    _valid(cs)
    S = cs.skeleton
    ids, n = S._ids, S.n
    blocks = cs._block_list
    size = [L.n for L in blocks]
    offset = np.concatenate(([0], np.cumsum(size))).astype(np.intp)
    N = offset[-1]
    phi = cs._tensor[0]
    b = phi.shape[2]
    cell = np.flatnonzero(phi >= 0)  # far faster than a nonzero on 3 axes
    xs, ys = cell // (n * b), cell // b % n
    off = xs != ys
    cell, xs, ys = cell[off], xs[off], ys[off]
    root = _components(N, offset[xs] + cell % b,
                       offset[ys] + phi.reshape(-1)[cell])
    height = np.repeat(S._height, size)
    least = np.full(N, n)
    np.minimum.at(least, root, height)
    first = height == least[root]  # one element of each class
    rep = np.zeros(N, dtype=np.intp)
    rep[root[first]] = np.flatnonzero(first)
    elements = [a for L in blocks for a in L.elements]
    name = [elements[g] for g in rep[root]]

    # π_x is injective, so each quotient block is L_x renamed
    pis, quotient = {}, {}
    for i, x in enumerate(ids):
        L = blocks[i]
        pis[x] = dict(zip(L.elements, name[offset[i]:offset[i + 1]]))
        quotient[x] = L._relabelled(name[offset[i]:offset[i + 1]])
    sys = GluedSystem(S, quotient)
    # its membership record: the classes, each first met at its least
    # element (the root), are the carrier in order of their roots; π_x
    # only renames, so the blocks' tables are the ones the kernels read
    roots, rows = np.unique(root, return_inverse=True)
    sys.__dict__["_members"] = _block_membership(
        [quotient[x] for x in ids], cs._tables, tuple(name[r] for r in roots),
        rows)
    return sys, pis


def validate_local(lcs):
    """Check a locally S-connected system: modular skeleton, cover maps
    that are filter-to-ideal isomorphisms (22), and on every skeleton
    diamond the two compositions agree (23) with compatible images and
    domains (24)/(24δ)."""
    if not is_modular(lcs.skeleton):
        raise NotModularSkeleton("locally connected systems require a modular skeleton")
    lcs._disjoint  # LatticeError unless the blocks are disjoint
    S = lcs.skeleton
    ids = S._ids
    blocks = lcs._block_list
    phi = lcs._tensor[0]
    b = phi.shape[2]
    cov = S._cov_array
    X, Y = cov[:, 0], cov[:, 1]
    f = phi[X, Y]
    empty = (f < 0).all(1)
    iso = np.zeros((4, len(f)), dtype=bool)
    iso[:, ~empty] = _iso_failures(lcs._tables, X[~empty], Y[~empty],
                                   f[~empty])
    out = []
    for k in np.flatnonzero(empty | iso.any(0)):
        x, y = cov[k]
        pair = (ids[x], ids[y])
        if empty[k]:
            out.append(ConnectViolation("22", pair, "empty cover map"))
        else:
            out += _iso_violations("22", pair, iso[:, k], blocks[x],
                                   blocks[y], lcs.maps[pair])
    is_cover = _cover_matrix(S)
    keys = list(lcs.maps)
    at = np.array([S._idx[z] for key in keys for z in key],
                  dtype=np.intp).reshape(-1, 2)
    out += [ConnectViolation("22", keys[k], "map on a non-cover pair")
            for k in np.flatnonzero(~is_cover[at[:, 0], at[:, 1]])]
    # diamonds w ≺ x, y ≺ j with w = x∧y and j = x∨y (so x ≠ y)
    r, c = np.arange(S.n)[:, None], np.arange(S.n)[None, :]
    W, J = S._meet, S._join
    diamond = is_cover[W, r] & is_cover[W, c] & is_cover[r, J] & is_cover[c, J]
    x, y = np.nonzero(diamond)
    w, j = W[x, y], J[x, y]
    via_x = _compose(lambda a: phi[x[:, None], j[:, None], a], phi[w, x])
    via_y = _compose(lambda a: phi[y[:, None], j[:, None], a], phi[w, y])
    f23 = (via_x != via_y).any(1)
    f24, f24d = _inclusion_failures(phi[x, j], phi[y, j], via_x, phi[w, x],
                                    phi[w, y], b)
    for k in np.flatnonzero(f23 | f24 | f24d):
        quad = (ids[w[k]], ids[x[k]], ids[y[k]], ids[j[k]])
        if f23[k]:
            out.append(ConnectViolation("23", quad))
            continue
        if f24[k]:
            out.append(ConnectViolation("24", quad))
        if f24d[k]:
            out.append(ConnectViolation("24d", quad))
    return out


def elevate(lcs):
    """Extend cover maps to all comparable pairs, going down the skeleton
    one height at a time: φ(x, y) = φ(c, y) ∘ φ(x, c) for the first upper
    cover c of x below y.

    Only validate_local is run (the system's `_violations`).  The system
    returned satisfies (17)–(20δ) without a second check, so its verdict
    is preset to empty, since each follows from a modular skeleton and
    (22)–(24δ):
    - (17)/(18): the fill leaves the cover maps as they are, so on covers
      both are (22).  If f is an isomorphism of a filter of L_x onto ↓i
      in L_c, and g one of ↑e in L_c onto an ideal of L_y, then g ∘ f is
      empty or an isomorphism of ↑f⁻¹(e) onto ↓g(i).  By induction on
      descending height of x, every filled map is one.
    - (19): φ(x, y) composes the cover maps along one maximal chain of
      [x, y].  In a modular lattice any two maximal chains of [x, y] are
      joined by swaps across diamonds u ≺ c, c′ ≺ c ∨ c′, where (23)
      makes both sides compose alike.  So every maximal chain composes
      to φ(x, y), and one through z gives φ(x, y) = φ(z, y) ∘ φ(x, z).
    - (20)/(20δ), for incomparable x and y with w = x ∧ y, j = x ∨ y:
      by induction on h(x) + h(y) − 2h(w).  If x and y both cover w,
      [w, j] is a diamond and they are (24)/(24δ), by (19).  Otherwise
      say h(x) > h(w) + 1.
      For (20), take w ≤ x₁ ≺ x and j₁ = x₁ ∨ y.  By modularity
      x ∧ j₁ = x₁ and j₁ ≺ j.  Let a be an image of both φ(x, j) and
      φ(y, j) = φ(j₁, j) ∘ φ(y, j₁), so of φ(j₁, j) too.  The pair
      (x, j₁), with meet x₁ and join j, puts a in
      im φ(x₁, j) = im φ(j₁, j) ∘ φ(x₁, j₁).  As φ(j₁, j) is injective,
      a's preimage in L_j₁ lies in im φ(x₁, j₁) ∩ im φ(y, j₁), so in
      im φ(w, j₁) by the pair (x₁, y), and a lies in im φ(w, j).
      For (20δ), dually, take w ≺ w₁ ≤ x and k = w₁ ∨ y, so x ∧ k = w₁
      and x ∨ k = j.  Let e be in the domains of φ(w, x) and φ(w, y).
      It is in that of φ(w, w₁), so of φ(w, k) by the pair (w₁, y).
      Then φ(w, w₁)(e) is in the domains of φ(w₁, x) and φ(w₁, k), so of
      φ(w₁, j) by the pair (x, k), and e is in that of φ(w, j)."""
    _valid(lcs)
    S = lcs.skeleton
    phi = lcs._tensor[0].copy()
    _fill(S, phi)
    given = (phi >= 0).any(2)
    np.fill_diagonal(given, False)
    phi.flags.writeable = False
    # the local system's blocks, tables and disjointness check are handed
    # over with the filled tensor, and its verdict is the proof's; a map's
    # dict is built when asked for
    cs = object.__new__(ConnectedSystem)
    cs.__dict__.update(
        skeleton=S, blocks=lcs.blocks, _tensor=(phi, given),
        maps=TensorMaps(S, lcs._block_list, phi, given),
        _block_list=lcs._block_list, _tables=lcs._tables,
        _disjoint=lcs._disjoint, _violations=[])
    return cs


# -- from glued to connected --------------------------------------------------

def _prefix(x):
    """The prefix of block x's carrier ids: its key, with backslashes and
    colons escaped by a backslash, then a colon.  The first unescaped
    colon ends it, so no block's prefix begins another's."""
    return str(x).replace("\\", "\\\\").replace(":", "\\:") + ":"


def _not_a_string(a):
    return LatticeError(f"element id {a!r} is not a string")


def local_system(sys):
    """The locally connected system of a glued system: an S-glued system
    is an S-connected one whose maps are identities on the overlaps.

    Returns (lcs, names).  Block L_x is copied under the ids
    `_prefix(x) + a`, the rule by which `io` namespaces a file's blocks,
    so two distinct (block, id) pairs never share a copy; names[x] maps
    each id of L_x to its copy.  Each copy is L_x relabelled, its tables
    shared.  On each skeleton cover x ≺ y, in `S.covers` order, the map
    sends the copy in L_x of each a ∈ L_x ∩ L_y, in carrier order, to its
    copy in L_y.  So connected_sum(elevate(lcs)), renamed back by names,
    is glued_sum(sys) for a valid sys over a modular skeleton (the tests
    check this)."""
    S, m = sys.skeleton, sys._members
    names, blocks = {}, {}
    for x in S.elements:
        L = sys.blocks[x]
        for a in L.elements:
            if not isinstance(a, str):
                raise _not_a_string(a)
        p = _prefix(x)
        copies = [p + a for a in L.elements]
        names[x] = dict(zip(L.elements, copies))
        blocks[x] = L._relabelled(copies)
    maps = {}
    for x, y in S.covers:
        i, j = S._idx[x], S._idx[y]
        shared = [m.carrier[c] for c in np.flatnonzero(m.B[i] & m.B[j])]
        maps[(x, y)] = {names[x][a]: names[y][a] for a in shared}
    lcs = LocalConnectedSystem(S, blocks, maps)
    lcs.__dict__["_tables"] = m.leq, m.join, m.meet  # relabelling keeps them
    return lcs, names
