"""Lattice homomorphisms and the gluing of per-block homomorphism families
over an S-glued system."""

from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, InvariantViolated, LatticeError
from .glue import glued_sum
from .predicates import is_modular, is_simple


class OverlapDisagreement(LatticeError):
    pass


class StarConditionFailed(LatticeError):
    pass


@dataclass(frozen=True, eq=False)
class LatticeHom:
    domain: FiniteLattice
    codomain: FiniteLattice
    map: dict


def is_homomorphism(h):
    m = h.map
    if set(m) != set(h.domain.elements):
        return False
    if not set(m.values()) <= set(h.codomain.elements):
        return False
    return _unpreserved_pair(h) is None


def _unpreserved_pair(h):
    """The first pair whose join or meet h does not preserve, or None:
    the codomain's tables at the images against the domain's renamed."""
    L, host = h.domain, h.codomain
    at = np.array([host.index(h.map[a]) for a in L.elements])
    bad = (host._join[np.ix_(at, at)] != at[L._join]) \
        | (host._meet[np.ix_(at, at)] != at[L._meet])
    if not bad.any():
        return None
    a, b = divmod(int(np.argmax(bad)), L.n)
    return L._ids[a], L._ids[b]


def is_injective(h):
    return len(set(h.map.values())) == len(h.map)


def check_star(sys, fam):
    """Condition (*): φ_x 0_x + φ_y 0_y = φ_{x∨y} 0_{x∨y} in the common
    codomain, together with the dual condition on the 1s, as tables of
    codomain indices."""
    S = sys.skeleton
    host = next(iter(fam.values())).codomain
    z = np.array([host.index(fam[x].map[sys.zero(x)]) for x in S.elements])
    o = np.array([host.index(fam[x].map[sys.one(x)]) for x in S.elements])
    return np.array_equal(host._join[np.ix_(z, z)], z[S._join]) \
        and np.array_equal(host._meet[np.ix_(o, o)], o[S._meet])


def glue_homs(sys, fam):
    """Union of a family φ_x: L_x → L' that agrees on cover overlaps.

    Requires the skeleton to be modular or the (*) condition to hold.
    The result is verified to be a homomorphism rather than assumed.
    """
    S, m = sys.skeleton, sys._members
    for x, y in S.covers:
        # shared elements in carrier order, so the witness is the first one
        for c in np.flatnonzero(m.B[S._idx[x]] & m.B[S._idx[y]]):
            a = m.carrier[c]
            if fam[x].map[a] != fam[y].map[a]:
                raise OverlapDisagreement((x, y, a))
    if not is_modular(S) and not check_star(sys, fam):
        raise StarConditionFailed("skeleton not modular and (*) fails")
    total = {}
    for x in S.elements:
        for a, v in fam[x].map.items():
            if total.get(a, v) != v:
                raise OverlapDisagreement(("non-cover overlap", a))
            total[a] = v
    host = next(iter(fam.values())).codomain
    h = LatticeHom(glued_sum(sys), host, total)
    # the sum's carrier is the union of the block domains, so only the
    # operations can fail
    bad = _unpreserved_pair(h)
    if bad is not None:
        raise InvariantViolated("glued map is not a homomorphism", bad)
    return h


def corollary_54_check(sys, host):
    """Blocks are sublattices of a host lattice; the glued sum's carrier
    must be join/meet-closed in the host with agreeing operations.

    Condition (*) for the inclusions is not tested apart, over any
    skeleton: once the carrier passes, the host's joins and meets on it
    are the sum's, and x ↦ 0_x preserves joins in the sum and x ↦ 1_x
    preserves meets, so (*) holds."""
    L = glued_sum(sys)
    inclusion = LatticeHom(L, host, dict(zip(L._ids, L._ids)))
    return _unpreserved_pair(inclusion) is None


def simplicity_transfer_check(sys):
    """Check that a glued sum of simple blocks is itself simple."""
    for x in sys.skeleton.elements:
        if not is_simple(sys.blocks[x]):
            raise LatticeError(f"block {x!r} is not simple")
    return is_simple(glued_sum(sys))
