"""Lattice homomorphisms and the gluing of per-block homomorphism families
over an S-glued system."""

from dataclasses import dataclass

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
    """The first pair whose join or meet h does not preserve, or None."""
    m = h.map
    for a in h.domain.elements:
        for b in h.domain.elements:
            if m[h.domain.join(a, b)] != h.codomain.join(m[a], m[b]):
                return a, b
            if m[h.domain.meet(a, b)] != h.codomain.meet(m[a], m[b]):
                return a, b
    return None


def is_injective(h):
    return len(set(h.map.values())) == len(h.map)


def check_star(sys, fam):
    """Condition (*): φ_x 0_x + φ_y 0_y = φ_{x∨y} 0_{x∨y} in the common
    codomain, together with the dual condition on the 1s."""
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


def glue_homs(sys, fam):
    """Union of a family φ_x: L_x → L' that agrees on cover overlaps.

    Requires the skeleton to be modular or the (*) condition to hold.
    The result is verified to be a homomorphism rather than assumed.
    """
    S = sys.skeleton
    for x, y in S.covers:
        for a in sys.block_set(x) & sys.block_set(y):
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
    must be join/meet-closed in the host with agreeing operations."""
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


def simplicity_transfer_check(sys):
    """Check that a glued sum of simple blocks is itself simple."""
    for x in sys.skeleton.elements:
        if not is_simple(sys.blocks[x]):
            raise LatticeError(f"block {x!r} is not simple")
    return is_simple(glued_sum(sys))
