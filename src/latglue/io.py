"""JSON wire formats and the DOT emitter.

Lattice: {"elements": [...], "covers": [["a","b"], ...]} with covers listed
lower-first.  Glued system: {"skeleton": <lattice>, "blocks": {x: <lattice>}}
where block element names share one carrier namespace.  Connected system:
additionally {"maps": [{"from": x, "to": y, "pairs": [[a, b], ...]}]} and an
optional "local": true flag; block elements are namespaced "<x>:<name>" on
load to enforce disjointness.
"""

import json

from .core import FiniteLattice, LatticeError
from .connect import ConnectedSystem, LocalConnectedSystem
from .glue import GluedSystem


def lattice_to_dict(L):
    return {"elements": list(L.elements),
            "covers": [list(c) for c in L.covers]}


def _object(d):
    if not isinstance(d, dict):
        raise LatticeError(f"expected a JSON object, got {type(d).__name__}")
    return d


def _pairs(pairs):
    for c in pairs:
        if not isinstance(c, (list, tuple)) or len(c) != 2:
            raise LatticeError(f"{c!r} is not a pair")
    return [tuple(c) for c in pairs]


def lattice_from_dict(d):
    return FiniteLattice(_object(d)["elements"], _pairs(d["covers"]))


def glued_to_dict(sys):
    return {"skeleton": lattice_to_dict(sys.skeleton),
            "blocks": {str(x): lattice_to_dict(sys.blocks[x])
                       for x in sys.skeleton.elements}}


def glued_from_dict(d):
    S = lattice_from_dict(d["skeleton"])
    return GluedSystem(S, {x: lattice_from_dict(b)
                           for x, b in _object(d["blocks"]).items()})


def connected_to_dict(cs, local=False):
    out = glued_to_dict(GluedSystem(cs.skeleton, cs.blocks))
    out["maps"] = [{"from": x, "to": y,
                    "pairs": sorted([a, b] for a, b in m.items())}
                   for (x, y), m in sorted(cs.maps.items(), key=str)]
    if local:
        out["local"] = True
    return out


def connected_from_dict(d):
    S = lattice_from_dict(d["skeleton"])

    def ns(x, a):
        if not isinstance(a, str):
            raise LatticeError(f"element id {a!r} of block {x!r} is not a string")
        return a if a.startswith(f"{x}:") else f"{x}:{a}"

    blocks = {}
    for x, b in _object(d["blocks"]).items():
        blocks[x] = FiniteLattice([ns(x, a) for a in b["elements"]],
                                  [(ns(x, a), ns(x, c)) for a, c in _pairs(b["covers"])])
    maps = {}
    for m in d.get("maps", []):
        x, y = m["from"], m["to"]
        maps[(x, y)] = {ns(x, a): ns(y, b) for a, b in _pairs(m["pairs"])}
    cls = LocalConnectedSystem if d.get("local") else ConnectedSystem
    return cls(S, blocks, maps)


def load(path):
    """Load a lattice / glued / connected system file by shape."""
    with open(path) as f:
        d = _object(json.load(f))
    if "maps" in d or d.get("local"):
        return connected_from_dict(d)
    if "skeleton" in d:
        return glued_from_dict(d)
    return lattice_from_dict(d)


def save(obj, path):
    with open(path, "w") as f:
        json.dump(to_dict(obj), f, indent=1, sort_keys=True)
        f.write("\n")


def to_dict(obj):
    if isinstance(obj, FiniteLattice):
        return lattice_to_dict(obj)
    if isinstance(obj, GluedSystem):
        return glued_to_dict(obj)
    if isinstance(obj, LocalConnectedSystem):
        return connected_to_dict(obj, local=True)
    if isinstance(obj, ConnectedSystem):
        return connected_to_dict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_dot(L, highlight=()):
    """DOT text: one node per element, one edge per cover, drawn upward."""
    highlight = set(highlight)
    lines = ["graph lattice {", "  rankdir=BT;"]
    for a in L.elements:
        style = ' style=filled fillcolor=lightblue' if a in highlight else ""
        lines.append(f'  "{a}"[{style.strip()}];' if style else f'  "{a}";')
    for a, b in L.covers:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
