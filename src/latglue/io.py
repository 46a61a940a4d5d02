"""JSON wire formats and the DOT emitter.

Lattice: {"elements": [...], "covers": [["a","b"], ...]} with covers listed
lower-first.  Glued system: {"skeleton": <lattice>, "blocks": {x: <lattice>}}
where block element names share one carrier namespace and each block key is
the string form of its skeleton element (two skeleton elements with one
string form, such as 1 and "1", are refused by the reader and the writer
alike, the writer before it opens the file).  Connected system:
additionally {"maps": [{"from": x, "to": y, "pairs": [[a, b], ...]}]} and an
optional "local": true or false flag (a file with either key is one); block
elements are namespaced on load to enforce disjointness: each id of block x
becomes "<x>:<id>", with backslashes and colons in x escaped by a
backslash, unless every id of the block already begins so (a file `save`
wrote), so that distinct (block, id) pairs never share a name.  A
repeated JSON key, a map listed twice or a source named twice in one map
raises LatticeError rather than keeping the last, and so does a key outside
its object's format, a missing field, named in the error, or a value of
"elements", "covers", "maps" or "pairs" that is not a JSON array: nothing
is dropped or read as something else.
The blocks of a system are built in one batch; an error in reading or
building a block keeps its text behind the block's key ("block '3,4':
cover digraph contains a cycle"), and an error in a map's pairs names
the map.  A connected system's blocks are built, and its maps read,
under the file's ids, so that such an error names them, and then
namespaced.
`connect` is imported only to read or write a connected system.
"""

import json

from .core import FiniteLattice, LatticeError, _lattices
from .glue import GluedSystem, _check_block_keys


def lattice_to_dict(L):
    return {"elements": list(L.elements),
            "covers": [list(c) for c in L.covers]}


_LATTICE_KEYS = {"elements", "covers"}
_GLUED_KEYS = {"skeleton", "blocks"}
_CONNECTED_KEYS = _GLUED_KEYS | {"maps", "local"}
_MAP_KEYS = {"from", "to", "pairs"}


def _object(d, keys=None):
    """`d`, which must be a JSON object with no key outside `keys`."""
    if not isinstance(d, dict):
        raise LatticeError(f"expected a JSON object, got {type(d).__name__}")
    if keys is not None:
        extra = sorted(set(d) - keys)
        if extra:
            raise LatticeError(f"unknown key {extra[0]!r}; expected only "
                               f"{sorted(keys)}")
    return d


def _field(d, field, where=""):
    """The value of `field`; LatticeError naming it when it is missing."""
    if field not in d:
        raise LatticeError(f"{where}missing field {field!r}")
    return d[field]


def _array(d, field):
    """The value of `field`, which must be a JSON array."""
    value = _field(d, field)
    if not isinstance(value, list):
        raise LatticeError(f"{field!r} must be a JSON array, got "
                           f"{type(value).__name__}")
    return value


def _unique_keys(items):
    out = {}
    for k, v in items:
        if k in out:
            raise LatticeError(f"key {k!r} is repeated in one JSON object")
        out[k] = v
    return out


def _pairs(d, field):
    pairs = _array(d, field)
    for c in pairs:
        if not isinstance(c, (list, tuple)) or len(c) != 2:
            raise LatticeError(f"{c!r} is not a pair")
    return [tuple(c) for c in pairs]


def _spec(d):
    """The (elements, covers) of a lattice object."""
    d = _object(d, _LATTICE_KEYS)
    return _array(d, "elements"), _pairs(d, "covers")


def lattice_from_dict(d):
    return FiniteLattice(*_spec(d))


def _block_keys(S):
    """{key: x}, each skeleton element x under its block key `str(x)`, for
    writing and reading alike.  LatticeError when two skeleton elements
    share one string form (say 1 and "1"): a file can key only one block
    by it."""
    named = {}
    for x in S.elements:
        if named.setdefault(str(x), x) != x:
            raise LatticeError(f"skeleton elements {named[str(x)]!r} and "
                               f"{x!r} share the block key {str(x)!r}")
    return named


def glued_to_dict(sys):
    return {"skeleton": lattice_to_dict(sys.skeleton),
            "blocks": {k: lattice_to_dict(sys.blocks[x])
                       for k, x in _block_keys(sys.skeleton).items()}}


def _blocks(S, blocks, spec):
    """The blocks object as {x: lattice}, each key, a JSON string,
    resolved to the skeleton element x whose `str` it is, as
    `glued_to_dict` wrote it (a key that names none is kept for the key
    check).  Every block is built from spec(x, its object) in one batch
    (`core._lattices`); an error in reading or building a block is
    prefixed with its key."""
    named = _block_keys(S)
    keys = list(_object(blocks))
    try:
        lattices = _lattices(spec(named.get(k, k), b)
                             for k, b in blocks.items())
    except (LatticeError, KeyError, TypeError, ValueError) as e:
        e.args = (f"block {keys[e.spec]!r}: {e}",)
        raise
    return {named.get(k, k): L for k, L in zip(keys, lattices)}


def glued_from_dict(d):
    d = _object(d, _GLUED_KEYS)
    S = lattice_from_dict(_field(d, "skeleton"))
    return GluedSystem(S, _blocks(S, _field(d, "blocks"),
                                  lambda x, b: _spec(b)))


def connected_to_dict(cs, local=False):
    out = glued_to_dict(GluedSystem(cs.skeleton, cs.blocks))
    out["maps"] = [{"from": x, "to": y,
                    "pairs": sorted([a, b] for a, b in m.items())}
                   for (x, y), m in sorted(cs.maps.items(), key=str)]
    if local:
        out["local"] = True
    return out


def _string(a):
    """`a`, which must be a string: LatticeError otherwise."""
    if not isinstance(a, str):
        from .connect import _not_a_string
        raise _not_a_string(a)
    return a


class _Names(dict):
    """{id: carrier id} for the ids of one block: each id prefixed with
    the block's prefix, or, when every id already begins with it (as in a
    file that `save` wrote), the ids themselves.  Two distinct (block, id)
    pairs thus never share a carrier id."""

    def __init__(self, x, ids):
        from .connect import _prefix
        p = _prefix(x)
        ids = list(map(_string, ids))
        prefix = "" if ids and all(a.startswith(p) for a in ids) else p
        super().__init__((a, prefix + a) for a in ids)


def connected_from_dict(d):
    from .connect import ConnectedSystem, LocalConnectedSystem, _entries
    d = _object(d, _CONNECTED_KEYS)
    S = lattice_from_dict(_field(d, "skeleton"))
    names = {}

    def spec(x, b):
        elements, covers = _spec(b)
        names[x] = _Names(x, elements)
        for c in covers:
            for a in c:
                _string(a)
        return elements, covers

    # each block is built under the file's ids, and so are the maps, so
    # that an error names them; then both are renamed to carrier ids, the
    # blocks with their tables shared
    built = _blocks(S, _field(d, "blocks"), spec)
    blocks = {x: L._relabelled([names[x][a] for a in L.elements])
              for x, L in built.items()}
    maps = {}
    for m in _array(d, "maps") if "maps" in d else []:
        m = _object(m, _MAP_KEYS)
        x = _field(m, "from", "map: ")
        y = _field(m, "to", f"map from {x!r}: ")
        for z in (x, y):
            if z not in S:
                raise LatticeError(f"map endpoint {z!r} is not a skeleton element")
        if (x, y) in maps:
            raise LatticeError(f"map {x!r} -> {y!r} is listed twice")
        maps[(x, y)] = pairs = {}
        try:
            for a, b in _pairs(m, "pairs"):
                if _string(a) in pairs:
                    raise LatticeError(f"source {a!r} is listed twice")
                pairs[a] = _string(b)
        except LatticeError as e:
            raise LatticeError(f"map {x!r} -> {y!r}: {e}") from None
    local = d.get("local", False)
    if not isinstance(local, bool):
        raise LatticeError(f"'local' must be true or false, got {local!r}")
    # then, as the system would: a skeleton element without a block, and
    # the first map with an id its block lacks, sources before targets
    _check_block_keys(S, blocks)
    for (x, y), pairs in maps.items():
        _entries(built[x], pairs, x, y, x)
        _entries(built[y], pairs.values(), x, y, y)
    cls = LocalConnectedSystem if local else ConnectedSystem
    return cls(S, blocks, {(x, y): {names[x][a]: names[y][b]
                                    for a, b in pairs.items()}
                           for (x, y), pairs in maps.items()})


def load(path):
    """Load a lattice / glued / connected system file by shape."""
    with open(path) as f:
        d = _object(json.load(f, object_pairs_hook=_unique_keys))
    if "maps" in d or "local" in d:
        return connected_from_dict(d)
    if "skeleton" in d:
        return glued_from_dict(d)
    return lattice_from_dict(d)


def save(obj, path):
    """Write obj's JSON form; an object it cannot write raises before the
    file is opened."""
    d = to_dict(obj)
    with open(path, "w") as f:
        json.dump(d, f, indent=1, sort_keys=True)
        f.write("\n")


def to_dict(obj):
    if isinstance(obj, FiniteLattice):
        return lattice_to_dict(obj)
    if isinstance(obj, GluedSystem):
        return glued_to_dict(obj)
    from .connect import ConnectedSystem, LocalConnectedSystem
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
