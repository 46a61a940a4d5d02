"""Command-line front end: load/validate/construct/glue/decompose lattices,
run the acceptance suite, and emit DOT diagrams and JSON reports.

Exit codes: 0 when every requested check passes, 1 when a check is violated
(with a machine-readable violation object on stderr), 2 on malformed input.
"""

import argparse
import json
import sys

from . import constructions as fix
from . import io as lio
from .connect import ConnectedSystem, LocalConnectedSystem, connected_sum, \
    elevate, validate_connected
from .core import FiniteLattice, InvariantViolated, LatticeError, product
from .glue import GluedSystem, glued_sum, validate
from .predicates import NotModular, breadth, is_atomistic, is_distributive, \
    is_dual_semimodular, is_modular, is_n_distributive, is_semimodular, \
    is_simple
from .skeleton import decompose
from .suite import run_suite

PROPERTIES = {
    "modular": is_modular,
    "semimodular": is_semimodular,
    "dual-semimodular": is_dual_semimodular,
    "distributive": is_distributive,
    "atomistic": is_atomistic,
    "simple": is_simple,
    "breadth": breadth,
}


def _fail(kind, payload):
    print(json.dumps({"violation": kind, **payload}, default=str),
          file=sys.stderr)
    return 1


def _load(path, want=None):
    try:
        obj = lio.load(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            LatticeError) as e:
        print(json.dumps({"error": f"{type(e).__name__}: {e}", "file": path}),
              file=sys.stderr)
        raise SystemExit(2)
    if want is not None and not isinstance(obj, want):
        names = [t.__name__ for t in (want if isinstance(want, tuple)
                                      else (want,))]
        print(json.dumps({"error": f"expected {' or '.join(names)}",
                          "file": path}), file=sys.stderr)
        raise SystemExit(2)
    return obj


def _write_outputs(args, obj, dot_lattice=None, highlight=()):
    if getattr(args, "out", None):
        lio.save(obj, args.out)
    if getattr(args, "dot", None):
        L = dot_lattice if dot_lattice is not None else obj
        with open(args.dot, "w") as f:
            f.write(lio.to_dot(L, highlight))


def cmd_check(args):
    L = _load(args.file, FiniteLattice)
    code = 0
    for prop in args.property:
        if prop.startswith("n-distributive:"):
            n = int(prop.split(":", 1)[1])
            try:
                value = is_n_distributive(L, n)
            except NotModular:
                value = False
        else:
            if prop not in PROPERTIES:
                print(json.dumps({"error": f"unknown property {prop!r}"}),
                      file=sys.stderr)
                return 2
            value = PROPERTIES[prop](L)
        print(f"{prop}: {str(value).lower() if isinstance(value, bool) else value}")
        if value is False:
            code = _fail("property", {"property": prop, "file": args.file})
    return code


def cmd_glue(args):
    sys_ = _load(args.file, GluedSystem)
    bad = validate(sys_)
    if bad:
        return _fail("glue-axioms",
                     {"file": args.file,
                      "axioms": [{"axiom": v.axiom, "witness": v.witness}
                                 for v in bad]})
    L = glued_sum(sys_)
    print(f"valid glued system: {len(sys_.skeleton.elements)} blocks, "
          f"sum has {L.n} elements, length {L.length()}")
    _write_outputs(args, L)
    return 0


def cmd_connect(args):
    cs = _load(args.file, (ConnectedSystem, LocalConnectedSystem))
    try:
        if isinstance(cs, LocalConnectedSystem):
            cs = elevate(cs, exhaustive=True)
        bad = validate_connected(cs)
        if bad:
            return _fail("connect-conditions",
                         {"file": args.file,
                          "conditions": [{"condition": v.condition,
                                          "pair": v.pair,
                                          "witness": v.witness}
                                         for v in bad]})
        gsys, _ = connected_sum(cs)
    except LatticeError as e:
        return _fail("connect-conditions",
                     {"file": args.file, "detail": str(e)})
    L = glued_sum(gsys)
    print(f"valid connected system: quotient sum has {L.n} elements, "
          f"length {L.length()}")
    _write_outputs(args, gsys, dot_lattice=L)
    return 0


def cmd_skeleton(args):
    L = _load(args.file, FiniteLattice)
    try:
        dec = decompose(L)
    except (NotModular, InvariantViolated) as e:
        return _fail("skeleton", {"file": args.file, "detail": str(e)})
    sk = sorted(dec.skeleton_set, key=str)
    print(f"skeleton: {len(sk)} elements: {', '.join(map(str, sk))}")
    for x in dec.skeleton_lattice.elements:
        B = dec.blocks[x]
        print(f"  block [{x}, {B.top}]: {B.n} elements")
    ok = dec.reglues()
    print(f"roundtrip: {'OK' if ok else 'FAILED'}")
    _write_outputs(args, dec.system, dot_lattice=L, highlight=dec.skeleton_set)
    if not ok:
        return _fail("roundtrip", {"file": args.file})
    return 0


FIXTURES = {
    "chain": lambda n=3: fix.chain(int(n)),
    "boolean": lambda n=3: fix.boolean(int(n)),
    "m3": fix.m3,
    "n5": fix.n5,
    "m_k": lambda k=3: fix.m_k(int(k)),
    "grid": lambda p=2, q=2: fix.grid(int(p), int(q)),
    "fano": fix.fano_lattice,
    "fig_3by3": fix.fig_3by3_system,
    "note2_overlap": fix.note2_overlap_system,
    "note3": fix.note3_system,
    "unbounded": lambda n=3: fix.unbounded_family(int(n)),
    "hd_two_chains": fix.hd_two_chains,
    "hd_two_m3": fix.hd_two_m3,
    "hd_two_m3_edge": fix.hd_two_m3_edge,
    "m3_chain_of_three": fix.m3_chain_of_three,
    "m3_chain_edges": fix.m3_chain_edges,
    "nonexample_a1": fix.section1_nonexample_a1,
    "nonexample_a4": fix.section1_nonexample_a4,
    "distributive_over_b2": lambda: fix.distributive_with_skeleton(fix.boolean(2)),
    "square_over_m3": lambda: fix.square_sublattice(fix.m3()),
    "projective_local": lambda: fix.section4_example()["local_system"],
    "projective_glued": lambda: fix.section4_example()["glued_system"],
    "projective_sum": lambda: fix.section4_example()["sum"],
    "m3xc1": lambda: product(fix.m3(), fix.chain(1)),
}


def cmd_construct(args):
    if args.name not in FIXTURES:
        print(json.dumps({"error": f"unknown fixture {args.name!r}",
                          "known": sorted(FIXTURES)}), file=sys.stderr)
        return 2
    try:
        obj = FIXTURES[args.name](*args.params)
    except (TypeError, ValueError) as e:
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}),
              file=sys.stderr)
        return 2
    if args.out:
        lio.save(obj, args.out)
    else:
        print(json.dumps(lio.to_dict(obj), indent=1, sort_keys=True))
    if args.dot:
        L = obj if isinstance(obj, FiniteLattice) else glued_sum(obj) \
            if isinstance(obj, GluedSystem) else None
        if L is None:
            print(json.dumps({"error": "no lattice to draw for this fixture"}),
                  file=sys.stderr)
            return 2
        with open(args.dot, "w") as f:
            f.write(lio.to_dot(L))
    return 0


def cmd_suite(args):
    ok, results = run_suite(corpus_max=args.corpus_max)
    if not ok:
        return _fail("suite", {"failed": [{"criterion": name, "detail": d}
                                          for name, p, d, _ in results
                                          if not p]})
    return 0


def cmd_dot(args):
    obj = _load(args.file)
    L = obj if isinstance(obj, FiniteLattice) else glued_sum(obj) \
        if isinstance(obj, GluedSystem) else None
    if L is None:
        print(json.dumps({"error": "file does not describe a lattice or "
                          "glued system", "file": args.file}), file=sys.stderr)
        return 2
    text = lio.to_dot(L)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(prog="latglue", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="test properties of a lattice file")
    c.add_argument("file")
    c.add_argument("--property", action="append", required=True,
                   metavar="P", help="modular, semimodular, dual-semimodular,"
                   " distributive, atomistic, simple, breadth, or"
                   " n-distributive:N (repeatable)")
    c.set_defaults(fn=cmd_check)

    g = sub.add_parser("glue", help="validate and sum a glued-system file")
    g.add_argument("file")
    g.add_argument("--out")
    g.add_argument("--dot")
    g.set_defaults(fn=cmd_glue)

    n = sub.add_parser("connect", help="validate and quotient a connected-"
                       "system file")
    n.add_argument("file")
    n.add_argument("--out")
    n.add_argument("--dot")
    n.set_defaults(fn=cmd_connect)

    s = sub.add_parser("skeleton", help="decompose a modular lattice file")
    s.add_argument("file")
    s.add_argument("--out")
    s.add_argument("--dot")
    s.set_defaults(fn=cmd_skeleton)

    t = sub.add_parser("construct", help="emit a named fixture as JSON")
    t.add_argument("name")
    t.add_argument("params", nargs="*")
    t.add_argument("--out")
    t.add_argument("--dot")
    t.set_defaults(fn=cmd_construct)

    u = sub.add_parser("suite", help="run the full acceptance suite")
    u.add_argument("--corpus-max", type=int, default=6)
    u.set_defaults(fn=cmd_suite)

    d = sub.add_parser("dot", help="emit a DOT diagram for a file")
    d.add_argument("file")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_dot)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code


if __name__ == "__main__":
    sys.exit(main())
