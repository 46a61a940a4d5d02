"""Command-line front end: load/validate/construct/glue/decompose lattices,
run the acceptance suite, and emit DOT diagrams and JSON reports.

Exit codes: 0 when every requested check passes, 1 when a check is violated
(with a machine-readable violation object on stderr), 2 on malformed input,
141 when the reader of stdout closes it before the output is written (the
code a shell reports for SIGPIPE), with nothing on stderr.

Each command loads the modules it runs: `check`, `glue`, `skeleton` and
`dot` run on what importing this module loads (`core`, `io`, `glue`,
`predicates`, `skeleton`); `connect` adds `connect`, and `suite` and
`construct` add `suite`, `constructions`, `hom` and `connect`.
"""

import argparse
import functools
import json
import os
import sys

from . import io as lio
from .core import FiniteLattice, InvariantViolated, LatticeError, product
from .glue import GluedSystem, NotALattice, glued_sum, validate
from .predicates import NotModular, breadth, is_atomistic, is_distributive, \
    is_dual_semimodular, is_modular, is_n_distributive, is_semimodular, \
    is_simple
from .skeleton import decompose

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


def _error(message, **context):
    print(json.dumps({"error": message, **context}), file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    """A usage error exits 2 like malformed input: the usage, then a JSON
    error as the last line on stderr.  Subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_error(f"{self.prog}: {message}"))


def _load(path, want=None):
    try:
        obj = lio.load(path)
    except (OSError, UnicodeDecodeError, RecursionError,
            json.JSONDecodeError, KeyError, TypeError, LatticeError) as e:
        raise SystemExit(_error(f"{type(e).__name__}: {e}", file=path))
    if want is not None and not isinstance(obj, want):
        names = [t.__name__ for t in (want if isinstance(want, tuple)
                                      else (want,))]
        raise SystemExit(_error(f"expected {' or '.join(names)}", file=path))
    return obj


def _write_outputs(out=None, obj=None, dot=None, lattice=None, highlight=()):
    """Write `obj` as JSON to the path `out`, then `lattice` as DOT to the
    path `dot`, each when its path is given.  An object the writer refuses
    (before it opens the file) or a path that cannot be written exits 2
    with a JSON error naming the path."""
    path = out
    try:
        if out:
            lio.save(obj, out)
        path = dot
        if dot:
            with open(dot, "w") as f:
                f.write(lio.to_dot(lattice, highlight))
    except (OSError, LatticeError) as e:
        raise SystemExit(_error(f"{type(e).__name__}: {e}", file=path))


def cmd_check(args):
    L = _load(args.file, FiniteLattice)
    code = 0
    for prop in args.property:
        if prop.startswith("n-distributive:"):
            arg = prop.split(":", 1)[1]
            try:
                n = int(arg)
            except ValueError:
                n = None
            if n is None or n < 1:
                return _error(f"n-distributive needs an integer n >= 1, "
                              f"got {arg!r}")
            try:
                value = is_n_distributive(L, n)
            except NotModular:
                value = False
        else:
            if prop not in PROPERTIES:
                return _error(f"unknown property {prop!r}")
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
    _write_outputs(args.out, L, args.dot, L)
    return 0


def cmd_connect(args):
    from .connect import ConnectedSystem, LocalConnectedSystem, \
        connected_sum, elevate
    cs = _load(args.file, (ConnectedSystem, LocalConnectedSystem))
    try:
        if isinstance(cs, LocalConnectedSystem):
            cs = elevate(cs)
        elif cs._violations:  # the verdict connected_sum reads too
            return _fail("connect-conditions",
                         {"file": args.file,
                          "conditions": [{"condition": v.condition,
                                          "pair": v.pair,
                                          "witness": v.witness}
                                         for v in cs._violations]})
        gsys, _ = connected_sum(cs)
    except LatticeError as e:
        return _fail("connect-conditions",
                     {"file": args.file, "detail": str(e)})
    L = glued_sum(gsys)
    print(f"valid connected system: quotient sum has {L.n} elements, "
          f"length {L.length()}")
    _write_outputs(args.out, gsys, args.dot, L)
    return 0


def cmd_skeleton(args):
    L = _load(args.file, FiniteLattice)
    try:
        dec = decompose(L)
    except (NotModular, InvariantViolated) as e:
        return _fail("skeleton", {"file": args.file, "detail": str(e)})
    sk = sorted(dec.skeleton_set, key=str)
    print(f"skeleton: {len(sk)} elements: {', '.join(map(str, sk))}")
    start = dec.system._members.start
    for i, x in enumerate(dec.skeleton_lattice.elements):
        print(f"  block [{x}, {dec.system.one(x)}]: "
              f"{start[i + 1] - start[i]} elements")
    ok = dec.reglues()
    print(f"roundtrip: {'OK' if ok else 'FAILED'}")
    _write_outputs(args.out, dec.system, args.dot, L, dec.skeleton_set)
    if not ok:
        return _fail("roundtrip", {"file": args.file})
    return 0


# The fixtures `construct` emits: each a builder of `constructions`, by
# its name there, or a lambda over `fix`, the module, which `_fixtures`
# imports on first use so that only `construct` loads it.
_FIXTURES = {
    "chain": lambda n=3: fix.chain(int(n)),
    "boolean": lambda n=3: fix.boolean(int(n)),
    "m3": "m3",
    "n5": "n5",
    "m_k": lambda k=3: fix.m_k(int(k)),
    "grid": lambda p=2, q=2: fix.grid(int(p), int(q)),
    "fano": "fano_lattice",
    "fig_3by3": "fig_3by3_system",
    "note2_overlap": "note2_overlap_system",
    "note3": "note3_system",
    "unbounded": lambda n=3: fix.unbounded_family(int(n)),
    "hd_two_chains": "hd_two_chains",
    "hd_two_m3": "hd_two_m3",
    "hd_two_m3_edge": "hd_two_m3_edge",
    "m3_chain_of_three": "m3_chain_of_three",
    "m3_chain_edges": "m3_chain_edges",
    "nonexample_a1": "section1_nonexample_a1",
    "nonexample_a4": "section1_nonexample_a4",
    "distributive_over_b2": lambda: fix.distributive_with_skeleton(fix.boolean(2)),
    "square_over_m3": lambda: fix.square_sublattice(fix.m3()),
    "projective_local": lambda: fix.section4_example()["local_system"],
    "projective_glued": lambda: fix.section4_example()["glued_system"],
    "projective_sum": lambda: fix.section4_example()["sum"],
    "m3xc1": lambda: product(fix.m3(), fix.chain(1)),
}


@functools.cache
def _fixtures():
    """{name: builder} of the fixtures `construct` emits."""
    global fix
    from . import constructions as fix
    return {name: getattr(fix, b) if isinstance(b, str) else b
            for name, b in _FIXTURES.items()}


def __getattr__(name):
    if name == "FIXTURES":
        return _fixtures()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_construct(args):
    fixtures = _fixtures()
    if args.name not in fixtures:
        return _error(f"unknown fixture {args.name!r}", known=sorted(fixtures))
    try:
        obj = fixtures[args.name](*args.params)
    except (TypeError, ValueError, LatticeError) as e:
        return _error(f"{type(e).__name__}: {e}")
    L = None
    if args.dot:  # refused before anything is written
        L = _lattice_of(obj, "no lattice to draw for this fixture")
    if not args.out:
        print(json.dumps(lio.to_dict(obj), indent=1, sort_keys=True))
    _write_outputs(args.out, obj, args.dot, L)
    return 0


def cmd_suite(args):
    from . import constructions as fix
    from .suite import run_suite
    if not 1 <= args.corpus_max <= fix.MAX_ENUMERATED:
        return _error(f"--corpus-max must be between 1 and "
                      f"{fix.MAX_ENUMERATED}", corpus_max=args.corpus_max,
                      bound=[1, fix.MAX_ENUMERATED])
    ok, results = run_suite(corpus_max=args.corpus_max, as_json=args.json)
    if not ok:
        return _fail("suite", {"failed": [{"criterion": name, "detail": d}
                                          for name, p, d, _ in results
                                          if not p]})
    return 0


def _lattice_of(obj, refusal, **context):
    """The lattice a DOT diagram of `obj` draws: obj itself, or the sum of a
    glued system.  Exits 2 with a JSON error (`refusal` when obj is neither)
    when there is none."""
    try:
        L = obj if isinstance(obj, FiniteLattice) else glued_sum(obj) \
            if isinstance(obj, GluedSystem) else None
    except NotALattice as e:
        raise SystemExit(_error(f"NotALattice: {e}", **context))
    if L is None:
        raise SystemExit(_error(refusal, **context))
    return L


def cmd_dot(args):
    L = _lattice_of(_load(args.file), "file does not describe a lattice or "
                    "glued system", file=args.file)
    if args.out:
        _write_outputs(dot=args.out, lattice=L)
    else:
        sys.stdout.write(lio.to_dot(L))
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process."""
    p = _Parser(prog="latglue", description=__doc__)
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
    u.add_argument("--json", action="store_true",
                   help="one JSON object per criterion instead of a line")
    u.set_defaults(fn=cmd_suite)

    d = sub.add_parser("dot", help="emit a DOT diagram for a file")
    d.add_argument("file")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_dot)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except SystemExit as e:
            return e.code
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader is gone: send what is left, and the flush at exit, to
        # the null device
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
