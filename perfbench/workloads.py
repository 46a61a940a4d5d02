"""The four latglue benchmark workloads.

Each workload is a closed loop with one client: one process, no worker
threads, and the next request is sent only when the previous one has
returned.  `setup(seed, workdir)` generates every input from the seed and
computes the known answers; `run_pass(rec, k)` runs pass k over the
requests and checks every verdict.  Library functions are looked up on
their module at call time, so a traced run sees the wrapped versions.
"""

import contextlib
import io
import json
import os
import random
import signal
import time

from latglue import cli, glue, skeleton, suite
from latglue import constructions as fix
from latglue import io as lio
from latglue.core import FiniteLattice, product


def speed_probe():
    """Seconds a fixed pure-Python loop takes: how fast the host runs now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(5_000):
        x += i * i % 7
    return time.perf_counter() - t0


class Recorder:
    """Times the requests of one client and counts its verdicts.

    While `sampling_speed` is on, a SIGALRM handler times a speed probe
    every few milliseconds, so that probes fall evenly over the requests
    and each pass knows how fast the host ran during it.  `clock` leaves
    the probes' own time out of the requests."""

    def __init__(self, tracer=None):
        self.samples = []          # (pass, tier, seconds)
        self.probes = []           # (pass, seconds of one speed probe)
        self.probe_seconds = 0.0   # time spent in probes so far
        self.pass_index = 0
        self.attempted = 0
        self.failures = []
        self.tracer = tracer

    def clock(self):
        return time.perf_counter() - self.probe_seconds

    def probe(self, *signal_args):
        t0 = time.perf_counter()
        self.probes.append((self.pass_index, speed_probe()))
        self.probe_seconds += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling_speed(self, interval):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self, label):
        if self.tracer is not None:
            self.tracer.begin_request(label)

    def timed(self, label, tier, fn, *args):
        """Run one request; a crash is returned as its verdict."""
        self.begin(label)
        t0 = self.clock()
        try:
            out = fn(*args)
        except Exception as e:  # a crash is a wrong verdict, not an abort
            out = e
        self.sample(tier, self.clock() - t0)
        return out

    def sample(self, tier, seconds):
        self.samples.append((self.pass_index, tier, seconds))

    def verdict(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- seeded input generation ----------------------------------------------

def relabel(L, rng, prefix="v"):
    """L as a JSON dict under seeded ids, with shuffled element and cover
    order; returns (dict, old id -> new id)."""
    ids = list(L.elements)
    fresh = rng.sample(range(len(ids)), len(ids))
    name = {a: f"{prefix}{k}" for a, k in zip(ids, fresh)}
    elements = [name[a] for a in ids]
    covers = [[name[a], name[b]] for a, b in L.covers]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}, name


def relabelled_lattice(L, rng):
    return lio.lattice_from_dict(relabel(L, rng)[0])


def relabelled_system(sys, rng):
    """A glued system with seeded carrier and skeleton ids and orders."""
    carrier = list(sys.carrier())
    fresh = rng.sample(range(len(carrier)), len(carrier))
    name = {a: f"c{k}" for a, k in zip(carrier, fresh)}
    S, sname = relabel(sys.skeleton, rng, "s")
    blocks = {}
    for x in sys.skeleton.elements:
        B = sys.blocks[x]
        elements = [name[a] for a in B.elements]
        covers = [(name[a], name[b]) for a, b in B.covers]
        rng.shuffle(elements)
        rng.shuffle(covers)
        blocks[sname[x]] = FiniteLattice(elements, covers)
    return glue.GluedSystem(lio.lattice_from_dict(S), blocks)


def twin_grid(p, q, rng):
    """grid(p, q) with one interior element x duplicated as an incomparable
    twin (same lower and upper covers).  Pairs below x and its twin lose
    their unique join, pairs above them their unique meet; which one the
    program meets first depends on the seeded element order."""
    d, name = relabel(fix.grid(p, q), rng)
    x = name[f"{rng.randrange(1, p)},{rng.randrange(1, q)}"]
    twin = "twin"
    d["covers"] += [[twin if a == x else a, twin if b == x else b]
                    for a, b in d["covers"] if x in (a, b)]
    d["elements"].insert(rng.randrange(len(d["elements"]) + 1), twin)
    return d


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Times each small-tier input is requested in a pass.  A small request
# takes milliseconds, so one sample of it mostly measures the host's speed
# at that moment; copies spread over the pass give it more samples.
SMALL_COPIES = 3


def _write_inputs(workdir, prefix, inputs, rng):
    """Write each input's data to its own file; returns the requests as
    (label, tier, path, expected) in seeded order, small-tier ones
    SMALL_COPIES times."""
    requests = []
    for i, (label, tier, data, expected) in enumerate(inputs):
        path = os.path.join(workdir, f"{prefix}-{i:02d}.json")
        with open(path, "w") as f:
            json.dump(data, f, separators=(",", ":"))
        copies = SMALL_COPIES if tier == "small" else 1
        requests += [(label, tier, path, expected)] * copies
    rng.shuffle(requests)
    return requests


def _file_size(request):
    return os.path.getsize(request[2])


def _tier(size, small, large):
    return "small" if size <= small else "large" if size >= large else "mid"


# -- skeleton-sweep ---------------------------------------------------------

def _sweep_shapes():
    """Yields (label, lattice, expected skeleton size), building each
    lattice only when it is asked for, so that set-up does not hold them
    all at once and raise the peak memory.

    The shapes are fixed so that every seed's pass does the same work; the
    seed varies ids, element and cover order, request order and the
    refused inputs."""

    def grid(p, q):
        return f"grid({p},{q})", fix.grid(p, q), p * q

    def boolean(n):
        return f"boolean({n})", fix.boolean(n), 1

    def times_chain(name, base, k):
        return f"{name}xC{k}", product(base, fix.chain(k)), k

    def distributive(name, S):
        return (f"dws({name})",
                glue.glued_sum(fix.distributive_with_skeleton(S)), S.n)

    # up to 64 elements
    for p, q in ((3, 3), (3, 5), (4, 4), (4, 5), (5, 5), (5, 6), (7, 7)):
        yield grid(p, q)
    for n in (4, 5, 6):
        yield boolean(n)
    for k in (4, 6, 8, 10):
        yield times_chain("M3", fix.m3(), k)
    yield times_chain("Fano", fix.fano_lattice(), 1)
    yield times_chain("Fano", fix.fano_lattice(), 2)
    yield distributive("C1", fix.chain(1))
    yield distributive("C2", fix.chain(2))
    yield "section4", fix.section4_example()["sum"], 6
    # 65 to 149 elements
    yield grid(8, 9)
    yield grid(9, 10)
    yield boolean(7)
    yield times_chain("M3", fix.m3(), 17)
    yield times_chain("Fano", fix.fano_lattice(), 5)
    yield distributive("C3", fix.chain(3))
    yield distributive("B2", fix.boolean(2))
    yield distributive("M3", fix.m3())
    yield distributive("N5", fix.n5())
    # 150 elements and more
    yield grid(11, 12)
    yield grid(9, 15)
    yield boolean(8)
    yield times_chain("M3", fix.m3(), 40)
    yield times_chain("Fano", fix.fano_lattice(), 14)
    yield distributive("C4", fix.chain(4))


class SkeletonSweep:
    """`latglue skeleton FILE` on fresh modular lattices of 12 to 256
    elements, plus inputs that must be refused."""

    name = "skeleton-sweep"
    small, large = "small", "large"     # <= 64 and >= 150 elements

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for label, L, k in _sweep_shapes():
            inputs.append((label, _tier(L.n, 64, 150), relabel(L, rng)[0],
                           (0, k)))
        for k in (rng.randrange(2, 7), rng.randrange(8, 13)):
            inputs.append((f"N5xC{k}", "rejected",
                           relabel(product(fix.n5(), fix.chain(k)), rng)[0],
                           (1, "skeleton")))
        for p, q in ((3, 4), (6, 7)):
            inputs.append((f"twin-grid({p},{q})", "rejected",
                           twin_grid(p, q, rng), (2, "NoUnique")))
        self.requests = _write_inputs(workdir, "sweep", inputs, rng)
        # warm-up: the smallest request, untimed
        _cli(["skeleton", min(self.requests, key=_file_size)[2]])

    def run_pass(self, rec, k):
        for label, tier, path, expected in self.requests:
            got = rec.timed(f"skeleton:{tier}", tier, _cli, ["skeleton", path])
            rec.verdict(self.check(got, expected), label)

    @staticmethod
    def check(got, expected):
        if isinstance(got, Exception):
            return False
        code, out, err = got
        want_code, want = expected
        if code != want_code:
            return False
        if code == 0:
            lines = out.splitlines()
            return bool(lines) and lines[0].startswith(f"skeleton: {want} elements") \
                and "roundtrip: OK" in lines
        if code == 1:
            return f'"violation": "{want}"' in err
        return want in err


# -- formula-queries ----------------------------------------------------------

# Queries per system, op and tier.  Fixed quotas keep the mix of cheap and
# costly queries the same for every seed; systems whose skeleton is too
# short for far queries get none.
QUOTA = {"near": 10, "mid": 5, "far": 10}


def _formula_systems(rng):
    out = [(f"decompose(grid({p},{p}))",
            skeleton.decompose(relabelled_lattice(fix.grid(p, p), rng)).system)
           for p in range(3, 9)]
    fixtures = [("section4", fix.section4_example()["glued_system"]),
                ("m3_chain_edges", fix.m3_chain_edges()),
                ("unbounded_family(5)", fix.unbounded_family(5)),
                ("dws(B2)", fix.distributive_with_skeleton(fix.boolean(2))),
                ("fig_3by3", fix.fig_3by3_system())]
    out += [(name, relabelled_system(sys, rng)) for name, sys in fixtures]
    return out


def skeleton_steps(sys, a, b, op):
    """Skeleton cover steps from the blocks of a and b to the result block."""
    S = sys.skeleton
    x, y = sys.blocks_of(a)[0], sys.blocks_of(b)[0]
    z = S.join(x, y) if op == "sup" else S.meet(x, y)
    return max(abs(S.height(z) - S.height(x)), abs(S.height(z) - S.height(y)))


class FormulaQueries:
    """sup/inf queries through the staircase formulas, many per system."""

    name = "formula-queries"
    small, large = "near", "far"        # <= 1 and >= 3 skeleton steps

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.queries = []
        for label, sys in _formula_systems(rng):
            L = glue.glued_sum(sys)           # the closure-order oracle
            carrier = sorted(L.elements, key=L.index)
            far_possible = sys.skeleton.length() >= 3
            for op in ("sup", "inf"):
                left = dict(QUOTA, far=QUOTA["far"] if far_possible else 0)
                while any(left.values()):
                    a, b = rng.choice(carrier), rng.choice(carrier)
                    steps = skeleton_steps(sys, a, b, op)
                    tier = "near" if steps <= 1 else "far" if steps >= 3 else "mid"
                    if left[tier]:
                        left[tier] -= 1
                        want = L.join(a, b) if op == "sup" else L.meet(a, b)
                        self.queries.append((label, op, sys, a, b, tier, want))
        rng.shuffle(self.queries)
        for label, op, sys, a, b, tier, want in self.queries[:20]:
            self._ask(op, sys, a, b)          # warm-up

    @staticmethod
    def _ask(op, sys, a, b):
        fn = glue.sup_via_formulas if op == "sup" else glue.inf_via_formulas
        return fn(sys, a, b)

    def run_pass(self, rec, k):
        for label, op, sys, a, b, tier, want in self.queries:
            got = rec.timed(f"query:{tier}", tier, self._ask, op, sys, a, b)
            rec.verdict(got == want, (label, op, a, b))


# -- connect-reglue -----------------------------------------------------------

def local_system_dict(M, rng):
    """decompose(M) split into disjoint block copies: a locally connected
    system whose cover maps identify each overlap with itself."""
    dec = skeleton.decompose(M)
    S = dec.skeleton_lattice
    # skeleton ids stay the ids of the elements of M they name
    d = {"elements": list(S.elements), "covers": [list(c) for c in S.covers]}
    rng.shuffle(d["elements"])
    rng.shuffle(d["covers"])
    blocks = {}
    for x in S.elements:
        B = dec.blocks[x]
        elements = list(B.elements)
        covers = [list(c) for c in B.covers]
        rng.shuffle(elements)
        rng.shuffle(covers)
        blocks[x] = {"elements": elements, "covers": covers}
    maps = []
    for x, y in S.covers:
        overlap = sorted(set(dec.blocks[x].elements) & set(dec.blocks[y].elements))
        maps.append({"from": x, "to": y, "pairs": [[a, a] for a in overlap]})
    rng.shuffle(maps)
    return {"skeleton": d, "blocks": blocks, "maps": maps, "local": True}, S.n


def _connect_sources():
    """Fixed shapes, so that every seed's pass costs the same."""
    grids = [(2, 2), (3, 3), (3, 4), (4, 5), (5, 6), (6, 6), (6, 7), (7, 7),
             (7, 8), (8, 8)]
    out = [(f"grid({p},{q})", lambda p=p, q=q: fix.grid(p, q)) for p, q in grids]
    for k in (3, 8, 16):
        out.append((f"M3xC{k}", lambda k=k: product(fix.m3(), fix.chain(k))))
    out.append(("section4", lambda: fix.section4_example()["sum"]))
    return out


class ConnectReglue:
    """`latglue connect FILE` on locally connected systems cut from
    decompose(M); the quotient sum must have M's size and length."""

    name = "connect-reglue"
    small, large = "small", "large"     # skeleton <= 9 and >= 36 elements

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for label, build in _connect_sources():
            M = relabelled_lattice(build(), rng)
            data, skeleton_size = local_system_dict(M, rng)
            inputs.append((label, _tier(skeleton_size, 9, 36), data,
                           (M.n, M.length())))
        self.requests = _write_inputs(workdir, "connect", inputs, rng)
        _cli(["connect", min(self.requests, key=_file_size)[2]])

    def run_pass(self, rec, k):
        for label, tier, path, expected in self.requests:
            got = rec.timed(f"connect:{tier}", tier, _cli, ["connect", path])
            rec.verdict(self.check(got, expected), label)

    @staticmethod
    def check(got, expected):
        if isinstance(got, Exception):
            return False
        code, out, _ = got
        n, length = expected
        return code == 0 and out.startswith(
            f"valid connected system: quotient sum has {n} elements, "
            f"length {length}\n")


# -- suite-7 ------------------------------------------------------------------

SUITE_CRITERIA = 12


# Criteria whose work grows with corpus_max; the others check fixed fixtures.
CORPUS_CRITERIA = {"roundtrip", "sup-inf-formulas", "star-plus-calculus",
                   "skeleton-oracle-duality", "distributive-construction",
                   "square-construction", "enumeration"}


class Suite7:
    """run_suite(corpus_max=7), output silenced; each criterion is one
    verdict and its time to verdict one sample."""

    name = "suite-7"
    small, large = "fixture", "corpus"

    def setup(self, seed, workdir):
        # the only seeded input of the suite: the breadth search order
        os.environ["LATTICE_SUITE_SEED"] = str(seed)

    def run_pass(self, rec, k):
        marks = []

        def emit(line):
            marks.append(rec.clock())
            rec.begin("suite:criterion")

        rec.begin("suite:criterion")
        marks.append(rec.clock())
        try:
            _, results = suite.run_suite(corpus_max=7, emit=emit)
        except Exception as e:  # a crash fails every criterion
            for _ in range(SUITE_CRITERIA):
                rec.verdict(False, f"crash: {type(e).__name__}: {e}")
            return
        for (name, passed, _, seconds), t0, t1 in zip(results, marks, marks[1:]):
            tier = "corpus" if name in CORPUS_CRITERIA else "fixture"
            rec.sample(tier, t1 - t0)
            rec.verdict(passed, name)
            if rec.tracer is not None:
                rec.tracer.suite_seconds[name] += seconds
        for _ in range(SUITE_CRITERIA - len(results)):
            rec.verdict(False, "missing criterion")


WORKLOADS = {w.name: w for w in (SkeletonSweep, FormulaQueries, ConnectReglue,
                                 Suite7)}
