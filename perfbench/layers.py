"""Per-layer tracing for the latglue benchmark.

The layers are latglue's modules.  `Tracer.install` wraps the public
callables listed in LAYERS and rebinds every name under which a latglue
module (or the package itself) holds them, so calls between library
modules are traced as well as calls from the benchmark.  Each call becomes
a span (name, start, end, parent span, request id) kept in memory; spans
are written out only after the timed phase.  Nothing here is imported or
installed by an untraced run.
"""

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

# Public callables traced per module; each reports <module>.<name>.calls and
# <module>.<name>.s.  Kept to the ones an optimisation is most likely to
# move, so that the metric list stays within 128 names.
LAYERS = {
    "core": ["dual", "restrict", "interval", "product", "find_isomorphism"],
    "predicates": ["is_modular", "is_semimodular", "is_distributive",
                   "is_atomistic", "breadth", "is_n_distributive",
                   "principal_congruence", "is_simple", "is_sublattice",
                   "generated_sublattice"],
    "skeleton": ["star", "plus", "lemma61_suite", "skeleton_set",
                 "skeleton_lattice", "decompose", "roundtrip",
                 "maximal_atomistic_intervals", "skeleton_duality_suite",
                 "consequence_suite"],
    "glue": ["validate", "glued_sum", "sup_via_formulas", "inf_via_formulas",
             "is_monotone_strict", "zero_one_maps"],
    "connect": ["validate_connected", "equivalent", "connected_sum",
                "validate_local", "elevate"],
    "hom": ["is_homomorphism", "check_star", "glue_homs",
            "corollary_54_check", "simplicity_transfer_check"],
    "io": ["load", "save", "to_dot"],
    "cli": ["main"],
    "constructions": ["enumerate_lattices", "canonical_key"],
    "suite": ["run_suite"],
}
CORE_METHODS = ("dual", "restrict", "interval")
CRITERIA = ["roundtrip", "sup-inf-formulas", "transfer", "star-plus-calculus",
            "skeleton-oracle-duality", "distributive-construction",
            "square-construction", "projective-example", "connected-sums",
            "hom-gluing", "counterexamples", "enumeration"]
# Counts of work the current code repeats; later changes cite them by name.
WASTE = ["waste.decompose_per_skeleton_request",
         "waste.enumerations_per_suite",
         "waste.dual_per_inf_call",
         "waste.canonical_key_per_emitted"]


def metric_names():
    """Every per-layer metric, in output order, with its unit."""
    out = [("core.build.calls", "count"), ("core.build.s", "s"),
           ("core.build.elements", "count")]
    for mod, names in LAYERS.items():
        for name in names:
            out += [(f"{mod}.{name}.calls", "count"), (f"{mod}.{name}.s", "s")]
        if mod == "constructions":
            out.append(("constructions.enumerate_lattices.yielded", "count"))
        out.append((f"{mod}.self_s", "s"))
    out += [(f"suite.{c}.s", "s") for c in CRITERIA]
    out += [(w, "ratio") for w in WASTE]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    def __init__(self):
        self.names = []        # span name id -> "<module>.<function>"
        # one entry per span, in opening order: a span's parent precedes it
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_request = array("i")
        self.stack = []
        self.calls = Counter()
        self.built_elements = 0
        self.yielded = 0
        self.request = -1
        self.request_labels = []   # request id -> label such as "skeleton:large"
        self.suite_seconds = Counter()
        self._restore = []

    def begin_request(self, label):
        self.request_labels.append(label)
        self.request = len(self.request_labels) - 1

    # -- spans ---------------------------------------------------------

    def _open(self, nid):
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.span_request.append(self.request)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def __len__(self):
        return len(self.start)

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            # A generator runs only while it is resumed: one span per resume,
            # so that the consumer's work between items is not charged to it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        i = self._open(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(i)
                        self.yielded += 1
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return wrapper

    def install(self):
        """Wrap the LAYERS callables wherever latglue holds them."""
        modules = {mod: importlib.import_module(f"latglue.{mod}")
                   for mod in LAYERS}
        cls = modules["core"].FiniteLattice
        init = cls.__init__
        build = self._wrap("core.build", init)

        @functools.wraps(init)
        def counted_init(lattice, *args, **kwargs):
            build(lattice, *args, **kwargs)
            self.built_elements += lattice.n
        self._patch(cls, "__init__", counted_init)
        holders = [importlib.import_module("latglue"), *modules.values()]
        for mod, names in LAYERS.items():
            for name in names:
                # a callable a later version removes reports zero calls
                if mod == "core" and name in CORE_METHODS:
                    if hasattr(cls, name):
                        self._patch(cls, name, self._wrap(f"core.{name}",
                                                          getattr(cls, name)))
                    continue
                orig = getattr(modules[mod], name, None)
                if orig is None:
                    continue
                wrapped = self._wrap(f"{mod}.{name}", orig)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            self._patch(holder, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- summary -------------------------------------------------------

    def summarize(self, passes, overhead_ratio):
        """Per-layer metrics per pass: counts and busy seconds per wrapped
        callable, self seconds per module, waste ratios."""
        names = self.names
        child = array("d", bytes(8 * len(self)))   # time of nested spans
        for t0, t1, parent in zip(self.start, self.end, self.parent):
            if parent >= 0:
                child[parent] += t1 - t0
        busy, self_s = Counter(), Counter()
        for nid, t0, t1, nested in zip(self.span_name, self.start, self.end,
                                       child):
            busy[names[nid]] += t1 - t0
            self_s[names[nid].split(".")[0]] += t1 - t0 - nested

        values = {"core.build.elements": self.built_elements,
                  "constructions.enumerate_lattices.yielded": self.yielded}
        wrapped = ["core.build"] + [f"{mod}.{fn}" for mod, fns in LAYERS.items()
                                    for fn in fns]
        for name in wrapped:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.s"] = busy[name]
        for mod in LAYERS:
            values[f"{mod}.self_s"] = self_s[mod]
        for criterion in CRITERIA:
            values[f"suite.{criterion}.s"] = self.suite_seconds[criterion]
        values = {k: v / passes for k, v in values.items()}
        values.update(self._waste())
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": unit}
                for name, unit in metric_names()}

    def _ancestor_counts(self, name, ancestor):
        """Spans called `name` that run inside a span called `ancestor`."""
        names, span_name, parents = self.names, self.span_name, self.parent
        n = 0
        for nid, parent in zip(span_name, parents):
            if names[nid] != name:
                continue
            while parent >= 0 and names[span_name[parent]] != ancestor:
                parent = parents[parent]
            n += parent >= 0
        return n

    def _waste(self):
        names, labels = self.names, self.request_labels
        accepted = {r for r, lab in enumerate(labels)
                    if lab.startswith("skeleton:") and lab != "skeleton:rejected"}
        decomposes = sum(1 for nid, r in zip(self.span_name, self.span_request)
                         if r in accepted and names[nid] == "skeleton.decompose")

        def ratio(a, b):
            return a / b if b else 0.0
        return {
            "waste.decompose_per_skeleton_request":
                ratio(decomposes, len(accepted)),
            "waste.enumerations_per_suite":
                ratio(self.calls["constructions.enumerate_lattices"],
                      self.calls["suite.run_suite"]),
            "waste.dual_per_inf_call":
                ratio(self._ancestor_counts("core.dual",
                                            "glue.inf_via_formulas"),
                      self.calls["glue.inf_via_formulas"]),
            "waste.canonical_key_per_emitted":
                ratio(self._ancestor_counts("constructions.canonical_key",
                                            "constructions.enumerate_lattices"),
                      self.yielded),
        }

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent line, request."""
        with open(path, "w") as f:
            for nid, t0, t1, parent, req in zip(
                    self.span_name, self.start, self.end, self.parent,
                    self.span_request):
                f.write(json.dumps([self.names[nid], t0, t1, parent, req]))
                f.write("\n")
