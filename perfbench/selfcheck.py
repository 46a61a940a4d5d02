"""Self-checks of the latglue benchmark; run from the root of a checkout:

    python3 perfbench/selfcheck.py

Checks that inputs are a function of the seed (byte-identical for the same
seed, different for another), that tiers are stable per seed and every
gated tier is populated, that a wrong expected answer is counted as a
failure, that a crash of the suite fails all its criteria, and that BENCHMARK.json names exactly the metrics the benchmark
prints.  Exits non-zero on the first failed check.
"""

import json
import os
import sys
import tempfile

import run

run.cap_threads()                 # before numpy is loaded
sys.path.insert(0, run.SRC)
from latglue import io as lio  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def generated(name, seed):
    """Everything the program would receive from `name` at `seed`, as
    bytes, and the tier of each request."""
    w = WORKLOADS[name]()
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        w.setup(seed, workdir)
        if name == "formula-queries":
            blob = json.dumps([(label, op, lio.to_dict(system), a, b, want)
                               for label, op, system, a, b, _, want
                               in w.queries])
            tiers = [q[5] for q in w.queries]
        elif name == "suite-7":
            blob = os.environ["LATTICE_SUITE_SEED"]
            tiers = []
        else:
            parts = []
            for label, tier, path, expected in w.requests:
                with open(path) as f:
                    parts.append(f"{label}|{expected}|{f.read()}")
            blob = "\n".join(parts)
            tiers = [r[1] for r in w.requests]
    return blob.encode(), tiers, w


def check_seeding():
    for name in WORKLOADS:
        a, tiers_a, w = generated(name, 7)
        b, tiers_b, _ = generated(name, 7)
        c, _, _ = generated(name, 8)
        expect(a == b, f"{name}: same seed gives byte-identical inputs")
        expect(a != c, f"{name}: another seed gives other inputs")
        expect(tiers_a == tiers_b, f"{name}: tiers are stable per seed")
        if tiers_a:
            expect(w.small in tiers_a and w.large in tiers_a,
                   f"{name}: tiers {w.small} and {w.large} are populated")


def check_wrong_answer_counts():
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        w = WORKLOADS["skeleton-sweep"]()
        w.setup(3, workdir)
        small = [r for r in w.requests if r[1] in ("small", "rejected")][:6]
        label, tier, path, (code, k) = small[0]
        wrong = (code, k + 1 if code == 0 else k + "?")
        w.requests = [(label, tier, path, wrong)] + small[1:]
        rec = Recorder()
        w.run_pass(rec, 0)
        expect(rec.attempted == len(small) and rec.failures == [label],
               "skeleton-sweep: one wrong expected answer is one failure")

        w = WORKLOADS["connect-reglue"]()
        w.setup(3, workdir)
        label, tier, path, (n, length) = w.requests[0]
        w.requests = [(label, tier, path, (n, length + 1))]
        rec = Recorder()
        w.run_pass(rec, 0)
        expect(rec.failures == [label],
               "connect-reglue: a wrong expected length is a failure")

    w = WORKLOADS["formula-queries"]()
    w.setup(3, None)
    q = w.queries[0]
    wrong = next(a for a in q[2].carrier() if a != q[6])
    w.queries = [q[:6] + (wrong,)] + w.queries[1:40]
    rec = Recorder()
    w.run_pass(rec, 0)
    expect(rec.attempted == 40 and len(rec.failures) == 1,
           "formula-queries: one wrong expected answer is one failure")

    def crash(**kwargs):
        raise RuntimeError("boom")

    run_suite, workloads.suite.run_suite = workloads.suite.run_suite, crash
    try:
        rec = Recorder()
        WORKLOADS["suite-7"]().run_pass(rec, 0)
    finally:
        workloads.suite.run_suite = run_suite
    expect(rec.attempted == len(rec.failures) == workloads.SUITE_CRITERIA
           and "boom" in rec.failures[0],
           "suite-7: a crash fails every criterion, with its message")


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    expect([m["name"] for m in spec["per_layer"]]
           == [n for n, _ in layers.metric_names()],
           "BENCHMARK.json lists every per-layer metric")
    rec = Recorder()
    rec.sample("small", 0.001)
    rec.sample("large", 0.002)
    rec.probe()
    rec.attempted = 2
    metrics, _ = run.end_to_end(WORKLOADS["skeleton-sweep"](), [1.0], rec,
                                [(1.0, 1.0)], 50.0)
    expect([m["name"] for m in spec["end_to_end"]] == list(metrics),
           "BENCHMARK.json lists every end-to-end metric")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expect(all(units[k] == v["unit"] for k, v in metrics.items())
           and all(units[k] == u for k, u in layers.metric_names()),
           "BENCHMARK.json units match the printed units")


if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    check_benchmark_json()
    check_seeding()
    check_wrong_answer_counts()
    print("selfcheck passed")
