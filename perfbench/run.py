"""latglue benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
Inputs are generated from --seed.  The run makes whole passes over the
same requests for about --seconds (at least three), checking every
verdict, and sets the workload up again between passes now and then.
Gated times are scaled by the host's speed, sampled by a probe loop while
the passes run (see perfbench/README.md).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
the traced run with --trace 1.  The line before it reports every figure
with its unit and the run's environment.  The exit code is 0 only when
every verdict was right.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
SETUP_PROBES = 20
MIN_PASSES = 3
# About the speed probe's time on a calm host (2-core Xeon VM, Python 3.11);
# gated times are scaled to it.
REFERENCE_PROBE_S = 0.00033
PROBE_INTERVAL = 0.01
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


# Run in a fresh interpreter: imports cannot be repeated within one process.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import latglue.cli; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """Time a fresh interpreter takes to import the library."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                           capture_output=True, text=True, check=True)
    return float(probe.stdout)


def cap_threads():
    """Cap the BLAS/OpenMP pools at the usable cores, before numpy loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= ncpu:
            os.environ[var] = str(ncpu)
    return ncpu


def end_to_end(workload, pass_seconds, rec, setups, rss_mb):
    """The gated metrics, and the report line with every figure.

    The host this was tuned on is shared and its speed drifts by up to
    40% over seconds to minutes, alike for the library and for a fixed
    loop.  So each gated time is scaled by how fast the host ran meanwhile:
    a sample by its pass's mean speed probe over REFERENCE_PROBE_S, a
    set-up by the probes around it.  Every pass runs the same requests in
    the same order, so the j-th sample of each pass times the same request;
    a request's time is its median over the passes.  Tier figures are means
    over the tier's requests, not medians, because a tier can mix requests
    whose costs differ by orders of magnitude (sup and inf queries, say),
    and a median between two such clusters jumps with the seed."""
    probes = {}
    for k, s in rec.probes:
        probes.setdefault(k, []).append(s)
    slowdown = {k: statistics.fmean(v) / REFERENCE_PROBE_S
                for k, v in probes.items()}
    by_tier, by_request, position = {}, {}, {}
    for k, tier, s in rec.samples:
        by_tier.setdefault(tier, []).append(s * 1000)
        j = position[k] = position.get(k, -1) + 1
        by_request.setdefault(j, (tier, []))[1].append(s / slowdown[k])
    request = [(tier, statistics.median(v)) for tier, v in by_request.values()]

    def tier_mean(tier):
        values = [s * 1000 for t, s in request if t == tier]
        return statistics.fmean(values) if values else 0.0  # all crashed

    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "pass_s": (sum(s for _, s in request), "s"),
        "small_mean_ms": (tier_mean(workload.small), "ms"),
        "large_mean_ms": (tier_mean(workload.large), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = dict(metrics)
    report["host_slowdown"] = {"value": statistics.median(slowdown.values()),
                               "unit": "ratio", "probes": len(rec.probes)}
    report["setup_unscaled_s"] = {
        "value": statistics.median(s * f for s, f in setups), "unit": "s",
        "samples": len(setups)}
    report["wall_unscaled_s"] = {"value": statistics.median(pass_seconds),
                                 "unit": "s", "samples": len(pass_seconds)}
    for tier, values in sorted(by_tier.items()):
        report[f"{tier}_p50_unscaled_ms"] = {
            "value": statistics.median(values), "unit": "ms",
            "samples": len(values)}
        report[f"{tier}_mean_ms"] = {
            "value": tier_mean(tier), "unit": "ms",
            "requests": sum(t == tier for t, _ in request)}
    ms = [s * 1000 for _, _, s in rec.samples]
    if len(ms) > 1:
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        for q in (50, 90, 99):
            report[f"p{q}_unscaled_ms"] = {"value": cuts[q - 1], "unit": "ms",
                                           "samples": len(ms)}
    report["failed_ratio"] = {"value": len(rec.failures) / rec.attempted,
                              "unit": "ratio", "base": rec.attempted}
    return metrics, report


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_passes(workload, rec, seconds, min_passes=1, between=None,
                 sample_speed=False):
    """Whole passes over the same requests: at least `min_passes`, then more
    while another one is expected to end within `seconds`; `between(start)`
    runs after each pass.  Returns the pass durations and the peak memory
    after the first, which unlike the final peak does not grow with the
    pass count."""
    durations = []
    start = time.perf_counter()
    while len(durations) < min_passes or (
            time.perf_counter() - start + statistics.median(durations)
            <= seconds):
        rec.pass_index = len(durations)
        t0 = time.perf_counter()
        with (rec.sampling_speed(PROBE_INTERVAL) if sample_speed
              else contextlib.nullcontext()):
            workload.run_pass(rec, rec.pass_index)
        durations.append(time.perf_counter() - t0)
        rec.probe()                 # at least one probe per pass
        if len(durations) == 1:
            rss = peak_rss_mb()
        if between is not None:
            between(start)
    return durations, rss


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ncpu = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "latglue", "__init__.py")):
        print(f"perfbench: no latglue sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import latglue
    from workloads import WORKLOADS, Recorder, speed_probe
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setups = []

        def set_up():
            """One timed set-up, its import in a fresh interpreter included
            (imports cannot be repeated within one process), scaled by the
            host's speed before and after; see `end_to_end`."""
            before = [speed_probe() for _ in range(SETUP_PROBES)]
            imported = import_seconds()
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            seconds = imported + time.perf_counter() - t0
            after = [speed_probe() for _ in range(SETUP_PROBES)]
            slowdown = statistics.fmean(before + after) / REFERENCE_PROBE_S
            setups.append((seconds / slowdown, slowdown))
            gc.collect()

        def set_up_again(start):
            """Spread the set-ups over the run, as its passes are."""
            due = start + len(setups) * args.seconds / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
                set_up()

        set_up()
        if args.trace:
            metrics, report, rec = traced_run(workload, args)
        else:
            rec = Recorder()
            durations, rss = timed_passes(workload, rec, args.seconds,
                                          MIN_PASSES, set_up_again,
                                          sample_speed=True)
            metrics, report = end_to_end(workload, durations, rec, setups,
                                         rss)

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": ncpu, "machine": platform.machine(),
           "latglue": latglue.__version__}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env, "report": report,
                      "failures": [str(f) for f in rec.failures[:20]]}))
    correct = not rec.failures
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": len(rec.failures), "metrics": metrics}))
    return 0 if correct else 1


def traced_run(workload, args):
    """Untraced reference passes for half of --seconds, then traced passes
    for --seconds; the ratio of their medians is the tracing overhead."""
    from layers import Tracer
    from workloads import Recorder

    reference = statistics.median(
        timed_passes(workload, Recorder(), args.seconds / 2)[0])
    tracer = Tracer()
    tracer.install()
    rec = Recorder(tracer)
    gc.collect()
    try:
        durations, _ = timed_passes(workload, rec, args.seconds)
    finally:
        tracer.uninstall()
    overhead = statistics.median(durations) / reference
    metrics = tracer.summarize(len(durations), overhead)
    path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
    tracer.write_spans(path)
    report = {"passes": len(durations), "reference_pass_s": reference,
              "traced_pass_s": statistics.median(durations),
              "spans": len(tracer), "spans_file": os.path.relpath(path, ROOT)}
    return metrics, report, rec


if __name__ == "__main__":
    sys.exit(main())
