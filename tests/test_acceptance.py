"""End-to-end acceptance: the twelve suite criteria over the full corpus
(all lattices with at most 7 elements plus the named fixtures), printing
one pass/fail line per criterion; one `run_suite` enumerates once and
derives its smaller corpora from that enumeration, and the suite passes
under `python -O`."""

import os
import subprocess
import sys
import time

import pytest

import latglue
from latglue import suite
from latglue.suite import CRITERIA

CORPUS_MAX = 7
TIME_LIMITS = {"roundtrip": 60.0,
               "distributive-construction": 120.0,
               "projective-example": 60.0}


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, fn):
    t0 = time.monotonic()
    ok, detail = fn(CORPUS_MAX)
    dt = time.monotonic() - t0
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({dt:.1f}s)")
    assert ok, f"{name}: {detail}"
    limit = TIME_LIMITS.get(name)
    if limit is not None:
        assert dt < limit, f"{name} took {dt:.1f}s (limit {limit:.0f}s)"


def test_run_suite_enumerates_each_corpus_size_once(monkeypatch):
    calls = []
    enumerate_lattices = suite.fix.enumerate_lattices

    def counted(max_elements):
        calls.append(max_elements)
        return enumerate_lattices(max_elements)

    monkeypatch.setattr(suite.fix, "enumerate_lattices", counted)
    ok, _ = suite.run_suite(CORPUS_MAX, emit=lambda line: None)
    assert ok
    assert calls == [7]
    assert suite._corpora is None  # nothing carries over to the next call


def test_run_suite_builds_each_fixture_once_per_call(monkeypatch):
    built = []

    def counted(name, fn):
        def build(*args, **kwargs):
            # lattice arguments by identity: the corpus is held for the call
            built.append((name, tuple(map(id, args)), tuple(kwargs.items())))
            return fn(*args, **kwargs)
        monkeypatch.setattr(suite.fix, name, build)

    for name in ("section4_example", "fig_3by3_system", "hd_two_m3_edge",
                 "note3_system"):
        counted(name, getattr(suite.fix, name))

    def squares(Ss, real=suite.fix.square_sublattices):
        # one entry per S: square_sublattice is the batch of one
        Ss = list(Ss)
        built.extend(("square", (id(S),), ()) for S in Ss)
        return real(Ss)
    monkeypatch.setattr(suite.fix, "square_sublattices", squares)
    for _ in range(2):  # each call builds its own, once per fixture
        built.clear()
        ok, _ = suite.run_suite(CORPUS_MAX, emit=lambda line: None)
        assert ok
        assert suite._fixtures is None  # dropped after the call
        assert len(built) == len(set(built))
        assert [b for b in built if b[0] == "section4_example"] \
            == [("section4_example", (), ()),
                ("section4_example", (), (("all_m3", True),))]
        assert sum(b[0] == "square" for b in built) \
            == 1 + len(suite._modular_corpus(CORPUS_MAX)) == 1 + 33


def test_suite_passes_under_python_O():
    src = os.path.dirname(os.path.dirname(latglue.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "latglue.cli", "suite",
         "--corpus-max", "5"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" PASS ") == 12
