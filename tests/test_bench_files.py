"""Every checked-in `BENCH_*.json` at the root of the checkout has one
shape: the script that wrote it, its host (Python and numpy versions,
core count, thread variables) and a non-empty list of named results whose
times, the fields ending in `_s`, are positive numbers."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_checked_in():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_has_the_schema(path):
    doc = json.loads(path.read_text())
    assert {"script", "env", "results"} <= set(doc)
    assert (ROOT / doc["script"]).is_file()
    env = doc["env"]
    assert {"python", "numpy", "nproc", "threads"} <= set(env)
    assert isinstance(env["nproc"], int) and env["nproc"] > 0
    assert isinstance(env["threads"], dict)
    assert doc["results"]
    for result in doc["results"]:
        assert isinstance(result["name"], str)
        times = {k: v for k, v in result.items() if k.endswith("_s")}
        assert times, result["name"]
        for key, value in times.items():
            assert type(value) in (int, float) and value > 0, \
                (result["name"], key, value)
