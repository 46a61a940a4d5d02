"""The command-line interface: exit codes, reports, file outputs, and the
construct/load round trip."""

import json

import pytest

from latglue import cli, skeleton
from latglue import io as lio
from latglue.cli import FIXTURES, main
from latglue.constructions import fig_3by3_system
from latglue.core import FiniteLattice, find_isomorphism
from latglue.glue import GluedSystem


def run(argv):
    return main(argv)


def test_check_passing_properties(tmp_path, capsys):
    path = tmp_path / "b3.json"
    assert run(["construct", "boolean", "3", "--out", str(path)]) == 0
    assert run(["check", str(path), "--property", "modular",
                "--property", "distributive", "--property", "atomistic",
                "--property", "n-distributive:1"]) == 0
    out = capsys.readouterr().out
    assert "modular: true" in out and "distributive: true" in out


def test_check_failing_property_exits_1(tmp_path, capsys):
    path = tmp_path / "n5.json"
    run(["construct", "n5", "--out", str(path)])
    assert run(["check", str(path), "--property", "modular"]) == 1
    captured = capsys.readouterr()
    assert "modular: false" in captured.out
    violation = json.loads(captured.err.strip())
    assert violation["violation"] == "property"
    assert violation["property"] == "modular"


def test_check_breadth_prints_number(tmp_path, capsys):
    path = tmp_path / "m3.json"
    run(["construct", "m3", "--out", str(path)])
    assert run(["check", str(path), "--property", "breadth"]) == 0
    assert "breadth: 2" in capsys.readouterr().out


def test_check_unknown_property(tmp_path, capsys):
    path = tmp_path / "m3.json"
    run(["construct", "m3", "--out", str(path)])
    assert run(["check", str(path), "--property", "prime"]) == 2


def test_glue_valid_system(tmp_path, capsys):
    src = tmp_path / "fig.json"
    out = tmp_path / "sum.json"
    dot = tmp_path / "sum.dot"
    run(["construct", "fig_3by3", "--out", str(src)])
    assert run(["glue", str(src), "--out", str(out), "--dot", str(dot)]) == 0
    assert "9 elements" in capsys.readouterr().out
    L = lio.load(out)
    assert isinstance(L, FiniteLattice) and L.n == 9
    assert dot.read_text().startswith("graph lattice {")


def test_glue_invalid_system_exits_1(tmp_path, capsys):
    src = tmp_path / "a4.json"
    run(["construct", "nonexample_a4", "--out", str(src)])
    assert run(["glue", str(src)]) == 1
    violation = json.loads(capsys.readouterr().err.strip())
    assert violation["violation"] == "glue-axioms"
    assert violation["axioms"][0]["axiom"] == "A4"


def test_connect_runs_quotient(tmp_path, capsys):
    src = tmp_path / "proj.json"
    out = tmp_path / "glued.json"
    run(["construct", "projective_local", "--out", str(src)])
    assert run(["connect", str(src), "--out", str(out)]) == 0
    assert "36 elements" in capsys.readouterr().out
    assert isinstance(lio.load(out), GluedSystem)


def test_skeleton_reports_roundtrip(tmp_path, capsys):
    src = tmp_path / "grid.json"
    run(["construct", "grid", "2", "2", "--out", str(src)])
    assert run(["skeleton", str(src)]) == 0
    out = capsys.readouterr().out
    assert "skeleton: 4 elements" in out
    assert "roundtrip: OK" in out


def test_skeleton_decomposes_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "grid.json"
    run(["construct", "grid", "2", "2", "--out", str(src)])
    calls = []

    def counted(M, real=skeleton.decompose):
        calls.append(M)
        return real(M)
    monkeypatch.setattr(skeleton, "decompose", counted)
    monkeypatch.setattr(cli, "decompose", counted)
    assert run(["skeleton", str(src)]) == 0
    assert "roundtrip: OK" in capsys.readouterr().out
    assert len(calls) == 1


def test_skeleton_rejects_nonmodular(tmp_path, capsys):
    src = tmp_path / "n5.json"
    run(["construct", "n5", "--out", str(src)])
    assert run(["skeleton", str(src)]) == 1
    assert json.loads(capsys.readouterr().err.strip())["violation"] == "skeleton"


def test_construct_unknown_fixture(capsys):
    assert run(["construct", "nothing_here"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_construct_stdout_json(capsys):
    assert run(["construct", "m3"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"elements", "covers"}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_construct_load_roundtrip(name, tmp_path):
    built = FIXTURES[name]()
    path = tmp_path / f"{name}.json"
    assert run(["construct", name, "--out", str(path)]) == 0
    loaded = lio.load(path)
    if isinstance(built, FiniteLattice):
        assert find_isomorphism(loaded, built) is not None
    elif isinstance(built, GluedSystem):
        assert loaded.skeleton.covers == built.skeleton.covers
        for x in built.skeleton.elements:
            assert find_isomorphism(loaded.blocks[x], built.blocks[x]) \
                is not None
    else:  # connected systems are re-namespaced on load
        assert set(loaded.maps) == set(built.maps)


def test_malformed_input_exits_2(tmp_path, capsys):
    assert run(["check", str(tmp_path / "nope.json"),
                "--property", "modular"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["dot", str(bad)]) == 2
    notlat = tmp_path / "notlat.json"
    notlat.write_text(json.dumps({"elements": ["a", "b"], "covers": []}))
    assert run(["check", str(notlat), "--property", "modular"]) == 2
    capsys.readouterr()


def test_dot_output(tmp_path, capsys):
    src = tmp_path / "m3.json"
    out = tmp_path / "m3.dot"
    run(["construct", "m3", "--out", str(src)])
    assert run(["dot", str(src)]) == 0
    assert '"0" -- "a";' in capsys.readouterr().out
    assert run(["dot", str(src), "--out", str(out)]) == 0
    assert out.read_text().count("--") == 6


def test_suite_command(capsys):
    assert run(["suite", "--corpus-max", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 12



def test_glue_rejects_blocks_outside_the_skeleton(tmp_path, capsys):
    src = tmp_path / "ghost.json"
    d = lio.to_dict(fig_3by3_system())
    d["blocks"]["ghost"] = d["blocks"]["1"]
    src.write_text(json.dumps(d))
    assert run(["glue", str(src)]) == 2
    assert "ghost" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("doc", [
    [{"elements": ["0"], "covers": []}],
    {"elements": ["0", "a", "1"],
     "covers": [["0", "a", "1"], ["a", "1"]]},
    {"skeleton": {"elements": ["s"], "covers": []}, "blocks": [1]},
], ids=["top-level-list", "three-element-cover", "blocks-list"])
def test_malformed_shapes_exit_2(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["dot", str(bad)]) == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


@pytest.mark.parametrize("doc", [
    {"skeleton": {"elements": ["x"], "covers": []},
     "blocks": {"x": {"elements": [0], "covers": []}}, "maps": []},
    {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
     "blocks": {"x": {"elements": ["a"], "covers": []},
                "y": {"elements": ["b"], "covers": []}},
     "maps": [{"from": "x", "to": "y", "pairs": [["a"]]}]},
], ids=["integer-element-id", "map-pair-not-a-pair"])
def test_malformed_connected_systems_exit_2(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["connect", str(bad)]) == 2
    assert "LatticeError" in json.loads(capsys.readouterr().err.strip())["error"]
