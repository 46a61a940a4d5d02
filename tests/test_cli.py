"""The command-line interface: exit codes, reports, file outputs, and the
construct/load round trip."""

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

import latglue
from latglue import cli, connect, skeleton, suite
from latglue import io as lio
from latglue.cli import FIXTURES, main
from latglue.constructions import fig_3by3_system
from latglue.core import FiniteLattice, LatticeError, find_isomorphism
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


@pytest.mark.parametrize("arg", ["x", "0", "-1"])
def test_check_bad_n_distributive_argument_exits_2(arg, tmp_path, capsys):
    path = tmp_path / "m3.json"
    run(["construct", "m3", "--out", str(path)])
    capsys.readouterr()
    assert run(["check", str(path), "--property",
                f"n-distributive:{arg}"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert repr(arg) in err["error"]


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


def test_connect_local_validates_once_and_walks_no_chains(
        tmp_path, capsys, monkeypatch):
    """A local request checks (22)-(24δ) once, the isomorphism check on
    skeleton covers only, and runs no check of (17)-(20δ): elevate proves
    them from the local conditions."""
    src = tmp_path / "proj.json"
    run(["construct", "projective_local", "--out", str(src)])
    calls, iso_pairs = [], []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)
    for module, name in ((connect, "validate_local"),
                         (connect, "validate_connected"),
                         (connect, "_chain_failures"),
                         (connect, "_glue_failures")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    def iso(tables, X, Y, f, real=connect._iso_failures):
        iso_pairs.extend(zip(X.tolist(), Y.tolist()))
        return real(tables, X, Y, f)
    monkeypatch.setattr(connect, "_iso_failures", iso)
    assert run(["connect", str(src)]) == 0
    assert "36 elements" in capsys.readouterr().out
    assert calls == ["validate_local"]
    S = lio.load(src).skeleton
    assert iso_pairs and set(iso_pairs) <= set(map(tuple, S._cov))


def test_connect_checks_a_non_local_file_once(tmp_path, capsys, monkeypatch):
    """A non-local request runs validate_connected once, and connected_sum
    reads the verdict it cached; a refused file reports that verdict."""
    src = tmp_path / "proj.json"
    run(["construct", "projective_local", "--out", str(src)])
    lio.save(connect.elevate(lio.load(src)), src)
    calls = []
    check = connect.validate_connected
    monkeypatch.setattr(connect, "validate_connected",
                        lambda cs: calls.append(cs) or check(cs))
    assert run(["connect", str(src)]) == 0
    assert "36 elements" in capsys.readouterr().out
    assert len(calls) == 1
    doc = json.loads(src.read_text())
    doc["maps"] = doc["maps"][1:]
    src.write_text(json.dumps(doc))
    assert run(["connect", str(src)]) == 1
    assert len(calls) == 2
    last = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert last["violation"] == "connect-conditions" and last["conditions"]


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

    def counted(Ms, real=skeleton.decompositions):
        calls.append(list(Ms))
        return real(calls[-1])
    monkeypatch.setattr(skeleton, "decompositions", counted)
    assert run(["skeleton", str(src)]) == 0
    assert "roundtrip: OK" in capsys.readouterr().out
    assert [len(Ms) for Ms in calls] == [1]


def test_skeleton_rejects_nonmodular(tmp_path, capsys):
    src = tmp_path / "n5.json"
    run(["construct", "n5", "--out", str(src)])
    assert run(["skeleton", str(src)]) == 1
    assert json.loads(capsys.readouterr().err.strip())["violation"] == "skeleton"


def test_construct_unknown_fixture(capsys):
    assert run(["construct", "nothing_here"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["grid", "-1", "2"], ["boolean", "-1"],
                                  ["boolean", "9"], ["m_k", "0"],
                                  ["unbounded", "0"]], ids="_".join)
def test_construct_out_of_range_parameters_exit_2(argv, capsys):
    assert run(["construct", *argv]) == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


@pytest.mark.parametrize("argv, error", [
    (["m3", "x"], "TypeError: m3() takes 0 positional arguments but 1 was "
     "given"),
    (["chain", "1", "2"], "TypeError: <lambda>() takes from 0 to 1 "
     "positional arguments but 2 were given"),
], ids=["m3", "chain"])
def test_construct_with_too_many_parameters_names_the_builder(argv, error,
                                                              capsys):
    assert run(["construct", *argv]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": error}


def test_construct_stdout_json(capsys):
    assert run(["construct", "m3"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"elements", "covers"}


@pytest.mark.parametrize("name, error", [
    ("nonexample_a1", "NotALattice: "),
    ("projective_local", "no lattice to draw for this fixture")])
@pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
def test_construct_dot_without_a_lattice_is_refused_before_writing(
        name, error, out, tmp_path, capsys):
    argv = ["construct", name, "--dot", str(tmp_path / "x.dot")]
    if out:
        argv += ["--out", str(tmp_path / "x.json")]
    assert run(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert json.loads(got.err.strip())["error"].startswith(error)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("bound", ["9", "0", "-3"])
def test_suite_corpus_max_out_of_range_exits_2_before_any_criterion(
        bound, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(suite, "run_suite",
                        lambda corpus_max, as_json: ran.append(corpus_max)
                        or (True, []))
    assert run(["suite", "--corpus-max", bound]) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    error = json.loads(captured.err)
    assert "between 1 and 8" in error["error"]
    assert error["bound"] == [1, 8] and error["corpus_max"] == int(bound)


@pytest.mark.parametrize("bound", [1, 8])
def test_suite_corpus_max_in_range_runs(bound, monkeypatch):
    ran = []
    monkeypatch.setattr(suite, "run_suite",
                        lambda corpus_max, as_json: ran.append(corpus_max)
                        or (True, []))
    assert run(["suite", "--corpus-max", str(bound)]) == 0
    assert ran == [bound]


def test_suite_json_prints_one_object_per_criterion(capsys):
    assert run(["suite", "--corpus-max", "3"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert run(["suite", "--corpus-max", "3", "--json"]) == 0
    objects = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert [o["criterion"] for o in objects] == list(range(1, 13))
    for line, o in zip(text, objects):
        assert set(o) == {"criterion", "name", "passed", "detail", "seconds"}
        assert o["passed"] is True
        # the text line without its seconds
        assert line.startswith(f"[{o['criterion']:2d}/12] PASS {o['name']}: "
                               f"{o['detail']} (")


def test_suite_json_failure_keeps_the_exit_code_and_violation(capsys,
                                                             monkeypatch):
    monkeypatch.setattr(suite, "CRITERIA",
                        [("always-fails", lambda corpus_max: (False, "no"))])
    assert run(["suite", "--corpus-max", "1", "--json"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    assert json.loads(line)["passed"] is False
    assert json.loads(captured.err.splitlines()[-1]) == {
        "violation": "suite",
        "failed": [{"criterion": "always-fails", "detail": "no"}]}


@pytest.mark.parametrize("argv, usage, message", [
    (["bogus"], "usage: latglue [-h]", "invalid choice: 'bogus'"),
    (["check"], "usage: latglue check", "required: file, --property"),
    (["suite", "--corpus-max", "abc"], "usage: latglue suite",
     "invalid int value: 'abc'"),
], ids=["unknown-command", "check-without-file", "corpus-max-not-int"])
def test_usage_errors_exit_2_with_a_json_error(argv, usage, message, capsys):
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(usage)
    error = json.loads(captured.err.splitlines()[-1])
    assert list(error) == ["error"] and message in error["error"]


def test_help_exits_0_on_stdout(capsys):
    with pytest.raises(SystemExit) as e:
        run(["suite", "--help"])
    assert e.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: latglue suite") \
        and captured.err == ""



def test_glue_rejects_blocks_outside_the_skeleton(tmp_path, capsys):
    src = tmp_path / "ghost.json"
    d = lio.to_dict(fig_3by3_system())
    d["blocks"]["ghost"] = d["blocks"]["1"]
    src.write_text(json.dumps(d))
    assert run(["glue", str(src)]) == 2
    assert "ghost" in json.loads(capsys.readouterr().err.strip())["error"]


def test_skeleton_out_with_integer_ids_is_read_back_by_glue(tmp_path,
                                                            capsys):
    # the blocks are keyed by str(x) on the way out, the skeleton keeps 0
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"elements": [0, 1, 2, 3],
                               "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
    out = tmp_path / "sys.json"
    assert run(["skeleton", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["glue", str(out)]) == 0
    assert capsys.readouterr().out == \
        "valid glued system: 1 blocks, sum has 4 elements, length 2\n"
    loaded = lio.load(out)
    assert loaded.skeleton.elements == (0,) and list(loaded.blocks) == [0]


def test_connected_system_with_integer_skeleton_ids_is_read(tmp_path,
                                                            capsys):
    doc = {"skeleton": {"elements": [0, 1], "covers": [[0, 1]]},
           "blocks": {"0": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                      "1": {"elements": ["c", "d"], "covers": [["c", "d"]]}},
           "maps": [{"from": 0, "to": 1, "pairs": [["b", "c"]]}],
           "local": True}
    src = tmp_path / "local.json"
    src.write_text(json.dumps(doc))
    assert run(["connect", str(src)]) == 0
    assert capsys.readouterr().out == \
        "valid connected system: quotient sum has 3 elements, length 2\n"


def test_skeleton_ids_with_one_string_form_exit_2(tmp_path, capsys):
    # in the chain 1 < "1" < 2 the skeleton is {1, "1"}: a file can key
    # only one of their blocks "1", so --out refuses to write it, and
    # reading such a file back must not guess
    message = "LatticeError: skeleton elements 1 and '1' share the block key '1'"
    src = tmp_path / "chain.json"
    src.write_text(json.dumps({"elements": [1, "1", 2],
                               "covers": [[1, "1"], ["1", 2]]}))
    out, dot = tmp_path / "sys.json", tmp_path / "sys.dot"
    assert run(["skeleton", str(src), "--out", str(out), "--dot", str(dot)]) == 2
    assert json.loads(capsys.readouterr().err.strip()) \
        == {"error": message, "file": str(out)}
    assert not out.exists() and not dot.exists()
    block = {"elements": ["1"], "covers": []}
    doc = {"skeleton": {"elements": [1, "1"], "covers": [[1, "1"]]},
           "blocks": {"1": block}}
    for command in ("glue", "connect"):
        if command == "connect":
            doc["local"] = True
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        assert run([command, str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == message


def test_writer_refuses_skeleton_ids_with_one_string_form(tmp_path):
    S = FiniteLattice([1, "1"], [(1, "1")])
    blocks = {1: FiniteLattice(["p"], []), "1": FiniteLattice(["q"], [])}
    for obj in (GluedSystem(S, blocks), connect.ConnectedSystem(S, blocks, {})):
        path = tmp_path / f"{type(obj).__name__}.json"
        with pytest.raises(LatticeError, match="share the block key '1'"):
            lio.save(obj, path)
        assert not path.exists()


def test_repeated_json_key_exits_2(tmp_path, capsys):
    # json keeps the last of two equal keys, so block "1" would silently be
    # the second of the two listed
    d = lio.to_dict(fig_3by3_system())
    blocks = ", ".join(f'"{x}": {json.dumps(b)}' for x, b in d["blocks"].items())
    src = tmp_path / "repeated.json"
    src.write_text(f'{{"skeleton": {json.dumps(d["skeleton"])}, "blocks": '
                   f'{{"1": {json.dumps(d["blocks"]["2"])}, {blocks}}}}}')
    assert run(["glue", str(src)]) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert "LatticeError" in err and "'1'" in err


def test_dot_on_a_glued_system_without_a_sum_exits_2(tmp_path, capsys):
    src = tmp_path / "cycle.json"
    src.write_text(json.dumps({
        "skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
        "blocks": {"x": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                   "y": {"elements": ["b", "a"], "covers": [["b", "a"]]}}}))
    assert run(["dot", str(src)]) == 2
    assert "NotALattice" in json.loads(capsys.readouterr().err.strip())["error"]


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
    {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
     "blocks": {"x": {"elements": ["a"], "covers": []}},
     "maps": [{"from": "x", "to": "y", "pairs": []}]},
    {"skeleton": {"elements": ["x"], "covers": []},
     "blocks": {"x": {"elements": ["a"], "covers": []},
                "ghost": {"elements": ["g"], "covers": []}}, "maps": []},
    {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
     "blocks": {"x": {"elements": ["a"], "covers": []},
                "y": {"elements": ["b"], "covers": []}},
     "maps": [{"from": "q", "to": "y", "pairs": [["a", "b"]]}]},
    {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
     "blocks": {"x": {"elements": ["a"], "covers": []},
                "y": {"elements": ["b"], "covers": []}},
     "maps": [{"from": "q", "to": "y", "pairs": [["a", "b"]]}],
     "local": True},
    {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
     "blocks": {"x": {"elements": ["a"], "covers": []},
                "y": {"elements": ["b", "c"], "covers": [["b", "c"]]}},
     "maps": [{"from": "x", "to": "y", "pairs": [["a", "b"]]},
              {"from": "x", "to": "y", "pairs": [["a", "c"]]}]},
    {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
     "blocks": {"x": {"elements": ["a"], "covers": []},
                "y": {"elements": ["b", "c"], "covers": [["b", "c"]]}},
     "maps": [{"from": "x", "to": "y", "pairs": [["a", "b"], ["a", "c"]]}]},
], ids=["integer-element-id", "map-pair-not-a-pair", "missing-block",
        "block-outside-skeleton", "map-from-unknown-element",
        "local-map-from-unknown-element", "map-listed-twice",
        "map-source-listed-twice"])
def test_malformed_connected_systems_exit_2(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["connect", str(bad)]) == 2
    assert "LatticeError" in json.loads(capsys.readouterr().err.strip())["error"]


def _two_blocks(*maps):
    """Skeleton 0 < 1 over blocks a < b and c < d, with the given maps."""
    return {"skeleton": {"elements": ["0", "1"], "covers": [["0", "1"]]},
            "blocks": {"0": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                       "1": {"elements": ["c", "d"], "covers": [["c", "d"]]}},
            "maps": [{"from": x, "to": y, "pairs": pairs}
                     for x, y, pairs in maps]}


def test_map_entry_outside_its_blocks_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_two_blocks(("0", "1", [["zzz", "c"]]))))
    assert run(["connect", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] \
        == "UnknownElement: map '0' -> '1': 'zzz' is not an element of block '0'"


@pytest.mark.parametrize("pairs", [[["c", "c"]], [["c", "d"]]],
                         ids=["identity", "moves"])
def test_map_on_a_diagonal_pair_violates_17(pairs, tmp_path, capsys):
    bad = tmp_path / "diagonal.json"
    bad.write_text(json.dumps(_two_blocks(("0", "1", [["b", "c"]]),
                                          ("1", "1", pairs))))
    assert run(["connect", str(bad)]) == 1
    violation = json.loads(capsys.readouterr().err.strip())
    assert violation["conditions"] == [{"condition": "17", "pair": ["1", "1"],
                                        "witness": "map on a diagonal pair"}]


def cli_under_hash_seed(argv, seed):
    """`latglue argv` in a fresh interpreter with PYTHONHASHSEED=seed."""
    src = os.path.dirname(os.path.dirname(latglue.__file__))
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "latglue.cli", *argv],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered-after-one-line", "buffered"])
def test_a_reader_that_closes_stdout_early_gets_141_and_no_traceback(
        unbuffered):
    """`latglue suite --corpus-max 7 | head -1`: the write that meets the
    closed pipe ends the run with 141, not 1, and stderr stays empty.
    Unbuffered, the reader takes one line first and the next print meets
    the closed pipe; buffered, it closes at once and main's flush meets
    it, as the flush at exit would have."""
    src = os.path.dirname(os.path.dirname(latglue.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    p = subprocess.Popen([sys.executable, "-m", "latglue.cli", "suite",
                          "--corpus-max", "7"], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if unbuffered:
        assert p.stdout.readline().startswith(b"[ 1/12] PASS roundtrip")
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert (p.wait(), err) == (141, b"")


@pytest.mark.parametrize("argv", [["m3xc1"], ["square_over_m3"],
                                  ["distributive_over_b2"],
                                  ["grid", "11", "12"]],
                         ids=lambda argv: "-".join(argv))
def test_construct_output_does_not_depend_on_hash_seed(argv):
    # covers are listed in the order the factors list theirs, not in the
    # order a set of ids iterates
    outs = [cli_under_hash_seed(["construct", *argv], seed)
            for seed in ("1", "2")]
    assert [done.returncode for done in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout


def test_order_mismatch_witness_does_not_depend_on_hash_seed(tmp_path):
    doc = {"skeleton": {"elements": ["0", "1"], "covers": [["0", "1"]]},
           "blocks": {"0": {"elements": ["a", "b", "c"],
                            "covers": [["a", "b"], ["b", "c"]]},
                      "1": {"elements": ["d", "e", "f"],
                            "covers": [["d", "e"], ["e", "f"]]}},
           "maps": [{"from": "0", "to": "1",
                     "pairs": [["c", "d"], ["b", "e"], ["a", "f"]]}]}
    bad = tmp_path / "reversing.json"
    bad.write_text(json.dumps(doc))
    errs = []
    for seed in ("1", "2", "3", "4", "5", "6"):
        done = cli_under_hash_seed(["connect", str(bad)], seed)
        assert done.returncode == 1
        errs.append(done.stderr)
    assert len(set(errs)) == 1
    (mismatch,) = [v for v in json.loads(errs[0])["conditions"]
                   if v["condition"] == "17"]
    assert mismatch["witness"] == ["order mismatch", "0:c", "0:b"]


MIXED_IDS = {"elements": [0, 1, "b", 2],
             "covers": [[0, 1], [0, "b"], [1, 2], ["b", 2]]}


def test_mixed_ids_do_not_depend_on_hash_seed(tmp_path):
    # 0 has an int and a str upper cover; every property is decided in
    # index space, so none sorts ids.  The square is not simple: check
    # exits 1 with that one violation, every other run exits 0.
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_IDS))
    check = ["check", str(path)]
    for p in [*cli.PROPERTIES, "n-distributive:2"]:
        check += ["--property", p]
    runs = [check, ["dot", str(path)],
            ["skeleton", str(path), "--out", str(tmp_path / "sys.json")],
            ["glue", str(tmp_path / "sys.json")]]
    seen = []
    for seed in ("1", "2", "3"):
        done = [cli_under_hash_seed(argv, seed) for argv in runs]
        assert [d.returncode for d in done] == [1, 0, 0, 0], \
            [d.stderr for d in done]
        seen.append([(d.stdout, d.stderr) for d in done])
    assert seen[0] == seen[1] == seen[2]
    (out, err), *_ = seen[0]
    assert out == ("modular: true\nsemimodular: true\n"
                   "dual-semimodular: true\ndistributive: true\n"
                   "atomistic: true\nsimple: false\nbreadth: 2\n"
                   "n-distributive:2: true\n")
    assert json.loads(err) == {"violation": "property", "property": "simple",
                               "file": str(path)}


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    path = tmp_path / "grid.json"
    assert run(["construct", "grid", "3", "4", "--out", str(path)]) == 0
    out, dot = tmp_path / "sys.json", tmp_path / "grid.dot"
    assert run(["skeleton", str(path), "--out", str(out),
                "--dot", str(dot)]) == 0
    assert out.exists() and dot.exists()
    out.unlink()
    dot.unlink()
    capsys.readouterr()
    assert run(["skeleton", str(path)]) == 0
    second = capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == ["grid.json"]
    assert cli._build_parser() is cli._build_parser()
    src = os.path.dirname(os.path.dirname(latglue.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "latglue.cli", "skeleton",
                            str(path)], env=env, capture_output=True,
                           text=True)
    assert fresh.returncode == 0
    assert (second.out, second.err) == (fresh.stdout, fresh.stderr)


CHAIN3 = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}


@pytest.mark.parametrize("command, doc, field", [
    ("check", {"elements": "abc", "covers": [["a", "b"], ["b", "c"]]},
     "elements"),
    ("check", {"elements": {"a": 1, "b": 2, "c": 3},
               "covers": [["a", "b"], ["b", "c"]]}, "elements"),
    ("check", {"elements": ["a", "b"], "covers": {"a": "b"}}, "covers"),
    ("check", {**CHAIN3, "blocks": {"a": CHAIN3}}, "blocks"),
    ("glue", {"skeleton": {"elements": ["x"], "covers": []},
              "blocks": {"x": {"elements": "abc", "covers": []}}},
     "elements"),
    ("glue", {"skeleton": {"elements": ["x"], "covers": []},
              "blocks": {"x": {**CHAIN3, "note": "kept?"}}}, "note"),
    ("glue", {"skeleton": {"elements": ["x"], "covers": []},
              "blocks": {"x": CHAIN3}, "extra": 1}, "extra"),
    ("glue", {"skeleton": {"elements": ["x"], "covers": [], "size": 1},
              "blocks": {"x": CHAIN3}}, "size"),
], ids=["elements-string", "elements-object", "covers-object",
        "lattice-with-blocks", "block-elements-string", "block-unknown-key",
        "glued-unknown-key", "skeleton-unknown-key"])
def test_misshapen_fields_exit_2_naming_the_field(command, doc, field,
                                                   tmp_path, capsys):
    # a string or object iterated as an array, or a key that is dropped,
    # would load a different lattice or system than the file describes
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(bad)]
    if command == "check":
        argv += ["--property", "distributive"]
    assert run(argv) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert repr(field) in error


@pytest.mark.parametrize("doc, field", [
    ({"skeleton": {"elements": ["x"], "covers": []},
      "blocks": {"x": {"elements": ["a"], "covers": []}},
      "maps": {"from": "x"}}, "maps"),
    ({"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
      "blocks": {"x": {"elements": ["a"], "covers": []},
                 "y": {"elements": ["b"], "covers": []}},
      "maps": [{"from": "x", "to": "y", "pairs": "ab"}]}, "pairs"),
    ({"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
      "blocks": {"x": {"elements": ["a"], "covers": []},
                 "y": {"elements": ["b"], "covers": []}},
      "maps": [{"from": "x", "to": "y", "pairs": [["a", "b"]],
                "via": "z"}]}, "via"),
    ({"skeleton": {"elements": ["x"], "covers": []},
      "blocks": {"x": {"elements": "ab", "covers": []}}, "maps": []},
     "elements"),
    ({"skeleton": {"elements": ["x"], "covers": []},
      "blocks": {"x": {"elements": ["a"], "covers": []}}, "maps": [],
      "local": "yes"}, "local"),
], ids=["maps-object", "pairs-string", "map-unknown-key",
        "block-elements-string", "local-not-a-boolean"])
def test_misshapen_connected_fields_exit_2_naming_the_field(doc, field,
                                                             tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["connect", str(bad)]) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert repr(field) in error


BLOCK_ERRORS = {
    "cycle": ({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]},
              "CycleDetected: block 'y': cover digraph contains a cycle"),
    "empty": ({"elements": [], "covers": []},
              "NotBounded: block 'y': empty element list"),
    "duplicate": ({"elements": ["a", "b", "a"], "covers": [["a", "b"]]},
                  "LatticeError: block 'y': duplicate element ids: "
                  "'a' is repeated"),
    # one id without the block's prefix: the connect reader prefixes them
    # all, but builds the block, and so names its ids, as the file does
    "two-tops": ({"elements": ["y:0", "y:1", "extra"],
                  "covers": [["y:0", "y:1"], ["y:0", "extra"]]},
                 "NotBounded: block 'y': minimal elements ['y:0'], "
                 "maximal elements ['y:1', 'extra']"),
}


@pytest.mark.parametrize("command", ["glue", "connect"])
@pytest.mark.parametrize("kind", sorted(BLOCK_ERRORS))
def test_block_errors_name_their_block(command, kind, tmp_path, capsys):
    # both readers build every block in one batch; the error still names
    # the block it was raised for, after a valid one, and keeps its text,
    # in the file's ids
    block, message = BLOCK_ERRORS[kind]
    doc = {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
           "blocks": {"x": {"elements": ["p", "q"], "covers": [["p", "q"]]},
                      "y": block}}
    if command == "connect":
        doc["local"] = True
    src = tmp_path / f"{kind}.json"
    src.write_text(json.dumps(doc))
    assert run([command, str(src)]) == 2
    assert json.loads(capsys.readouterr().err.strip()) \
        == {"error": message, "file": str(src)}


def test_map_errors_name_their_map(tmp_path, capsys):
    doc = {"skeleton": {"elements": ["x", "y"], "covers": [["x", "y"]]},
           "blocks": {"x": {"elements": ["p", "q"], "covers": [["p", "q"]]},
                      "y": {"elements": ["r"], "covers": []}},
           "maps": [{"from": "x", "to": "y", "pairs": [["q", "r"], ["q", 5]]}]}
    src = tmp_path / "map.json"
    src.write_text(json.dumps(doc))
    assert run(["connect", str(src)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] \
        == "LatticeError: map 'x' -> 'y': source 'q' is listed twice"
    doc["maps"][0]["pairs"] = [["q", 5]]
    src.write_text(json.dumps(doc))
    assert run(["connect", str(src)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] \
        == "LatticeError: map 'x' -> 'y': element id 5 is not a string"
    # an id its block lacks is named as the file names it, source or target
    for pair, block in ((["zz", "r"], "x"), (["q", "zz"], "y")):
        doc["maps"][0]["pairs"] = [pair]
        src.write_text(json.dumps(doc))
        assert run(["connect", str(src)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] \
            == "UnknownElement: map 'x' -> 'y': 'zz' is not an element " \
               f"of block {block!r}"


TWO_BLOCKS = {"x": {"elements": ["p"], "covers": []},
              "y": {"elements": ["r"], "covers": []}}
SKELETON_XY = {"elements": ["x", "y"], "covers": [["x", "y"]]}


@pytest.mark.parametrize("command, doc, message", [
    ("glue", {"skeleton": SKELETON_XY,
              "blocks": {**TWO_BLOCKS, "y": {"covers": []}}},
     "block 'y': missing field 'elements'"),
    ("glue", {"skeleton": SKELETON_XY,
              "blocks": {**TWO_BLOCKS, "x": {"elements": ["p"]}}},
     "block 'x': missing field 'covers'"),
    ("connect", {"skeleton": SKELETON_XY, "maps": []},
     "missing field 'blocks'"),
    ("connect", {"blocks": TWO_BLOCKS, "local": True},
     "missing field 'skeleton'"),
    ("connect", {"skeleton": SKELETON_XY, "blocks": TWO_BLOCKS,
                 "maps": [{"to": "y", "pairs": [["p", "r"]]}]},
     "map: missing field 'from'"),
    ("connect", {"skeleton": SKELETON_XY, "blocks": TWO_BLOCKS,
                 "maps": [{"from": "x", "pairs": [["p", "r"]]}]},
     "map from 'x': missing field 'to'"),
    ("connect", {"skeleton": SKELETON_XY, "blocks": TWO_BLOCKS,
                 "maps": [{"from": "x", "to": "y"}]},
     "map 'x' -> 'y': missing field 'pairs'"),
    ("check", {"covers": []}, "missing field 'elements'"),
], ids=["block-elements", "block-covers", "blocks", "skeleton", "map-from",
        "map-to", "map-pairs", "elements"])
def test_missing_fields_exit_2_naming_them(command, doc, message, tmp_path,
                                           capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(bad)]
    if command == "check":
        argv += ["--property", "modular"]
    assert run(argv) == 2
    assert json.loads(capsys.readouterr().err.strip()) \
        == {"error": f"LatticeError: {message}", "file": str(bad)}


# -- output paths that cannot be written, files that cannot be decoded -------

# a fixture each command reads, by the name `construct` knows it by
INPUTS = {"skeleton": "m3", "glue": "fig_3by3", "connect": "projective_local",
          "dot": "m3"}


@pytest.mark.parametrize("command, flag", [
    ("construct", "--out"), ("construct", "--dot"),
    *[(c, f) for c in ("skeleton", "glue", "connect") for f in ("--out", "--dot")],
    ("dot", "--out")])
def test_an_output_path_in_a_missing_directory_exits_2(command, flag,
                                                       tmp_path, capsys):
    if command == "construct":
        argv = ["construct", "m3"]
    else:
        src = tmp_path / "in.json"
        assert run(["construct", INPUTS[command], "--out", str(src)]) == 0
        argv = [command, str(src)]
    path = tmp_path / "missing" / "x"
    capsys.readouterr()
    assert run([*argv, flag, str(path)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["file"] == str(path) and "FileNotFoundError" in err["error"]
    assert not (tmp_path / "missing").exists()


# raw bytes, which no JSON document the fuzz tests write can hold
RAW = {"not-utf-8": b"\xff", "too-deep": b"[" * 100_000 + b"]" * 100_000}


@pytest.mark.parametrize("command", ["check", "glue", "connect", "skeleton",
                                     "dot"])
@pytest.mark.parametrize("raw", sorted(RAW))
def test_undecodable_and_over_deep_files_exit_2(command, raw, tmp_path,
                                                capsys):
    path = tmp_path / "raw.json"
    path.write_bytes(RAW[raw])
    argv = [command, str(path)]
    if command == "check":
        argv += ["--property", "modular"]
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["file"] == str(path)


# -- fresh interpreters under python -O ------------------------------------------
#
# In this process every module is loaded already, so only a fresh
# interpreter shows what a command loads, and that a module it imports on
# first use is imported where it is needed.  `import latglue.cli` loads
# what `skeleton` runs, which covers `check`, `glue` and `dot`; `connect`
# adds `connect`, `construct` adds `constructions` (which imports
# `connect`) and `suite` loads every module.

LOADED = {"latglue", "latglue.cli", "latglue.core", "latglue.glue",
          "latglue.io", "latglue.predicates", "latglue.skeleton"}
WITH_CONNECT = LOADED | {"latglue.connect"}
WITH_CONSTRUCTIONS = WITH_CONNECT | {"latglue.constructions"}
EVERY = WITH_CONSTRUCTIONS | {"latglue.hom", "latglue.suite"}

# argv: the file to record the loaded modules in, then the command, if any
FRESH = """
import json, sys
try:
    from latglue.cli import main
    code = main(sys.argv[2:]) if sys.argv[2:] else 0
finally:
    with open(sys.argv[1], "w") as f:
        json.dump([m for m in sys.modules if m.split(".")[0] == "latglue"], f)
sys.exit(code)
"""


def _env():
    """The environment with this checkout's library first on the path."""
    src = os.path.dirname(os.path.dirname(latglue.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def fresh(cwd, *argv, want=0, loaded=LOADED):
    """`latglue argv` run by `main` in a fresh `python -O` interpreter in
    the directory `cwd`; asserts its exit code is `want` and the set of
    library modules it had loaded at exit is `loaded`, and returns it."""
    fd, record = tempfile.mkstemp(suffix=".json", dir=cwd)
    os.close(fd)
    done = subprocess.run([sys.executable, "-O", "-c", FRESH, record, *argv],
                          cwd=cwd, env=_env(), capture_output=True, text=True)
    assert done.returncode == want, (argv, done.stdout, done.stderr)
    with open(record) as f:
        assert set(json.load(f)) == loaded, argv
    os.remove(record)
    return done


def test_a_fresh_import_loads_what_skeleton_runs(tmp_path):
    fresh(tmp_path)


def test_skeleton_request_and_its_system_glued_back(tmp_path):
    """The interval and (A1)/(A2) checks, the lazily built blocks and the
    hand-made system's `validate` do not rest on assert."""
    fresh(tmp_path, "construct", "grid", "11", "12", "--out", "g.json",
          loaded=WITH_CONSTRUCTIONS)
    fresh(tmp_path, "skeleton", "g.json", "--out", "gs.json")
    fresh(tmp_path, "glue", "gs.json")
    fresh(tmp_path, "dot", "g.json")


def test_boolean8_skeleton_request(tmp_path):
    """The Möbius join/meet tables and their certificate do not rest on
    assert."""
    fresh(tmp_path, "construct", "boolean", "8", "--out", "b8.json",
          loaded=WITH_CONSTRUCTIONS)
    done = fresh(tmp_path, "skeleton", "b8.json")
    assert done.stdout.splitlines()[-1] == "roundtrip: OK"


def test_skeleton_out_on_the_chain_1_str1_2_is_refused_before_writing(
        tmp_path):
    """The chain 1 < "1" < 2: its skeleton's two block keys are both "1"."""
    (tmp_path / "one-key.json").write_text(json.dumps(
        {"elements": [1, "1", 2], "covers": [[1, "1"], ["1", 2]]}))
    fresh(tmp_path, "skeleton", "one-key.json", "--out", "one-key-sys.json",
          want=2)
    assert not (tmp_path / "one-key-sys.json").exists()


def test_a_bowtie_is_refused_as_malformed(tmp_path):
    """0 < a, b < c, d < 1: a and b have no least upper bound."""
    (tmp_path / "bowtie.json").write_text(json.dumps(
        {"elements": ["0", "a", "b", "c", "d", "1"],
         "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"],
                    ["b", "c"], ["b", "d"], ["c", "1"], ["d", "1"]]}))
    fresh(tmp_path, "check", "bowtie.json", "--property", "modular", want=2)


def test_suite_corpus_max_9_is_refused_as_malformed(tmp_path):
    fresh(tmp_path, "suite", "--corpus-max", "9", want=2, loaded=EVERY)


def test_check_decides_every_property_on_a_lattice_mixing_int_and_str_ids(
        tmp_path):
    """Exit 0 for each verdict that holds, 1 for simple: the square is not
    simple."""
    (tmp_path / "mixed.json").write_text(json.dumps(MIXED_IDS))
    want = {"modular": 0, "semimodular": 0, "dual-semimodular": 0,
            "distributive": 0, "atomistic": 0, "breadth": 0,
            "n-distributive:2": 0, "simple": 1}
    with ThreadPoolExecutor(2) as pool:  # two interpreters at a time
        list(pool.map(lambda p: fresh(tmp_path, "check", "mixed.json",
                                      "--property", p, want=want[p]), want))


def test_connect_loads_connect(tmp_path):
    (tmp_path / "cs.json").write_text(json.dumps(
        _two_blocks(("0", "1", [["b", "c"]]))))
    fresh(tmp_path, "connect", "cs.json", loaded=WITH_CONNECT)


def test_suite_loads_every_module(tmp_path):
    done = fresh(tmp_path, "suite", "--corpus-max", "3", loaded=EVERY)
    assert done.stdout.count("PASS") == 12


PACKAGE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "latglue")
import latglue
out = {"import": loaded()}
out["connect"] = latglue.connect.__name__
from latglue import LatticeHom
out["hom"] = loaded()
ns = {}
exec("from latglue import *", ns)
out["star"] = sorted(k for k in ns if k != "__builtins__")
try:
    latglue.nothing
except AttributeError as e:
    out["missing"] = str(e)
print(json.dumps(out))
"""


def test_the_package_resolves_connect_and_hom_on_first_use():
    done = subprocess.run([sys.executable, "-O", "-c", PACKAGE], env=_env(),
                          capture_output=True, text=True, check=True)
    out = json.loads(done.stdout)
    assert out["import"] == sorted({"latglue", "latglue.core", "latglue.glue",
                                    "latglue.predicates", "latglue.skeleton"})
    assert out["connect"] == "latglue.connect"
    assert "latglue.hom" in out["hom"] and "latglue.suite" not in out["hom"]
    assert out["star"] == sorted(
        ["ConnectedSystem", "CycleDetected", "FiniteLattice", "GlueViolation",
         "GluedSystem", "Interval", "LatticeError", "LatticeHom",
         "LocalConnectedSystem", "NoUniqueJoin", "NoUniqueMeet",
         "NotALattice", "NotBounded", "NotComparable", "NotModular",
         "NotModularSkeleton", "NotTransitiveReduction",
         "SkeletonDecomposition", "UnknownElement", "connect", "core",
         "find_isomorphism", "glue", "hom", "predicates", "product",
         "skeleton"])
    assert out["missing"] == "module 'latglue' has no attribute 'nothing'"
