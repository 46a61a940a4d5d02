"""The exit-code contract under arbitrary input files: whatever the
document, `latglue` returns 0, 1 or 2 and raises nothing, and on 1 or 2
the last line on stderr is a JSON object."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from latglue import cli

# JSON ints among the names, so that lattices mix int and str ids
NAMES = ["0", "1", "a", "b", "c", "x", "y", "x:a", 0, 1, 2]

# mostly names, sometimes a value of the wrong JSON type
atoms = st.one_of(st.sampled_from(NAMES), st.sampled_from(NAMES),
                  st.sampled_from(NAMES), st.none(), st.integers(-2, 2),
                  st.booleans(), st.lists(st.sampled_from(NAMES), max_size=2))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
              st.sampled_from(NAMES)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(NAMES), inner,
                                            max_size=3)),
    max_leaves=6)


def _pairs(max_size):
    return st.lists(st.one_of(st.lists(atoms, min_size=2, max_size=2),
                              st.lists(atoms, max_size=3), atoms),
                    max_size=max_size)


def _chain(names):
    return {"elements": names,
            "covers": [list(c) for c in zip(names, names[1:])]}


def _square(names):
    lo, b, c, hi = names
    return {"elements": names,
            "covers": [[lo, b], [lo, c], [b, hi], [c, hi]]}


# chains and squares over the shared names are real lattices, so that
# deeper checks run; a square's bottom and top have two covers each
chains = st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                  unique=True).map(_chain)
squares = st.lists(st.sampled_from(NAMES), min_size=4, max_size=4,
                   unique=True).map(_square)
lattices = st.one_of(
    st.fixed_dictionaries({"elements": st.lists(atoms, max_size=5),
                           "covers": _pairs(6)}),
    chains, squares, json_values)
SQUARE = {"elements": ["x", "y", "z", "w"],
          "covers": [["x", "y"], ["x", "z"], ["y", "w"], ["z", "w"]]}
skeletons = st.one_of(
    st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3,
             unique=True).map(_chain),
    st.just(SQUARE))


@st.composite
def systems(draw):
    """A skeleton with a block at each element (now and then one missing
    or one extra) and maps along its covers between block names."""
    S = draw(skeletons)
    keys = list(S["elements"])
    if draw(st.integers(0, 9)) == 0:
        keys = keys[1:] if draw(st.booleans()) else keys + ["ghost"]
    blocks = {k: draw(st.one_of(chains, chains, lattices)) for k in keys}
    pairs = st.lists(st.lists(st.sampled_from(NAMES), min_size=2,
                              max_size=2), min_size=1, max_size=2)
    maps = [{"from": lo, "to": hi, "pairs": draw(pairs)}
            for lo, hi in S["covers"]]
    return {"skeleton": S, "blocks": blocks}, maps


glued = st.one_of(
    systems().map(lambda sm: sm[0]),
    st.fixed_dictionaries(
        {"skeleton": lattices,
         "blocks": st.one_of(st.dictionaries(st.sampled_from(NAMES),
                                             lattices, max_size=3),
                             json_values)}))
maps = st.lists(st.one_of(
    st.fixed_dictionaries({"from": atoms, "to": atoms, "pairs": _pairs(3)}),
    json_values), max_size=3)
connected = st.one_of(
    st.builds(lambda sm, local: {**sm[0], "maps": sm[1], **local},
              systems(), st.sampled_from([{}, {"local": True}])),
    st.builds(lambda g, m, local: {**g, "maps": m, **local},
              glued, maps,
              st.sampled_from([{}, {"local": True}, {"local": 1}])))
# every property on each lattice, n-distributive with a drawn n
checks = st.tuples(
    st.integers(1, 3).map(lambda n: ["check", "{}", *(
        a for p in [*cli.PROPERTIES, f"n-distributive:{n}"]
        for a in ("--property", p))]),
    lattices)
documents = st.one_of(
    checks,
    st.tuples(st.just(["dot", "{}"]), st.one_of(lattices, glued)),
    st.tuples(st.just(["skeleton", "{}"]), lattices),
    st.tuples(st.just(["glue", "{}"]), glued),
    st.tuples(st.just(["connect", "{}"]), connected))


@settings(derandomize=True, database=None, max_examples=300,
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_exit_codes_follow_the_contract(case):
    argv, doc = case
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(path) for a in argv])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2), (code, err.getvalue())
    if code:
        assert isinstance(json.loads(err.getvalue().splitlines()[-1]), dict)
