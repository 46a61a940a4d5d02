"""One `latglue connect` request on a locally connected file: the bytes it
writes against the id-level oracles, each index structure built once, the
lazily read maps of an elevated system, the membership record handed to
the quotient, the height-sorted cover recurrence, and block namespacing
that never merges two (block, id) pairs."""

import collections
import itertools
import json
import random

import numpy as np
import pytest

from oracles import oracle_connected_sum, oracle_elevate, oracle_fill
from latglue import cli, connect, glue
from latglue import io as lio
from latglue.connect import ConnectedSystem, LocalConnectedSystem, \
    connected_sum, elevate, local_system
from latglue.constructions import chain, enumerate_lattices, grid, m3
from latglue.core import FiniteLattice, LatticeError, product
from latglue.skeleton import decompose


def _relabelled(M, rng):
    """M with fresh ids, and its elements and covers in seeded order."""
    fresh = rng.sample(range(M.n), M.n)
    name = {a: f"e{k}" for a, k in zip(M.elements, fresh)}
    elements = [name[a] for a in M.elements]
    covers = [(name[a], name[b]) for a, b in M.covers]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return FiniteLattice(elements, covers)


def _local_doc(M, rng):
    """decompose(M) cut into disjoint block copies by the bridge, as a
    local-system document whose cover maps identify each overlap with
    itself; elements, covers, maps and pairs in seeded order."""
    doc = lio.to_dict(local_system(decompose(M).system)[0])
    for m in doc["maps"]:
        rng.shuffle(m["pairs"])
    rng.shuffle(doc["maps"])
    for L in (doc["skeleton"], *doc["blocks"].values()):
        rng.shuffle(L["elements"])
        rng.shuffle(L["covers"])
    return doc


SHAPES = {"grid(2,3)": lambda: grid(2, 3), "grid(3,3)": lambda: grid(3, 3),
          "grid(3,5)": lambda: grid(3, 5), "grid(4,4)": lambda: grid(4, 4),
          "M3xC2": lambda: product(m3(), chain(2)),
          "M3xC3": lambda: product(m3(), chain(3))}


def _write_local(tmp_path, name, seed):
    rng = random.Random(f"{name}:{seed}")
    path = tmp_path / "local.json"
    path.write_text(json.dumps(_local_doc(_relabelled(SHAPES[name](), rng),
                                          rng)))
    return path


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SHAPES)
def test_connect_out_is_the_oracle_paths_bytes(name, seed, tmp_path, capsys):
    path = _write_local(tmp_path, name, seed)
    assert cli.main(["connect", str(path), "--out",
                     str(tmp_path / "got.json")]) == 0
    lcs = lio.load(path)
    ref = oracle_elevate(lcs)
    lio.save(oracle_connected_sum(ref)[0], tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() \
        == (tmp_path / "want.json").read_bytes()
    cs = elevate(lcs)
    assert lio.connected_to_dict(cs) == lio.connected_to_dict(ref)
    assert list(cs.maps) == list(ref.maps)
    # each dict in its source block's order
    assert all(list(m) == sorted(m, key=cs.blocks[x].index)
               for (x, _), m in cs.maps.items())


def test_a_connect_request_builds_each_index_structure_once(
        tmp_path, monkeypatch, capsys):
    path = _write_local(tmp_path, "grid(4,4)", 0)
    calls = collections.Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    # the block tables are counted in both modules: connect's kernels and
    # the quotient's membership record share one build
    for owner, name in ((connect, "_map_tensor"), (connect, "_block_tables"),
                        (glue, "_block_tables"), (connect, "_check_disjoint"),
                        (glue, "_membership"),
                        (connect.TensorMaps, "_pair_dict")):
        count(owner, name)
    assert cli.main(["connect", str(path)]) == 0
    assert "quotient sum has 25 elements" in capsys.readouterr().out
    assert calls == {"_map_tensor": 1, "_block_tables": 1,
                     "_check_disjoint": 1}
    # the counters see the id dicts and the id-level record when they are built
    cs = elevate(lio.load(path))
    next(iter(cs.maps.values()))
    glue.GluedSystem(cs.skeleton, cs.blocks).carrier()
    assert calls["_pair_dict"] == 1 and calls["_membership"] == 1


def _grid_local(p, q):
    rng = random.Random(f"grid({p},{q})")
    return lio.connected_from_dict(_local_doc(grid(p, q), rng))


def test_elevated_maps_are_read_from_the_tensor_pair_by_pair():
    lcs = _grid_local(3, 3)
    cs, ref = elevate(lcs), oracle_elevate(lcs)
    assert len(cs.maps) == len(ref.maps) and not cs.maps._built
    S = cs.skeleton
    x, y = next(iter(ref.maps))
    assert cs.maps[(x, y)] == ref.maps[(x, y)]
    assert list(cs.maps._built) == [(x, y)]
    assert cs.maps[(x, y)] is cs.maps[(x, y)]
    top, bottom = S.top, S.bottom
    for key in [(top, bottom), (x, x), (x,), "xy", (x, y, y), (x, "nowhere")]:
        assert key not in cs.maps and cs.maps.get(key) is None
        with pytest.raises(KeyError):
            cs.maps[key]
    assert cs.phi(top, bottom) == {} and cs.phi(x, x) == {
        a: a for a in cs.blocks[x].elements}
    with pytest.raises(TypeError):
        cs.maps[(x, y)] = {}
    assert cs.maps == ref.maps and dict(cs.maps) == ref.maps
    assert repr(cs.maps) == f"TensorMaps({len(ref.maps)} maps)"


def test_a_map_on_a_diagonal_pair_is_refused_before_it_collapses_the_quotient():
    """(17) refuses a map on a diagonal pair, so connected_sum raises the
    check's list; the oracle, which checks no condition first, finds the
    collapse such a map makes."""
    cs = elevate(_grid_local(2, 3))
    x = next(x for x in cs.skeleton.elements if cs.blocks[x].n > 1)
    L = cs.blocks[x]
    bad = ConnectedSystem(cs.skeleton, cs.blocks,
                          {**cs.maps, (x, x): {L.bottom: L.top}})
    assert [(v.condition, v.pair, v.witness) for v in bad._violations] \
        == [("17", (x, x), "map on a diagonal pair")]
    with pytest.raises(LatticeError) as e:
        connected_sum(bad)
    assert str(e.value) == f"invalid connected system: {bad._violations}"
    with pytest.raises(LatticeError,
                       match=f"quotient collapses block {x!r} internally"):
        oracle_connected_sum(bad)


def test_a_local_system_is_read_only_and_keeps_its_own_copies():
    lcs = _grid_local(3, 3)
    S = lcs.skeleton
    key = next(iter(lcs.maps))
    x, y = key
    with pytest.raises(TypeError):
        lcs.maps[key] = {}
    with pytest.raises(TypeError):
        lcs.blocks[x] = lcs.blocks[y]
    with pytest.raises(TypeError):
        lcs.maps[key][next(iter(lcs.maps[key]))] = None
    blocks = dict(lcs.blocks)
    maps = {k: dict(m) for k, m in lcs.maps.items()}
    mine = LocalConnectedSystem(S, blocks, maps)
    phi = mine._tensor[0].copy()
    with pytest.raises(ValueError):
        mine._tensor[0][0, 0, 0] = 1
    maps[key].clear()
    del maps[next(k for k in maps if k != key)]
    blocks[x] = blocks[y]
    assert np.array_equal(mine._tensor[0], phi)
    assert mine.maps == lcs.maps and mine.blocks == lcs.blocks
    assert elevate(mine).maps == oracle_elevate(lcs).maps


@pytest.mark.parametrize("p, q", [(1, 3), (2, 2), (3, 4), (4, 4)])
def test_the_quotient_gets_the_id_level_membership_record(p, q):
    """The record connected_sum hands over from the component labels is the
    one `_membership` builds from the quotient's ids, with the connected
    system's block tables; on the same maps given whole too, a system the
    check accepts.  Maps on a non-comparable and on a diagonal pair, even
    within classes the maps already identify, are refused by (17) before
    any record is built."""
    cs = elevate(_grid_local(p, q))
    S = cs.skeleton
    systems = [cs, ConnectedSystem(S, cs.blocks, cs.maps)]
    for x, y in itertools.product(S.elements, repeat=2):
        w = S.meet(x, y)
        common = set(cs.phi(w, x)) & set(cs.phi(w, y))
        if not S.leq(x, y) and common:
            a = min(common)
            b = cs.phi(w, x)[a]
            for maps in ({(x, y): {b: cs.phi(w, y)[a]}}, {(x, x): {b: b}}):
                refused = ConnectedSystem(S, cs.blocks, {**cs.maps, **maps})
                (pair,) = maps
                assert [(v.condition, v.pair) for v in refused._violations] \
                    == [("17", pair)]
                with pytest.raises(LatticeError,
                                   match="^invalid connected system: "):
                    connected_sum(refused)
            break
    assert systems[1]._violations == []
    for sys_ in systems:
        gsys, _ = connected_sum(sys_)
        assert "_members" in vars(gsys)
        got, want = gsys._members, glue._membership(gsys)
        # the blocks' tables are the connected system's, not rebuilt
        assert got.join is sys_._tables[1] and got.meet is sys_._tables[2]
        for field, value in zip(want._fields, want):
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(got, field), value), field
            else:
                assert getattr(got, field) == value, field


def _random_cover_maps(S, b, rng):
    """A phi tensor with random partial index maps on the covers of S."""
    phi = np.full((S.n, S.n, b), -1, dtype=np.intp)
    phi[np.arange(S.n), np.arange(S.n)] = np.arange(b)
    for i, j in S._cov:
        image = rng.sample(range(b), rng.randint(0, b))
        phi[i, j, rng.sample(range(b), len(image))] = image
    return phi


def test_the_height_sorted_fill_matches_the_per_height_oracle():
    rng = random.Random(7)
    lattices = list(enumerate_lattices(6)) + [grid(3, 4), product(m3(), chain(2))]
    for S in lattices:
        for T in (S, S.dual()):
            for b in (1, 3):
                phi = _random_cover_maps(T, b, rng)
                want = phi.copy()
                oracle_fill(T, want)
                glue._fill(T, phi)
                assert np.array_equal(phi, want)


# -- namespacing ---------------------------------------------------------------

COLLIDING = {
    # block "a" lists "b:c" and block "a:b" lists "c"
    "across": {"skeleton": {"elements": ["a", "a:b"], "covers": [["a", "a:b"]]},
               "blocks": {"a": {"elements": ["b:c", "t"],
                                "covers": [["b:c", "t"]]},
                          "a:b": {"elements": ["c", "d"],
                                  "covers": [["c", "d"]]}},
               "maps": [{"from": "a", "to": "a:b", "pairs": [["t", "c"]]}],
               "local": True},
    # block "a" lists both "z" and "a:z"
    "within": {"skeleton": {"elements": ["a"], "covers": []},
               "blocks": {"a": {"elements": ["z", "a:z"],
                                "covers": [["z", "a:z"]]}},
               "maps": [], "local": True},
}


@pytest.mark.parametrize("name, size", [("across", 3), ("within", 2)])
def test_ids_that_namespacing_used_to_merge_stay_distinct(
        name, size, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(COLLIDING[name]))
    assert cli.main(["connect", str(path)]) == 0
    assert capsys.readouterr().out.startswith(
        f"valid connected system: quotient sum has {size} elements")
    lcs = lio.load(path)
    ids = [a for L in lcs.blocks.values() for a in L.elements]
    assert len(set(ids)) == len(ids) == sum(
        len(b["elements"]) for b in COLLIDING[name]["blocks"].values())
    # a file that save wrote reads back with the same ids and maps
    lio.save(lcs, tmp_path / "again.json")
    again = lio.load(tmp_path / "again.json")
    assert again.maps == lcs.maps
    assert all(again.blocks[x].elements == L.elements
               for x, L in lcs.blocks.items())


KEYS = ["".join(k) for n in range(1, 4)
        for k in itertools.product("a:\\", repeat=n)]


def test_no_block_prefix_begins_another():
    prefixes = [connect._prefix(x) for x in KEYS]
    assert len(set(prefixes)) == len(KEYS)
    for p, q in itertools.permutations(prefixes, 2):
        assert not q.startswith(p)
    assert connect._prefix("s0") == "s0:" and connect._prefix(3) == "3:"


def test_distinct_block_ids_get_distinct_carrier_ids_and_keep_them():
    rng = random.Random(3)
    for _ in range(1000):
        keys = rng.sample(KEYS[:12], rng.randint(2, 4))
        blocks = {x: list({"".join(rng.choices("a:\\", k=rng.randint(0, 4)))
                           for _ in range(rng.randint(1, 6))}) for x in keys}
        names = {x: lio._Names(x, ids) for x, ids in blocks.items()}
        carrier = [c for ns in names.values() for c in ns.values()]
        assert len(set(carrier)) == len(carrier)
        for x, ns in names.items():
            again = lio._Names(x, list(ns.values()))
            assert all(again[c] == c for c in ns.values())


def test_a_block_key_with_a_colon_round_trips(tmp_path, capsys):
    doc = json.loads(json.dumps(COLLIDING["across"]))
    lcs = lio.connected_from_dict(doc)
    assert set(lcs.blocks["a:b"].elements) == {"a\\:b:c", "a\\:b:d"}
    assert set(lcs.blocks["a"].elements) == {"a:b:c", "a:t"}
    cs = elevate(lcs)
    lio.save(cs, tmp_path / "elevated.json")
    back = lio.load(tmp_path / "elevated.json")
    assert type(back) is ConnectedSystem and back.maps == cs.maps
    assert cli.main(["connect", str(tmp_path / "elevated.json")]) == 0
    assert "quotient sum has 3 elements" in capsys.readouterr().out
