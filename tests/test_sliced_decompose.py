"""Decompositions cut in M's index space (`glue._sliced_blocks`) checked
against the block-by-block decomposition they replaced, kept in `oracles`
as `oracle_decompose`: S(M), the carrier order, every block, the
membership record, `validate`, the round trip and the formula tables, on
the modular lattices of at most 8 elements, the shapes `latglue skeleton`
is benchmarked on and the valid systems of the derived-skeleton tests.
Blocks with dropped elements, moved block tops and corrupted join rows
fail as the oracle's blocks do.  Also: a decomposition's blocks are
read-only and built only when asked for, the id-level membership pass runs at most once per
system, and `latglue skeleton` writes what the oracle's decomposition
serialises to, with no id set per block."""

import contextlib
import io
import json
import random

import numpy as np
import pytest

from latglue import cli, core, glue, skeleton
from latglue import io as lio
from latglue.constructions import boolean, grid
from latglue.core import InvariantViolated
from latglue.glue import GluedSystem, glued_sum, order_closure, validate
from latglue.predicates import is_modular
from latglue.skeleton import decompose
from oracles import oracle_closure, oracle_decompose, \
    oracle_decompose_checks, oracle_membership, oracle_slice
from test_derived_skeleton import VALID, assert_same_lattice, sweep_shapes
from test_pruned_predicates import CORPUS8

MODULAR8 = [L for L in CORPUS8 if is_modular(L)]
SHAPES = sweep_shapes()
LATTICES = {**{f"modular8-{i}": L for i, L in enumerate(MODULAR8)}, **SHAPES}


def test_the_corpora_are_complete():
    assert len(MODULAR8) == 67 and len(SHAPES) == 34


def assert_same_members(got, sys):
    """The membership record `got` field for field against the id-level
    arrays the oracle rebuilds from the blocks of `sys`."""
    carrier, pos, loc, B, C, start = oracle_membership(sys)
    blocks = [sys.blocks[x] for x in sys.skeleton.elements]
    assert got.carrier == carrier
    assert got.index == {a: i for i, a in enumerate(carrier)}
    want = {"rows": np.concatenate(pos), "loc": loc, "B": B, "C": C,
            "start": start,
            "zero": np.array([p[L._bot] for p, L in zip(pos, blocks)]),
            "one": np.array([p[L._top] for p, L in zip(pos, blocks)])}
    for field, w in want.items():
        g = getattr(got, field)
        assert g.dtype == w.dtype, field
        np.testing.assert_array_equal(g, w, err_msg=field)
    # the tables: one stack padded to the largest block, False or zero on
    # padding
    b = max(L.n for L in blocks)
    for op, dtype in (("leq", bool), ("join", np.int32), ("meet", np.int32)):
        g = getattr(got, op)
        assert g.dtype == dtype and g.shape == (len(blocks), b, b), op
        for i, L in enumerate(blocks):
            np.testing.assert_array_equal(g[i, :L.n, :L.n],
                                          getattr(L, f"_{op}"), err_msg=op)
            assert not g[i, L.n:].any() and not g[i, :, L.n:].any(), op


def assert_same_formulas(sys, other):
    got, want = sys._formulas, other._formulas
    assert got[:2] == want[:2]
    for g, w in zip(got[2:], want[2:]):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_decompose_matches_the_block_by_block_oracle(name):
    M = LATTICES[name]
    dec = decompose(M._relabelled(M.elements))  # S(M) built afresh
    S, blocks, want = oracle_decompose(M)
    assert_same_lattice(dec.skeleton_lattice, S)
    assert list(dec.blocks) == list(blocks) == list(S.elements)
    assert dec.system.carrier() == want.carrier()
    assert_same_members(dec.system._members, want)
    for x in S.elements:
        assert_same_lattice(dec.blocks[x], blocks[x])
        assert dec.system.zero(x) == blocks[x].bottom
        assert dec.system.one(x) == blocks[x].top
        assert dec.system.block_set(x) == set(blocks[x].elements)
    for a in dec.system.carrier():
        assert dec.system.blocks_of(a) == [x for x in S.elements
                                           if a in blocks[x]]
    assert validate(dec.system) == validate(want) == []
    assert dec.reglues() is True
    carrier, leq = order_closure(dec.system)
    want_carrier, want_leq = oracle_closure(want)
    assert carrier == want_carrier
    np.testing.assert_array_equal(leq, want_leq)
    assert_same_formulas(dec.system, want)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_systems_have_the_oracle_membership(name):
    sys = VALID[name]
    assert_same_members(sys._members, sys)
    assert validate(sys) == []
    assert_same_formulas(sys, GluedSystem(sys.skeleton, dict(sys.blocks)))


# -- corrupted decompositions -------------------------------------------------

def outcome(check):
    try:
        check()
    except InvariantViolated as e:
        return str(e), e.witness
    return None


def index_outcome(M, S, lo, hi, corrupt=None):
    """What the one-pass cut and decompose's checks make of the blocks
    [lo[i], hi[i]], with `corrupt` applied to the membership record."""
    def check():
        blocks, = glue._sliced_blocks(core._family([M]), [S.elements], lo, hi)
        sys = GluedSystem(S, blocks)
        if corrupt is not None:
            corrupt(sys, sys._members)
        skeleton._check_decompositions([sys])
    return outcome(check)


def oracle_outcome(M, S, lo, hi, corrupt=None):
    """What slicing each block on its own and the old checks make of the
    blocks [lo[i], hi[i]], with `corrupt` applied to the blocks."""
    def check():
        blocks = {x: oracle_slice(M, lo[i], hi[i])
                  for i, x in enumerate(S.elements)}
        if corrupt is not None:
            corrupt(blocks)
        oracle_decompose_checks(GluedSystem(S, blocks))
    return outcome(check)


def _join_row(i, x, a, b):
    """Corruptions that give row a of block i's join table row b's values:
    one for the membership record, one for the blocks."""
    def record(sys, m):
        m.join[i, a] = m.join[i, b]

    def blocks(bs):
        L = bs[x]._relabelled(bs[x].elements)
        L._join = L._join.copy()
        L._join[a] = L._join[b]
        bs[x] = L
    return record, blocks


def corruptions():
    """(name, M, S, lo, hi, record corruption, block corruption), three of
    each kind per lattice where it applies: elements dropped from a block by
    raising its bottom to one of its inner elements (a block is cut by its
    ends, so this is how it loses elements), a block's top moved to another
    element above its bottom, and the join row of a shared element
    replaced."""
    names = ["grid(3,3)", "grid(4,5)", "boolean(4)", "M3xC4", "FanoxC1",
             "dws(C2)", "dws(B2)", "dws(M3)", "section4"]
    lattices = [(name, SHAPES[name]) for name in names]
    lattices += [(f"modular8-{i}", L) for i, L in enumerate(MODULAR8)
                 if len(skeleton.skeleton_set(L)) > 1][::4]
    out = []
    for name, M in lattices:
        rng = random.Random(name)
        st, pl = skeleton._star_plus(M)
        S = skeleton.skeleton_lattice(M)
        lo = np.flatnonzero(pl[st] == np.arange(M.n))
        hi = st[lo]
        mask = M._leq[lo] & M._leq.T[hi]
        for _ in range(3):
            i = rng.choice([i for i in range(S.n) if mask[i].sum() > 2] or [0])
            inner = [c for c in np.flatnonzero(mask[i]) if c not in (lo[i], hi[i])]
            if inner:
                b = lo.copy()
                b[i] = rng.choice(inner)
                out.append((f"{name}-dropped", M, S, b, hi, None, None))
            i = rng.randrange(S.n)
            tops = [c for c in np.flatnonzero(M._leq[lo[i]]) if c != hi[i]]
            if tops:
                h = hi.copy()
                h[i] = rng.choice(tops)
                out.append((f"{name}-moved-top", M, S, lo, h, None, None))
            shared = mask.sum(axis=0) > 1
            able = [i for i in range(S.n) if shared[mask[i]].sum() > 1]
            if able:
                i = rng.choice(able)
                local = np.flatnonzero(shared[mask[i]])
                a, b = rng.sample(list(local), 2)
                record, blocks = _join_row(i, S.elements[i], a, b)
                out.append((f"{name}-join-row", M, S, lo, hi, record, blocks))
    return out


CORRUPTED = corruptions()


def test_every_kind_of_corruption_is_seeded_and_most_are_caught():
    for kind in ("dropped", "moved-top", "join-row"):
        caught = [oracle_outcome(M, S, lo, hi, blocks) is not None
                  for name, M, S, lo, hi, record, blocks in CORRUPTED
                  if name.endswith(kind)]
        assert len(caught) >= 20 and sum(caught) >= 10, kind


@pytest.mark.parametrize("name, M, S, lo, hi, record, blocks",
                         CORRUPTED, ids=[f"{c[0]}-{k}" for k, c
                                         in enumerate(CORRUPTED)])
def test_corruptions_fail_as_the_oracle_blocks_do(name, M, S, lo, hi, record,
                                                  blocks):
    # the same message and witness, or none on either side when the
    # corrupted blocks still glue (the sum is then not M, which only the
    # round trip sees)
    assert index_outcome(M, S, lo, hi, record) == \
        oracle_outcome(M, S, lo, hi, blocks)


# -- read-only, lazy, once ------------------------------------------------------

def test_decomposition_blocks_are_the_systems_read_only_blocks():
    d = decompose(grid(2, 2))
    with pytest.raises(TypeError):
        d.blocks["x"] = 1
    with pytest.raises(TypeError):
        del d.blocks[d.skeleton_lattice.bottom]
    assert "x" not in d.blocks and "x" not in d.system.blocks
    assert d.blocks is d.system.blocks
    for x in d.skeleton_lattice.elements:
        assert d.blocks[x] is d.system.blocks[x]


@pytest.mark.parametrize("M", [grid(6, 6), boolean(6)],
                         ids=["grid(6,6)", "boolean(6)"])
def test_a_skeleton_request_slices_only_the_skeleton(M, tmp_path, capsys,
                                                     monkeypatch):
    path = tmp_path / "m.json"
    lio.save(M, path)
    k = len(skeleton.skeleton_set(M))
    sizes = []
    real = core._from_order

    def counted(elements, leq):
        sizes.append(len(elements))
        return real(elements, leq)
    # every order → lattice step: slices and from_leq in core, S(M) here
    monkeypatch.setattr(core, "_from_order", counted)
    monkeypatch.setattr(skeleton, "_from_order", counted)
    assert cli.main(["skeleton", str(path)]) == 0
    assert sizes == [k]
    assert "roundtrip: OK" in capsys.readouterr().out


def test_the_id_level_membership_runs_once_per_system(monkeypatch):
    calls = []
    real = glue._membership

    def counted(sys):
        calls.append(sys)
        return real(sys)
    monkeypatch.setattr(glue, "_membership", counted)
    dec = decompose(grid(4, 4))
    hand_made = GluedSystem(dec.skeleton_lattice, dict(dec.blocks))
    for sys, want in ((dec.system, 0), (hand_made, 1)):
        calls.clear()
        assert validate(sys) == []
        glued_sum(sys)
        order_closure(sys)
        glue.nested_cover(sys)
        glue.sup_via_formulas(sys, "0,0", "1,1")
        sys.carrier(), sys.block_set("0,0"), sys.zero("0,0"), sys.one("0,0")
        assert len(calls) == want


# -- what `latglue skeleton` writes --------------------------------------------

def relabelled(L, rng):
    """L as a JSON dict under seeded ids, in shuffled element and cover
    order."""
    name = dict(zip(L.elements, (f"v{k}" for k in rng.sample(range(L.n), L.n))))
    elements = [name[a] for a in L.elements]
    covers = [[name[a], name[b]] for a, b in L.covers]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("shape", ["grid(3,5)", "boolean(4)", "M3xC4",
                                   "FanoxC1", "dws(B2)", "section4"])
def test_skeleton_writes_what_the_oracle_serialises_to(shape, seed, tmp_path,
                                                       monkeypatch):
    """Also: the block sizes come from the membership record, not from
    one id set per block."""
    src, out, dot = (tmp_path / f for f in ("m.json", "sys.json", "m.dot"))
    src.write_text(json.dumps(relabelled(SHAPES[shape], random.Random(seed))))
    stdout = io.StringIO()

    def refuse(sys, x):
        raise AssertionError("latglue skeleton built a block's id set")
    with monkeypatch.context() as patch, contextlib.redirect_stdout(stdout):
        patch.setattr(GluedSystem, "block_set", refuse)
        assert cli.main(["skeleton", str(src), "--out", str(out),
                         "--dot", str(dot)]) == 0
    M = lio.load(src)
    S, blocks, sys = oracle_decompose(M)
    names = sorted(S.elements, key=str)
    assert stdout.getvalue().splitlines() == [
        f"skeleton: {len(names)} elements: {', '.join(map(str, names))}",
        *(f"  block [{x}, {blocks[x].top}]: {blocks[x].n} elements"
          for x in S.elements),
        "roundtrip: OK"]
    assert out.read_text() == json.dumps(lio.to_dict(sys), indent=1,
                                         sort_keys=True) + "\n"
    assert dot.read_text() == lio.to_dot(M, S.elements)
