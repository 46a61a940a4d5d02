"""Glued-system axioms, the sum construction, the staircase sup/inf
formulas, monotonicity variants, and the length bound."""

import os
import subprocess
import sys

import pytest

import latglue

from latglue.constructions import chain, fig_3by3_system, grid, \
    hd_two_chains, hd_two_m3, hd_two_m3_edge, m3_chain_edges, \
    m3_chain_of_three, note2_overlap_system, note3_system, \
    section1_nonexample_a1, section1_nonexample_a4, unbounded_family
from latglue.core import FiniteLattice, InvariantViolated, find_isomorphism
from latglue.glue import GluedSystem, NotALattice, glued_sum, \
    inf_via_formulas, is_monotone_original, is_monotone_strict, length_bound_check, \
    sup_via_formulas, validate, zero_one_maps
from oracles import _staircase_up, maximal_chains
from test_derived_skeleton import MUTANTS

VALID = {
    "fig_3by3": fig_3by3_system(),
    "note2": note2_overlap_system(),
    "note3": note3_system(),
    "hd_two_chains": hd_two_chains(),
    "hd_two_m3": hd_two_m3(),
    "hd_two_m3_edge": hd_two_m3_edge(),
    "m3_chain_of_three": m3_chain_of_three(),
    "m3_chain_edges": m3_chain_edges(),
    "unbounded_3": unbounded_family(3),
}


def test_system_requires_a_block_per_skeleton_element():
    S = chain(1)
    with pytest.raises(Exception):
        GluedSystem(S, {"0": chain(1)})


@pytest.mark.parametrize("name", sorted(VALID), ids=sorted(VALID))
def test_fixture_validates(name):
    assert validate(VALID[name]) == []


def test_axiom_violations_are_tagged():
    bad = validate(section1_nonexample_a1())
    assert bad and all(v.axiom == "A1" for v in bad)
    bad = validate(section1_nonexample_a4())
    assert bad and all(v.axiom == "A4" for v in bad)
    assert "A4" in str(bad[0])


def test_a3_violation():
    # comparable blocks with empty overlap on a skeleton cover
    S = chain(1)
    sys = GluedSystem(S, {"0": chain(1),
                          "1": FiniteLattice(["x", "y"], [("x", "y")])})
    bad = validate(sys)
    assert bad and all(v.axiom == "A3" for v in bad)


def test_a2_violation():
    # overlap ordered differently in the two blocks
    S = chain(1)
    lo = FiniteLattice(["z", "a", "b"], [("z", "a"), ("a", "b")])
    hi = FiniteLattice(["b", "a", "t"], [("b", "a"), ("a", "t")])
    bad = validate(GluedSystem(S, {"0": lo, "1": hi}))
    assert bad and any(v.axiom == "A2" for v in bad)


def test_sum_of_fig_3by3_is_the_3x3_grid():
    L = glued_sum(fig_3by3_system())
    assert L.n == 9
    assert find_isomorphism(L, grid(2, 2)) is not None
    assert L.bottom == "a" and L.top == "i"


def test_sum_rejects_blocks_ordering_a_shared_pair_oppositely():
    S = chain(1)
    sys_ = GluedSystem(S, {"0": FiniteLattice(["a", "b"], [("a", "b")]),
                           "1": FiniteLattice(["b", "a"], [("b", "a")])})
    with pytest.raises(NotALattice, match="not antisymmetric"):
        glued_sum(sys_)


def test_sum_covers_do_not_depend_on_hash_seed():
    code = ("from latglue.constructions import fig_3by3_system\n"
            "from latglue.glue import glued_sum\n"
            "print(glued_sum(fig_3by3_system()).covers)")
    src = os.path.dirname(os.path.dirname(latglue.__file__))
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1]


def test_sum_extends_every_block_order():
    for sys in VALID.values():
        L = glued_sum(sys)
        for x in sys.skeleton.elements:
            B = sys.blocks[x]
            for a in B.elements:
                for b in B.elements:
                    assert B.leq(a, b) == L.leq(a, b)


@pytest.mark.parametrize("name", sorted(VALID), ids=sorted(VALID))
def test_formulas_match_closure_order(name):
    sys = VALID[name]
    L = glued_sum(sys)
    for a in L.elements:
        for b in L.elements:
            assert sup_via_formulas(sys, a, b) == L.join(a, b)
            assert inf_via_formulas(sys, a, b) == L.meet(a, b)


def test_monotonicity_variants():
    assert is_monotone_strict(fig_3by3_system())
    assert is_monotone_strict(hd_two_chains())
    ov = note2_overlap_system()
    assert not is_monotone_strict(ov)
    assert not is_monotone_original(ov)
    # upper block containing the lower one passes the weak variant only
    S = chain(1)
    asc = GluedSystem(S, {
        "0": FiniteLattice(["a", "b"], [("a", "b")]),
        "1": FiniteLattice(["a", "b", "c"], [("a", "b"), ("b", "c")]),
    })
    assert validate(asc) == []
    assert is_monotone_original(asc)
    assert not is_monotone_strict(asc)


def test_zero_one_maps():
    zero, one, flags = zero_one_maps(fig_3by3_system())
    assert zero == {"1": "a", "2": "b", "3": "c", "4": "e"}
    assert one == {"1": "e", "2": "g", "3": "h", "4": "i"}
    assert flags["zero_join_preserving"] and flags["one_meet_preserving"]
    assert flags["zero_injective"] and flags["one_injective"]


def test_overlapping_blocks_share_their_zero():
    ov = note2_overlap_system()
    assert ov.zero("1") == ov.zero("2") == "a"
    zero, _, flags = zero_one_maps(ov)
    assert not flags["zero_injective"]
    assert flags["zero_join_preserving"]


def test_note3_sum_is_boolean():
    sys = note3_system()
    assert validate(sys) == []
    assert not is_monotone_strict(sys)
    L = glued_sum(sys)
    assert set(L.elements) == set(sys.blocks["1"].elements)


def test_unbounded_family_lengths():
    lengths = []
    for n in range(1, 6):
        sys = unbounded_family(n)
        assert validate(sys) == []
        assert sys.skeleton.length() == 2
        assert length_bound_check(sys)
        lengths.append(glued_sum(sys).length())
    assert lengths == [4, 5, 6, 7, 8]


@pytest.mark.parametrize("name", sorted(VALID), ids=sorted(VALID))
def test_length_bound(name):
    assert length_bound_check(VALID[name])


def test_blocks_of_and_carrier():
    sys = fig_3by3_system()
    assert sys.blocks_of("e") == ["1", "2", "3", "4"]
    assert sys.blocks_of("a") == ["1"]
    assert set(sys.carrier()) == set("abcdefghi")


def test_chain_dependent_staircase_raises_with_witness():
    # (A2) broken inside one overlap of decompose(dws(M3)): the three
    # chains from x up to z are not all raised alike, and the first two
    # a depth-first walker meets agree
    name = "decompose-dws(M3)-flipped-inside-{|0,1,a,b,c}-{|1,c}"
    sys = next(m[4] for m in MUTANTS if m[0] == name)
    x, c, z = "{|0,1,a,b,c}", "{|1,c}", "{|1}"
    chains = list(maximal_chains(sys.skeleton, x, z))
    assert [ch[1] for ch in chains] == ["{|1,a}", "{|1,b}", c]
    raised = [_staircase_up(sys, "{|}", ch) for ch in chains]
    assert raised == ["{|}", "{|}", "{|1}"]
    with pytest.raises(InvariantViolated,
                       match="sup staircase depends on the chain") as e:
        sup_via_formulas(sys, "{|}", "{|}")
    assert e.value.witness == (x, c, z)
    # the same kind of mutant at another overlap breaks the meets, and
    # the witness runs down the skeleton
    name = "decompose-dws(M3)-flipped-inside-{|1,b}-{|1}"
    sys = next(m[4] for m in MUTANTS if m[0] == name)
    with pytest.raises(InvariantViolated,
                       match="inf staircase depends on the chain") as e:
        inf_via_formulas(sys, "{|}", "{|}")
    assert e.value.witness == (z, "{|1,b}", x)
