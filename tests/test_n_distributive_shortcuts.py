"""The work `breadth` and `is_n_distributive` do: sizes grown, growths over
all of L, Huhn checks.  Their verdicts are compared with the oracles in
`test_pruned_predicates`."""

import pytest

from latglue import predicates
from latglue.constructions import boolean, chain, enumerate_lattices, \
    fano_lattice, m3, section4_example
from latglue.core import FiniteLattice, product
from latglue.predicates import breadth, is_distributive, is_modular, \
    is_n_distributive
from oracles import oracle_irredundant_sets, oracle_is_n_distributive

NS = (1, 2, 3, 4)


def fresh(L):
    """A copy of L with no cached verdicts."""
    return FiniteLattice(L.elements, L.covers)


def test_oracle_one_distributivity_is_distributivity():
    # independent of `is_n_distributive`, which reads `is_distributive`
    checked = 0
    for L in enumerate_lattices(7):
        if is_modular(L):
            assert oracle_is_n_distributive(L, 1) == is_distributive(L)
            checked += 1
    assert checked


@pytest.mark.parametrize("name, n", [
    ("fano", 2), ("fano", 3), ("section4", 1), ("section4", 2),
    ("section4", 3), ("m3xm3", 3), ("fanoxc2", 3)])
def test_huhn_check_in_small_chunks(name, n, monkeypatch):
    L = {"fano": fano_lattice, "section4": lambda: section4_example()["sum"],
         "m3xm3": lambda: product(m3(), m3()),
         "fanoxc2": lambda: product(fano_lattice(), chain(1))}[name]()
    want = oracle_is_n_distributive(fresh(L), n)
    monkeypatch.setattr(predicates, "_BLOCK_CELLS", 7)
    assert is_n_distributive(fresh(L), n) == want


@pytest.fixture
def growths(monkeypatch):
    """One record per `_growth` call: over all of L or not, sizes yielded."""
    calls = []
    real = predicates._growth

    def counted(L, cand=None, k=None):
        call = {"all": cand is None, "sizes": 0}
        calls.append(call)
        for sets in real(L, cand, k):
            call["sizes"] += 1
            yield sets

    monkeypatch.setattr(predicates, "_growth", counted)
    return calls


@pytest.fixture
def huhn_checks(monkeypatch):
    calls = []
    real = predicates._huhn_holds

    def counted(L, total, loo):
        calls.append(len(total))
        return real(L, total, loo)

    monkeypatch.setattr(predicates, "_huhn_holds", counted)
    return calls


def test_breadth_grows_once(growths):
    assert breadth(boolean(8)) == 8
    # sizes 1…9, the last empty; a regrowth per size would yield 45
    assert growths == [{"all": False, "sizes": 9}]


def test_distributive_lattice_grows_nothing_over_all_elements(growths,
                                                              huhn_checks):
    L = boolean(7)
    for n in NS:
        assert is_n_distributive(L, n)
    assert not any(call["all"] for call in growths)
    assert huhn_checks == []


def test_breadth_at_most_n_grows_on_join_irreducibles_only(growths,
                                                           huhn_checks):
    assert is_n_distributive(m3(), 2)
    assert growths == [{"all": False, "sizes": 3}]
    L = product(m3(), m3())
    assert breadth(L) == 4
    growths.clear()
    assert is_n_distributive(L, 4)  # the cached breadth decides it
    assert growths == [] and huhn_checks == []


def test_fano_still_runs_the_huhn_check(growths, huhn_checks):
    L = fano_lattice()
    assert not is_n_distributive(L, 2)
    assert [call["all"] for call in growths] == [False, True]
    # one row per distinct set of leave-one-out joins, no fewer
    _, loo = oracle_irredundant_sets(L, 3)
    assert huhn_checks == [len({tuple(sorted(row)) for row in loo.tolist()})]
