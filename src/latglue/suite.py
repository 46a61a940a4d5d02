"""The acceptance suite behind `latglue suite`: twelve end-to-end checks
covering round-trip decomposition, the sup/inf formulas, the transfer
results, the star/plus calculus, the worked constructions, connected-sum
machinery, homomorphism gluing, the counterexample catalog, and the
corpus enumerator itself."""

import json
import time

import numpy as np

from . import constructions as fix
from .connect import _relation, connected_sum, elevate
from .core import _BLOCK_CELLS, LatticeError, find_isomorphism, product
from .glue import glued_sum, glued_sums, is_monotone_strict, \
    length_bound_check, validate, validations, zero_one_maps
from .hom import LatticeHom, check_star, corollary_54_check, glue_homs, \
    is_homomorphism, is_injective, simplicity_transfer_check
from .predicates import breadth, is_distributive, is_modular, \
    is_n_distributive, is_simple, generated_sublattice
from .skeleton import decompose, decompositions, lemma61_suite, \
    maximal_atomistic_intervals, skeleton_duality_suite, skeleton_lattice, \
    skeleton_set


# The corpora enumerated during one run_suite call, by size, and the
# fixtures built during it, by name; None outside a call, so that no state
# carries over from one call to the next.
_corpora = None
_fixtures = None


def _corpus(max_elements):
    """The lattices of at most max_elements elements.  Within a run_suite
    call they come from the largest corpus so far, filtered by size."""
    if _corpora is None:
        return list(fix.enumerate_lattices(max_elements))
    if max(_corpora, default=0) < max_elements:
        _corpora[max_elements] = list(fix.enumerate_lattices(max_elements))
    return [L for L in _corpora[max(_corpora)] if L.n <= max_elements]


def _modular_corpus(max_elements):
    return [L for L in _corpus(max_elements) if is_modular(L)]


def _shared(key, build):
    """build(), once per run_suite call: within a call the criteria share
    what it returns."""
    if _fixtures is None:
        return build()
    if key not in _fixtures:
        _fixtures[key] = build()
    return _fixtures[key]


def _decomposition(M):
    """decompose(M), once per run_suite call."""
    return _decompositions([M])[0]


def _decompositions(Ms):
    """decompose(M) of each M of Ms, once per run_suite call; those not
    yet made are made by one `decompositions` call.  Keyed by id(M): the
    decomposition holds M as its source, so no other lattice takes that id
    while the call keeps it."""
    if _fixtures is None:
        return decompositions(Ms)
    missing = list({id(M): M for M in Ms
                    if ("decompose", id(M)) not in _fixtures}.values())
    if missing:
        for M, dec in zip(missing, decompositions(missing)):
            _fixtures["decompose", id(M)] = dec
    return [_fixtures["decompose", id(M)] for M in Ms]


def _section4():
    return _shared("section4", fix.section4_example)


def glued_fixtures():
    """All valid glued-system fixtures, by name."""
    out = {
        "fig_3by3": fix.fig_3by3_system(),
        "note2_overlap": fix.note2_overlap_system(),
        "note3": fix.note3_system(),
        "hd_two_chains": fix.hd_two_chains(),
        "hd_two_m3": fix.hd_two_m3(),
        "hd_two_m3_edge": fix.hd_two_m3_edge(),
        "m3_chain_of_three": fix.m3_chain_of_three(),
        "m3_chain_edges": fix.m3_chain_edges(),
        "distributive_over_b2": fix.distributive_with_skeleton(fix.boolean(2)),
        "square_over_m3": fix.square_sublattice(fix.m3()),
        "projective_example": _section4()["glued_system"],
    }
    for n in (1, 2, 3):
        out[f"unbounded_{n}"] = fix.unbounded_family(n)
    return out


def _glued():
    """The glued fixtures, by name; each keeps its sum once built."""
    return _shared("glued", glued_fixtures)


def _squares(corpus_max):
    """(S, square_sublattice(S)) for the modular S of at most
    min(corpus_max, 7) elements, their blocks built in one batch."""
    def build():
        Ss = _modular_corpus(min(corpus_max, 7))
        return list(zip(Ss, fix.square_sublattices(Ss)))

    return _shared(("squares", min(corpus_max, 7)), build)


def _formulas_match(sys, L=None):
    """Are the system's sup/inf tables the join/meet of its sum L?"""
    if L is None:
        L = glued_sum(sys)
    carrier, _, sup, inf = sys._formulas
    at = np.array([L._idx.get(a, -1) for a in carrier])
    return len(at) == L.n and (at >= 0).all() \
        and np.array_equal(at[sup], L._join[np.ix_(at, at)]) \
        and np.array_equal(at[inf], L._meet[np.ix_(at, at)])


def criterion_01_roundtrip(corpus_max):
    """Decompose-then-reglue reproduces every modular lattice exactly: the
    corpus, then the modular ones among named lattices and sums."""
    lattices = _modular_corpus(corpus_max)
    named = [fix.grid(p, q) for p in range(1, 5) for q in range(p, 5)]
    named += [fix.boolean(n) for n in range(1, 5)]
    named.append(product(fix.m3(), fix.chain(1)))
    named += glued_sums([sys for _, sys in _squares(corpus_max)])
    named.append(_section4()["sum"])
    lattices += [M for M in named if is_modular(M)]
    bad = sum(not dec.reglues() for dec in _decompositions(lattices))
    return bad == 0, f"{len(lattices)} modular lattices, {bad} round-trip failures"


def criterion_02_formulas(corpus_max):
    """Block-staircase sup/inf equals the closure-order bounds everywhere."""
    checked = 0
    for sys in _glued().values():
        if not _formulas_match(sys):
            return False, "mismatch on a glued fixture"
        checked += 1
    for M in _modular_corpus(corpus_max):
        if not _formulas_match(_decomposition(M).system, M):
            return False, "mismatch on a decompose output"
        checked += 1
    return True, f"{checked} systems, exact agreement on all pairs"


def criterion_03_transfer(corpus_max):
    """Modularity, breadth, and n-distributivity transfer block-wise."""
    for name, sys in _glued().items():
        blocks = [sys.blocks[x] for x in sys.skeleton.elements]
        if not all(is_modular(B) for B in blocks):
            continue
        L = glued_sum(sys)
        if not is_modular(L):
            return False, f"{name}: modular blocks but non-modular sum"
        if breadth(L) != max(breadth(B) for B in blocks):
            return False, f"{name}: breadth is not the block maximum"
        for n in (1, 2, 3):
            if all(is_n_distributive(B, n) for B in blocks) \
                    and not is_n_distributive(L, n):
                return False, f"{name}: {n}-distributivity did not transfer"
    return True, "modularity, breadth, n-distributivity (n=1..3) transfer"


def criterion_04_star_plus_calculus(corpus_max):
    """The star/plus identities hold exhaustively on the modular corpus."""
    mods = _modular_corpus(corpus_max)
    bad = sum(not lemma61_suite(M)["ok"] for M in mods)
    return bad == 0, f"{len(mods)} modular lattices, {bad} with violations"


def criterion_05_skeleton(corpus_max):
    """Fixed-point skeleton equals the interval-scan oracle; duality holds."""
    for M in _modular_corpus(corpus_max):
        oracle = {lo for lo, hi in maximal_atomistic_intervals(M)}
        if _decomposition(M).skeleton_set != oracle:
            return False, f"skeleton/oracle mismatch on a {M.n}-element lattice"
        if not skeleton_duality_suite(M)["ok"]:
            return False, f"duality failure on a {M.n}-element lattice"
    return True, "fixed points = interval minima; star/plus duality throughout"


def criterion_06_distributive_construction(corpus_max):
    """Every small lattice S is the skeleton of a distributive lattice."""
    small = _corpus(min(corpus_max, 5))
    for S in small:
        sys = fix.distributive_with_skeleton(S)
        bad = validate(sys)
        if bad:
            return False, (f"distributive_with_skeleton of a {S.n}-element S "
                           f"violates {bad[0].axiom}")
        M = glued_sum(sys)
        if not is_distributive(M):
            return False, f"non-distributive output for a {S.n}-element S"
        if find_isomorphism(skeleton_lattice(M), S) is None:
            return False, f"skeleton not isomorphic to a {S.n}-element S"
    return True, f"{len(small)} skeleton shapes realized distributively"


def criterion_07_square_construction(corpus_max):
    """Every small modular S yields a sublattice of S×S with skeleton S."""
    squares = _squares(corpus_max)
    for (S, sys), bad in zip(squares, validations([sys for _, sys in squares])):
        if bad:
            return False, (f"square_sublattice of a {S.n}-element S "
                           f"violates {bad[0].axiom}")
        if not corollary_54_check(sys, product(S, S)):
            return False, f"not a sublattice of S×S for a {S.n}-element S"
        if find_isomorphism(_decomposition(glued_sum(sys)).skeleton_lattice,
                            S) is None:
            return False, f"skeleton not isomorphic to a {S.n}-element S"
    return True, f"{len(squares)} modular skeletons realized inside S×S"


def criterion_08_projective_example(corpus_max):
    """The two-plane example: length 6, breadth 3, modular, simple,
    generated by the five designated elements."""
    ex = _section4()
    M = ex["sum"]
    checks = {
        "length 6": M.length() == 6,
        "modular": is_modular(M),
        "breadth 3": breadth(M) == 3,
        "simple": is_simple(M),
        "5 generators": generated_sublattice(M, ex["generators"])
                        == set(M.elements),
    }
    bad = [k for k, v in checks.items() if not v]
    return not bad, "all five properties hold" if not bad else \
        f"failed: {', '.join(bad)}"


def connected_fixtures():
    return {
        "projective_example": _section4()["local_system"],
        "copies_over_b2": fix.copies_local_system(fix.boolean(2)),
        "copies_over_b3": fix.copies_local_system(fix.boolean(3),
                                                  fix.chain(2)),
    }


def _some_block(side):
    """Criteria (i) and (iii) from img or pre: side[g, z] is defined and
    equals side[h, z] for some block z, in chunks of rows."""
    N, n = side.shape
    out = np.zeros((N, N), dtype=bool)
    step = max(1, _BLOCK_CELLS // max(N * n, 1))
    for s in range(0, N, step):
        mine = side[s:s + step, None, :]
        out[s:s + step] = ((mine >= 0) & (mine == side[None, :, :])).any(2)
    return out


def _at(side, table, owner):
    """Criteria (ii) and (iv): side[g, z] is defined and equals side[h, z]
    at z = table[block of g, block of h], the join or the meet.  Gathered
    apart from `equivalent`'s lookup, so that its relation is checked."""
    z = table[np.ix_(owner, owner)]
    mine = np.take_along_axis(side, z, 1)
    return (mine >= 0) & (mine == side[np.arange(len(side)), z])


def _not_an_equivalence(R, carrier):
    """Why the relation R on carrier is not an equivalence, or None.  Row by
    row, row a fails at a (reflexivity), or at the first b with
    R[a, b] != R[b, a] (symmetry) or with R[a, b], R[b, c] and not R[a, c]
    for some c (transitivity, R·R ⊆ R)."""
    Rf = R.astype(np.float32)  # path counts up to 2**24 are exact
    rows = ~R.diagonal() | (R != R.T).any(1) | ((Rf @ Rf > 0) & ~R).any(1)
    if not rows.any():
        return None
    a = int(np.argmax(rows))
    if not R[a, a]:
        return f"not reflexive at {carrier[a]}"
    asym = R[a] != R[:, a]
    intrans = R[a] & (R & ~R[a]).any(1)
    return "not symmetric" if asym[np.argmax(asym | intrans)] \
        else "not transitive"


def _criteria(cs):
    """The identification criteria (i)-(iv) of cs on every pair of its
    carrier, as four N×N matrices in carrier order."""
    rec, S = cs._identification, cs.skeleton
    return np.stack([_some_block(rec.img), _at(rec.img, S._join, rec.owner),
                     _some_block(rec.pre), _at(rec.pre, S._meet, rec.owner)])


def check_connected(cs):
    """The connected-sums criterion on one system: the identification
    criteria (i)-(iv) and `equivalent` give one relation, which is an
    equivalence, and the projections onto the quotient's blocks are
    isomorphisms.  The detail of the first failure, in carrier order, or
    None."""
    rec, S = cs._identification, cs.skeleton
    criteria = _criteria(cs)
    split = (criteria != criteria[1]).any(0)
    if split.any():
        g, h = np.unravel_index(np.argmax(split), split.shape)
        return f"criteria disagree at ({rec.carrier[g]}, {rec.carrier[h]})"
    R = criteria[1]
    off = _relation(cs) != R
    if off.any():
        g, h = np.unravel_index(np.argmax(off), off.shape)
        return f"equivalent disagrees at ({rec.carrier[g]}, {rec.carrier[h]})"
    bad = _not_an_equivalence(R, rec.carrier)
    if bad is not None:
        return bad
    gsys, pis = connected_sum(cs)
    for x in S.elements:
        h = LatticeHom(cs.blocks[x], gsys.blocks[x], pis[x])
        if not (is_homomorphism(h) and is_injective(h)):
            return f"projection at {x} is not an iso"
    return None


def criterion_09_connect(corpus_max):
    """Identification criteria coincide, ~ is an equivalence, block
    projections are isomorphisms, chain composition is path-independent."""
    for name, lcs in connected_fixtures().items():
        try:
            cs = elevate(lcs)
        except LatticeError as e:
            return False, f"{name}: {e}"
        bad = check_connected(cs)
        if bad is not None:
            return False, f"{name}: {bad}"
    return True, "criteria (i)-(iv) coincide; projections are isomorphisms"


def hom_family_fixtures():
    """(system, family, host) triples of per-block homomorphisms."""
    out = {}
    for name, M in (("grid_2x2", fix.grid(2, 2)),
                    ("b3", fix.boolean(3)),
                    ("m3xc1", product(fix.m3(), fix.chain(1)))):
        sys = decompose(M).system
        fam = {x: LatticeHom(sys.blocks[x], M,
                             {a: a for a in sys.blocks[x].elements})
               for x in sys.skeleton.elements}
        out[f"identity_{name}"] = (sys, fam, M)
    glued = _glued()
    S = fix.m3()
    sys = glued["square_over_m3"]
    host = product(S, S)
    fam = {x: LatticeHom(sys.blocks[x], host,
                         {a: a for a in sys.blocks[x].elements})
           for x in S.elements}
    out["square_inclusion"] = (sys, fam, host)
    sys = glued["fig_3by3"]
    host = fix.chain(0)
    fam = {x: LatticeHom(sys.blocks[x], host,
                         {a: "0" for a in sys.blocks[x].elements})
           for x in sys.skeleton.elements}
    out["constant_collapse"] = (sys, fam, host)
    return out


def criterion_10_hom_gluing(corpus_max):
    """Per-block families glue to verified homomorphisms; injectivity is
    block-wise; the zero/one condition is derivable over modular skeletons;
    sums of simple blocks are simple."""
    for name, (sys, fam, host) in hom_family_fixtures().items():
        if not all(is_homomorphism(h) for h in fam.values()):
            return False, f"{name}: a block map is not a homomorphism"
        if is_modular(sys.skeleton) and not check_star(sys, fam):
            return False, f"{name}: zero/one condition fails over a modular skeleton"
        h = glue_homs(sys, fam)
        if not is_homomorphism(h):
            return False, f"{name}: glued map is not a homomorphism"
        if is_injective(h) != all(is_injective(g) for g in fam.values()):
            return False, f"{name}: injectivity is not block-wise"
    glued = _glued()
    simple_sums = {
        "hd_two_m3_edge": glued["hd_two_m3_edge"],
        "m3_chain_edges": glued["m3_chain_edges"],
        "projective_all_m3": fix.section4_example(all_m3=True)["glued_system"],
    }
    for name, sys in simple_sums.items():
        if not simplicity_transfer_check(sys):
            return False, f"{name}: sum of simple blocks is not simple"
    return True, "gluing verified on 5 families; simplicity on 3 fixtures"


def criterion_11_counterexamples(corpus_max):
    """The catalog of near-misses fails exactly where it should."""
    a1 = validate(fix.section1_nonexample_a1())
    if not a1 or any(v.axiom != "A1" for v in a1):
        return False, "first non-system not rejected with tag A1"
    a4 = validate(fix.section1_nonexample_a4())
    if not a4 or any(v.axiom != "A4" for v in a4):
        return False, "second non-system not rejected with tag A4"
    glued = _glued()
    ov = glued["note2_overlap"]
    if validate(ov) or is_monotone_strict(ov):
        return False, "overlap fixture should validate but not be strict"
    _, _, flags = zero_one_maps(ov)
    if flags["zero_injective"] or ov.zero("1") != ov.zero("2"):
        return False, "overlap fixture should have coinciding block zeros"
    n3 = glued["note3"]
    if validate(n3):
        return False, "block-skeleton fixture should validate"
    union_sk = set()
    for x in n3.skeleton.elements:
        union_sk |= skeleton_set(n3.blocks[x])
    if not skeleton_set(glued_sum(n3)) < union_sk:
        return False, "sum skeleton should be strictly below the block union"
    lengths = []
    for n in range(1, 6):
        sys = glued.get(f"unbounded_{n}") or fix.unbounded_family(n)
        if validate(sys) or sys.skeleton.length() != 2 \
                or not length_bound_check(sys):
            return False, f"staircase family broken at n={n}"
        lengths.append(glued_sum(sys).length())
    if lengths != sorted(set(lengths)):
        return False, "staircase sum lengths should strictly increase"
    return True, f"all rejections tagged; staircase lengths {lengths}"


def criterion_12_enumeration(corpus_max):
    """Corpus self-check against known counts and a naive enumerator."""
    counts = [0] * 7
    for L in _corpus(7):
        counts[L.n - 1] += 1
    cum = [sum(counts[:i + 1]) for i in range(7)]
    if cum != [1, 2, 3, 5, 10, 25, 78]:
        return False, f"per-size totals {cum} do not match the known sequence"
    naive = [fix.naive_lattice_count(n) for n in range(1, 6)]
    if naive != counts[:5]:
        return False, f"naive cross-check {naive} disagrees with {counts[:5]}"
    return True, f"counts {counts} match; naive filter agrees up to 5 elements"


CRITERIA = [
    ("roundtrip", criterion_01_roundtrip),
    ("sup-inf-formulas", criterion_02_formulas),
    ("transfer", criterion_03_transfer),
    ("star-plus-calculus", criterion_04_star_plus_calculus),
    ("skeleton-oracle-duality", criterion_05_skeleton),
    ("distributive-construction", criterion_06_distributive_construction),
    ("square-construction", criterion_07_square_construction),
    ("projective-example", criterion_08_projective_example),
    ("connected-sums", criterion_09_connect),
    ("hom-gluing", criterion_10_hom_gluing),
    ("counterexamples", criterion_11_counterexamples),
    ("enumeration", criterion_12_enumeration),
]


def run_suite(corpus_max=6, emit=print, as_json=False):
    """Run all criteria; returns (all_passed, results).  Each result is
    (name, passed, detail, seconds) and one line is emitted per criterion:
    a text line, or with `as_json` a JSON object with the criterion's
    number, name, pass flag, detail and seconds."""
    global _corpora, _fixtures
    results = []
    _corpora, _fixtures = {}, {}
    try:
        for i, (name, fn) in enumerate(CRITERIA, start=1):
            t0 = time.monotonic()
            try:
                ok, detail = fn(corpus_max)
            except Exception as e:  # a crash is a failure, not an abort
                ok, detail = False, f"{type(e).__name__}: {e}"
            dt = time.monotonic() - t0
            results.append((name, ok, detail, dt))
            emit(json.dumps({"criterion": i, "name": name, "passed": bool(ok),
                             "detail": detail, "seconds": dt})
                 if as_json else f"[{i:2d}/12] {'PASS' if ok else 'FAIL'} "
                 f"{name}: {detail} ({dt:.1f}s)")
    finally:
        _corpora = _fixtures = None
    return all(r[1] for r in results), results
