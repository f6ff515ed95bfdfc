"""Acceptance gate: fifteen numbered criteria, one test and one
pass/fail line each (run with -v).

Algebraic identities are exact, zero tolerance.  Numeric spectra use
NUMERIC_TOL = 1e-8.  The whole suite stays under a minute.
"""

import random

from stringlinks import (
    LaurentPoly,
    RatFunc,
    SparseMatrix,
    add_twist,
    alexander_function,
    alexander_poly_closure,
    alternating_sum,
    burau,
    closure_matrix,
    det,
    equal_up_to_units,
    factorization_identity,
    fixes_weight_vectors,
    fox_of_word,
    from_braid_word,
    full_report,
    full_twist,
    full_twist_braid_word,
    gassner,
    ideal_rank_check,
    invert,
    knot_closure_relation,
    normalize_unit,
    parse_poly,
    parse_ratfunc,
    reduce,
    stack,
    torsion,
    trace,
    twist_formula,
    unitary_spectrum_check,
    walk_matrix,
)
from stringlinks.algebra import augment
from stringlinks.diagram import is_crossing

from conftest import (
    braid_corpus_words,
    corpus_words,
    pure_corpus_words,
    random_pure_braids,
)

NUMERIC_TOL = 1e-8

HOPF = from_braid_word(2, [1, 1])


def test_criterion_01_golden_hopf_matrix():
    g = gassner(HOPF)
    expected = [
        ["t2", "1 - t1"],
        ["t2 - t2^2", "1 - t2 + t1*t2"],
    ]
    for i in range(2):
        for j in range(2):
            assert g.entries[i, j] == parse_ratfunc(expected[i][j], 2), (i, j)


def test_criterion_02_full_twist_closed_form():
    for n in (2, 3):
        assert full_twist(n).entries == gassner(full_twist_braid_word(n)).entries, n


def test_criterion_03_weight_vectors_on_twenty_pure_words():
    words = [word for _name, word in pure_corpus_words()]
    words += random_pure_braids(12, seed=20260814, max_len=8)
    assert len(words) >= 20
    for word in words:
        assert fixes_weight_vectors(gassner(word)) == (True, True)


def test_criterion_04_closure_matrix_factorization_on_corpus():
    for name, word in corpus_words():
        residual = factorization_identity(fox_of_word(word), gassner(word))
        assert not any(residual), name


def test_criterion_05_alexander_factorization():
    for name, word in pure_corpus_words():
        report = full_report(word)
        assert report.one_factorization_ok, name
        if word.n >= 2:
            assert report.multi_factorization_ok is True, name
    # torsion of a braid word is a unit
    for name, word in braid_corpus_words():
        tau = torsion(fox_of_word(word))
        assert normalize_unit(tau) == LaurentPoly.one(tau.num_vars), name
    # the Hopf closure polynomial is trivial
    hopf_report = full_report(HOPF)
    assert normalize_unit(hopf_report.delta_closure) == LaurentPoly.one(2)


def test_criterion_06_knot_closure_formula():
    check = knot_closure_relation(HOPF, [1])
    assert check.ok is True and not check.degenerate
    t = ["t"]
    assert check.lhs == normalize_unit(parse_poly("1 - t", 1, t))
    assert check.rhs_closure == normalize_unit(parse_poly("1 - t + t^2", 1, t))
    # (1 - t)(1 + t^3) = (1 - t + t^2)(1 - t^2)
    lhs = RatFunc(check.lhs) * check.correction_den
    rhs = RatFunc(check.rhs_closure) * check.correction_num
    assert equal_up_to_units(lhs, rhs)


def test_criterion_07_walk_oracle_on_entire_corpus():
    for name, word in corpus_words():
        assert walk_matrix(trace(word)) == gassner(word).entries, name


def test_criterion_08_twist_formula_on_corpus_and_iterates():
    for name, word in corpus_words():
        perm = trace(word).perm
        g = gassner(word)
        for strand in range(1, word.n + 1):
            if perm[strand - 1] != strand:
                continue
            assert (
                twist_formula(g, strand)
                == gassner(add_twist(word, strand)).entries
            ), (name, strand)
    matrices = [gassner(HOPF).entries]
    m = matrices[0]
    for _k in range(4):
        m = twist_formula(m, 1)
        matrices.append(m)
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            assert matrices[i] != matrices[j], (i, j)


def test_criterion_09_alternating_sums_vanish_below_order():
    for name, word in corpus_words():
        crossings = [
            i + 1 for i, ev in enumerate(word.events) if is_crossing(ev)
        ]
        if len(crossings) > 6:
            continue
        for k in (1, 2, 3):
            if len(crossings) < k:
                continue
            series = alternating_sum(word, crossings[:k], k + 2)
            assert series.vanishes_below(k), (name, k)


def test_criterion_10_unitary_spectrum_within_tolerance():
    for name, word in pure_corpus_words():
        if word.n < 2:
            continue
        report = unitary_spectrum_check(
            reduce(gassner(word)), tolerance=NUMERIC_TOL
        )
        assert report.ok, (name, report.max_deviation)
        assert report.max_deviation < NUMERIC_TOL, name


def test_criterion_11_augmentation_unit_on_corpus():
    for name, word in corpus_words():
        assert augment(det(fox_of_word(word).ab())) in (+1, -1), name


def test_criterion_12_concordance_inverse_on_braid_words():
    for name, word in braid_corpus_words():
        doubled = stack(word, invert(word))
        g = gassner(doubled)
        assert g.entries == SparseMatrix.identity(g.num_vars, g.n), name


def test_criterion_13_minor_choice_invariance():
    for name, word in corpus_words():
        diagram = trace(word)
        cycles = set()
        perm = diagram.perm
        seen = [False] * word.n
        for i in range(word.n):
            if seen[i]:
                continue
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
            cycles.add(i)
        faithful = len(set(word.colors)) == len(cycles)
        if len(cycles) < 2 or not faithful:
            continue
        V = closure_matrix(fox_of_word(word))
        values = [
            alexander_poly_closure(V, spot_checks=3, rng=random.Random(seed))
            for seed in (11, 22, 33)
        ]
        assert values[0] == values[1] == values[2], name


def test_criterion_14_reduced_form_identities_on_pure_words():
    for name, word in pure_corpus_words():
        if word.n >= 2:
            g = gassner(word)
            nv = g.num_vars
            gt = reduce(g).entries
            eye = SparseMatrix.identity(nv, g.n - 1)
            num = det(eye - gt)
            den = RatFunc(LaurentPoly.monomial(nv, (-1,) * nv)) - RatFunc.one(nv)
            rhs = num / den
            lhs = alexander_function(g)
            assert lhs == rhs or lhs == -rhs, name

        b = burau(word)
        one_eye = SparseMatrix.identity(1, word.n)
        t = RatFunc(LaurentPoly.var(1, 0))
        bar_lhs = t * det((one_eye - b).minor(0, 0))
        geom = None
        for k in range(1, word.n + 1):
            term = RatFunc(LaurentPoly.var(1, 0, -k))
            geom = term if geom is None else geom + term
        bt = reduce(b).entries
        bar_rhs = det(SparseMatrix.identity(1, word.n - 1) - bt)
        assert bar_lhs * geom == bar_rhs, name


def test_criterion_15_ideal_rank_equivalence():
    for word in (from_braid_word(2, []), HOPF, full_twist_braid_word(3)):
        V = closure_matrix(fox_of_word(word))
        g = gassner(word)
        for k in range(word.n + 1):
            assert ideal_rank_check(V, g, k), (word.n, k)
