"""Closure matrices, torsion, Alexander polynomials, and their identities."""

import dataclasses
import random

import pytest

from stringlinks import (
    LaurentPoly,
    RatFunc,
    RatMatrix,
    add_twist,
    alexander_function,
    alexander_poly_closure,
    burau,
    closure_matrix,
    det,
    equal_up_to_units,
    factorization_identity,
    fox_of_word,
    from_braid_word,
    full_report,
    full_twist,
    full_twist_braid_word,
    gassner,
    ideal_rank_check,
    knot_closure_relation,
    normalize_unit,
    parse_poly,
    parse_ratfunc,
    rank,
    reduce,
    torsion,
)
from stringlinks import alexander, algebra
from stringlinks.algebra import VerificationError
from stringlinks.diagram import Cap, CupL, CupR

from conftest import (
    CORPUS_DIR,
    braid_corpus_words,
    corpus_words,
    load,
    minor_matrix,
    pure_corpus_words,
    random_twisted_tangles,
)


def hopf():
    return from_braid_word(2, [1, 1])


class TestEqualUpToUnits:
    def test_monomial_units_absorbed(self):
        a = parse_poly("t1", 2)
        b = parse_poly("-t1*t2^3", 2)
        assert equal_up_to_units(a, b)
        assert not equal_up_to_units(a, parse_poly("1 + t1", 2))

    def test_zero_only_equals_zero(self):
        zero = LaurentPoly.zero(2)
        assert equal_up_to_units(zero, zero)
        assert not equal_up_to_units(zero, parse_poly("t1", 2))


class TestClosureMatrix:
    def test_weight_vector_annihilated(self):
        # V w = 0 with w_j = 1 - t_{color(j)} is checked on construction
        for name, word in corpus_words():
            V = closure_matrix(fox_of_word(word))
            assert V.V.rows == V.c and V.V.cols == V.c, name

    @pytest.mark.parametrize("block", ["A", "B", "C"])
    def test_perturbed_fox_matrix_fails_the_check(self, block):
        # adding 1 to one cell of V adds w_j != 0 to one entry of V w
        F = fox_of_word(add_twist(hopf(), 1))
        j = {"A": 0, "B": F.n, "C": F.c}[block]
        rows = [dict(row) for row in F.rows]
        rows[-1][j] = rows[-1].get(j, LaurentPoly.zero(F.num_vars)) + LaurentPoly.one(F.num_vars)
        perturbed = dataclasses.replace(F, rows=tuple(rows))
        with pytest.raises(VerificationError, match="does not annihilate w"):
            closure_matrix(perturbed)

    def test_factorization_residual_zero_on_samples(self):
        for gens, n in (([1, 1], 2), ([1, -2], 3), ([1, 2, 1], 3)):
            word = from_braid_word(n, gens)
            F = fox_of_word(word)
            residual = factorization_identity(F, gassner(word))
            assert len(residual) == F.c and not any(residual), gens

    def test_residual_zero_with_cups_and_caps(self):
        word = add_twist(hopf(), 1)
        residual = factorization_identity(fox_of_word(word), gassner(word))
        assert not any(residual)

    @pytest.mark.parametrize("name", ["braid", "twist_s2.sl", "twisted_k1.sl"])
    @pytest.mark.parametrize("part", ["entries", "Z"])
    def test_perturbed_solution_leaves_a_residual(self, name, part):
        # adding 1 to cell (k, 0) of X = [gamma; Z] moves residual row r by
        # a_rk in column 0, for exactly the rows r where (A B) has a_rk != 0
        if name == "braid":
            g = gassner(from_braid_word(3, [1, -2, 1, 1, -2, 2, -1, -1]))
        else:
            g = gassner(load(CORPUS_DIR / name))
            assert any(not x.den.is_one() for row in g.entries.entries for x in row)
        F = g.fox
        assert not any(factorization_identity(F, g))
        rows = [row[:] for row in getattr(g, part).entries]
        rows[-1][0] = rows[-1][0] + RatFunc.one(F.num_vars)
        perturbed = dataclasses.replace(g, **{part: RatMatrix(F.num_vars, rows)})
        k = (F.n if part == "entries" else F.c) - 1
        hit = [r for r, row in enumerate(F.ab().cells) if k in row]
        residual = factorization_identity(F, perturbed)
        assert hit and [r for r, cells in enumerate(residual) if cells] == hit
        assert all(list(residual[r]) == [0] for r in hit)


class TestTorsion:
    def test_torsion_of_braids_is_a_unit(self):
        for name, word in braid_corpus_words():
            tau = torsion(fox_of_word(word))
            assert normalize_unit(tau) == LaurentPoly.one(tau.num_vars), name

    def test_twisted_hopf_torsion(self):
        tau = torsion(fox_of_word(add_twist(hopf(), 1)))
        assert normalize_unit(tau) == normalize_unit(parse_poly("t2 + t1 - t1*t2", 2))


class TestAlexanderFunction:
    def test_hopf_link_function(self):
        assert alexander_function(gassner(hopf())) == parse_ratfunc("t1*t2", 2)

    def test_closure_polynomial_of_hopf(self):
        V = closure_matrix(fox_of_word(hopf()))
        delta = alexander_poly_closure(V)
        assert normalize_unit(delta) == LaurentPoly.one(2)

    def test_closure_polynomial_rng_independent(self):
        V = closure_matrix(fox_of_word(from_braid_word(2, [1, 1, 1, 1])))
        a = alexander_poly_closure(V, rng=random.Random(1))
        b = alexander_poly_closure(V, rng=random.Random(999))
        assert a == b

    def test_minor_choice_invariance(self):
        # the normalized quotient det(V(i,j))/(1 - t_col(j)) over several
        # random minors; three pairs checked inside, assert stability
        words = [hopf(), from_braid_word(2, [1, 1, 1, 1]),
                 from_braid_word(3, [1, 1, 2, 2])]
        for word in words:
            V = closure_matrix(fox_of_word(word))
            values = [
                alexander_poly_closure(V, spot_checks=3, rng=random.Random(s))
                for s in (5, 6, 7)
            ]
            assert values[0] == values[1] == values[2]


class TestFullReport:
    def test_hopf_report(self):
        report = full_report(hopf())
        assert report.pure
        assert normalize_unit(report.tau) == LaurentPoly.one(2)
        assert normalize_unit(report.delta_closure) == LaurentPoly.one(2)
        assert report.delta_link == parse_ratfunc("t1*t2", 2)
        assert report.delta_closure_one == normalize_unit(parse_poly("1 - t", 1, ["t"]))
        assert report.multi_factorization_ok
        assert report.one_factorization_ok
        assert report.decomposition_residual_zero

    def test_trefoil_closure_is_one_variable_only(self):
        report = full_report(from_braid_word(2, [1, 1, 1]))
        assert not report.pure
        # knot closures have no multi-variable closure polynomial
        assert report.delta_closure is None
        assert report.delta_closure_one == normalize_unit(
            parse_poly("1 - t + t^2", 1, ["t"])
        )
        assert report.one_factorization_ok

    def test_unlink_report_accepts_zero(self):
        report = full_report(from_braid_word(2, []))
        assert report.delta_closure is not None
        assert report.delta_closure.is_zero()
        assert report.multi_factorization_ok
        assert report.one_factorization_ok

    def test_twisted_hopf_keeps_closure_polynomial(self):
        report = full_report(add_twist(hopf(), 1))
        assert normalize_unit(report.delta_closure) == LaurentPoly.one(2)
        assert report.multi_factorization_ok


class TestKnotClosure:
    def test_golden_hopf_with_sigma1(self):
        check = knot_closure_relation(hopf(), [1])
        assert check.ok and not check.degenerate
        assert check.lhs == normalize_unit(parse_poly("1 - t", 1, ["t"]))
        assert check.rhs_closure == normalize_unit(parse_poly("1 - t + t^2", 1, ["t"]))

    def test_default_braid(self):
        check = knot_closure_relation(hopf())
        assert check.ok and not check.degenerate

    def test_degenerate_reported_not_decided(self):
        check = knot_closure_relation(from_braid_word(2, []), [])
        assert check.degenerate
        assert check.ok is None

    def test_zero_sides_agree_without_degeneracy(self):
        check = knot_closure_relation(from_braid_word(2, []), [1])
        assert check.ok and not check.degenerate
        assert check.lhs.is_zero() and check.correction_num.is_zero()

    def test_record_gives_the_word_result(self, pure_corpus):
        # a report's own one-variable closure polynomial serves as well
        for name, word in pure_corpus:
            expected = knot_closure_relation(word)
            g = gassner(word)
            assert knot_closure_relation(g) == expected, name
            assert knot_closure_relation(full_report(g)) == expected, name

    def test_record_without_word_rejected(self):
        with pytest.raises(VerificationError):
            knot_closure_relation(full_twist(2), [1])

    def test_correction_identity_values(self):
        # (1 - t)(1 + t^3) = (1 - t + t^2)(1 - t^2) exactly
        check = knot_closure_relation(hopf(), [1])
        lhs = RatFunc(check.lhs) * check.correction_den
        rhs = RatFunc(check.rhs_closure) * check.correction_num
        assert equal_up_to_units(lhs, rhs)


class TestReducedFormIdentities:
    def test_multi_variable_version_on_pure_words(self):
        for gens, n in (([1, 1], 2), ([1, 1, 1, 1], 2), ([1, 1, 2, 2], 3)):
            word = from_braid_word(n, gens)
            g = gassner(word)
            nv = g.num_vars
            gt = reduce(g).entries
            I = RatMatrix.identity(nv, g.n - 1)
            num = det(I - gt)
            den = RatFunc(LaurentPoly.monomial(nv, (-1,) * nv)) - RatFunc.one(nv)
            rhs = num / den
            lhs = alexander_function(g)
            assert lhs == rhs or lhs == -rhs, gens

    def test_one_variable_version_on_any_words(self):
        # t det((I - burau)(11)) * (t^-1 + ... + t^-n) = det(I - reduced burau)
        for gens, n in (([1], 2), ([1, 1, 1], 2), ([1, -2], 3), ([1, 2, 1], 3)):
            word = from_braid_word(n, gens)
            b = burau(word)
            I = RatMatrix.identity(1, n)
            t = RatFunc(LaurentPoly.var(1, 0))
            lhs = t * det(minor_matrix(I - b, 0, 0))
            geom = None
            for k in range(1, n + 1):
                term = RatFunc(LaurentPoly.var(1, 0, -k))
                geom = term if geom is None else geom + term
            bt = reduce(b).entries
            rhs = det(RatMatrix.identity(1, n - 1) - bt)
            assert lhs * geom == rhs, gens


class TestIdealRank:
    def test_spot_instances(self):
        for word in (from_braid_word(2, []), hopf(), full_twist_braid_word(3)):
            V = closure_matrix(fox_of_word(word))
            g = gassner(word)
            for k in range(word.n + 1):
                assert ideal_rank_check(V, g, k), (word.n, k)

    def test_oversized_k_rejected(self):
        word = hopf()
        V = closure_matrix(fox_of_word(word))
        with pytest.raises(Exception):
            ideal_rank_check(V, gassner(word), 5)


def _reference_link_minor(g, i, j):
    """det((I - gamma)(i,j)) by the dense path: I - gamma as a RatMatrix,
    entry by entry, whose det clears each row of its denominators."""
    return det(minor_matrix(RatMatrix.identity(g.num_vars, g.n) - g.entries, i, j))


def _reference_alexander_function(g):
    """(t_1) det((I - gamma)(1,1)) / (1 - t_1) in RatFunc arithmetic."""
    nv = g.num_vars
    t1 = LaurentPoly.var(nv, g.colors[0] - 1)
    w = RatFunc(LaurentPoly.one(nv) - t1)
    return RatFunc(t1) * _reference_link_minor(g, 0, 0) * w.inverse()


def _reference_one_var_link(g):
    """t det((I - burau)(1,1)), burau = gamma with every variable collapsed."""
    b = RatMatrix(1, [[x.collapse_vars() for x in row] for row in g.entries.entries])
    minor = det(minor_matrix(RatMatrix.identity(1, g.n) - b, 0, 0))
    return RatFunc(LaurentPoly.var(1, 0)) * minor


def _same_fraction(got, want):
    """got = want term for term, numerator and denominator; a zero only in value."""
    if want.num.is_zero():
        return got.num.is_zero()
    return got.num == want.num and got.den == want.den


@pytest.fixture(scope="module")
def all_reports():
    """full_report of the corpus and of random_twisted_tangles(10, seed=4)."""
    words = [w for _, w in corpus_words()] + random_twisted_tangles(10, seed=4)
    return [full_report(w) for w in words]


class TestLinkMinorsOverOneDenominator:
    """The link minors are those of the Laurent matrix d I - N over d^(n-1);
    they give the fractions the dense RatMatrix path gives."""

    @pytest.fixture(scope="class")
    def reports(self, all_reports):
        reports = [r for r in all_reports if r.n >= 2]
        # non-unit denominators: twist_s2, twisted_k1, twisted_k2 and drawn tangles
        assert sum(not alexander._link_matrix(r.record)[1].is_one() for r in reports) >= 4
        return reports

    def test_every_minor_matches_the_dense_path(self, reports):
        for r in reports:
            g = r.record
            M, d = alexander._link_matrix(g)
            for i in range(g.n):
                for j in range(g.n):
                    got = RatFunc(det(M.minor(i, j)).num, d ** (g.n - 1))
                    assert _same_fraction(got, _reference_link_minor(g, i, j)), (g.word, i, j)

    def test_link_polynomials_match_the_dense_path(self, reports):
        multi = 0
        for r in reports:
            g = r.record
            assert _same_fraction(r.delta_link_one, _reference_one_var_link(g)), g.word
            if r.delta_link is not None:
                multi += 1
                want = _reference_alexander_function(g)
                assert _same_fraction(r.delta_link, want), g.word
                assert r.delta_link.reduced().to_text() == want.reduced().to_text()
        assert multi >= 10

    def test_ideal_rank_matches_the_dense_path(self, reports):
        for r in reports:
            g = r.record
            V = closure_matrix(g.fox)
            multiplicity = g.n - rank(RatMatrix.identity(g.num_vars, g.n) - g.entries)
            for k in range(g.n + 1):
                want = (rank(V.V) < V.c - k) == (multiplicity >= k + 1)
                assert ideal_rank_check(V, g, k) == want, (g.word, k)

    def test_no_dense_matrix_on_these_paths(self, reports, monkeypatch):
        def refuse(*_args):
            raise AssertionError("dense matrix on the link-minor path")

        monkeypatch.setattr(algebra, "_cleared_rows", refuse)
        monkeypatch.setattr(RatMatrix, "__init__", refuse)
        for r in reports:
            g = r.record
            if r.delta_link is not None:
                alexander_function(g)
            M, _d = alexander._link_matrix(g)
            alexander._one_var_minor(M)
            for k in range(g.n + 1):
                ideal_rank_check(closure_matrix(g.fox), g, k)


class TestTorsionAndDetGamma:
    """det(gamma) tau = unit * bar(tau): the torsion reading of det(gamma)."""

    def test_det_gamma_times_tau_is_bar_tau(self, all_reports):
        non_unit = 0
        for r in all_reports:
            g = r.record
            tau = RatFunc(torsion(g.fox))
            det_gamma = det(g.entries)
            assert equal_up_to_units(det_gamma * tau, tau.bar()), g.word
            # negative control: the wrong form det(gamma) = u tau / bar(tau)
            # fails exactly where tau is not a unit
            wrong = equal_up_to_units(det_gamma * tau.bar(), tau)
            assert wrong == tau.num.is_monomial(), g.word
            non_unit += not tau.num.is_monomial()
        assert len(all_reports) == 36 and non_unit == 6


def _seeded_braids(count: int, seed: int):
    """Signed braid words on 3-4 strands, pure or not, 2-8 crossings."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.choice([3, 4])
        words.append(from_braid_word(n, [rng.randint(1, n - 1) * rng.choice([1, -1])
                                         for _ in range(rng.randint(2, 8))]))
    return words


class TestEachDeterminantOnce:
    """full_report reads tau off the solve's denominator and collapses the
    certified multivariable closure minor; the replaced paths, its own
    det(A B) and the collapsed (1,1) minor of V, give the same values."""

    @pytest.fixture(scope="class")
    def reports(self, all_reports):
        return all_reports + [full_report(w) for w in _seeded_braids(16, seed=21)]

    def test_tau_is_the_torsion_determinant(self, reports):
        non_unit = 0
        for r in reports:
            assert r.tau == torsion(r.record.fox), r.record.word
            non_unit += not r.tau.is_one()
        assert len(reports) == 52 and non_unit == 6

    def test_one_variable_closure_is_the_collapsed_minor(self, reports):
        collapsed = cups = 0
        for r in reports:
            want = normalize_unit(alexander._one_var_minor(closure_matrix(r.record.fox).V))
            assert r.delta_closure_one == want, r.record.word
            collapsed += r.delta_closure is not None
            cups += any(isinstance(ev, (Cap, CupL, CupR)) for ev in r.record.word.events)
        assert collapsed == 42 and cups == 15
        assert any(r.delta_closure is not None and r.delta_closure.is_zero() for r in reports)

    def test_a_wrong_denominator_is_still_caught(self):
        # N, Z and d times (2 - t1): gamma is the same, and d still augments
        # to +-1, so only the factorization checks can see the wrong tau.
        g = gassner(hopf())
        scale = LaurentPoly.const(2, 2) - LaurentPoly.var(2, 0)

        def scaled(m):
            return RatMatrix(2, [[RatFunc(x.num * scale, x.den * scale) for x in row]
                                 for row in m.entries])

        bad = dataclasses.replace(g, entries=scaled(g.entries), Z=scaled(g.Z))
        assert bad.entries == g.entries and bad.Z == g.Z
        report = full_report(bad)
        assert report.tau == scale and algebra.augment(report.tau) == 1
        assert report.decomposition_residual_zero  # d V - (A B) X scales with d
        assert report.multi_factorization_ok is False
        assert report.one_factorization_ok is False
        assert full_report(g).multi_factorization_ok is True

    def test_closure_minor_not_divisible_by_one_minus_t_is_refused(self):
        one, t1, t2 = LaurentPoly.one(2), LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
        # the (1,1) minor is the cell 2, which 1 - t1 does not divide
        V = alexander.ClosureMatrix(2, 2, 2, algebra.SparseMatrix(2, 2, [
            {0: one - t2, 1: t1}, {0: t2, 1: LaurentPoly.const(2, 2)}]), (1, 2))
        with pytest.raises(VerificationError, match="not divisible"):
            alexander_poly_closure(V)
