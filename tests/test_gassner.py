"""Colored matrix invariants: golden values, functoriality, unitarity."""

import cmath
import dataclasses
import importlib

import pytest

from stringlinks import (
    LaurentPoly,
    RatFunc,
    SparseMatrix,
    VerificationError,
    add_kink,
    burau,
    charpoly_coefficients,
    default_angles,
    det,
    factorization_identity,
    fixes_weight_vectors,
    from_braid_word,
    full_twist,
    full_twist_braid_word,
    gassner,
    invariant_form,
    invert,
    matrix_from_json,
    matrix_to_json,
    normalize_unit,
    numeric_eval,
    parse_ratfunc,
    reduce,
    stack,
    unitary_spectrum_check,
)
from stringlinks.diagram import CrossNeg, CrossPos, CupL, CupR, MorseError, MorseWord, is_crossing
from stringlinks.gassner import squared

from conftest import CORPUS_DIR, corpus_words, load, random_pure_braids, random_twisted_tangles


gassner_module = importlib.import_module("stringlinks.gassner")


def rf(text, nv=2):
    return parse_ratfunc(text, nv)


def hopf():
    return from_braid_word(2, [1, 1])


class TestGoldenValues:
    def test_hopf_matrix(self):
        g = gassner(hopf())
        expected = [
            ["t2", "1 - t1"],
            ["t2 - t2^2", "1 - t2 + t1*t2"],
        ]
        for i in range(2):
            for j in range(2):
                assert g.entries[i, j] == rf(expected[i][j]), (i, j)

    def test_burau_single_generator(self):
        b = burau(from_braid_word(2, [1]))
        expected = [["0", "1"], ["t", "1 - t"]]
        for i in range(2):
            for j in range(2):
                assert b[i, j] == rf(expected[i][j], 1), (i, j)

    def test_reduced_hopf(self):
        gt = reduce(gassner(hopf()))
        assert gt.entries.rows == 1
        assert gt.entries[0, 0] == rf("t1*t2")

    def test_full_twist_closed_form(self):
        for n in (2, 3):
            closed = full_twist(n)
            direct = gassner(full_twist_braid_word(n))
            assert closed.entries == direct.entries, n

    def test_full_twist_single_strand_is_identity(self):
        # one strand has nothing to twist around: the matrix is [1]
        assert full_twist(1).entries == SparseMatrix.identity(1, 1)


class TestFunctoriality:
    def test_stacking_multiplicativity_seeded(self):
        words = random_pure_braids(20, seed=101)
        pairs = zip(words[::2], words[1::2])
        for a, b in pairs:
            ab = stack(a, b)
            assert gassner(ab).entries == gassner(a).entries * gassner(b).entries

    def test_reduction_is_multiplicative(self):
        words = random_pure_braids(6, seed=55)
        for a, b in zip(words[::2], words[1::2]):
            left = reduce(gassner(stack(a, b))).entries
            right = reduce(gassner(a)).entries * reduce(gassner(b)).entries
            assert left == right

    def test_concordance_inverse_gives_identity(self):
        for gens in ([1], [1, 2], [1, -2, 1], [2, 2, 1]):
            word = from_braid_word(3, gens)
            doubled = stack(word, invert(word))
            g = gassner(doubled)
            assert g.entries == SparseMatrix.identity(g.num_vars, g.n), gens

    def test_braid_relation(self):
        left = gassner(from_braid_word(3, [1, 2, 1]))
        right = gassner(from_braid_word(3, [2, 1, 2]))
        assert left.entries == right.entries

    def test_distant_generators_commute(self):
        left = gassner(from_braid_word(4, [1, 3]))
        right = gassner(from_braid_word(4, [3, 1]))
        assert left.entries == right.entries


@pytest.fixture(scope="module")
def tangles_seed4():
    return random_twisted_tangles(20, seed=4)


def one_denominator(g):
    """The denominator every entry of gamma and Z shares."""
    dens = {x.den for row in g.entries.entries + g.Z.entries for x in row}
    assert len(dens) == 1
    return dens.pop()


class TestStackingOverOneDenominator:
    # Words whose solve leaves a core with a non-unit denominator d.  With d
    # unit-normal, d(LL) is literally d(L)^2, so the stacking compare takes
    # RatFunc's equal-denominator branch instead of cross-multiplying.
    @pytest.mark.parametrize("index", [2, 5, 16])
    def test_doubled_word_denominator_is_the_square(self, tangles_seed4, index):
        word = tangles_seed4[index]
        g, doubled = gassner(word), gassner(stack(word, word))
        assert doubled.entries == g.entries * g.entries
        d, dd = one_denominator(g), one_denominator(doubled)
        assert not d.is_one()
        assert normalize_unit(d) == d and normalize_unit(dd) == dd
        assert dd == d * d


class TestSquared:
    # verify's stacking product: gamma^2 as N N over d^2, read off the record
    def test_squared_is_the_matrix_product(self, tangles_seed4):
        words = [word for _, word in corpus_words()] + tangles_seed4 + random_pure_braids(5, seed=31)
        seen_non_unit = 0
        for word in words:
            try:
                g = gassner(word)
            except MorseError:
                continue  # a word that permutes colors has no gamma
            d = one_denominator(g)
            sq = squared(g)
            assert sq == g.entries * g.entries
            assert {x.den for row in sq.entries for x in row} == {d * d}
            seen_non_unit += not d.is_one()
        assert seen_non_unit

    def test_entries_over_two_denominators_are_refused(self):
        # a hand-built record whose gamma is over d q and Z over d: the same
        # values, but the factorization reads [N_gamma; N_Z] over one d
        g = gassner(load(CORPUS_DIR / "twist_s2.sl"))
        q = LaurentPoly.one(g.num_vars) + LaurentPoly.var(g.num_vars, 0)
        entries = SparseMatrix(g.num_vars, g.n, [{j: x * q for j, x in row.items()}
                                                 for row in g.entries.cells], g.entries.den * q)
        mixed = dataclasses.replace(g, entries=entries)
        assert mixed.entries == g.entries
        with pytest.raises(VerificationError, match="share one denominator"):
            factorization_identity(g.fox, mixed)


class TestInvariance:
    def test_kink_invariance(self):
        word = hopf()
        for strand in (1, 2):
            assert gassner(add_kink(word, strand)).entries == gassner(word).entries

    def test_cancelling_pair_invariance(self):
        word = from_braid_word(2, [1, -1])
        g = gassner(word)
        assert g.entries == SparseMatrix.identity(g.num_vars, 2)

    def test_weight_vectors_on_seeded_words(self):
        for word in random_pure_braids(10, seed=77):
            assert fixes_weight_vectors(gassner(word)) == (True, True)

    def test_trace_drops_by_one_under_reduction(self):
        g = gassner(hopf())
        gt = reduce(g)
        tr_full = g.entries[0, 0] + g.entries[1, 1]
        assert tr_full == gt.entries[0, 0] + RatFunc.one(2)


class TestOneVariable:
    def test_burau_is_collapsed_gassner(self):
        # Colorable words, pure or not, with and without a cyclic Fox core:
        # the monochrome solve agrees with gamma specialized at t_i -> t.
        words = [word for _, word in corpus_words()]
        words += random_pure_braids(5, seed=9) + random_twisted_tangles(4, seed=9)
        for word in words:
            g = gassner(word)
            b = burau(word)
            for i in range(g.n):
                for j in range(g.n):
                    assert g.entries[i, j].collapse_vars() == b[i, j]


class TestNumeric:
    def test_numeric_eval_matches_symbolic_substitution(self):
        g = gassner(hopf())
        angles = [0.11, 0.07]
        M = numeric_eval(g.entries, angles)
        t1 = cmath.exp(2j * cmath.pi * angles[0])
        t2 = cmath.exp(2j * cmath.pi * angles[1])
        assert abs(M[0][0] - t2) < 1e-12
        assert abs(M[0][1] - (1 - t1)) < 1e-12
        assert abs(M[1][0] - (1 - t2) * t2) < 1e-12

    def test_unit_spectrum_for_pure_words(self):
        for word in random_pure_braids(5, seed=13):
            report = unitary_spectrum_check(reduce(gassner(word)))
            assert report.ok
            assert report.max_deviation < 1e-8

    def test_angles_outside_wedge_can_break_unitarity(self):
        # reduced matrix of s1 s2^-1 at t = -1 has eigenvalues
        # (3 +- sqrt(5))/2; the deviation is the golden ratio
        word = from_braid_word(3, [1, -2])
        report = unitary_spectrum_check(reduce(gassner(word)), angles=[0.5])
        assert not report.ok
        assert abs(report.max_deviation - 1.6180339887) < 1e-6

    def test_charpoly_matches_direct_determinant(self):
        M = gassner(hopf()).entries
        coeffs = charpoly_coefficients(M)
        assert len(coeffs) == 3
        assert coeffs[2] == RatFunc.const(2, 1)
        assert coeffs[0] == det(M)
        x = RatFunc.const(2, 3)
        shifted = M - SparseMatrix(2, 2, [{0: x.num}, {1: x.num}])
        assert coeffs[0] + coeffs[1] * x + coeffs[2] * x * x == det(shifted)


class TestInvariantForm:
    def test_two_strand_form(self):
        samples = [hopf(), from_braid_word(2, [1, 1, 1, 1])]
        form = invariant_form(2, samples)
        J = form.J
        assert J.rows == 1 and J.cols == 1
        assert not J[0, 0].is_zero()
        # skew-hermitian under the bar involution
        assert not any((J.bar_transpose() + J).cells)

    def test_three_strand_form_held_out(self):
        samples = [
            from_braid_word(3, [1, 1]),
            from_braid_word(3, [2, 2]),
            from_braid_word(3, [2, 1, 1, -2]),
        ]
        form = invariant_form(3, samples)
        J = form.J
        assert any(not x.is_zero() for row in J.entries for x in row)
        for word in random_pure_braids(4, seed=31):
            gt = reduce(gassner(word)).entries
            assert gt.bar_transpose() * J * gt == J

    def test_zero_form_is_refused(self, monkeypatch):
        # J = 0 satisfies gt* J gt = J for every sample, so it proves nothing
        monkeypatch.setattr(gassner_module, "left_kernel_vector",
                            lambda M: [LaurentPoly.zero(M.num_vars)] * M.rows)
        with pytest.raises(VerificationError, match="J = 0"):
            invariant_form(2, [hopf()])


class TestSerialization:
    def test_matrix_json_round_trip(self):
        g = gassner(hopf())
        again = matrix_from_json(matrix_to_json(g.entries))
        assert again == g.entries

    def test_reduced_json_round_trip(self):
        gt = reduce(gassner(from_braid_word(3, [1, 1, 2, 2])))
        assert matrix_from_json(matrix_to_json(gt.entries)) == gt.entries


class TestValidation:
    def test_color_mismatch_rejected(self):
        # closure colors must be constant on permutation cycles
        from stringlinks import MorseError
        word = MorseWord(2, (1, 2), (CrossPos(1),))
        with pytest.raises(MorseError):
            gassner(word)


class TestReduceValues:
    """reduce over one denominator, (N_kj w_1 - N_1j w_k) / (d w_1), against
    gamma_kj - gamma_1j w_k / w_1 in RatFunc arithmetic."""

    def test_corpus_and_drawn_tangles(self):
        words = [word for _, word in corpus_words()] + random_twisted_tangles(10, seed=4)
        checked = non_unit = 0
        for word in words:
            try:
                g = gassner(word)
            except MorseError:
                continue  # a word that permutes colors has no gamma
            nv, gamma = g.num_vars, g.entries.entries
            w = [RatFunc(LaurentPoly.one(nv) - LaurentPoly.var(nv, c - 1)) for c in g.colors]
            want = [[gamma[k][j] - gamma[0][j] * w[k] / w[0] for j in range(1, g.n)]
                    for k in range(1, g.n)]
            got = reduce(g).entries
            assert (got.rows, got.cols) == (g.n - 1, g.n - 1)
            assert got.entries == want, word
            checked += g.n > 1
            non_unit += not g.entries.den.is_one()
        assert checked >= 30 and non_unit >= 5


class TestConcordanceOnTangles:
    """gamma(L invert(L)) = I = gamma(L) gamma(invert(L)) on drawn tangles,
    most of whose torsions are not units."""

    @pytest.fixture(scope="class")
    def draws(self):
        words = random_twisted_tangles(40, seed=9)
        assert sum(not gassner(w).entries.den.is_one() for w in words) == 14
        return words

    def test_inverse_cancels(self, draws):
        for word in draws:
            g, inverse = gassner(word), gassner(invert(word))
            identity = SparseMatrix.identity(g.num_vars, g.n)
            assert gassner(stack(word, invert(word))).entries == identity, word
            assert g.entries * inverse.entries == identity, word

    def test_mirror_keeping_crossing_types_fails(self, draws):
        # reflected without trading CrossPos for CrossNeg: not an inverse
        def mirror(word):
            caps_reflected = invert(word)
            crossings = [ev for ev in reversed(word.events) if is_crossing(ev)]
            events = [crossings.pop(0) if is_crossing(ev) else ev for ev in caps_reflected.events]
            return MorseWord(word.n, caps_reflected.colors, tuple(events))

        failed = 0
        for word in draws:
            g = gassner(word)
            failed += gassner(stack(word, mirror(word))).entries != SparseMatrix.identity(g.num_vars, g.n)
        assert failed > 0

    def test_every_cap_to_cup_l_is_refused(self, draws):
        # the reflected cap must open the way the reversed strands flow
        def all_cup_l(word):
            events = [CupL(ev.pos) if isinstance(ev, CupR) else ev for ev in invert(word).events]
            return MorseWord(word.n, invert(word).colors, tuple(events))

        for word in draws:
            with pytest.raises(MorseError, match="aligned orientations"):
                gassner(stack(word, all_cup_l(word)))
