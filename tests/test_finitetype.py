"""Truncated Taylor expansions and finite-type vanishing."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from stringlinks import (
    MorseWord,
    SeriesMatrix,
    TruncatedSeries,
    VerificationError,
    add_kink,
    alternating_sum,
    finitetype,
    from_braid_word,
    stack,
    taylor_gassner,
    trace,
)
from stringlinks.diagram import CrossNeg, CrossPos, is_crossing

from conftest import CORPUS_DIR, load, pure_corpus_words, random_pure_braids, random_twisted_tangles


def hopf():
    return from_braid_word(2, [1, 1])


class TestTaylorExpansion:
    def test_hopf_order_two_frozen(self):
        series = taylor_gassner(hopf(), 2)
        # entry (1,1): 1 - z2
        assert series[0, 0].coefficient((0, 0)) == 1
        assert series[0, 0].coefficient((0, 1)) == -1
        assert series[0, 0].coefficient((1, 0)) == 0
        # entry (1,2): z1
        assert series[0, 1].coefficient((1, 0)) == 1
        assert series[0, 1].coefficient((0, 0)) == 0
        # entry (2,1): z2 - z2^2
        assert series[1, 0].coefficient((0, 1)) == 1
        assert series[1, 0].coefficient((0, 2)) == -1
        # entry (2,2): 1 - z1 + z1 z2
        assert series[1, 1].coefficient((0, 0)) == 1
        assert series[1, 1].coefficient((1, 0)) == -1
        assert series[1, 1].coefficient((1, 1)) == 1

    def test_linking_number_coefficient(self):
        series = taylor_gassner(hopf(), 1)
        assert series[0, 1].coefficient((1, 0)) == 1

    def test_constant_term_is_identity_on_pure_corpus(self):
        for name, word in pure_corpus_words():
            series = taylor_gassner(word, 1)
            n = series.n
            for i in range(n):
                for j in range(n):
                    expected = 1 if i == j else 0
                    zero = (0,) * series.num_vars
                    assert series[i, j].coefficient(zero) == expected, name

    def test_trivial_expansion(self):
        series = taylor_gassner(from_braid_word(2, []), 3)
        assert series[0, 1].is_zero()
        assert series[0, 0].coefficient((0, 0)) == 1
        assert series[0, 0].coefficient((1, 0)) == 0

    def test_multiplicativity_truncated(self):
        words = random_pure_braids(4, seed=23)
        for a, b in zip(words[::2], words[1::2]):
            left = taylor_gassner(stack(a, b), 3)
            right = taylor_gassner(a, 3) * taylor_gassner(b, 3)
            assert (left - right).is_zero()


class TestAlternatingSums:
    def test_order_one_on_hopf(self):
        series = alternating_sum(hopf(), [1], 3)
        assert series.vanishes_below(1)
        assert series.min_total_degree() == 1

    def test_order_two(self):
        word = from_braid_word(2, [1, 1, 1, 1])
        series = alternating_sum(word, [1, 3], 4)
        assert series.vanishes_below(2)
        assert series.min_total_degree() == 2

    def test_order_three(self):
        word = from_braid_word(2, [1, 1, 1, 1])
        series = alternating_sum(word, [1, 2, 3], 5)
        assert series.vanishes_below(3)
        assert series.min_total_degree() == 3

    def test_kink_flip_vanishes_identically(self):
        # flipping a kink crossing changes nothing up to isotopy
        word = add_kink(from_braid_word(1, []), 1)
        crossing = next(
            i + 1 for i, ev in enumerate(word.events)
            if type(ev).__name__.startswith("Cross")
        )
        series = alternating_sum(word, [crossing], 4)
        assert series.is_zero()

    def test_duplicate_indices_rejected(self):
        with pytest.raises(VerificationError):
            alternating_sum(hopf(), [1, 1], 3)

    def test_non_crossing_index_rejected(self):
        word = add_kink(from_braid_word(1, []), 1)
        cup_index = next(
            i + 1 for i, ev in enumerate(word.events)
            if not type(ev).__name__.startswith("Cross")
        )
        with pytest.raises(VerificationError):
            alternating_sum(word, [cup_index], 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(VerificationError):
            alternating_sum(hopf(), [9], 3)


def reference_alternating_sum(L, indices, N):
    """Expand each of the 2^k variants, negate by the parity of its
    positive choices, and add the 2^k series."""
    total = None
    for signs in product((1, -1), repeat=len(indices)):
        events = list(L.events)
        for idx, sign in zip(indices, signs):
            events[idx - 1] = (CrossPos if sign > 0 else CrossNeg)(events[idx - 1].pos)
        term = taylor_gassner(MorseWord(L.n, L.colors, tuple(events)), N)
        if signs.count(1) % 2:
            term = SeriesMatrix(term.n, term.num_vars, term.bound,
                                tuple(tuple(-x for x in row) for row in term.entries))
        total = term if total is None else total + term
    return total


def crossings(word):
    return [i + 1 for i, ev in enumerate(word.events) if is_crossing(ev)]


def seeded_flips(word, rng, sizes):
    xs = crossings(word)
    return [sorted(rng.sample(xs, k)) for k in sizes if k <= len(xs)]


class TestSumThenExpand:
    """alternating_sum adds the solved matrices over each denominator and
    expands once; it must equal the expand-then-sum loop it replaced."""

    @staticmethod
    def check(word, flips, label):
        N = len(flips) + 1
        got, want = alternating_sum(word, flips, N), reference_alternating_sum(word, flips, N)
        assert got == want, (label, flips)
        assert got.min_total_degree() == want.min_total_degree(), (label, flips)
        assert got.to_json() == want.to_json(), (label, flips)

    def test_pure_corpus_words(self):
        rng = random.Random(3)
        for name, word in pure_corpus_words():
            for flips in seeded_flips(word, rng, (1, 2, 3)):
                self.check(word, flips, name)

    def test_random_pure_braids(self):
        rng = random.Random(17)
        for i, word in enumerate(random_pure_braids(8, seed=29)):
            for flips in seeded_flips(word, rng, (1, 2, 3)):
                self.check(word, flips, "braid %d" % i)

    def test_twisted_tangles(self):
        rng = random.Random(19)
        for i, word in enumerate(random_twisted_tangles(5, seed=31)):
            for flips in seeded_flips(word, rng, (1, 2)):
                self.check(word, flips, "tangle %d" % i)

    @pytest.mark.parametrize("name", ["twist_s2.sl", "twisted_k1.sl", "twisted_k2.sl"])
    def test_variants_over_different_denominators(self, name, monkeypatch):
        # every 1- and 2-flip set whose variants' solves do not share one
        # denominator; each entry is expanded once per distinct denominator
        word = load(CORPUS_DIR / name)
        expansions, dens = [], []
        expand, solved = finitetype.taylor_expand, finitetype.gassner

        def counted_expand(r, bound):
            expansions.append(r)
            return expand(r, bound)

        def recorded_gassner(w):
            g = solved(w)
            dens.append(g.entries.den)
            return g

        monkeypatch.setattr(finitetype, "taylor_expand", counted_expand)
        monkeypatch.setattr(finitetype, "gassner", recorded_gassner)
        checked = 0
        for k in (1, 2):
            for flips in map(list, combinations(crossings(word), k)):
                want = reference_alternating_sum(word, flips, k + 1)
                del expansions[:], dens[:]
                got = alternating_sum(word, flips, k + 1)
                distinct = set(dens)
                if len(distinct) == 1:
                    continue
                checked += 1
                assert len(dens) == 2 ** k
                assert len(expansions) == word.n ** 2 * len(distinct)
                assert got == want and got.to_json() == want.to_json(), flips
                assert got.min_total_degree() == want.min_total_degree(), flips
        assert checked >= 5


def _linking_numbers(diagram, signed=True):
    """lk(i, j): half the signs of the crossings between strands i and j
    (0-based), read off the traced diagram; with signed=False every
    crossing counts +1, which is not an invariant."""
    lk = [[0] * diagram.n for _ in range(diagram.n)]
    for crossing in diagram.crossings:
        a = diagram.arcs[crossing.over_arc].strand - 1
        b = diagram.arcs[crossing.under_in_arc].strand - 1
        if a != b:
            lk[a][b] += crossing.sign if signed else 1
            lk[b][a] += crossing.sign if signed else 1
    return [[Fraction(x, 2) for x in row] for row in lk]


def _degree_one(diagram, lk):
    """gamma to degree 1: gamma_ij = lk(i, j) z_i, gamma_ii = 1 - sum_k lk(i, k) z_k,
    z_i the variable of strand i's color."""
    nv = max(diagram.colors)

    def z(i):
        return tuple(int(k == diagram.colors[i] - 1) for k in range(nv))

    rows = []
    for i in range(diagram.n):
        row = []
        for j in range(diagram.n):
            terms = {z(i): lk[i][j]} if i != j else {(0,) * nv: 1}
            if i == j:
                for k in range(diagram.n):
                    terms[z(k)] = terms.get(z(k), 0) - lk[i][k]
            row.append(TruncatedSeries(nv, 1, terms))
        rows.append(row)
    return rows


class TestDegreeOne:
    """The degree-1 Taylor coefficients of gamma are the linking numbers."""

    @pytest.fixture(scope="class")
    def words(self):
        tangles = [w for w in random_twisted_tangles(60, seed=11)
                   if trace(w).is_pure and len(set(w.colors)) == w.n]
        assert len(tangles) == 28
        return tangles + random_pure_braids(60, seed=12)

    def test_linking_numbers(self, words):
        for word in words:
            diagram = trace(word)
            lk = _linking_numbers(diagram)
            assert all(x.denominator == 1 for row in lk for x in row)
            series, want = taylor_gassner(word, 1), _degree_one(diagram, lk)
            assert all(series[i, j] == want[i][j] for i in range(word.n) for j in range(word.n)), word

    def test_unsigned_counts_fail(self, words):
        failed = 0
        for word in words:
            diagram = trace(word)
            series, want = taylor_gassner(word, 1), _degree_one(diagram, _linking_numbers(diagram, False))
            failed += any(series[i, j] != want[i][j] for i in range(word.n) for j in range(word.n))
        assert failed > len(words) // 2
