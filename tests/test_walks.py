"""Walk-sum labelings and the strand-twist formula."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stringlinks import (
    LaurentPoly,
    RatFunc,
    RatMatrix,
    add_twist,
    factorization_identity,
    fox_of_word,
    from_braid_word,
    gassner,
    parse_ratfunc,
    solve,
    solve_labeling,
    torsion,
    trace,
    twist_formula,
    walk_matrix,
)
from stringlinks.algebra import VerificationError, _coerce_entry, _unit_pivot_eliminate, augment
from stringlinks.diagram import add_kink, permutation

from conftest import (
    corpus_words,
    is_permuted_triangular,
    random_pure_braids,
    random_twisted_tangles,
)


def _fixed_point_labeling(diagram, top_labels, nv):
    """Reference: the labeling of one column of top labels, rule by rule.

    Every pass over the pending rules fires those whose dependencies are
    all labeled, in RatFunc arithmetic, until a pass makes no progress;
    the rules left form a dense RatMatrix system with one right-hand side.
    """
    labels = [None] * diagram.num_edges
    for j, value in enumerate(top_labels):
        labels[diagram.top_edges[j]] = _coerce_entry(value, nv)
    one = RatFunc.one(nv)
    rules = []
    for ci, (o_in, o_out, u_in, u_out) in enumerate(diagram.crossing_edges):
        t_o_color = diagram.colors[diagram.edge_strand[o_out] - 1]
        t_u_color = diagram.colors[diagram.edge_strand[u_out] - 1]
        t_o = LaurentPoly.var(nv, t_o_color - 1)
        t_u = LaurentPoly.var(nv, t_u_color - 1)
        t_o_inv = LaurentPoly.var(nv, t_o_color - 1, -1)
        rules.append((o_in, [(one, o_out)]))
        if diagram.crossings[ci].sign == 1:
            dive = RatFunc(t_o)
            jump = RatFunc(LaurentPoly.one(nv) - t_u)
        else:
            dive = RatFunc(t_o_inv)
            jump = RatFunc(t_o_inv * (t_u - LaurentPoly.one(nv)))
        rules.append((u_in, [(dive, u_out), (jump, o_out)]))

    pending = list(rules)
    while pending:
        progressed = False
        stalled = []
        for lhs, terms in pending:
            if all(labels[d] is not None for _, d in terms):
                total = RatFunc.zero(nv)
                for coeff, d in terms:
                    total = total + coeff * labels[d]
                labels[lhs] = total
                progressed = True
            else:
                stalled.append((lhs, terms))
        pending = stalled
        if not progressed:
            break

    if pending:
        unknowns = sorted({lhs for lhs, _ in pending})
        index = {e: k for k, e in enumerate(unknowns)}
        size = len(unknowns)
        assert len(pending) == size
        zero = RatFunc.zero(nv)
        M = [[zero for _ in range(size)] for _ in range(size)]
        b = [[zero] for _ in range(size)]
        for r, (lhs, terms) in enumerate(pending):
            M[r][index[lhs]] = M[r][index[lhs]] + one
            for coeff, d in terms:
                if labels[d] is not None:
                    b[r][0] = b[r][0] + coeff * labels[d]
                else:
                    M[r][index[d]] = M[r][index[d]] - coeff
        X = solve(RatMatrix(nv, M), RatMatrix(nv, b))
        for e, k in index.items():
            labels[e] = X[k, 0]
    return labels


def _assert_matches_reference(diagram, grid):
    nv = max(diagram.colors)
    labels = solve_labeling(diagram, grid, nv)
    assert len(labels) == diagram.num_edges
    for k in range(len(grid[0])):
        reference = _fixed_point_labeling(diagram, [row[k] for row in grid], nv)
        assert [edge[k] for edge in labels] == reference, k


def _random_poly(rng, nv, coeffs=(-2, -1, 1, 2, 3)):
    exps = [tuple(rng.randint(-2, 2) for _ in range(nv)) for _ in range(rng.randint(1, 3))]
    return LaurentPoly(nv, {e: rng.choice(coeffs) for e in exps})


def _labeling_words():
    return ([word for _name, word in corpus_words()] + random_pure_braids(6, seed=43)
            + random_twisted_tangles(8, seed=5))


def test_one_pass_labeling_matches_reference_on_the_identity():
    for word in _labeling_words():
        d = trace(word)
        _assert_matches_reference(d, [[int(i == j) for j in range(d.n)] for i in range(d.n)])


def test_one_pass_labeling_matches_reference_on_laurent_grids():
    # m = n + 2 > n columns: seeded Laurent columns and a zero column
    rng = random.Random(77)
    for word in _labeling_words():
        d = trace(word)
        nv = max(d.colors)
        _assert_matches_reference(d, [[_random_poly(rng, nv) for _ in range(d.n + 1)] + [0]
                                      for _ in range(d.n)])


def test_one_pass_labeling_matches_reference_on_fraction_grids():
    # two columns of RatFunc labels with Fraction coefficients, each over a
    # binomial denominator 2 + t^+-1 of its own, so the grid clears to
    # D = q1 q2.  (One small denominator per column keeps the reference's
    # unreduced RatFunc sums and dense core solve from swelling.)
    rng = random.Random(79)
    halves = (Fraction(1, 2), Fraction(-3, 2), 2)
    for word in _labeling_words():
        d = trace(word)
        nv = max(d.colors)
        dens = [LaurentPoly.const(nv, 2) + LaurentPoly.var(nv, rng.randrange(nv), rng.choice((-1, 1)))
                for _ in range(2)]
        _assert_matches_reference(d, [[RatFunc(_random_poly(rng, nv, halves), q) for q in dens]
                                      for _ in range(d.n)])


def test_one_pass_labeling_matches_reference_on_one_column():
    rng = random.Random(78)
    for word in _labeling_words():
        d = trace(word)
        nv = max(d.colors)
        column = [[RatFunc(_random_poly(rng, nv), LaurentPoly.const(nv, 3))] for _ in range(d.n)]
        column[0] = [Fraction(2, 3)]
        _assert_matches_reference(d, column)


def test_labeling_grid_must_have_n_rows_of_one_length():
    d = trace(from_braid_word(2, [1, 1]))
    for grid in ([[1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [1]]):
        with pytest.raises(VerificationError):
            solve_labeling(d, grid)


def test_walk_matches_fox_on_small_words():
    for gens, n in (([1], 2), ([1, 1], 2), ([1, -2], 3), ([2, 2, 1, 1], 3)):
        word = from_braid_word(n, gens)
        assert walk_matrix(trace(word)) == gassner(word).entries, gens


def test_walk_matches_fox_on_corpus():
    for name, word in corpus_words():
        assert walk_matrix(trace(word)) == gassner(word).entries, name


def test_walk_matches_fox_on_seeded_words():
    for word in random_pure_braids(8, seed=41):
        assert walk_matrix(trace(word)) == gassner(word).entries


def fox_core_size(fox) -> int:
    """Size of the core that monomial pivots leave in solve's (A B -C)."""
    rows = [{j: -p if j >= fox.c else p for j, p in row.items()} for row in fox.rows]
    _pivots, core = _unit_pivot_eliminate(rows, fox.num_vars, fox.c, fox.n)
    return len(core)


def test_fox_and_walk_agree_on_twisted_tangles():
    words = random_twisted_tangles(10, seed=4)
    foxes = [fox_of_word(word) for word in words]
    assert sum(not is_permuted_triangular(F.ab()) for F in foxes) >= 8
    assert any(fox_core_size(F) for F in foxes)
    for word, F in zip(words, foxes):
        g = gassner(word)
        assert walk_matrix(trace(word)) == g.entries, word
        assert not any(factorization_identity(F, g)), word
        assert abs(augment(torsion(F))) == 1, word


@st.composite
def twisted_braid_words(draw):
    """A braid word on 2-4 strands, then one or two negative twists at
    drawn strands that return to their own slot (if any does), then kinks
    at drawn strands."""
    n = draw(st.integers(2, 4))
    gens = draw(st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
                         max_size=6))
    word = from_braid_word(n, gens)
    fixed = [s for s in range(1, n + 1) if permutation(word)[s - 1] == s]
    for s in draw(st.lists(st.sampled_from(fixed), min_size=1, max_size=2)) if fixed else ():
        word = add_twist(word, s)
    for s in draw(st.lists(st.integers(1, n), max_size=2)):
        word = add_kink(word, s)
    return word


def test_fox_equals_walk_on_drawn_tangles():
    torsions = []

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(twisted_braid_words())
    def fox_equals_walk(word):
        g = gassner(word)
        assert walk_matrix(trace(word)) == g.entries
        torsions.append(torsion(g.fox))

    fox_equals_walk()
    # twists make torsions that are not units, so gamma has denominators
    assert any(not tau.is_monomial() for tau in torsions)


class TestTwistFormula:
    def test_golden_twisted_hopf(self):
        g = gassner(from_braid_word(2, [1, 1]))
        out = twist_formula(g, 1)
        den = "(-t1 - t2 + t1*t2)"
        expected = [
            ["(1 - 2*t2 - t1 + t1*t2)/" + den, "(t1 - 1)/" + den],
            ["(t2^2 - t2)/" + den, "(-t1)/" + den],
        ]
        for i in range(2):
            for j in range(2):
                assert out[i, j] == parse_ratfunc(expected[i][j], 2), (i, j)

    def test_formula_matches_diagram_on_both_strands(self):
        word = from_braid_word(2, [1, 1])
        g = gassner(word)
        for strand in (1, 2):
            assert twist_formula(g, strand) == gassner(add_twist(word, strand)).entries

    def test_formula_matches_diagram_interior_strand(self):
        # strand 2 of an entangled 3-strand word exercises the detour
        # conjugation, not just a relabeling
        for gens in ([1, 1], [2, 2], [1, 1, 2, 2], [2, 2, 1, 1]):
            word = from_braid_word(3, gens)
            g = gassner(word)
            for strand in (1, 2, 3):
                assert (
                    twist_formula(g, strand)
                    == gassner(add_twist(word, strand)).entries
                ), (gens, strand)

    def test_plain_matrix_input_assumes_standard_colors(self):
        word = from_braid_word(2, [1, 1])
        g = gassner(word)
        assert twist_formula(g.entries, 1) == twist_formula(g, 1)

    def test_iterated_twists_distinct(self):
        m = gassner(from_braid_word(2, [1, 1])).entries
        matrices = [m]
        for _ in range(4):
            m = twist_formula(m, 1)
            matrices.append(m)
        for i in range(len(matrices)):
            for j in range(i + 1, len(matrices)):
                assert matrices[i] != matrices[j], (i, j)

    def test_twist_commutes_with_stacking_order(self):
        # twisting then computing equals computing then twisting
        word = from_braid_word(2, [1, -1, 1, 1])
        g = gassner(word)
        assert twist_formula(g, 2) == gassner(add_twist(word, 2)).entries

    def test_bad_strand_rejected(self):
        g = gassner(from_braid_word(2, [1, 1]))
        with pytest.raises(Exception):
            twist_formula(g, 3)
