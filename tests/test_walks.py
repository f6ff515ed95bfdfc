"""Walk-sum labelings and the strand-twist formula."""

import pytest

from stringlinks import (
    RatMatrix,
    add_twist,
    factorization_identity,
    fox_of_word,
    from_braid_word,
    gassner,
    parse_ratfunc,
    torsion,
    trace,
    twist_formula,
    walk_matrix,
)
from stringlinks.algebra import _unit_pivot_eliminate, augment

from conftest import (
    corpus_words,
    is_permuted_triangular,
    random_pure_braids,
    random_twisted_tangles,
)


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
