"""Wirtinger presentations and Fox differentiation."""

import pytest

from stringlinks import (
    LaurentPoly,
    VerificationError,
    from_braid_word,
    trace,
)
from stringlinks.algebra import augment, det
from stringlinks.wirtinger import fox_matrix, presentation

from conftest import corpus_words


def full_fox(word):
    return fox_matrix(presentation(trace(word)))


def test_generator_and_relator_counts():
    # one relator per crossing; the generators are the arcs, c + n of them
    word = from_braid_word(2, [1, 1])
    pres = presentation(trace(word))
    assert pres.n == 2
    assert pres.c == 2
    assert len(pres.relators) == pres.c
    assert len(pres.generators) == pres.c + pres.n


def test_relator_abelianization_is_trivial():
    # a relator's total exponent on each color must vanish
    for name, word in corpus_words():
        pres = presentation(trace(word))
        for rel in pres.relators:
            weights = {}
            for g, e in rel:
                color = pres.generators[g].color
                weights[color] = weights.get(color, 0) + e
            assert all(v == 0 for v in weights.values()), name


def test_fundamental_fox_identity_rowwise():
    # sum over the nonzero cells of entry * (t_color - 1) equals
    # augment(relator) - 1 = 0
    for name, word in corpus_words():
        F = full_fox(word)
        nv = F.num_vars
        for i, row in enumerate(F.rows):
            acc = LaurentPoly.zero(nv)
            for j, cell in row.items():
                acc = acc + cell * (LaurentPoly.var(nv, F.column_colors[j] - 1) - LaurentPoly.one(nv))
            assert acc.is_zero(), (name, i)


def test_block_shapes():
    # s1 s2 s1 has 3 crossings plus one auto-added kink for the strand
    # that never passes under, so c = 4
    word = from_braid_word(3, [1, 2, 1])
    F = full_fox(word)
    assert F.c == 4
    assert len(F.rows) == F.c
    assert all(0 <= j < F.c + F.n and not cell.is_zero() for row in F.rows
               for j, cell in row.items())
    assert all(list(row) == sorted(row) and 2 <= len(row) <= 3 for row in F.rows)
    AB = F.ab()
    assert (AB.rows, AB.cols) == (F.c, F.c)
    assert all(j < F.c for row in AB.cells for j in row)
    assert len(F.column_colors) == F.n + (F.c - F.n) + F.n


def test_augmentation_is_unit_on_corpus():
    for name, word in corpus_words():
        assert augment(det(full_fox(word).ab())) in (+1, -1), name


def test_column_colors_split_consistently():
    word = from_braid_word(2, [1, 1])
    F = full_fox(word)
    # mu and mu' columns carry the bottom and top strand colors
    assert F.column_colors[: F.n] == F.bottom_colors
    assert F.column_colors[F.n + (F.c - F.n):] == F.top_colors
