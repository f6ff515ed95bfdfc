"""Wirtinger presentations and Fox differentiation."""

from dataclasses import replace

import pytest

from stringlinks import (
    LaurentPoly,
    VerificationError,
    add_kink,
    from_braid_word,
    trace,
)
from stringlinks.algebra import SparseMatrix, augment, det
from stringlinks.wirtinger import fox_matrix, presentation

from conftest import corpus_words, random_twisted_tangles


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


def tuple_fox_rows(pres):
    """The Fox rows built through exponent tuples: each cell a dict of
    exponent tuples, then LaurentPoly, then a SparseMatrix column sort."""
    nv = pres.num_vars
    rows = []
    for rel in pres.relators:
        cells = {}
        prefix = [0] * nv
        for g, e in rel:
            v = pres.generators[g].color - 1
            if e == -1:
                prefix[v] -= 1
            cell = cells.setdefault(g, {})
            cell[tuple(prefix)] = cell.get(tuple(prefix), 0) + e
            if e == 1:
                prefix[v] += 1
        rows.append({g: LaurentPoly(nv, cell) for g, cell in cells.items()})
    return SparseMatrix(nv, len(pres.generators), rows).cells


@pytest.mark.parametrize("source", ["corpus", "tangles"])
def test_packed_rows_match_the_tuple_build(source):
    words = corpus_words() if source == "corpus" else \
        [("tangle %d" % i, w) for i, w in enumerate(random_twisted_tangles(12, seed=41))]
    for name, word in words:
        pres = presentation(trace(word))
        rows, expected = fox_matrix(pres).rows, tuple_fox_rows(pres)
        assert len(rows) == len(expected), name
        for row, want in zip(rows, expected):
            assert list(row) == list(want), name
            assert all(row[j].terms == want[j].terms for j in row), name


def test_cancelling_terms_are_dropped():
    # a kink's relator is g^-1 g g h^-1 with g its over arc: the first two
    # letters put -1 and +1 on one prefix, so d/dg is 1, not 1 + 0 t^-1
    pres = presentation(trace(add_kink(from_braid_word(2, [1, 1]), 1)))
    F = fox_matrix(pres)
    g = pres.relators[-1][0][0]
    assert F.rows[-1][g] == LaurentPoly.one(F.num_vars)
    assert all(c for row in F.rows for cell in row.values() for c in cell.terms.values())
    # and a cell all of whose terms cancel, g's in g g^-1 h k^-1, is left out
    free = replace(pres, relators=(((0, 1), (0, -1), (1, 1), (2, -1)),))
    assert list(fox_matrix(free).rows[0]) == [1, 2]
    assert fox_matrix(free).rows == tuple(tuple_fox_rows(free))


@pytest.mark.parametrize("exponent", [2, -2, 0])
def test_relator_exponents_other_than_one_are_refused(exponent):
    pres = presentation(trace(from_braid_word(2, [1, 1])))
    bad = replace(pres, relators=((((0, 1), (1, exponent), (0, -1), (2, -1)),) + pres.relators[1:]))
    with pytest.raises(VerificationError):
        fox_matrix(bad)
