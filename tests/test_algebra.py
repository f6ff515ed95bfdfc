"""Exact Laurent-polynomial, rational-function and matrix arithmetic."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from stringlinks import algebra
from stringlinks.algebra import (
    ExponentRangeError,
    SingularMatrixError,
    SparseMatrix,
    _unit_pivot_eliminate,
)
from stringlinks.alexander import _folded, _link_matrix, closure_matrix
from stringlinks.diagram import MorseError
from stringlinks.gassner import solve_fox_system
from stringlinks.wirtinger import FoxMatrix

from stringlinks import (
    LaurentPoly,
    fox_of_word,
    from_braid_word,
    gassner,
    RatFunc,
    ShapeError,
    TruncatedSeries,
    det,
    normalize_unit,
    parse_poly,
    parse_ratfunc,
    rank,
    solve,
    taylor_expand,
    torsion,
)

from conftest import corpus_words, is_permuted_triangular, minor_matrix, sparse


def t(i, power=1, nv=2):
    return LaurentPoly.var(nv, i, power)


class TestLaurentPoly:
    def test_ring_identities(self):
        one = LaurentPoly.one(2)
        assert (one + t(0)) * (one - t(0)) == one - t(0) * t(0)
        assert t(0) * t(0, -1) == one
        assert (t(0) + t(1)) - (t(1) + t(0)) == LaurentPoly.zero(2)

    def test_integral_fraction_products_and_sums_are_ints(self):
        half = LaurentPoly.monomial(2, (1, 0), Fraction(1, 2))
        for p in (half * LaurentPoly.const(2, 2), half + half, half - (-half)):
            assert p == t(0)
            assert [type(c) for c in p.terms.values()] == [int]

    def test_monomial_and_pow(self):
        m = LaurentPoly.monomial(2, (2, -1), Fraction(3))
        assert m == LaurentPoly.const(2, 3) * t(0) ** 2 * t(1, -1)
        assert t(0) ** 0 == LaurentPoly.one(2)

    def test_augment_sets_all_vars_to_one(self):
        p = LaurentPoly.one(2) - t(0) + t(0) * t(1, -3)
        assert p.augment() == Fraction(1)

    def test_bar_inverts_variables(self):
        p = t(0) + t(1, 2)
        assert p.bar() == t(0, -1) + t(1, -2)
        assert p.bar().bar() == p

    def test_permute_and_collapse(self):
        p = t(0) + t(1, 2)
        assert p.permute_vars([1, 0]) == t(1) + t(0, 2)
        collapsed = p.collapse_vars()
        s = LaurentPoly.var(1, 0)
        assert collapsed == s + s ** 2

    def test_exact_div(self):
        p = (LaurentPoly.one(2) - t(0)) * (t(0) + t(1))
        assert p.exact_div(LaurentPoly.one(2) - t(0)) == t(0) + t(1)

    def test_parse_round_trip(self):
        text = "1 - 2*t1 + t1*t2^-3"
        p = parse_poly(text, 2)
        assert parse_poly(p.to_text(), 2) == p

    def test_normalize_unit_identifies_associates(self):
        p = LaurentPoly.one(2) - t(0) + t(0) * t(1)
        unit = LaurentPoly.monomial(2, (-2, 5), Fraction(-1))
        assert normalize_unit(p * unit) == normalize_unit(p)
        assert normalize_unit(normalize_unit(p)) == normalize_unit(p)


class TestRatFunc:
    def test_cross_multiplied_equality(self):
        a = RatFunc(t(0) * t(0), t(0))
        assert a == RatFunc(t(0))

    def test_equality_over_equal_and_unequal_denominators(self):
        one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
        d = one - t(0) * t(1)
        a = RatFunc(t(0), d)
        # equal denominators: the numerators decide
        assert a == RatFunc(t(0), d)
        assert a != RatFunc(t(1), d)
        assert RatFunc(zero, d) == RatFunc(zero, d)
        assert RatFunc(zero, d) != a and a != RatFunc(zero, d)
        # unequal denominators: cross-multiplication decides
        assert a == RatFunc(t(0) * t(1), d * t(1))
        assert a != RatFunc(t(0), d * t(1))
        assert RatFunc(zero, d) == RatFunc.zero(2)
        assert RatFunc(zero, d) != RatFunc(one, d * t(1))

    def test_equal_denominators_skip_the_cross_products(self, monkeypatch):
        d = LaurentPoly.one(2) - t(0) * t(1)
        a, b, c = RatFunc(t(0), d), RatFunc(t(0), d), RatFunc(t(1), d)

        def no_products(self, other):
            raise AssertionError("cross-multiplied over an equal denominator")

        monkeypatch.setattr(LaurentPoly, "__mul__", no_products)
        assert a == b and not a == c

    def test_field_identities(self):
        x = RatFunc(LaurentPoly.one(2) - t(0), t(1))
        assert x * x.inverse() == RatFunc.one(2)
        assert x - x == RatFunc.zero(2)
        assert (x / x) == RatFunc.one(2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(t(0), LaurentPoly.zero(2))
        with pytest.raises(ZeroDivisionError):
            RatFunc.one(2) / RatFunc.zero(2)

    def test_parse_ratfunc(self):
        r = parse_ratfunc("(1 - t1)/(t2)", 2)
        assert r == RatFunc(LaurentPoly.one(2) - t(0), t(1))


class TestRatMatrix:
    """Matrices written as grids of rational functions, over one denominator."""

    def test_det_bareiss_integer(self):
        # frozen: det [[2,0,1],[1,3,2],[1,1,1]] = 2*(3-2) - 0 + 1*(1-3) = 0
        rows = [[2, 0, 1], [1, 3, 2], [1, 1, 1]]
        M = sparse(1, [[LaurentPoly.const(1, v) for v in row] for row in rows])
        assert det(M) == RatFunc.zero(1)

    def test_det_with_variables(self):
        s = LaurentPoly.var(1, 0)
        one = LaurentPoly.one(1)
        M = sparse(1, [[s, one], [one, s]])
        assert det(M) == RatFunc(s * s - one)
        assert det(sparse(1, [[RatFunc(s, one + s), one], [one, s]])) == RatFunc(s * s - one - s, one + s)

    def test_solve_against_hand_inverse(self):
        s = LaurentPoly.var(1, 0)
        one = LaurentPoly.one(1)
        A = sparse(1, [[s, one], [LaurentPoly.zero(1), s]])
        I = SparseMatrix.identity(1, 2)
        X = solve(A, I)
        assert A * X == I
        inv = RatFunc(one, s)
        assert X[0, 0] == inv
        assert X[0, 1] == -inv * inv
        assert X[1, 1] == inv

    def test_rank(self):
        s = LaurentPoly.var(1, 0)
        M = sparse(1, [[s, s], [s, s]])
        assert rank(M) == 1
        assert rank(SparseMatrix.identity(1, 3)) == 3

    def test_singular_solve_raises(self):
        one = LaurentPoly.one(1)
        M = sparse(1, [[one, one], [one, one]])
        with pytest.raises(SingularMatrixError):
            solve(M, SparseMatrix.identity(1, 2))


def _gauss_jordan(M, B):
    """Solve M X = B, given as grids of RatFunc, by dense fraction-free
    Gauss-Jordan: the reference for solve.

    Each row of (M B) is multiplied by its distinct denominators, then the
    Bareiss one-step rule is applied to all rows, so every intermediate
    entry stays a Laurent polynomial and each solution entry is a single
    fraction N_ij / pivot.  Returns the grid of X.
    """
    n = len(M)
    if n == 0:
        return []
    nv, width = M[0][0].num_vars, n + len(B[0])
    aug = []
    for i in range(n):
        row = M[i] + B[i]
        dens = []
        for x in row:
            if not any(x.den == d for d in dens):
                dens.append(x.den)
        cleared = []
        for x in row:
            q = x.num
            for d in dens:
                if not (x.den == d):
                    q = q * d
            cleared.append(q)
        aug.append(cleared)
    prev = None
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if not aug[i][k].is_zero()), None)
        if pivot_row is None:
            raise SingularMatrixError("coefficient matrix is singular over F")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        piv = aug[k][k]
        for i in range(n):
            if i == k:
                continue
            fac = aug[i][k]
            for j in range(width):
                if j != k:
                    num = piv * aug[i][j] - fac * aug[k][j]
                    aug[i][j] = num if prev is None else num.exact_div(prev)
            aug[i][k] = LaurentPoly.zero(nv)
        prev = piv
    d = aug[n - 1][n - 1]
    return [[RatFunc(aug[i][n + j], d) for j in range(width - n)] for i in range(n)]


def _random_poly(rng, monomial=False, nv=2, unit=False):
    def exps():
        return tuple(rng.randint(-1, 1) for _ in range(nv))

    if monomial:
        return LaurentPoly.monomial(nv, exps(), rng.choice([1, -1] if unit else [1, -1, 2]))
    terms = {exps(): rng.randint(-2, 2) for _ in range(2)}
    p = LaurentPoly(nv, terms)
    return p if p.terms else LaurentPoly.one(nv) - t(0)


def _random_entry(rng, monomial=False):
    return RatFunc(_random_poly(rng, monomial))


def _over_den(rng, grid, fractions):
    """The matrix of a grid of Laurent entries, over a seeded two-term
    denominator when fractions is set."""
    M = sparse(2, grid)
    return SparseMatrix(2, M.cols, M.cells, _random_poly(rng)) if fractions else M


def _two_terms(rng):
    """c t^a + d t^b with a != b: never a monomial pivot."""
    a, b = rng.sample([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], 2)
    return RatFunc(LaurentPoly(2, {a: rng.choice([1, -1, 2]), b: rng.choice([1, -2, 3])}))


def _random_block_matrix(rng, blocks, monomial=0.5, fractions=False, fill=0.25,
                         cyclic_entry=None):
    """A shuffled block-lower-triangular matrix with the given diagonal block sizes.

    cyclic_entry(rng), when given, draws the entries inside blocks of two
    or more.
    """
    n = sum(blocks)
    zero = RatFunc.zero(2)
    M = [[zero] * n for _ in range(n)]
    start = 0
    for size in blocks:
        draw = cyclic_entry if cyclic_entry and size > 1 else None
        for i in range(start, start + size):
            M[i][i] = draw(rng) if draw else _random_entry(rng, rng.random() < monomial)
            for j in range(start):
                if rng.random() < fill:
                    M[i][j] = _random_entry(rng)
            if size > 1:
                # a cycle through the block keeps it irreducible
                j = start + (i - start + 1) % size
                M[i][j] = draw(rng) if draw else _random_entry(rng)
        start += size
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return _over_den(rng, [[M[i][j] for j in cols] for i in rows], fractions)


def _random_rhs(rng, n, width, fractions=False):
    return _over_den(rng, [[_random_entry(rng) for _ in range(width)] for _ in range(n)], fractions)


class TestBlockTriangularSolve:
    """solve must agree with the Gauss-Jordan reference on every block structure."""

    @pytest.mark.parametrize("seed", range(4))
    def test_singleton_blocks_match_dense(self, seed):
        rng = random.Random(seed)
        M = _random_block_matrix(rng, [1] * 7)
        B = _random_rhs(rng, 7, 2)
        X = solve(M, B)
        assert X.entries == _gauss_jordan(M.entries, B.entries)
        assert M * X == B

    def test_monomial_pivots_keep_denominator_one(self):
        rng = random.Random(11)
        M = _random_block_matrix(rng, [1] * 8, monomial=1.0)
        X = solve(M, _random_rhs(rng, 8, 3))
        assert all(x.den.is_one() for row in X.entries for x in row)

    @pytest.mark.parametrize("seed", range(4))
    def test_cyclic_blocks_match_dense(self, seed):
        rng = random.Random(100 + seed)
        M = _random_block_matrix(rng, [1, 3, 1, 2])
        B = _random_rhs(rng, 7, 1)
        assert solve(M, B).entries == _gauss_jordan(M.entries, B.entries)

    @pytest.mark.parametrize("seed", range(3))
    def test_fraction_entries_and_rhs_match_dense(self, seed):
        rng = random.Random(200 + seed)
        M = _random_block_matrix(rng, [1, 2, 1], fractions=True)
        B = _random_rhs(rng, 4, 1, fractions=True)
        X = solve(M, B)
        assert X.entries == _gauss_jordan(M.entries, B.entries)
        assert M * X == B

    @pytest.mark.parametrize("seed", range(6))
    def test_one_unit_normal_denominator(self, seed):
        # solve divides the core's last pivot by its unit, so every entry
        # shares one unit-normal d; a denominator of B comes on top of it
        rng = random.Random(250 + seed)
        M = _random_block_matrix(rng, [2, 3], fractions=seed % 2 == 1)
        B = _random_rhs(rng, 5, 2, fractions=seed % 2 == 1)
        X = solve(M, B)
        assert X.entries == _gauss_jordan(M.entries, B.entries)
        (den,) = {x.den for row in X.entries for x in row}
        d = den.exact_div(B.den)
        assert not d.is_one() and normalize_unit(d) == d

    def test_structurally_singular_raises(self):
        # rows 0 and 1 only mention column 0, so no perfect matching exists
        one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
        M = sparse(2, [[t(0), zero, zero], [one + t(1), zero, zero], [one, t(0), t(1)]])
        with pytest.raises(SingularMatrixError):
            solve(M, SparseMatrix.identity(2, 3))

    def test_numerically_singular_block_raises(self):
        # a structurally nonsingular cyclic block with zero determinant,
        # below a unit singleton
        one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
        M = sparse(2, [[t(0), zero, zero],
                       [one, one - t(1), t(0)],
                       [zero, t(0) - t(0) * t(1), t(0) * t(0)]])
        with pytest.raises(SingularMatrixError):
            solve(M, SparseMatrix.identity(2, 3))

    def test_braid_gassner_has_denominator_one(self):
        g = gassner(from_braid_word(3, [1, -2, 1, 1, -2, 2, -1, -1]))
        cells = g.entries.entries + g.Z.entries
        assert all(x.den.is_one() for row in cells for x in row)


def _laplace_det(M):
    """Cofactor expansion of a grid of RatFunc along its first row: an
    independent reference."""
    if len(M) == 1:
        return M[0][0]
    total = RatFunc.zero(M[0][0].num_vars)
    for j, x in enumerate(M[0]):
        if x.is_zero():
            continue
        term = x * _laplace_det(minor_matrix(M, 0, j))
        total = total + term if j % 2 == 0 else total - term
    return total


def _submatrix(M, rows, cols):
    return sparse(M.num_vars, [[M[i, j] for j in cols] for i in rows])


def _minor_rank(M):
    """The size of the largest nonzero minor, by cofactor expansion."""
    grid = M.entries
    for k in range(min(M.rows, M.cols), 0, -1):
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                if not _laplace_det([[grid[i][j] for j in cols] for i in rows]).is_zero():
                    return k
    return 0


def _fox_like(rng, n):
    """Rows with a +-monomial in a distinct column each, one more +-monomial
    and a binomial 1 - t^e, like a Wirtinger relation's Fox derivatives."""
    zero = RatFunc.zero(2)
    M = [[zero] * n for _ in range(n)]
    cols = list(range(n))
    rng.shuffle(cols)
    for i, j in enumerate(cols):
        M[i][j] = RatFunc(_random_poly(rng, monomial=True, unit=True))
        k, m = rng.sample(range(n), 2)
        M[i][k] = M[i][k] + RatFunc(_random_poly(rng, monomial=True, unit=True))
        M[i][m] = M[i][m] + RatFunc(LaurentPoly.one(2) - _random_poly(rng, True, unit=True))
    return sparse(2, M)


def _random_matrix(rng, rows, cols, monomial=0.5, fractions=False, density=0.6):
    zero = RatFunc.zero(2)
    return _over_den(rng, [[_random_entry(rng, rng.random() < monomial)
                            if rng.random() < density else zero for _ in range(cols)]
                           for _ in range(rows)], fractions)


def _dependent_rows(rng, M, extra):
    """M with `extra` more rows, each a combination of two rows of M."""
    base = M.entries
    rows = list(base)
    for _ in range(extra):
        a, b = rng.sample(range(M.rows), 2)
        x, y = _random_entry(rng), _random_entry(rng)
        rows.insert(rng.randrange(len(rows) + 1), [x * p + y * q for p, q in zip(base[a], base[b])])
    return sparse(2, rows)


class TestUnitPivotElimination:
    """det and rank against cofactor expansion on seeded random matrices."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fox_like_rows(self, seed):
        rng = random.Random(300 + seed)
        M = _fox_like(rng, rng.randint(3, 6))
        assert det(M) == _laplace_det(M.entries)
        assert rank(M) == _minor_rank(M)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_monomial_entries(self, seed):
        rng = random.Random(400 + seed)
        M = _random_matrix(rng, 4, 4, monomial=0.0)
        assert det(M) == _laplace_det(M.entries)
        assert rank(M) == _minor_rank(M)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_entries_with_negative_exponents(self, seed):
        # monomials with coefficient 2 are unit pivots too; exponents run -1..1
        rng = random.Random(500 + seed)
        M = _random_matrix(rng, 6, 6, monomial=0.7, density=0.45)
        assert any(m < 0 for row in M.entries for x in row if x.num.terms
                   for m in x.num.min_exponents())
        assert det(M) == _laplace_det(M.entries)
        assert rank(M) == _minor_rank(M)

    def test_non_unit_monomials_only(self):
        rng = random.Random(550)
        M = sparse(2, [[RatFunc(LaurentPoly.monomial(2, (rng.randint(-1, 1), 1),
                                                        rng.choice([2, -3])))
                           for _ in range(4)] for _ in range(4)])
        assert det(M) == _laplace_det(M.entries)

    @pytest.mark.parametrize("seed", range(3))
    def test_ratfunc_entries(self, seed):
        rng = random.Random(600 + seed)
        M = _random_matrix(rng, 4, 4, fractions=True)
        assert any(not x.den.is_one() for row in M.entries for x in row)
        assert det(M) == _laplace_det(M.entries)
        assert rank(M) == _minor_rank(M)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient(self, seed):
        rng = random.Random(700 + seed)
        base = _fox_like(rng, 4) if seed % 2 else _random_matrix(rng, 4, 5, density=0.8)
        M = _dependent_rows(rng, base, 2)
        assert rank(M) == _minor_rank(M) == rank(base)
        square = _submatrix(M, range(M.cols), range(M.cols))
        assert det(square) == _laplace_det(square.entries)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (1, 4), (4, 1)])
    def test_rectangular(self, shape):
        rng = random.Random(800 + shape[0])
        M = _random_matrix(rng, *shape)
        assert rank(M) == _minor_rank(M)
        assert rank(M.transpose()) == rank(M)

    def test_permuted_unit_triangular_sign(self):
        # P L Q with L unit lower triangular: det = sgn(P) sgn(Q) prod(diag)
        rng = random.Random(900)
        n = 5
        for _ in range(30):
            perm_rows, perm_cols = rng.sample(range(n), n), rng.sample(range(n), n)
            L = [[RatFunc(_random_poly(rng, monomial=True, unit=True)) if i == j else
                  (_random_entry(rng) if j < i else RatFunc.zero(2)) for j in range(n)]
                 for i in range(n)]
            diag = RatFunc.one(2)
            for i in range(n):
                diag = diag * L[i][i]
            M = sparse(2, [[L[i][j] for j in perm_cols] for i in perm_rows])
            sign = _parity(perm_rows) * _parity(perm_cols)
            assert det(M) == (diag if sign > 0 else -diag) == _laplace_det(M.entries)
            assert rank(M) == n

    def test_braid_torsion_never_reaches_bareiss(self, monkeypatch):
        def dense(mat):
            raise AssertionError("unit pivots left a core")

        monkeypatch.setattr(algebra, "_bareiss_eliminate", dense)
        F = fox_of_word(from_braid_word(3, [1, -2, 1, 1, -2, 2, -1, -1]))
        assert torsion(F) == LaurentPoly.one(F.num_vars)
        assert rank(F.ab()) == F.c


def _eliminated(M, B):
    """(pivots, core) of solve's monomial-pivot elimination of (M B)."""
    return _unit_pivot_eliminate(_solve_rows(M, B), M.num_vars, M.cols, B.cols)


def _scaled_rows(M, factors):
    """M with row i multiplied by the constant factors[i % len(factors)]."""
    return SparseMatrix(M.num_vars, M.cols, [{j: x.scale(factors[i % len(factors)]) for j, x in row.items()}
                                             for i, row in enumerate(M.cells)], M.den)


class TestMonomialPivotSolve:
    """solve against the Gauss-Jordan reference where the kernel does real work."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fill_in(self, seed):
        rng = random.Random(1000 + seed)
        M = _fox_like(rng, rng.randint(4, 7))
        B = _random_rhs(rng, M.rows, 2)
        assert not is_permuted_triangular(M)
        X = solve(M, B)
        assert X.entries == _gauss_jordan(M.entries, B.entries)
        assert M * X == B

    @pytest.mark.parametrize("seed", range(4))
    def test_cyclic_blocks_share_one_core(self, seed):
        # monomial singletons between blocks of two-term entries; a core
        # with more rows than the largest block holds rows of two or more
        rng = random.Random(1100 + seed)
        M = _random_block_matrix(rng, [2, 1, 3, 1, 2], monomial=1.0, cyclic_entry=_two_terms)
        B = _random_rhs(rng, M.rows, 2)
        assert len(_eliminated(M, B)[1]) >= 4
        X = solve(M, B)
        assert X.entries == _gauss_jordan(M.entries, B.entries)
        assert M * X == B

    @pytest.mark.parametrize("seed", range(4))
    def test_coefficient_two_and_three_pivots(self, seed):
        rng = random.Random(1200 + seed)
        M = _scaled_rows(_fox_like(rng, rng.randint(4, 6)), (2, -3))
        B = _random_rhs(rng, M.rows, 2)
        pivots, _core = _eliminated(M, B)
        assert {abs(c) for _j, p, _inv, _row in pivots for c in p.terms.values()} & {2, 3}
        X = solve(M, B)
        assert X.entries == _gauss_jordan(M.entries, B.entries)
        assert M * X == B

    def test_coefficient_two_and_three_triangular(self):
        # every pivot a non-unit-coefficient monomial: no core, denominator 1
        rng = random.Random(1250)
        M = _scaled_rows(_random_block_matrix(rng, [1] * 6, monomial=1.0), (2, 3, -2))
        B = _random_rhs(rng, 6, 2)
        X = solve(M, B)
        assert len(_eliminated(M, B)[1]) == 0
        assert all(x.den.is_one() for row in X.entries for x in row)
        assert X.entries == _gauss_jordan(M.entries, B.entries)

    def test_integral_results_of_fraction_pivots_are_ints(self):
        # 1/2, 1/3 and -1/2 inverses meet the pivots' 2, 3 and -2 in
        # integers; those coefficients come back as int, not Fraction(k, 1)
        for seed in range(20):
            rng = random.Random(1250 + seed)
            M = _scaled_rows(_random_block_matrix(rng, [1] * 6, monomial=1.0), (2, 3, -2))
            X = solve(M, _random_rhs(rng, 6, 2))
            coeffs = [c for row in X.entries for x in row for c in x.num.terms.values()]
            assert any(isinstance(c, Fraction) for c in coeffs), seed
            assert not [c for c in coeffs if isinstance(c, Fraction) and c.denominator == 1], seed

    @pytest.mark.parametrize("seed", range(3))
    def test_rhs_with_denominators(self, seed):
        rng = random.Random(1300 + seed)
        M = _random_block_matrix(rng, [1, 2, 1, 1])
        B = _random_rhs(rng, M.rows, 2, fractions=True)
        assert all(not x.den.is_one() for row in B.entries for x in row)
        X = solve(M, B)
        assert X.entries == _gauss_jordan(M.entries, B.entries)
        assert M * X == B

    @pytest.mark.parametrize("seed", range(3))
    def test_singular_core_raises(self, seed):
        # one row of a nonsingular system is replaced by a combination of two others
        rng = random.Random(1400 + seed)
        base = _random_block_matrix(rng, [1, 3, 1, 2])
        M = _dependent_rows(rng, _submatrix(base, range(1, base.rows), range(base.cols)), 1)
        B = _random_rhs(rng, M.rows, 1)
        assert len(_eliminated(M, B)[1]) >= 2
        with pytest.raises(SingularMatrixError):
            solve(M, B)
        with pytest.raises(SingularMatrixError):
            _gauss_jordan(M.entries, B.entries)

    @pytest.mark.parametrize("n, gens", [(3, [1, -2, 1, 1, -2, 2, -1, -1]),
                                         (4, [1, 2, -3, 2, 1, 3, -1])])
    def test_braid_fox_solve_never_reaches_bareiss(self, n, gens, monkeypatch):
        def dense(mat):
            raise AssertionError("monomial pivots left a core")

        monkeypatch.setattr(algebra, "_bareiss_eliminate", dense)
        gamma, Z = solve_fox_system(fox_of_word(from_braid_word(n, gens)))
        assert all(x.den.is_one() for row in gamma.entries + Z.entries for x in row)


def _random_sparse(rng, rows, cols, per_row=3, monomial=0.6):
    """Seeded Laurent rows of up to per_row cells: monomials with coefficient
    1, -1 or 2, and two-term entries."""
    return SparseMatrix(2, cols, [{j: _random_poly(rng, rng.random() < monomial)
                                   for j in rng.sample(range(cols), min(per_row, cols))}
                                  for _ in range(rows)])


def _cancelling_fox(rng, n, c):
    """Fox-like (A B C) rows of three cells each, and the (row, k) pairs
    where the C cell in column c+k is minus the A cell in column k, so the
    two cancel when A+C is folded (every other row has one)."""
    rows, cancelled = [], []
    for r in range(c):
        row = {j: _random_poly(rng, rng.random() < 0.6) for j in rng.sample(range(c + n), 3)}
        if r % 2:
            k = rng.randrange(n)
            row[k] = _random_poly(rng, monomial=True)
            row[c + k] = -row[k]
            cancelled.append((r, k))
        rows.append(row)
    colors = (1,) * (c + n)
    fox = FoxMatrix(n=n, c=c, num_vars=2, rows=tuple(rows), column_colors=colors,
                    bottom_colors=colors[:n], top_colors=colors[:n])
    return fox, cancelled


def _assert_kernel_agrees(S, B=None):
    """det, rank and solve of S equal those of S's grid of RatFunc by the references."""
    assert all(p.terms for row in S.cells for p in row.values())
    assert rank(S) == _minor_rank(S)
    if S.rows != S.cols:
        return
    assert det(S) == _laplace_det(S.entries)
    if B is None:
        return
    if det(S).is_zero():
        with pytest.raises(SingularMatrixError):
            solve(S, B)
        with pytest.raises(SingularMatrixError):
            _gauss_jordan(S.entries, B.entries)
    else:
        X = solve(S, B)
        assert X.entries == _gauss_jordan(S.entries, B.entries)
        assert S * X == B


class TestSparseEntry:
    """det, rank and solve take a SparseMatrix as it is, and agree with the
    same matrix's grid of RatFunc by the test references."""

    def test_zero_cells_are_dropped(self):
        p, zero = LaurentPoly.one(2) - t(0), LaurentPoly.zero(2)
        S = SparseMatrix(2, 3, [{2: p, 0: p - p}, {1: zero}])
        assert S.cells == [{2: p}, {}]
        assert (S.rows, S.cols) == (2, 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_cells_cancel_when_folded(self, seed):
        rng = random.Random(1500 + seed)
        F, cancelled = _cancelling_fox(rng, 2, 5)
        V = _folded(F)
        assert cancelled and all(k not in V.cells[r] for r, k in cancelled)
        dense = [[RatFunc(row.get(j, LaurentPoly.zero(2))) +
                  RatFunc(row.get(j + F.c, LaurentPoly.zero(2))) if j < F.n else
                  RatFunc(row.get(j, LaurentPoly.zero(2))) for j in range(F.c)] for row in F.rows]
        assert V.entries == dense
        _assert_kernel_agrees(V, _random_sparse(rng, F.c, 2))

    def test_empty_rows_and_zero_columns(self):
        rng = random.Random(1600)
        cells = _random_sparse(rng, 4, 4).cells
        cells[2] = {}
        S = SparseMatrix(2, 4, [{j: p for j, p in row.items() if j != 1} for row in cells])
        assert not S.cells[2] and all(1 not in row for row in S.cells)
        assert det(S).is_zero()
        _assert_kernel_agrees(S, _random_sparse(rng, 4, 2))
        _assert_kernel_agrees(SparseMatrix(2, 3, [{}, {}]))

    @pytest.mark.parametrize("seed", range(4))
    def test_coefficient_two_monomial_pivots(self, seed):
        rng = random.Random(1700 + seed)
        S = SparseMatrix(2, 5, [{j: p.scale(2) if p.is_monomial() else p for j, p in row.items()}
                                for row in _random_sparse(rng, 5, 5, monomial=0.8).cells])
        pivots, _core = _unit_pivot_eliminate([dict(row) for row in S.cells], 2, 5)
        assert 2 in {abs(c) for _j, p, _inv, _row in pivots for c in p.terms.values()}
        _assert_kernel_agrees(S, _random_sparse(rng, 5, 2))

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (1, 4), (4, 1), (2, 6)])
    def test_rectangular_rank(self, shape):
        rng = random.Random(1800 + shape[0] * 10 + shape[1])
        S = _random_sparse(rng, *shape, per_row=2)
        _assert_kernel_agrees(S)
        with pytest.raises(ShapeError):
            det(S)

    @pytest.mark.parametrize("seed", range(3))
    def test_singular_solve_raises(self, seed):
        # the last row is a Laurent combination of two others
        rng = random.Random(1900 + seed)
        cells = _random_sparse(rng, 4, 5).cells
        x, y = _random_poly(rng), _random_poly(rng)
        combined = {j: x * cells[0].get(j, LaurentPoly.zero(2)) + y * cells[1].get(j, LaurentPoly.zero(2))
                    for j in set(cells[0]) | set(cells[1])}
        S = SparseMatrix(2, 5, cells + [combined])
        B = _random_sparse(rng, 5, 2)
        assert rank(S) < 5
        with pytest.raises(SingularMatrixError):
            solve(S, B)
        _assert_kernel_agrees(S, B)

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 4), (4, 0), (4, 4), (2, 1)])
    def test_minor_at_the_ends(self, i, j):
        rng = random.Random(2000)
        S = _random_sparse(rng, 5, 5, per_row=4)
        m = S.minor(i, j)
        assert (m.rows, m.cols) == (4, 4)
        assert m.entries == minor_matrix(S.entries, i, j)
        assert det(m) == _laplace_det(minor_matrix(S.entries, i, j))

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 4), (4, 0), (4, 4), (2, 1)])
    def test_minor_cells_stay_sorted_and_nonzero(self, i, j):
        # the minor skips the constructor, so it must come out as the
        # constructor would build it: columns ascending, no zero cell
        rng = random.Random(2000)
        S = _random_sparse(rng, 5, 5, per_row=4)
        want = SparseMatrix(2, 4, [{c: x.num for c, x in enumerate(row)}
                                   for row in minor_matrix(S.entries, i, j)])
        for m in (S.minor(i, j), S.minor(i, j).minor(0, 3)):
            if m.cols == 3:
                want = SparseMatrix(2, 3, want.minor(0, 3).cells)
            assert [list(row.items()) for row in m.cells] == [list(row.items()) for row in want.cells]
            assert (m.num_vars, m.rows, m.cols) == (want.num_vars, want.rows, want.cols)


def _reference_eliminate(rows, num_vars, cols, carried=0):
    """The reference for _unit_pivot_eliminate, in LaurentPoly products: the
    same Markowitz scan, each pivot's live position counted over all live
    rows and columns, a_rj / p formed as a_rj * p ** -1, and the LaurentPoly
    p ** -1 as the third field of a pivot."""
    zero = algebra._zero_key(num_vars)
    live = dict(enumerate(rows))
    col_rows = {j: set() for j in range(cols + carried)}
    for i, row in live.items():
        for j in row:
            col_rows[j].add(i)
    pivots = []
    while True:
        best = None
        for i, row in live.items():
            for j, p in row.items():
                if j < cols and len(p.terms) == 1:
                    cost = (len(row) - 1) * (len(col_rows[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, j = best
        position = sum(r < i for r in live) + sum(c < j for c in col_rows)
        pivot_row = live.pop(i)
        p = pivot_row.pop(j)
        inverse = p ** -1
        for r in col_rows.pop(j) - {i}:
            row = live[r]
            f = (row.pop(j) * inverse).terms
            for c, v in pivot_row.items():
                acc = dict(row[c].terms) if c in row else {}
                x = algebra._finished(algebra._fma(acc, f, v.terms, zero, -1), num_vars)
                if not x.terms:
                    del row[c]
                    col_rows[c].discard(r)
                else:
                    row[c] = x
                    col_rows[c].add(r)
        for c in pivot_row:
            col_rows[c].discard(i)
        pivots.append((j, -p if position % 2 else p, inverse, pivot_row))
    empty = LaurentPoly.zero(num_vars)
    core = [[row.get(j, empty) for j in sorted(col_rows)] for _, row in sorted(live.items())]
    return pivots, core


def _reference_det(M):
    """The reference for det: the signed pivots multiplied one product at a time."""
    pivots, core = _reference_eliminate([dict(r) for r in M.cells], M.num_vars, M.cols)
    d = LaurentPoly.one(M.num_vars)
    for _j, p, _inv, _row in pivots:
        d = d * p
    if core:
        sign, _steps, r = algebra._bareiss_eliminate(core)
        if r < len(core):
            return RatFunc.zero(M.num_vars)
        d = d * (core[-1][-1] if sign > 0 else -core[-1][-1])
    return RatFunc(d, M.den ** M.rows)


def _reference_rank(M):
    pivots, core = _reference_eliminate([dict(r) for r in M.cells], M.num_vars, M.cols)
    return len(pivots) + (algebra._bareiss_eliminate(core)[2] if core else 0)


def _reference_solve(M, B):
    """The reference for solve over M and B of denominator 1: the
    back-substitution over the monomial pivots multiplies d and each
    pivot-row cell by the LaurentPoly p ** -1."""
    n, m, nv = M.rows, B.cols, M.num_vars
    assert M.den.is_one() and B.den.is_one()
    pivots, core = _reference_eliminate(_solve_rows(M, B), nv, n, m)
    d, N = LaurentPoly.one(nv), {}

    def substituted(scale, b, products, k):
        total = LaurentPoly.zero(nv) if b is None else scale * b
        for a, x in products:
            total = total - a * x[k]
        return total

    if core:
        size = len(core)
        _sign, steps, r = algebra._bareiss_eliminate(core)
        if r < size or steps[-1][1] != size - 1:
            raise SingularMatrixError("coefficient matrix is singular over F")
        d = normalize_unit(core[-1][size - 1])
        unknowns = [j for j in range(n) if j not in {pivot[0] for pivot in pivots}]
        for i in reversed(range(size)):
            later = [(core[i][l], N[unknowns[l]]) for l in range(i + 1, size)]
            N[unknowns[i]] = [substituted(d, core[i][size + k], later, k).exact_div(core[i][i])
                              for k in range(m)]
    for j, _p, inverse, row in reversed(pivots):
        later = [(v * inverse, N[c]) for c, v in row.items() if c < n]
        N[j] = [substituted(d * inverse, row.get(n + k), later, k) for k in range(m)]
    return SparseMatrix(nv, m, [dict(enumerate(N[j])) for j in range(n)], d)


def _solve_rows(M, B):
    """The Laurent rows of (M B) that solve eliminates."""
    return [{**a, **{M.cols + k: v for k, v in b.items()}} for a, b in zip(M.cells, B.cells)]


def _exact(p):
    """A LaurentPoly's terms with each coefficient's type: int and
    Fraction(k, 1) are told apart."""
    return sorted((k, c, type(c)) for k, c in p.terms.items())


def _assert_same_elimination(rows, nv, cols, carried=0):
    """The kernel and the reference take equal pivots in the same order,
    leave the same core, and p^-1 is the monomial its (key offset,
    coefficient) names.  Returns (pivots, core)."""
    pivots, core = _unit_pivot_eliminate([dict(r) for r in rows], nv, cols, carried)
    ref_pivots, ref_core = _reference_eliminate([dict(r) for r in rows], nv, cols, carried)
    zero = algebra._zero_key(nv)
    assert len(pivots) == len(ref_pivots)
    for (j, p, (offset, coeff), row), (rj, rp, rinv, rrow) in zip(pivots, ref_pivots):
        assert (j, _exact(p)) == (rj, _exact(rp))
        assert _exact(LaurentPoly.monomial(nv, algebra._unpack(zero + offset, nv), coeff)) == _exact(rinv)
        assert {c: _exact(v) for c, v in row.items()} == {c: _exact(v) for c, v in rrow.items()}
    assert [[_exact(x) for x in r] for r in core] == [[_exact(x) for x in r] for r in ref_core]
    return pivots, core


def _assert_same_fractions(got, want):
    """Two RatFuncs with the same numerator and denominator, term for term."""
    assert (_exact(got.num), _exact(got.den)) == (_exact(want.num), _exact(want.den))


def _assert_kernel_matches_reference(M, B=None):
    """Pivots and core, then det, rank and solve, against the reference."""
    nv = M.num_vars
    _assert_same_elimination(M.cells, nv, M.cols)
    assert rank(M) == _reference_rank(M)
    if M.rows == M.cols:
        _assert_same_fractions(det(M), _reference_det(M))
    if B is None:
        return None
    pivots, core = _assert_same_elimination(_solve_rows(M, B), nv, M.cols, B.cols)
    try:
        want = _reference_solve(M, B)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            solve(M, B)
        return pivots, core
    got = solve(M, B)
    for got_row, want_row in zip(got.entries, want.entries):
        for x, y in zip(got_row, want_row):
            _assert_same_fractions(x, y)
    return pivots, core


def _monomial_rows(M, factors):
    """M with row i multiplied by the monomial factors[i % len(factors)],
    given as (coefficient, exponents)."""
    nv = M.num_vars
    scale = [LaurentPoly.monomial(nv, e, c) for c, e in factors]
    return SparseMatrix(nv, M.cols, [{j: x * scale[i % len(scale)] for j, x in row.items()}
                                     for i, row in enumerate(M.cells)], M.den)


_CORPUS = corpus_words()


class TestKernelAgainstReference:
    """Key-shift pivots and bisected positions take the pivots, cores and
    results of the LaurentPoly-product elimination, on the systems the
    pipeline solves and on seeded matrices."""

    @pytest.mark.parametrize("name, word", _CORPUS, ids=[name for name, _ in _CORPUS])
    def test_corpus_systems(self, name, word):
        F = fox_of_word(word)
        minus_C = SparseMatrix(F.num_vars, F.n, [{j - F.c: -p for j, p in row.items() if j >= F.c}
                                                 for row in F.rows])
        _assert_kernel_matches_reference(F.ab(), minus_C)
        if F.bottom_colors == F.top_colors:
            V = closure_matrix(F).V
            for i, j in {(0, 0), (F.c - 1, 0), (0, F.c - 1), (F.c // 2, F.c // 3)}:
                _assert_kernel_matches_reference(V.minor(i, j))
        try:
            g = gassner(word)
        except MorseError:
            return
        M = _link_matrix(g)[0]
        _assert_kernel_matches_reference(M)
        if M.rows > 1:
            _assert_kernel_matches_reference(M.minor(0, 0))
            _assert_kernel_matches_reference(M.minor(M.rows - 1, 0))

    @pytest.mark.parametrize("factors", [
        ((2, (0, 0)), (-3, (0, 0))),
        ((Fraction(1, 2), (0, 0)), (Fraction(-2, 3), (0, 0)), (3, (0, 0))),
        ((1, (-5, -3)), (-1, (2, -7)), (2, (-4, 0))),
        ((Fraction(3, 2), (-6, 1)), (-2, (0, -4)), (Fraction(-1, 3), (-2, -2))),
    ], ids=["coefficient-2-3", "fraction", "negative-exponents", "mixed"])
    def test_seeded_fox_like(self, factors):
        seen_core = seen_fraction = False
        for seed in range(8):
            rng = random.Random(2100 + seed)
            M = _monomial_rows(_fox_like(rng, rng.randint(4, 7)), factors)
            pivots, core = _assert_kernel_matches_reference(M, _random_rhs(rng, M.rows, 2))
            seen_core |= bool(core)
            seen_fraction |= any(isinstance(coeff, Fraction) for _j, _p, (_k, coeff), _r in pivots)
        assert seen_core and seen_fraction


class TestKeyShiftRange:
    """A quotient, a back-substituted factor or a pivot product past the
    packed range raises; a key is never wrapped into another exponent."""

    nv = 4  # exponents and total degrees lie in [-1024, 1024)

    def x(self, *exps):
        return LaurentPoly.monomial(self.nv, exps + (0,) * (self.nv - len(exps)))

    def system(self, low):
        """det = t1^100 + t1^low; t1^100 is the first pivot, with and without
        the right-hand side, and t1^low / t1^100 fills in row 1."""
        one = LaurentPoly.one(self.nv)
        S = SparseMatrix(self.nv, 3, [{0: self.x(100), 2: one}, {0: self.x(low), 1: one},
                                      {1: one, 2: one}])
        return S, SparseMatrix(self.nv, 1, [{}, {}, {0: one}])

    def test_quotient_past_the_range_raises(self):
        # the same pattern in range takes t1^100 as its first pivot
        S, B = self.system(-900)
        for rows, carried in ((S.cells, 0), (_solve_rows(S, B), 1)):
            pivots, _core = _unit_pivot_eliminate([dict(r) for r in rows], self.nv, 3, carried)
            assert pivots[0][:2] == (0, self.x(100))
        S, B = self.system(-1000)  # t1^-1000 / t1^100 = t1^-1100
        with pytest.raises(ExponentRangeError):
            det(S)
        with pytest.raises(ExponentRangeError):
            solve(S, B)

    def test_quotient_at_the_edge_is_exact(self):
        S, B = self.system(-900)  # t1^-900 / t1^100 = t1^-1000, in range
        assert det(S) == RatFunc(self.x(100) + self.x(-900))
        d = LaurentPoly.one(self.nv) + self.x(1000)
        assert solve(S, B).entries == [[RatFunc(-self.x(900), d)], [RatFunc(LaurentPoly.one(self.nv), d)],
                                       [RatFunc(self.x(1000), d)]]
        _assert_kernel_matches_reference(S, B)

    def test_pivot_product_past_the_range_raises(self):
        # t1^600 t2^-600 has total degree 0; seven of them would carry
        # between fields if the key sum were checked only at the end
        p = self.x(600, -600)
        S = SparseMatrix(self.nv, 7, [{i: p} for i in range(7)])
        with pytest.raises(ExponentRangeError):
            det(S)
        assert rank(S) == 7
        assert det(SparseMatrix(self.nv, 1, [{0: p}])) == RatFunc(p)


def _fraction_row(rng, cols, density=0.7):
    """Laurent cells with Fraction coefficients, about `density` of them nonzero."""
    zero = LaurentPoly.zero(2)
    return [LaurentPoly(2, {tuple(rng.randint(-1, 1) for _ in range(2)):
                            Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                            for _ in range(2)}) if rng.random() < density else zero
            for _ in range(cols)]


def _assert_left_kernel(M):
    """The left kernel vector of M as a row, checked nonzero with u M = 0."""
    u = SparseMatrix(M.num_vars, M.rows, [dict(enumerate(algebra.left_kernel_vector(M)))])
    assert u.cells[0]
    assert not (u * M).cells[0]
    return u


class TestLeftKernelVector:
    """u M = 0 for a nonzero u, whatever the row swaps of the echelon form."""

    def test_zero_leading_row(self):
        # M^T has a zero first row: echelon form swaps it down
        M = sparse(1, [[0, 0, 0], [1, 1, 0], [0, 1, 1]]).transpose()
        assert _assert_left_kernel(M) == sparse(1, [[1, -1, 1]])

    @pytest.mark.parametrize("nullity", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_with_zero_leading_rows(self, nullity, seed):
        # the right kernel of T is the left kernel of M = T^T
        rng = random.Random(1600 + 10 * nullity + seed)
        n = 4
        zero_row = [LaurentPoly.zero(2)] * n
        base = [_fraction_row(rng, n) for _ in range(n - nullity)]
        combos = [[a.scale(Fraction(1, 2)) - b * c for a, b in zip(base[i], base[j])]
                  for i, j, c in ((0, 1, t(0)), (1, 0, LaurentPoly.const(2, 3)))]
        T = sparse(2, [zero_row] * (1 + seed % 2) + base + combos)
        assert rank(T) == n - nullity
        _assert_left_kernel(T.transpose())

    def test_independent_rows_have_no_left_kernel(self):
        rng = random.Random(1650)
        M = sparse(2, [_fraction_row(rng, 4, density=1.0) for _ in range(3)])
        assert rank(M) == 3
        assert algebra.left_kernel_vector(M) is None

    def test_zero_matrix(self):
        u = _assert_left_kernel(sparse(2, [[0, 0], [0, 0], [0, 0]]))
        assert u == sparse(2, [[1, 0, 0]])


def _parity(perm):
    sign = 1
    for a, b in combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def _reference_taylor(r, bound):
    """Taylor expansion at t_i = 1 through truncated series products.

    Each t_i^k is a product of k truncated (1 - z_i), or of -k geometric
    series 1 + z_i + z_i^2 + ..., and 1/den is the geometric series in
    1 - den/den(1).  Kept only as a reference for `taylor_expand`.
    """
    if isinstance(r, LaurentPoly):
        r = RatFunc(r)
    nv = r.num_vars
    c0 = Fraction(r.den.augment())
    if c0 == 0:
        raise algebra.PoleError("denominator vanishes at t_i = 1")
    zero = (0,) * nv

    def const(c):
        return TruncatedSeries(nv, bound, {zero: c})

    def unit(i, k):
        return tuple(k if j == i else 0 for j in range(nv))

    def to_series(p):
        total = const(0)
        for e, c in p.sorted_terms():
            term = const(c)
            for i, k in enumerate(e):
                base = (TruncatedSeries(nv, bound, {zero: 1, unit(i, 1): -1}) if k > 0 else
                        TruncatedSeries(nv, bound, {unit(i, j): 1 for j in range(bound + 1)}))
                for _ in range(abs(k)):
                    term = term * base
            total = total + term
        return total

    u = const(1) - to_series(r.den) * const(1 / c0)
    inv = acc = const(1)
    for _ in range(bound):
        acc = acc * u
        inv = inv + acc
    return to_series(r.num) * inv * const(1 / c0)


def _random_taylor_input(rng):
    """A RatFunc in 1-3 variables with negative exponents and Fraction
    coefficients whose denominator does not vanish at t = 1."""
    nv = rng.randint(1, 3)

    def poly(size):
        terms = {}
        for _ in range(size):
            e = tuple(rng.randint(-2, 2) for _ in range(nv))
            terms[e] = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
        return LaurentPoly(nv, terms)

    num = poly(rng.randint(1, 4))
    roll = rng.random()
    if roll < 0.25:
        return RatFunc(num)
    den = poly(rng.randint(1, 3))
    if roll < 0.5:  # force den(1) = +-1
        den = den + LaurentPoly.const(nv, rng.choice([1, -1]) - den.augment())
    elif den.augment() == 0:
        den = den + LaurentPoly.const(nv, rng.choice([2, Fraction(-3, 2)]))
    return RatFunc(num, den)


class TestTaylorAgainstReference:
    """`taylor_expand` against the truncated-product reference above."""

    def test_random_rational_functions(self):
        rng = random.Random(5)
        inputs = [_random_taylor_input(rng) for _ in range(200)]
        assert sum(r.den.augment() not in (1, -1) for r in inputs) >= 50
        for r in inputs:
            for bound in range(6):
                assert taylor_expand(r, bound).terms == _reference_taylor(r, bound).terms, (r, bound)

    def test_corpus_gassner_entries(self, corpus):
        nontrivial = 0
        for name, word in corpus:
            g = gassner(word)
            for i in range(g.n):
                for j in range(g.n):
                    r = g.entries[i, j]
                    nontrivial += not r.den.is_one()
                    for bound in range(6):
                        assert taylor_expand(r, bound).terms == _reference_taylor(r, bound).terms, \
                            (name, i, j, bound)
        assert nontrivial > 0

    def test_pole_and_negative_bound(self):
        one = LaurentPoly.one(2)
        with pytest.raises(algebra.PoleError):
            taylor_expand(RatFunc(one, one - t(0) * t(1)), 3)
        with pytest.raises(algebra.AlgebraError):
            taylor_expand(RatFunc(one + t(0)), -1)


class TestSeries:
    def test_geometric_series_of_inverse_variable(self):
        # 1/t1 = 1/(1 - z1) = 1 + z1 + z1^2 + ... under t1 = 1 - z1
        r = RatFunc(LaurentPoly.one(1), LaurentPoly.var(1, 0))
        series = taylor_expand(r, 3)
        for k in range(4):
            assert series.coefficient((k,)) == 1

    def test_variable_expansion(self):
        series = taylor_expand(RatFunc(LaurentPoly.var(1, 0)), 5)
        assert series.coefficient((0,)) == 1
        assert series.coefficient((1,)) == -1
        assert series.coefficient((2,)) == 0

    def test_truncated_product(self):
        z = TruncatedSeries(1, 2, {(1,): Fraction(1)})
        cube = z * z * z
        assert cube.is_zero()
        assert (z * z).min_total_degree() == 2

    def test_expansion_multiplicative(self):
        one = LaurentPoly.one(2)
        a = RatFunc(one - LaurentPoly.var(2, 0), LaurentPoly.var(2, 1))
        b = RatFunc(LaurentPoly.var(2, 0), one + LaurentPoly.var(2, 1))
        assert taylor_expand(a, 3) * taylor_expand(b, 3) == taylor_expand(a * b, 3)
