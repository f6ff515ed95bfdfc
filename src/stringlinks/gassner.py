"""Gassner and Burau representations computed from the Fox linear system.

gamma(L) is obtained by solving (A B) X = -C on the sparse Fox rows of a
traced diagram and keeping the top n rows of X; the remaining rows (the
interior-arc block Z) are kept because the closure-matrix factorization
needs them.  The GassnerMatrix that `gassner` returns is the per-word
record: it also carries the word, its Diagram and its FoxMatrix, so the
closure matrix, torsion, link polynomials and the walk oracle read them
instead of tracing and solving the word again.  Both under-arc
coefficients of every row are +-monomials, so `algebra.solve` eliminates
braid portions arc by arc on monomial pivots, and gamma and Z of a braid
are Laurent polynomials; only loops closed by cups and caps can leave a
core for fraction-free (Bareiss) elimination.
Columns follow the top-meridian basis: column j is the solution with top
labels delta_{jk}, so stacking words multiplies matrices in diagram
order.

Burau is the same solve with every strand colored 1, which is defined for
words that permute colors as well; for a colorable word it equals gamma
with every t_i -> t, which is how full_report obtains it.  The reduced
matrix is the induced map on the quotient of F^n by the canonical
1-eigenvector w = (1 - t_{color(i)})_i, written in the basis of the
images of e_2..e_n.

Numeric checks evaluate at t_j = exp(2 pi i a_j) with small positive
angles, where the reduced representation is unitary for a suitable
skew-hermitian form; unitary_spectrum_check measures the eigenvalue
moduli at such a point, and invariant_form solves for the form itself
from sample links.  charpoly_coefficients gives the characteristic
polynomial exactly when the symbolic object is wanted.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPoly,
    RatFunc,
    RatMatrix,
    SparseMatrix,
    VerificationError,
    default_var_names,
    det,
    left_kernel_vector,
    parse_ratfunc,
    solve,
)
from .algebra import _dot, _rat_rows
from .diagram import Diagram, MorseError, MorseWord, from_braid_word, trace
from .wirtinger import FoxMatrix, fox_matrix, presentation


@dataclass(frozen=True)
class GassnerMatrix:
    """gamma and Z of one word, with the word, diagram and Fox matrix they
    came from.

    word, diagram and fox are None for a closed form such as full_twist;
    they take no part in equality.
    """

    n: int
    num_vars: int
    entries: RatMatrix
    Z: Optional[RatMatrix]
    colors: Tuple[int, ...]
    top_colors: Tuple[int, ...]
    diagram: Optional[Diagram] = field(default=None, compare=False, repr=False)
    fox: Optional[FoxMatrix] = field(default=None, compare=False, repr=False)
    word: Optional[MorseWord] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ReducedMatrix:
    n: int  # strand count of the underlying link; the matrix is (n-1) square
    num_vars: int
    entries: RatMatrix
    colors: Tuple[int, ...]


@dataclass(frozen=True)
class InvariantForm:
    n: int
    num_vars: int
    J: RatMatrix


@dataclass(frozen=True)
class UnitaryReport:
    max_deviation: float
    eigenvalues: Tuple[complex, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_deviation < self.tolerance


def solve_fox_system(fox: FoxMatrix) -> Tuple[RatMatrix, RatMatrix]:
    """Solve (A B) X = -C; return (gamma, Z) = (top n rows, the rest)."""
    n, c, nv = fox.n, fox.c, fox.num_vars
    minus_C = SparseMatrix(nv, n, [{j - c: -p for j, p in row.items() if j >= c}
                                   for row in fox.rows])
    X = solve(fox.ab(), minus_C).entries
    return _rat_rows(nv, X[:n]), _rat_rows(nv, X[n:])


def numerators(rows) -> Tuple[List[List[LaurentPoly]], LaurentPoly]:
    """(N, d) of RatFunc rows N / d over one denominator d, as `solve`
    returns them; VerificationError if the entries do not share one."""
    d = rows[0][0].den
    if any(x.den != d for row in rows for x in row):
        raise VerificationError("gassner matrix entries do not share one denominator")
    return [[x.num for x in row] for row in rows], d


def squared(g: GassnerMatrix) -> RatMatrix:
    """gamma^2 as N N / d^2 over the one denominator d of the record's
    solve, each entry one accumulated sum of products."""
    N, d = numerators(g.entries.entries)
    nv, dd = g.num_vars, d * d
    return RatMatrix(nv, [[RatFunc(_dot(zip(row, col), nv), dd) for col in zip(*N)] for row in N])


def fox_of_word(word: MorseWord) -> FoxMatrix:
    return fox_matrix(presentation(trace(word)))


def gassner(word: MorseWord) -> GassnerMatrix:
    """The colored Gassner matrix; needs each top color to match its slot."""
    diagram = trace(word)
    if not diagram.closure_colors_match():
        raise MorseError(
            "gassner needs matching top and bottom colors in every slot; "
            "use burau for words that permute colors"
        )
    return _solved(word, diagram, fox_matrix(presentation(diagram)))


def _solved(word: MorseWord, diagram: Diagram, fox: FoxMatrix) -> GassnerMatrix:
    """The record of a word whose diagram and Fox matrix are already built."""
    gamma, Z = solve_fox_system(fox)
    return GassnerMatrix(
        n=diagram.n,
        num_vars=fox.num_vars,
        entries=gamma,
        Z=Z,
        colors=diagram.colors,
        top_colors=diagram.top_colors,
        diagram=diagram,
        fox=fox,
        word=word,
    )


def burau(word: MorseWord) -> RatMatrix:
    """One-variable Burau matrix: the same solve with all strands colored 1."""
    monochrome = MorseWord(word.n, (1,) * word.n, word.events)
    fox = fox_of_word(monochrome)
    gamma, _ = solve_fox_system(fox)
    return gamma


def _reduction_colors(matrix: RatMatrix, colors) -> Tuple[int, ...]:
    n = matrix.rows
    if colors is not None:
        return tuple(colors)
    if matrix.num_vars == 1:
        return (1,) * n
    if matrix.num_vars == n:
        return tuple(range(1, n + 1))
    raise VerificationError("cannot infer strand colors for the reduction")


def reduce(g, colors=None) -> ReducedMatrix:
    """Quotient by the 1-eigenvector w, w_i = 1 - t_{color(i)}.

    In the basis {e_2 + span(w), ..., e_n + span(w)} the induced map is
    gtilde[k][j] = gamma[k][j] - gamma[1][j] (1 - t_k)/(1 - t_1) for
    k, j >= 2 (indices 1-based, colors applied throughout).
    """
    if isinstance(g, GassnerMatrix):
        matrix, cols = g.entries, g.colors
    else:
        matrix, cols = g, None
    if colors is not None:
        cols = colors
    cols = _reduction_colors(matrix, cols)
    n = matrix.rows
    nv = matrix.num_vars
    if n < 2:
        return ReducedMatrix(n, nv, RatMatrix(nv, []), cols)
    one = LaurentPoly.one(nv)
    w_first = one - LaurentPoly.var(nv, cols[0] - 1)
    ratios = [RatFunc(one - LaurentPoly.var(nv, c - 1), w_first) for c in cols[1:]]
    out = [[matrix[k, j] - matrix[0, j] * ratio for j in range(1, n)]
           for k, ratio in enumerate(ratios, 1)]
    return ReducedMatrix(n, nv, RatMatrix(nv, out), cols)


def full_twist(n: int) -> GassnerMatrix:
    """Closed form (t_1...t_n)(Id + w u) of the full-twist braid's matrix."""
    if n < 1:
        raise VerificationError("full_twist needs n >= 1")
    nv = n
    one = LaurentPoly.one(nv)
    prod_all = LaurentPoly.monomial(nv, (1,) * nv)
    w = [one - LaurentPoly.var(nv, i) for i in range(n)]
    u = [LaurentPoly.monomial(nv, tuple(-1 if k <= i else 0 for k in range(nv)))
         for i in range(n)]
    entries = [[prod_all * (w[i] * u[j] + LaurentPoly.const(nv, int(i == j))) for j in range(n)]
               for i in range(n)]
    return GassnerMatrix(
        n=n,
        num_vars=nv,
        entries=RatMatrix(nv, entries),
        Z=None,
        colors=tuple(range(1, n + 1)),
        top_colors=tuple(range(1, n + 1)),
    )


def full_twist_braid_word(n: int) -> MorseWord:
    """The braid word (s_1 ... s_{n-1})^n realizing one full positive twist."""
    return from_braid_word(n, [i for _ in range(n) for i in range(1, n)])


def weight_column(num_vars: int, colors: Sequence[int]) -> RatMatrix:
    """Column vector with entries 1 - t_{c_i}.

    Every pure string-link matrix fixes this vector: gamma w = w.
    """
    one = LaurentPoly.one(num_vars)
    return RatMatrix(num_vars, [[one - LaurentPoly.var(num_vars, c - 1)] for c in colors])


def weight_row(num_vars: int, colors: Sequence[int]) -> RatMatrix:
    """Row vector with entries (t_{c_1} ... t_{c_i})^{-1}.

    Every pure string-link matrix fixes this covector: u gamma = u.
    """
    row = []
    exps = [0] * num_vars
    for c in colors:
        exps[c - 1] -= 1
        row.append(LaurentPoly.monomial(num_vars, tuple(exps)))
    return RatMatrix(num_vars, [row])


def fixes_weight_vectors(g: GassnerMatrix) -> Tuple[bool, bool]:
    """Check gamma w = w and u gamma = u for the canonical weight vectors.

    Only meaningful for pure words (colors must match top to bottom).
    """
    w = weight_column(g.num_vars, g.colors)
    u = weight_row(g.num_vars, g.colors)
    return g.entries * w == w, u * g.entries == u


def default_angles(n: int, num_vars: Optional[int] = None) -> List[float]:
    """Angles a_j = j / (2 n (n+1)), all inside (0, 1/(n+1))."""
    count = n if num_vars is None else num_vars
    return [j / (2.0 * n * (n + 1)) for j in range(1, count + 1)]


def _entries_of(g) -> Tuple[RatMatrix, int]:
    if isinstance(g, (GassnerMatrix, ReducedMatrix)):
        return g.entries, g.num_vars
    return g, g.num_vars


def numeric_eval(g, angles: Sequence[float]):
    """Entrywise complex evaluation at t_j = exp(2 pi i a_j)."""
    import numpy

    matrix, nv = _entries_of(g)
    if len(angles) != nv:
        raise VerificationError(
            "expected %d angles, got %d" % (nv, len(angles))
        )
    point = [cmath.exp(2j * cmath.pi * a) for a in angles]
    return numpy.array([[x.eval_complex(point) for x in row] for row in matrix.entries],
                       dtype=complex).reshape(matrix.rows, matrix.cols)


def _lift_poly(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(p.num_vars + 1, {e + (0,): c for e, c in p.sorted_terms()})


def charpoly_coefficients(matrix: RatMatrix) -> List[RatFunc]:
    """Exact coefficients [c_0, ..., c_m] of det(matrix - x I) in x.

    Computed by adjoining a fresh variable for x and taking one exact
    determinant; the denominator never involves x, so the coefficients
    are rational functions in the original variables.
    """
    m = matrix.rows
    nv = matrix.num_vars
    x = LaurentPoly.var(nv + 1, nv)
    lifted = [[RatFunc(_lift_poly(e.num), _lift_poly(e.den)) for e in row] for row in matrix.entries]
    for i in range(m):
        lifted[i][i] = lifted[i][i] - RatFunc(x)
    d = det(RatMatrix(nv + 1, lifted))
    den_terms, num_terms = d.den.sorted_terms(), d.num.sorted_terms()
    if any(e[-1] != 0 for e, _ in den_terms):
        raise VerificationError("characteristic polynomial denominator involves x")
    den = LaurentPoly(nv, {e[:-1]: c for e, c in den_terms})
    coeffs = []
    for k in range(m + 1):
        num_k = LaurentPoly(nv, {e[:-1]: c for e, c in num_terms if e[-1] == k})
        coeffs.append(RatFunc(num_k, den))
    return coeffs


def unitary_spectrum_check(
    gt: ReducedMatrix,
    angles: Optional[Sequence[float]] = None,
    tolerance: float = 1e-8,
) -> UnitaryReport:
    """Eigenvalue moduli of the reduced matrix at a unitarity point.

    The matrix is evaluated at t_j = exp(2 pi i a_j) and the roots of
    its characteristic polynomial come from the QR iteration
    (numpy.linalg.eigvals); companion-matrix root finding on the
    evaluated coefficients loses half the working precision at
    repeated roots, QR on a normal matrix does not.  Reports
    max | |lambda| - 1 |.
    """
    import numpy

    if angles is None:
        angles = default_angles(gt.n, gt.num_vars)
    if len(angles) != gt.num_vars:
        raise VerificationError(
            "expected %d angles, got %d" % (gt.num_vars, len(angles))
        )
    m = gt.entries.rows
    if m == 0:
        return UnitaryReport(0.0, (), tolerance)
    roots = numpy.linalg.eigvals(numeric_eval(gt.entries, angles))
    eigenvalues = tuple(complex(r) for r in roots)
    dev = max(abs(abs(r) - 1.0) for r in eigenvalues)
    return UnitaryReport(float(dev), eigenvalues, tolerance)


def _star(matrix: RatMatrix) -> RatMatrix:
    """Conjugate transpose under the bar involution t_i -> t_i^{-1}."""
    return RatMatrix(matrix.num_vars, [[x.bar() for x in col] for col in zip(*matrix.entries)])


def _kron(P: RatMatrix, Q: RatMatrix) -> RatMatrix:
    return RatMatrix(P.num_vars, [[a * b for a in p for b in q]
                                  for p in P.entries for q in Q.entries])


def invariant_form(n: int, samples: Sequence[MorseWord]) -> InvariantForm:
    """Solve gtilde* J gtilde = J across the samples for a skew-hermitian J.

    The condition is linear in J: with column-major vec, vec(A J B) =
    (B^T kron A) vec(J) for A = gtilde*, B = gtilde.  A kernel vector of
    the stacked system gives a candidate K; J = K - K* is skew-hermitian
    and still invariant (the solution space is star-closed), with the
    fallback J = (t_1 - t_1^{-1}) K when K is already hermitian.
    """
    if n < 2:
        raise VerificationError("invariant_form needs n >= 2")
    m = n - 1
    nv = n
    reduced = []
    for word in samples:
        gt = reduce(gassner(word))
        if gt.num_vars != nv:
            raise VerificationError("samples must be pure words on n strands")
        reduced.append(gt.entries)
    eye = RatMatrix.identity(nv, m * m)
    stacked_rows = []
    for gt in reduced:
        M = _kron(gt.transpose(), _star(gt)) + (-eye)
        stacked_rows.extend(M.entries)
    stacked = RatMatrix(nv, stacked_rows)
    v = left_kernel_vector(stacked.transpose())
    if v is None:
        raise VerificationError("invariant form: only the zero solution found")
    K = RatMatrix(nv, [[v[j * m + i] for j in range(m)] for i in range(m)])
    J = K + (-_star(K))
    vanishes = lambda A: all(x.is_zero() for row in A.entries for x in row)
    if vanishes(J):
        skew = RatFunc(LaurentPoly.var(nv, 0) - LaurentPoly.var(nv, 0, -1))
        J = K.map(lambda e: e * skew)
    if vanishes(J):
        raise VerificationError("invariant form: J = 0, which every sample fixes vacuously")
    if _star(J) != J.map(lambda e: -e):
        raise VerificationError("invariant form is not skew-hermitian")
    for gt in reduced:
        if _star(gt) * J * gt != J:
            raise VerificationError("invariant form fails on a sample")
    return InvariantForm(n=n, num_vars=nv, J=J)


def matrix_to_json(g, var_names: Optional[Sequence[str]] = None) -> dict:
    """Serialize a matrix as {"n", "vars", "entries"} with canonical text."""
    matrix, nv = _entries_of(g)
    names = list(var_names) if var_names else default_var_names(nv)
    entries = [[x.reduced().to_text(names) for x in row] for row in matrix.entries]
    return {"n": matrix.rows, "vars": names, "entries": entries}


def matrix_from_json(data: dict) -> RatMatrix:
    names = list(data["vars"])
    nv = len(names)
    rows = [
        [parse_ratfunc(cell, nv, names) for cell in row]
        for row in data["entries"]
    ]
    return RatMatrix(nv, rows)
