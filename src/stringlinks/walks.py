"""Independent oracle for the Gassner matrix via edge labelings.

A diagram's 4-valent graph has one edge per strand segment between
consecutive crossing passages.  Prescribing labels on the top edges,
there is a unique labeling satisfying, at every crossing with over edges
(o_in, o_out) and under edges (u_in, u_out) in flow order,

    label(o_in) = label(o_out)
    label(u_in) = t_o^s label(u_out) + q_s label(o_out)

with s the crossing sign, t_o / t_u the over/under strand variables, and
q_+ = 1 - t_u,  q_- = t_o^{-1} (t_u - 1).

These are the summed weights of all downward walks: a walker entering an
underpass either dives through (weight t_o^s) or jumps onto the over
strand (weight q_s).  The matrix of bottom labels against delta top
labels equals the Gassner matrix; one pass of `solve_labeling` finds all
n columns.  Only the algebra kernel is shared with the Wirtinger/Fox code
path, so agreement of the two is a genuine cross-check.

The closed-form effect of a negative horizontal twist on the first
strand is also implemented here, plus its conjugated version for other
strands.
"""

from __future__ import annotations

from typing import List, Optional

from .algebra import (
    LaurentPoly,
    NotDivisibleError,
    PoleError,
    SparseMatrix,
    VerificationError,
    _dot,
    _finished,
    _fma,
    _zero_key,
    solve,
)
from .diagram import CrossNeg, CrossPos, Diagram, MorseWord, trace
from .gassner import GassnerMatrix


def solve_labeling(diagram: Diagram, top_labels: SparseMatrix) -> SparseMatrix:
    """The unique labelings extending an n x m matrix of top-edge labels.

    Row j of top_labels labels top edge j, one column per labeling.
    Returns the labels as one matrix, one row per diagram edge id, over
    one denominator.  The rules fire in dependency order (Kahn's
    algorithm), each edge carrying m Laurent cells over the top labels'
    denominator D.  Rules left stalled by loops (cups/caps) form
    one small linear system with m right-hand sides, solved exactly over
    its d; the labels found before it are then scaled by d, so every
    label is a cell over d D.
    """
    nv, m = top_labels.num_vars, top_labels.cols
    if top_labels.rows != diagram.n:
        raise VerificationError("expected an %d x m matrix of top labels" % diagram.n)
    zero, one = LaurentPoly.zero(nv), LaurentPoly.one(nv)
    labels: List[Optional[list]] = [None] * diagram.num_edges
    for row, e in zip(top_labels.cells, diagram.top_edges):
        labels[e] = [row.get(k, zero) for k in range(m)]

    # rule per non-top edge: (lhs, ((coeff, dep), ...)) meaning
    # label(lhs) = sum coeff * label(dep)
    rules = []
    for ci, (o_in, o_out, u_in, u_out) in enumerate(diagram.crossing_edges):
        sign = diagram.crossings[ci].sign
        t_u = LaurentPoly.var(nv, diagram.colors[diagram.edge_strand[u_out] - 1] - 1)
        dive = LaurentPoly.var(nv, diagram.colors[diagram.edge_strand[o_out] - 1] - 1, sign)
        jump = one - t_u if sign == 1 else dive * (t_u - one)
        rules.append((o_in, ((one, o_out),)))
        rules.append((u_in, ((dive, u_out), (jump, o_out))))

    # Kahn's algorithm: a rule fires once none of its dependencies is unknown.
    unknown = [0] * len(rules)
    readers: dict = {}
    for r, (_lhs, terms) in enumerate(rules):
        for _coeff, d in terms:
            if labels[d] is None:
                unknown[r] += 1
                readers.setdefault(d, []).append(r)
    ready = [r for r, k in enumerate(unknown) if not k]
    while ready:
        lhs, terms = rules[ready.pop()]
        labels[lhs] = _combine(terms, labels, m, one)
        for r in readers.get(lhs, ()):
            unknown[r] -= 1
            if not unknown[r]:
                ready.append(r)

    fired = SparseMatrix(nv, m, [{} if vec is None else dict(enumerate(vec)) for vec in labels],
                         top_labels.den)
    stalled = [rules[r] for r, k in enumerate(unknown) if k]
    if not stalled:
        return fired
    # Cyclic core: one unknown per stalled rule, all m labelings at once.
    index = {e: k for k, e in enumerate(sorted(lhs for lhs, _ in stalled))}
    if len(index) != len(stalled):
        raise VerificationError("labeling system is not square")
    M, B = [], []
    for lhs, terms in stalled:
        row = {index[lhs]: one}
        for coeff, d in terms:
            if labels[d] is None:
                row[index[d]] = row.get(index[d], zero) - coeff
        M.append(row)
        known = tuple(term for term in terms if labels[term[1]] is not None)
        B.append(dict(enumerate(_combine(known, labels, m, one))))
    X = solve(SparseMatrix(nv, len(index), M), SparseMatrix(nv, m, B))
    rows = list(fired._scaled(X.den))
    for e, k in index.items():
        rows[e] = X.cells[k]
    return SparseMatrix(nv, m, rows, X.den * fired.den)


def _combine(terms, labels, m: int, one: LaurentPoly) -> list:
    """sum coeff * labels[dep] over terms, one accumulator per cell,
    skipping zero cells; a lone `one` coefficient shares the label."""
    if len(terms) == 1 and terms[0][0] is one:
        return labels[terms[0][1]]
    nv = one.num_vars
    zero, cells = _zero_key(nv), [{} for _ in range(m)]
    for coeff, d in terms:
        for acc, x in zip(cells, labels[d]):
            if x.terms:
                _fma(acc, coeff.terms, x.terms, zero)
    empty = LaurentPoly.zero(nv)
    return [_finished(acc, nv) if acc else empty for acc in cells]


def walk_matrix(diagram: Diagram, num_vars: Optional[int] = None) -> SparseMatrix:
    """G[i][j] = label of bottom edge i when the top labels are delta_j."""
    nv = num_vars if num_vars is not None else max(diagram.colors)
    labels = solve_labeling(diagram, SparseMatrix.identity(nv, diagram.n))
    return SparseMatrix(nv, diagram.n, [labels.cells[e] for e in diagram.bottom_edges], labels.den)


def _braid_walk_matrix(n, colors, events, num_vars) -> SparseMatrix:
    word = MorseWord(n, tuple(colors), tuple(events))
    return walk_matrix(trace(word), num_vars)


def twist_formula(g, strand: int = 1) -> SparseMatrix:
    """Closed form for the Gassner matrix after a negative horizontal twist.

    For a twist on the first strand, with a = g[1][1], b/c the first
    row/column remainders, D the lower block, z = 1 - t^{-1} in the
    twisted strand's variable t, and alpha = 1/(1 - a z):

        [ z + t^{-2} alpha a      t^{-1} alpha b      ]
        [ t^{-1} alpha c          D + z alpha (c b)   ]

    A twist on strand s > 1 is the first-strand twist conjugated by the
    permutation braid mu that carries strand s to position 1 passing
    over strands s-1 .. 1 (matching how the diagram-level construction
    threads the loop past them): the result is

        G(mu) T_1(G(mu)^{-1} g G(mu)) G(mu)^{-1}

    with the braid matrices computed by the walk rules.  Reindexing
    rows, columns and variables alone is not how the matrix transforms;
    the braid matrices are not monomial and the difference is real, as
    is the over/under choice of the detour.
    """
    if isinstance(g, GassnerMatrix):
        matrix = g.entries
        colors = tuple(g.colors)
    else:
        matrix = g
        colors = tuple(range(1, matrix.rows + 1))
    n = matrix.rows
    nv = matrix.num_vars
    if not 1 <= strand <= n:
        raise VerificationError("strand %d out of range" % strand)
    if strand == 1:
        return _twist_first(matrix, colors[0] - 1)
    s = strand
    mid_colors = (colors[s - 1],) + colors[: s - 1] + colors[s:]
    mu = _braid_walk_matrix(
        n, colors, (CrossNeg(k) for k in range(s - 1, 0, -1)), nv
    )
    mu_inv = _braid_walk_matrix(
        n, mid_colors, (CrossPos(k) for k in range(1, s)), nv
    )
    inner = mu_inv * matrix * mu
    return mu * _twist_first(inner, colors[s - 1] - 1) * mu_inv


def _twist_first(matrix: SparseMatrix, var: int) -> SparseMatrix:
    """The first-strand twist of matrix = N / d, over q = d (1 - a z) = d -
    N_11 z: the first row and column are z q + t^{-2} N_11, t^{-1} N_1j and
    t^{-1} N_j1, the block (N_ij q + z N_i1 N_1j) / d, an exact division
    when d divides the 2 x 2 minors of N, as it does for a solved matrix;
    otherwise the whole matrix goes over d q."""
    n, nv, d = matrix.rows, matrix.num_vars, matrix.den
    zero = LaurentPoly.zero(nv)
    N = [[row.get(j, zero) for j in range(n)] for row in matrix.cells]
    t_inv = LaurentPoly.var(nv, var, -1)
    z = LaurentPoly.one(nv) - t_inv
    q = d - N[0][0] * z
    if q.is_zero():
        raise PoleError("twist formula degenerates: 1 - a (1 - t^{-1}) = 0")
    first = [z * q + LaurentPoly.var(nv, var, -2) * N[0][0]] + [t_inv * x for x in N[0][1:]]
    column = [t_inv * N[i][0] for i in range(1, n)]
    block = [[_dot(((N[i][j], q), (z * N[i][0], N[0][j])), nv) for j in range(1, n)]
             for i in range(1, n)]
    den = q
    if not d.is_one():
        try:
            block = [[x.exact_div(d) for x in row] for row in block]
        except NotDivisibleError:
            first, column, den = [x * d for x in first], [x * d for x in column], d * q
    cells = [first] + [[c] + row for c, row in zip(column, block)]
    return SparseMatrix(nv, n, [dict(enumerate(row)) for row in cells], den)
