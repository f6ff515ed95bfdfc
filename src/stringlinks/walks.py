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

from typing import List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPoly,
    PoleError,
    RatFunc,
    RatMatrix,
    SparseMatrix,
    VerificationError,
    _cleared_rows,
    _coerce_entry,
    _finished,
    _fma,
    _zero_key,
    solve,
)
from .diagram import CrossNeg, CrossPos, Diagram, MorseWord, trace
from .gassner import GassnerMatrix


def solve_labeling(
    diagram: Diagram, top_labels: Sequence[Sequence], num_vars: Optional[int] = None
) -> Tuple[Tuple[RatFunc, ...], ...]:
    """The unique labelings extending an n x m grid of top-edge labels.

    Row j of top_labels labels top edge j, one column per labeling.
    Returns, indexed by diagram edge id, each edge's m labels.  The top
    labels are cleared to one denominator D; the rules then fire in
    dependency order (Kahn's algorithm), each edge carrying m Laurent
    numerators over D.  Rules left stalled by loops (cups/caps) form one
    small linear system with m right-hand sides, solved exactly.
    """
    nv = num_vars if num_vars is not None else max(diagram.colors)
    m = len(top_labels[0]) if top_labels else 0
    if len(top_labels) != diagram.n or any(len(row) != m for row in top_labels):
        raise VerificationError("expected an %d x m grid of top labels" % diagram.n)
    flat = [_coerce_entry(x, nv) for row in top_labels for x in row]
    (cleared,), den = _cleared_rows([flat], nv)
    zero, one = LaurentPoly.zero(nv), LaurentPoly.one(nv)
    labels: List[Optional[list]] = [None] * diagram.num_edges
    for j, e in enumerate(diagram.top_edges):
        labels[e] = [cleared.get(j * m + k, zero) for k in range(m)]

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

    out = [None if vec is None else tuple(RatFunc(x, den) for x in vec) for vec in labels]
    stalled = [rules[r] for r, k in enumerate(unknown) if k]
    if stalled:
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
        if not den.is_one():
            X = X.map(lambda x: RatFunc(x.num, x.den * den))
        for e, k in index.items():
            out[e] = tuple(X.entries[k])
    return tuple(out)


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


def walk_matrix(diagram: Diagram, num_vars: Optional[int] = None) -> RatMatrix:
    """G[i][j] = label of bottom edge i when the top labels are delta_j."""
    nv = num_vars if num_vars is not None else max(diagram.colors)
    identity = [[int(i == j) for j in range(diagram.n)] for i in range(diagram.n)]
    labels = solve_labeling(diagram, identity, nv)
    return RatMatrix(nv, [labels[e] for e in diagram.bottom_edges])


def _braid_walk_matrix(n, colors, events, num_vars) -> RatMatrix:
    word = MorseWord(n, tuple(colors), tuple(events))
    return walk_matrix(trace(word), num_vars)


def twist_formula(g, strand: int = 1) -> RatMatrix:
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


def _twist_first(matrix: RatMatrix, var: int) -> RatMatrix:
    n = matrix.rows
    nv = matrix.num_vars
    one = LaurentPoly.one(nv)
    t_inv = LaurentPoly.var(nv, var, -1)
    z = RatFunc(one - t_inv)
    a = matrix[0, 0]
    alpha_den = RatFunc.one(nv) - a * z
    if alpha_den.is_zero():
        raise PoleError("twist formula degenerates: 1 - a (1 - t^{-1}) = 0")
    alpha = alpha_den.inverse()
    ti = RatFunc(t_inv)
    ti2 = RatFunc(LaurentPoly.var(nv, var, -2))
    out = [[None] * n for _ in range(n)]
    out[0][0] = z + ti2 * alpha * a
    for j in range(1, n):
        out[0][j] = ti * alpha * matrix[0, j]
        out[j][0] = ti * alpha * matrix[j, 0]
    for i in range(1, n):
        for j in range(1, n):
            out[i][j] = matrix[i, j] + z * alpha * matrix[i, 0] * matrix[0, j]
    return RatMatrix(nv, out)
