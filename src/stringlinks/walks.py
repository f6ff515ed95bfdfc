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
labels equals the Gassner matrix; the computation here never touches the
Wirtinger/Fox code path, so agreement of the two is a genuine
cross-check.

The closed-form effect of a negative horizontal twist on the first
strand is also implemented here, plus its conjugated version for other
strands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPoly,
    PoleError,
    RatFunc,
    RatMatrix,
    VerificationError,
    _coerce_entry,
    solve,
)
from .diagram import CrossNeg, CrossPos, Diagram, MorseWord, trace
from .gassner import GassnerMatrix


@dataclass(frozen=True)
class EdgeLabeling:
    labels: Tuple[RatFunc, ...]  # indexed by diagram edge id


def solve_labeling(
    diagram: Diagram, top_labels: Sequence, num_vars: Optional[int] = None
) -> EdgeLabeling:
    """The unique labeling extending the given top-edge labels.

    Braid-like portions resolve by propagating away from the top; rules
    left stalled by loops (cups/caps) form a small linear system that is
    solved exactly.
    """
    nv = num_vars if num_vars is not None else max(diagram.colors)
    if len(top_labels) != diagram.n:
        raise VerificationError(
            "expected %d top labels, got %d" % (diagram.n, len(top_labels))
        )
    labels: List[Optional[RatFunc]] = [None] * diagram.num_edges
    for j, value in enumerate(top_labels):
        labels[diagram.top_edges[j]] = _coerce_entry(value, nv)

    # rule per non-top edge: (lhs, [(coeff, dep), ...]) meaning
    # label(lhs) = sum coeff * label(dep)
    one = RatFunc.one(nv)
    rules = []
    for ci, (o_in, o_out, u_in, u_out) in enumerate(diagram.crossing_edges):
        cr = diagram.crossings[ci]
        s = cr.sign
        t_o_color = diagram.colors[diagram.edge_strand[o_out] - 1]
        t_u_color = diagram.colors[diagram.edge_strand[u_out] - 1]
        t_o = LaurentPoly.var(nv, t_o_color - 1)
        t_u = LaurentPoly.var(nv, t_u_color - 1)
        t_o_inv = LaurentPoly.var(nv, t_o_color - 1, -1)
        rules.append((o_in, [(one, o_out)]))
        if s == 1:
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
        # Cyclic core: one unknown per stalled rule, solved exactly.
        unknowns = sorted({lhs for lhs, _ in pending})
        index = {e: k for k, e in enumerate(unknowns)}
        size = len(unknowns)
        if len(pending) != size:
            raise VerificationError("labeling system is not square")
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

    return EdgeLabeling(tuple(labels))


def walk_matrix(diagram: Diagram, num_vars: Optional[int] = None) -> RatMatrix:
    """G[i][j] = label of bottom edge i when the top labels are delta_j."""
    nv = num_vars if num_vars is not None else max(diagram.colors)
    n = diagram.n
    columns = []
    for j in range(n):
        top = [1 if k == j else 0 for k in range(n)]
        labeling = solve_labeling(diagram, top, nv)
        columns.append([labeling.labels[diagram.bottom_edges[i]] for i in range(n)])
    return RatMatrix(nv, [[columns[j][i] for j in range(n)] for i in range(n)])


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
