"""Closure Alexander matrices, string-link torsion, and the factorization
identities connecting them.

Identifying each top meridian generator with its bottom partner folds the
sparse Wirtinger-Fox rows (A B C) into the square closure matrix V = (A+C B).
Minors of V give the multivariable Alexander polynomial of the closure;
det(A B) is the torsion tau(L); and the two are tied to the Gassner
matrix by

    Delta_closure  =  tau(L) * Delta_L        (up to units)

with Delta_L computed from minors of I - gamma(L).  Every identity here
is checked exactly over the rational function field.

full_report traces the word, builds (A B C) and solves it once; the
resulting GassnerMatrix record carries the word, the diagram, the Fox
rows and the solution, and full_report takes each determinant once.
The solve eliminates (A B), so tau is its unit-normal denominator d, and
gamma = N / d: the link minors are those of the Laurent matrix d I - N
over d^(n-1).  t_i -> t is a ring map, so the one-variable closure
polynomial is the collapse of (1 - t) Delta_closure when the certified
multivariable minor exists, else the collapsed (1,1) minor of V; the
one-variable link side is the (1,1) minor of the collapsed d I - N, exact
because d augments to +-1 and does not collapse to zero.
Delta_closure is still taken from V's own minors, never as
tau * Delta_L, so the factorization checks compare two separately
computed sides.  knot_closure_relation reads the report, so V of the
word is folded once.  The torsion command takes det(A B) itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (
    LaurentPoly,
    NotDivisibleError,
    RatFunc,
    SparseMatrix,
    VerificationError,
    augment,
    det,
    normalize_unit,
    rank,
)
from .algebra import _dot, _finished, _fma, _zero_key
from .diagram import MorseError, MorseWord, from_braid_word, trace
from .gassner import GassnerMatrix, _solved, burau, fox_of_word, reduce
from .wirtinger import FoxMatrix, fox_matrix, presentation


@dataclass(frozen=True)
class ClosureMatrix:
    """V = (A+C B), square of size c, with the color of each column."""

    n: int
    c: int
    num_vars: int
    V: SparseMatrix
    column_colors: Tuple[int, ...]


@dataclass(frozen=True)
class AlexReport:
    """All Alexander-type invariants of one word, with the exact checks."""

    n: int
    num_vars: int
    pure: bool
    tau: LaurentPoly
    delta_closure: Optional[LaurentPoly]
    delta_link: Optional[RatFunc]
    tau_one: LaurentPoly
    delta_closure_one: LaurentPoly
    delta_link_one: RatFunc
    multi_factorization_ok: Optional[bool]
    one_factorization_ok: bool
    decomposition_residual_zero: bool
    record: Optional[GassnerMatrix] = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        from .algebra import default_var_names

        names = default_var_names(self.num_vars)
        one = ("t",)

        def text(p, nm):
            return None if p is None else p.to_text(nm)

        return {
            "n": self.n,
            "vars": list(names),
            "pure": self.pure,
            "tau": text(self.tau, names),
            "delta_closure": text(self.delta_closure, names),
            "delta_link": text(
                None if self.delta_link is None else self.delta_link.reduced(), names
            ),
            "tau_one": text(self.tau_one, one),
            "delta_closure_one": text(self.delta_closure_one, one),
            "delta_link_one": text(self.delta_link_one.reduced(), one),
            "multi_factorization_ok": self.multi_factorization_ok,
            "one_factorization_ok": self.one_factorization_ok,
            "decomposition_residual_zero": self.decomposition_residual_zero,
        }

    def table(self) -> str:
        data = self.to_json()
        rows = [
            ("strands", str(self.n)),
            ("pure", str(self.pure)),
            ("tau", data["tau"]),
            ("Delta_closure", str(data["delta_closure"])),
            ("Delta_link", str(data["delta_link"])),
            ("tau (one var)", data["tau_one"]),
            ("Delta_closure (one var)", data["delta_closure_one"]),
            ("Delta_link (one var)", data["delta_link_one"]),
            ("closure = tau * link (multi)", str(self.multi_factorization_ok)),
            ("closure = tau * link (one var)", str(self.one_factorization_ok)),
            ("(A B) decomposition residual zero", str(self.decomposition_residual_zero)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join("%-*s  %s" % (width, k, v) for k, v in rows)


@dataclass(frozen=True)
class KnotClosureCheck:
    """Outcome of the link-closure vs knot-closure polynomial relation."""

    ok: Optional[bool]
    degenerate: bool
    lhs: LaurentPoly
    rhs_closure: LaurentPoly
    correction_num: RatFunc
    correction_den: RatFunc


def equal_up_to_units(a, b) -> bool:
    """Equality modulo multiplication by +-(monomial)."""
    ra = a if isinstance(a, RatFunc) else RatFunc(a)
    rb = b if isinstance(b, RatFunc) else RatFunc(b)
    return normalize_unit(ra.num * rb.den) == normalize_unit(rb.num * ra.den)


def _folded(F: FoxMatrix) -> SparseMatrix:
    """V = (A+C B): a Fox row's cell in column c+k is added into column k."""
    rows = []
    for row in F.rows:
        folded: Dict[int, LaurentPoly] = {}
        for j, p in row.items():
            k = j % F.c  # n <= c, so column c+k lands on k
            folded[k] = folded[k] + p if k in folded else p
        rows.append(folded)
    return SparseMatrix(F.num_vars, F.c, rows)


def closure_matrix(F: FoxMatrix) -> ClosureMatrix:
    """Identify top with bottom meridians: V = (A+C B).

    Requires the closure to make sense color-wise.  The row space of V
    annihilates the weight vector w with w_j = 1 - t_{alpha(j)}; this is
    checked on the spot, in Laurent arithmetic over the nonzero cells.
    """
    if F.bottom_colors != F.top_colors:
        raise MorseError(
            "closure undefined: bottom colors %s != top colors %s"
            % (F.bottom_colors, F.top_colors)
        )
    V = _folded(F)
    column_colors = F.column_colors[: F.c]
    nv = F.num_vars
    one = LaurentPoly.one(nv)
    w = [one - LaurentPoly.var(nv, col - 1) for col in column_colors]
    for row in V.cells:
        if _dot(((x, w[j]) for j, x in row.items()), nv).terms:
            raise VerificationError("closure matrix does not annihilate w")
    return ClosureMatrix(F.n, F.c, nv, V, column_colors)


def factorization_identity(F: FoxMatrix, g: GassnerMatrix) -> List[Dict[int, LaurentPoly]]:
    """Nonzero cells of d V - (A B) * [[d I - N_gamma, 0], [-N_Z, d I]], row by row.

    [gamma; Z] = N / d over the one denominator d of the record's solve, so
    this is d (V - (A B) * [[I - gamma, 0], [-Z, I]]).  Row r of the product
    is d (A B)_r - sum_k a_rk N_k over the nonzeros a_rk, N_k being row k of
    [N_gamma; N_Z]; d V and the product are summed separately from the Fox
    cells.  A record whose gamma and Z do not share one d is refused.
    """
    if g.Z is None:
        raise VerificationError("gassner matrix carries no Z block")
    if g.Z.den != g.entries.den:
        raise VerificationError("gassner matrix entries do not share one denominator")
    X, d = g.entries.cells + g.Z.cells, g.entries.den
    nv, zero = F.num_vars, _zero_key(F.num_vars)
    residual = []
    for row in F.rows:
        cells: Dict[int, dict] = {}
        for k, a in row.items():
            _fma(cells.setdefault(k % F.c, {}), d.terms, a.terms, zero)  # d V: column c+k folds onto k
            if k < F.c:  # a_rk of (A B)
                _fma(cells.setdefault(k, {}), d.terms, a.terms, zero, -1)
                for j, x in X[k].items():
                    _fma(cells.setdefault(j, {}), a.terms, x.terms, zero)
        residual.append({j: p for j, acc in cells.items() if (p := _finished(acc, nv)).terms})
    return residual


def alexander_poly_closure(
    V: ClosureMatrix, spot_checks: int = 3, rng: Optional[random.Random] = None
) -> LaurentPoly:
    """det(V(i,j)) / (1 - t_{alpha(j)}), unit-normalized.

    The quotient is independent of (i, j) up to units; a few pairs are
    recomputed and compared to certify that on every call.  V w = 0
    bounds rank(V) by c - 1, so a nonzero (0, 0) minor settles the rank;
    only a zero one needs `rank` to tell rank < c - 1 (zero polynomial).
    """
    if V.n < 2:
        raise VerificationError("multivariable closure polynomial needs n >= 2")
    c, nv = V.c, V.num_vars

    def quotient(i: int, j: int) -> LaurentPoly:
        w = LaurentPoly.one(nv) - LaurentPoly.var(nv, V.column_colors[j] - 1)
        try:
            return det(V.V.minor(i, j)).num.exact_div(w)
        except NotDivisibleError:
            raise VerificationError("closure minor (%d,%d) is not divisible by %s"
                                    % (i + 1, j + 1, w)) from None

    base = normalize_unit(quotient(0, 0))
    if base.is_zero() and rank(V.V) < c - 1:
        return base
    rng = rng or random.Random(20260814)
    pairs = {(0, 0)}
    while len(pairs) < min(spot_checks + 1, c * c):
        pairs.add((rng.randrange(c), rng.randrange(c)))
    for i, j in sorted(pairs - {(0, 0)}):
        if normalize_unit(quotient(i, j)) != base:
            raise VerificationError(
                "closure polynomial depends on the deleted row/column (%d,%d)"
                % (i + 1, j + 1)
            )
    return base


def _link_matrix(g: GassnerMatrix) -> Tuple[SparseMatrix, LaurentPoly]:
    """(d I - N, d): I - gamma scaled by the one denominator d of the
    record's solve, whose (n-1)-minors are d^(n-1) times those of I - gamma."""
    d, zero = g.entries.den, LaurentPoly.zero(g.num_vars)
    return SparseMatrix(g.num_vars, g.n, [{**{j: -x for j, x in row.items()}, i: d - row.get(i, zero)}
                                          for i, row in enumerate(g.entries.cells)]), d


def alexander_function(g: GassnerMatrix) -> RatFunc:
    """(-1)^{i+j} (t_1...t_i) det((d I - N)(i,j)) / (d^(n-1) (1 - t_j)).

    That is the same minor of I - gamma, gamma = N / d.  Exactly
    independent of the pair (i, j); computed at (1,1) and cross-checked
    at a second pair.
    """
    return _alexander_function(g, *_link_matrix(g))


def _alexander_function(g: GassnerMatrix, M: SparseMatrix, d: LaurentPoly) -> RatFunc:
    n, nv = g.n, g.num_vars
    if n < 2:
        raise VerificationError("link Alexander function needs n >= 2")
    den = d ** (n - 1)

    def value(i: int, j: int) -> RatFunc:
        prefix = LaurentPoly.monomial(nv, map(g.colors[:i + 1].count, range(1, nv + 1)), (-1) ** (i + j))
        w = LaurentPoly.one(nv) - LaurentPoly.var(nv, g.colors[j] - 1)
        return RatFunc(prefix * det(M.minor(i, j)).num, den * w)

    result = value(0, 0)
    if value(1, 0) != result:
        raise VerificationError("link Alexander function is not minor-independent")
    return result


def _unit_torsion(tau: LaurentPoly) -> LaurentPoly:
    """tau unit-normalized, after checking that it augments to +-1."""
    if abs(augment(tau)) != 1:
        raise VerificationError("torsion augments to %s, not +-1" % augment(tau))
    return normalize_unit(tau)


def torsion(F: FoxMatrix) -> LaurentPoly:
    """det(A B): the torsion of the string link, unit-normalized."""
    return _unit_torsion(det(F.ab()).num)


def _one_var_minor(M: SparseMatrix) -> LaurentPoly:
    """det of the (1,1) minor of M with every variable collapsed to t."""
    collapsed = SparseMatrix(1, M.cols, [{j: x.collapse_vars() for j, x in row.items()}
                                         for row in M.cells])
    return det(collapsed.minor(0, 0)).num


def _closure_components(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        count += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i] - 1
    return count


def full_report(L: Union[MorseWord, GassnerMatrix]) -> AlexReport:
    """Every Alexander-type invariant of a word, or of the record of one,
    each determinant taken once: tau is the solve's unit-normal d, and the
    one-variable closure polynomial collapses the certified Delta_closure
    when there is one (see the module docstring)."""
    if isinstance(L, GassnerMatrix):
        if L.fox is None:
            raise VerificationError("gassner matrix carries no Fox matrix")
        g = L
        V = closure_matrix(g.fox)
    else:
        diagram = trace(L)
        F = fox_matrix(presentation(diagram))
        V = closure_matrix(F)
        g = _solved(L, diagram, F)
    diagram, F = g.diagram, g.fox
    pure = diagram.is_pure
    nv = F.num_vars

    M, d = _link_matrix(g)
    tau = _unit_torsion(d)
    residual_zero = not any(factorization_identity(F, g))

    # The minor/(1 - t) closure formula is a multi-component statement;
    # it needs >= 2 closure components carrying distinct variables.
    components = _closure_components(diagram.perm)
    faithful = len(set(g.colors)) == components

    delta_closure = delta_link = multi_ok = None
    if components >= 2 and faithful:
        delta_closure = alexander_poly_closure(V)
        if pure:
            delta_link = _alexander_function(g, M, d)
            multi_ok = equal_up_to_units(RatFunc(delta_closure), RatFunc(tau) * delta_link)

    tau_one = normalize_unit(tau.collapse_vars())
    # t_i -> t is a ring map, so (1 - t) times the collapsed Delta_closure
    # is the collapsed (1,1) minor of V up to a unit
    delta_closure_one = normalize_unit(
        _one_var_minor(V.V) if delta_closure is None
        else (LaurentPoly.one(1) - LaurentPoly.var(1, 0)) * delta_closure.collapse_vars())
    # t det((I - burau)(1,1)), burau = gamma at t_i -> t
    delta_link_one = RatFunc(LaurentPoly.var(1, 0) * _one_var_minor(M),
                             d.collapse_vars() ** (g.n - 1))
    one_ok = equal_up_to_units(RatFunc(delta_closure_one), RatFunc(tau_one) * delta_link_one)

    return AlexReport(
        n=g.n,
        num_vars=nv,
        pure=pure,
        tau=tau,
        delta_closure=delta_closure,
        delta_link=delta_link,
        tau_one=tau_one,
        delta_closure_one=delta_closure_one,
        delta_link_one=delta_link_one,
        multi_factorization_ok=multi_ok,
        one_factorization_ok=one_ok,
        decomposition_residual_zero=residual_zero,
        record=g,
    )


def knot_closure_relation(
    L: Union[MorseWord, GassnerMatrix, AlexReport], B: Optional[Sequence[int]] = None
) -> KnotClosureCheck:
    """Compare the closure polynomial of L with that of L stacked with a
    braid B, through the reduced Burau correction

        Delta(closure of L) * det(I - rb(L) rb(B))
            = Delta(closure of L B) * det(I - rb(L))   (up to units).

    L is a word, its record, which is then not traced or solved again, or
    its full_report, whose one-variable closure polynomial is then reused.
    B defaults to the cycle braid s_1 s_2 ... s_{n-1}.  A vanishing
    det(I - rb(L) rb(B)) makes the relation degenerate; that is reported
    rather than decided.
    """
    lhs = None
    if isinstance(L, AlexReport):
        lhs, L = L.delta_closure_one, L.record
    if isinstance(L, GassnerMatrix):
        if L.word is None:
            raise VerificationError("gassner matrix carries no word")
        g, L, diagram = L, L.word, L.diagram
    else:
        g, diagram = None, trace(L)
    if not diagram.is_pure:
        raise MorseError("knot-closure relation needs a pure word")
    if g is None:
        g = _solved(L, diagram, fox_matrix(presentation(diagram)))
    n = L.n
    if B is None:
        B = list(range(1, n))
    B = list(B)

    braid = from_braid_word(n, B) if B else MorseWord(n, L.colors, ())
    if lhs is None:
        lhs = normalize_unit(_one_var_minor(closure_matrix(g.fox).V))

    combined = MorseWord(n, braid.colors, tuple(L.events) + tuple(braid.events))
    rhs_closure = normalize_unit(_one_var_minor(closure_matrix(fox_of_word(combined)).V))

    # gamma at t_i -> t, the Burau matrix: no pole, since det(A B) augments to +-1
    collapsed = SparseMatrix(1, n, [{j: x.collapse_vars() for j, x in row.items()}
                                    for row in g.entries.cells], g.entries.den.collapse_vars())
    rbL = reduce(collapsed).entries
    rbB = reduce(burau(braid)).entries
    I = SparseMatrix.identity(1, n - 1)
    corr_num = det(I - rbL)
    corr_den = det(I - rbL * rbB)
    if corr_den.is_zero():
        return KnotClosureCheck(None, True, lhs, rhs_closure, corr_num, corr_den)
    ok = equal_up_to_units(RatFunc(lhs) * corr_den, RatFunc(rhs_closure) * corr_num)
    return KnotClosureCheck(ok, False, lhs, rhs_closure, corr_num, corr_den)


def ideal_rank_check(V: ClosureMatrix, g: GassnerMatrix, k: int) -> bool:
    """Vanishing of the k-th Alexander ideal over the function field
    matches eigenvalue-1 multiplicity of gamma exceeding k."""
    if k > V.n:
        raise VerificationError("k exceeds the strand count")
    ideal_vanishes = rank(V.V) < V.c - k
    multiplicity = g.n - rank(_link_matrix(g)[0])  # row scaling by d keeps the rank
    return ideal_vanishes == (multiplicity >= k + 1)
