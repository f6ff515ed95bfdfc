"""Taylor coefficients of the Gassner matrix at t = 1, and the
finite-type vanishing property of their alternating sums.

Writing t_i = 1 - z_i, every entry of gamma(L) expands as a power
series in the z_i (the denominator augments to +-1, so it is a unit in
the power-series ring); `algebra.taylor_expand` expands each entry in
closed form, in integers, by binomial rows and a one-pass quotient.
Flipping a set of k crossings in all 2^k ways and summing with
alternating signs kills every coefficient of total degree below k; the
coefficient functionals are finite-type invariants of order bounded by
their degree.  The sum is taken before the expansion: the 2^k solved
matrices are added over each distinct denominator, and each entry of
each sum is expanded once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Optional, Sequence, Tuple

from .algebra import RatFunc, TruncatedSeries, VerificationError, series_var_names, taylor_expand
from .algebra import _finished
from .diagram import CrossNeg, CrossPos, MorseWord, is_crossing
from .gassner import gassner, numerators


@dataclass(frozen=True)
class SeriesMatrix:
    """n x n grid of truncated power series with a common bound."""

    n: int
    num_vars: int
    bound: int
    entries: Tuple[Tuple[TruncatedSeries, ...], ...]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self._cellwise(other, operator.add)

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self._cellwise(other, operator.sub)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check(other)
        zero = TruncatedSeries.zero(self.num_vars, self.bound)
        cols = tuple(zip(*other.entries))
        return SeriesMatrix(self.n, self.num_vars, self.bound, tuple(
            tuple(sum((a * b for a, b in zip(row, col)), zero) for col in cols)
            for row in self.entries))

    def _cellwise(self, other: "SeriesMatrix", op) -> "SeriesMatrix":
        self._check(other)
        return SeriesMatrix(self.n, self.num_vars, self.bound, tuple(
            tuple(map(op, row, other_row)) for row, other_row in zip(self.entries, other.entries)))

    def _check(self, other: "SeriesMatrix"):
        if (self.n, self.num_vars, self.bound) != (other.n, other.num_vars, other.bound):
            raise VerificationError("series matrix shape/bound mismatch")

    def is_zero(self) -> bool:
        return all(s.is_zero() for row in self.entries for s in row)

    def min_total_degree(self):
        """Smallest total degree appearing anywhere; None when zero."""
        degrees = [
            s.min_total_degree()
            for row in self.entries
            for s in row
            if not s.is_zero()
        ]
        return min(degrees) if degrees else None

    def vanishes_below(self, k: int) -> bool:
        d = self.min_total_degree()
        return d is None or d >= k

    def to_json(self) -> dict:
        names = series_var_names(self.num_vars)
        return {
            "n": self.n,
            "vars": list(names),
            "bound": self.bound,
            "entries": [[s.to_text(names) for s in row] for row in self.entries],
        }


def taylor_gassner(L: MorseWord, N: int) -> SeriesMatrix:
    """Entrywise Taylor expansion of gamma(L) to total degree N."""
    g = gassner(L)
    return _expanded(g.entries.entries, g.num_vars, N)


def _expanded(rows, num_vars: int, N: int) -> SeriesMatrix:
    return SeriesMatrix(len(rows), num_vars, N,
                        tuple(tuple(taylor_expand(x, N) for x in row) for row in rows))


def _with_signs(
    L: MorseWord, indices: Sequence[int], signs: Sequence[int]
) -> MorseWord:
    events: List = list(L.events)
    for idx, sign in zip(indices, signs):
        pos = events[idx - 1].pos
        events[idx - 1] = CrossPos(pos) if sign > 0 else CrossNeg(pos)
    return MorseWord(L.n, L.colors, tuple(events))


def flip_problem(L: MorseWord, indices: Sequence[int]) -> Optional[str]:
    """Why `indices` cannot be flipped in L, or None if they can.

    Flips must be distinct 1-based event indices of crossings.
    """
    if len(set(indices)) != len(indices):
        return "crossing indices must be distinct"
    for idx in indices:
        if not 1 <= idx <= len(L.events):
            return "event index %d out of range" % idx
        if not is_crossing(L.events[idx - 1]):
            return "event %d is not a crossing" % idx
    return None


def alternating_sum(
    L: MorseWord, crossing_indices: Iterable[int], N: int
) -> SeriesMatrix:
    """Sum of gamma expansions over all sign assignments of the chosen
    crossings, weighted by the parity of positive choices.

    Each variant is traced and solved on its own; its signed numerators
    are added into one sum per distinct denominator d of the solves, and
    each entry of each sum is expanded once.  Truncated expansion is
    linear and exact, so the few series that result add up to the sum of
    the variants' expansions; denominators are never cross-multiplied.

    Every coefficient of total degree below the number of flipped
    crossings cancels; the result certifies that order bound.
    """
    indices = list(crossing_indices)
    problem = flip_problem(L, indices)
    if problem is not None:
        raise VerificationError(problem)
    sums = {}  # d -> packed term sums of the numerators over d
    for signs in product((1, -1), repeat=len(indices)):
        g = gassner(_with_signs(L, indices, signs))
        num, d = numerators(g.entries.entries)
        sign = -1 if signs.count(1) % 2 else 1
        acc_rows = sums.setdefault(d, [[{} for _ in row] for row in num])
        for acc_row, row in zip(acc_rows, num):
            for acc, p in zip(acc_row, row):
                for k, c in p.terms.items():
                    acc[k] = acc.get(k, 0) + sign * c
    nv = g.num_vars
    total = None
    for d, acc_rows in sums.items():
        term = _expanded([[RatFunc(_finished(acc, nv), d) for acc in row] for row in acc_rows], nv, N)
        total = term if total is None else total + term
    return total
