"""Exact multivariate Laurent-polynomial and rational-function arithmetic.

Everything downstream (representations, Alexander invariants, walk oracles)
runs over the field F = Q(t_1, ..., t_n).  Elements are represented as
fractions of Laurent polynomials with arbitrary-precision rational
coefficients; no floating point enters here.

Conventions:
  * A LaurentPoly maps exponent vectors to nonzero coefficients.  A
    coefficient is an `int` whenever it is integral (Fox entries, Bareiss
    intermediates, braid gamma, Z and torsion always are); a `Fraction`
    arises only where a real division happens: an exact-division quotient
    coefficient, the content and univariate-GCD steps of
    `RatFunc.reduced`, the inverse of a non-unit monomial, and
    user-supplied fractional coefficients.  Division of coefficients goes
    through `_div`, never `/`, so no float appears.
  * Each exponent vector is packed into one int key (total degree, then
    one biased field per variable), so a product adds keys and key order
    is the canonical term order.  Exponents may be negative; one that
    leaves its field raises AlgebraError.  `sorted_terms` unpacks.
  * A sum of products fills one term dict (S. C. Johnson, SIGSAM Bull.
    1974): `_fma` adds +-a*b into it, keeping zero cells, and `_finished`
    range-checks every key touched, zero or not, before it drops zeros and
    turns integral Fractions into ints.  A product is that loop on an
    empty dict; solve, Bareiss and the Schur steps use it throughout.
  * RatFunc fractions are NOT kept GCD-reduced.  Equality compares
    numerator with numerator over an equal denominator, else
    cross-multiplies.
    A lightweight `reduced` pass (exact division, monomial/scalar content,
    univariate GCD) exists for presentation purposes only.
  * Canonical text form orders terms by (total degree, exponent tuple),
    with each monomial's text from a bounded table.
  * A matrix is a SparseMatrix: Laurent rows over one denominator.  `det`,
    `rank` and `solve` take its rows as they are and share one sparse
    elimination: pivots that are monomials (units of the Laurent ring over
    Q, whatever their coefficient) go first, in Markowitz order, each a
    Schur complement step, and fraction-free (Bareiss) elimination runs
    only on the leftover core, so the intermediate swell stays polynomial
    instead of nested-fraction.  A braid's det(A B) has no core at all.
  * `solve` carries the right-hand sides through the same elimination and
    back-substitutes fraction-free over the core's last Bareiss pivot d,
    divided by its unit (`normalize_unit`), so the solution is one matrix
    N / d over one unit-normal d, and d = 1 when no core is left: the Fox
    systems of braids never leave the Laurent ring.  Denominators equal up
    to a unit are then equal, so `==` skips cross-multiplying.
  * `taylor_expand` substitutes t_i = 1 - z_i from a bounded table of
    (1 - z)^e per monomial, or in large inputs by a sweep over the
    variables that merges terms, and divides by the denominator degree by
    degree in one pass, with `int` coefficients while they are integral.
    A TruncatedSeries is the same packed kernel, cut at its degree bound.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import or_
from typing import Mapping, Sequence


class AlgebraError(ValueError):
    """Base class for arithmetic errors raised by this module."""


class ShapeError(AlgebraError):
    """Matrix dimensions are incompatible with the requested operation."""


class SingularMatrixError(AlgebraError):
    """A linear solve met a singular coefficient matrix."""


class PoleError(AlgebraError):
    """Numeric evaluation hit a zero denominator."""


class NotDivisibleError(AlgebraError):
    """Exact polynomial division left a remainder."""


class ParseError(AlgebraError):
    """Canonical-text input could not be parsed."""


class ExponentRangeError(AlgebraError):
    """An exponent, total degree or series bound left the packed field range."""


class VerificationError(RuntimeError):
    """An identity that must hold for every valid input failed to hold."""


Exponents = tuple

# Packed exponents.  A term's exponent vector e is one int of num_vars + 1
# fields: the total degree (most significant), then e_1, ..., e_n, each
# stored plus a bias.  Integer order of keys is then the canonical (total
# degree, exponent tuple) order, a product of monomials adds keys (less
# the zero key), and the bar involution reflects them.  Values must lie in
# [-bias, bias): the top bit of every field stays clear for them, so a sum
# or reflection that leaves the range sets it and is caught (_in_range),
# never wrapped.


@lru_cache(maxsize=64)
def _layout(num_vars: int) -> tuple:
    """(field bits, bias) of the keys in num_vars variables.

    The fields share 60 bits (two CPython digits, which keeps key
    arithmetic cheap) down to 12 bits a field from 4 variables on, where
    exponents and total degrees lie in [-1024, 1024).
    """
    field = max(12, 60 // (num_vars + 1))
    return field, 1 << (field - 2)


@lru_cache(maxsize=64)
def _zero_key(num_vars: int) -> int:
    """The key of the zero exponent vector: the bias in every field."""
    field, bias = _layout(num_vars)
    return bias * (((1 << (field * (num_vars + 1))) - 1) // ((1 << field) - 1))


def _pack(exps, num_vars: int) -> int:
    exps = tuple(exps)
    if len(exps) != num_vars:
        raise AlgebraError(
            f"exponent vector {exps} has length {len(exps)}, expected {num_vars}")
    field, bias = _layout(num_vars)
    key = 0
    for x in (sum(exps),) + exps:
        if not -bias <= x < bias:
            raise ExponentRangeError(f"exponent vector {exps} leaves the packed range [-{bias}, {bias})")
        key = (key << field) | (x + bias)
    return key


def _unpack(key: int, num_vars: int) -> Exponents:
    field, bias = _layout(num_vars)
    mask = (1 << field) - 1
    return tuple(((key >> (field * i)) & mask) - bias for i in range(num_vars - 1, -1, -1))


def _in_range(terms, num_vars: int):
    """terms (a dict or a tuple of keys), after checking that no key left the packed range."""
    if terms and reduce(or_, terms) & (_zero_key(num_vars) << 1):
        bias = _layout(num_vars)[1]
        raise ExponentRangeError(f"an exponent or total degree left the packed range [-{bias}, {bias})")
    return terms


def _coeff(x):
    """A coefficient: an int, or a Fraction that is not integral."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise AlgebraError(f"coefficient must be int or Fraction, got {type(x).__name__}")


def _div(a, b):
    """a / b: an int when b divides a, else a Fraction (never a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a, b))


def _add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s if type(s) is int else _coeff(s)
        else:
            del out[k]
    return out


def _fma(acc: dict, a: dict, b: dict, zero: int, sign: int = 1) -> dict:
    """acc += sign * a * b over packed terms (zero: the zero key), in place;
    zero cells stay until `_finished` ends the sum."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ka, ca in a.items():
        ka, ca = ka - zero, -ca if sign < 0 else ca
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _finished(acc: dict, num_vars: int) -> "LaurentPoly":
    """The polynomial an `_fma` accumulator sums to.  The range check reads
    every key it touched, zero cells included, so an out-of-range term
    cannot cancel unseen; then zero cells go and integral Fractions become
    ints."""
    return _poly(num_vars, {k: c if type(c) is int else _coeff(c)
                            for k, c in _in_range(acc, num_vars).items() if c})


def _dot(pairs, num_vars: int) -> "LaurentPoly":
    """sum a * b over (a, b) pairs of LaurentPolys, in one accumulator."""
    zero, acc = _zero_key(num_vars), {}
    for a, b in pairs:
        _fma(acc, a.terms, b.terms, zero)
    return _finished(acc, num_vars)


def _poly(num_vars: int, terms: dict) -> "LaurentPoly":
    p = LaurentPoly.__new__(LaurentPoly)
    p.num_vars, p.terms = num_vars, terms
    return p


# ============================================================
#  Laurent polynomials
# ============================================================

class LaurentPoly:
    """A Laurent polynomial in `num_vars` variables over Q.

    INPUT terms: mapping exponent-tuple -> coefficient (int or Fraction);
    zero coefficients are dropped on construction.  `terms` holds the
    packed form, {key: coefficient}, with `int` coefficients wherever
    they are integral; `sorted_terms` unpacks it.  Instances are treated
    as immutable.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponents, Fraction] | None = None):
        if num_vars < 0:
            raise AlgebraError("num_vars must be >= 0")
        self.num_vars = num_vars
        self.terms = {}
        for exps, coeff in (terms or {}).items():
            coeff = _coeff(coeff)
            if coeff:
                self.terms[_pack(exps, num_vars)] = coeff

    # ---- constructors ----

    @staticmethod
    def zero(num_vars: int) -> "LaurentPoly":
        return _poly(num_vars, {})

    @staticmethod
    def one(num_vars: int) -> "LaurentPoly":
        return _poly(num_vars, {_zero_key(num_vars): 1})

    @staticmethod
    def const(num_vars: int, c) -> "LaurentPoly":
        c = _coeff(c)
        return _poly(num_vars, {_zero_key(num_vars): c} if c else {})

    @staticmethod
    def var(num_vars: int, index: int, power: int = 1) -> "LaurentPoly":
        """The monomial t_{index+1}^power (index is 0-based)."""
        if not 0 <= index < num_vars:
            raise AlgebraError(f"variable index {index} out of range for {num_vars} variables")
        exps = [0] * num_vars
        exps[index] = power
        return _poly(num_vars, {_pack(exps, num_vars): 1})

    @staticmethod
    def monomial(num_vars: int, exps: Sequence[int], coeff=1) -> "LaurentPoly":
        return LaurentPoly(num_vars, {tuple(exps): coeff})

    # ---- predicates / simple data ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {_zero_key(self.num_vars): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def augment(self):
        """Evaluation at t_1 = ... = t_n = 1 (the augmentation map)."""
        return sum(self.terms.values())

    def min_exponents(self) -> Exponents:
        """Componentwise minimum exponent over all terms (poly must be nonzero)."""
        if not self.terms:
            raise AlgebraError("min_exponents of the zero polynomial")
        field, bias = _layout(self.num_vars)
        mask = (1 << field) - 1
        return tuple(min((k >> (field * i)) & mask for k in self.terms) - bias
                     for i in range(self.num_vars - 1, -1, -1))

    # ---- arithmetic ----

    def _check(self, other: "LaurentPoly"):
        if self.num_vars != other.num_vars:
            raise AlgebraError(
                f"mixed variable counts: {self.num_vars} vs {other.num_vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return _poly(self.num_vars, _add_terms(self.terms, other.terms))

    def __neg__(self) -> "LaurentPoly":
        return _poly(self.num_vars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return _finished(_fma({}, self.terms, other.terms, _zero_key(self.num_vars)), self.num_vars)

    def scale(self, c) -> "LaurentPoly":
        c = _coeff(c)
        return _poly(self.num_vars, _shifted(self.terms, 0, c, self.num_vars) if c else {})

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if not self.is_monomial():
                raise AlgebraError("negative powers only defined for monomials")
            ((key, c),) = self.bar().terms.items()
            inverse = _poly(self.num_vars, {key: _div(1, c)})
            return inverse if k == -1 else inverse ** -k
        result = LaurentPoly.one(self.num_vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            base = base * base if k else base  # no square past the last bit
        return result

    def shift(self, exps: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial t^exps."""
        d = _pack(exps, self.num_vars) - _zero_key(self.num_vars)
        return _poly(self.num_vars,
                     _in_range({k + d: c for k, c in self.terms.items()}, self.num_vars))

    def bar(self) -> "LaurentPoly":
        """The bar involution t_i -> t_i^-1 (negate all exponents)."""
        twice = 2 * _zero_key(self.num_vars)
        return _poly(self.num_vars,
                     _in_range({twice - k: c for k, c in self.terms.items()}, self.num_vars))

    def permute_vars(self, perm: Sequence[int]) -> "LaurentPoly":
        """Relabel variables: new variable i carries the old exponent of perm[i].

        perm is a 0-based permutation of range(num_vars).
        """
        if sorted(perm) != list(range(self.num_vars)):
            raise AlgebraError("perm must be a permutation of the variable indices")
        return LaurentPoly(self.num_vars, {tuple(e[i] for i in perm): c
                                           for e, c in self.sorted_terms()})

    def collapse_vars(self) -> "LaurentPoly":
        """Specialize all variables to a single one: t_i -> t, whose
        exponent is the term's packed total-degree field."""
        field, bias = _layout(self.num_vars)
        top, (field1, bias1) = field * self.num_vars, _layout(1)
        out: dict = {}  # e + bias: the coefficient of t^e, keyed (e + bias1) (2^field1 + 1)
        for k, c in self.terms.items():
            out[k >> top] = out.get(k >> top, 0) + c
        return _poly(1, {(e + bias1 - bias) * ((1 << field1) + 1): c if type(c) is int else _coeff(c)
                         for e, c in out.items() if c})

    def eval_complex(self, point: Sequence[complex]) -> complex:
        if len(point) != self.num_vars:
            raise AlgebraError("evaluation point has wrong arity")
        total = 0j
        for e, c in self.sorted_terms():
            v = complex(c)
            for x, k in zip(point, e):
                v *= x ** k
            total += v
        return total

    # ---- exact division ----

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring; raises NotDivisibleError on failure.

        Over a domain the least and the greatest value of each key field
        (total degree, exponents) add under products, so an exact quotient
        spans the box [lo(p) - lo(d), hi(p) - hi(d)] field by field, which
        must lie in the packed range, and remainder terms stay in p's box.
        Division runs in key (graded-lex) order, in place on the remainder:
        lead(p) = lead(q) * lead(d) whenever it is exact, and a quotient
        term outside the box means it is not; the box test reads the top
        bit of each field of q - lo and hi - q, offset by 2 * bias.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.num_vars)
        nv = self.num_vars
        field, bias = _layout(nv)
        mask, shifts = (1 << field) - 1, range(field * nv, -1, -field)
        cols = [([(k >> s) & mask for k in self.terms], [(k >> s) & mask for k in other.terms])
                for s in shifts]
        lo, hi = [min(a) - min(b) for a, b in cols], [max(a) - max(b) for a, b in cols]
        if any(a > b for a, b in zip(lo, hi)):
            raise NotDivisibleError("exact division failed (exponent spans differ)")
        if min(lo) < -bias or max(hi) >= bias:
            raise ExponentRangeError(f"the quotient leaves the packed range [-{bias}, {bias})")
        d = other.terms
        dl = max(d)
        dl_c = d[dl]
        tail = [(k - dl, c) for k, c in d.items() if k != dl]
        top, shift = _zero_key(nv) << 1, _zero_key(nv) - dl  # top: 2 * bias in every field
        above_lo = top - sum(x << s for x, s in zip(lo, shifts)) - dl
        below_hi = top + sum(x << s for x, s in zip(hi, shifts)) + dl
        rem = dict(self.terms)
        heap = [-k for k in rem]
        heapify(heap)
        q: dict = {}
        while heap:
            rl = -heappop(heap)
            c = rem.pop(rl, 0)
            if not c:
                continue
            if (rl + above_lo) & (below_hi - rl) & top != top:
                raise NotDivisibleError("exact division failed (quotient term outside the box)")
            qc = q[rl + shift] = _div(c, dl_c)
            for dk, dc in tail:
                k = rl + dk
                s = rem.get(k)
                if s is None:
                    rem[k] = -qc * dc
                    heappush(heap, -k)
                else:
                    s -= qc * dc
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
        return _poly(nv, q)

    # ---- dunder plumbing ----

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly)
                and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.to_text()!r})"

    def __str__(self):
        return self.to_text()

    # ---- canonical text ----

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in canonical (graded, then
        exponent-tuple) ascending order."""
        return [(_unpack(k, self.num_vars), self.terms[k]) for k in sorted(self.terms)]

    def to_text(self, var_names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = tuple(default_var_names(self.num_vars) if var_names is None else var_names)
        pieces = []
        for i, key in enumerate(sorted(self.terms)):
            c, factors = self.terms[key], _factor_text(key, self.num_vars, names)
            mag = abs(c)
            body = factors if factors and mag == 1 else f"{mag}*{factors}" if factors else str(mag)
            pieces.append(("-" if c < 0 else "") + body if i == 0 else ("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)


@lru_cache(maxsize=1 << 14)
def _factor_text(key: int, num_vars: int, names: tuple) -> str:
    """The monomial of a packed key as text, t1^2*t3 ("" for the zero key)."""
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, _unpack(key, num_vars)) if k)


def default_var_names(num_vars: int) -> list:
    return ["t"] if num_vars == 1 else [f"t{i + 1}" for i in range(num_vars)]


def series_var_names(num_vars: int) -> list:
    return ["z"] if num_vars == 1 else [f"z{i + 1}" for i in range(num_vars)]


def augment(p):
    """Augmentation (all variables to 1) of a LaurentPoly or RatFunc."""
    if isinstance(p, RatFunc):
        da = p.den.augment()
        if da == 0:
            raise PoleError("denominator augments to zero")
        return _div(p.num.augment(), da)
    return p.augment()


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of p modulo units +-t_1^a1...t_n^an.

    Divides by the monomial of componentwise-minimal exponents, then flips
    the overall sign so the first term in canonical order has positive
    coefficient.  Zero and a p already in that form are returned as is.
    """
    if p.is_zero():
        return p
    low = p.min_exponents()
    q = p.shift(tuple(-x for x in low)) if any(low) else p
    return -q if q.terms[min(q.terms)] < 0 else q


# ============================================================
#  Rational functions
# ============================================================

class RatFunc:
    """A fraction num/den of Laurent polynomials; den must be nonzero.

    Fractions stay unreduced; equality compares numerator with numerator
    over an equal denominator, else cross-multiplies.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.num_vars)
        if num.num_vars != den.num_vars:
            raise AlgebraError("numerator/denominator variable counts differ")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    # ---- constructors ----

    @staticmethod
    def zero(num_vars: int) -> "RatFunc":
        return RatFunc(LaurentPoly.zero(num_vars))

    @staticmethod
    def one(num_vars: int) -> "RatFunc":
        return RatFunc(LaurentPoly.one(num_vars))

    @staticmethod
    def const(num_vars: int, c) -> "RatFunc":
        return RatFunc(LaurentPoly.const(num_vars, c))

    @property
    def num_vars(self) -> int:
        return self.num.num_vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # ---- arithmetic ----

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(_dot(((self.num, other.den), (other.num, self.den)), self.num_vars),
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def bar(self) -> "RatFunc":
        return RatFunc(self.num.bar(), self.den.bar())

    def permute_vars(self, perm: Sequence[int]) -> "RatFunc":
        return RatFunc(self.num.permute_vars(perm), self.den.permute_vars(perm))

    def collapse_vars(self) -> "RatFunc":
        den = self.den.collapse_vars()
        if den.is_zero():
            raise ZeroDivisionError("denominator collapses to zero under t_i -> t")
        return RatFunc(self.num.collapse_vars(), den)

    def eval_complex(self, point: Sequence[complex]) -> complex:
        d = self.den.eval_complex(point)
        if abs(d) == 0.0:
            raise PoleError("evaluation at a pole")
        return self.num.eval_complex(point) / d

    def augment(self) -> Fraction:
        return augment(self)

    # ---- normal forms ----

    def reduced(self) -> "RatFunc":
        """Lighten the fraction without changing its value.

        Tries, in order: unit-normalize the denominator, exact polynomial
        division, scalar/monomial content extraction, univariate GCD when only
        one variable occurs.  Purely cosmetic; semantics are unchanged.
        """
        num, den = self.num, self.den
        if num.is_zero():
            return RatFunc(LaurentPoly.zero(self.num_vars))
        # fold the denominator's unit part into the numerator
        back = tuple(-x for x in den.min_exponents())
        den, num = den.shift(back), num.shift(back)
        if den.terms[min(den.terms)] < 0:
            den, num = -den, -num
        if den.is_one():
            return RatFunc(num)
        try:
            return RatFunc(num.exact_div(den))
        except NotDivisibleError:
            pass
        # pull scalar content out of both parts, remembering the ratio
        def content(p: LaurentPoly) -> Fraction:
            cs = p.terms.values()
            return Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))

        cn, cd = content(num), content(den)
        ratio = cn / cd
        if ratio != 1:
            num = num.scale(1 / cn)
            den = den.scale(1 / cd)
        live = {i for p in (num, den) for e, _ in p.sorted_terms() for i, k in enumerate(e) if k}
        if len(live) == 1:
            g = _univar_gcd(num, den)
            if not g.is_one():
                num = num.exact_div(g)
                den = den.exact_div(g)
        if ratio != 1:
            num = num.scale(ratio)
        if den.is_one():
            return RatFunc(num)
        try:
            return RatFunc(num.exact_div(den))
        except NotDivisibleError:
            return RatFunc(num, den)

    # ---- comparisons ----

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        # hash-compatible with ==: use the reduced canonical-ish key
        r = self.reduced()
        if r.den.is_one():
            return hash((r.num_vars, frozenset(r.num.terms.items())))
        # fall back to a coarse bucket; fine since RatFunc is rarely hashed
        return hash(r.num_vars)

    def __repr__(self):
        return f"RatFunc({self.to_text()!r})"

    def __str__(self):
        return self.to_text()

    def to_text(self, var_names: Sequence[str] | None = None) -> str:
        if self.den.is_one():
            return self.num.to_text(var_names)
        return f"({self.num.to_text(var_names)})/({self.den.to_text(var_names)})"


def _univar_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic GCD of two Laurent polynomials in the same single variable.

    Euclid's algorithm on the ordinary polynomials left after stripping
    monomial content; with one live variable, key order is degree order.
    """
    x, y = (p.shift(tuple(-e for e in p.min_exponents())) for p in (a, b))
    while y.terms:
        top = max(y.terms)
        while x.terms and max(x.terms) >= top:
            lead = max(x.terms)
            q = _div(x.terms[lead], y.terms[top])
            x = x - _poly(a.num_vars, _shifted(y.terms, lead - top, q, a.num_vars))
        x, y = y, x
    return x.scale(_div(1, x.terms[max(x.terms)]))


# ============================================================
#  Matrices over F
# ============================================================

class SparseMatrix:
    """A matrix over F as Laurent cells over one denominator: the {column:
    LaurentPoly} rows of its nonzero cells (`cells`) and den (default 1),
    so the matrix is cells / den.  det, rank and solve take it as it is,
    and solve returns one over its unit-normal d.  `entries` is a read-only
    view of the rows as RatFunc(N_ij, den)."""

    __slots__ = ("num_vars", "rows", "cols", "cells", "den")

    def __init__(self, num_vars: int, cols: int, cells: Sequence[Mapping[int, LaurentPoly]],
                 den: LaurentPoly | None = None):
        if den is not None and den.is_zero():
            raise ZeroDivisionError("matrix with zero denominator")
        self.num_vars = num_vars
        self.cols = cols
        self.cells = [{j: row[j] for j in sorted(row) if row[j].terms} for row in cells]
        self.rows = len(self.cells)
        self.den = LaurentPoly.one(num_vars) if den is None else den

    @staticmethod
    def identity(num_vars: int, n: int) -> "SparseMatrix":
        one = LaurentPoly.one(num_vars)
        return SparseMatrix(num_vars, n, [{i: one} for i in range(n)])

    @property
    def entries(self) -> list:
        zero = LaurentPoly.zero(self.num_vars)
        return [[RatFunc(row.get(j, zero), self.den) for j in range(self.cols)] for row in self.cells]

    def __getitem__(self, ij) -> RatFunc:
        i, j = ij
        return RatFunc(self.cells[i].get(j, LaurentPoly.zero(self.num_vars)), self.den)

    def _scaled(self, p: LaurentPoly) -> list:
        """The cells times p."""
        if p.is_one():
            return self.cells
        zero = _zero_key(self.num_vars)
        return [{j: _finished(_fma({}, x.terms, p.terms, zero), self.num_vars) for j, x in row.items()}
                for row in self.cells]

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        if self.den == other.den:
            a, b, den = self.cells, other.cells, self.den
        else:
            a, b, den = self._scaled(other.den), other._scaled(self.den), self.den * other.den
        rows = []
        for ra, rb in zip(a, b):
            row = dict(ra)
            for j, x in rb.items():
                row[j] = row[j] + x if j in row else x
            rows.append(row)
        return SparseMatrix(self.num_vars, self.cols, rows, den)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + SparseMatrix(other.num_vars, other.cols,
                                   [{j: -x for j, x in row.items()} for row in other.cells], other.den)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """(A / a)(B / b) = A B / (a b), each cell one accumulated sum of products."""
        if self.cols != other.rows:
            raise ShapeError(
                f"matrix product shape mismatch: {self.rows}x{self.cols} * "
                f"{other.rows}x{other.cols}")
        nv, zero = self.num_vars, _zero_key(self.num_vars)
        rows = []
        for row in self.cells:
            acc: dict = {}
            for k, a in row.items():
                for j, b in other.cells[k].items():
                    _fma(acc.setdefault(j, {}), a.terms, b.terms, zero)
            rows.append({j: _finished(cell, nv) for j, cell in acc.items()})
        den = (other.den if self.den.is_one() else self.den if other.den.is_one()
               else self.den * other.den)
        return SparseMatrix(nv, other.cols, rows, den)

    def transpose(self) -> "SparseMatrix":
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.cells):
            for j, x in row.items():
                cols[j][i] = x
        return SparseMatrix(self.num_vars, self.rows, cols, self.den)

    def bar_transpose(self) -> "SparseMatrix":
        """The conjugate transpose under the bar involution t_i -> t_i^-1."""
        t = self.transpose()
        return SparseMatrix(self.num_vars, t.cols, [{j: x.bar() for j, x in row.items()}
                                                    for row in t.cells], self.den.bar())

    def minor(self, i: int, j: int) -> "SparseMatrix":
        """Delete row i and column j (0-based); the cells stay sorted and nonzero."""
        m = SparseMatrix.__new__(SparseMatrix)
        m.num_vars, m.cols, m.den, m.cells = self.num_vars, self.cols - 1, self.den, [
            {c - (c > j): p for c, p in row.items() if c != j} for r, row in enumerate(self.cells) if r != i]
        m.rows = len(m.cells)
        return m

    def __eq__(self, other) -> bool:
        """Cells over an equal denominator, else cross-multiplied."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.num_vars, self.rows, self.cols) != (other.num_vars, other.rows, other.cols):
            return False
        if self.den == other.den:
            return self.cells == other.cells
        return (all(ra.keys() == rb.keys() for ra, rb in zip(self.cells, other.cells))
                and self._scaled(other.den) == other._scaled(self.den))

    def __repr__(self):
        body = "[%s]" % ", ".join("[%s]" % ", ".join(str(x.num) for x in row) for row in self.entries)
        return body if self.den.is_one() else f"{body} / ({self.den})"


def _bareiss_eliminate(mat):
    """In-place fraction-free elimination on a list-of-lists LaurentPoly matrix.

    Returns (sign, pivots, rank).  mat is reduced to row echelon form with the
    Bareiss division discipline, valid over any integral domain.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    sign = 1
    prev = None  # previous pivot
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if not mat[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            sign = -sign
        piv = mat[r][c]
        for i in range(r + 1, rows):
            minus = -mat[i][c]
            for j in range(cols):
                if j == c:
                    continue
                num = _dot(((piv, mat[i][j]), (minus, mat[r][j])), piv.num_vars)
                mat[i][j] = num if prev is None else num.exact_div(prev)
            mat[i][c] = LaurentPoly.zero(piv.num_vars)
        pivots.append((r, c))
        prev = piv
        r += 1
    return sign, pivots, r


def _shifted(terms: dict, offset: int, coeff, num_vars: int) -> dict:
    """terms * coeff t^e, t^e given as its key offset: one range-checked key shift."""
    return _in_range({k + offset: c if type(c := a * coeff) is int else _coeff(c)
                      for k, a in terms.items()}, num_vars)


def _unit_pivot_eliminate(rows, num_vars: int, cols: int, carried: int = 0):
    """Sparse elimination on monomial pivots, in Markowitz order.

    rows are {column: LaurentPoly} dicts over the first `cols` columns and
    `carried` right-hand-side columns after them; pivots are taken only in
    the first `cols`.  A single-term entry is a unit of Q[t^+-1], so while
    one is live, the one of least Markowitz cost (row nonzeros - 1) *
    (column nonzeros - 1) is the pivot p, the scan stopping at cost 0: (a_rj
    / p, a key shift) * pivot row is subtracted from every other row r (one
    Schur complement step, carried columns included), and the pivot's row
    and column are dropped.  Returns (pivots, core).  Each pivot is (column,
    signed pivot, (key offset, coefficient) of p^-1, pivot row): the signed
    pivot carries the sign (-1)^(i+j) of its live position (bisected in the
    sorted live rows and columns), and the pivot row holds the row's other
    entries at that step.  The dense core holds the live rows over the live
    columns, carried columns last.  det(rows) = prod(signed pivots) *
    det(core) when rows is square, and rank(rows) = len(pivots) + rank(core).
    """
    zero = _zero_key(num_vars)
    live = dict(enumerate(rows))
    live_rows, live_cols = list(live), list(range(cols + carried))
    col_rows = {j: set() for j in live_cols}
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
        at_row, at_col = bisect_left(live_rows, i), bisect_left(live_cols, j)
        del live_rows[at_row], live_cols[at_col]
        pivot_row = live.pop(i)
        p = pivot_row.pop(j)
        ((key, coeff),) = p.terms.items()
        inverse = zero - key, _div(1, coeff)
        for r in col_rows.pop(j) - {i}:
            row = live[r]
            f = _shifted(row.pop(j).terms, *inverse, num_vars)
            for c, v in pivot_row.items():
                acc = dict(row[c].terms) if c in row else {}
                x = _finished(_fma(acc, f, v.terms, zero, -1), num_vars)
                if not x.terms:
                    del row[c]
                    col_rows[c].discard(r)
                else:
                    row[c] = x
                    col_rows[c].add(r)
        for c in pivot_row:
            col_rows[c].discard(i)
        pivots.append((j, -p if (at_row + at_col) % 2 else p, inverse, pivot_row))
    empty = LaurentPoly.zero(num_vars)
    return pivots, [[live[i].get(j, empty) for j in live_cols] for i in live_rows]


def det(M: SparseMatrix) -> RatFunc:
    """Determinant over F: det(cells) / den^rows, det(cells) = prod(signed
    pivots) * det(core).

    M's Laurent rows lose their monomial pivots sparsely
    (_unit_pivot_eliminate), and only the leftover core goes through
    Bareiss elimination.  The pivots' product (a key sum, range-checked at
    each step) shifts the core's last pivot once.
    """
    if M.rows != M.cols:
        raise ShapeError("determinant of a non-square matrix")
    nv = M.num_vars
    den_factor = M.den if M.den.is_one() else M.den ** M.rows
    pivots, core = _unit_pivot_eliminate([dict(row) for row in M.cells], nv, M.cols)
    zero = key = _zero_key(nv)
    coeff = 1
    for _j, p, _inv, _row in pivots:
        ((k, c),) = p.terms.items()
        key, coeff = _in_range((key + k - zero,), nv)[0], coeff * c
    if not core:
        return RatFunc(_poly(nv, {key: _coeff(coeff)}), den_factor)
    sign, _steps, r = _bareiss_eliminate(core)
    if r < len(core):
        return RatFunc.zero(nv)
    return RatFunc(_poly(nv, _shifted(core[-1][-1].terms, key - zero, coeff * sign, nv)), den_factor)


def solve(M: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """Solve M X = B exactly (M square and invertible over F).

    The Laurent rows of (M B) go through the kernel of det and rank: monomial
    pivots (_unit_pivot_eliminate) carry B's columns along, and Bareiss
    brings the leftover core to triangular form U; d is its last pivot
    divided by its unit (`normalize_unit`).  Fraction-free back-substitution
    gives the solution as one matrix N / d: over the core, N_i = (d b_i -
    sum_j U_ij N_j) / U_ii, an exact division, then over the monomial pivots
    in reverse order, N_j = (d b_j - sum_c a_jc N_c) / p_j: fraction-free
    Gauss-Jordan on the core, up to a unit; d = 1 when no core is left.
    X is the matrix N / d; denominators of M or B other than 1 then scale
    it: (A / a)^-1 (C / b) = a A^-1 C / b.
    """
    if M.rows != M.cols:
        raise ShapeError("solve requires a square coefficient matrix")
    if M.rows != B.rows:
        raise ShapeError("right-hand side row count mismatch")
    n, m, nv = M.rows, B.cols, M.num_vars
    rows = [{**a, **{n + k: v for k, v in b.items()}} for a, b in zip(M.cells, B.cells)]
    pivots, core = _unit_pivot_eliminate(rows, nv, n, m)
    zero, d, empty = _zero_key(nv), LaurentPoly.one(nv), LaurentPoly.zero(nv)
    N = {}

    def substituted(scale, b, products, k):
        """scale * b - sum a * x[k] over products, in one accumulator."""
        acc = {} if b is None else _fma({}, scale, b.terms, zero)
        for a, x in products:
            if x[k].terms:
                _fma(acc, a, x[k].terms, zero, -1)
        return _finished(acc, nv) if acc else empty

    if core:
        size = len(core)
        _sign, steps, r = _bareiss_eliminate(core)
        if r < size or steps[-1][1] != size - 1:
            raise SingularMatrixError("coefficient matrix is singular over F")
        d = normalize_unit(core[-1][size - 1])
        unknowns = sorted(set(range(n)).difference(pivot[0] for pivot in pivots))
        for i in reversed(range(size)):
            U = core[i]
            later = [(U[l].terms, N[unknowns[l]]) for l in range(i + 1, size) if U[l].terms]
            N[unknowns[i]] = [substituted(d.terms, U[size + k], later, k).exact_div(U[i])
                              for k in range(m)]
    for j, _p, inverse, row in reversed(pivots):
        # p_j^-1, a key shift, goes into each factor, not over the finished sum
        start = _shifted(d.terms, *inverse, nv)
        later = [(_shifted(v.terms, *inverse, nv), N[c]) for c, v in row.items() if c < n]
        N[j] = [substituted(start, row.get(n + k), later, k) for k in range(m)]
    X = SparseMatrix(nv, m, [dict(enumerate(N[j])) for j in range(n)], d)
    return X if M.den.is_one() and B.den.is_one() else SparseMatrix(nv, m, X._scaled(M.den), d * B.den)


def rank(M: SparseMatrix) -> int:
    """Rank over F: monomial pivots (_unit_pivot_eliminate) plus rank(core)."""
    pivots, core = _unit_pivot_eliminate([dict(row) for row in M.cells], M.num_vars, M.cols)
    return len(pivots) + (_bareiss_eliminate(core)[2] if core else 0)


def left_kernel_vector(M: SparseMatrix):
    """A nonzero vector u of Laurent polynomials with u M = 0, or None if
    the left kernel is trivial.

    Bareiss brings the Laurent rows of M^T (its den plays no part) to
    echelon form; its r nonzero
    rows span the same row space, with pivot columns P.  For the first
    free column f, one `solve` of E_P x = -E_f gives x = N / d, so
    u_P = N, u_f = d and every other u_j = 0.
    """
    t = M.transpose()
    n, nv = t.cols, t.num_vars
    zero = LaurentPoly.zero(nv)
    echelon = [[row.get(j, zero) for j in range(n)] for row in t.cells]
    _sign, pivots, r = _bareiss_eliminate(echelon)
    if r == n:
        return None
    P = [c for _r, c in pivots]
    f = min(set(range(n)) - set(P))
    rows = echelon[:r]
    X = solve(SparseMatrix(nv, r, [{k: row[c] for k, c in enumerate(P)} for row in rows]),
              SparseMatrix(nv, 1, [{0: -row[f]} for row in rows]))
    u = [zero] * n
    u[f] = X.den
    for row, c in zip(X.cells, P):
        u[c] = row.get(0, zero)
    return u


# ============================================================
#  Truncated power series (Taylor coefficients in z_i = 1 - t_i)
# ============================================================

class TruncatedSeries:
    """Polynomial truncation of a power series: terms of total degree <= bound.

    INPUT terms: mapping exponent-tuple (entries >= 0) -> coefficient.
    `terms` is packed as in LaurentPoly, and the arithmetic is the
    LaurentPoly kernel's, cut at the bound, so coefficients stay `int`
    while they are integral.
    """

    __slots__ = ("num_vars", "bound", "terms")

    def __init__(self, num_vars: int, bound: int, terms: Mapping[Exponents, Fraction] | None = None):
        if bound < 0:
            raise AlgebraError("series bound must be >= 0")
        for e in terms or {}:
            if len(tuple(e)) != num_vars or any(x < 0 for x in e):
                raise AlgebraError(f"bad series exponent {tuple(e)}")
        self.num_vars = num_vars
        self.bound = bound
        self.terms = _truncated(LaurentPoly(num_vars, terms).terms, num_vars, bound)

    @staticmethod
    def zero(num_vars: int, bound: int) -> "TruncatedSeries":
        return _series(num_vars, bound, {})

    def _check(self, other: "TruncatedSeries"):
        if self.num_vars != other.num_vars or self.bound != other.bound:
            raise AlgebraError("series arity/bound mismatch")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return _series(self.num_vars, self.bound, _add_terms(self.terms, other.terms))

    def __neg__(self) -> "TruncatedSeries":
        return _series(self.num_vars, self.bound, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        product = _fma({}, self.terms, other.terms, _zero_key(self.num_vars))
        return _series(self.num_vars, self.bound,
                       _truncated(_finished(product, self.num_vars).terms, self.num_vars, self.bound))

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(_pack(exps, self.num_vars), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def min_total_degree(self):
        """Smallest total degree with a nonzero coefficient; None if zero."""
        if not self.terms:
            return None
        field, bias = _layout(self.num_vars)
        return (min(self.terms) >> (field * self.num_vars)) - bias

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.num_vars == other.num_vars
                and self.bound == other.bound
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, self.bound, frozenset(self.terms.items())))

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()!r}, bound={self.bound})"

    def to_text(self, var_names: Sequence[str] | None = None) -> str:
        if var_names is None:
            var_names = series_var_names(self.num_vars)
        return _poly(self.num_vars, self.terms).to_text(var_names)


def _truncated(terms: dict, num_vars: int, bound: int) -> dict:
    """The terms of total degree <= bound (keys below the next degree's)."""
    field, bias = _layout(num_vars)
    limit = (bound + 1 + bias) << (field * num_vars)
    return {k: c for k, c in terms.items() if k < limit}


def _series(num_vars: int, bound: int, terms: dict) -> TruncatedSeries:
    series = TruncatedSeries.__new__(TruncatedSeries)
    series.num_vars, series.bound, series.terms = num_vars, bound, terms
    return series


@lru_cache(maxsize=4096)
def _binomial_row(k: int, room: int) -> tuple:
    """Coefficients of z^0 .. z^room in (1 - z)^k: (-1)^j C(k, j) for
    k >= 0 (zero past j = k), C(-k + j - 1, j) for k < 0."""
    if k >= 0:
        return tuple((-1) ** j * comb(k, j) for j in range(min(k, room) + 1))
    return tuple(comb(-k + j - 1, j) for j in range(room + 1))


_TABLE_LIMIT = 1000  # terms in a p's table rows (C(n + bound, bound) a row) past which the sweep wins


def _substitute(p: LaurentPoly, bound: int) -> dict:
    """p(1 - z_1, ..., 1 - z_n) to total degree <= bound, as packed terms: a
    sum of cached rows (1 - z)^e, one per term, while they hold at most
    _TABLE_LIMIT terms in all, else the `_sweep`, which merges terms."""
    if len(p.terms) * comb(p.num_vars + bound, bound) > _TABLE_LIMIT:
        return _sweep(p.terms, p.num_vars, bound)
    acc: dict = {}
    for k, c in p.terms.items():
        for z, a in _monomial_series(k, p.num_vars, bound):
            acc[z] = acc.get(z, 0) + a * c
    return {k: c for k, c in acc.items() if c}


@lru_cache(maxsize=512)
def _monomial_series(key: int, num_vars: int, bound: int) -> tuple:
    """The row of key: (1 - z)^e to degree <= bound as (key, coefficient) pairs."""
    return tuple(_sweep({key: 1}, num_vars, bound).items())


def _sweep(terms: dict, num_vars: int, bound: int) -> dict:
    """The same sum, one variable at a time: t_i^k takes each term z_i^j of
    the binomial row of (1 - z_i)^k cut at the degree left, and terms alike
    in what is left merge; the total-degree field gets the z-degree last."""
    field, bias = _layout(num_vars)
    mask, top = (1 << field) - 1, field * num_vars
    cur = {(0, k & ((1 << top) - 1) | (bias << top)): c for k, c in terms.items()}
    for at in range(top - field, -1, -field):
        nxt: dict = {}
        for (spent, k), c in cur.items():
            e = ((k >> at) & mask) - bias
            for j, a in enumerate(_binomial_row(e, bound - spent)):
                if a:
                    key = (spent + j, k + ((j - e) << at))
                    nxt[key] = nxt.get(key, 0) + a * c
        cur = nxt
    return {k + (spent << top): c for (spent, k), c in cur.items() if c}


def taylor_expand(r, bound: int) -> TruncatedSeries:
    """Taylor coefficients of a rational function at t_i = 1 (z_i = 1 - t_i).

    Numerator f and denominator d are substituted in closed form
    (`_substitute`), then h = f/d is solved degree by degree,
    h_a = (f_a - sum_{0 != b <= a} d_b h_{a-b}) / d_0 with d_0 = den(1) != 0:
    each h_a, once final, takes d_b h_a off f_{a+b}.  A denominator of 1
    skips the quotient.  Coefficients stay `int` while they are integral.
    """
    if isinstance(r, LaurentPoly):
        r = RatFunc(r)
    d0 = _coeff(r.den.augment())
    if d0 == 0:
        raise PoleError("denominator vanishes at t_i = 1; Taylor expansion undefined")
    if bound < 0:
        raise AlgebraError("series bound must be >= 0")
    field, bias = _layout(r.num_vars)
    if bound >= bias:
        raise ExponentRangeError(f"series bound {bound} leaves the packed range [0, {bias})")
    h = _substitute(r.num, bound)
    if not r.den.is_one():
        zero, top = _zero_key(r.num_vars), field * r.num_vars
        inv0 = _div(1, d0)
        corrections = [(b - zero, (b >> top) - bias, db)
                       for b, db in _substitute(r.den, bound).items() if b != zero]
        layers = [{} for _ in range(bound + 1)]
        for a, c in h.items():
            layers[(a >> top) - bias][a] = c
        h = {}
        for deg, layer in enumerate(layers):
            for a, c in layer.items():
                if not c:
                    continue
                c = h[a] = c * inv0
                for b, db_deg, db in corrections:
                    if deg + db_deg <= bound:
                        out = layers[deg + db_deg]
                        out[a + b] = out.get(a + b, 0) - db * c
    return _series(r.num_vars, bound, {k: _coeff(c) for k, c in h.items()})


# ============================================================
#  Canonical-text parsing
# ============================================================

_TOKEN_RE = re.compile(
    r"[+-]"
    r"|[0-9]+(?:/[0-9]+)?"
    r"|[A-Za-z_][A-Za-z0-9_]*(?:\^-?[0-9]+)?"
    r"|\*"
    r"|\S")
_VAR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?\Z")


def parse_poly(text: str, num_vars: int, var_names: Sequence[str] | None = None) -> LaurentPoly:
    """Parse the canonical polynomial text form back into a LaurentPoly."""
    if var_names is None:
        var_names = default_var_names(num_vars)
    name_index = {n: i for i, n in enumerate(var_names)}
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero(num_vars)
    tokens = _TOKEN_RE.findall(s)
    terms: dict = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        coeff = Fraction(sign)
        exps = [0] * num_vars
        saw_factor = False
        while i < n:
            tok = tokens[i]
            if tok in "+-":
                break
            if tok == "*":
                if not saw_factor:
                    raise ParseError("term starts with '*'")
                i += 1
                continue
            if tok[0].isdigit():
                try:
                    coeff *= Fraction(tok)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad coefficient {tok!r}") from exc
            else:
                m = _VAR_RE.match(tok)
                if not m:
                    raise ParseError(f"unexpected token {tok!r}")
                name, power = m.group(1), m.group(2)
                if name not in name_index:
                    raise ParseError(f"unknown variable {name!r}")
                exps[name_index[name]] += int(power) if power else 1
            saw_factor = True
            i += 1
        if not saw_factor:
            raise ParseError("empty term")
        e = tuple(exps)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return LaurentPoly(num_vars, terms)


def parse_ratfunc(text: str, num_vars: int, var_names: Sequence[str] | None = None) -> RatFunc:
    """Parse "(num)/(den)" or a bare polynomial."""
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        cut = s.index(")/(")
        num = parse_poly(s[1:cut], num_vars, var_names)
        den = parse_poly(s[cut + 3:-1], num_vars, var_names)
        return RatFunc(num, den)
    if s.startswith("(") and s.endswith(")") and ")/(" not in s:
        s = s[1:-1]
    return RatFunc(parse_poly(s, num_vars, var_names))
