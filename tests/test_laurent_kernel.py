"""The packed, integer-coefficient Laurent kernel against the dict-of-Fraction,
tuple-exponent arithmetic it replaced, its exponent range, and the
coefficient types that reach the invariants."""

import random
from fractions import Fraction

import pytest

from stringlinks import LaurentPoly, RatMatrix, det, full_report, gassner, taylor_expand
from stringlinks import algebra
from stringlinks.algebra import ExponentRangeError, NotDivisibleError, TruncatedSeries
from stringlinks.diagram import is_crossing
from stringlinks.finitetype import alternating_sum

from conftest import corpus_words


class _RefPoly:
    """Laurent polynomial as {exponent tuple: Fraction}: the representation
    LaurentPoly had before packing, kept as the reference for it."""

    def __init__(self, nv, terms):
        self.nv = nv
        self.terms = {}
        for e, c in terms.items():
            s = self.terms.get(tuple(e), Fraction(0)) + Fraction(c)
            if s == 0:
                self.terms.pop(tuple(e), None)
            else:
                self.terms[tuple(e)] = s

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _RefPoly(self.nv, out)

    def __neg__(self):
        return _RefPoly(self.nv, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return _RefPoly(self.nv, out)

    def shift(self, exps):
        return _RefPoly(self.nv, {tuple(x + y for x, y in zip(e, exps)): c
                                  for e, c in self.terms.items()})

    def bar(self):
        return _RefPoly(self.nv, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def permute_vars(self, perm):
        return _RefPoly(self.nv, {tuple(e[perm[i]] for i in range(self.nv)): c
                                  for e, c in self.terms.items()})

    def collapse_vars(self):
        out = {}
        for e, c in self.terms.items():
            out[(sum(e),)] = out.get((sum(e),), Fraction(0)) + c
        return _RefPoly(1, out)

    def exact_div(self, other):
        """Strip monomial content, then graded-lex division in the ordinary ring."""
        if not self.terms:
            return self
        mp = [min(col) for col in zip(*self.terms)]
        md = [min(col) for col in zip(*other.terms)]
        rem = self.shift([-x for x in mp])
        d = other.shift([-x for x in md])

        def lead(p):
            return max(p.terms, key=lambda e: (sum(e), e))

        dl = lead(d)
        q = {}
        while rem.terms:
            rl = lead(rem)
            qe = tuple(a - b for a, b in zip(rl, dl))
            if any(x < 0 for x in qe):
                raise NotDivisibleError("reference: not divisible")
            q[qe] = rem.terms[rl] / d.terms[dl]
            rem = rem - d.shift(qe) * _RefPoly(self.nv, {(0,) * self.nv: q[qe]})
        return _RefPoly(self.nv, q).shift([a - b for a, b in zip(mp, md)])

    def to_text(self):
        names = algebra.default_var_names(self.nv)
        if not self.terms:
            return "0"
        pieces = []
        for i, (e, c) in enumerate(sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))):
            factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
            mag = abs(c)
            body = (str(mag) if not factors else "*".join(factors) if mag == 1
                    else str(mag) + "*" + "*".join(factors))
            pieces.append(("-" if c < 0 else "") + body if i == 0
                          else ("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)


def _coefficient(rng, kind):
    if kind == "big":
        return rng.choice([1, -1]) * rng.randrange(2 ** 64, 2 ** 80)
    if kind == "fraction" and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.randint(-3, 3)


def _pair(rng, nv, kind, size=None):
    """The same seeded polynomial as a LaurentPoly and as a _RefPoly."""
    terms = {}
    for _ in range(size or rng.randint(1, 6)):
        terms[tuple(rng.randint(-3, 3) for _ in range(nv))] = _coefficient(rng, kind)
    return LaurentPoly(nv, terms), _RefPoly(nv, terms)


def _same(p, ref):
    assert p.to_text() == ref.to_text()
    assert dict(p.sorted_terms()) == ref.terms
    assert p == LaurentPoly(ref.nv, ref.terms)


CASES = [(nv, kind) for nv in range(1, 6) for kind in ("int", "big", "fraction")]


@pytest.mark.parametrize("nv, kind", CASES)
def test_ring_operations_match_reference(nv, kind):
    rng = random.Random(1000 * nv + len(kind))
    for _ in range(25):
        (a, ra), (b, rb) = _pair(rng, nv, kind), _pair(rng, nv, kind)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(a - a, ra - ra)
        _same(a * b, ra * rb)
        shift = [rng.randint(-4, 4) for _ in range(nv)]
        _same(a.shift(shift), ra.shift(shift))
        _same(a.bar(), ra.bar())
        perm = rng.sample(range(nv), nv)
        _same(a.permute_vars(perm), ra.permute_vars(perm))
        _same(a.collapse_vars(), ra.collapse_vars())


@pytest.mark.parametrize("nv, kind", CASES)
def test_exact_division_matches_reference(nv, kind):
    rng = random.Random(2000 * nv + len(kind))
    for _ in range(15):
        (a, ra), (b, rb) = _pair(rng, nv, kind), _pair(rng, nv, kind, size=rng.randint(2, 4))
        if len(rb.terms) < 2 or not ra.terms:
            continue
        _same((a * b).exact_div(b), (ra * rb).exact_div(rb))
        _same((a * b).exact_div(a), (ra * rb).exact_div(ra))
        # b is no unit (two or more terms), so it cannot divide a * b + 1
        one = {(0,) * nv: 1}
        with pytest.raises(NotDivisibleError):
            (ra * rb + _RefPoly(nv, one)).exact_div(rb)
        with pytest.raises(NotDivisibleError):
            (a * b + LaurentPoly(nv, one)).exact_div(b)


@pytest.mark.parametrize("nv", range(1, 6))
def test_exact_division_reads_the_operands_boxes(nv):
    # The dividend spans more than the packed range's upper half, the
    # quotient and divisor do not: a shift of the dividend to exponents >= 0
    # would leave the range.  In 4 variables this is
    # (t1^100 - 1 - t1^-900 + t1^-1000) / (1 - t1^-1000) = t1^100 - 1.
    low = algebra._layout(nv)[1] - 24
    one = LaurentPoly.one(nv)

    def t(k):
        return LaurentPoly.var(nv, 0, k)

    p, d = t(100) - one - t(100 - low) + t(-low), one - t(-low)
    assert p.exact_div(d) == t(100) - one
    assert (p * t(-23)).exact_div(d * t(-23)) == t(100) - one
    with pytest.raises(NotDivisibleError):
        (p + t(-low)).exact_div(d)  # the same span, one coefficient off
    with pytest.raises(NotDivisibleError):
        (p + t(50 - low)).exact_div(d)
    # quotients that really leave the range: t1^(-low - 100), and a
    # two-term one
    with pytest.raises(ExponentRangeError):
        t(-low).exact_div(t(100))
    with pytest.raises(ExponentRangeError):
        (t(-low) - t(1 - low)).exact_div(t(100))
    if nv > 1:  # t1^-low t2^-low: each exponent in range, the total degree past it
        with pytest.raises(ExponentRangeError):
            t(-low).exact_div(LaurentPoly.var(nv, 1, low))


def test_solve_back_substitutes_over_a_wide_span():
    # the core's back-substitution divides a numerator spanning t1^-900 ..
    # t1^100 exactly; shifted to exponents >= 0 it would leave the range
    one = LaurentPoly.one(4)

    def t(k):
        return LaurentPoly.var(4, 0, k)

    X = algebra.solve(algebra.SparseMatrix(4, 2, [{0: t(100), 1: one}, {0: t(-900), 1: one}]),
                      algebra.SparseMatrix(4, 1, [{0: one}, {0: t(-900)}]))
    assert RatMatrix(4, [[t(100), one], [t(-900), one]]) * X == RatMatrix(4, [[one], [t(-900)]])


@pytest.mark.parametrize("nv", range(1, 6))
def test_exact_division_over_wide_spans_matches_reference(nv):
    # Terms t_i^e (i = 1, 2) with |e| < half the range: products stay in
    # range, and their exponents often span more than its upper half.
    bias = algebra._layout(nv)[1]
    rng = random.Random(7000 + nv)

    def wide(size):
        terms = {}
        for _ in range(size):
            e = [0] * nv
            e[rng.randrange(min(nv, 2))] = rng.randint(1 - bias // 2, bias // 2 - 1)
            terms[tuple(e)] = rng.choice([1, -1, 2, Fraction(1, 3)])
        return LaurentPoly(nv, terms), _RefPoly(nv, terms)

    spans = 0
    for _ in range(40):
        (a, ra), (b, rb) = wide(rng.randint(1, 5)), wide(rng.randint(2, 4))
        if len(rb.terms) < 2:
            continue
        _same((a * b).exact_div(b), (ra * rb).exact_div(rb))
        with pytest.raises(NotDivisibleError):
            (a * b + LaurentPoly.one(nv)).exact_div(b)
        spans += any(max(col) - min(col) >= bias for col in zip(*(ra * rb).terms))
    assert spans >= 5


def _ref_det(rows):
    if not rows:
        return _RefPoly(1, {(0,): 1})
    nv = rows[0][0].nv
    total = _RefPoly(nv, {})
    for j, x in enumerate(rows[0]):
        minor = [[r[c] for c in range(len(rows)) if c != j] for r in rows[1:]]
        term = x * (_ref_det(minor) if minor else _RefPoly(nv, {(0,) * nv: 1}))
        total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("nv, kind", [(1, "int"), (2, "big"), (3, "fraction"), (4, "int")])
def test_det_matches_reference(nv, kind):
    rng = random.Random(3000 * nv + len(kind))
    for size in (2, 3, 4):
        pairs = [[_pair(rng, nv, kind, size=rng.randint(1, 3)) if rng.random() < 0.7
                  else (LaurentPoly.zero(nv), _RefPoly(nv, {})) for _ in range(size)]
                 for _ in range(size)]
        d = det(RatMatrix(nv, [[p for p, _ in row] for row in pairs]))
        assert d.den.is_one()
        _same(d.num, _ref_det([[r for _, r in row] for row in pairs]))


@pytest.mark.parametrize("nv", range(1, 6))
def test_exponents_past_the_packed_field_raise(nv):
    top = algebra._layout(nv)[1] - 1
    zeros = (0,) * (nv - 1)
    t = LaurentPoly.var(nv, 0)
    edge = LaurentPoly.var(nv, 0, top)
    low = LaurentPoly.var(nv, 0, -top - 1)
    assert edge.sorted_terms() == [((top, *zeros), 1)]
    assert low.sorted_terms() == [((-top - 1, *zeros), 1)]
    past = [lambda: LaurentPoly.var(nv, 0, top + 1),
            lambda: LaurentPoly.var(nv, nv - 1, -top - 2),
            lambda: edge * t,
            lambda: low * t.bar(),
            lambda: low.bar(),
            lambda: edge.shift((1, *zeros)),
            lambda: t ** (top + 1),
            lambda: TruncatedSeries(nv, 2, {(top + 1, *zeros): 1}),
            lambda: taylor_expand(t, top + 1)]
    if nv > 1:  # each exponent in range, the total degree past it
        past.append(lambda: LaurentPoly(nv, {(top, 1, *zeros[1:]): 1}))
    for make in past:
        with pytest.raises(ExponentRangeError):
            make()


def test_powers_square_only_while_bits_remain():
    # in 4 variables exponents lie in [-1024, 1024): a square of the base
    # after the last set bit of k would reach t^1024 for every k >= 512
    t = LaurentPoly.var(4, 0)
    product, powers = LaurentPoly.one(4), {}
    for k in range(1, 1024):
        product = product * t
        powers[k] = product
    for k in (1, 2, 3, 511, 512, 600, 1023):
        assert t ** k == powers[k] == LaurentPoly.var(4, 0, k), k
    with pytest.raises(ExponentRangeError):
        t ** 1024
    assert LaurentPoly.var(3, 2) ** 5000 == LaurentPoly.var(3, 2, 5000)  # [-8192, 8192)
    p, product = LaurentPoly.one(2) - LaurentPoly.var(2, 1, -1), LaurentPoly.one(2)
    for k in range(9):
        assert p ** k == product, k
        product = product * p


def _reference_univar_gcd(a, b, var):
    """Monic GCD by Euclid on Fraction coefficient lists: the routine the
    kernel's _univar_gcd replaced."""
    def to_coeffs(p):
        terms = p.sorted_terms()
        m = min(e[var] for e, _ in terms)
        cs = [Fraction(0)] * (max(e[var] for e, _ in terms) - m + 1)
        for e, c in terms:
            cs[e[var] - m] += c
        return trim(cs)

    def trim(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    x, y = to_coeffs(a), to_coeffs(b)
    while y:
        x = x[:]
        while len(x) >= len(y) and trim(x):
            f, off = x[-1] / y[-1], len(x) - len(y)
            for i, c in enumerate(y):
                x[off + i] -= f * c
            trim(x)
        x, y = y, x
    unit = [0] * a.num_vars
    terms = {}
    for i, c in enumerate(x):
        unit[var] = i
        terms[tuple(unit)] = c / x[-1]
    return LaurentPoly(a.num_vars, terms)


@pytest.mark.parametrize("nv", [1, 2, 3])
def test_univariate_gcd_and_reduced_match_reference(nv):
    rng = random.Random(4000 + nv)
    for _ in range(60):
        var = rng.randrange(nv)

        def poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = [0] * nv
                e[var] = rng.randint(-2, 3)
                terms[tuple(e)] = _coefficient(rng, rng.choice(["int", "fraction"]))
            return LaurentPoly(nv, terms)

        a, b, g = poly(), poly(), poly()
        if b.is_zero() or g.is_zero() or a.is_zero():
            continue
        num, den = a * g, b * g
        assert algebra._univar_gcd(num, den) == _reference_univar_gcd(num, den, var)
        r = algebra.RatFunc(num, den)
        assert r.reduced() == r


def _coefficients(x):
    if x is None:
        return []
    if hasattr(x, "den"):
        return list(x.num.terms.values()) + list(x.den.terms.values())
    return list(x.terms.values())


def test_invariant_coefficients_are_never_floats():
    checked = 0
    for name, word in corpus_words():
        g = gassner(word)
        report = full_report(g)
        values = [*g.entries.entries, *(g.Z.entries if g.Z is not None else [])]
        values = [x for row in values for x in row]
        values += [report.tau, report.delta_closure, report.delta_link, report.tau_one,
                   report.delta_closure_one, report.delta_link_one]
        if report.delta_link is not None:
            values.append(report.delta_link.reduced())
        values += [taylor_expand(x, 3) for row in g.entries.entries for x in row]
        flips = [i + 1 for i, ev in enumerate(word.events) if is_crossing(ev)][:1]
        if flips:
            values += [s for row in alternating_sum(word, flips, 3).entries for s in row]
        for x in values:
            for c in _coefficients(x):
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
                    (name, x, c)
                checked += 1
    assert checked > 1000


def _naive_sum(nv, signed):
    """sum of +-a*b over (sign, a, b), each product and partial sum its own
    _RefPoly: the reference for the fused accumulator."""
    total = _RefPoly(nv, {})
    for sign, a, b in signed:
        total = total + a * b if sign > 0 else total - a * b
    return total


def _integral_coefficients_are_ints(p):
    return all(type(c) is int or c.denominator != 1 for c in p.terms.values())


@pytest.mark.parametrize("nv, kind", CASES)
def test_fused_sum_of_products_matches_the_naive_sum(nv, kind):
    rng = random.Random(5000 * nv + len(kind))
    zero = algebra._zero_key(nv)
    cancelled = 0
    for _ in range(30):
        signed = [(rng.choice((1, -1)), _pair(rng, nv, kind), _pair(rng, nv, kind))
                  for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:  # every product also enters with the other sign
            signed += [(-s, a, b) for s, a, b in signed]
        acc = {}
        for s, (a, _), (b, _) in signed:
            algebra._fma(acc, a.terms, b.terms, zero, s)
        fused = algebra._finished(acc, nv)
        ref = _naive_sum(nv, [(s, ra, rb) for s, (_, ra), (_, rb) in signed])
        _same(fused, ref)
        assert _integral_coefficients_are_ints(fused)
        cancelled += not ref.terms
        plus = [(a, b) for s, (a, _), (b, _) in signed if s > 0]
        _same(algebra._dot(plus, nv),
              _naive_sum(nv, [(1, ra, rb) for s, (_, ra), (_, rb) in signed if s > 0]))
    assert cancelled


@pytest.mark.parametrize("nv", range(1, 6))
def test_integral_fraction_sums_come_back_as_ints(nv):
    zeros = (0,) * (nv - 1)
    half = LaurentPoly(nv, {(1, *zeros): Fraction(1, 2)})
    third = LaurentPoly(nv, {(-1, *zeros): Fraction(1, 3)})
    t2 = LaurentPoly.var(nv, 0, 2)
    # (1/2 t) t^2 + (1/2 t) t^2 + (1/3 t^-1)(3 t^4) = 2 t^3
    got = algebra._dot([(half, t2), (half, t2), (third, LaurentPoly.var(nv, 0, 4).scale(3))], nv)
    assert got.terms == {algebra._pack((3, *zeros), nv): 2}
    assert type(got.terms[algebra._pack((3, *zeros), nv)]) is int


@pytest.mark.parametrize("nv", range(1, 6))
def test_out_of_range_products_that_cancel_still_raise(nv):
    # Each product leaves the packed field and the two cancel to zero: the
    # accumulator checks every key it touched, not only the nonzero ones.
    top = algebra._layout(nv)[1] - 1
    zeros = (0,) * (nv - 1)
    zero = algebra._zero_key(nv)
    one, t = LaurentPoly.one(nv), LaurentPoly.var(nv, 0)
    edge = LaurentPoly.var(nv, 0, top)
    low = LaurentPoly.var(nv, 0, -top - 1)
    pairs = [((edge, t), (-edge, t)), ((low, t.bar()), (low.scale(-1), t.bar()))]
    if nv > 1:  # each exponent in range, the total degree past it
        t2 = LaurentPoly.var(nv, 1)
        pairs.append(((edge, t2), (-edge, t2)))
    for (a, b), (c, e) in pairs:
        with pytest.raises(ExponentRangeError):
            algebra._dot([(a, b), (c, e)], nv)
        acc = algebra._fma(algebra._fma({}, a.terms, b.terms, zero), a.terms, b.terms, zero, -1)
        assert acc and not any(acc.values())
        with pytest.raises(ExponentRangeError):
            algebra._finished(acc, nv)
    # at the edge itself the same cancellation is fine
    assert algebra._dot([(edge, one), (-edge, one)], nv).is_zero()
    assert algebra._dot([(low, one), (-low, one)], nv).is_zero()
    assert (edge * one).sorted_terms() == [((top, *zeros), 1)]


def _collapse_by_unpacking(p):
    """collapse_vars as it was: unpack every key, sum its exponents, pack."""
    out = {}
    for e, c in p.sorted_terms():
        out[(sum(e),)] = out.get((sum(e),), 0) + c
    return LaurentPoly(1, out)


@pytest.mark.parametrize("nv", range(0, 6))
def test_collapse_reads_the_total_degree_field(nv):
    rng = random.Random(6000 + nv)
    for kind in ("int", "big", "fraction"):
        for _ in range(30):
            p = _pair(rng, nv, kind)[0] if nv else LaurentPoly.const(0, _coefficient(rng, kind))
            got, want = p.collapse_vars(), _collapse_by_unpacking(p)
            assert got.num_vars == 1 and got.terms == want.terms
            assert [type(c) for c in got.terms.values()] == [type(want.terms[k]) for k in got.terms]
    if nv:
        top, zeros = algebra._layout(nv)[1] - 1, (0,) * (nv - 1)
        for exps in ((top, *zeros), (-top - 1, *zeros)):
            p = LaurentPoly(nv, {exps: Fraction(1, 2)})
            assert p.collapse_vars() == LaurentPoly(1, {(exps[0],): Fraction(1, 2)})
    if nv > 1:  # two halves of one total degree collapse to the int 1
        p = LaurentPoly(nv, {(1, *zeros): Fraction(1, 2), (0, 1, *zeros[1:]): Fraction(1, 2)})
        ((key, c),) = p.collapse_vars().terms.items()
        assert key == algebra._pack((1,), 1) and type(c) is int and c == 1
