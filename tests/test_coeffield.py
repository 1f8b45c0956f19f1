"""Exact arithmetic and linear algebra over Q(alpha)."""

import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest

from jetsym import coeffield
from jetsym.coeffield import (NEG_INF, AlphaPoly, RationalFunction, rf, sparse_nullspace,
                              sparse_rref)
from jetsym.errors import CrossCheckFailed, DivisionByZero, PoleAtParameter

from conftest import random_alpha_poly, random_fraction, random_nonzero_rf, random_rf

ALPHA = RationalFunction.param()
S_POLY = AlphaPoly((-1, 2))  # 2*alpha - 1
S = RationalFunction(S_POLY)


def reference_gcd(a, b):
    """Monic gcd by Euclid over Fraction, the algorithm gcd replaced."""
    while not b.is_zero:
        a, b = b, AlphaPoly(_ref_divmod(a.coeffs, b.coeffs)[1])
    return a.monic()


def random_factor(rng):
    """Zero, a nonzero constant, a power of 2*alpha - 1, or a random poly."""
    kind = rng.randrange(5)
    if kind == 0:
        return AlphaPoly()
    if kind == 1:
        return AlphaPoly((random_fraction(rng) or 1,))
    if kind == 2:
        p = S_POLY
        for _ in range(rng.randint(1, 4) - 1):
            p = p * S_POLY
        return p
    return random_alpha_poly(rng, 3)


def random_root(rng):
    """n/d with d up to 7, of either sign; zero and 1/2 are drawn often."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(1, 2)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def random_content(rng):
    """A nonzero rational of either sign, for a non-monic, non-primitive poly."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 5))


def power_of_linear(r, k):
    """(alpha - r)^k."""
    p = AlphaPoly((1,))
    for _ in range(k):
        p = p * AlphaPoly((-r, 1))
    return p


def cofactor(rng, r, min_degree=0):
    """A poly of degree min_degree to 3 that does not vanish at r."""
    while True:
        q = random_alpha_poly(rng, 3)
        if q.degree >= min_degree and q.eval(r):
            return q


def random_canonical(rng):
    """Canonical element whose denominator shares factors with others."""
    pool = (S_POLY, AlphaPoly((1, 1)), AlphaPoly((-2, 3)), AlphaPoly((0, 1)))
    num = random_alpha_poly(rng, 3)
    if num.is_zero:
        num = AlphaPoly((1,))
    den = AlphaPoly((random_fraction(rng) or 1,))
    for _ in range(rng.randint(0, 3)):
        den = den * rng.choice(pool)
    return RationalFunction(num, den)


def assert_canonical(p):
    """int numerators with a nonzero last entry over a positive int
    denominator that shares no factor with all of them."""
    assert type(p.ints) is tuple and all(type(c) is int for c in p.ints)
    assert not p.ints or p.ints[-1] != 0
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.ints) == 1


class TestAlphaPoly:
    def test_zero_degree_sentinel(self):
        assert AlphaPoly().degree == NEG_INF
        assert AlphaPoly((0, 0)).degree == NEG_INF
        assert NEG_INF < 0

    def test_leading_normalization(self):
        p = AlphaPoly((1, 2, 0))
        assert p.degree == 1 and p.coeffs[-1] == 2

    def test_floordiv_exact(self):
        p = AlphaPoly((-1, 0, 4))  # 4a^2 - 1
        d = AlphaPoly((-1, 2))     # 2a - 1
        assert p // d == AlphaPoly((1, 2))  # 2a + 1

    def test_floordiv_remainder_raises(self):
        with pytest.raises(CrossCheckFailed):
            AlphaPoly((1, 1, 1)) // AlphaPoly((0, 1))
        with pytest.raises(CrossCheckFailed):
            AlphaPoly((1,)) // AlphaPoly((0, 1))  # degree below the divisor's

    def test_floordiv_by_zero(self):
        with pytest.raises(DivisionByZero):
            AlphaPoly((1, 1)) // AlphaPoly()
        with pytest.raises(DivisionByZero):
            AlphaPoly() // AlphaPoly()

    def test_exact_quotient_of_product(self, monkeypatch):
        """(p * q) // q == p in canonical form, for q a constant, a power of
        2*alpha - 1, or a poly whose gcd with p goes through Euclid; and
        0 // q == 0."""
        calls = []
        remainder = coeffield._pseudo_remainder
        monkeypatch.setattr(coeffield, "_pseudo_remainder",
                            lambda a, b: calls.append(1) or remainder(a, b))
        rng = random.Random(53)
        euclid = 0
        for k in range(300):
            kind = k % 3
            if kind == 0:
                q = AlphaPoly((1,))
            elif kind == 1:
                q = power_of_linear(Fraction(1, 2), rng.randint(1, 5))
            else:
                q = cofactor(rng, Fraction(1, 2), 2)
            q = q.scale(random_content(rng))
            p = random_alpha_poly(rng, 4)
            got = (p * q) // q
            assert_canonical(got)
            assert got == p
            zero = AlphaPoly() // q
            assert_canonical(zero)
            assert zero == AlphaPoly()
            if kind == 2:
                calls.clear()
                p.gcd(q)
                euclid += bool(calls)
        assert euclid > 50

    def test_gcd_monic(self):
        p = AlphaPoly((-1, 2)) * AlphaPoly((3, 1))
        q = AlphaPoly((-1, 2)) * AlphaPoly((5, 2))
        g = p.gcd(q)
        assert g == AlphaPoly((Fraction(-1, 2), 1))  # monic alpha - 1/2

    def test_gcd_matches_fraction_euclid(self):
        rng = random.Random(23)
        nontrivial = 0
        for _ in range(2500):
            common = random_factor(rng)
            a = common * random_factor(rng)
            b = common * random_factor(rng)
            g = reference_gcd(a, b)
            assert a.gcd(b).coeffs == g.coeffs
            assert b.gcd(a).coeffs == g.coeffs
            nontrivial += g.degree > 0
        assert nontrivial > 500

    def test_gcd_power_of_linear(self):
        """c*(d*alpha - n)^k against a multiple (alpha - n/d)^m * q, q(n/d) != 0,
        whose gcd is (alpha - n/d)^min(k, m), in both argument orders."""
        rng = random.Random(131)
        for _ in range(600):
            r = random_root(rng)
            k = rng.randint(1, 6)
            m = rng.randint(0, k + 2)
            p = power_of_linear(r, k).scale(random_content(rng))
            other = power_of_linear(r, m) * cofactor(rng, r)
            g = power_of_linear(r, min(k, m))
            assert reference_gcd(p, other) == g
            assert p.gcd(other) == g
            assert other.gcd(p) == g

    def test_gcd_near_power_of_linear_runs_euclid(self, monkeypatch):
        """(alpha - r)^k + c and (alpha - r)^k * (alpha - s) are not of the
        power-of-linear shape: gcd agrees with the reference through Euclid."""
        calls = []
        remainder = coeffield._pseudo_remainder
        monkeypatch.setattr(coeffield, "_pseudo_remainder",
                            lambda a, b: calls.append(1) or remainder(a, b))
        rng = random.Random(137)
        for _ in range(400):
            r = random_root(rng)
            k = rng.randint(2, 6)
            power = power_of_linear(r, k)
            if rng.randrange(2):
                s = r
                while s == r:
                    s = random_root(rng)
                near = power * power_of_linear(s, 1)
            else:
                near = power + AlphaPoly((random_content(rng),))
            near = near.scale(random_content(rng))
            # two distinct roots, so this one is not of the shape either
            other = power_of_linear(r, rng.randint(1, k + 2)) * cofactor(rng, r, 1)
            for a, b in ((near, other), (other, near)):
                calls.clear()
                assert a.gcd(b) == reference_gcd(a, b)
                assert calls

    def test_text(self):
        assert AlphaPoly((-1, 2)).text() == "2*alpha - 1"
        assert AlphaPoly((1, 0, -3)).text() == "-3*alpha^2 + 1"
        assert AlphaPoly().text() == "0"


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    """Long division of Fraction lists, the schoolbook way."""
    rem = list(a)
    if len(rem) < len(b):
        return (), _trim(rem)
    quo = [Fraction(0)] * (len(rem) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        q = rem[i + len(b) - 1] / b[-1]
        quo[i] = q
        for j, y in enumerate(b):
            rem[i + j] -= q * y
    return _trim(quo), _trim(rem)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def _ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _random_coeffs(rng, degree, dens):
    """degree + 1 rationals of up to 18-bit numerators over dens, some 0."""
    return [Fraction(0) if rng.random() < 0.15 else
            Fraction(rng.randint(-2 ** 18, 2 ** 18), rng.choice(dens))
            for _ in range(degree + 1)]


class TestAgainstFractionLists:
    """AlphaPoly arithmetic on ints against the same operations on lists of
    Fractions, on mixed and on power-of-2 denominators."""

    DENS = ((1, 2, 3, 5, 6, 7, 12), (1, 2, 4, 8, 16))

    def test_operations_match(self):
        rng = random.Random(241)
        checked = 0
        nontrivial_gcds = 0
        for trial in range(1200):
            dens = self.DENS[trial % 2]
            da, db = (4, 3) if trial % 3 == 0 else (rng.randint(0, 4), rng.randint(0, 4))
            a = _trim(_random_coeffs(rng, da, dens))
            b = _trim(_random_coeffs(rng, db, dens))
            common = _trim(_random_coeffs(rng, rng.randint(1, 2), dens))
            p, q = AlphaPoly(a), AlphaPoly(b)
            assert p.coeffs == a and q.coeffs == b
            assert_canonical(p)
            q_frac = Fraction(rng.randint(-40, 40), rng.choice(dens))
            x = Fraction(rng.randint(-9, 9), rng.choice(dens))
            cases = [
                (p + q, _trim(u + v for u, v in zip_longest(a, b, fillvalue=0))),
                (p * q, _ref_mul(a, b)),
                (-p, tuple(-c for c in a)),
                (p.scale(q_frac), _trim(q_frac * c for c in a)),
                (p.scale(3), _trim(3 * c for c in a)),
                (p.monic(), tuple(c / a[-1] for c in a) if a else ()),
            ]
            if b:
                want_quo, want_rem = _ref_divmod(a, b)
                cases.append(((p * q) // q, a))
                if want_rem:
                    with pytest.raises(CrossCheckFailed):
                        p // q
                else:
                    cases.append((p // q, want_quo))
            pc, qc = AlphaPoly(_ref_mul(a, common)), AlphaPoly(_ref_mul(b, common))
            if common:
                cases.append((pc // AlphaPoly(common), a))
            if a or b:
                g = _ref_gcd(_ref_mul(a, common), _ref_mul(b, common))
                cases += [(pc.gcd(qc), g), (qc.gcd(pc), g)]
                nontrivial_gcds += len(g) > 1
            for got, want in cases:
                assert_canonical(got)
                assert got.coeffs == want
                checked += 1
            assert p.eval(x) == _ref_eval(a, x)
            assert p.eval(3) == _ref_eval(a, 3)
            if a:
                r = p.int_scale()
                scaled = [r * c for c in a]
                assert all(c.denominator == 1 for c in scaled)
                assert gcd(*(c.numerator for c in scaled)) == 1 and scaled[-1] > 0
        assert checked > 10000 and nontrivial_gcds > 500


class TestRationalFunctionArithmetic:
    def test_add_one_and_alpha(self):
        assert (rf(1) + ALPHA) == RationalFunction(AlphaPoly((1, 1)))

    def test_self_division(self):
        assert S * S.inverse() == rf(1)

    def test_m21_leading_coefficient(self):
        got = S.inverse() * (ALPHA * rf(2))
        assert got == RationalFunction(AlphaPoly((0, 2)), AlphaPoly((-1, 2)))
        assert got.text() == "(2*alpha)/(2*alpha - 1)"

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            rf(0).inverse()

    def test_canonical_monic_denominator(self):
        x = RationalFunction(AlphaPoly((1,)), AlphaPoly((-1, 2)))
        assert x.den.coeffs[-1] == 1
        assert x.num == AlphaPoly((Fraction(1, 2),))

    def test_eval(self):
        two_a_over_s = ALPHA * rf(2) * S.inverse()
        assert two_a_over_s.eval(0) == 0
        with pytest.raises(PoleAtParameter) as exc:
            S.inverse().eval(Fraction(1, 2))
        assert "2*alpha - 1" in str(exc.value)
        k2_lead = rf(-1) * S.inverse()
        assert k2_lead.eval(1) == -1

    def test_canonicalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            x = random_rf(rng, rational=True)
            y = RationalFunction(x.num, x.den)
            assert x == y
            assert x.num.coeffs == y.num.coeffs and x.den.coeffs == y.den.coeffs

    def test_product_and_sum_are_canonical(self):
        # arithmetic builds its results through the trusted AlphaPoly._of,
        # so it must hand over the canonical form itself

        rng = random.Random(29)
        reduced_sums = 0
        for _ in range(600):
            x = random_canonical(rng)
            y = random_canonical(rng)
            if rng.random() < 0.3:
                y = y - x  # so that x + y cancels part of the denominator
            zero = rf(0)
            cases = [
                (x * y, RationalFunction(x.num * y.num, x.den * y.den)),
                (x + y, RationalFunction(x.num * y.den + y.num * x.den, x.den * y.den)),
                (-x, RationalFunction(AlphaPoly(-c for c in x.num.coeffs), x.den)),
                # zero operands of binary + and - and of unary -
                (x + zero, RationalFunction(x.num, x.den)),
                (zero + y, RationalFunction(y.num, y.den)),
                (x - zero, RationalFunction(x.num, x.den)),
                (zero - y, RationalFunction(-y.num, y.den)),
                (-zero, RationalFunction(AlphaPoly(), AlphaPoly((1,))))]
            if not x.is_zero:
                cases.append((x.inverse(), RationalFunction(x.den, x.num)))
            for got, want in cases:
                assert_canonical(got.num)
                assert_canonical(got.den)
                assert got.num.coeffs == want.num.coeffs
                assert got.den.coeffs == want.den.coeffs
            p, q = x.num, y.num
            # same degree as p, opposite leading coefficient: p + m cancels
            m = AlphaPoly((1,) * (len(p.coeffs) - 1) + (-p.coeffs[-1],))
            product = [0] * (len(p.coeffs) + len(q.coeffs))
            for i, a in enumerate(p.coeffs):
                for j, b in enumerate(q.coeffs):
                    product[i + j] += a * b
            for got, want in (
                    (-p, [-c for c in p.coeffs]),
                    (p + q, [a + b for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0)]),
                    (p + m, [a + b for a, b in zip(p.coeffs, m.coeffs)]),
                    (p * q, product),
                    (p.scale(Fraction(-3, 4)), [Fraction(-3, 4) * c for c in p.coeffs]),
                    (p.scale(Fraction(0)), [])):
                assert_canonical(got)
                assert got == AlphaPoly(want)
            quo = (p * y.den) // y.den
            assert_canonical(quo)
            assert quo == p
            common = reference_gcd(x.den, y.den)
            lcm_degree = x.den.degree + y.den.degree - common.degree
            reduced_sums += (x + y).den.degree < lcm_degree
        assert reduced_sums > 20

    def test_product_with_constant_factor(self):
        """A constant factor scales the numerator: the product equals the
        reduced quotient of the plain products and is canonical, for x over
        powers of 2*alpha - 1 and over general denominators, in both
        orders."""
        rng = random.Random(31)
        constants = [rf(1), rf(-1), rf(Fraction(3, 7)),
                     RationalFunction(AlphaPoly((Fraction(-12, 5),)))]
        for k in range(60):
            if k % 2:
                x = random_canonical(rng)
            else:
                x = RationalFunction(random_alpha_poly(rng, 3),
                                     power_of_linear(Fraction(1, 2), rng.randint(0, 6)))
            for q in constants + [rf(random_fraction(rng) or 1)]:
                want = RationalFunction(x.num * q.num, x.den * q.den)
                for got in (x * q, q * x):
                    assert got == want
                    assert_canonical(got.num)
                    assert_canonical(got.den)


    def test_sum_over_equal_denominators(self):
        """A sum over one denominator equals the constructor's reduced
        quotient: when it cancels a factor of the denominator, when it
        cancels to zero, and always with a monic denominator."""
        rng = random.Random(37)
        cancelled = zeros = 0
        for k in range(300):
            r = random_root(rng)
            den = power_of_linear(r, rng.randint(1, 4))
            if k % 3 == 0:
                den = den * AlphaPoly((1, 0, 1))  # alpha^2 + 1
            den = den.scale(random_content(rng))
            x = RationalFunction(cofactor(rng, r), den)
            kind = k % 4
            if kind == 0:
                y = -x
            elif kind == 1:
                # x + y = b (alpha - r) / den cancels one factor alpha - r
                b = cofactor(rng, r)
                y = RationalFunction(b * AlphaPoly((-r, 1)) + -x.num, x.den)
            else:
                y = RationalFunction(random_alpha_poly(rng, 3), x.den)
            if y.den != x.den:
                continue
            got = x + y
            want = RationalFunction(x.num + y.num, x.den)
            assert got == want
            assert_canonical(got.num)
            assert_canonical(got.den)
            assert got.den.ints[-1] == got.den.den
            zeros += got.is_zero
            cancelled += not got.is_zero and got.den.degree < x.den.degree
        assert zeros >= 50 and cancelled >= 50


class TestClearDenominators:
    @staticmethod
    def reference(coeffs):
        """One gcd and one exact division per coefficient, as the scale
        was first computed."""
        den = AlphaPoly((1,))
        for c in coeffs:
            if c.den.degree > 0:
                den = den * (c.den // den.gcd(c.den))
        nums = [c.num * (den // c.den) if den.degree > 0 else c.num for c in coeffs]
        ints = 1
        for p in nums:
            ints = ints * p.den // gcd(ints, p.den)
        polys = [tuple(c * (ints // p.den) for c in p.ints) for p in nums]
        return RationalFunction(den.scale(Fraction(ints))), polys

    def test_matches_reference(self):
        rng = random.Random(41)
        pool = [AlphaPoly((1, 0, 1)),  # alpha^2 + 1, not a power of a linear factor
                AlphaPoly((1, 1, 1))]
        for _ in range(150):
            dens = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(4)
                if kind == 0:
                    dens.append(AlphaPoly((random_content(rng),)))
                elif kind == 1:
                    dens.append(power_of_linear(random_root(rng), rng.randint(1, 5)))
                elif kind == 2:
                    dens.append(rng.choice(pool))
                else:
                    dens.append(power_of_linear(Fraction(1, 2), rng.randint(1, 3))
                                * rng.choice(pool))
            coeffs = []
            for _ in range(rng.randint(0, 12)):
                num = random_alpha_poly(rng, 3)
                # repeated denominators, and constants of every kind
                den = rng.choice(dens) if rng.random() < 0.8 else AlphaPoly((1,))
                coeffs.append(RationalFunction(num, den))
            s, polys = coeffield.clear_denominators(coeffs)
            ref_s, ref_polys = self.reference(coeffs)
            assert s == ref_s and polys == ref_polys
            for c, p in zip(coeffs, polys):
                assert RationalFunction(AlphaPoly(p)) == s * c

    def test_one_division_per_distinct_denominator(self, monkeypatch):
        calls = []
        floordiv = AlphaPoly.__floordiv__
        monkeypatch.setattr(AlphaPoly, "__floordiv__",
                            lambda a, b: calls.append(b) or floordiv(a, b))
        s_poly = power_of_linear(Fraction(1, 2), 1)
        coeffs = [RationalFunction(AlphaPoly((k, 1)), power_of_linear(Fraction(1, 2), k % 3))
                  for k in range(1, 30)]
        coeffield.clear_denominators(coeffs)
        # two lcm steps (for (alpha - 1/2) and its square) and three quotients
        assert len(calls) == 5
        assert s_poly in calls


class TestDividingBy:
    def test_matches_product_with_inverse(self, monkeypatch):
        """p / s for an integer polynomial p, as the kernel reads it, and s a
        power of a linear factor, with rational content of either sign, and
        for other s, equals p * s^-1; the power case runs no gcd."""
        rng = random.Random(43)
        gcds = []
        gcd_of = AlphaPoly.gcd
        monkeypatch.setattr(AlphaPoly, "gcd", lambda a, b: gcds.append(1) or gcd_of(a, b))
        divided = 0
        for k in range(200):
            r = random_root(rng)
            e = rng.randint(1, 6)
            if k % 5 == 4:
                s = RationalFunction(power_of_linear(r, e) * AlphaPoly((1, 0, 1)))
            elif k % 5 == 3:
                s = RationalFunction(AlphaPoly((random_content(rng),)))
            else:
                s = RationalFunction(power_of_linear(r, e).scale(random_content(rng)))
            divide = coeffield.dividing_by(s)
            for _ in range(4):
                m = rng.randint(0, e + 1)
                p = power_of_linear(r, m) * (cofactor(rng, r) if rng.random() < 0.7
                                             else random_alpha_poly(rng, 3))
                ints = [c * rng.choice((1, -1, 2, -3, 12)) for c in p.ints]
                if not ints:
                    continue
                p = RationalFunction(AlphaPoly(ints))
                want = RationalFunction(p.num, s.num)
                inverse = s.inverse()
                del gcds[:]
                got = divide(ints)
                if s.num.degree > 0 and k % 5 != 4:
                    assert not gcds
                assert got == want == p * inverse
                assert_canonical(got.num)
                assert_canonical(got.den)
                divided += not got.is_zero and got.den.degree < s.num.degree
        assert divided > 100


class TestFieldAxioms:
    def test_field_axioms_random(self):
        rng = random.Random(11)
        for _ in range(150):
            a = random_rf(rng, rational=True)
            b = random_rf(rng, rational=True)
            c = random_rf(rng, rational=True)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a * a.inverse() == rf(1)

    def test_eval_is_homomorphism(self):
        rng = random.Random(13)
        pts = [Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-5, 7)]
        count = 0
        while count < 120:
            a = random_rf(rng, rational=True)
            b = random_rf(rng, rational=True)
            pt = rng.choice(pts)
            try:
                av, bv = a.eval(pt), b.eval(pt)
            except PoleAtParameter:
                continue
            assert (a * b).eval(pt) == av * bv
            assert (a + b).eval(pt) == av + bv
            count += 1


def rref_nullspace(rows, ncols):
    """sparse_rref with its invariants checked; returns the pivot columns
    and sparse_nullspace's basis as dense tuples, after checking that it
    annihilates every input row."""
    pivot_rows, pivot_cols = sparse_rref(rows, ncols)
    for prow, pcol in zip(pivot_rows, pivot_cols):
        assert prow[pcol] == rf(1)
        assert not any(c in prow for c in pivot_cols if c != pcol)
        assert not any(v.is_zero for v in prow.values())
    pivots, kernel = sparse_nullspace(rows, ncols)
    assert pivots == pivot_cols
    assert_annihilates(rows, kernel)
    return pivot_cols, [tuple(vec.get(c, rf(0)) for c in range(ncols)) for vec in kernel]


def assert_annihilates(rows, kernel):
    for vec in kernel:
        for row in rows:
            acc = rf(0)
            for c, v in row.items():
                if c in vec:
                    acc = acc + v * vec[c]
            assert acc.is_zero


def solve(a, b):
    """(particular, nullspace) of a x = b from the RREF of [a | b], or None
    when the augmented column is a pivot (the system is inconsistent)."""
    m = len(a[0])
    rows = [{j: v for j, v in enumerate(list(r) + [bi]) if not v.is_zero}
            for r, bi in zip(a, b)]
    pivot_cols, basis = rref_nullspace(rows, m + 1)
    if m in pivot_cols:
        return None
    augmented = basis.pop()  # the last free column is the augmented one: (-x, 1)
    return tuple(-v for v in augmented[:m]), tuple(vec[:m] for vec in basis)


class TestSolveLinear:
    """Linear systems solved through sparse_rref."""

    def test_identity(self):
        a = [[rf(1), rf(0)], [rf(0), rf(1)]]
        assert solve(a, [ALPHA, rf(1)]) == ((ALPHA, rf(1)), ())

    def test_field_has_no_zero_divisors(self):
        assert solve([[S]], [rf(0)]) == ((rf(0),), ())

    def test_rank_one_nullspace(self):
        a = [[rf(1), ALPHA], [rf(2), rf(2) * ALPHA]]
        _, nullspace = solve(a, [rf(0), rf(0)])
        assert nullspace == ((-ALPHA, rf(1)),)

    def test_inconsistent_is_reported(self):
        assert solve([[rf(1)], [rf(1)]], [rf(0), rf(1)]) is None

    def test_solution_properties_random(self):
        rng = random.Random(17)
        consistent = 0
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 4)
            a = [[random_rf(rng) for _ in range(m)] for _ in range(n)]
            b = [random_rf(rng) for _ in range(n)]
            sol = solve(a, b)
            if sol is not None:
                consistent += 1
                for i in range(n):
                    acc = rf(0)
                    for j in range(m):
                        acc = acc + a[i][j] * sol[0][j]
                    assert acc == b[i]
        assert consistent > 0


class TestSparseNullspace:
    @pytest.mark.parametrize("rows, ncols, pivots, kernel", [
        ([], 0, [], []),
        ([], 1, [], [{0: rf(1)}]),
        ([{0: S}], 1, [0], []),
        ([{0: S}, {0: rf(3)}], 1, [0], []),
        ([{1: ALPHA}, {1: ALPHA}], 2, [1], [{0: rf(1)}]),
    ], ids=["no-columns", "no-rows", "one-pivot", "rank-one", "duplicate-rows"])
    def test_small_cases(self, rows, ncols, pivots, kernel):
        assert sparse_nullspace(rows, ncols) == (pivots, kernel)

    def test_kernel_properties_random(self):
        rng = random.Random(23)
        ranks = set()
        for _ in range(80):
            ncols = rng.randint(0, 6)
            rows = []
            for _ in range(rng.randint(0, 5) if ncols else 0):
                cols = rng.sample(range(ncols), rng.randint(1, ncols))
                rows.append({c: random_nonzero_rf(rng) for c in cols})
            if rows and rng.random() < 0.5:  # a duplicate, or a multiple
                row = rng.choice(rows)
                scale = rf(1) if rng.random() < 0.5 else random_nonzero_rf(rng)
                rows.append({c: v * scale for c, v in row.items()})
            pivots, kernel = sparse_nullspace(rows, ncols)
            assert len(pivots) + len(kernel) == ncols
            free = [c for c in range(ncols) if c not in pivots]
            for f, vec in zip(free, kernel):
                assert vec[f] == rf(1)
                assert all(c == f or (c < f and c in pivots) for c in vec)
                assert not any(v.is_zero for v in vec.values())
            assert_annihilates(rows, kernel)
            ranks.add((len(pivots), len(kernel)))
        assert len(ranks) >= 10


def dense_rref(rows, ncols):
    """(pivot_rows, pivot_cols) by dense Gauss-Jordan in column order, with
    no presolve: the reference for sparse_rref."""
    mat = [[row.get(c, rf(0)) for c in range(ncols)] for row in rows]
    pivot_cols = []
    for col in range(ncols):
        rank = len(pivot_cols)
        pick = next((i for i in range(rank, len(mat)) if not mat[i][col].is_zero), None)
        if pick is None:
            continue
        mat[rank], mat[pick] = mat[pick], mat[rank]
        inv = mat[rank][col].inverse()
        top = mat[rank] = [v * inv for v in mat[rank]]
        for i, row in enumerate(mat):
            factor = row[col]
            if i != rank and not factor.is_zero:
                mat[i] = [a - factor * b for a, b in zip(row, top)]
        pivot_cols.append(col)
    return ([{c: v for c, v in enumerate(row) if not v.is_zero} for row in mat[:len(pivot_cols)]],
            pivot_cols)


def presolve_rounds(rows):
    """The rounds in which rows of one entry zero their columns."""
    rows, rounds = [set(r) for r in rows], 0
    while single := {c for r in rows if len(r) == 1 for c in r}:
        rows = [r - single for r in rows]
        rounds += 1
    return rounds


def random_entry(rng):
    """A nonzero constant or a nonzero rational function of alpha."""
    if rng.random() < 0.5:
        return rf(random_fraction(rng) or 1)
    return random_nonzero_rf(rng, rational=True)


def singleton_chain(rng, cols):
    """Rows {c1}, {c1, c2}, ..., {c_(k-1), c_k} over the columns cols: the
    presolve zeroes one more column of them each round."""
    rows = [{cols[0]: random_entry(rng)}]
    rows += [{a: random_entry(rng), b: random_entry(rng)} for a, b in zip(cols, cols[1:])]
    return rows


def random_system(rng):
    """Random sparse rows: symbolic and constant entries, duplicate and
    scaled rows, empty rows, and now and then a singleton chain."""
    ncols = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(0, 6)):
        cols = rng.sample(range(ncols), rng.randint(1, ncols))
        rows.append({c: random_entry(rng) for c in cols})
    if ncols >= 2 and rng.random() < 0.6:
        rows += singleton_chain(rng, rng.sample(range(ncols), rng.randint(2, ncols)))
    if rows and rng.random() < 0.4:  # a duplicate, or a multiple
        row = rng.choice(rows)
        scale = rf(1) if rng.random() < 0.5 else random_entry(rng)
        rows.append({c: v * scale for c, v in row.items()})
    if rng.random() < 0.3:
        rows.append({})
    rng.shuffle(rows)
    return rows, ncols


class TestSparseRref:
    def test_matches_dense_gauss_jordan(self):
        rng = random.Random(241)
        rounds, ranks = {}, set()
        for _ in range(300):
            rows, ncols = random_system(rng)
            want = dense_rref(rows, ncols)
            assert sparse_rref(rows, ncols) == want
            k = presolve_rounds(rows)
            rounds[k] = rounds.get(k, 0) + 1
            ranks.add((ncols, len(want[1])))
        assert rounds.get(0, 0) >= 30 and sum(n for k, n in rounds.items() if k >= 2) >= 100
        assert len(ranks) >= 30

    def test_mutates_nothing(self):
        rng = random.Random(242)
        for _ in range(50):
            rows, ncols = random_system(rng)
            copies = [dict(r) for r in rows]
            sparse_rref(rows, ncols)
            assert rows == copies

    def test_explicit_zeros_are_dropped(self):
        assert sparse_rref([{0: rf(0)}], 1) == ([], [])
        assert sparse_rref([{0: rf(0), 1: ALPHA}, {0: ALPHA, 1: S}], 2) == \
            ([{0: rf(1)}, {1: rf(1)}], [0, 1])
        rng = random.Random(243)
        for _ in range(150):
            rows, ncols = random_system(rng)
            padded = [dict(r) for r in rows] + [{rng.randrange(ncols): rf(0)}]
            for row in padded:
                for c in rng.sample(range(ncols), rng.randint(0, ncols)):
                    row.setdefault(c, rf(0))
            assert sparse_rref(padded, ncols) == sparse_rref(rows, ncols) == \
                dense_rref(rows, ncols)

    def test_singleton_chains_run_no_field_arithmetic(self, monkeypatch):
        rng = random.Random(244)
        cols = list(range(12))
        rng.shuffle(cols)
        rows = singleton_chain(rng, cols[:5]) + singleton_chain(rng, cols[5:9]) + [{cols[9]: ALPHA}]
        rng.shuffle(rows)
        assert presolve_rounds(rows) == 5
        calls = []
        for name in ("__mul__", "__add__", "__neg__", "inverse"):
            method = getattr(RationalFunction, name)

            def spy(*args, _name=name, _method=method):
                calls.append(_name)
                return _method(*args)
            monkeypatch.setattr(RationalFunction, name, spy)
        pivot_rows, pivot_cols = sparse_rref(rows, 12)
        assert calls == []
        assert pivot_cols == sorted(cols[:10])
        assert pivot_rows == [{c: rf(1)} for c in pivot_cols]


class TestSerialization:
    def test_json_round_trip(self):
        rng = random.Random(19)
        for _ in range(100):
            x = random_rf(rng, rational=True)
            assert RationalFunction.from_json(x.to_json()) == x

    def test_decimal_strings(self):
        x = rf(Fraction(10**40, 3))
        data = x.to_json()
        assert data["num"] == [f"{10**40}/3"]
        assert RationalFunction.from_json(data) == x
