"""Exact arithmetic in Q and Q(parameter), plus exact linear algebra.

The coefficient field everywhere is the field of univariate rational
functions in a single formal parameter over Q.  Values are immutable and
kept fully reduced: gcd(num, den) = 1 and den monic, so equal field
elements have identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable

from .errors import CrossCheckFailed, DivisionByZero, NumberTooLong, PoleAtParameter

#: degree of the zero polynomial; compares below every integer degree
NEG_INF = float("-inf")


def _as_rational(value):
    """An int or a Fraction; a string is parsed once, by int() if it can."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return parse_rational(value)
    raise TypeError(f"cannot coerce {value!r} to a rational number")


def parse_rational(text: str) -> Fraction:
    """The rational that text spells as ``p``, ``p/q`` or a decimal.

    An exponent is refused: ``1e999999999`` would make Fraction build an
    integer of unbounded size past Python's limit on parsed digits.
    """
    if "e" in text or "E" in text:
        raise ValueError("an exponent is not accepted")
    return Fraction(text)


def rational_text(q: Fraction) -> str:
    """str(q), or NumberTooLong past Python's limit on printed digits."""
    return _ratio_text(q.numerator, q.denominator)


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for coprime n and d > 0, or NumberTooLong."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        bits = max(abs(n), d).bit_length()
        raise NumberTooLong(f"a number of {bits} bits is too long to print") from None


class AlphaPoly:
    """Polynomial in the parameter with rational coefficients.

    Stored as ``ints``, integer numerators in ascending degree with a
    nonzero last entry, over ``den``, one positive integer denominator, in
    canonical form gcd(den, *ints) = 1; zero is ((), 1).  Equal
    polynomials therefore have equal fields, and no arithmetic runs on
    Fractions.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # the lcm of reduced denominators shares no prime with every numerator
        den = lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "ints",
                           tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    @staticmethod
    def _of(ints: tuple, den: int = 1) -> "AlphaPoly":
        """Trusted constructor: canonical ints and den."""
        p = object.__new__(AlphaPoly)
        object.__setattr__(p, "ints", ints)
        object.__setattr__(p, "den", den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("AlphaPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first: a read-only
        view for display and inspection, which no arithmetic reads."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.ints)

    @property
    def degree(self):
        return len(self.ints) - 1 if self.ints else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        return (isinstance(other, AlphaPoly)
                and self.ints == other.ints and self.den == other.den)

    def __hash__(self):
        return hash((self.ints, self.den))

    def __neg__(self):
        return AlphaPoly._of(tuple(-c for c in self.ints), self.den)

    def __add__(self, other):
        a, b = self.ints, other.ints
        da, db = self.den, other.den
        if da == db:
            den = da
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            if ma != 1:
                a = [ma * c for c in a]
            if mb != 1:
                b = [mb * c for c in b]
            den = da * ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        # the leading terms of a sum can cancel; a product's cannot
        while out and not out[-1]:
            out.pop()
        if not out:
            return _APOLY_ZERO
        return _canonical(out, den)

    def __mul__(self, other):
        a, b = self.ints, other.ints
        if not a or not b:
            return _APOLY_ZERO
        if len(a) == 1:
            c = a[0]
            out = [c * x for x in b]
        elif len(b) == 1:
            c = b[0]
            out = [c * x for x in a]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
        return _canonical(out, self.den * other.den)

    def scale(self, q) -> "AlphaPoly":
        """q * self for a rational (Fraction or int) q."""
        if not q or not self.ints:
            return _APOLY_ZERO
        n = q.numerator
        return _canonical([n * c for c in self.ints], self.den * q.denominator)

    def monic(self) -> "AlphaPoly":
        if not self.ints:
            return self
        return _monic_ints(self.ints)

    def __floordiv__(self, other):
        """The exact quotient self / other.

        Every caller divides by a gcd or by a factor of an lcm, so a
        nonzero remainder is a package defect and raises CrossCheckFailed.
        """
        if not other.ints:
            raise DivisionByZero("polynomial division by zero")
        quo, rem, s = _pseudo_divmod(self.ints, other.ints)
        if rem:
            raise CrossCheckFailed("polynomial division leaves a remainder")
        # s * self.ints = quo * other.ints, with s > 0; a zero self gives
        # quo = [] over den 1, the canonical zero
        return _canonical([other.den * c for c in quo], s * self.den)

    def gcd(self, other: "AlphaPoly") -> "AlphaPoly":
        """Monic gcd, by a closed form when ``other`` is c*(d*alpha - n)^k.

        That shape is read off in O(k) integer operations: n/d is
        -ints[k-1] / (k*ints[k]) in lowest terms with d > 0, and the
        coefficients must satisfy ints[i-1]*(k-i+1)*d == -n*i*ints[i] for
        i = 1..k, the ratio of consecutive binomial terms.  The gcd is then
        (alpha - n/d)^j, j <= k the multiplicity of d*alpha - n in
        ``self``.  Since gcd(n, d) = 1, d*alpha - n is primitive, so
        by Gauss's lemma it divides an integer polynomial over Q exactly
        when it divides it over Z: j is found by exact integer division.
        Only ``other`` is tried: it is the denominator in the canonical
        form and in products.

        Any other pair runs Euclid on primitive integer coefficient lists:
        each pseudo-remainder is cut to its primitive part (Brown 1971), so
        no rational arithmetic runs inside the loop.
        """
        a, b = self.ints, other.ints
        if len(a) == 1 or len(b) == 1:
            return _APOLY_ONE
        if not b:
            return self.monic()
        if not a:
            return other.monic()
        root = _linear_power_root(b)
        if root is not None:
            return _monic_root_power(*root, _root_divide(a, *root, len(b) - 1)[0])
        a, b = _content_free(a), _content_free(b)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            r = _pseudo_remainder(a, b)
            if not r:
                return _monic_ints(b)
            a, b = b, _content_free(r)
        return _APOLY_ONE

    def eval(self, value: Fraction) -> Fraction:
        # homogeneous Horner: sum ints[i] n^i d^(k-i) over d^k den
        ints = self.ints
        if not ints:
            return Fraction(0)
        n, d = value.numerator, value.denominator
        acc, dk = ints[-1], 1
        for c in reversed(ints[:-1]):
            dk *= d
            acc = acc * n + c * dk
        return Fraction(acc, self.den * dk)

    def int_scale(self) -> Fraction:
        """Rational r such that r * self has coprime integer coefficients
        and a positive leading coefficient."""
        if not self.ints:
            return Fraction(1)
        r = Fraction(self.den, gcd(*self.ints))
        return -r if self.ints[-1] < 0 else r

    def text(self, param: str = "alpha") -> str:
        """Human form, descending degree, e.g. ``2*alpha - 1``."""
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for deg in range(len(coeffs) - 1, -1, -1):
            c = coeffs[deg]
            if c == 0:
                continue
            mag = rational_text(abs(c))
            if deg == 0:
                body = mag
            else:
                head = "" if mag == "1" else f"{mag}*"
                body = f"{head}{param}" if deg == 1 else f"{head}{param}^{deg}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"AlphaPoly({self.text()})"


def _canonical(ints: list, den: int) -> AlphaPoly:
    """ints over den > 0 in canonical form; ints has a nonzero last entry."""
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            return AlphaPoly._of(tuple(c // g for c in ints), den // g)
    return AlphaPoly._of(tuple(ints), den)


def _monic_ints(ints) -> AlphaPoly:
    """The monic multiple of the nonzero integer polynomial ints."""
    lead = ints[-1]
    if lead < 0:
        return _canonical([-c for c in ints], -lead)
    return _canonical(ints, lead)


def _linear_power_root(ints):
    """(n, d) with ints = c*(d*alpha - n)^k, gcd(n, d) = 1 and d > 0, else None.

    k = len(ints) - 1 >= 1.  n/d is fixed by the top two coefficients, so
    the check at i = k holds by construction and only i < k is tested.
    """
    k = len(ints) - 1
    lead = k * ints[k]
    g = gcd(ints[k - 1], lead)
    n, d = -ints[k - 1] // g, lead // g
    if d < 0:
        n, d = -n, -d
    for i in range(k - 1, 0, -1):
        if ints[i - 1] * (k - i + 1) * d != -n * i * ints[i]:
            return None
    return n, d


def _root_divide(a, n: int, d: int, k: int):
    """(j, q) with a = (d*alpha - n)^j q, j <= k as large as it can be.

    a is a nonzero integer polynomial.  Each step divides it by
    d*alpha - n from the top, q[i-1] = (a[i] + n*q[i]) / d, and stops at
    the first inexact division or nonzero remainder a[0] + n*q[0].
    """
    j = 0
    while j < k:
        q = [0] * (len(a) - 1)
        r = 0
        for i in range(len(a) - 1, 0, -1):
            r, rem = divmod(a[i] + n * r, d)
            if rem:
                break
            q[i - 1] = r
        else:
            if a[0] + n * r == 0:
                a = q
                j += 1
                continue
        break
    return j, a


def _monic_root_power(n: int, d: int, j: int) -> AlphaPoly:
    """(alpha - n/d)^j for coprime n and d > 0."""
    if not j:
        return _APOLY_ONE
    # (d*alpha - n)^j over d^j: lead d^j and constant (-n)^j are coprime,
    # so this is the canonical form
    return AlphaPoly._of(tuple(comb(j, i) * d ** i * (-n) ** (j - i) for i in range(j + 1)),
                         d ** j)


def _content_free(ints) -> list:
    g = gcd(*ints)
    return ints if g == 1 else [c // g for c in ints]


def _pseudo_remainder(a, b) -> list:
    """Remainder of a by b over Z, up to a nonzero integer factor; deg a >=
    deg b >= 1.  Euclid's one step, kept by name so that it can be counted."""
    return _pseudo_divmod(a, b)[1]


def _pseudo_divmod(a, b):
    """(q, r, s) with s * a = q * b + r over Z, s > 0 and deg r < deg b.

    deg b >= 0; when deg a < deg b, q = [] and r = a.  Each step scales
    the running remainder and quotient by m = lc(b)/g and subtracts
    (lc(r)/g) x^k b, with g = gcd(lc(r), lc(b)) signed like lc(b) so that
    m stays positive.
    """
    r = list(a)
    lb = b[-1]
    low = b[:-1]
    nb = len(low)
    q = [0] * (len(a) - nb)
    s = 1
    while len(r) > nb:
        lr = r.pop()
        g = gcd(lr, lb) if lb > 0 else -gcd(lr, lb)
        m, c = lb // g, lr // g
        if m != 1:
            r = [m * x for x in r]
            q = [m * x for x in q]
            s *= m
        shift = len(r) - nb
        q[shift] = c
        for j, x in enumerate(low):
            r[shift + j] -= c * x
        while r and not r[-1]:
            r.pop()
    return q, r, s


_APOLY_ZERO = AlphaPoly()
_APOLY_ONE = AlphaPoly((1,))


class RationalFunction:
    """Element of the field Q(parameter), always in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction, str)):
            num = AlphaPoly((num,))
        if den is None:
            den = _APOLY_ONE
        elif isinstance(den, (int, Fraction, str)):
            den = AlphaPoly((den,))
        num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def size(self) -> int:
        """64-bit words held by the coefficients, a measure of product cost."""
        return sum(1 + (abs(q.numerator).bit_length() + q.denominator.bit_length()) // 64
                   for q in self.num.coeffs + self.den.coeffs)

    @staticmethod
    def _raw(num: AlphaPoly, den: AlphaPoly) -> "RationalFunction":
        """Trusted constructor: arguments already canonical."""
        rf = object.__new__(RationalFunction)
        object.__setattr__(rf, "num", num)
        object.__setattr__(rf, "den", den)
        return rf

    @staticmethod
    def param() -> "RationalFunction":
        return RationalFunction._raw(AlphaPoly((0, 1)), _APOLY_ONE)

    @property
    def is_zero(self) -> bool:
        return not self.num.ints

    def __bool__(self):
        return bool(self.num.ints)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        # denominators are monic, so a constant one is 1
        if len(self.den.ints) == 1 and len(other.den.ints) == 1:
            num = self.num + other.num
            if not num.ints:
                return RF_ZERO
            return RationalFunction._raw(num, _APOLY_ONE)
        if self.den == other.den:
            # the sum can only cancel a factor of the monic denominator
            return RationalFunction._raw(*_reduce(self.num + other.num, self.den))
        # Henrici's sum: with d1 = gcd(u', v'), the numerator
        # t = u (v'/d1) + v (u'/d1) shares with (u'/d1) v' only factors of d1
        d1 = self.den.gcd(other.den)
        u1, v1 = self.den, other.den
        if d1.degree > 0:
            u1, v1 = u1 // d1, v1 // d1
        t = self.num * v1 + other.num * u1
        if not t.ints:
            return RF_ZERO
        d2 = t.gcd(d1)
        v2 = other.den
        if d2.degree > 0:
            t, v2 = t // d2, v2 // d2
        return RationalFunction._raw(t, u1 * v2)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other or self.is_zero:
                return RF_ZERO
            num = self.num
            g = gcd(num.den, other)
            k = other // g
            return RationalFunction._raw(
                AlphaPoly._of(tuple(c * k for c in num.ints), num.den // g), self.den)
        if isinstance(other, Fraction):
            if not other or self.is_zero:
                return RF_ZERO
            return RationalFunction._raw(self.num.scale(other), self.den)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        if len(self.den.ints) == 1 and len(other.den.ints) == 1:
            return RationalFunction._raw(self.num * other.num, _APOLY_ONE)
        # cross-reduce before multiplying to keep the degrees down; a
        # constant factor takes this path too, as gcd returns 1 for it at once
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num if g1.degree <= 0 else self.num // g1
        d2 = other.den if g1.degree <= 0 else other.den // g1
        n2 = other.num if g2.degree <= 0 else other.num // g2
        d1 = self.den if g2.degree <= 0 else self.den // g2
        # canonical, cross-reduced factors: the product is already reduced
        # and its denominator monic
        return RationalFunction._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise DivisionByZero("inverse of zero in the coefficient field")
        return RationalFunction._raw(*_monic_den(self.den, self.num))

    def eval(self, value) -> Fraction:
        """Exact value at a parameter point; raises at a pole."""
        value = _as_rational(value)
        dv = self.den.eval(value)
        if dv == 0:
            shown = self.den.scale(self.den.int_scale())
            raise PoleAtParameter(value, shown.text())
        return self.num.eval(value) / dv

    def text(self, param: str = "alpha") -> str:
        if len(self.den.ints) == 1:
            return self.num.text(param)
        # display with an integer-primitive denominator, e.g. 2*alpha - 1
        r = self.den.int_scale()
        num = self.num.scale(r)
        den = self.den.scale(r)
        return f"({num.text(param)})/({den.text(param)})"

    def to_json(self):
        return {"num": _coeff_texts(self.num), "den": _coeff_texts(self.den)}

    @staticmethod
    def from_json(obj) -> "RationalFunction":
        return RationalFunction(AlphaPoly(obj["num"]), AlphaPoly(obj["den"]))

    def __repr__(self):
        return f"RF({self.text()})"


def _coeff_texts(p: AlphaPoly) -> list:
    """rational_text of each coefficient of p, lowest degree first."""
    out = []
    for c in p.ints:
        g = gcd(c, p.den)
        out.append(_ratio_text(c // g, p.den // g))
    return out


def _reduce(num: AlphaPoly, den: AlphaPoly):
    """Canonicalize num/den: reduced fraction with monic denominator."""
    if den.is_zero:
        raise DivisionByZero("zero denominator in rational function")
    if num.is_zero:
        return _APOLY_ZERO, _APOLY_ONE
    if den.degree > 0:
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
    return _monic_den(num, den)


def _monic_den(num: AlphaPoly, den: AlphaPoly):
    """num/den with both scaled so that den is monic."""
    lead = den.ints[-1]
    if lead == den.den:
        return num, den
    # multiply both by den.den / lead, with the sign on the numerator
    n, d = (den.den, lead) if lead > 0 else (-den.den, -lead)
    return _canonical([n * c for c in num.ints], num.den * d), _monic_ints(den.ints)


RF_ZERO = RationalFunction._raw(_APOLY_ZERO, _APOLY_ONE)
RF_ONE = RationalFunction._raw(_APOLY_ONE, _APOLY_ONE)


def rf(value) -> RationalFunction:
    """Coerce an int, Fraction, or string to a constant field element."""
    if isinstance(value, RationalFunction):
        return value
    q = _as_rational(value)
    if q == 0:
        return RF_ZERO
    if q == 1:
        return RF_ONE
    return RationalFunction._raw(AlphaPoly._of((q.numerator,), q.denominator), _APOLY_ONE)


def clear_denominators(coeffs) -> tuple:
    """(s, polys): s * coeffs[k] is the integer polynomial polys[k].

    s is the monic lcm of the denominators times the lcm of the rational
    coefficients' denominators that remain; each of polys is a tuple of
    ints, lowest degree first.  The lcms run over the distinct
    denominators, and the monic lcm is divided by each of them once.
    """
    dens = {c.den for c in coeffs}
    den = _APOLY_ONE
    for d in dens:
        if len(d.ints) > 1:
            den = den * (d // den.gcd(d))
    if len(den.ints) > 1:
        quotients = {d: den // d for d in dens}
        nums = [c.num * quotients[c.den] for c in coeffs]
    else:
        nums = [c.num for c in coeffs]
    ints = lcm(*{p.den for p in nums})
    polys = [tuple(c * (ints // p.den) for c in p.ints) for p in nums]
    return RationalFunction._raw(den.scale(ints), _APOLY_ONE), polys


def dividing_by(s: RationalFunction):
    """The map p -> p / s on polynomials p (field elements with denominator
    1), for a nonzero polynomial s.

    When s is c (d*alpha - n)^k with k >= 1 (every scale of the symbolic
    fs recursion is), its shape is read once.  Then p = (d*alpha - n)^j q,
    j <= k as large as it can be, comes from exact integer division by
    d*alpha - n (``_root_divide``), and
    p / s = q / (c d^(k-j)) / (alpha - n/d)^(k-j) is already canonical: q
    is prime to d*alpha - n, unless j = k, and the denominator is monic.
    So no gcd runs.  Any other s is a product with its inverse.
    """
    num = s.num
    root = _linear_power_root(num.ints) if len(num.ints) > 1 else None
    if root is None:
        inverse = s.inverse()
        return lambda p: p * inverse
    n, d = root
    k = len(num.ints) - 1
    # s = c (d*alpha - n)^k / num.den with an int c, by Gauss's lemma
    c = num.ints[-1] // d ** k
    sign = num.den if c > 0 else -num.den
    # (int part, monic part) of c (d*alpha - n)^m, for each m = k - j
    dens = [(abs(c) * d ** m, _monic_root_power(n, d, m)) for m in range(k + 1)]

    def divide(p: RationalFunction) -> RationalFunction:
        if not p.num.ints:
            return p
        j, q = _root_divide(p.num.ints, n, d, k)
        scale, den = dens[k - j]
        return RationalFunction._raw(_canonical([sign * x for x in q], p.num.den * scale),
                                     den)
    return divide


def kronecker_pack(poly: tuple, bits: int) -> int:
    """p(2^bits) for the integer polynomial p, lowest degree first.

    Evaluation at 2^bits is a ring homomorphism Z[alpha] -> Z (Kronecker
    substitution), so sums and products of packed values are the packed
    sums and products.
    """
    acc = 0
    for c in reversed(poly):
        acc = (acc << bits) + c
    return acc


def kronecker_unpack(value: int, bits: int) -> RationalFunction:
    """The integer polynomial p with p(2^bits) = value.

    p is read off as balanced base-2^bits digits, which is exact when
    every coefficient of p lies strictly between -2^(bits-1) and
    2^(bits-1).
    """
    base, half = 1 << bits, 1 << (bits - 1)
    digits = []
    while value:
        d = value & (base - 1)
        if d >= half:
            d -= base
        digits.append(d)
        value = (value - d) >> bits
    return RationalFunction._raw(AlphaPoly._of(tuple(digits)), _APOLY_ONE)


def accumulate(out: dict, pairs) -> dict:
    """Add each (key, coefficient) of pairs into out; returns out.

    A key whose sum cancels to zero is deleted, so out never stores a
    zero.  The coefficients of pairs must be nonzero; any ring whose zero
    is falsy will do (field elements, ints, Fractions).
    """
    for key, c in pairs:
        cur = out.get(key)
        if cur is None:
            out[key] = c
        else:
            s = cur + c
            if not s:
                del out[key]
            else:
                out[key] = s
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def sparse_rref(rows: list, ncols: int):
    """Reduced row echelon form of sparse rows (dicts col -> RF).

    Mutates nothing; returns (pivot_rows, pivot_cols) where pivot_rows[i]
    is a dict with a leading 1 in pivot_cols[i] and zeros in every other
    pivot column.  Rows are combined with fully reduced rational-function
    arithmetic, which in practice keeps the entry degrees small.
    """
    work = [dict(r) for r in rows if r]
    # occupancy: column -> set of row indices currently containing it
    occ: dict = {}
    for idx, r in enumerate(work):
        for c in r:
            occ.setdefault(c, set()).add(idx)
    pivot_rows: list = []
    pivot_cols: list = []
    for col in range(ncols):
        holders = occ.get(col)
        if not holders:
            continue
        # choose the sparsest available row for this pivot
        ridx = min(holders, key=lambda i: (len(work[i]), i))
        row = work[ridx]
        inv = row[col].inverse()
        row = {c: v * inv for c, v in row.items()}
        row[col] = RF_ONE
        # retire the chosen row from the worklist
        for c in work[ridx]:
            occ[c].discard(ridx)
        work[ridx] = {}
        # eliminate this column from every remaining row and refresh the
        # occupancy of the columns the pivot row touches (occ[col] is never
        # read again); the pivot row is negated once, not once per row
        neg_row = [(c, -v) for c, v in row.items() if c != col]
        for other_idx in occ[col]:
            other = work[other_idx]
            factor = other.pop(col)
            accumulate(other, ((c, v * factor) for c, v in neg_row))
            for c, _ in neg_row:
                if c in other:
                    occ[c].add(other_idx)
                else:
                    occ[c].discard(other_idx)
        # eliminate from previously found pivot rows (full RREF)
        for prow in pivot_rows:
            factor = prow.pop(col, None)
            if factor is not None:
                accumulate(prow, ((c, v * factor) for c, v in neg_row))
        pivot_rows.append(row)
        pivot_cols.append(col)
    return pivot_rows, pivot_cols


def sparse_nullspace(rows: list, ncols: int):
    """Pivot columns and a kernel basis of sparse rows (dicts col -> RF).

    Returns (pivot_cols, kernel): the pivot columns of the RREF, and one
    vector {f: 1, c: -r_c[f]} per free column f, in column order, where
    r_c is the reduced row of pivot column c; only pivot columns before f
    can appear in it.
    """
    pivot_rows, pivot_cols = sparse_rref(rows, ncols)
    pivots = set(pivot_cols)
    kernel = []
    for f in (f for f in range(ncols) if f not in pivots):
        vec = {f: RF_ONE}
        vec.update((c, -row[f]) for c, row in zip(pivot_cols, pivot_rows) if f in row)
        kernel.append(vec)
    return pivot_cols, kernel
