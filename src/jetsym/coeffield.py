"""Exact arithmetic in Q and Q(parameter), plus exact linear algebra.

The coefficient field everywhere is the field of univariate rational
functions in a single formal parameter over Q.  Values are immutable and
kept fully reduced: gcd(num, den) = 1 and den monic, so equal field
elements have identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import DivisionByZero, NumberTooLong, PoleAtParameter

#: degree of the zero polynomial; compares below every integer degree
NEG_INF = float("-inf")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
    try:
        return str(q)
    except ValueError:
        bits = max(abs(q.numerator), q.denominator).bit_length()
        raise NumberTooLong(f"a number of {bits} bits is too long to print") from None


class AlphaPoly:
    """Polynomial in the parameter with rational coefficients, dense ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def _of(coeffs: tuple) -> "AlphaPoly":
        """Trusted constructor: Fractions whose last entry is nonzero."""
        p = object.__new__(AlphaPoly)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("AlphaPoly is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, AlphaPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return AlphaPoly._of(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        # the leading terms of a sum can cancel; a product's cannot
        while out and not out[-1]:
            out.pop()
        return AlphaPoly._of(tuple(out))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _APOLY_ZERO
        if len(a) == 1:
            c = a[0]
            return AlphaPoly._of(tuple(c * x for x in b))
        if len(b) == 1:
            c = b[0]
            return AlphaPoly._of(tuple(c * x for x in a))
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return AlphaPoly._of(tuple(out))

    def scale(self, q: Fraction) -> "AlphaPoly":
        if q == 0:
            return _APOLY_ZERO
        return AlphaPoly._of(tuple(q * c for c in self.coeffs))

    def monic(self) -> "AlphaPoly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(1 / lead)

    def divmod(self, other: "AlphaPoly"):
        """Exact polynomial division with remainder."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        ob = other.coeffs
        dq = len(rem) - len(ob)
        if dq < 0:
            return _APOLY_ZERO, self
        quo = [Fraction(0)] * (dq + 1)
        olead = ob[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(ob) - 1]
            if c:
                q = c / olead
                quo[i] = q
                for j, oc in enumerate(ob):
                    rem[i + j] -= q * oc
        while rem and not rem[-1]:
            rem.pop()
        return AlphaPoly._of(tuple(quo)), AlphaPoly._of(tuple(rem))

    def __floordiv__(self, other):
        q, _ = self.divmod(other)
        return q

    def gcd(self, other: "AlphaPoly") -> "AlphaPoly":
        """Monic gcd: Euclid on primitive integer coefficient lists.

        Each pseudo-remainder is cut to its primitive part (Brown 1971), so
        no rational arithmetic runs inside the loop.
        """
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 or len(b) == 1:
            return _APOLY_ONE
        if not b:
            return self.monic()
        if not a:
            return other.monic()
        a, b = _primitive(a), _primitive(b)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            r = _pseudo_remainder(a, b)
            if not r:
                lead = b[-1]
                return AlphaPoly._of(tuple(Fraction(c, lead) for c in b))
            a, b = b, _content_free(r)
        return _APOLY_ONE

    def eval(self, value: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def int_scale(self) -> Fraction:
        """Rational r such that r * self has coprime integer coefficients
        and a positive leading coefficient."""
        if not self.coeffs:
            return Fraction(1)
        den = lcm(*(c.denominator for c in self.coeffs))
        num = gcd(*(c.numerator for c in self.coeffs))
        r = Fraction(den, num)
        return -r if self.coeffs[-1] < 0 else r

    def text(self, param: str = "alpha") -> str:
        """Human form, descending degree, e.g. ``2*alpha - 1``."""
        if not self.coeffs:
            return "0"
        parts = []
        for deg in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[deg]
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


def _primitive(coeffs) -> list:
    """Integer multiple of a nonzero rational polynomial with content 1."""
    den = lcm(*(c.denominator for c in coeffs))
    return _content_free([c.numerator * (den // c.denominator) for c in coeffs])


def _content_free(ints: list) -> list:
    g = gcd(*ints)
    return ints if g == 1 else [c // g for c in ints]


def _pseudo_remainder(a: list, b: list) -> list:
    """Remainder of a by b over Z, up to a nonzero integer factor.

    deg a >= deg b >= 1.  Each step scales the running remainder by
    lc(b)/g and subtracts (lc(r)/g) x^k b, with g = gcd(lc(r), lc(b)).
    """
    r = list(a)
    nb = len(b)
    lb = b[-1]
    while len(r) >= nb:
        lr = r[-1]
        g = gcd(lr, lb)
        sr, sb = lb // g, lr // g
        if sr != 1:
            r = [sr * c for c in r]
        shift = len(r) - nb
        for j in range(nb - 1):
            r[shift + j] -= sb * b[j]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


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
        return not self.num.coeffs

    def __bool__(self):
        return bool(self.num.coeffs)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num.coeffs == other.num.coeffs
                and self.den.coeffs == other.den.coeffs)

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        if self.is_zero:
            return self
        return RationalFunction._raw(-self.num, self.den)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # denominators are monic, so a constant one is 1
        if len(self.den.coeffs) == 1 and len(other.den.coeffs) == 1:
            num = self.num + other.num
            if not num.coeffs:
                return RF_ZERO
            return RationalFunction._raw(num, _APOLY_ONE)
        if self.den.coeffs == other.den.coeffs:
            return RationalFunction(self.num + other.num, self.den)
        # Henrici's sum: with d1 = gcd(u', v'), the numerator
        # t = u (v'/d1) + v (u'/d1) shares with (u'/d1) v' only factors of d1
        d1 = self.den.gcd(other.den)
        u1, v1 = self.den, other.den
        if d1.degree > 0:
            u1, v1 = u1 // d1, v1 // d1
        t = self.num * v1 + other.num * u1
        if not t.coeffs:
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
            return RationalFunction._raw(
                AlphaPoly._of(tuple(c * other for c in self.num.coeffs)), self.den)
        if isinstance(other, Fraction):
            if not other or self.is_zero:
                return RF_ZERO
            return RationalFunction._raw(self.num.scale(other), self.den)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        if len(self.den.coeffs) == 1 and len(other.den.coeffs) == 1:
            return RationalFunction._raw(self.num * other.num, _APOLY_ONE)
        # cross-reduce before multiplying to keep the degrees down
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

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise DivisionByZero("inverse of zero in the coefficient field")
        return RationalFunction._raw(*_monic_den(self.den, self.num))

    def eval(self, value) -> Fraction:
        """Exact value at a parameter point; raises at a pole."""
        value = _as_fraction(value)
        dv = self.den.eval(value)
        if dv == 0:
            shown = self.den.scale(self.den.int_scale())
            raise PoleAtParameter(value, shown.text())
        return self.num.eval(value) / dv

    def text(self, param: str = "alpha") -> str:
        if len(self.den.coeffs) == 1:
            return self.num.text(param)
        # display with an integer-primitive denominator, e.g. 2*alpha - 1
        r = self.den.int_scale()
        num = self.num.scale(r)
        den = self.den.scale(r)
        return f"({num.text(param)})/({den.text(param)})"

    def to_json(self):
        return {"num": [rational_text(c) for c in self.num.coeffs],
                "den": [rational_text(c) for c in self.den.coeffs]}

    @staticmethod
    def from_json(obj) -> "RationalFunction":
        return RationalFunction(AlphaPoly(obj["num"]), AlphaPoly(obj["den"]))

    def __repr__(self):
        return f"RF({self.text()})"


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
    lead = den.leading
    if lead == 1:
        return num, den
    inv = 1 / lead
    return num.scale(inv), den.scale(inv)


RF_ZERO = RationalFunction._raw(_APOLY_ZERO, _APOLY_ONE)
RF_ONE = RationalFunction._raw(_APOLY_ONE, _APOLY_ONE)


def rf(value) -> RationalFunction:
    """Coerce an int, Fraction, or string to a constant field element."""
    if isinstance(value, RationalFunction):
        return value
    q = _as_fraction(value)
    if q == 0:
        return RF_ZERO
    if q == 1:
        return RF_ONE
    return RationalFunction._raw(AlphaPoly._of((q,)), _APOLY_ONE)


def clear_denominators(coeffs) -> tuple:
    """(s, polys): s * coeffs[k] is the integer polynomial polys[k].

    s is the monic lcm of the denominators times the lcm of the rational
    coefficients' denominators that remain; each of polys is a tuple of
    ints, lowest degree first.
    """
    den = _APOLY_ONE
    for c in coeffs:
        if len(c.den.coeffs) > 1:
            den = den * (c.den // den.gcd(c.den))
    nums = [c.num * (den // c.den) if len(den.coeffs) > 1 else c.num for c in coeffs]
    ints = lcm(*(q.denominator for p in nums for q in p.coeffs))
    polys = [tuple(q.numerator * (ints // q.denominator) for q in p.coeffs) for p in nums]
    return RationalFunction._raw(den.scale(Fraction(ints)), _APOLY_ONE), polys


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
        digits.append(Fraction(d))
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
