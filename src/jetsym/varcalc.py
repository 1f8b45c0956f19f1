"""Variational calculus: Euler operator, constructive D_x^{-1}, Frechet
derivative, commutator of evolutionary fields, D_t along a system, and
the Euler images of D_t that a density search solves for.

The integration constant of D_x^{-1} is always zero: antiderivatives are
produced with no free term, and a free term in the integrand is an
exactness obstruction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coeffield import (accumulate, clear_denominators, dividing_by, kronecker_pack,
                        kronecker_unpack)
from .errors import (DxBudgetExceeded, ExplicitXTDependence, JetOrderOutOfRange,
                     NonIntegerExponentPath)
from .jetalgebra import (DP_ZERO, TOP_ORDER, DiffPoly, EvoField, is_jet, jet, jet_depvar,
                         jet_order, mono_degree, mono_max_order, mono_mul)


class ExactnessCertificate(NamedTuple):
    """Witness of integration by parts: input = D_x(antiderivative) + remainder."""

    antiderivative: DiffPoly
    remainder: DiffPoly

    @property
    def is_exact(self) -> bool:
        return self.remainder.is_zero


def euler_operator(f: DiffPoly, depvar: int) -> DiffPoly:
    """Variational derivative sum_i (-D_x)^i d f / d(depvar_i).

    Evaluated in Horner form d_0 f - D_x(d_1 f - D_x(d_2 f - ...)), which
    takes one D_x per jet order instead of i for the i-th term.
    """
    if f.contains_xt():
        raise ExplicitXTDependence("Euler operator needs an x,t-free input")
    top = f.max_jet_order()
    if top is None:
        return DP_ZERO
    out = DP_ZERO
    for i in range(top, -1, -1):
        out = f.partial(jet(depvar, i)) - out.dx()
    return out


def _formal_integral(f: DiffPoly, gen: int) -> DiffPoly:
    """Antiderivative of f in the single generator gen.

    Coefficients may involve other generators.  Exponent -1 would need a
    logarithm, which is no differential polynomial, and aborts.
    """
    terms = {}
    for mono, coeff in f.terms.items():
        e = 0
        rest = []
        for g, eg in mono:
            if g == gen:
                e = eg
            else:
                rest.append((g, eg))
        if e == -1:
            raise NonIntegerExponentPath(
                "integration in a single generator hit exponent -1, a logarithm")
        nm = tuple(sorted(rest + [(gen, e + 1)]))
        terms[nm] = coeff * Fraction(1, e + 1)
    return DiffPoly(terms)


def _top_block_linear(f: DiffPoly, k: int) -> bool:
    """True when every monomial of f is at most linear in order-k jets."""
    for mono in f.terms:
        top = 0
        for g, e in mono:
            if is_jet(g) and jet_order(g) == k:
                top += e
        if top > 1:
            return False
    return True


def integrate_dx(f: DiffPoly) -> ExactnessCertificate:
    """Constructive D_x^{-1} by integration by parts.

    Repeatedly strips the highest jet order k >= 1: for each dependent
    variable d with d_k present the input must be affine in d_k with a
    coefficient free of order-k jets; that coefficient is integrated
    formally in d_{k-1} and the exact part subtracted.  The loop stops
    when the maximal order no longer decreases or is 0; the rest, which
    keeps every term of f of order 0, is the remainder, and remainder == 0
    exactly when f lies in Im D_x within the zero-free-term polynomial class.

    Before any D_x, the D_x tower is held to ``_GAIN_BITS``
    (``_check_gain``): its bound is the ``_tower_gain`` over the top jet
    order of the weight of what by-parts integrates, the largest
    |exponent| sum of a monomial without its factor of highest jet order.
    So a lone linear jet, such as w_4095, gains nothing at any order.
    """
    if f.contains_xt():
        raise ExplicitXTDependence("D_x^{-1} needs an x,t-free input")
    acc = DP_ZERO
    cur = f
    k = cur.max_jet_order()
    if k:
        weight = max(sum(abs(e) for _, e in m) - max((jet_order(g), abs(e)) for g, e in m)[1]
                     for m in f.terms if m)
        _check_gain(_tower_gain(weight, _growth(f.terms), k))
    while not cur.is_zero and k and _top_block_linear(cur, k):
        for d in sorted(cur.depvars()):
            a = cur.partial(jet(d, k))
            if a.is_zero:
                continue
            ao = a.max_jet_order()
            if ao is not None and ao >= k:
                return ExactnessCertificate(acc, cur)
            g1 = _formal_integral(a, jet(d, k - 1))
            acc = acc + g1
            cur = cur - g1.dx()
        knew = cur.max_jet_order()
        if not cur.is_zero and knew is not None and knew >= k:
            break
        k = knew
    return ExactnessCertificate(acc, cur)


class DxChain:
    """Lazily extended table of D_x powers of an evolutionary field."""

    def __init__(self, field: EvoField):
        self.field = field
        self._rows = [[c] for c in field.components]

    def get(self, depvar: int, order: int) -> DiffPoly:
        row = self._rows[depvar]
        while len(row) <= order:
            row.append(row[-1].dx())
        return row[order]


def frechet(f: DiffPoly, K: EvoField) -> DiffPoly:
    """Directional derivative of f along K, summed over jet variables only.

    Explicit x and t in f are treated as constants.
    """
    top = f.max_jet_order()
    if top is None:
        return DP_ZERO
    chain = DxChain(K)
    out = DP_ZERO
    for d in sorted(f.depvars()):
        for i in range(top + 1):
            p = f.partial(jet(d, i))
            if p.is_zero:
                continue
            out = out + p * chain.get(d, i)
    return out


class IntegerField:
    """A field scaled into Z[alpha] coefficients, with its height data.

    ``scale * field`` has the integer polynomial coefficients of ``comps``
    (one dict monomial -> int tuple per component).  cleared is the
    (scale, iterator over its integer polynomials) of one
    ``clear_denominators`` over the coefficients of every field that one
    kernel reads, each field taking the next of them (``_integer_fields``);
    without it the field is cleared alone, the one-field case.  For the
    height bounds it keeps ``norms``, the sum of the L1 norms of the
    coefficients of each component, and ``norm``, their sum; ``weights``,
    the largest sum of |exponent| over the factors of one monomial of each
    component, and ``weight``, the largest of them and 1, which bounds the
    factor one D_x or one jet-summed partial derivative puts on the norm;
    ``growth``, what one D_x can add to that weight (0 while every
    exponent is a positive integer, else 2); ``top``, the highest jet
    order; and ``nvars``, one past the highest dependent variable it
    names, at least its component count.
    """

    def __init__(self, field: EvoField, cleared=None):
        self.scale, polys = cleared or _clearing([field])
        self.comps = [{m: next(polys) for m in comp.terms} for comp in field]
        self.norms = [sum(abs(c) for p in comp.values() for c in p) for comp in self.comps]
        self.norm = sum(self.norms)
        self.weights = [max((sum(abs(e) for _, e in m) for m in comp.terms), default=0)
                        for comp in field]
        self.weight = max([1] + self.weights)
        self.growth = _growth(m for comp in field for m in comp.terms)
        self.top = field.max_jet_order() or 0
        self.nvars = max([len(field)] + [d + 1 for comp in field for d in comp.depvars()])

    def dx_gain(self, i: int) -> int:
        """Bound on norm(D_x^i c) / norm(c) for a component c."""
        return _tower_gain(self.weight, self.growth, i)


def _clearing(fields) -> tuple:
    """(scale, polys) of one ``clear_denominators`` over every coefficient
    of fields, polys an iterator in field, component and term order."""
    scale, polys = clear_denominators(
        [coeff for field in fields for comp in field for coeff in comp.terms.values()])
    return scale, iter(polys)


def _integer_fields(fields) -> list:
    """The ``IntegerField`` of each field, all from one clearing of them
    together, so all at its one scale."""
    cleared = _clearing(fields)
    return [IntegerField(field, cleared) for field in fields]


def _growth(monos) -> int:
    """What one D_x can add to the |exponent| sum of a monomial of monos:
    0 while every exponent is positive, else 2."""
    return 0 if all(e > 0 for m in monos for _, e in m) else 2


def _tower_gain(weight: int, growth: int, i: int) -> int:
    """Bound on what i D_x put on the norm of a polynomial whose monomials
    have |exponent| sums at most weight: the j-th multiplies it by at
    most weight + j growth."""
    gain = 1
    for j in range(i):
        gain *= weight + j * growth
    return gain


def _word_bits(height: int) -> int:
    """Width of balanced digits that hold every int of absolute value at
    most height."""
    return height.bit_length() + 1


def _sum_bounds(rows):
    """(H, W) that make a packed sum of terms c D_x^p K exact.

    rows[i] holds one (|c|_1, weight(c), N, W_K) per term of output i,
    all scaled to Z[alpha]: N bounds the L1 norm of the image D_x^p K and
    W_K the |exponent| sum of its monomials: N is dx_gain(p) |K|_1, since
    one D_x of a monomial of |exponent| sum at most weight + j growth
    multiplies its norm by at most that sum, and W_K is
    weight(K) + p growth(K), since one D_x raises that sum by at most
    growth.  By |pq|_1 <= |p|_1 |q|_1, output i, and every partial sum
    formed of it in place, has L1 norm at most sum |c|_1 N over its
    terms; H is the largest such sum, so it bounds every integer
    coefficient.  Every monomial that is packed or formed (the c's, the
    images and their products) has |exponent| sum at most W, the largest
    weight(c) + W_K and at least 1, and one exponent is at most that sum
    in absolute value.  Balanced digits of ``_word_bits`` of H and of W
    therefore hold every coefficient and every exponent, so a packed value
    is zero exactly when its polynomial is, sums cancel where they cancel
    over the field, and no exponent carries into the next slot.
    """
    return (max((sum(cn * n for cn, _, n, _ in row) for row in rows), default=0),
            max([1] + [cw + w for row in rows for _, cw, _, w in row]))


def _frechet_bound(f: IntegerField, g: IntegerField) -> tuple:
    """The bound term (``_sum_bounds``) of f'[g] = sum over (d, p) of
    df/du_(d,p) D_x^p g_d: the partials of f have total norm at most
    weight(f) |f|_1 and |exponent| sums at most weight(f) + growth(f)/2
    (only a negative exponent grows), and p is at most top(f)."""
    return (f.weight * f.norm, f.weight + f.growth // 2,
            g.dx_gain(f.top) * g.norm, g.weight + f.top * g.growth)


#: most bits that the norm growth bound of a D_x tower may have: the
#: ``dx_gain`` of a D_x table at the order it is extended to, or the
#: ``horner_gain`` of an Euler image, each checked before that D_x work.
#: It grows by about log2(weight) bits per order of a nonlinear field and
#: not at all for a linear one, so it refuses a jet near the top order in
#: a nonlinear tower at once: the fs rhs (weight 3) has a table up to
#: order 646.  The largest of the brackets of the fs hierarchy is 65 bits
#: at N = 16 and 87 bits at N = 20.
_GAIN_BITS = 1024

#: most bits of packed monomials and coefficients that D_x may form in the
#: D_x table of one field, or in the Euler images of one polynomial (512
#: MB).  The largest table of the symbolic fs commutativity table, its
#: members in the linearizing frame, takes 94,790,782 bits at N = 12,
#: 399,723,373 at N = 14 and 1,526,760,324 at N = 16 (52,892,321 and
#: 188,438,682 at N = 14 and 16 at alpha = 1/3); the largest Euler images
#: of the fs density search, 75,020 bits.
_DX_BUDGET = 1 << 32


def _dict_bits(p: dict) -> int:
    """Bits of the packed monomials and coefficients of p."""
    return sum(map(int.bit_length, p)) + sum(map(int.bit_length, p.values()))


class _Kernel:
    """Packed exponent vectors: a monomial is one int, a polynomial one dict.

    Generator x gets slot 0, t slot 1, and the jet (d, i) slot
    2 + i nvars + d.  A monomial is the int sum_s e_s 2^(s bits), its
    exponents read back as balanced digits of width ``bits``; the
    monomial 1 is 0.  While every exponent lies strictly between
    -2^(bits-1) and 2^(bits-1) this is one-to-one, and it turns monomial
    arithmetic into int arithmetic (Monagan and Pearce, "Polynomial
    division using dynamic arrays, heaps, and packed exponent vectors",
    2007):
    - a product of monomials is the sum of their ints;
    - dividing by the generator at shift sh subtracts 1 << sh;
    - D_x of the jet (d, i) adds (1 << (sh + nvars bits)) - (1 << sh),
      which bumps it to (d, i + 1).
    The kernel holds both widths, ``bits`` and ``coeff_bits``, which
    ``_sum_bounds`` sizes before any work, since an exponent that carries
    into the next slot would read back as a wrong monomial.  A polynomial
    is a dict packed monomial -> nonzero int, Kronecker-packed at
    2^coeff_bits, in no particular term order.  Every sum is formed in
    place: ``mul_add`` (every product) and ``dx`` with ``accumulate``'s
    rule, deleting a key whose sum cancels, and the Horner step of
    ``euler`` through ``accumulate``.
    """

    def __init__(self, nvars: int, bits: int, coeff_bits: int):
        self.nvars, self.bits, self.coeff_bits = nvars, bits, coeff_bits
        self.mask, self.half = (1 << bits) - 1, 1 << (bits - 1)
        self.step = (1 << nvars * bits) - 1  # a D_x bump adds step << sh
        self.jets = 2 * bits  # shifts below this are x and t
        self.ceiling = (2 + TOP_ORDER * nvars) * bits  # shift of the first top-order jet
        # one entry per factor met: (generator, exponent) <-> its packed int
        self._packed: dict = {}
        self._factors: dict = {}

    def pack(self, mono) -> int:
        """The packed form of a tuple monomial; the generator ids of x and t
        are their slots."""
        packed, m = self._packed, 0
        for factor in mono:
            term = packed.get(factor)
            if term is None:
                g, e = factor
                slot = g if not is_jet(g) else 2 + jet_order(g) * self.nvars + jet_depvar(g)
                term = packed[factor] = e << slot * self.bits
            m += term
        return m

    def pack_field(self, f: IntegerField) -> list:
        """The components of f, monomials and coefficients packed."""
        return [{self.pack(m): kronecker_pack(p, self.coeff_bits) for m, p in comp.items()}
                for comp in f.comps]

    def factors(self, m: int) -> list:
        """(depvar, shift, exponent) of every generator of the monomial m, in
        slot order: x and t (depvar -2 and -1), then the jets by order and
        dependent variable."""
        bits, mask, half, nvars = self.bits, self.mask, self.half, self.nvars
        out = []
        while m:
            slot = ((m & -m).bit_length() - 1) // bits
            sh = slot * bits
            e = (m >> sh) & mask
            if e >= half:
                e -= mask + 1
            m -= e << sh
            out.append(((slot - 2) % nvars if slot >= 2 else slot - 2, sh, e))
        return out

    def unpack(self, m: int):
        """The tuple monomial of m, in generator order: x and t, then the
        jets by dependent variable and order.  Its slots are decoded as in
        ``factors``."""
        bits, mask, half, memo = self.bits, self.mask, self.half, self._factors
        mono = []
        while m:
            sh = ((m & -m).bit_length() - 1) // bits * bits
            e = (m >> sh) & mask
            if e >= half:
                e -= mask + 1
            term = e << sh
            m -= term
            factor = memo.get(term)
            if factor is None:
                slot = sh // bits - 2
                gen = jet(slot % self.nvars, slot // self.nvars) if slot >= 0 else slot + 2
                # one tuple per factor, shared by every monomial that has it
                factor = memo[term] = (gen, e)
            mono.append(factor)
        mono.sort()
        return tuple(mono)

    def unpacked(self, p: dict, unscale) -> DiffPoly:
        """The ``DiffPoly`` of p, the digits of each coefficient
        (``kronecker_unpack``) mapped through unscale."""
        return DiffPoly({self.unpack(m): unscale(kronecker_unpack(v, self.coeff_bits))
                         for m, v in p.items()})

    def mul_add(self, out: dict, p: dict, q: dict):
        """Add p q into out, in place, with ``accumulate``'s cancel rule."""
        get, terms = out.get, q.items()
        for m1, c1 in p.items():
            for m2, c2 in terms:
                m = m1 + m2
                cur = get(m)
                if cur is None:
                    out[m] = c1 * c2
                else:
                    s = cur + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]

    def dx(self, p: dict) -> dict:
        """Total x-derivative: bumps jets, differentiates explicit x.

        Each monomial's slots are decoded as in ``factors``, and each term
        is added in place with ``accumulate``'s cancel rule.
        """
        bits, mask, half = self.bits, self.mask, self.half
        step, jets, ceiling = self.step, self.jets, self.ceiling
        out: dict = {}
        get = out.get
        for m, c in p.items():
            rest = m
            while rest:
                sh = ((rest & -rest).bit_length() - 1) // bits * bits
                e = (rest >> sh) & mask
                if e >= half:
                    e -= mask + 1
                rest -= e << sh
                if sh >= jets:
                    if sh >= ceiling:
                        raise JetOrderOutOfRange(f"jet order out of range: {TOP_ORDER + 1}")
                    key = m + (step << sh)
                elif sh:  # D_x t = 0
                    continue
                else:
                    key = m - 1
                cur = get(key)
                if cur is None:
                    out[key] = c * e
                else:
                    s = cur + c * e
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return out

    def partials(self, p: dict) -> dict:
        """{(d, i): dp/du_(d,i)} over the jets of p."""
        by_jet: dict = {}
        for m, c in p.items():
            for depvar, sh, e in self.factors(m):
                if depvar >= 0:
                    # dividing by one generator is injective: no two terms merge
                    by_jet.setdefault((depvar, sh), {})[m - (1 << sh)] = c * e
        width = self.nvars * self.bits
        return {(d, (sh - self.jets) // width): q for (d, sh), q in by_jet.items()}

    def frechet(self, out: dict, parts: dict, table: "_DxTable"):
        """Add f'[K] into out, in place, for parts the ``partials`` of f and
        table the D_x table of K."""
        for (depvar, order), q in parts.items():
            self.mul_add(out, q, table.get(depvar, order))

    def horner_gain(self, parts: dict, depvar: int, orders, growth: int) -> int:
        """Bound on what the D_x of the Horner form of ``euler``, over the
        jet orders ``orders`` from the top down, put on the norm of the
        image for depvar: each multiplies it by at most the largest
        |exponent| sum W of what it differentiates, and W grows by at most
        growth per D_x or becomes that of the next partial."""
        gain, weight = 1, 0
        for i in orders:
            gain *= max(weight, 1)
            weight = max([weight + growth] + [sum(abs(e) for _, _, e in self.factors(m))
                                              for m in parts.get((depvar, i), ())])
        return gain

    def euler(self, p: dict, nvars: int, growth: int, weight: int) -> list:
        """The Euler images of p, one per dependent variable, each in the
        additive Horner form g_i = D_x g_(i+1) + (-1)^i d_i p down to
        g_0: each D_x image is extended in place by its partial.  |g_i| is
        that of d_i p - D_x(d_(i+1) p - ...), so the same bounds hold.

        growth is what one D_x can add to a monomial's |exponent| sum, and
        weight bounds that sum over every monomial formed.  Where
        weight^(top + 1) may pass 2^``_GAIN_BITS``, the ``horner_gain`` of
        the image is checked before its D_x.
        """
        if any(m & ((1 << self.jets) - 1) for m in p):
            raise ExplicitXTDependence("Euler operator needs an x,t-free input")
        parts = {(d, i): {m: -c for m, c in q.items()} if i % 2 else q
                 for (d, i), q in self.partials(p).items()}
        images = []
        formed = 0
        for depvar in range(nvars):
            orders = range(max((i for d, i in parts if d == depvar), default=-1), -1, -1)
            if len(orders) * weight.bit_length() > _GAIN_BITS:
                _check_gain(self.horner_gain(parts, depvar, orders, growth))
            out: dict = {}
            for i in orders:
                out = self.dx(out)
                formed += _dict_bits(out)
                if formed > _DX_BUDGET:
                    raise DxBudgetExceeded("D_x formed", formed, _DX_BUDGET)
                accumulate(out, parts.get((depvar, i), {}).items())
            images.append(out)
        return images


class _DxTable:
    """One field's lazily extended table of packed D_x powers; row d
    starts at the packed component d.

    Raises ``DxBudgetExceeded`` before it extends a row to an order whose
    ``dx_gain`` has more than ``_GAIN_BITS`` bits, and once it holds more
    than ``_DX_BUDGET`` bits.
    """

    def __init__(self, kernel: _Kernel, field: IntegerField):
        self.kernel, self.field = kernel, field
        comps = kernel.pack_field(field)
        self.rows = [[c] for c in comps]
        self.bits = sum(map(_dict_bits, comps))

    def get(self, depvar: int, order: int) -> dict:
        row = self.rows[depvar]
        if len(row) <= order:
            _check_gain(self.field.dx_gain(order))
        while len(row) <= order:
            row.append(self.kernel.dx(row[-1]))
            self.bits += _dict_bits(row[-1])
            if self.bits > _DX_BUDGET:
                raise DxBudgetExceeded("D_x formed", self.bits, _DX_BUDGET)
        return row[order]


def _check_gain(gain: int):
    """Raise ``DxBudgetExceeded`` when a norm growth bound passes
    ``_GAIN_BITS``."""
    if gain.bit_length() > _GAIN_BITS:
        raise DxBudgetExceeded("D_x growth bound needs", gain.bit_length(), _GAIN_BITS)


def linearizing_frame(K: EvoField, A: DiffPoly) -> tuple:
    """The frame (A, q) = (A, K^2 + 2zA) of a field K on the (w, z) jets,
    for A an antiderivative of K^1.

    Phi' is the tangent map of the linearizing substitution
    w = u_x/(4u), z = -v/(2 sqrt u): a field X on the (u, v) jets goes to
    (D_x f/4, -(g + zf)/2), f = X_1/u and g = X_2/sqrt u.  With f = 4A and
    g = -2q it reads Phi'(A, q) = (D_x A, q - 2zA) (``phi_prime``), which
    is K when K^1 = D_x A.
    """
    return A, K[1] + _z_times(A, 2)


def phi_prime(A: DiffPoly, q: DiffPoly) -> EvoField:
    """Phi'(A, q) = (D_x A, q - 2zA), the inverse of ``linearizing_frame``."""
    return EvoField((A.dx(), q + _z_times(A, -2)))


def _z_times(A: DiffPoly, c: int) -> DiffPoly:
    z = ((jet(1, 0), 1),)  # c z A: a product with one monomial merges no terms
    return DiffPoly({mono_mul(m, z): v for m, v in A.scalar_mul(c).terms.items()})


def _frame(field: EvoField, integral: ExactnessCertificate) -> list:
    """K, the field (r, q) and the field (A,), as ``IntegerField``s from one
    clearing (``_integer_fields``), for integral the certificate
    K^1 = D_x A + r and q = K^2 + 2zA (``linearizing_frame``), so
    K = (D_x A + r, q - 2zA)."""
    a, q = linearizing_frame(field, integral.antiderivative)
    return _integer_fields([field, EvoField((integral.remainder, q)), EvoField((a,))])


def _frame_bounds(a: IntegerField, k: IntegerField) -> list:
    """The ``_sum_bounds`` terms that an antiderivative a of one field adds
    to its bracket with k: X = a'[k] itself, D_x X, whose monomials'
    |exponent| sums, at most weight(c) + W_K of each term of X, bound what
    D_x does to the norm and rise by at most the larger growth, -2zX, and
    the product -2 k^2 a."""
    cn, cw, n, wk = term = _frechet_bound(a, k)
    return [term, (cn * (cw + wk), cw, n, wk + max(a.growth, k.growth)),
            (2 * cn, cw + 1, n, wk), (2 * a.norm, a.weight, k.norms[1], k.weights[1])]


def _negated(parts: dict) -> dict:
    """The ``partials`` dict parts with every coefficient negated."""
    return {key: {m: -c for m, c in q.items()} for key, q in parts.items()}


def _packed_parts(kernel: _Kernel, table: _DxTable, local: IntegerField, antider) -> list:
    """The partials of A, for antider the field (A,) of an antiderivative
    (empty without), then of each component of local (the table's own
    rows when local is the table's field), all packed; with A, the
    z-partial of q, the last, less 2A, since K^2 = q - 2zA."""
    comps = [row[0] for row in table.rows] if local is table.field else kernel.pack_field(local)
    parts = [{}] + [kernel.partials(c) for c in comps]
    if antider is not None:
        [a] = kernel.pack_field(antider)
        parts[0] = kernel.partials(a)
        accumulate(parts[2].setdefault((1, 0), {}), ((m, -2 * c) for m, c in a.items()))
    return parts


def commutators(fields, pairs, integrals=None):
    """Yield the bracket [fields[i], fields[j]] for each index pair (i, j), in order.

    The bracket [F, G] = G'[F] - F'[G] is bilinear over constants, so it is
    formed on the fields scaled to integer polynomial coefficients, each
    packed into one int by Kronecker substitution, with packed monomials
    (``_Kernel``).  Every field that a pair names is scaled (a field in the
    frame together with its frame, in one clearing), packed and given one
    D_x table once, on one kernel for the whole family.

    integrals maps the index of a two-component field K on the (w, z)
    jets to an ``ExactnessCertificate`` K^1 = D_x A + r, whose remainder
    r need not be zero; the certificate is trusted, as ``integrate_dx``
    forms it.  Such a field enters in the linearizing frame: with
    (A, q) = ``linearizing_frame``(K, A), K = Phi'(A, q) + (r, 0) for
    Phi'(A, q) = (D_x A, q - 2zA), and since (D_x A)'[U] = D_x(A'[U]),

        [K_i, K_j] = Phi'(A_j'[K_i] - A_i'[K_j], q_j'[K_i] - q_i'[K_j])
                     + (r_j'[K_i] - r_i'[K_j], -2 (K_i^2 A_j - K_j^2 A_i)).

    It is formed on A, q and r, cleared together with K (``_frame``):
    X = A_j'[K_i] - A_i'[K_j] in a dict of its own, then component 1 is r_j'[K_i] - r_i'[K_j] + D_x X and component 2 is
    q_j'[K_i] - q_i'[K_j] - 2zX - 2 K_i^2 A_j + 2 K_j^2 A_i, the last two
    from the z-partial of q less 2A (``_packed_parts``, part 0 for A).  A
    field with no antiderivative takes A = 0, r = K^1 and q = K^2, which
    is G'[F] - F'[G] term for term.  X and each bracket component are one
    dict: the derivatives along K_i of field j's parts are added into it,
    then those along K_j of field i's with its partials negated (once per
    field for the family), partial sums of that pair's output.

    The widths come from ``_sum_bounds`` with one row per pair: the
    ``_frechet_bound`` terms of q, r (or K) of each field along the other,
    and the ``_frame_bounds`` of each antiderivative.  A field's table and
    partials are dropped after the last pair that names it, so only the
    live ones are held.  A zero bracket is yielded as zero; a nonzero one
    is unpacked exactly and divided by the product of the scales.  No
    pairs, no width.  A pair of fields with different component counts,
    or a certificate of a field that has not two components, raises
    ValueError before any bracket is formed.
    """
    pairs = list(pairs)
    integrals = integrals or {}
    for i, j in pairs:
        if len(fields[i]) != len(fields[j]):
            raise ValueError(f"fields {i} and {j} have {len(fields[i])} and "
                             f"{len(fields[j])} components")
    for i in integrals:
        if len(fields[i]) != 2:
            raise ValueError(f"field {i} has {len(fields[i])} components; "
                             "the linearizing frame needs 2")
    if not pairs:
        return
    scaled, local, antider = {}, {}, {}  # K; (r, q), or K itself; (A,): at one scale
    for i in {i for pair in pairs for i in pair}:
        if i in integrals:
            scaled[i], local[i], antider[i] = _frame(fields[i], integrals[i])
        else:
            scaled[i] = local[i] = IntegerField(fields[i])
    rows = []
    for i, j in pairs:
        row = [_frechet_bound(local[j], scaled[i]), _frechet_bound(local[i], scaled[j])]
        for a, k in ((j, i), (i, j)):
            if a in antider:
                row += _frame_bounds(antider[a], scaled[k])
        rows.append(row)
    height, weight = _sum_bounds(rows)
    kernel = _Kernel(max(f.nvars for f in (*scaled.values(), *local.values(),
                                           *antider.values())),
                     _word_bits(weight), _word_bits(height))
    tables = {i: _DxTable(kernel, f) for i, f in scaled.items()}
    scales = {i: f.scale for i, f in scaled.items()}
    plus = {i: _packed_parts(kernel, tables[i], local[i], antider.get(i)) for i in tables}
    del scaled, local, antider  # only the tables keep their fields
    minus = {i: [_negated(p) for p in plus[i]] for i in {i for i, _ in pairs}}
    minus_two_z = {kernel.pack(((jet(1, 0), 1),)): -2}
    last = {i: k for k, pair in enumerate(pairs) for i in pair}
    for k, (i, j) in enumerate(pairs):
        # X first, as part 0: through A it reads the deepest table rows that
        # K^1 names, so a deep jet meets a table's growth bound as in the
        # direct bracket
        x, *bracket = sums = [{} for _ in plus[j]]
        for out, p_j, p_i in zip(sums, plus[j], minus[i]):
            kernel.frechet(out, p_j, tables[i])
            kernel.frechet(out, p_i, tables[j])
        if x:
            accumulate(bracket[0], kernel.dx(x).items())
            kernel.mul_add(bracket[1], x, minus_two_z)
        for f in {i, j}:
            if last[f] == k:
                del plus[f], tables[f]
                minus.pop(f, None)
        if not any(bracket):
            yield EvoField(DP_ZERO for _ in bracket)
            continue
        unscale = dividing_by(scales[i] * scales[j])
        yield EvoField(kernel.unpacked(comp, unscale) for comp in bracket)


def commutator(F: EvoField, G: EvoField) -> EvoField:
    """Bracket [F, G] = G'[F] - F'[G], componentwise: ``commutators`` of one pair."""
    return next(commutators((F, G), [(0, 1)]))


def operator_sum(fields, rows) -> list:
    """The components sum over (c, k, j, p) in rows[i] of c D_x^p fields[k][j].

    Each field is an ``EvoField``, c is a ``DiffPoly`` and p >= 0: a
    caller reads D_x^{-1} as D_x^0 of one more field, the antiderivative
    it has certified.  The fields are cleared together, to one scale S_K
    (``_integer_fields``), and the coefficients c to their own scale S_c,
    and all are packed on one kernel (``_Kernel``) at the widths
    ``_sum_bounds`` gives, the coefficient norms taken at S_c.  Each
    field's D_x powers come from its ``_DxTable``, so the growth and
    memory budgets apply.  Each output component is one dict of S_K S_c
    times its terms, one ``mul_add`` per term; each of its terms is
    unpacked once, its digits read straight into the division by S_K S_c.
    """
    terms = [c for row in rows for c, _, _, _ in row]
    scaled = _integer_fields(fields)
    coeffs = IntegerField(EvoField(terms))

    def image_bound(k, j, p):
        f = scaled[k]
        return f.dx_gain(p) * f.norms[j], f.weight + p * f.growth

    heights = iter(zip(coeffs.norms, coeffs.weights))
    height, weight = _sum_bounds([[next(heights) + image_bound(k, j, p) for _, k, j, p in row]
                                  for row in rows])
    nvars = max([f.nvars for f in scaled] + [d + 1 for q in terms for d in q.depvars()])
    kernel = _Kernel(nvars, _word_bits(weight), _word_bits(height))
    tables = {k: _DxTable(kernel, scaled[k]) for k in {k for row in rows for _, k, _, _ in row}}
    packed = iter(kernel.pack_field(coeffs))
    unscale = dividing_by(scaled[0].scale * coeffs.scale)
    comps = []
    for row in rows:
        acc: dict = {}
        for (_, k, j, p), c in zip(row, packed):
            kernel.mul_add(acc, c, tables[k].get(j, p))
        comps.append(kernel.unpacked(acc, unscale))
    return comps


def dt_along(f: DiffPoly, system) -> DiffPoly:
    """Total time derivative of f along the flow of a system."""
    return f.partial_t() + frechet(f, system.rhs)


def dt_euler_rows(monos, field: EvoField) -> dict:
    """The Euler images of D_t m along u_t = field, one row per image term.

    monos are jet monomials with positive exponents.  Returns
    {(d, mu): {col: c}}, c the coefficient of the monomial mu in
    E_d(D_t monos[col]), with rows and entries in no particular order.  The
    labels (d, mu) are opaque and distinct, one per image term: mu is the
    monomial as the call's own ``_Kernel`` packs it, never unpacked, since
    the density search reads only the rows.  The field is scaled to
    integer polynomial coefficients and packed once, so the Frechet
    derivative and the Euler operator run on ints over one shared D_x
    table; each distinct packed image coefficient is unpacked and unscaled
    once.

    The widths: for m of degree at most D and jet order at most r,
    D_t m = sum over (d, i) of dm/du_(d,i) D_x^i K_d is one ``_sum_bounds``
    term (D, D - 1, dx_gain(r) |K|_1, weight + r g), g the growth of K, so
    it has norm at most H and |exponent| sums at most W, and jet order at
    most T = r + top.  A jet partial multiplies a norm by at most W and
    raises an |exponent| sum by at most g/2; one D_x multiplies a norm by
    at most the largest |exponent| sum, at most V = W + g/2 + T g, and
    raises it by at most g.  So the Euler image
    sum_{i <= T} (-D_x)^i d(D_t m)/du_(d,i), and every partial sum of its
    Horner form, has norm at most H W sum_{i <= T} V^i, and every
    monomial formed, K's own included, has |exponent| sum at most
    max(V, weight).  With no monomial of positive degree (D_t 1 = 0) there
    are no rows, and no kernel is built.
    """
    if any(not is_jet(g) or e < 0 for m in monos for g, e in m):
        raise ValueError("density monomials must be jets with positive exponents")
    degree = max(map(mono_degree, monos), default=0)
    if not degree:
        return {}
    k = IntegerField(field)
    order = max((mono_max_order(m) or 0 for m in monos), default=0)
    height, w = _sum_bounds([[(degree, degree - 1, k.dx_gain(order) * k.norm,
                               k.weight + order * k.growth)]])
    top = order + k.top
    v = w + k.growth // 2 + top * k.growth
    kernel = _Kernel(k.nvars, _word_bits(max(v, k.weight)),
                     _word_bits(height * w * sum(v ** i for i in range(top + 1))))
    table = _DxTable(kernel, k)
    unscale = dividing_by(k.scale)
    unpacked: dict = {}
    rows: dict = {}
    for col, m in enumerate(monos):
        dt: dict = {}
        kernel.frechet(dt, kernel.partials({kernel.pack(m): 1}), table)
        for d, image in enumerate(kernel.euler(dt, len(field), k.growth, v)):
            for mu, c in image.items():
                coeff = unpacked.get(c)
                if coeff is None:
                    coeff = unpacked[c] = unscale(kronecker_unpack(c, kernel.coeff_bits))
                rows.setdefault((d, mu), {})[col] = coeff
    return rows
