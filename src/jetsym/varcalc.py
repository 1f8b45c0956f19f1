"""Variational calculus: Euler operator, constructive D_x^{-1}, Frechet
derivative, commutator of evolutionary fields, D_t along a system, and
the Euler images of D_t that a density search solves for.

The integration constant of D_x^{-1} is always zero: antiderivatives are
produced with no free term, and a free term in the integrand is an
exactness obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffield import clear_denominators, kronecker_pack, kronecker_unpack
from .errors import ExplicitXTDependence, NonIntegerExponentPath
from .jetalgebra import (DP_ZERO, DiffPoly, EvoField, is_jet, jet, jet_order, mono_degree,
                         mono_max_order)


@dataclass(frozen=True)
class ExactnessCertificate:
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

    Repeatedly strips the highest jet order k: for each dependent
    variable d with d_k present the input must be affine in d_k with a
    coefficient free of order-k jets; that coefficient is integrated
    formally in d_{k-1} and the exact part subtracted.  The loop stops
    when the maximal order no longer decreases; whatever is left is the
    remainder, and remainder == 0 exactly when f lies in Im D_x within
    the zero-free-term polynomial class.
    """
    if f.contains_xt():
        raise ExplicitXTDependence("D_x^{-1} needs an x,t-free input")
    acc = DP_ZERO
    cur = f
    while not cur.is_zero:
        k = cur.max_jet_order()
        if k is None or k == 0:
            break
        if not _top_block_linear(cur, k):
            break
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
    return ExactnessCertificate(acc, cur)


class DxChain:
    """Lazily extended table of D_x powers of an evolutionary field."""

    def __init__(self, field: EvoField):
        self._rows = [[c] for c in field.components]

    def get(self, depvar: int, order: int) -> DiffPoly:
        row = self._rows[depvar]
        while len(row) <= order:
            row.append(row[-1].dx())
        return row[order]


def frechet(f: DiffPoly, K: EvoField, chain: DxChain | None = None) -> DiffPoly:
    """Directional derivative of f along K, summed over jet variables only.

    Explicit x and t in f are treated as constants.
    """
    top = f.max_jet_order()
    if top is None:
        return DP_ZERO
    if chain is None:
        chain = DxChain(K)
    out = DP_ZERO
    for d in sorted(f.depvars()):
        for i in range(top + 1):
            p = f.partial(jet(d, i))
            if p.is_zero:
                continue
            out = out + p * chain.get(d, i)
    return out


class _IntegerField:
    """A field scaled into Z[alpha] coefficients, with its height data.

    ``scale * field`` has the integer polynomial coefficients of ``comps``
    (one dict monomial -> int tuple per component).  For the height bound
    it keeps ``norm``, the sum of the L1 norms of all coefficients;
    ``weight``, the largest sum of |exponent| over the factors of one
    monomial (at least 1), which bounds the factor one D_x or one
    jet-summed partial derivative puts on the norm; ``growth``, what one
    D_x can add to that weight (0 while every exponent is a positive
    integer, else 2); and ``top``, the highest jet order.  ``packed``
    packs afresh on each call; ``commutators`` and ``dt_euler_rows`` call
    it once per field, at the one width their bound gives.
    """

    def __init__(self, field: EvoField):
        self.scale, polys = clear_denominators(
            [coeff for comp in field for coeff in comp.terms.values()])
        it = iter(polys)
        self.comps = [{m: next(it) for m in comp.terms} for comp in field]
        self.norm = sum(abs(c) for p in polys for c in p)
        exps = [[e for _, e in m] for comp in field for m in comp.terms]
        self.weight = max([1] + [sum(map(abs, e)) for e in exps])
        self.growth = 0 if all(e > 0 for es in exps for e in es) else 2
        self.top = field.max_jet_order() or 0

    def dx_gain(self, i: int) -> int:
        """Bound on norm(D_x^i c) / norm(c) for a component c."""
        gain = 1
        for j in range(i):
            gain *= self.weight + j * self.growth
        return gain

    def packed(self, bits: int):
        """(field, DxChain) with every coefficient packed at 2^bits."""
        field = EvoField(DiffPoly({m: kronecker_pack(p, bits) for m, p in comp.items()})
                         for comp in self.comps)
        return field, DxChain(field)


def _slot_bits(f: _IntegerField, g: _IntegerField) -> int:
    """Slot width in bits that makes the packed bracket of f and g exact.

    Each coefficient of [g, f]'s components is at most norm(f) norm(g)
    (weight(g) dx_gain_f(top g) + weight(f) dx_gain_g(top f)) in absolute
    value, by |pq|_1 <= |p|_1 |q|_1 and the weight bounds on D_x and the
    partials.  Balanced digits of width bits hold every such coefficient,
    so a packed value is zero exactly when its polynomial is; any wider
    slot would do as well.
    """
    height = f.norm * g.norm * (g.weight * f.dx_gain(g.top) + f.weight * g.dx_gain(f.top))
    return _word_bits(height)


def _word_bits(height: int) -> int:
    """Width of balanced digits that hold every int of absolute value at
    most height."""
    return height.bit_length() + 1


def _density_slot_bits(k: _IntegerField, degree: int, order: int) -> int:
    """Slot width in bits that makes the packed Euler images of D_t m exact.

    m is a jet monomial with positive exponents, of degree at most
    D = ``degree`` and jet order at most r = ``order``, and u_t = K is the
    field of k, scaled; write g for its growth and T = r + top.
    - D_t m = sum over (d, i) of (dm/du_{d,i}) D_x^i K_d.  The exponents
      of m sum to at most D, so its norm is at most D norm dx_gain(r);
      each of its monomials has |exponent| sum at most
      W = D - 1 + weight + r g, and jet order at most T.
    - A jet partial multiplies the norm by at most W and raises the
      |exponent| sum by at most g/2 (only a negative exponent grows).
      One D_x multiplies the norm by at most the largest |exponent| sum,
      which is at most V = W + g/2 + T g, and raises that sum by at
      most g.  So the Euler image sum_{i <= T} (-D_x)^i d(D_t m)/du_{d,i},
      and every partial sum its Horner evaluation forms, has norm at most
      H = D norm dx_gain(r) W sum_{i <= T} V^i.  The shared D_x table of
      K and the products in ``frechet`` stay below D norm dx_gain(r),
      which is at most H when D >= 1; D = 0 gives H = 0, since D_t of a
      constant is zero.
    Balanced digits of width ``_word_bits(H)`` therefore hold every
    coefficient the assembly forms, so a packed value is zero exactly when
    its polynomial is, and sums cancel where they cancel over the field.
    While every exponent is positive (g = 0), V = W and H is
    D norm dx_gain(r) sum_{i <= T} W^(i+1).
    """
    g = k.growth
    top = order + k.top
    w = degree - 1 + k.weight + order * g
    v = w + g // 2 + top * g
    height = degree * k.norm * k.dx_gain(order) * w * sum(v ** i for i in range(top + 1))
    return _word_bits(height)


def commutators(fields, pairs):
    """Yield the bracket [fields[i], fields[j]] for each index pair (i, j), in order.

    The bracket [F, G] = G'[F] - F'[G] is bilinear over constants, so it is
    formed on the fields scaled to integer polynomial coefficients, each
    packed into one int by Kronecker substitution.  Every field that a
    pair names is scaled, packed and given one ``DxChain`` once, at one slot
    width for the whole family: the largest ``_slot_bits`` over its pairs,
    which makes each of them exact.  ``frechet`` then runs on plain ints.
    A zero bracket is yielded as it is; a nonzero one is unpacked exactly
    and divided by the product of the scales.  No pairs, no width.
    """
    pairs = list(pairs)
    if not pairs:
        return
    scaled = {i: _IntegerField(fields[i]) for i in {i for pair in pairs for i in pair}}
    bits = max(_slot_bits(scaled[i], scaled[j]) for i, j in pairs)
    packed = {i: f.packed(bits) for i, f in scaled.items()}
    for i, j in pairs:
        (pf, chain_f), (pg, chain_g) = packed[i], packed[j]
        bracket = EvoField(frechet(pg[c], pf, chain_f) - frechet(pf[c], pg, chain_g)
                           for c in range(len(pf)))
        if not bracket.is_zero:
            unscale = (scaled[i].scale * scaled[j].scale).inverse()
            bracket = EvoField(DiffPoly({m: kronecker_unpack(v, bits) * unscale
                                         for m, v in comp.terms.items()})
                               for comp in bracket)
        yield bracket


def commutator(F: EvoField, G: EvoField) -> EvoField:
    """Bracket [F, G] = G'[F] - F'[G], componentwise: ``commutators`` of one pair."""
    return next(commutators((F, G), [(0, 1)]))


def dt_along(f: DiffPoly, system) -> DiffPoly:
    """Total time derivative of f along the flow of a system."""
    return f.partial_t() + frechet(f, system.rhs)


def dt_euler_rows(monos, field: EvoField) -> dict:
    """The Euler images of D_t m along u_t = field, one row per image term.

    monos are jet monomials with positive exponents.  Returns
    {(d, mu): {col: c}}, c the coefficient of mu in E_d(D_t monos[col]),
    with rows and entries in first-seen order.  The field is scaled to
    integer polynomial coefficients and packed once, at the width
    ``_density_slot_bits`` gives, so ``frechet`` and ``euler_operator``
    run on ints over one shared ``DxChain``; each distinct packed image
    coefficient is unpacked and unscaled once.
    """
    if any(not is_jet(g) or e < 0 for m in monos for g, e in m):
        raise ValueError("density monomials must be jets with positive exponents")
    k = _IntegerField(field)
    bits = _density_slot_bits(k, max(map(mono_degree, monos), default=0),
                              max((mono_max_order(m) or 0 for m in monos), default=0))
    packed, chain = k.packed(bits)
    unscale = k.scale.inverse()
    unpacked: dict = {}
    rows: dict = {}
    for col, m in enumerate(monos):
        dt = frechet(DiffPoly({m: 1}), packed, chain)
        for d in range(len(field)):
            for mu, v in euler_operator(dt, d).terms.items():
                coeff = unpacked.get(v)
                if coeff is None:
                    coeff = unpacked[v] = kronecker_unpack(v, bits) * unscale
                rows.setdefault((d, mu), {})[col] = coeff
    return rows
