"""Variational calculus: Euler operator, constructive D_x^{-1}, Frechet
derivative, commutator of evolutionary fields, and D_t along a system.

The integration constant of D_x^{-1} is always zero: antiderivatives are
produced with no free term, and a free term in the integrand is an
exactness obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffield import RF_ONE, common_denominator
from .errors import ExplicitXTDependence, NonIntegerExponentPath
from .jetalgebra import DP_ZERO, DiffPoly, EvoField, is_jet, jet, jet_order


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

    Coefficients may involve other generators; the result must have
    integer exponents, otherwise the exponent lattice would silently be
    extended and we abort instead.
    """
    terms = {}
    for mono, coeff in f.terms.items():
        e2 = 0
        rest = []
        for g, e in mono:
            if g == gen:
                e2 = e
            else:
                rest.append((g, e))
        if e2 == -2 or e2 % 2 != 0:
            raise NonIntegerExponentPath(
                f"integration in a single generator hit exponent {e2}/2")
        ne2 = e2 + 2
        nm = tuple(sorted(rest + [(gen, ne2)]))
        terms[nm] = coeff * Fraction(2, ne2)
    return DiffPoly(terms)


def _top_block_linear(f: DiffPoly, k: int) -> bool:
    """True when every monomial of f is at most linear in order-k jets."""
    for mono in f.terms:
        top = 0
        for g, e2 in mono:
            if is_jet(g) and jet_order(g) == k:
                top += e2
        if top > 2:
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


def _poly_scaled(field: EvoField):
    """(c * field, c) for c the lcm of the coefficient denominators."""
    c = common_denominator(coeff for comp in field for coeff in comp.terms.values())
    if c == RF_ONE:
        return field, RF_ONE
    return field.scalar_mul(c), c


def commutator(F: EvoField, G: EvoField, prepared: dict | None = None) -> EvoField:
    """Bracket [F, G] = G'[F] - F'[G], componentwise.

    The bracket is bilinear over constants, so it is formed on both fields
    scaled to polynomial coefficients, where every coefficient operation
    stays in the fast polynomial path, and a nonzero result is divided
    back by the product of the scales.  A loop that brackets the same
    fields again passes one dict of its own as ``prepared``, so that each
    field is scaled and differentiated once; it changes no result.
    """
    entries = []
    for field in (F, G):
        entry = None if prepared is None else prepared.get(field)
        if entry is None:
            scaled, scale = _poly_scaled(field)
            entry = (scaled, scale, DxChain(scaled))
            if prepared is not None:
                prepared[field] = entry
        entries.append(entry)
    (f, cf, chain_f), (g, cg, chain_g) = entries
    bracket = EvoField(frechet(g[c], f, chain_f) - frechet(f[c], g, chain_g)
                       for c in range(len(f)))
    scale = cf * cg
    if bracket.is_zero or scale == RF_ONE:
        return bracket
    return bracket.scalar_mul(scale.inverse())


def dt_along(f: DiffPoly, system) -> DiffPoly:
    """Total time derivative of f along the flow of a system."""
    return f.partial_t() + frechet(f, system.rhs)
