"""Cross-checks against an independent sympy implementation.

The core operations (total derivative, Euler operator, directional
derivative, bracket) are re-implemented here from their definitions
using sympy jets and compared with the exact engine on random inputs.
The linearizing substitution, which the engine checks in s = sqrt(u),
is checked here in the paper's own sqrt(u) form.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
import sympy as sp

from jetsym.jetalgebra import DiffPoly, T_GEN, X_GEN, jet_depvar, jet_order
from jetsym.varcalc import commutator, commutators, euler_operator, frechet

NORD = 9
ALPHA = sp.Symbol("alpha")
XS, TS = sp.Symbol("x"), sp.Symbol("t")
WS = sp.symbols(f"w0:{NORD}")
ZS = sp.symbols(f"z0:{NORD}")


def to_sympy(f: DiffPoly):
    acc = sp.Integer(0)
    for mono, coeff in f.terms.items():
        num = sp.Poly(reversed([sp.Rational(c) for c in coeff.num.coeffs or (0,)]),
                      ALPHA).as_expr()
        den = sp.Poly(reversed([sp.Rational(c) for c in coeff.den.coeffs]),
                      ALPHA).as_expr()
        term = num / den
        for g, e in mono:
            if g == X_GEN:
                base = XS
            elif g == T_GEN:
                base = TS
            else:
                base = (WS if jet_depvar(g) == 0 else ZS)[jet_order(g)]
            term *= base ** e
        acc += term
    return acc


def sym_dx(e):
    out = sp.diff(e, XS)
    for i in range(NORD - 1):
        out += sp.diff(e, WS[i]) * WS[i + 1] + sp.diff(e, ZS[i]) * ZS[i + 1]
    return sp.expand(out)


def sym_euler(e, which):
    gens = WS if which == 0 else ZS
    out = sp.Integer(0)
    for i in range(NORD):
        d = sp.diff(e, gens[i])
        for _ in range(i):
            d = sym_dx(d)
        out += (-1) ** i * d
    return sp.expand(out)


def sym_chains(k1, k2):
    """The D_x powers of (k1, k2) below order NORD."""
    d1, d2 = [k1], [k2]
    for _ in range(NORD - 1):
        d1.append(sym_dx(d1[-1]))
        d2.append(sym_dx(d2[-1]))
    return d1, d2


def sym_frechet(e, k1, k2, chains=None):
    d1, d2 = chains or sym_chains(k1, k2)
    out = sp.Integer(0)
    for i in range(NORD):
        out += sp.diff(e, WS[i]) * d1[i] + sp.diff(e, ZS[i]) * d2[i]
    return sp.expand(out)


def sqrt_u_residuals(w_coeff):
    """Residuals of the Burgers-type system under w = w_coeff u_x/u,
    z = -v/(2 sqrt u), with u and v evolving by the triangular system."""
    x, t = sp.symbols("x t")
    u, v = sp.Function("u")(x, t), sp.Function("v")(x, t)
    w = w_coeff * u.diff(x) / u
    z = -v / (2 * sp.sqrt(u))
    wx, zx = w.diff(x), z.diff(x)
    a = ALPHA
    residuals = (
        w.diff(t) - (wx.diff(x) + 8 * w * wx + (2 - 4 * a) * z * zx),
        z.diff(t) - ((1 - 2 * a) * zx.diff(x) - 4 * a * z * wx + (4 - 8 * a) * w * zx
                     - (4 + 8 * a) * w ** 2 * z + (-2 + 4 * a) * z ** 3))
    flow = {u.diff(t): u.diff(x, 2) + (1 - 2 * a) * v ** 2,
            v.diff(t): (1 - 2 * a) * v.diff(x, 2)}
    return [sp.simplify(r.subs(flow).doit()) for r in residuals]


def assert_sym_zero(expr):
    assert sp.simplify(sp.together(expr)) == 0


from conftest import random_diffpoly, random_evofield, random_framed_field


class TestAgainstSympy:
    def test_total_derivative(self):
        rng = random.Random(101)
        for _ in range(25):
            f = random_diffpoly(rng, with_xt=True, rational=True)
            assert_sym_zero(to_sympy(f.dx()) - sym_dx(to_sympy(f)))

    def test_euler_operator(self):
        rng = random.Random(103)
        for _ in range(25):
            f = random_diffpoly(rng, max_order=3, terms=4)
            for d in (0, 1):
                assert_sym_zero(to_sympy(euler_operator(f, d))
                                - sym_euler(to_sympy(f), d))

    def test_frechet(self):
        rng = random.Random(107)
        for _ in range(20):
            f = random_diffpoly(rng)
            k = random_evofield(rng)
            got = to_sympy(frechet(f, k))
            want = sym_frechet(to_sympy(f), to_sympy(k[0]), to_sympy(k[1]))
            assert_sym_zero(got - want)

    def test_commutator(self):
        # rational coefficients send the bracket through its scaled path
        rng = random.Random(109)
        with_denominators = 0
        for rational in [False] * 10 + [True] * 10:
            f = random_evofield(rng, max_order=1, terms=2, rational=rational)
            g = random_evofield(rng, max_order=1, terms=2, rational=rational)
            with_denominators += any(c.den.degree > 0 for comp in (*f, *g)
                                     for c in comp.terms.values())
            got = commutator(f, g)
            for c in range(2):
                want = (sym_frechet(to_sympy(g[c]), to_sympy(f[0]), to_sympy(f[1]))
                        - sym_frechet(to_sympy(f[c]), to_sympy(g[0]), to_sympy(g[1])))
                assert_sym_zero(to_sympy(got[c]) - want)
        assert with_denominators >= 5

    def test_commutators_in_the_frame(self):
        # a family whose fields enter with antiderivatives: exact, D_x A + c w,
        # with a remainder, and in x and t; the last one enters as it is
        rng = random.Random(113)
        fields, integrals = [], {}
        for kind in (0, 1, 2, 3):
            k, integrals[len(fields)] = random_framed_field(rng, kind, terms=2)
            fields.append(k)
        fields.append(random_framed_field(rng, 2, terms=2)[0])
        pairs = [(i, j) for i in range(len(fields)) for j in range(i + 1, len(fields))]
        exprs = [[to_sympy(c) for c in k] for k in fields]
        chains = [sym_chains(*k) for k in exprs]
        nonzero = 0
        for (i, j), got in zip(pairs, commutators(fields, pairs, integrals)):
            f, g = exprs[i], exprs[j]
            for c in range(2):
                want = (sym_frechet(g[c], *f, chains[i])
                        - sym_frechet(f[c], *g, chains[j]))
                assert sp.cancel(to_sympy(got[c]) - want) == 0
            nonzero += not got.is_zero
        assert nonzero == len(pairs)

    def test_substitution_in_sqrt_u(self):
        assert sqrt_u_residuals(sp.Rational(1, 4)) == [0, 0]
        assert all(r != 0 for r in sqrt_u_residuals(sp.Rational(1, 3)))

