"""Shared helpers: deterministic random generators for algebra objects."""

from fractions import Fraction

import pytest

from jetsym.coeffield import AlphaPoly, RationalFunction
from jetsym.jetalgebra import DP_ZERO, DiffPoly, EvoField, jet
from jetsym.operators import OperatorMatrix, OpTerm
from jetsym.varcalc import ExactnessCertificate, _Kernel, _word_bits


def random_fraction(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_alpha_poly(rng, max_degree=2):
    deg = rng.randint(0, max_degree)
    coeffs = [random_fraction(rng) for _ in range(deg + 1)]
    return AlphaPoly(coeffs)


def random_rf(rng, rational=False):
    num = random_alpha_poly(rng)
    if num.is_zero:
        num = AlphaPoly((1,))
    if rational and rng.random() < 0.5:
        den = random_alpha_poly(rng, 1)
        if den.is_zero:
            den = AlphaPoly((1,))
        return RationalFunction(num, den)
    return RationalFunction(num)


def random_nonzero_rf(rng, rational=False):
    while True:
        x = random_rf(rng, rational)
        if not x.is_zero:
            return x


def random_monomial(rng, nvars=2, max_order=2, max_factors=3, with_xt=False):
    gens = [jet(d, i) for d in range(nvars) for i in range(max_order + 1)]
    if with_xt:
        gens += [0, 1]  # X_GEN, T_GEN
    counts = {}
    for _ in range(rng.randint(0, max_factors)):
        g = rng.choice(gens)
        counts[g] = counts.get(g, 0) + 1
    return tuple(sorted(counts.items()))


def random_diffpoly(rng, nvars=2, max_order=2, terms=3, max_factors=3,
                    with_xt=False, rational=False):
    pairs = []
    for _ in range(rng.randint(1, terms)):
        m = random_monomial(rng, nvars, max_order, max_factors, with_xt)
        pairs.append((m, random_rf(rng, rational)))
    return DiffPoly.from_terms(pairs)


def random_zero_free_poly(rng, nvars=2, max_order=2, terms=3):
    """Random x,t-free polynomial with zero free term."""
    while True:
        p = random_diffpoly(rng, nvars, max_order, terms)
        p = p - DiffPoly.constant(p.free_term())
        if not p.is_zero:
            return p


def random_evofield(rng, nvars=2, max_order=1, terms=2, rational=False):
    return EvoField(random_diffpoly(rng, nvars, max_order, terms, rational=rational)
                    for _ in range(nvars))


def random_framed_field(rng, kind, alpha0=None, terms=4):
    """A random (w, z) field K and the certificate K^1 = D_x A + r of its
    first component: r = 0 (kind 0), c w (kind 1), a random remainder
    (kind 2), and both components and A in x and t as well (kind 3, as
    in S).  Symbolic coefficients are rational functions of alpha; at
    alpha0 they are drawn as polynomials and specialized."""
    rational, with_xt = alpha0 is None, kind == 3

    def draw(max_order):
        p = random_diffpoly(rng, max_order=max_order, terms=terms, rational=rational,
                            with_xt=with_xt)
        return p if alpha0 is None else p.specialize(alpha0)
    a = draw(2)
    if kind == 0:
        r = DP_ZERO
    elif kind == 1:
        r = DiffPoly.var(jet(0, 0)).scalar_mul(rng.choice((-3, -1, 2, 5)))
    else:
        r = draw(3)
    return EvoField((a.dx() + r, draw(3))), ExactnessCertificate(a, r)


def split(matrix):
    """``matrix`` as ``apply_sum`` takes it: the pair of its local terms,
    on K, and its D_x^{-1} terms at D_x^0, on the antiderivative (A,) of
    column 0.  The D_x^{-1} terms must sit in column 0."""
    assert all(t.power >= 0 for row in matrix.entries for e in row[1:] for t in e)
    on_k = [[tuple(t for t in e if t.power >= 0) for e in row] for row in matrix.entries]
    on_a = [[tuple(OpTerm(t.coeff, 0) for t in row[0] if t.power < 0)] for row in matrix.entries]
    return OperatorMatrix(on_k), OperatorMatrix(on_a)


def kernel_widths(monkeypatch, run, kernels=None) -> list:
    """(nvars, exponent bits, coefficient bits) of every packed kernel that
    run() builds, in order; the kernels themselves go to the list kernels,
    if one is given."""
    widths = []
    init = _Kernel.__init__

    def spy_init(self, nvars, bits, coeff_bits):
        widths.append((nvars, bits, coeff_bits))
        if kernels is not None:
            kernels.append(self)
        init(self, nvars, bits, coeff_bits)
    with monkeypatch.context() as patch:
        patch.setattr(_Kernel, "__init__", spy_init)
        run()
    return widths


def one_bit_narrower(bounds, index):
    """``_sum_bounds`` with its bound index halved, so that the width taken
    of it is exactly one bit narrower."""
    def narrowed(rows):
        out = list(bounds(rows))
        half = out[index] >> 1
        assert _word_bits(half) == _word_bits(out[index]) - 1
        out[index] = half
        return tuple(out)
    return narrowed


@pytest.fixture(scope="session")
def fs():
    from jetsym.systems import builtin_system
    return builtin_system("fs")


@pytest.fixture(scope="session")
def ts1():
    from jetsym.systems import builtin_system
    return builtin_system("ts1")


@pytest.fixture(scope="session")
def fs_hierarchy_8():
    from jetsym.hierarchy import fs_hierarchy
    return fs_hierarchy(8)


# Reference JSON writers: the straightforward serialization, term by term
# and coefficient by coefficient with no memo, that the one-pass
# ``jetalgebra.JsonWriter`` must match byte for byte.

def reference_coeff_json(c: RationalFunction) -> dict:
    return {"num": [str(q) for q in c.num.coeffs], "den": [str(q) for q in c.den.coeffs]}


def reference_poly_json(p: DiffPoly) -> list:
    from jetsym.jetalgebra import T_GEN, X_GEN, jet_depvar, jet_order
    out = []
    for mono, coeff in p.sorted_terms():
        exps = []
        for g, e in mono:
            if g == X_GEN:
                gj = "x"
            elif g == T_GEN:
                gj = "t"
            else:
                gj = [jet_depvar(g), jet_order(g)]
            exps.append([gj, e])
        out.append({"exps": exps, "coeff": reference_coeff_json(coeff)})
    return out


def reference_field_json(f: EvoField) -> list:
    return [reference_poly_json(c) for c in f]


def reference_hierarchy_json(h) -> dict:
    out = {
        "system": h.system.name,
        "parameter": h.system.parameter,
        "specialized_at": None if h.specialized_at is None else str(h.specialized_at),
        "members": [reference_field_json(m) for m in h.members],
        "provenance": list(h.provenance),
        "certificates": [
            {"n": c.n,
             "prev": reference_poly_json(c.prev.antiderivative),
             "prevprev": reference_poly_json(c.prevprev.antiderivative)}
            for c in h.certificates],
    }
    if h.b_sequence is not None:
        out["b_sequence"] = [reference_coeff_json(b) for b in h.b_sequence]
    return out
