"""Shared helpers: deterministic random generators for algebra objects."""

from fractions import Fraction

import pytest

from jetsym.coeffield import AlphaPoly, RationalFunction
from jetsym.jetalgebra import DiffPoly, EvoField, jet
from jetsym.varcalc import _Kernel, _word_bits


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


def kernel_widths(monkeypatch, run) -> list:
    """(nvars, exponent bits, coefficient bits) of every packed kernel that
    run() builds, in order."""
    widths = []
    init = _Kernel.__init__

    def spy_init(self, nvars, bits, coeff_bits):
        widths.append((nvars, bits, coeff_bits))
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
