"""Differential polynomials, the total derivative, and specialization."""

import random
from fractions import Fraction

import pytest

from jetsym.coeffield import RationalFunction, rf
from jetsym.errors import PoleAtParameter
from jetsym.hierarchy import fs_seed
from jetsym.jetalgebra import (DP_ONE, DiffPoly, EvoField, T_GEN, X_GEN, jet,
                               jet_name, mono_mul)
from jetsym.systems import builtin_system, parse_expression

from conftest import random_diffpoly

W, Z = 0, 1
w = DiffPoly.var(jet(W, 0))
w1 = DiffPoly.var(jet(W, 1))
z = DiffPoly.var(jet(Z, 0))
z1 = DiffPoly.var(jet(Z, 1))


def fs_expr(src):
    return parse_expression(src, ("w", "z"), "alpha")


class TestArithmetic:
    def test_add_merges(self):
        assert w * w1 + w * w1 == fs_expr("2*w*w_x")

    def test_fs_third_term(self):
        coeff = rf(2) - rf(4) * RationalFunction.param()
        got = (z * z1).scalar_mul(coeff)
        fs = builtin_system("fs")
        mono = tuple(sorted([(jet(Z, 0), 1), (jet(Z, 1), 1)]))
        assert fs.rhs[0].coefficient(mono) == coeff
        assert got.coefficient(mono) == coeff

    def test_difference_of_squares(self):
        assert (w1 + z) * (w1 - z) == fs_expr("w_x^2 - z^2")

    def test_cancellation_gives_empty_mapping(self):
        f = fs_expr("w*w_x + 3*z")
        assert (f - f).terms == {}
        g = fs_expr("z_xx*w - w^2")
        assert ((f + g) - g).terms == f.terms

    def test_unit_product_returns_other_operand(self):
        f = fs_expr("w*w_x + 3*z")
        one = DiffPoly.constant(1)
        assert one * f == f and f * one == f
        assert DP_ONE * f == f and f * DP_ONE == f
        for c in (DiffPoly.constant(2), DiffPoly.constant(-1), w):
            want = DiffPoly.from_terms((mono_mul(m, n), a * b) for m, a in c.terms.items()
                                       for n, b in f.terms.items())
            for got in (c * f, f * c):
                assert got is not f and got == want


class TestTotalDerivative:
    def test_jet_bump(self):
        assert w.dx() == w1

    def test_product_with_x(self):
        x = DiffPoly.var(X_GEN)
        assert (x * w).dx() == w + x * w1

    def test_negative_exponent_chain_rule(self):
        u_inv = DiffPoly({((jet(0, 0), -1),): rf(1)})
        got = u_inv.dx()
        expected = DiffPoly({
            tuple(sorted([(jet(0, 0), -2), (jet(0, 1), 1)])): rf(-1)})
        assert got == expected

    def test_t_is_inert(self):
        t = DiffPoly.var(T_GEN)
        assert t.dx().is_zero
        assert DiffPoly.var(X_GEN).dx() == DiffPoly.constant(1)

    def test_derivation_law_random(self):
        rng = random.Random(23)
        for _ in range(150):
            f = random_diffpoly(rng, with_xt=True, rational=True)
            g = random_diffpoly(rng, with_xt=True, rational=True)
            assert (f * g).dx() == f.dx() * g + f * g.dx()

    def test_order_growth(self):
        rng = random.Random(29)
        checked = 0
        while checked < 120:
            f = random_diffpoly(rng)
            k = f.max_jet_order()
            if k is None or f.contains_xt():
                continue
            assert f.dx().max_jet_order() == k + 1
            checked += 1


class TestSpecialize:
    def test_pole_identifies_monomial(self):
        _, k2 = fs_seed()
        with pytest.raises(PoleAtParameter) as exc:
            k2[0].specialize(Fraction(1, 2))
        assert exc.value.monomial is not None

    def test_fs_term_at_zero(self):
        f = fs_expr("(2 - 4*alpha)*z*z_x")
        assert f.specialize(0) == fs_expr("2*z*z_x").specialize(0)

    def test_seed_second_component_at_one(self):
        # -1/(2a-1) = -1 at alpha = 1: the w_x z and w^2 z blocks flip in
        # against the raw equation text, exercising the exact values
        _, k2 = fs_seed()
        got = k2[1].specialize(1)
        expected = parse_expression(
            "z_xx + 4*w*z_x + 4*z*(w_x + 3*w^2) - 2*z^3", ("w", "z"), None
        ).specialize(0)
        assert got == expected

    def test_commutes_with_dx(self):
        rng = random.Random(31)
        pts = [Fraction(0), Fraction(1), Fraction(3, 2)]
        done = 0
        while done < 100:
            f = random_diffpoly(rng, with_xt=True, rational=True)
            pt = rng.choice(pts)
            try:
                lhs = f.dx().specialize(pt)
                rhs = f.specialize(pt).dx()
            except PoleAtParameter:
                continue
            assert lhs == rhs
            done += 1


class TestMaxJetOrder:
    def test_examples(self):
        assert w1.max_jet_order() == 1
        assert DiffPoly.constant(5).max_jet_order() is None
        assert fs_expr("z_xxx + w*z_x").max_jet_order() == 3


class TestLattice:
    def test_monomials_closed_under_multiplication(self):
        m1 = ((jet(0, 0), -1), (jet(0, 1), 1))
        m2 = ((jet(0, 0), 2),)
        assert mono_mul(m1, m2) == ((jet(0, 0), 1), (jet(0, 1), 1))


class TestRendering:
    def test_jet_names(self):
        assert jet_name("w", 0) == "w"
        assert jet_name("w", 1) == "w_x"
        assert jet_name("w", 2) == "w_xx"
        assert jet_name("w", 3) == "w_3"
        assert jet_name("z", 7) == "z_7"

    def test_text_is_stable(self):
        f = fs_expr("w_xx + 8*w*w_x + (2 - 4*alpha)*z*z_x")
        assert f.text(("w", "z")) == f.text(("w", "z"))
        assert "w_xx" in f.text(("w", "z"))

    def test_json_round_trip_random(self):
        rng = random.Random(37)
        for _ in range(120):
            f = random_diffpoly(rng, with_xt=True, rational=True)
            assert DiffPoly.from_json(f.to_json()) == f

    def test_json_half_exponent(self):
        u_inv = DiffPoly({((jet(0, 0), -1),): rf(1)})
        data = u_inv.to_json()
        assert data[0]["exps"][0][1] == -1
        assert DiffPoly.from_json(data) == u_inv
        for exp in ("-1/2", "3/2", 1.5, True):
            data[0]["exps"][0][1] = exp
            with pytest.raises(ValueError):
                DiffPoly.from_json(data)

    def test_json_canonical_order_stable(self):
        import json
        f = fs_expr("w_xx + 8*w*w_x + (2 - 4*alpha)*z*z_x + z^3 - 1/2")
        s1 = json.dumps(f.to_json())
        s2 = json.dumps(DiffPoly.from_json(f.to_json()).to_json())
        assert s1 == s2


class TestEvoField:
    def test_component_count(self, fs):
        assert len(fs.rhs) == 2

    def test_vector_ops(self):
        k = EvoField((w1, z1))
        assert (k + k) == k.scalar_mul(2)
        assert (k - k).is_zero

    def test_sum_refuses_mismatched_counts(self):
        k, short = EvoField((w, z)), EvoField((w,))
        for a, b in ((k, short), (short, k)):
            with pytest.raises(ValueError):
                a + b
            with pytest.raises(ValueError):
                a - b
