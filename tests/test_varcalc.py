"""Euler operator, integration by parts, Frechet derivative, brackets, D_t."""

import random

import pytest

from jetsym.coeffield import AlphaPoly, RationalFunction, kronecker_pack
from jetsym.errors import ExplicitXTDependence, NonIntegerExponentPath
from jetsym.hierarchy import fs_seed, scaling_symmetry
from jetsym.jetalgebra import DP_ZERO, DiffPoly, EvoField, T_GEN, X_GEN, jet
from jetsym.systems import builtin_system, parse_expression
from jetsym.varcalc import (_IntegerField, _slot_bits, commutator, commutators, dt_along,
                            euler_operator, frechet, integrate_dx)

from conftest import (random_diffpoly, random_evofield, random_nonzero_rf,
                      random_zero_free_poly)

W, Z = 0, 1


def fs_expr(src):
    return parse_expression(src, ("w", "z"), "alpha")


class TestEulerOperator:
    def test_exact_derivative_annihilated(self):
        assert euler_operator(fs_expr("w_xx"), W).is_zero

    def test_square(self):
        assert euler_operator(fs_expr("w^2"), W) == fs_expr("2*w")

    def test_first_order_square(self):
        assert euler_operator(fs_expr("w_x^2"), W) == fs_expr("-2*w_xx")

    def test_rejects_explicit_x(self):
        f = DiffPoly.var(X_GEN) * fs_expr("w")
        with pytest.raises(ExplicitXTDependence):
            euler_operator(f, W)

    def test_annihilates_exact_random(self):
        rng = random.Random(41)
        for _ in range(150):
            g = random_zero_free_poly(rng)
            f = g.dx()
            assert euler_operator(f, W).is_zero
            assert euler_operator(f, Z).is_zero


class TestIntegrateDx:
    def test_product_rule_square(self):
        cert = integrate_dx(fs_expr("2*w*w_x"))
        assert cert.is_exact
        assert cert.antiderivative == fs_expr("w^2")

    def test_inexact_has_remainder(self):
        cert = integrate_dx(fs_expr("w_x^2"))
        assert not cert.is_exact
        assert euler_operator(cert.remainder, W) == fs_expr("-2*w_xx")

    def test_cross_product_rule(self):
        cert = integrate_dx(fs_expr("w_x*z + w*z_x"))
        assert cert.is_exact
        assert cert.antiderivative == fs_expr("w*z")

    def test_free_term_obstructs(self):
        cert = integrate_dx(fs_expr("2*w*w_x + 5"))
        assert not cert.is_exact
        assert cert.remainder == fs_expr("5")

    def test_antiderivative_has_zero_free_term(self):
        rng = random.Random(43)
        for _ in range(100):
            g = random_zero_free_poly(rng)
            cert = integrate_dx(g.dx())
            assert cert.antiderivative.free_term().is_zero

    def test_certificate_identity_random(self):
        rng = random.Random(47)
        for _ in range(150):
            f = random_diffpoly(rng, max_order=3, terms=4)
            cert = integrate_dx(f)
            assert cert.antiderivative.dx() + cert.remainder == f

    def test_exactness_equivalence_random(self):
        # remainder == 0 iff all Euler images vanish and free term is zero
        rng = random.Random(53)
        for _ in range(150):
            f = random_diffpoly(rng, max_order=2, terms=4)
            cert = integrate_dx(f)
            euler_zero = (euler_operator(f, W).is_zero
                          and euler_operator(f, Z).is_zero
                          and f.free_term().is_zero)
            assert cert.is_exact == euler_zero

    def test_left_inverse_of_dx_random(self):
        rng = random.Random(59)
        for _ in range(150):
            g = random_zero_free_poly(rng)
            cert = integrate_dx(g.dx())
            assert cert.is_exact
            assert cert.antiderivative == g

    def test_rejects_explicit_t(self):
        from jetsym.jetalgebra import T_GEN
        with pytest.raises(ExplicitXTDependence):
            integrate_dx(DiffPoly.var(T_GEN))

    def test_log_case_aborts(self):
        # integrand with 1/u * u_x pattern integrates to a log: not in class
        u_inv = DiffPoly.gen_power(jet(0, 0), -1)
        f = u_inv * DiffPoly.var(jet(0, 1))
        with pytest.raises(NonIntegerExponentPath):
            integrate_dx(f)


class TestFrechet:
    def test_along_translation_is_dx(self):
        k1 = EvoField((fs_expr("w_x"), fs_expr("z_x")))
        f = fs_expr("w*w_x")
        assert frechet(f, k1) == f.dx()
        assert frechet(f, k1) == fs_expr("w_x^2 + w*w_xx")

    def test_density_image_is_first_component(self):
        rng = random.Random(61)
        rho0 = fs_expr("w")
        for _ in range(20):
            k = random_evofield(rng)
            assert frechet(rho0, k) == k[0]

    def test_cubic(self):
        k = EvoField((DP_ZERO, fs_expr("z_x")))
        assert frechet(fs_expr("z^3"), k) == fs_expr("3*z^2*z_x")

    def test_derivation_in_f(self):
        rng = random.Random(67)
        for _ in range(100):
            f = random_diffpoly(rng)
            g = random_diffpoly(rng)
            k = random_evofield(rng)
            assert frechet(f * g, k) == frechet(f, k) * g + f * frechet(g, k)

    def test_commutes_with_dx(self):
        rng = random.Random(71)
        for _ in range(100):
            f = random_diffpoly(rng)  # x,t-free
            k = random_evofield(rng)
            assert frechet(f.dx(), k) == frechet(f, k).dx()


class TestCommutator:
    def test_antisymmetry_diagonal(self):
        k1 = EvoField((fs_expr("w_x"), fs_expr("z_x")))
        assert commutator(k1, k1).is_zero

    def test_seeds_commute(self):
        k1, k2 = fs_seed()
        assert commutator(k1, k2).is_zero

    def test_scaling_grades_translation(self):
        k1, _ = fs_seed()
        s = scaling_symmetry()
        assert commutator(s, k1) == k1

    def test_antisymmetry_random(self):
        rng = random.Random(73)
        for _ in range(100):
            f = random_evofield(rng)
            g = random_evofield(rng)
            assert (commutator(f, g) + commutator(g, f)).is_zero

    def test_jacobi_random(self):
        rng = random.Random(79)
        for _ in range(100):
            f = random_evofield(rng, max_order=1, terms=2)
            g = random_evofield(rng, max_order=1, terms=2)
            h = random_evofield(rng, max_order=1, terms=2)
            total = (commutator(f, commutator(g, h))
                     + commutator(g, commutator(h, f))
                     + commutator(h, commutator(f, g)))
            assert total.is_zero


def reference_bracket(f, g):
    """G'[F] - F'[G] formed by frechet over field coefficients, unpacked."""
    return EvoField(frechet(g[c], f) - frechet(f[c], g) for c in range(len(f)))


def random_laurent_field(rng, terms=3):
    """A field whose monomials carry negative exponents as well as positive."""
    gens = [jet(d, i) for d in range(2) for i in range(3)] + [X_GEN, T_GEN]
    comps = []
    for _ in range(2):
        pairs = []
        for _ in range(rng.randint(1, terms)):
            mono = {g: rng.choice((-2, -1, 1, 2)) for g in rng.sample(gens, 2)}
            pairs.append((tuple(sorted(mono.items())), random_nonzero_rf(rng, True)))
        comps.append(DiffPoly.from_terms(pairs))
    return EvoField(comps)


def wrapping_field():
    """(2^64 - alpha) w^2 in the first component: its bracket with (w, 0)
    has a coefficient that vanishes at 2^64."""
    w2 = ((jet(W, 0), 2),)
    return EvoField((DiffPoly({w2: RationalFunction(AlphaPoly((-2 ** 64, 1)))}), DP_ZERO))


class TestPackedBracket:
    def test_bound_exceeds_a_wrapping_width(self):
        # [F, G] has the coefficient 2^64 - alpha, which vanishes at 2^64:
        # packed at 64-bit slots it would read zero
        b0 = 64
        w2 = ((jet(W, 0), 2),)
        f = wrapping_field()
        g = EvoField((fs_expr("w"), DP_ZERO))
        ref = reference_bracket(f, g)
        p = ref[0].coefficient(w2)
        assert not p.is_zero and p.eval(2 ** b0) == 0
        assert kronecker_pack((2 ** b0, -1), b0) == 0
        pf, pg = _IntegerField(f), _IntegerField(g)
        bits = _slot_bits(pf, pg)
        assert bits > b0
        scaled = ref.scalar_mul(pf.scale * pg.scale)
        for comp in scaled:
            for coeff in comp.terms.values():
                assert coeff == RationalFunction(coeff.num)
                assert all(abs(c) < 2 ** (bits - 1) for c in coeff.num.coeffs)
        assert commutator(f, g) == ref

    @pytest.mark.parametrize("rational", [False, True])
    def test_matches_reference(self, rational):
        rng = random.Random(113 + rational)
        zero = nonzero = 0
        for i in range(40):
            f = EvoField(random_diffpoly(rng, max_order=2, terms=3, rational=rational,
                                         with_xt=i % 4 == 0) for _ in range(2))
            kind = i % 3
            if kind == 0:
                g = random_evofield(rng, max_order=2, terms=3, rational=rational)
            elif kind == 1:
                g = f.scalar_mul(random_nonzero_rf(rng, rational))
            else:
                f = EvoField((fs_expr("w_x"), fs_expr("z_x")))
                g = random_evofield(rng, max_order=2, terms=3, rational=rational)
            got = commutator(f, g)
            assert got == reference_bracket(f, g)
            zero += got.is_zero
            nonzero += not got.is_zero
        assert zero >= 20 and nonzero >= 10

    def test_negative_exponents(self):
        rng = random.Random(131)
        for _ in range(30):
            f, g = random_laurent_field(rng), random_laurent_field(rng)
            pf, pg = _IntegerField(f), _IntegerField(g)
            assert max(pf.growth, pg.growth) == 2
            assert commutator(f, g) == reference_bracket(f, g)


class TestCommutators:
    def test_family_matches_pairs(self, monkeypatch):
        rng = random.Random(97)
        fields = [random_evofield(rng, rational=True) for _ in range(3)]
        fields += [random_laurent_field(rng) for _ in range(2)]
        fields += [EvoField(random_diffpoly(rng, max_order=2, terms=3, rational=True,
                                            with_xt=True) for _ in range(2))
                   for _ in range(2)]
        fields.append(wrapping_field())
        n = len(fields)
        pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs += [(j, i) for i, j in pairs[n::3]]
        scaled = [_IntegerField(f) for f in fields]
        widths = [_slot_bits(scaled[i], scaled[j]) for i, j in pairs]
        # the family packs every pair at the widest pair's slot
        assert sum(w < max(widths) for w in widths) > len(pairs) // 2
        built = []
        monkeypatch.setattr("jetsym.varcalc._IntegerField",
                            lambda f: built.append(f) or _IntegerField(f))
        got = list(commutators(fields, pairs))
        monkeypatch.undo()
        assert len(got) == len(pairs)
        assert len(built) == n  # each field is scaled once per family
        nonzero = 0
        for (i, j), bracket in zip(pairs, got):
            assert bracket == commutator(fields[i], fields[j])
            assert bracket == reference_bracket(fields[i], fields[j])
            nonzero += not bracket.is_zero
        assert nonzero >= len(pairs) // 2

    def test_no_pairs_no_width(self, monkeypatch):
        def no_width(f, g):
            raise AssertionError("a width was computed")
        monkeypatch.setattr("jetsym.varcalc._slot_bits", no_width)
        assert list(commutators([fs_expr("w")], [])) == []


class TestDtAlong:
    def test_density_flow(self):
        fs = builtin_system("fs")
        assert dt_along(fs_expr("w"), fs) == fs.rhs[0]

    def test_explicit_time(self):
        from jetsym.jetalgebra import T_GEN
        fs = builtin_system("fs")
        assert dt_along(DiffPoly.var(T_GEN), fs) == DiffPoly.constant(1)

    def test_ts1_second_component(self):
        ts1 = builtin_system("ts1")
        v = DiffPoly.var(jet(1, 0))
        assert dt_along(v, ts1) == DiffPoly.var(jet(1, 2))
