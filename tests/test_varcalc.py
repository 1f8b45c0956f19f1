"""Euler operator, integration by parts, Frechet derivative, brackets, D_t."""

import random

import pytest

from jetsym.coeffield import AlphaPoly, RationalFunction, dividing_by, kronecker_pack, rf
from jetsym.errors import (DxBudgetExceeded, ExplicitXTDependence, JetOrderOutOfRange,
                           NonIntegerExponentPath)
from jetsym.hierarchy import fs_seed, scaling_symmetry
from jetsym.jetalgebra import DP_ZERO, TOP_ORDER, DiffPoly, EvoField, T_GEN, X_GEN, jet
from jetsym.systems import builtin_system, parse_expression
from jetsym.varcalc import (_frechet_bound, _IntegerField, _Kernel, _sum_bounds, _word_bits,
                            commutator, commutators, dt_along, euler_operator, frechet,
                            integrate_dx)

from conftest import (one_bit_narrower, random_diffpoly, random_evofield,
                      random_nonzero_rf, random_zero_free_poly)

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
        u_inv = DiffPoly({((jet(0, 0), -1),): rf(1)})
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


def pair_bounds(f, g):
    """``_sum_bounds`` of the packed bracket of the scaled fields f and g."""
    return _sum_bounds([[_frechet_bound(g, f), _frechet_bound(f, g)]])


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
        bits = _word_bits(pair_bounds(pf, pg)[0])
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
        widths = [_word_bits(pair_bounds(scaled[i], scaled[j])[0]) for i, j in pairs]
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
        def no_width(rows):
            raise AssertionError("a width was computed")
        monkeypatch.setattr("jetsym.varcalc._sum_bounds", no_width)
        assert list(commutators([fs_expr("w")], [])) == []

    def test_mismatched_component_counts_raise(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a field was scaled")
        monkeypatch.setattr("jetsym.varcalc._IntegerField", no_work)
        fields = [builtin_system("fs").rhs, EvoField((fs_expr("w"),))]
        for (i, j), counts in (((0, 1), "2 and 1"), ((1, 0), "1 and 2")):
            with pytest.raises(ValueError, match=f"^fields {i} and {j} have {counts} "):
                list(commutators(fields, [(i, j)]))


def random_packable_mono(rng, nvars, top, exps):
    """A monomial over x, t and the jets of nvars variables up to order top,
    with exponents drawn from exps; the top order itself is drawn often."""
    gens = [X_GEN, T_GEN] + [jet(d, i) for d in range(nvars)
                             for i in {0, 1, 2, top - 1, top, rng.randint(0, top)}]
    return tuple(sorted((g, rng.choice(exps)) for g in rng.sample(gens, rng.randint(0, 4))))


class TestPackedMonomials:
    """The packed exponent vectors of the bracket and density kernel."""

    def test_round_trip(self):
        rng = random.Random(401)
        for _ in range(300):
            nvars = rng.randint(1, 3)
            bits = rng.randint(2, 9)
            big = (1 << (bits - 1)) - 1  # the largest exponent the width holds
            exps = [e for e in (-big, -2, -1, 1, 2, 3, big) if e and abs(e) <= big]
            kernel = _Kernel(nvars, bits, 8)
            a = random_packable_mono(rng, nvars, TOP_ORDER, exps)
            b = random_packable_mono(rng, nvars, TOP_ORDER, exps)
            pa, pb = kernel.pack(a), kernel.pack(b)
            assert kernel.unpack(pa) == a and kernel.unpack(pb) == b
            # a product is a sum of ints, while its exponents stay in range
            prod = dict(a)
            for g, e in b:
                prod[g] = prod.get(g, 0) + e
            if all(abs(e) <= big for e in prod.values()):
                assert kernel.unpack(pa + pb) == tuple(
                    sorted((g, e) for g, e in prod.items() if e))
        assert kernel.pack(()) == 0 and kernel.unpack(0) == ()

    def test_dx_matches_diffpoly(self):
        rng = random.Random(409)
        cancelled = 0
        for _ in range(120):
            nvars = rng.randint(1, 3)
            top = rng.choice((3, 40, TOP_ORDER - 2))
            monos = {random_packable_mono(rng, nvars, top, (-2, -1, 1, 2, 3))
                     for _ in range(rng.randint(1, 6))}
            p = DiffPoly({m: rf(rng.choice((-2, -1, 1, 2))) for m in monos})
            # D_x(u v_x - u_x v) = u v_xx - u_xx v: the two u_x v_x terms cancel
            (du, i), (dv, k) = [(rng.randrange(nvars), rng.randrange(top)) for _ in range(2)]
            scale = rf(rng.choice((-2, -1, 1, 2)))
            p = p + DiffPoly.var(jet(du, i)) * DiffPoly.var(jet(dv, k + 1)).scalar_mul(scale) \
                - DiffPoly.var(jet(du, i + 1)) * DiffPoly.var(jet(dv, k)).scalar_mul(scale)
            bits = _word_bits(2 + max(sum(abs(e) for _, e in m) for m in p.terms))
            kernel = _Kernel(nvars, bits, 8)
            packed = {kernel.pack(m): c.num.ints[0] for m, c in p.terms.items()}
            for _ in range(2):
                want = p.dx()
                cancelled += len({m for m, _ in p._dx_terms()} - set(want.terms))
                packed, p = kernel.dx(packed), want
                assert {kernel.unpack(m): rf(c) for m, c in packed.items()} == want.terms
                assert all(packed.values())  # a cancelled term leaves no zero
        assert cancelled >= 100

    def test_mul_add_matches_diffpoly(self):
        rng = random.Random(419)
        cancelled = 0
        for _ in range(150):
            nvars = rng.randint(1, 3)
            pool = [random_packable_mono(rng, nvars, rng.choice((3, TOP_ORDER)), (-2, -1, 1, 2))
                    for _ in range(4)]

            def draw():
                # few monomials, small coefficients: products merge and cancel
                return DiffPoly.from_terms((rng.choice(pool), rf(rng.choice((-2, -1, 1, 2))))
                                           for _ in range(rng.randint(1, 4)))
            p, q = draw(), draw()
            prior = draw() - p * q if rng.random() < 0.5 else draw()
            bits = _word_bits(4 * max(sum(abs(e) for _, e in m) for m in pool))
            kernel = _Kernel(nvars, bits, 8)

            def packed(f):
                return {kernel.pack(m): c.num.ints[0] for m, c in f.terms.items()}
            out = packed(prior)
            keys = set(out) | {m1 + m2 for m1 in packed(p) for m2 in packed(q)}
            kernel.mul_add(out, packed(p), packed(q))
            assert {kernel.unpack(m): rf(c) for m, c in out.items()} == (prior + p * q).terms
            assert all(out.values())  # no zero is stored
            cancelled += len(keys - set(out))
            before = list(out.items())
            kernel.mul_add(out, {}, packed(q))
            kernel.mul_add(out, packed(p), {})
            assert list(out.items()) == before
        assert cancelled >= 100

    def test_euler_matches_euler_operator(self):
        # p = D_x(q) + r: E(D_x q) = 0, so the partials of D_x q must cancel
        # the D_x images of the Horner form exactly, in sign and in value
        rng = random.Random(421)

        def euler(p):
            f = _IntegerField(EvoField((p,)))
            kernel = _Kernel(2, _word_bits(f.weight), 64)
            [packed] = kernel.pack_field(f)
            images = kernel.euler(packed, 2, f.growth, f.weight)
            for d, image in enumerate(images):
                assert all(image.values())  # no zero is stored
                unpacked = kernel.unpacked(image, dividing_by(f.scale))
                assert unpacked.terms == euler_operator(p, d).terms
            return images
        exact = 0
        for _ in range(60):
            q = random_diffpoly(rng, max_order=2, terms=3)
            euler(q.dx() + random_diffpoly(rng, max_order=3, terms=2))
            assert euler(q.dx()) == [{}, {}]
            exact += not q.dx().is_zero
        assert exact >= 50

    def test_dx_past_the_top_order(self):
        kernel = _Kernel(2, 3, 8)
        for depvar in (0, 1):  # depvar 0 sits exactly at the kernel's ceiling
            top = ((jet(depvar, TOP_ORDER), 1),)
            with pytest.raises(JetOrderOutOfRange, match="4096"):
                DiffPoly({top: rf(1)}).dx()
            with pytest.raises(JetOrderOutOfRange, match="4096"):
                kernel.dx({kernel.pack(top): 1})

    def test_bound_exceeds_a_carrying_width(self, monkeypatch):
        # [w^8, w*w_x] = w^8*w_x: at the computed width w's exponent 8 is a
        # digit; one bit narrower it carries into the slot of w_x
        f = EvoField((fs_expr("w^8"),))
        g = EvoField((fs_expr("w*w_x"),))
        ref = reference_bracket(f, g)
        assert ref[0] == fs_expr("w^8*w_x")
        bits = _word_bits(pair_bounds(_IntegerField(f), _IntegerField(g))[1])
        assert 8 >= 1 << (bits - 2)
        assert commutator(f, g) == ref
        monkeypatch.setattr("jetsym.varcalc._sum_bounds", one_bit_narrower(_sum_bounds, 1))
        assert commutator(f, g) != ref

    def test_dx_table_budget(self, monkeypatch):
        # the bracket with w_40 builds D_x^0..40 of the fs rhs, 220,840 bits
        fs = builtin_system("fs")
        deep = EvoField((fs_expr("w[40]"), DP_ZERO))
        assert not commutator(fs.rhs, deep).is_zero
        monkeypatch.setattr("jetsym.varcalc._DX_BUDGET", 100_000)
        with pytest.raises(DxBudgetExceeded, match="^D_x formed ") as info:
            commutator(fs.rhs, deep)
        assert info.value.budget == 100_000 < info.value.bits

    def test_dx_table_growth_bound(self, monkeypatch):
        # dx_gain of the fs rhs (weight 3) at order i is 3^i: 20 bits at
        # order 12, 21 at order 13
        fs = builtin_system("fs")
        monkeypatch.setattr("jetsym.varcalc._GAIN_BITS", 20)
        assert not commutator(fs.rhs, EvoField((fs_expr("w[12]"), DP_ZERO))).is_zero
        with pytest.raises(DxBudgetExceeded) as info:
            commutator(fs.rhs, EvoField((fs_expr("w[13]"), DP_ZERO)))
        assert (info.value.bits, info.value.budget) == (21, 20)

    def test_growth_bound_comes_before_any_dx(self, monkeypatch):
        fs = builtin_system("fs")
        deep = EvoField((fs_expr("w[700]"), DP_ZERO))

        def no_dx(self, p):
            raise AssertionError("D_x ran")
        monkeypatch.setattr(_Kernel, "dx", no_dx)
        with pytest.raises(DxBudgetExceeded) as info:
            commutator(fs.rhs, deep)
        assert info.value.bits == (3 ** 700).bit_length() > info.value.budget == 1024
        assert str(info.value) == "D_x growth bound needs 1110 bits, budget is 1024"

    def test_linear_table_reaches_any_order(self):
        # D_x does not grow a linear field, so its table has no growth bound
        f = EvoField((fs_expr("w_x"),))
        assert commutator(f, EvoField((fs_expr("w[4000]"),))).is_zero


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
