"""Seed fields, the two-term recursion, triangular hierarchy, scaling
symmetry, and structural-form checks.

The golden third member is frozen here from the recursion output after
cross-verifying it against the symmetry condition, commutativity, and
scaling homogeneity (see also the independent oracle tests).
"""

import random
from fractions import Fraction

import pytest

from jetsym import coeffield, hierarchy, varcalc
from jetsym.coeffield import AlphaPoly, RationalFunction, rf
from jetsym.errors import CrossCheckFailed, NonlocalObstruction, StructuralViolation
from jetsym.hierarchy import (Hierarchy, StepCertificates, _specialize_matrix,
                              fs_hierarchy, fs_seed, fs_step, recursion_matrix,
                              scaling_symmetry,
                              second_recursion_matrix, structural_check,
                              triangular_coeffs, ts1_hierarchy)
from jetsym.jetalgebra import DiffPoly, EvoField, T_GEN, X_GEN, jet
from jetsym.operators import OperatorMatrix, OpTerm
from jetsym.systems import parse_expression
from jetsym.varcalc import DxChain, integrate_dx

from conftest import kernel_widths, one_bit_narrower, random_evofield

S_POLY = AlphaPoly((-1, 2))  # 2*alpha - 1


def fs_expr(src):
    return parse_expression(src, ("w", "z"), "alpha")


def uv_expr(src):
    return parse_expression(src, ("u", "v"), "a")


def over_s(*coeffs):
    return RationalFunction(AlphaPoly(coeffs), S_POLY)


def golden_k3() -> EvoField:
    comp1 = (fs_expr("w_xxx + 12*w*w_xx + 12*w_x^2 + 48*w^2*w_x")
             .scalar_mul(over_s(-1, -1))
             + fs_expr("3*z*z_xx + 3*z_x^2 + 6*z^2*w_x + 12*w*z*z_x"))
    comp2 = (fs_expr("z_xxx + 6*w*z_xx + 6*w_x*z_x + 12*w^2*z_x"
                     " - 6*z^2*z_x - 12*w*z^3")
             + fs_expr("z*w_xx").scalar_mul(over_s(0, 6))
             + fs_expr("w*z*w_x").scalar_mul(over_s(12, 48))
             + fs_expr("w^3*z").scalar_mul(over_s(24, 48)))
    return EvoField((comp1, comp2))


class TestSeeds:
    def test_first_seed(self):
        k1, _ = fs_seed()
        assert k1 == EvoField((fs_expr("w_x"), fs_expr("z_x")))

    def test_second_seed_at_zero(self):
        _, k2 = fs_seed()
        got = k2.specialize(0)
        expected = EvoField((
            fs_expr("w_xx + 8*w*w_x + 2*z*z_x"),
            fs_expr("z_xx + 4*w*z_x - 4*z*w^2 - 2*z^3"),
        )).specialize(0)
        assert got == expected

    def test_cubic_coefficient(self):
        _, k2 = fs_seed()
        assert k2[1].coefficient(((jet(1, 0), 3),)) == rf(-2)

    def test_sign_flipped_seed_is_not_a_symmetry(self):
        # flipping the middle fraction of the second component breaks the
        # symmetry condition, guarding against transcription drift
        from jetsym.analysis import is_symmetry
        from jetsym.systems import builtin_system
        fs = builtin_system("fs")
        _, k2 = fs_seed()
        flipped = EvoField((
            k2[0],
            fs_expr("z_xx + 4*w*z_x - 2*z^3")
            + fs_expr("alpha*z*w_x + (2*alpha + 1)*z*w^2").scalar_mul(over_s(-4)),
        ))
        assert is_symmetry(k2, fs).ok
        assert not is_symmetry(flipped, fs).ok


def carried(k: EvoField) -> tuple:
    """K with its antiderivative A = D_x^{-1} K^1, as ``fs_step`` reads it."""
    return k, integrate_dx(k[0]).antiderivative


def with_antiderivative(k: EvoField) -> EvoField:
    """(K^1, K^2, D_x^{-1} K^1), what ``fs_step`` returns for K."""
    return EvoField(k.components + (integrate_dx(k[0]).antiderivative,))


NO_ROW = ((), ())


def step_matrices(rec, m, rows=None, alpha0=None):
    """rec and m as ``fs_step`` reads them: each ``_split`` with its row
    of rows (``_antiderivative_rows`` by default) stacked under it, and
    specialized at alpha0."""
    pairs = [hierarchy._split(matrix, row) for matrix, row in
             zip((rec, m), rows or hierarchy._antiderivative_rows())]
    if alpha0 is not None:
        pairs = [[_specialize_matrix(part, alpha0) for part in pair] for pair in pairs]
    return pairs


class TestRecursionStep:
    def test_k3_matches_golden(self):
        h = fs_hierarchy(3)
        assert h.member(3) == golden_k3()

    def test_k3_named_coefficients(self):
        k3 = fs_hierarchy(3).member(3)
        assert k3[0].coefficient(((jet(0, 3), 1),)) == over_s(-1, -1)
        wzz1 = tuple(sorted([(jet(0, 0), 1), (jet(1, 0), 1), (jet(1, 1), 1)]))
        assert k3[0].coefficient(wzz1) == rf(12)
        assert k3[1].coefficient(((jet(1, 3), 1),)) == rf(1)
        wz3 = tuple(sorted([(jet(0, 0), 1), (jet(1, 0), 3)]))
        assert k3[1].coefficient(wz3) == rf(-12)

    def test_k3_term_counts(self):
        k3 = fs_hierarchy(3).member(3)
        assert len(k3[0]) == 8
        assert len(k3[1]) == 9

    def test_k4_structure(self):
        h = fs_hierarchy(4)
        k4 = h.member(4)
        assert k4.max_jet_order() == 4
        form = structural_check(k4, 4)
        assert all(not c.is_zero for c in form.leading)

    def test_step_certificates_are_exact(self):
        h = fs_hierarchy(4)
        for cert in h.certificates:
            assert cert.prev.is_exact and cert.prevprev.is_exact
            assert cert.prev.antiderivative.dx() == h.member(cert.n - 1)[0]
            assert cert.prevprev.antiderivative.dx() == h.member(cert.n - 2)[0]

    def test_explicit_step_equals_hierarchy(self):
        k1, k2 = fs_seed()
        k3 = fs_step(carried(k2), carried(k1),
                     *step_matrices(recursion_matrix(), second_recursion_matrix()))
        assert k3 == with_antiderivative(fs_hierarchy(3).member(3))

    def test_every_member_satisfies_recursion(self, fs_hierarchy_8):
        rec, m = step_matrices(recursion_matrix(), second_recursion_matrix())
        for n in range(3, 9):
            kn = fs_step(carried(fs_hierarchy_8.member(n - 1)),
                         carried(fs_hierarchy_8.member(n - 2)), rec, m)
            assert kn == with_antiderivative(fs_hierarchy_8.member(n))


class TestFsHierarchy:
    def test_two_members_is_seed_pair(self):
        h = fs_hierarchy(2)
        k1, k2 = fs_seed()
        assert h.members == (k1, k2)

    def test_six_members_xt_independent(self):
        h = fs_hierarchy(6)
        assert len(h.members) == 6
        for m in h.members:
            assert not m.contains_xt()

    def test_order_growth(self, fs_hierarchy_8):
        for n in range(1, 9):
            assert fs_hierarchy_8.member(n).max_jet_order() == n

    def test_every_first_component_is_exact(self, fs_hierarchy_8):
        for n in range(1, 9):
            assert integrate_dx(fs_hierarchy_8.member(n)[0]).is_exact

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fs_hierarchy(0)

    def test_denominators_skip_euclid(self, monkeypatch):
        """Every denominator of the recursion is a power of 2*alpha - 1, so
        each gcd of the symbolic run is a constant or a power of a linear
        factor, and the gcd's closed form leaves nothing to Euclid."""
        calls = []
        remainder = coeffield._pseudo_remainder
        monkeypatch.setattr(coeffield, "_pseudo_remainder",
                            lambda a, b: calls.append(1) or remainder(a, b))
        fs_hierarchy(8)
        assert not calls

    def test_members_share_chains(self, monkeypatch):
        """Each member is carried with its antiderivative. Only the seeds'
        first components are integrated: every later antiderivative is the
        row stacked under the matrices (7 and 11 integrals at N = 8 and 12
        when each member was integrated), the D_x powers are formed on
        packed ints (105 D_x and 12 antiderivatives at N = 8 when every
        step built its own over the field), and each recursion member
        takes one ``fs_step``."""
        integrals, derivatives, steps = [], [], []
        integrate, dx, step = hierarchy.integrate_dx, DiffPoly.dx, hierarchy.fs_step
        monkeypatch.setattr(hierarchy, "integrate_dx",
                            lambda f: integrals.append(1) or integrate(f))
        monkeypatch.setattr(DiffPoly, "dx", lambda p: derivatives.append(1) or dx(p))
        monkeypatch.setattr(hierarchy, "fs_step", lambda *a: steps.append(1) or step(*a))
        for N in (8, 12):
            integrals.clear()
            derivatives.clear()
            steps.clear()
            fs_hierarchy(N)
            assert len(integrals) == 2
            assert len(derivatives) <= 64
            assert len(steps) == N - 2

    def test_inexact_seed_raises(self, monkeypatch):
        k1, k2 = fs_seed()
        bad = EvoField((fs_expr("w_x^2"), k2[1]))
        monkeypatch.setattr(hierarchy, "fs_seed", lambda: (k1, bad))
        assert fs_hierarchy(2).members == (k1, bad)  # no step reads D_x^{-1} K_2^1
        with pytest.raises(NonlocalObstruction) as exc:
            fs_hierarchy(3)
        assert exc.value.entry == (0, 0)
        assert exc.value.remainder == integrate_dx(bad[0]).remainder

    def test_specialized_generation(self):
        symbolic = fs_hierarchy(8).members
        for a0 in (Fraction(1, 3), Fraction(-2), Fraction(7, 5), Fraction(0)):
            h = fs_hierarchy(8, a0)
            assert list(h.members) == [m.specialize(a0) for m in symbolic]

    def test_json_round_trip(self):
        import json
        h = fs_hierarchy(4)
        doc = json.dumps(h.to_json(), separators=(",", ":"))
        h2 = Hierarchy.from_json(json.loads(doc))
        assert h2.members == h.members
        assert json.dumps(h2.to_json(), separators=(",", ":")) == doc


def oracle_step(prev: EvoField, prevprev: EvoField, rec, m):
    """K_n over field coefficients: the two ``apply_detailed`` results
    summed, with their certificates."""
    first, certs1 = rec.apply_detailed(DxChain(prev))
    second, certs2 = m.apply_detailed(DxChain(prevprev))
    return first + second, certs1.get(0), certs2.get(0)


def oracle_hierarchy(N: int, alpha0=None) -> tuple:
    """(K_1..K_N, step certificates) with every recursion step through
    ``oracle_step``, so every antiderivative is formed by ``integrate_dx``."""
    members = list(fs_seed())
    rec, m = recursion_matrix(), second_recursion_matrix()
    if alpha0 is not None:
        members = [k.specialize(alpha0) for k in members]
        rec, m = _specialize_matrix(rec, alpha0), _specialize_matrix(m, alpha0)
    certificates = []
    while len(members) < N:
        kn, prev, prevprev = oracle_step(members[-1], members[-2], rec, m)
        members.append(kn)
        certificates.append(StepCertificates(len(members), prev, prevprev))
    return members[:N], tuple(certificates)


def perturbed_rows(matrix):
    """``_antiderivative_rows`` with one coefficient changed: 4w -> 3w under
    the recursion matrix, or -8 alpha/s -> -7 alpha/s under the second."""
    under_rec, under_m = hierarchy._antiderivative_rows()
    if matrix == "rec":
        one, four_w = under_rec[0]
        assert four_w == OpTerm(fs_expr("4*w"), -1)
        under_rec = [(one, OpTerm(fs_expr("3*w"), -1)), ()]
    else:
        dx, eight, a = under_m[0]
        assert eight == OpTerm(fs_expr("w").scalar_mul(over_s(0, -8)), 0)
        under_m = [(dx, OpTerm(fs_expr("w").scalar_mul(over_s(0, -7)), 0), a), under_m[1]]
    return under_rec, under_m


def first_only(term: OpTerm) -> OperatorMatrix:
    """A 2x2 matrix whose one term sits at entry (0, 0)."""
    return OperatorMatrix([[(term,), ()], [(), ()]])


ZERO_MATRIX = OperatorMatrix([[(), ()], [(), ()]])


class TestKernelStep:
    """``fs_step`` on packed ints against the field-coefficient oracle."""

    @pytest.mark.parametrize("alpha0", [None, Fraction(1, 3), Fraction(-2)])
    def test_random_fields_match_oracle(self, alpha0):
        rng = random.Random(151 if alpha0 is None else 157)
        rec, m = recursion_matrix(), second_recursion_matrix()
        split = step_matrices(rec, m, alpha0=alpha0)
        if alpha0 is not None:
            rec, m = _specialize_matrix(rec, alpha0), _specialize_matrix(m, alpha0)
        for _ in range(25):
            fields = []
            for _ in range(2):
                k = random_evofield(rng, max_order=2, terms=3, rational=alpha0 is None)
                # a first component in Im D_x, so that D_x^{-1} applies
                k = EvoField((k[0].dx(), k[1]))
                fields.append(k if alpha0 is None else k.specialize(alpha0))
            got = fs_step(carried(fields[0]), carried(fields[1]), *split)
            assert got == with_antiderivative(oracle_step(fields[0], fields[1], rec, m)[0])

    def test_bound_exceeds_a_narrower_coefficient_slot(self, monkeypatch):
        # K_n = (2^20 - alpha)/(2 alpha - 1) w: at S_c = 2 alpha - 1 the
        # packed coefficient 2^20 - alpha has the digit 2^20, which a slot
        # one bit narrower than the bound cannot hold
        c = RationalFunction(AlphaPoly((2 ** 20, -1)), AlphaPoly((-1, 2)))
        rec = first_only(OpTerm(DiffPoly.constant(c), 0))
        k = EvoField((fs_expr("w"), fs_expr("z")))
        want = oracle_step(k, k, rec, ZERO_MATRIX)[0]
        assert want[0] == fs_expr("w").scalar_mul(c)
        split = step_matrices(rec, ZERO_MATRIX, (NO_ROW, NO_ROW))
        assert EvoField(fs_step(carried(k), carried(k), *split)[:2]) == want
        monkeypatch.setattr(varcalc, "_sum_bounds", one_bit_narrower(varcalc._sum_bounds, 0))
        assert EvoField(fs_step(carried(k), carried(k), *split)[:2]) != want

    def test_bound_exceeds_a_narrower_exponent_slot(self, monkeypatch):
        # w^3 * w^5 = w^8: at the bound's width 8 is a digit; one bit
        # narrower it carries into the slot of the next jet
        rec = first_only(OpTerm(fs_expr("w^3"), 0))
        k = EvoField((fs_expr("w^5"), fs_expr("z")))
        want = oracle_step(k, k, rec, ZERO_MATRIX)[0]
        assert want[0] == fs_expr("w^8")
        split = step_matrices(rec, ZERO_MATRIX, (NO_ROW, NO_ROW))
        assert EvoField(fs_step(carried(k), carried(k), *split)[:2]) == want
        monkeypatch.setattr(varcalc, "_sum_bounds", one_bit_narrower(varcalc._sum_bounds, 1))
        assert EvoField(fs_step(carried(k), carried(k), *split)[:2]) != want

    def test_antiderivative_binds_the_coefficient_slot(self, monkeypatch):
        # K_n = D_x^{-1}(c w_x) = c w for c = (2^20 - alpha)/(2 alpha - 1):
        # at the field scale S_K = 2 alpha - 1 the antiderivative is
        # 2^20 - alpha, and the coefficient 1 stays 1 at S_c = 1, so the one
        # term's digit 2^20 is bounded only by the antiderivative's own height
        c = RationalFunction(AlphaPoly((2 ** 20, -1)), AlphaPoly((-1, 2)))
        rec = first_only(OpTerm(DiffPoly.constant(1), -1))
        k = EvoField((fs_expr("w_x").scalar_mul(c), fs_expr("z")))
        want = oracle_step(k, k, rec, ZERO_MATRIX)[0]
        assert want[0] == fs_expr("w").scalar_mul(c)
        split = step_matrices(rec, ZERO_MATRIX, (NO_ROW, NO_ROW))
        run = lambda: EvoField(fs_step(carried(k), carried(k), *split)[:2])
        [(_, _, coeff_bits)] = kernel_widths(monkeypatch, run)
        assert coeff_bits == varcalc._word_bits(2 ** 20 + 1)  # |S_c 1|_1 |S_K c|_1
        assert run() == want
        monkeypatch.setattr(varcalc, "_sum_bounds", one_bit_narrower(varcalc._sum_bounds, 0))
        assert run() != want

    def test_antiderivative_binds_the_exponent_slot(self, monkeypatch):
        # w^3 * D_x^{-1}(D_x w^5) = w^8: the antiderivative's weight 5 and
        # the coefficient's 3 make the bound 8, a digit at the bound's width
        # that carries into the slot of the next jet one bit narrower
        rec = first_only(OpTerm(fs_expr("w^3"), -1))
        k = EvoField((fs_expr("w^5").dx(), fs_expr("z")))
        want = oracle_step(k, k, rec, ZERO_MATRIX)[0]
        assert want[0] == fs_expr("w^8")
        split = step_matrices(rec, ZERO_MATRIX, (NO_ROW, NO_ROW))
        run = lambda: EvoField(fs_step(carried(k), carried(k), *split)[:2])
        [(_, bits, _)] = kernel_widths(monkeypatch, run)
        assert bits == varcalc._word_bits(8)
        assert run() == want
        monkeypatch.setattr(varcalc, "_sum_bounds", one_bit_narrower(varcalc._sum_bounds, 1))
        assert run() != want

    def test_non_exact_member_names_its_entry(self):
        # fs_step is given each A; the reference integrates, and names the entry
        k1, k2 = fs_seed()
        bad = EvoField((fs_expr("w_x^2"), fs_expr("z_x")))
        rec, m = recursion_matrix(), second_recursion_matrix()
        lower = OperatorMatrix([[(), ()], [(OpTerm(DiffPoly.constant(1), -1),), ()]])
        for prev, prevprev, r, entry in ((bad, k1, rec, (0, 0)), (k2, bad, rec, (0, 0)),
                                         (bad, k1, lower, (1, 0))):
            with pytest.raises(NonlocalObstruction) as exc:
                oracle_step(prev, prevprev, r, m)
            assert exc.value.entry == entry
            assert exc.value.remainder == integrate_dx(bad[0]).remainder

    def test_kernel_hierarchy_matches_oracle(self):
        h = fs_hierarchy(14)
        assert (list(h.members), h.certificates) == oracle_hierarchy(14)

    @pytest.mark.parametrize("alpha0", [Fraction(1, 3), Fraction(-2), Fraction(7, 5),
                                        Fraction(0), Fraction(1)])
    def test_specialized_hierarchy_matches_oracle(self, alpha0):
        h = fs_hierarchy(10, alpha0)
        assert (list(h.members), h.certificates) == oracle_hierarchy(10, alpha0)

    @pytest.mark.slow
    def test_kernel_hierarchy_matches_oracle_n16(self):
        h = fs_hierarchy(16)
        assert (list(h.members), h.certificates) == oracle_hierarchy(16)

    def test_coefficient_scale_differs_from_field_scale(self, monkeypatch):
        # the members carry 1/(2 alpha - 1)^3, the matrices 1/(2 alpha - 1):
        # the step divides by S_K S_c, of degree 4 in alpha, where one
        # shared scale would have divided by S^2, of degree 6
        over_s3 = RationalFunction(AlphaPoly((0, 1)), S_POLY * S_POLY * S_POLY)
        prev = EvoField((fs_expr("w^2*z + w_x").scalar_mul(over_s3).dx(),
                         fs_expr("w*z_x").scalar_mul(over_s(1, 1))))
        prevprev = EvoField((fs_expr("w*z^2").scalar_mul(over_s3).dx(),
                             fs_expr("z_xx + w^2").scalar_mul(over_s3)))
        rec, m = recursion_matrix(), second_recursion_matrix()
        scales = []
        divide = varcalc.dividing_by
        monkeypatch.setattr(varcalc, "dividing_by", lambda s: scales.append(s) or divide(s))
        got = fs_step(carried(prev), carried(prevprev), *step_matrices(rec, m))
        assert [s.num.degree for s in scales] == [4]
        assert got == with_antiderivative(oracle_step(prev, prevprev, rec, m)[0])


class TestAntiderivativeRows:
    """The rows stacked under the matrices give D_x^{-1} K_n^1, and
    ``fs_hierarchy`` checks them against the matrices it uses."""

    def test_step_forms_the_antiderivative(self):
        k1, k2 = fs_seed()
        rec, m = step_matrices(recursion_matrix(), second_recursion_matrix())
        top, second, antiderivative = fs_step(carried(k2), carried(k1), rec, m)
        assert EvoField((top, second)) == golden_k3()
        assert antiderivative == integrate_dx(top).antiderivative
        [cert] = fs_hierarchy(3).certificates
        assert (cert.prev, cert.prevprev) == (integrate_dx(k2[0]), integrate_dx(k1[0]))

    def test_split_refuses_a_nonlocal_term_outside_column_0(self):
        dinv = OpTerm(fs_expr("z"), -1)
        with pytest.raises(ValueError, match=r"entry \(2, 1\), outside column 0"):
            hierarchy._split(recursion_matrix(), [(), (dinv,)])
        with pytest.raises(ValueError, match=r"entry \(0, 1\), outside column 0"):
            hierarchy._split(OperatorMatrix([[(), (dinv,)], [(), ()]]), NO_ROW)

    def test_split_reads_the_antiderivative_at_dx0(self):
        on_k, on_a = hierarchy._split(recursion_matrix(), hierarchy._antiderivative_rows()[0])
        assert on_k.shape == (3, 2) and on_a.shape == (3, 1)
        assert on_a.entries == (((OpTerm(fs_expr("4*w_x"), 0),),),
                                ((OpTerm(fs_expr("2*z_x - 4*w*z"), 0),),),
                                ((OpTerm(fs_expr("4*w"), 0),),))
        assert all(t.power >= 0 for row in on_k.entries for e in row for t in e)

    @pytest.mark.parametrize("alpha0", [None, Fraction(1, 3)])
    @pytest.mark.parametrize("matrix", ["rec", "m"])
    def test_perturbed_row_raises(self, monkeypatch, matrix, alpha0):
        rows = perturbed_rows(matrix)
        monkeypatch.setattr(hierarchy, "_antiderivative_rows", lambda: rows)
        with pytest.raises(CrossCheckFailed):
            fs_hierarchy(3, alpha0)

    def test_short_hierarchies_step_nothing(self, monkeypatch):
        # no step, no rows to check
        rows = perturbed_rows("m")
        monkeypatch.setattr(hierarchy, "_antiderivative_rows", lambda: rows)
        assert fs_hierarchy(2).members == fs_seed()


class TestTriangularHierarchy:
    def test_first_member(self):
        h = ts1_hierarchy(1)
        assert h.member(1) == EvoField((uv_expr("u_x"), uv_expr("v_x")))

    def test_q3(self):
        coeffs = triangular_coeffs(3, RationalFunction.param())
        assert coeffs.Q[3] == uv_expr("3*v*v_x")

    def test_b3(self):
        a = RationalFunction.param()
        coeffs = triangular_coeffs(3, a)
        assert coeffs.b[3] == (rf(3) * a - rf(1)) * rf(Fraction(1, 2))

    def test_b_recurrence_and_leading_extraction(self):
        h = ts1_hierarchy(8)
        bs = h.triangular.b
        a = RationalFunction.param()
        for n in range(3, 9):
            assert bs[n] == bs[n - 1] - (rf(1) - a) * rf(Fraction(1, 2)) * bs[n - 2]
        for n in range(1, 9):
            lead = h.member(n)[0].coefficient(((jet(0, n), 1),))
            assert lead == bs[n]

    def test_second_component_is_pure_jet(self):
        h = ts1_hierarchy(5)
        for n in range(1, 6):
            assert h.member(n)[1] == DiffPoly.var(jet(1, n))

    def test_local_by_construction(self):
        # the triangular recursion involves no antiderivatives at all
        h = ts1_hierarchy(8)
        assert h.certificates == ()


class TestScalingSymmetry:
    def test_t_wxx_coefficient(self):
        s = scaling_symmetry()
        mono = tuple(sorted([(T_GEN, 1), (jet(0, 2), 1)]))
        assert s[0].coefficient(mono) == rf(2)

    def test_x_wx_coefficient(self):
        s = scaling_symmetry()
        mono = tuple(sorted([(X_GEN, 1), (jet(0, 1), 1)]))
        assert s[0].coefficient(mono) == rf(1)

    def test_definition_remainder(self):
        s = scaling_symmetry()
        k1, k2 = fs_seed()
        t = DiffPoly.var(T_GEN)
        x = DiffPoly.var(X_GEN)
        c = RationalFunction(AlphaPoly((2, -4)))
        rest = EvoField(
            s[i] - t.scalar_mul(c) * k2[i] - x * k1[i] for i in range(2))
        assert rest == EvoField((fs_expr("w"), fs_expr("z")))


class TestStructuralCheck:
    def test_seeds(self):
        k1, k2 = fs_seed()
        f1 = structural_check(k1, 1)
        assert f1.leading == (rf(1), rf(1))
        f2 = structural_check(k2, 2)
        assert f2.leading == (over_s(-1), rf(1))

    def test_k3(self):
        k3 = fs_hierarchy(3).member(3)
        form = structural_check(k3, 3)
        assert form.leading == (over_s(-1, -1), rf(1))

    def test_rejects_xt(self):
        with pytest.raises(StructuralViolation):
            structural_check(scaling_symmetry(), 1)

    def test_rejects_linear_tail(self):
        bad = EvoField((fs_expr("w_xx + w_x"), fs_expr("z_xx")))
        with pytest.raises(StructuralViolation) as exc:
            structural_check(bad, 2)
        assert "linear" in str(exc.value)

    def test_rejects_free_term(self):
        bad = EvoField((fs_expr("w_xx + 1"), fs_expr("z_xx")))
        with pytest.raises(StructuralViolation):
            structural_check(bad, 2)

    def test_rejects_high_order_tail(self):
        bad = EvoField((fs_expr("w_xx + z_xx*w"), fs_expr("z_xx")))
        with pytest.raises(StructuralViolation):
            structural_check(bad, 2)
