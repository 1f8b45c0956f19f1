"""Operator terms, matrices and their application."""

import random

import pytest

from jetsym import operators
from jetsym.coeffield import AlphaPoly, RationalFunction, rf
from jetsym.errors import NonlocalObstruction
from jetsym.hierarchy import fs_seed, recursion_matrix, second_recursion_matrix
from jetsym.jetalgebra import DiffPoly, EvoField, jet
from jetsym.operators import OperatorMatrix, OpTerm, apply_sum
from jetsym.systems import parse_expression
from jetsym.varcalc import integrate_dx

from conftest import random_diffpoly, random_evofield, split


def fs_expr(src):
    return parse_expression(src, ("w", "z"), "alpha")


def apply_term(term, f):
    """A single operator term applied as a 1x1 matrix to a scalar field."""
    return OperatorMatrix([[(term,)]]).apply_detailed(EvoField((f,)))[0]


class TestApplyTerm:
    def test_nonlocal_coefficient_action(self):
        t = OpTerm(fs_expr("4*w_x"), -1)
        assert apply_term(t, fs_expr("w_x")) == fs_expr("4*w*w_x")

    def test_plain_derivative(self):
        t = OpTerm(DiffPoly.constant(1), 1)
        assert apply_term(t, fs_expr("w_x")) == fs_expr("w_xx")

    def test_obstruction_carries_remainder(self):
        t = OpTerm(DiffPoly.constant(1), -1)
        with pytest.raises(NonlocalObstruction) as exc:
            apply_term(t, fs_expr("w_x^2"))
        from jetsym.varcalc import euler_operator
        assert euler_operator(exc.value.remainder, 0) == fs_expr("-2*w_xx")
        assert exc.value.entry == (0, 0)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            OpTerm(DiffPoly.constant(1), -2)

    def test_make_and_replace_are_checked(self):
        with pytest.raises(ValueError, match="^operator powers below D_x"):
            OpTerm._make((DiffPoly.constant(1), -5))
        term = OpTerm(DiffPoly.constant(1), 1)
        with pytest.raises(ValueError, match="^operator powers below D_x"):
            term._replace(power=-2)
        assert term._replace(power=-1) == OpTerm(DiffPoly.constant(1), -1)
        assert type(term._replace(power=-1)) is OpTerm
        assert type(OpTerm._make((DiffPoly.constant(1), 0))) is OpTerm


class TestApplyMatrix:
    def test_rec_first_row_on_seed(self):
        k1, _ = fs_seed()
        rec = recursion_matrix()
        out = rec.apply_detailed(k1)
        assert out[0] == fs_expr("w_xx + 8*w*w_x")

    def test_zero_matrix(self):
        _, k2 = fs_seed()
        zero = OperatorMatrix([[(), ()], [(), ()]])
        assert zero.apply_detailed(k2).is_zero

    def test_second_recursion_matrix_second_component_on_seed(self):
        k1, _ = fs_seed()
        m = second_recursion_matrix()
        out = m.apply_detailed(k1)
        s = AlphaPoly((-1, 2))
        alpha = AlphaPoly((0, 1))
        two_a_over_s = RationalFunction(AlphaPoly((0, 2)), s)
        comp = out[1]
        assert comp.coefficient(
            tuple(sorted([(jet(1, 0), 1), (jet(0, 2), 1)]))) == two_a_over_s
        assert comp.coefficient(
            tuple(sorted([(jet(0, 0), 1), (jet(1, 0), 1), (jet(0, 1), 1)]))) \
            == RationalFunction(AlphaPoly((0, 24)), s)
        assert comp.coefficient(
            tuple(sorted([(jet(0, 0), 3), (jet(1, 0), 1)]))) \
            == RationalFunction(AlphaPoly((0, 32)), s)
        assert comp.coefficient(
            tuple(sorted([(jet(0, 0), 1), (jet(1, 0), 3)]))) == rf(-4)
        assert comp.coefficient(
            tuple(sorted([(jet(1, 0), 2), (jet(1, 1), 1)]))) == rf(-2)

    def test_obstruction_names_entry(self):
        rec = recursion_matrix()
        bad = EvoField((fs_expr("w_x^2"), fs_expr("z_x")))
        with pytest.raises(NonlocalObstruction) as exc:
            rec.apply_detailed(bad)
        assert exc.value.entry == (0, 0)

    def test_cached_obstruction_raises_at_every_reading(self):
        """Every matrix that reads a non-exact first component raises with
        its own entry and the same remainder."""
        field = EvoField((fs_expr("w_x^2"), fs_expr("z_x")))
        lower = OperatorMatrix([[(), ()], [(OpTerm(DiffPoly.constant(1), -1),), ()]])
        remainders = []
        for matrix, entry in ((recursion_matrix(), (0, 0)),
                              (second_recursion_matrix(), (0, 0)),
                              (lower, (1, 0))):
            with pytest.raises(NonlocalObstruction) as exc:
                matrix.apply_detailed(field)
            assert exc.value.entry == entry
            remainders.append(exc.value.remainder)
        assert remainders == [integrate_dx(field[0]).remainder] * 3

    def test_each_column_is_integrated_once_per_call(self, monkeypatch):
        # the recursion matrix reads D_x^{-1} K^1 in both rows
        calls = []
        integrate = operators.integrate_dx
        monkeypatch.setattr(operators, "integrate_dx",
                            lambda f: calls.append(f) or integrate(f))
        k1, _ = fs_seed()
        out = recursion_matrix().apply_detailed(k1)
        assert calls == [k1[0]]
        out2 = recursion_matrix().apply_detailed(k1)
        assert out2 == out and len(calls) == 2

    def test_linearity(self):
        rng = random.Random(83)
        rec = recursion_matrix()
        for _ in range(30):
            k = random_evofield(rng, max_order=1, terms=2)
            l = random_evofield(rng, max_order=1, terms=2)
            # make first components exact so Dinv applies
            k = EvoField((k[0].dx(), k[1]))
            l = EvoField((l[0].dx(), l[1]))
            a, b = rf(3), rf(-2)
            lhs = rec.apply_detailed(k.scalar_mul(a) + l.scalar_mul(b))
            rhs = (rec.apply_detailed(k).scalar_mul(a)
                   + rec.apply_detailed(l).scalar_mul(b))
            assert lhs == rhs

    def test_dinv_local_consistency(self):
        rng = random.Random(89)
        from jetsym.varcalc import integrate_dx
        for _ in range(50):
            k = random_evofield(rng, max_order=1, terms=3)
            f = k[0].dx()
            cert = integrate_dx(f)
            assert cert.is_exact
            assert cert.antiderivative.dx() == f



def random_matrix(rng, rows, columns):
    """A rows x columns operator matrix with random terms of powers -1..3;
    only column 0 carries D_x^{-1}."""
    return OperatorMatrix([
        [tuple(OpTerm(random_diffpoly(rng, nvars=columns, max_order=1, terms=2,
                                      rational=True),
                      rng.randint(0 if j else -1, 3))
               for _ in range(rng.randint(0, 2)))
         for j in range(columns)]
        for _ in range(rows)])


class TestApplySum:
    def test_matches_apply_detailed(self):
        """Random matrices over Q(alpha) on random fields, one to three
        pairs, square (1 x 1, 2 x 2) or 3 x 2: the packed sum, each matrix
        split into its local terms on K and its D_x^{-1} terms on the
        antiderivative, equals the summed field-coefficient results."""
        rng = random.Random(167)
        for _ in range(60):
            n = rng.randint(1, 2)
            rows = 3 if n == 2 and rng.random() < 0.5 else n
            pairs, want = [], []
            for _ in range(rng.randint(1, 3)):
                k = random_evofield(rng, nvars=n, max_order=2, terms=3, rational=True)
                k = EvoField((k[0].dx(),) + tuple(k)[1:])
                matrix = random_matrix(rng, rows, n)
                on_k, on_a = split(matrix)
                a = EvoField((integrate_dx(k[0]).antiderivative,))
                pairs += [(on_k, k), (on_a, a)]
                want.append(matrix.apply_detailed(k))
            got = apply_sum(pairs)
            total = want[0]
            for field in want[1:]:
                total = total + field
            assert len(got) == rows
            assert got == total

    def test_refuses_a_nonlocal_term(self, monkeypatch):
        # named before any work: no operator_sum runs
        calls = []
        monkeypatch.setattr(operators, "operator_sum", lambda *a: calls.append(a))
        k1, k2 = fs_seed()
        with pytest.raises(ValueError, match=r"pair 1: a D_x\^\{-1\} term at entry \(1, 0\)"):
            apply_sum([(OperatorMatrix([[(), ()], [(), ()]]), k2),
                       (OperatorMatrix([[(), ()], [(OpTerm(fs_expr("z"), -1),), ()]]), k1)])
        assert not calls


def apply_one(matrix, field):
    return apply_sum([(matrix, field)])


def apply_reference(matrix, field):
    return matrix.apply_detailed(field)


class TestShapes:
    """A matrix whose column count is not its field's component count, or
    pairs whose row counts differ, raise ValueError naming the pair before
    any work."""

    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            OperatorMatrix([[(), ()], [()]])

    def test_shape(self):
        assert recursion_matrix().shape == (2, 2)
        assert OperatorMatrix([[(), ()], [(), ()], [(), ()]]).shape == (3, 2)

    @pytest.mark.parametrize("apply", [apply_one, apply_reference])
    def test_one_component_field(self, apply):
        with pytest.raises(ValueError, match="pair 0: a matrix of 2 columns on a field of 1"):
            apply(recursion_matrix(), EvoField((fs_expr("w_x"),)))

    @pytest.mark.parametrize("apply", [apply_one, apply_reference])
    def test_three_component_field(self, apply):
        # the third component was dropped before
        k = EvoField((fs_expr("w_x"), fs_expr("z_x"), DiffPoly.var(jet(2, 1))))
        with pytest.raises(ValueError, match="pair 0: a matrix of 2 columns on a field of 3"):
            apply(recursion_matrix(), k)

    def test_row_counts_differ(self):
        k1, k2 = fs_seed()
        three_rows = OperatorMatrix([[(), ()], [(), ()], [(), ()]])
        with pytest.raises(ValueError, match="pairs 0 and 1 have matrices of 2 and 3 rows"):
            apply_sum([(recursion_matrix(), k2), (three_rows, k1)])

    def test_second_pair_is_named(self):
        k1, k2 = fs_seed()
        with pytest.raises(ValueError, match="pair 1: "):
            apply_sum([(recursion_matrix(), k2), (second_recursion_matrix(), EvoField((k1[0],)))])

    def test_no_pairs(self):
        with pytest.raises(ValueError):
            apply_sum([])
