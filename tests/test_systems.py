"""System-definition grammar: parsing, diagnostics, rendering round trip."""

import pytest

from jetsym.errors import (DuplicateEquation, MissingEquation, ParseError,
                           UnknownIdentifier)
from jetsym.jetalgebra import T_GEN, DiffPoly, EvoField, jet
from jetsym.systems import (EvolutionSystem, builtin_names, builtin_system,
                            parse_expression, parse_system, render_system)

FS_SRC = """
system fs
vars w z
param alpha
eq w_t = w_xx + 8*w*w_x + (2 - 4*alpha)*z*z_x
eq z_t = (1 - 2*alpha)*z_xx - 4*alpha*z*w_x + (4 - 8*alpha)*w*z_x - (4 + 8*alpha)*w^2*z + (-2 + 4*alpha)*z^3
"""


class TestParse:
    def test_fs_first_equation(self):
        sys1 = parse_system(FS_SRC)
        assert sys1.rhs[0] == builtin_system("fs").rhs[0]
        assert sys1.depvars == ("w", "z")
        assert sys1.parameter == "alpha"

    def test_bracket_derivative(self):
        src = "system s\nvars v\neq v_t = v[2]\n"
        sys1 = parse_system(src)
        from jetsym.jetalgebra import DiffPoly
        assert sys1.rhs[0] == DiffPoly.var(jet(0, 2))

    def test_numeric_suffix_derivative(self):
        src = "system s\nvars v\neq v_t = v_3 + v_x\n"
        sys1 = parse_system(src)
        from jetsym.jetalgebra import DiffPoly
        assert sys1.rhs[0] == DiffPoly.var(jet(0, 3)) + DiffPoly.var(jet(0, 1))

    def test_unknown_identifier(self):
        src = "system s\nvars w\neq w_t = w_y\n"
        with pytest.raises(UnknownIdentifier):
            parse_system(src)

    def test_duplicate_equation(self):
        src = "system s\nvars w\neq w_t = w_x\neq w_t = w_xx\n"
        with pytest.raises(DuplicateEquation):
            parse_system(src)

    def test_missing_equation(self):
        src = "system s\nvars w z\neq w_t = w_x\n"
        with pytest.raises(MissingEquation):
            parse_system(src)

    def test_parse_error_position(self):
        src = "system s\nvars w\neq w_t = w_x + *\n"
        with pytest.raises(ParseError) as exc:
            parse_system(src)
        assert exc.value.line == 3
        assert exc.value.column == 16

    def test_rational_number_literal(self):
        src = "system s\nvars w\neq w_t = 3/4*w_x\n"
        sys1 = parse_system(src)
        from jetsym.coeffield import rf
        from fractions import Fraction
        assert sys1.rhs[0].coefficient(((jet(0, 1), 1),)) == rf(Fraction(3, 4))

    def test_comments_ignored(self):
        src = "system s  # heat\nvars w\neq w_t = w_xx  # diffusion\n"
        sys1 = parse_system(src)
        assert sys1.name == "s"


class TestBuiltins:
    def test_names(self):
        assert set(builtin_names()) == {"fs", "ts", "ts1"}

    def test_fs_coefficients(self):
        fs = builtin_system("fs")
        z3 = ((jet(1, 0), 3),)
        from jetsym.coeffield import AlphaPoly, RationalFunction
        assert fs.rhs[1].coefficient(z3) == RationalFunction(AlphaPoly((-2, 4)))

    def test_ts_is_triangular(self):
        ts = builtin_system("ts")
        assert ts.rhs[1].depvars() == {1}

    def test_ts1_parameter(self):
        ts1 = builtin_system("ts1")
        assert ts1.parameter == "a"
        assert ts1.rhs[0].coefficient(((jet(0, 2), 1),)).text("a") == "a"


class TestConstructorChecks:
    """``EvolutionSystem`` refuses a misfit right-hand side itself: the
    parser refuses ``t`` first, so only a direct construction reaches these."""

    def test_component_count_must_match_depvars(self):
        fs = builtin_system("fs")
        with pytest.raises(ValueError,
                           match="^component count does not match dependent variables$"):
            EvolutionSystem(fs.name, ("w",), fs.parameter, fs.rhs)

    def test_rhs_term_in_t_is_refused(self):
        fs = builtin_system("fs")
        rhs = EvoField((fs.rhs[0] * DiffPoly.var(T_GEN), fs.rhs[1]))
        with pytest.raises(ValueError,
                           match="^system right-hand side must not contain explicit t$"):
            EvolutionSystem(fs.name, fs.depvars, fs.parameter, rhs)

    def test_make_and_replace_are_checked(self):
        fs = builtin_system("fs")
        with pytest.raises(ValueError,
                           match="^component count does not match dependent variables$"):
            fs._replace(depvars=("w",))
        with pytest.raises(ValueError,
                           match="^component count does not match dependent variables$"):
            EvolutionSystem._make((fs.name, ("w",), fs.parameter, fs.rhs))
        rhs = EvoField((fs.rhs[0] * DiffPoly.var(T_GEN), fs.rhs[1]))
        with pytest.raises(ValueError,
                           match="^system right-hand side must not contain explicit t$"):
            fs._replace(rhs=rhs)
        renamed = fs._replace(depvars=("p", "q"))
        assert type(renamed) is EvolutionSystem
        assert renamed == EvolutionSystem(fs.name, ("p", "q"), fs.parameter, fs.rhs)


class TestRenderRoundTrip:
    @pytest.mark.parametrize("name", ["fs", "ts", "ts1"])
    def test_builtin_round_trip(self, name):
        sys1 = builtin_system(name)
        text = render_system(sys1)
        sys2 = parse_system(text)
        assert sys2 == sys1
        assert render_system(sys2) == text

    def test_high_order_round_trip(self):
        src = "system s\nvars w\neq w_t = w[5] + 2*w_3*w\n"
        sys1 = parse_system(src)
        text = render_system(sys1)
        assert parse_system(text) == sys1


class TestExpressions:
    def test_standalone_parse(self):
        e = parse_expression("w_x^2 - z^2", ("w", "z"), None)
        assert e.max_jet_order() == 1

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("w_x w", ("w",), None)


class TestGenericVariableCount:
    def test_single_variable_system(self):
        from jetsym.analysis import is_symmetry
        from jetsym.jetalgebra import EvoField, DiffPoly
        heat = parse_system("system heat\nvars w\neq w_t = w_xx\n")
        assert heat.nvars == 1
        wx = EvoField((DiffPoly.var(jet(0, 1)),))
        assert is_symmetry(wx, heat).ok
        bad = EvoField((DiffPoly.var(jet(0, 0)) * DiffPoly.var(jet(0, 0)),))
        assert not is_symmetry(bad, heat).ok

    def test_three_variable_system(self):
        from jetsym.varcalc import dt_along
        from jetsym.jetalgebra import DiffPoly
        src = ("system triple\nvars p q r\n"
               "eq p_t = p_xx + q*r\neq q_t = q_xx\neq r_t = r_x\n")
        sys3 = parse_system(src)
        assert sys3.nvars == 3
        p = DiffPoly.var(jet(0, 0))
        got = dt_along(p, sys3)
        assert got == sys3.rhs[0]
