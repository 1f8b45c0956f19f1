"""Symmetry checks, commutativity, densities, and the substitution."""

import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from jetsym import analysis, varcalc
from jetsym.analysis import (DensityAnsatz, commutativity_table,
                             density_decompose, density_search,
                             is_conserved_density, is_symmetry, push_forward,
                             substitution_check, verify_hierarchy)
from jetsym.coeffield import (RF_ONE, AlphaPoly, RationalFunction, accumulate, rf,
                              sparse_nullspace)
from jetsym.errors import (AnsatzTooLarge, CrossCheckFailed, DxBudgetExceeded,
                           NonIntegerExponentPath, NotDecomposable)
from jetsym.hierarchy import (fs_hierarchy, fs_seed, scaling_symmetry, triangular_coeffs,
                              ts1_hierarchy)
from jetsym.jetalgebra import DP_ZERO, X_GEN, DiffPoly, EvoField, jet
from jetsym.systems import (_BUILTIN_CACHE, _BUILTIN_SOURCES, EvolutionSystem,
                            parse_expression, parse_system)
from jetsym.varcalc import (ExactnessCertificate, IntegerField, _Kernel, dt_along,
                            dt_euler_rows, euler_operator, integrate_dx)

from conftest import (kernel_widths, random_diffpoly, random_evofield, random_nonzero_rf,
                      random_rf, reference_coeff_json, reference_field_json,
                      reference_poly_json)


def fs_expr(src):
    return parse_expression(src, ("w", "z"), "alpha")


def uv_expr(src):
    return parse_expression(src, ("u", "v"), "alpha")


class TestIsSymmetry:
    def test_seed_translation(self, fs):
        k1, _ = fs_seed()
        assert is_symmetry(k1, fs).ok

    def test_scaling_symmetry(self, fs):
        assert is_symmetry(scaling_symmetry(), fs).ok

    def test_non_symmetry_has_defect(self, fs):
        bad = EvoField((fs_expr("w"), DP_ZERO))
        res = is_symmetry(bad, fs)
        assert not res.ok
        assert not res.defect.is_zero

    def test_extra_component_is_refused(self, fs):
        # a third component used to be dropped by the bracket, so this passed
        k = EvoField((fs_expr("w_x"), fs_expr("z_x"), fs_expr("w^2")))
        with pytest.raises(ValueError, match="2 and 3 components"):
            is_symmetry(k, fs)


class TestCommutativity:
    def test_fs_table(self):
        table = commutativity_table(fs_hierarchy(4))
        assert table.all_zero

    def test_ts1_table(self):
        table = commutativity_table(ts1_hierarchy(4))
        assert table.all_zero

    def test_fs_table_n8(self, fs_hierarchy_8):
        assert commutativity_table(fs_hierarchy_8).all_zero

    def test_fs_table_n10(self):
        assert commutativity_table(fs_hierarchy(10)).all_zero

    @pytest.mark.slow
    def test_fs_table_n12(self):
        assert commutativity_table(fs_hierarchy(12)).all_zero

    @pytest.mark.slow
    def test_fs_table_n14(self):
        # the largest D_x table, of 399,723,373 bits, stays under the budget
        assert commutativity_table(fs_hierarchy(14)).all_zero

    def test_detects_nonzero(self, fs):
        from jetsym.hierarchy import Hierarchy
        f = EvoField((fs_expr("w^2"), DP_ZERO))
        g = EvoField((fs_expr("w^3"), DP_ZERO))
        h = Hierarchy(fs, (f, g), ("seed", "seed"), ())
        table = commutativity_table(h)
        assert not table.all_zero
        assert table.failures[0][0] == (1, 2)
        assert table.failures[0][1][0] == fs_expr("w^4")


class TestConservedDensity:
    def test_w_is_nontrivial(self, fs):
        res = is_conserved_density(fs_expr("w"), fs)
        assert res.status == "nontrivial"
        assert res.dt_certificate.antiderivative == \
            fs_expr("w_x + 4*w^2 + (1 - 2*alpha)*z^2")

    def test_exact_density_is_trivial(self, fs):
        assert is_conserved_density(fs_expr("w_x"), fs).status == "trivial"

    def test_z_is_not_conserved(self, fs):
        assert is_conserved_density(fs_expr("z"), fs).status == "not_conserved"

    def test_trichotomy_certificates(self, fs):
        res = is_conserved_density(fs_expr("2*w*w_x"), fs)
        assert res.status == "trivial"
        assert res.rho_certificate.antiderivative == fs_expr("w^2")

    def test_oracle_disagreement_raises(self, fs, monkeypatch):
        monkeypatch.setattr("jetsym.analysis.euler_operator",
                            lambda f, d: fs_expr("w"))
        with pytest.raises(CrossCheckFailed):
            is_conserved_density(fs_expr("w"), fs)


class TestDensityDecompose:
    def test_w_itself(self):
        c, g = density_decompose(fs_expr("w"))
        assert c == rf(1) and g.is_zero

    def test_split_exact_part(self):
        c, g = density_decompose(fs_expr("w + 2*w*w_x"))
        assert c == rf(1)
        assert g == fs_expr("w^2")

    def test_hierarchy_members_have_zero_part(self):
        h = fs_hierarchy(3)
        for n in range(1, 4):
            c, _ = density_decompose(h.member(n)[0])
            assert c.is_zero

    def test_not_decomposable(self):
        with pytest.raises(NotDecomposable):
            density_decompose(fs_expr("w^2"))

    @pytest.mark.parametrize("src, message", [
        ("w + 2*w*w_x + 5", "residual after removing constant * w is inexact"),
        ("3", "residual after removing constant * w is inexact"),
        ("w^2 + 5", "density is not constant * w modulo Im D_x"),
        ("z", "density is not constant * w modulo Im D_x"),
        ("w_x*z_x", "density is not constant * w modulo Im D_x")])
    def test_messages(self, src, message):
        with pytest.raises(NotDecomposable, match=f"^{re.escape(message)}$"):
            density_decompose(fs_expr(src))

    def test_one_integration_no_euler_image(self, monkeypatch):
        calls = count_calls(monkeypatch)
        assert density_decompose(fs_expr("3*w + 2*w*w_x")) == (rf(3), fs_expr("w^2"))
        assert calls == {"integrate_dx": 1, "euler_operator": 0}

    @pytest.mark.parametrize("laurent", [False, True], ids=["polynomial", "laurent"])
    def test_against_euler_images(self, laurent):
        # rho = D_x B + c w, and sometimes a constant and a noise term; the
        # Euler-image route is the oracle
        rng = random.Random(3201 + laurent)
        w = DiffPoly.var(jet(0, 0))
        seen = set()
        for _ in range(150):
            rho = random_laurent_poly(rng, laurent).dx() \
                + w.scalar_mul(random_rf(rng, True) if rng.random() < 0.7 else rf(0))
            if rng.random() < 0.3:
                rho = rho + DiffPoly.constant(random_nonzero_rf(rng))
            if rng.random() < 0.3:
                rho = rho + random_laurent_poly(rng, laurent)
            got, want = decomposed(density_decompose, rho), decomposed(euler_route, rho)
            seen.add(got if isinstance(got, str) else "split")
            if laurent:
                assert isinstance(got, tuple) == isinstance(want, tuple)
                if isinstance(got, tuple):
                    assert got[0] == want[0]
            else:
                assert got == want
            if isinstance(got, tuple):
                c, A = got
                assert rho == w.scalar_mul(c) + A.dx()
        assert seen == {"split", "density is not constant * w modulo Im D_x",
                        "residual after removing constant * w is inexact"} \
            | ({"integration in a single generator hit exponent -1, a logarithm"}
               if laurent else set())


def random_laurent_poly(rng, laurent: bool) -> DiffPoly:
    """A random (w, z) polynomial of order at most 2 with no free term;
    with laurent, each factor has a negative exponent half the time."""
    p = random_diffpoly(rng, rational=True)
    if laurent:
        p = DiffPoly.from_terms(
            (tuple((g, -e if rng.random() < 0.5 else e) for g, e in m), c)
            for m, c in p.terms.items())
    return p - DiffPoly.constant(p.free_term())


def euler_route(rho: DiffPoly):
    """The decomposition read off the Euler images: E_z(rho) must vanish
    and E_w(rho) be a constant c, then rho - c w is integrated."""
    e_w, e_z = euler_operator(rho, 0), euler_operator(rho, 1)
    if not e_z.is_zero or any(m != () for m in e_w.terms):
        raise NotDecomposable("density is not constant * w modulo Im D_x")
    c = e_w.free_term()
    cert = integrate_dx(rho - DiffPoly.var(jet(0, 0)).scalar_mul(c))
    if not cert.is_exact:
        raise NotDecomposable("residual after removing constant * w is inexact")
    return c, cert.antiderivative


def decomposed(route, rho):
    """(c, A), or the message of the reason rho has no decomposition."""
    try:
        return route(rho)
    except (NotDecomposable, NonIntegerExponentPath) as exc:
        return str(exc)


def count_calls(monkeypatch, names=("integrate_dx", "euler_operator")) -> dict:
    """Counts the calls of each named varcalc function, through every
    binding of it in jetsym; the dict fills in as they are made."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(varcalc, name)

        def spy(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        for module in [m for key, m in sys.modules.items() if key.startswith("jetsym")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return counts


class TestDensitySearch:
    def test_fs_uniqueness_degree_4(self, fs):
        report = density_search(fs, DensityAnsatz(2, 4))
        assert report.nontrivial_dimension == 1
        basis = report.nontrivial_basis[0]
        c, _ = density_decompose(basis)
        assert not c.is_zero

    def test_fs_minimal_ansatz_contains_w(self, fs):
        report = density_search(fs, DensityAnsatz(0, 1))
        assert report.nontrivial_dimension == 1
        assert report.nontrivial_basis[0] == fs_expr("w")

    def test_ts1_minimal_ansatz(self, ts1):
        # v is conserved and nontrivial; u is not conserved because
        # D_t(u) = a u_xx + v^2 and v^2 has a nonzero Euler image
        report = density_search(ts1, DensityAnsatz(0, 1))
        assert report.nontrivial_dimension == 1
        v = DiffPoly.var(jet(1, 0))
        assert report.nontrivial_basis[0] == v
        u = DiffPoly.var(jet(0, 0))
        assert is_conserved_density(u, ts1).status == "not_conserved"
        assert is_conserved_density(v, ts1).status == "nontrivial"

    def test_trivial_parts_are_certified(self, fs):
        report = density_search(fs, DensityAnsatz(1, 2))
        for part in report.trivial_parts:
            recomposed = (part.certificate.antiderivative.dx()
                          + DiffPoly.constant(part.constant_part))
            assert recomposed == part.density

    def test_failed_trivial_certificate_raises(self, fs, monkeypatch):
        monkeypatch.setattr("jetsym.analysis.integrate_dx",
                            lambda f: ExactnessCertificate(DiffPoly(), fs_expr("w")))
        with pytest.raises(CrossCheckFailed):
            density_search(fs, DensityAnsatz(1, 2))

    @pytest.mark.slow
    def test_fs_uniqueness_degree_8(self, fs):
        report = density_search(fs, DensityAnsatz(2, 8))
        assert report.unknowns == 3003
        assert report.solution_dimension == 496
        assert report.nontrivial_dimension == 1

    def test_ansatz_cap(self, fs, monkeypatch):
        monkeypatch.setenv("JETSYM_MAX_UNKNOWNS", "100")
        with pytest.raises(AnsatzTooLarge):
            density_search(fs, DensityAnsatz(2, 6))

    @pytest.mark.parametrize("order, degree, count", [
        (2, 6, 924), (0, 2, 6), (2, 4, 210), (3, 4, 495), (1, 3, 35)])
    def test_ansatz_size(self, fs, order, degree, count):
        ansatz = DensityAnsatz(order, degree)
        assert ansatz.size(fs) == len(ansatz.monomials(fs)) == count
        assert count == math.comb(2 * (order + 1) + degree, degree)

    def test_ansatz_size_past_64_bits(self, fs, monkeypatch):
        assert DensityAnsatz(2, 60).size(fs) == math.comb(66, 60)
        assert DensityAnsatz(4095, 10 ** 18).size(fs) is None
        monkeypatch.setenv("JETSYM_MAX_UNKNOWNS", "9" * 18)
        with pytest.raises(AnsatzTooLarge) as info:
            density_search(fs, DensityAnsatz(0, 10 ** 18))
        assert info.value.count is None

    def test_report_json(self, fs):
        import json
        report = density_search(fs, DensityAnsatz(0, 2))
        doc = json.dumps(report.to_json())
        assert json.loads(doc)["nontrivial_dimension"] == report.nontrivial_dimension

    def test_report_json_matches_reference(self, fs):
        # the document of densities --json at (2, 4), against the reference writer
        report = density_search(fs, DensityAnsatz(2, 4))
        assert report.trivial_parts
        want = {
            "system": report.system_name, "max_order": 2, "max_degree": 4,
            "unknowns": report.unknowns, "solution_dimension": report.solution_dimension,
            "nontrivial_dimension": report.nontrivial_dimension,
            "nontrivial_basis": [reference_poly_json(b) for b in report.nontrivial_basis],
            "trivial_parts": [
                {"density": reference_poly_json(t.density),
                 "constant_part": reference_coeff_json(t.constant_part),
                 "antiderivative": reference_poly_json(t.certificate.antiderivative)}
                for t in report.trivial_parts]}
        assert json.dumps(report.to_json(), separators=(",", ":")) == \
            json.dumps(want, separators=(",", ":"))

    @pytest.mark.parametrize("alpha0", [None, Fraction(1, 3)])
    def test_report_ignores_row_order(self, fs, monkeypatch, alpha0):
        # the report reads no order of the rows or of their entries
        system = fs if alpha0 is None else fs.specialize(alpha0)
        ansatz = DensityAnsatz(2, 4)
        want = json.dumps(density_search(system, ansatz).to_json())
        rows = dt_euler_rows(ansatz.monomials(system), system.rhs)
        rng = random.Random(97)

        def shuffled(monos, field):
            keys = list(rows)
            rng.shuffle(keys)
            out = {}
            for key in keys:
                entries = list(rows[key].items())
                rng.shuffle(entries)
                out[key] = dict(entries)
            return out

        monkeypatch.setattr("jetsym.analysis.dt_euler_rows", shuffled)
        for _ in range(3):
            assert json.dumps(density_search(system, ansatz).to_json()) == want


def reference_rows(system, monos):
    """The density rows over field coefficients: dt_along, then euler_operator."""
    rows: dict = {}
    for col, m in enumerate(monos):
        dt = dt_along(DiffPoly({m: RF_ONE}), system)
        for d in range(system.nvars):
            for mu, coeff in euler_operator(dt, d).terms.items():
                rows.setdefault((d, mu), {})[col] = coeff
    return rows


def reference_quotient(densities, nvars):
    """(nontrivial, trivial) by incremental elimination of Euler images,
    the reducer loop density_search ran before sparse_nullspace.

    A density whose image stays nonzero after reduction by the earlier
    reducers is nontrivial and becomes a reducer, pivoted at its smallest
    image key; the others are returned as the reduced combinations.
    """
    nontrivial, trivial = [], []
    reducers = []  # (pivot key, normalized image row, matching density)
    for rho in densities:
        image: dict = {}
        for d in range(nvars):
            for mu, coeff in euler_operator(rho, d).terms.items():
                image[(d, mu)] = coeff
        combo = rho
        for key, row, dens in reducers:
            coeff = image.get(key)
            if coeff is None:
                continue
            combo = combo - dens.scalar_mul(coeff)
            neg = -coeff
            accumulate(image, ((k2, v2 * neg) for k2, v2 in row.items()))
        if image:
            key = min(image)
            inv = image[key].inverse()
            row = {k: v * inv for k, v in image.items()}
            reducers.append((key, row, combo.scalar_mul(inv)))
            nontrivial.append(rho)
        else:
            trivial.append(combo)
    return nontrivial, trivial


def assert_reference_quotient(report, system, monos, rows):
    """The report's quotient equals reference_quotient on the nullspace of rows."""
    _, kernel = sparse_nullspace(list(rows.values()), len(monos))
    densities = [DiffPoly({monos[c]: v for c, v in vec.items()}) for vec in kernel]
    nontrivial, trivial = reference_quotient(densities, system.nvars)
    assert list(report.nontrivial_basis) == nontrivial
    assert [t.density for t in report.trivial_parts] == trivial


def keyed_rows(monkeypatch, monos, rhs) -> dict:
    """dt_euler_rows(monos, rhs) keyed (d, tuple monomial): each packed label
    decoded through the one kernel the call built (none for no rows)."""
    kernels, out = [], []
    kernel_widths(monkeypatch, lambda: out.append(dt_euler_rows(monos, rhs)), kernels)
    [rows] = out
    if not kernels:
        assert rows == {}
        return rows
    [kernel] = kernels
    keyed = {(d, kernel.unpack(mu)): row for (d, mu), row in rows.items()}
    assert len(keyed) == len(rows)  # distinct labels, one per image term
    return keyed


def assert_same_rows(got, ref):
    # the same keys, entries and values; the order is free, since the
    # search reduces the rows to their unique RREF
    assert got == ref


def random_laurent_rhs(rng):
    """Two components whose jet monomials carry negative exponents too."""
    gens = [jet(d, i) for d in range(2) for i in range(2)]
    comps = []
    for _ in range(2):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            mono = {g: rng.choice((-2, -1, 1, 2)) for g in rng.sample(gens, 2)}
            pairs.append((tuple(sorted(mono.items())), random_nonzero_rf(rng, True)))
        comps.append(DiffPoly.from_terms(pairs))
    return EvoField(comps)


class TestPackedDensityRows:
    def test_matches_reference(self, monkeypatch):
        rng = random.Random(211)
        poly_scales = laurent = nonempty = 0
        for i in range(30):
            if i % 6 == 5:
                rhs = random_laurent_rhs(rng)
                laurent += 1
            else:
                rhs = random_evofield(rng, max_order=rng.randint(0, 2), terms=3, rational=True)
            system = EvolutionSystem(f"random{i}", ("w", "z"), "alpha", rhs)
            ansatz = DensityAnsatz(rng.randint(0, 2), rng.randint(0, 3))
            monos = ansatz.monomials(system)
            ref = reference_rows(system, monos)
            assert_same_rows(keyed_rows(monkeypatch, monos, rhs), ref)
            poly_scales += len(IntegerField(rhs).scale.num.ints) > 1
            nonempty += bool(ref)
            report = density_search(system, ansatz)
            assert_reference_quotient(report, system, monos, ref)
            got = json.dumps(report.to_json())
            with monkeypatch.context() as patch:
                patch.setattr("jetsym.analysis.dt_euler_rows", lambda monos, field: ref)
                assert json.dumps(density_search(system, ansatz).to_json()) == got
        assert poly_scales >= 5 and laurent == 5 and nonempty >= 20

    def test_bound_exceeds_a_wrapping_width(self, monkeypatch):
        # w_t = c*w*w_xx: E(D_t w^2) = 8c*w*w_xx + 4c*w_x^2, past 2^63 for
        # c near 2^62, so 64-bit slots would read 8c and 4c as polynomials
        c = 2 ** 62 + 3
        w, w_xx = jet(0, 0), jet(0, 2)
        rhs = EvoField((DiffPoly({((w, 1), (w_xx, 1)): rf(c)}),))
        system = EvolutionSystem("wrap", ("w",), None, rhs)
        ansatz = DensityAnsatz(1, 2)
        monos = ansatz.monomials(system)
        ref = reference_rows(system, monos)
        assert max(abs(v.num.ints[0]) for row in ref.values() for v in row.values()) >= 2 ** 63
        [(_, _, bits)] = kernel_widths(monkeypatch, lambda: dt_euler_rows(monos, rhs))
        assert bits > 64
        assert_same_rows(keyed_rows(monkeypatch, monos, rhs), ref)

    @pytest.mark.parametrize("c, k, height, widths, narrower", [
        # E(D_t w^2) = 8c*w^(k+1), and the coefficient bound D |K|_1 W of
        # degree D = 2 and W = D - 1 + k is 8c itself: 40 needs 7 bits
        (5, 3, 40, (1, 4, 7), (1, 4, 6)),
        # D_t w^2 = 2c*w^(k+1), and the exponent bound W = k + 1 is its
        # exponent itself: 4 needs 4 bits
        (1, 3, 4, (1, 4, 5), (1, 3, 5)),
    ], ids=["coefficient", "exponent"])
    def test_one_bit_less_is_wrong(self, monkeypatch, c, k, height, widths, narrower):
        # w_t = c*w^k, the monomial w^2: the bound is the height itself, so
        # the width one bit narrower, and no other, misreads the rows
        rhs = EvoField((DiffPoly({((jet(0, 0), k),): rf(c)}),))
        system = EvolutionSystem("tight", ("w",), None, rhs)
        monos = [((jet(0, 0), 2),)]
        ref = reference_rows(system, monos)
        assert max(abs(v.num.ints[0]) for row in ref.values() for v in row.values()) == 8 * c
        assert kernel_widths(monkeypatch, lambda: dt_euler_rows(monos, rhs)) == [widths]
        assert_same_rows(keyed_rows(monkeypatch, monos, rhs), ref)
        word_bits = varcalc._word_bits
        monkeypatch.setattr(varcalc, "_word_bits", lambda h: word_bits(h) - (h == height))
        assert kernel_widths(monkeypatch, lambda: dt_euler_rows(monos, rhs)) == [narrower]
        assert keyed_rows(monkeypatch, monos, rhs) != ref

    def test_degree_zero_builds_no_kernel(self, monkeypatch, fs):
        # D_t 1 = 0: no rows, so no width is taken and no kernel built
        monos = DensityAnsatz(0, 0).monomials(fs)
        assert monos == [()]
        for m in (monos, []):
            assert kernel_widths(monkeypatch, lambda: dt_euler_rows(m, fs.rhs)) == []
            assert dt_euler_rows(m, fs.rhs) == {}
        report = density_search(fs, DensityAnsatz(0, 0))
        assert (report.unknowns, report.solution_dimension, report.nontrivial_dimension) == (1, 1, 0)
        assert kernel_widths(monkeypatch, lambda: density_search(fs, DensityAnsatz(0, 0))) == []

    def test_rejects_non_ansatz_monomials(self):
        rhs = EvoField((fs_expr("w_xx"),))
        with pytest.raises(ValueError):
            dt_euler_rows([((jet(0, 0), -1),)], rhs)


class TestDensityDxBudget:
    def test_euler_images(self, monkeypatch):
        # E(D_t w) for w_t = w_30*w*w_x runs D_x 30 times on a growing
        # polynomial: 269 terms in all
        system = parse_system("system s\nvars w\neq w_t = w[30]*w*w_x\n")
        monos = DensityAnsatz(0, 1).monomials(system)
        assert dt_euler_rows(monos, system.rhs)
        monkeypatch.setattr("jetsym.varcalc._DX_BUDGET", 2000)
        with pytest.raises(DxBudgetExceeded, match="^D_x formed ") as info:
            dt_euler_rows(monos, system.rhs)
        assert info.value.bits > 2000

    def test_euler_growth_bound(self, monkeypatch):
        # E(D_t w) for w_t = w_4094*w*w_x runs D_x 4094 times on w*w_x and
        # its D_x powers, with a norm growth bound of 2^4094: refused first
        system = parse_system("system s\nvars w\neq w_t = w[4094]*w*w_x\n")
        monos = DensityAnsatz(0, 1).monomials(system)

        def no_dx(self, p):
            raise AssertionError("D_x ran")
        monkeypatch.setattr(_Kernel, "dx", no_dx)
        with pytest.raises(DxBudgetExceeded) as info:
            dt_euler_rows(monos, system.rhs)
        assert str(info.value) == "D_x growth bound needs 4095 bits, budget is 1024"

    def test_linear_chain_has_no_growth(self, monkeypatch):
        # E(D_t w^2) for w_t = w_4093 + w*w_x differentiates 2*w, whose D_x
        # powers stay one term each
        system = parse_system("system s\nvars w\neq w_t = w[4093] + w*w_x\n")
        monos = DensityAnsatz(0, 2).monomials(system)
        assert_same_rows(keyed_rows(monkeypatch, monos, system.rhs),
                         reference_rows(system, monos))


QUOTIENT_PINS = {
    # 81 nontrivial; trivial combinations of up to 3 nontrivial densities
    "transport": ("system transport\nvars w z\neq w_t = w_x\neq z_t = z_x\n", 3, 3,
                  81, 84, 33101,
                  "5e22ad62ee22dedc02c859dd81c0440b37339bd19f9ccbcdba52e52a48a2c6fd"),
    "kdv": ("system kdv\nvars u\neq u_t = u_xxx + 6*u*u_x\n", 3, 3, 3, 20, 5100,
            "7361351eddc42cb54f6a82d0c22f32bf9423e123b67e5eca23b2f9d753a2f8c1"),
    "mixed": ("system mixed\nvars w z\nparam a\neq w_t = w_x + a*z_x\n"
              "eq z_t = (a + 1)*z_x\n", 2, 3, 20, 35, 12230,
              "bff49eb478f8ace5c2c9d22a32273113545b13aadbb75b715aa016b0be2cddf0"),
}


class TestQuotientPins:
    """Quotients of dimension above 1, where several densities reduce each other."""

    @pytest.mark.parametrize("name", QUOTIENT_PINS)
    def test_report_pinned(self, name):
        src, order, degree, nontrivial, trivial, size, sha256 = QUOTIENT_PINS[name]
        report = density_search(parse_system(src), DensityAnsatz(order, degree))
        assert (report.nontrivial_dimension, len(report.trivial_parts)) == (nontrivial, trivial)
        doc = json.dumps(report.to_json(), separators=(",", ":")).encode()
        assert len(doc) == size
        assert hashlib.sha256(doc).hexdigest() == sha256

    @pytest.mark.parametrize("name", QUOTIENT_PINS)
    def test_matches_reference_quotient(self, name):
        src, order, degree = QUOTIENT_PINS[name][:3]
        system = parse_system(src)
        ansatz = DensityAnsatz(order, degree)
        monos = ansatz.monomials(system)
        assert_reference_quotient(density_search(system, ansatz), system, monos,
                                  reference_rows(system, monos))


class TestSubstitution:
    def test_symbolic(self):
        assert substitution_check().ok

    @pytest.mark.parametrize("alpha0", [0, 1, Fraction(1, 3), Fraction(1, 2), -2,
                                        Fraction(7, 5)])
    def test_specializations(self, alpha0):
        assert substitution_check(Fraction(alpha0)).ok

    def test_mutated_constant_fails(self, monkeypatch):
        # fs with 8*w*w_x changed to 7*w*w_x, read by the check in place of fs
        source = _BUILTIN_SOURCES["fs"]
        assert source.count("8*w*w_x") == 1
        monkeypatch.setitem(_BUILTIN_CACHE, "fs",
                            parse_system(source.replace("8*w*w_x", "7*w*w_x")))
        report = substitution_check()
        assert not report.ok
        assert not report.defects[0].is_zero
        assert report.defects[1].is_zero

    def test_mutated_defect_is_the_mutation(self, monkeypatch):
        # the defect names the changed fs term itself, in the (w, z) jets
        monkeypatch.setitem(_BUILTIN_CACHE, "fs", parse_system(
            _BUILTIN_SOURCES["fs"].replace("8*w*w_x", "7*w*w_x")))
        report = substitution_check()
        assert report.defects == (fs_expr("w*w_x"), DP_ZERO)


class TestPushForward:
    """Phi_*(G_n) == K_n: the linearizing map carries the triangular
    hierarchy at a = 1/(1 - 2 alpha) onto the Burgers-type hierarchy."""

    def test_symbolic_hierarchy(self):
        a = (rf(1) - rf(2) * RationalFunction.param()).inverse()
        coeffs = triangular_coeffs(8, a)
        members = fs_hierarchy(8).members
        for n in range(1, 9):
            g = EvoField((DiffPoly.var(jet(0, n)).scalar_mul(coeffs.b[n]) + coeffs.Q[n],
                          DiffPoly.var(jet(1, n))))
            assert push_forward(g) == members[n - 1], n

    @pytest.mark.parametrize("alpha0", [Fraction(1, 3), Fraction(-2), Fraction(7, 5)],
                             ids=str)
    def test_specialized_hierarchy(self, alpha0):
        g = ts1_hierarchy(8, 1 / (1 - 2 * alpha0))
        k = fs_hierarchy(8, alpha0)
        assert [push_forward(m) for m in g.members] == list(k.members)

    @pytest.mark.parametrize("A, B", [
        (uv_expr("u^2"), uv_expr("v")),
        (uv_expr("v"), uv_expr("v")),
        (uv_expr("u_x"), uv_expr("u")),
        (DiffPoly({((X_GEN, 1), (jet(0, 0), 1)): RF_ONE}), uv_expr("v")),
    ], ids=["u^2 in A", "v in A", "u in B", "x*u in A"])
    def test_refusals(self, A, B):
        with pytest.raises(ValueError):
            push_forward(EvoField((A, B)))


def flip_k2(h):
    """h with one sign of K_2 flipped, as in test_sign_flipped_seed_is_not_a_symmetry."""
    from jetsym.hierarchy import Hierarchy
    k2 = h.member(2)
    over_s = RationalFunction(AlphaPoly((-4,)), AlphaPoly((-1, 2)))
    flipped = EvoField((
        k2[0],
        fs_expr("z_xx + 4*w*z_x - 2*z^3")
        + fs_expr("alpha*z*w_x + (2*alpha + 1)*z*w^2").scalar_mul(over_s),
    ))
    return Hierarchy(h.system, (h.members[0], flipped) + h.members[2:],
                     h.provenance, h.certificates)


#: (nvars, exponent bits, coefficient bits) of every packed kernel, in
#: order: one per recursion step of gen, T_A and T_B on the two frames
#: (Phi' pushes the new frame back with no kernel); one for every bracket
#: of verify, with each member in the linearizing frame of its
#: antiderivative (a bit narrower than on K itself, since A, q and r have
#: smaller norms); one for a density search
KERNEL_WIDTHS = {
    "gen N = 12": [(2, 4, 10), (2, 4, 13), (2, 4, 17), (2, 4, 20), (2, 5, 24),
                   (2, 5, 27), (2, 5, 31), (2, 5, 34), (2, 5, 39), (2, 5, 42)],
    "verify N = 8 at alpha = 1/3": [(2, 6, 80)],
    "verify N = 6 symbolic": [(2, 5, 54)],
    "densities (2, 6)": [(2, 5, 28)],
}


class TestKernelWidths:
    @pytest.mark.parametrize("case", list(KERNEL_WIDTHS))
    def test_pinned(self, monkeypatch, fs, case):
        # the widths set the size of every packed int, so they set the speed
        if case == "gen N = 12":
            run = lambda: fs_hierarchy(12)
        elif case == "densities (2, 6)":
            run = lambda: density_search(fs, DensityAnsatz(2, 6))
        else:
            h = fs_hierarchy(6) if case == "verify N = 6 symbolic" else \
                fs_hierarchy(8, Fraction(1, 3))
            run = lambda: verify_hierarchy(h)
        assert kernel_widths(monkeypatch, run) == KERNEL_WIDTHS[case]


class TestVerifyHierarchy:
    def test_fs_report_passes(self):
        report = verify_hierarchy(fs_hierarchy(4))
        assert report.ok
        text = report.to_text()
        assert "PASS" in text and "FAIL" not in text

    def test_ts1_report_passes(self):
        assert verify_hierarchy(ts1_hierarchy(4)).ok

    @pytest.mark.parametrize("n", [1, 2])
    def test_short_hierarchies_pass(self, n):
        # 0 and 1 table pairs
        assert verify_hierarchy(fs_hierarchy(n)).ok

    def test_each_member_integrated_once(self, monkeypatch):
        # the Im D_x checks of K_5^1 and K_6^1 reuse the antiderivatives of
        # their density decompositions, whose w-parts are zero
        h = fs_hierarchy(6)
        calls = []
        integrate = analysis.integrate_dx

        def spy(f):
            calls.append(f)
            return integrate(f)
        monkeypatch.setattr(analysis, "integrate_dx", spy)
        report = verify_hierarchy(h)
        assert report.ok
        assert calls == [h.member(n)[0] for n in range(1, 7)]
        assert [c.name for c in report.checks[-2:]] == ["K_5^1 lies in Im D_x",
                                                        "K_6^1 lies in Im D_x"]

    @pytest.mark.parametrize("alpha0", [None, Fraction(1, 3)])
    def test_no_euler_image_one_integration_per_member(self, monkeypatch, alpha0):
        h = fs_hierarchy(8, alpha0)
        calls = count_calls(monkeypatch)
        assert verify_hierarchy(h).ok
        assert calls == {"integrate_dx": 8, "euler_operator": 0}

    @pytest.mark.parametrize("added, detail", [
        (fs_expr("3*w"), "nonzero remainder"),
        (fs_expr("w^2"), "nonzero remainder"),
        (DiffPoly({((jet(0, 0), -1), (jet(0, 1), 1)): RF_ONE}),
         "integration in a single generator hit exponent -1, a logarithm")],
        ids=["3w", "w^2", "w_x/w"])
    def test_trailing_member_off_im_dx(self, monkeypatch, added, detail):
        # K_6^1 + 3w reads the certificate (A, 3w) of its decomposition; a
        # member with none reads the certificate or the error that its
        # failed decomposition carries: each member is integrated once
        from jetsym.hierarchy import Hierarchy
        h = fs_hierarchy(6)
        k6 = EvoField((h.member(6)[0] + added, h.member(6)[1]))
        bad = Hierarchy(h.system, h.members[:5] + (k6,), h.provenance, h.certificates)
        calls = count_calls(monkeypatch)
        last = verify_hierarchy(bad).checks[-1]
        assert calls == {"integrate_dx": 6, "euler_operator": 0}
        assert (last.name, last.ok, last.detail) == ("K_6^1 lies in Im D_x", False, detail)
        if detail == "nonzero remainder":
            assert last.defect == integrate_dx(k6[0]).remainder.to_json()

    def test_members_enter_in_the_frame(self, monkeypatch):
        # one family each; every fs member brings its antiderivative, F and
        # S none, and a ts1 member none
        calls = []
        family = analysis.commutators
        monkeypatch.setattr(analysis, "commutators",
                            lambda fields, pairs, integrals: calls.append(integrals)
                            or family(fields, pairs, integrals))
        h = fs_hierarchy(5)
        assert verify_hierarchy(h).ok
        assert commutativity_table(h).all_zero
        assert verify_hierarchy(ts1_hierarchy(4)).ok
        assert commutativity_table(ts1_hierarchy(4)).all_zero
        in_verify, in_table, *ts1 = calls
        assert ts1 == [{}, {}]
        assert sorted(in_verify) == [1, 2, 3, 4, 5] and sorted(in_table) == [0, 1, 2, 3, 4]
        for n in range(1, 6):
            for cert in (in_verify[n], in_table[n - 1]):
                assert cert.antiderivative.dx() == h.member(n)[0] and cert.is_exact

    def test_corruption_detected(self):
        from jetsym.hierarchy import Hierarchy
        h = fs_hierarchy(3)
        k3 = h.member(3)
        corrupted = EvoField((k3[0] + fs_expr("w"), k3[1]))
        bad = Hierarchy(h.system, (h.members[0], h.members[1], corrupted),
                        h.provenance, ())
        report = verify_hierarchy(bad)
        assert not report.ok
        assert any("symmetry K_3" == c.name and not c.ok for c in report.checks)

    def test_flipped_seed_pins(self):
        # its brackets have denominators, so every failure is divided back
        bad = flip_k2(fs_hierarchy(4))
        report = verify_hierarchy(bad)
        assert [c.name for c in report.checks if not c.ok] == [
            "symmetry K_2", "pairwise commutativity",
            "scaling homogeneity [S, K_2] = 2 K_2"]
        doc = json.dumps(report.to_json(), separators=(",", ":")).encode()
        assert len(doc) == 6115
        assert hashlib.sha256(doc).hexdigest() == \
            "328dcdd8ac0e4fe71d288a8a669891d2573149334f79926b365bf5fbe24f3749"
        failures = commutativity_table(bad).failures
        assert [p for p, _ in failures] == [(2, 3), (2, 4)]
        doc = json.dumps([[list(p), d.to_json()] for p, d in failures],
                         separators=(",", ":")).encode()
        assert len(doc) == 8769
        assert hashlib.sha256(doc).hexdigest() == \
            "3fdc8036cb6274909fb094e89c5380e50e858191217e8584e7e7886f7b5b413e"

    def test_flipped_defects_match_reference(self, fs):
        # the defects of verify --json, against the reference writer
        bad = flip_k2(fs_hierarchy(4))
        got = [c["defect"] for c in verify_hierarchy(bad).to_json()["checks"] if "defect" in c]
        want = [reference_field_json(is_symmetry(bad.member(2), fs).defect),
                reference_field_json(commutativity_table(bad).failures[0][1])]
        assert json.dumps(got) == json.dumps(want)

    def test_flipped_table_n8_pinned(self, fs_hierarchy_8):
        # brackets of very different heights, all unpacked from one slot width
        failures = commutativity_table(flip_k2(fs_hierarchy_8)).failures
        assert [p for p, _ in failures] == [(2, j) for j in range(3, 9)]
        doc = json.dumps([[list(p), d.to_json()] for p, d in failures],
                         separators=(",", ":")).encode()
        assert len(doc) == 123250
        assert hashlib.sha256(doc).hexdigest() == \
            "3327960fcce4616f4715ace8e7e1478f2cca6f771bf2c3a00c9bd6ac73bf57d3"
