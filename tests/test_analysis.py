"""Symmetry checks, commutativity, densities, and the substitution."""

import hashlib
import json
from fractions import Fraction

import pytest

from jetsym.analysis import (DensityAnsatz, commutativity_table,
                             density_decompose, density_search,
                             is_conserved_density, is_symmetry,
                             substitution_check, verify_hierarchy)
from jetsym.coeffield import AlphaPoly, RationalFunction, rf
from jetsym.errors import AnsatzTooLarge, CrossCheckFailed, NotDecomposable
from jetsym.hierarchy import fs_hierarchy, fs_seed, scaling_symmetry, ts1_hierarchy
from jetsym.jetalgebra import DP_ZERO, DiffPoly, EvoField, jet
from jetsym.systems import parse_expression
from jetsym.varcalc import ExactnessCertificate


def fs_expr(src):
    return parse_expression(src, ("w", "z"), "alpha")


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


class TestCommutativity:
    def test_fs_table(self):
        table = commutativity_table(fs_hierarchy(4))
        assert table.all_zero
        assert all(table.zero[i][i] for i in range(4))

    def test_ts1_table(self):
        table = commutativity_table(ts1_hierarchy(4))
        assert table.all_zero

    def test_fs_table_n8(self, fs_hierarchy_8):
        assert commutativity_table(fs_hierarchy_8).all_zero

    @pytest.mark.slow
    def test_fs_table_n10(self):
        assert commutativity_table(fs_hierarchy(10)).all_zero

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

    def test_ansatz_cap(self, fs):
        with pytest.raises(AnsatzTooLarge):
            density_search(fs, DensityAnsatz(2, 6), cap=100)

    def test_report_json(self, fs):
        import json
        report = density_search(fs, DensityAnsatz(0, 2))
        doc = json.dumps(report.to_json())
        assert json.loads(doc)["nontrivial_dimension"] == report.nontrivial_dimension


class TestSubstitution:
    def test_symbolic(self):
        assert substitution_check().ok

    @pytest.mark.parametrize("alpha0", [0, 1, Fraction(1, 3), Fraction(1, 2)])
    def test_specializations(self, alpha0):
        assert substitution_check(Fraction(alpha0)).ok

    def test_mutated_constant_fails(self):
        wrong_w = DiffPoly({
            ((jet(0, 0), -2), (jet(0, 1), 2)): rf(Fraction(1, 3))})
        report = substitution_check(w_image=wrong_w)
        assert not report.ok
        assert not report.defects[0].is_zero


class TestVerifyHierarchy:
    def test_fs_report_passes(self):
        report = verify_hierarchy(fs_hierarchy(4))
        assert report.ok
        text = report.to_text()
        assert "PASS" in text and "FAIL" not in text

    def test_ts1_report_passes(self):
        assert verify_hierarchy(ts1_hierarchy(4)).ok

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
        # K_2 with one sign flipped, as in test_sign_flipped_seed_is_not_a_symmetry:
        # its brackets have denominators, so every failure is divided back
        from jetsym.hierarchy import Hierarchy
        h = fs_hierarchy(4)
        k2 = h.member(2)
        over_s = RationalFunction(AlphaPoly((-4,)), AlphaPoly((-1, 2)))
        flipped = EvoField((
            k2[0],
            fs_expr("z_xx + 4*w*z_x - 2*z^3")
            + fs_expr("alpha*z*w_x + (2*alpha + 1)*z*w^2").scalar_mul(over_s),
        ))
        bad = Hierarchy(h.system, (h.members[0], flipped) + h.members[2:],
                        h.provenance, h.certificates)
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
