"""Acceptance suite.

Every criterion is exact: the engine is exact symbolic computation, so
all assertions are equalities over Q(alpha) with zero tolerance.  One
pass/fail line is printed per criterion (run with ``pytest -s`` to see
them on passing runs).
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from jetsym.analysis import (DensityAnsatz, commutativity_table,
                             density_decompose, density_search, is_symmetry,
                             substitution_check)
from jetsym.cli import main
from jetsym.coeffield import AlphaPoly, RationalFunction, rf
from jetsym.hierarchy import (fs_hierarchy, fs_seed, scaling_symmetry,
                              structural_check, triangular_coeffs,
                              ts1_hierarchy)
from jetsym.jetalgebra import DiffPoly, EvoField, jet
from jetsym.systems import builtin_system, parse_expression
from jetsym.varcalc import commutator, euler_operator, integrate_dx

from conftest import random_diffpoly, random_evofield, random_zero_free_poly


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def fs_expr(src):
    return parse_expression(src, ("w", "z"), "alpha")


def uv_expr(src):
    return parse_expression(src, ("u", "v"), "a")


def over_s(*coeffs):
    return RationalFunction(AlphaPoly(coeffs), AlphaPoly((-1, 2)))


@pytest.fixture(scope="module")
def fs():
    return builtin_system("fs")


@pytest.fixture(scope="module")
def h8():
    return fs_hierarchy(8)


@pytest.fixture(scope="module")
def h12():
    return fs_hierarchy(12)


def test_ac01_printed_k3_reproduction(tmp_path, fs):
    out = tmp_path / "h3.json"
    code = main(["gen", "--system", "fs", "--n", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    k3 = EvoField.from_json(doc["members"][2])
    # the displayed third member, frozen term by term over Q(alpha)
    display_1 = (fs_expr("w_xxx + 12*w*w_xx + 12*w_x^2 + 48*w^2*w_x")
                 .scalar_mul(over_s(-1, -1))
                 + fs_expr("3*z*z_xx + 3*z_x^2 + 6*z^2*w_x + 12*w*z*z_x"))
    display_2 = (fs_expr("z_xxx + 6*w*z_xx + 6*w_x*z_x + 12*w^2*z_x"
                         " - 6*z^2*z_x - 12*w*z^3")
                 + fs_expr("z*w_xx").scalar_mul(over_s(0, 6))
                 + fs_expr("w*z*w_x").scalar_mul(over_s(12, 48))
                 + fs_expr("w^3*z").scalar_mul(over_s(24, 48)))
    ok = (k3[0] == display_1 and k3[1] == display_2
          and k3[0].coefficient(((jet(0, 3), 1),)) == over_s(-1, -1)
          and k3[0].coefficient(tuple(sorted(
              [(jet(0, 0), 1), (jet(1, 0), 1), (jet(1, 1), 1)]))) == rf(12)
          and k3[1].coefficient(((jet(1, 3), 1),)) == rf(1)
          and k3[1].coefficient(tuple(sorted(
              [(jet(0, 0), 1), (jet(1, 0), 3)]))) == rf(-12)
          and len(k3[0]) == 8 and len(k3[1]) == 9)
    _report("AC1 printed K3 reproduction (term by term over Q(alpha))", ok,
            f"{len(k3[0])} + {len(k3[1])} canonical terms")


def test_ac02_seed_symmetry(fs):
    k1, k2 = fs_seed()
    ok = is_symmetry(k1, fs).ok and is_symmetry(k2, fs).ok
    _report("AC2 seed fields K1, K2 satisfy the symmetry condition", ok)


def _locality(h, n):
    ok = len(h.members) == n
    for cert in h.certificates:
        ok = ok and cert.prev.is_exact and cert.prevprev.is_exact
        ok = ok and cert.prev.remainder.is_zero
        ok = ok and cert.prev.antiderivative.dx() == h.member(cert.n - 1)[0]
        ok = ok and cert.prevprev.antiderivative.dx() == h.member(cert.n - 2)[0]
    # every member is local and x,t-free
    ok = ok and all(not m.contains_xt() for m in h.members)
    _report(f"AC3 locality for N = {n}: all antiderivative applications exact",
            ok, f"{len(h.certificates)} recursion steps certified")


def test_ac03_hierarchy_locality_n8(h8):
    _locality(h8, 8)


def test_ac03_hierarchy_locality_n12(h12):
    _locality(h12, 12)


def test_gen_n12_json_pinned(h12):
    # the compact JSON that ``jetsym gen --system fs --n 12`` writes, less
    # its trailing newline
    doc = json.dumps(h12.to_json(), separators=(",", ":")).encode("utf-8")
    assert len(doc) == 540412
    assert hashlib.sha256(doc).hexdigest() == \
        "11c02253aaac2aa92f984f030b16ab9d9f286398ceb37296c1179c6699315e88"


def test_ac04_symmetry_and_commutativity_n6(h8, fs):
    from jetsym.hierarchy import Hierarchy
    members6 = h8.members[:6]
    ok = all(is_symmetry(m, fs).ok for m in members6)
    h6 = Hierarchy(fs, members6, h8.provenance[:6], h8.certificates[:4])
    table = commutativity_table(h6)
    npairs = sum(1 for i in range(6) for j in range(i + 1, 6))
    ok = ok and table.all_zero and npairs == 15
    _report("AC4 N = 6: all symmetries, all 15 pairwise commutators vanish", ok)


def test_ac05_scaling_homogeneity(h8):
    s = scaling_symmetry()
    ok = True
    for j in range(1, 5):
        kj = h8.member(j)
        ok = ok and (commutator(s, kj) - kj.scalar_mul(j)).is_zero
    _report("AC5 scaling homogeneity [S, K_j] = j K_j for j = 1..4", ok)


def test_ac06_density_uniqueness(fs):
    dims = []
    for degree in (4, 6):
        report = density_search(fs, DensityAnsatz(2, degree))
        dims.append(report.nontrivial_dimension)
        if report.nontrivial_dimension == 1:
            c, _ = density_decompose(report.nontrivial_basis[0])
            assert not c.is_zero, "nontrivial basis element is not spanned by w"
    ok = dims == [1, 1]
    _report("AC6 density search (order <= 2, degree <= 4 and 6): "
            "nontrivial quotient = span{w}", ok, f"dimensions {dims}")


def test_ac07_density_decomposition(h8):
    parts = []
    for n in range(1, 7):
        c, _ = density_decompose(h8.member(n)[0])
        parts.append(c)
    ok = all(c.is_zero for c in parts)
    _report("AC7 density decomposition of K_n^1 has zero w-part, n = 1..6", ok)


def test_ac08_triangular_hierarchy():
    ts1 = builtin_system("ts1")
    h = ts1_hierarchy(8)
    ok = all(is_symmetry(h.member(n), ts1).ok for n in range(1, 9))
    # independent recomputation of the leading-coefficient recurrence
    a = RationalFunction.param()
    b = [rf(0), rf(1), a]
    for n in range(3, 9):
        b.append(b[n - 1] - (rf(1) - a) * rf(Fraction(1, 2)) * b[n - 2])
    for n in range(1, 9):
        lead = h.member(n)[0].coefficient(((jet(0, n), 1),))
        ok = ok and lead == b[n]
    ok = ok and triangular_coeffs(3, a).Q[3] == uv_expr("3*v*v_x")
    _report("AC8 triangular hierarchy N = 8: symmetries, b_n recurrence, "
            "Q_3 = 3 v v_x", ok)


def test_ac09_substitution_identity():
    ok = substitution_check().ok
    for alpha0 in (Fraction(0), Fraction(1), Fraction(1, 3)):
        ok = ok and substitution_check(alpha0).ok
    _report("AC9 linearizing substitution identity (symbolic and at "
            "alpha = 0, 1, 1/3)", ok)


def test_ac10_structural_form(h8):
    ok = True
    betas = []
    for n in range(1, 7):
        form = structural_check(h8.member(n), n)  # raises on bad tails
        ok = ok and all(not c.is_zero for c in form.leading)
        betas.append(form.leading[1])
    ok = ok and betas[0] == rf(1) and betas[1] == rf(1) and betas[2] == rf(1)
    _report("AC10 structural form for n = 1..6 with beta_n = 1 for n <= 3",
            ok)


def test_ac11_pole_guard(capsys):
    code = main(["gen", "--system", "fs", "--n", "3", "--alpha", "1/2"])
    err = capsys.readouterr().err
    ok = code == 1 and "2*alpha - 1" in err
    _report("AC11 pole guard: gen at alpha = 1/2 exits 1 naming 2*alpha - 1",
            ok, f"exit {code}")


def test_ac12_property_suites():
    failures = 0
    # derivation law of the total derivative
    rng = random.Random(211)
    for _ in range(100):
        f = random_diffpoly(rng, with_xt=True, rational=True)
        g = random_diffpoly(rng, with_xt=True, rational=True)
        if (f * g).dx() != f.dx() * g + f * g.dx():
            failures += 1
    # Euler operator annihilates exact expressions
    rng = random.Random(223)
    for _ in range(100):
        g = random_zero_free_poly(rng)
        if not (euler_operator(g.dx(), 0).is_zero
                and euler_operator(g.dx(), 1).is_zero):
            failures += 1
    # integration is a left inverse of the total derivative
    rng = random.Random(227)
    for _ in range(100):
        g = random_zero_free_poly(rng)
        cert = integrate_dx(g.dx())
        if not (cert.is_exact and cert.antiderivative == g):
            failures += 1
    # bracket antisymmetry and the Jacobi identity
    rng = random.Random(229)
    for _ in range(100):
        f = random_evofield(rng, max_order=1, terms=2)
        g = random_evofield(rng, max_order=1, terms=2)
        if not (commutator(f, g) + commutator(g, f)).is_zero:
            failures += 1
    rng = random.Random(233)
    for _ in range(100):
        f = random_evofield(rng, max_order=1, terms=2)
        g = random_evofield(rng, max_order=1, terms=2)
        h = random_evofield(rng, max_order=1, terms=2)
        total = (commutator(f, commutator(g, h))
                 + commutator(g, commutator(h, f))
                 + commutator(h, commutator(f, g)))
        if not total.is_zero:
            failures += 1
    # JSON round trips
    rng = random.Random(239)
    for _ in range(100):
        f = random_diffpoly(rng, with_xt=True, rational=True)
        if DiffPoly.from_json(json.loads(json.dumps(f.to_json()))) != f:
            failures += 1
    ok = failures == 0
    _report("AC12 randomized property suites, 600 cases total", ok,
            f"{failures} failures")
