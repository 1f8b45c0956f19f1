"""Verification suite: symmetry condition, commutativity tables, conserved
densities (classification, bounded search, decomposition), and the
linearizing-substitution check.

Everything here works over the generic parameter field, so nonzero
polynomials in the parameter are invertible and no genericity case
analysis is needed; specializations are separate explicit runs.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional, Tuple

from .coeffield import RationalFunction, accumulate, rf, sparse_nullspace
from .errors import (AnsatzTooLarge, CrossCheckFailed, ExplicitXTDependence,
                     InvalidSetting, JetsymError, NonIntegerExponentPath, NotDecomposable,
                     StructuralViolation)
from .hierarchy import Hierarchy, scaling_symmetry, structural_check
from .jetalgebra import (DP_ONE, DP_ZERO, DiffPoly, EvoField, MONO_ONE, is_jet, jet,
                         jet_depvar, jet_order)
from .systems import EvolutionSystem, builtin_system
from .varcalc import (ExactnessCertificate, commutator, commutators, dt_along,
                      dt_euler_rows, euler_operator, integrate_dx, phi_prime)

DEFAULT_UNKNOWN_CAP = 20000
_NO_ANTIDERIVATIVE = (ExplicitXTDependence, NonIntegerExponentPath)  # no D_x^{-1} of K^1


def _unknown_cap() -> int:
    """JETSYM_MAX_UNKNOWNS, a nonnegative decimal integer of at most 18
    digits, or DEFAULT_UNKNOWN_CAP when it is unset or empty."""
    env = os.environ.get("JETSYM_MAX_UNKNOWNS")
    if not env:
        return DEFAULT_UNKNOWN_CAP
    if not (env.isascii() and env.isdigit() and len(env) <= 18):
        shown = env if len(env) <= 40 else f"{env[:20]}... ({len(env)} characters)"
        raise InvalidSetting(f"JETSYM_MAX_UNKNOWNS must be a nonnegative decimal "
                             f"integer of at most 18 digits, not {shown!r}")
    return int(env)


# ---------------------------------------------------------------------------
# Symmetry condition
# ---------------------------------------------------------------------------

class SymmetryCheck(NamedTuple):
    ok: bool
    defect: EvoField


def is_symmetry(K: EvoField, system: EvolutionSystem) -> SymmetryCheck:
    """K is a symmetry iff D_t(K) - F'[K] = K_t + [F, K] vanishes."""
    return _symmetry_check(K, commutator(system.rhs, K))


def _symmetry_check(K: EvoField, bracket: EvoField) -> SymmetryCheck:
    """The symmetry check of K, given its bracket [F, K]."""
    defect = EvoField(k.partial_t() for k in K) + bracket
    return SymmetryCheck(defect.is_zero, defect)


# ---------------------------------------------------------------------------
# Commutativity
# ---------------------------------------------------------------------------

class CommutativityTable(NamedTuple):
    size: int
    failures: Tuple  # ((i, j), defect EvoField) pairs, 1-indexed

    @property
    def all_zero(self) -> bool:
        return not self.failures


def _table_pairs(n: int, first: int = 0) -> list:
    """The index pairs (i, j), i < j, of n fields numbered from first."""
    return [(i, j) for i in range(first, first + n) for j in range(i + 1, first + n)]


def _table(n: int, brackets) -> CommutativityTable:
    """The table of n members from their brackets, in ``_table_pairs`` order."""
    failures = tuple(((i + 1, j + 1), bracket)
                     for (i, j), bracket in zip(_table_pairs(n), brackets)
                     if not bracket.is_zero)
    return CommutativityTable(n, failures)


def commutativity_table(h: Hierarchy) -> CommutativityTable:
    """All-pairs commutators of the hierarchy members, in one
    ``commutators`` family.

    For fs, each K_n^1 is integrated once (``integrate_dx``), and K_n
    enters the family in the linearizing frame with that certificate
    K_n^1 = D_x A + r; its remainder r need not be zero, so every bracket
    stays exact.  A member that cannot be integrated (explicit x or t, or a
    logarithm on the way) enters as it is.
    """
    n = len(h.members)
    integrals = {}
    if h.system.name == "fs":
        for i, k in enumerate(h.members):
            try:
                integrals[i] = integrate_dx(k[0])
            except _NO_ANTIDERIVATIVE:
                pass
    return _table(n, commutators(h.members, _table_pairs(n), integrals))


# ---------------------------------------------------------------------------
# Conserved densities
# ---------------------------------------------------------------------------

class DensityClassification(NamedTuple):
    status: str  # "trivial" | "nontrivial" | "not_conserved"
    dt_certificate: ExactnessCertificate
    rho_certificate: Optional[ExactnessCertificate]


def is_conserved_density(rho: DiffPoly, system: EvolutionSystem) -> DensityClassification:
    """Classify rho: conserved iff D_t(rho) is exact, trivial iff rho is."""
    if rho.contains_xt():
        raise ExplicitXTDependence("density classification needs x,t-free input")
    dt = dt_along(rho, system)
    dt_cert = integrate_dx(dt)
    if not dt_cert.is_exact:
        return DensityClassification("not_conserved", dt_cert, None)
    # independent cross-check: the Euler images must agree with the remainder
    if any(not euler_operator(dt, d).is_zero for d in range(system.nvars)):
        raise CrossCheckFailed("exactness oracles disagree")
    rho_cert = integrate_dx(rho)
    status = "trivial" if rho_cert.is_exact else "nontrivial"
    return DensityClassification(status, dt_cert, rho_cert)


def density_decompose(rho: DiffPoly, system: Optional[EvolutionSystem] = None):
    """Split a conserved density as c * w + D_x(exact part), exactly.

    One ``integrate_dx`` gives the certificate rho = D_x A + r; it strips
    jets of order 1 and up only, so rho splits iff r is c * w, and then
    (c, A) is returned.  A constant or any other term in r raises
    NotDecomposable, which carries the certificate, and a logarithm on
    the way NonIntegerExponentPath.
    """
    if rho.contains_xt():
        raise ExplicitXTDependence("decomposition needs x,t-free input")
    cert = integrate_dx(rho)
    w = ((jet(0, 0), 1),)
    if any(m not in (w, MONO_ONE) for m in cert.remainder.terms):
        raise NotDecomposable("density is not constant * w modulo Im D_x", cert)
    if MONO_ONE in cert.remainder.terms:
        raise NotDecomposable("residual after removing constant * w is inexact", cert)
    return cert.remainder.coefficient(w), cert.antiderivative


class DensityAnsatz(NamedTuple):
    """Monomial densities bounded in jet order and total degree."""

    max_order: int
    max_degree: int

    def monomials(self, system: EvolutionSystem):
        gens = [jet(d, i) for d in range(system.nvars)
                for i in range(self.max_order + 1)]
        monos = [MONO_ONE]
        for deg in range(1, self.max_degree + 1):
            for combo in combinations_with_replacement(gens, deg):
                counts: dict = {}
                for g in combo:
                    counts[g] = counts.get(g, 0) + 1
                monos.append(tuple(sorted(counts.items())))
        return monos

    def size(self, system: EvolutionSystem) -> Optional[int]:
        """len(self.monomials(system)), without building them; None past 2^64.

        That is C(n + D, D) for n jets and degree D, formed as the product
        of (max(n, D) + i) / i over i <= min(n, D), whose partial products
        are binomials that at least double at each step.
        """
        ngens = system.nvars * (self.max_order + 1)
        low, high = sorted((ngens, self.max_degree))
        count = 1
        for i in range(1, low + 1):
            count = count * (high + i) // i
            if count >> 64:
                return None
        return count


class TrivialDensity(NamedTuple):
    density: DiffPoly
    constant_part: RationalFunction
    certificate: ExactnessCertificate


class DensityReport(NamedTuple):
    system_name: str
    ansatz: DensityAnsatz
    unknowns: int
    solution_dimension: int
    nontrivial_basis: Tuple[DiffPoly, ...]
    trivial_parts: Tuple[TrivialDensity, ...]

    @property
    def nontrivial_dimension(self) -> int:
        return len(self.nontrivial_basis)

    def to_json(self):
        return {
            "system": self.system_name,
            "max_order": self.ansatz.max_order,
            "max_degree": self.ansatz.max_degree,
            "unknowns": self.unknowns,
            "solution_dimension": self.solution_dimension,
            "nontrivial_dimension": self.nontrivial_dimension,
            "nontrivial_basis": [b.to_json() for b in self.nontrivial_basis],
            "trivial_parts": [
                {"density": t.density.to_json(),
                 "constant_part": t.constant_part.to_json(),
                 "antiderivative": t.certificate.antiderivative.to_json()}
                for t in self.trivial_parts],
        }


def density_search(system: EvolutionSystem, ansatz: DensityAnsatz) -> DensityReport:
    """Exact search for conserved densities within the ansatz.

    Sets up the Euler images of D_t(rho) as a homogeneous linear system
    over the coefficient field (assembled on Kronecker-packed ints by
    ``dt_euler_rows``, one column per ansatz monomial, exact by a height
    bound; its row labels stay packed, since only the rows are read), and
    takes its nullspace exactly: ``sparse_rref`` first zeroes the columns
    that rows of one entry force to zero, then eliminates the rest.  The
    quotient modulo Im D_x and constants is the kernel of the Euler-image
    map on that solution basis, a second nullspace: the pivot densities
    form the nontrivial quotient basis, and each kernel vector combines to
    a density that is exact up to its free term, reported with its
    certificate.
    """
    if ansatz.max_order < 0 or ansatz.max_degree < 0:
        raise ValueError("ansatz bounds must be nonnegative")
    cap = _unknown_cap()
    count = ansatz.size(system)
    if count is None or count > cap:
        raise AnsatzTooLarge(count, cap)
    monos = ansatz.monomials(system)
    # one equation per (euler variable, image monomial)
    rows = dt_euler_rows(monos, system.rhs)
    _, solutions = sparse_nullspace(list(rows.values()), len(monos))
    densities = [DiffPoly({monos[c]: v for c, v in vec.items()}) for vec in solutions]
    # quotient modulo Im D_x and constants: the kernel of the Euler-image
    # map on the densities; each kernel vector combines to a density that
    # is exact up to its free term
    images: dict = {}
    for i, rho in enumerate(densities):
        for d in range(system.nvars):
            for mu, coeff in euler_operator(rho, d).terms.items():
                images.setdefault((d, mu), {})[i] = coeff
    pivot_cols, kernel = sparse_nullspace(list(images.values()), len(densities))
    nontrivial = [densities[c] for c in pivot_cols]
    trivial = []
    for vec in kernel:
        combo = DiffPoly(accumulate({}, ((m, v * c) for i, c in vec.items()
                                         for m, v in densities[i].terms.items())))
        const = combo.free_term()
        cert = integrate_dx(combo - DiffPoly.constant(const))
        if not cert.is_exact:
            raise CrossCheckFailed("Euler-trivial density failed integration")
        trivial.append(TrivialDensity(combo, const, cert))
    return DensityReport(system.name, ansatz, len(monos), len(densities),
                         tuple(nontrivial), tuple(trivial))


# ---------------------------------------------------------------------------
# Linearizing substitution
# ---------------------------------------------------------------------------

class SubstitutionReport(NamedTuple):
    ok: bool
    defects: Tuple[DiffPoly, DiffPoly]


def push_forward(field: EvoField) -> EvoField:
    """Phi_*: the image Phi'(A/(4u), -B/(2 sqrt u)) (``varcalc.phi_prime``),
    in the (w, z) jets, of a field (A, B) on the (u, v) jets under the
    linearizing map w = u_x/(4u), z = -v/(2 sqrt u).

    u_k/u and v_k/sqrt u are the (w, z) polynomials P_k and Q_k:
    P_0 = 1, P_{k+1} = D_x P_k + 4w P_k, Q_0 = -2z, Q_{k+1} = D_x Q_k + 2w Q_k.
    Counting a u jet as 1 and a v jet as 1/2, every term of A must have
    u-weight 1 and every term of B u-weight 1/2, so A/u and B/sqrt u are
    polynomials in the P_k and Q_k.  Any other term, one in x or t, or a
    field with other than two components raises ValueError.
    """
    A, B = field
    w, z = DiffPoly.var(jet(0, 0)), DiffPoly.var(jet(1, 0))
    images = ([DP_ONE], [z.scalar_mul(rf(-2))])  # P_k, Q_k
    for _ in range(field.max_jet_order() or 0):
        for chain, shift in zip(images, (4, 2)):
            chain.append(chain[-1].dx() + w.scalar_mul(rf(shift)) * chain[-1])

    def rewritten(expr: DiffPoly, name: str, half_weight: int) -> DiffPoly:
        """expr / u^(half_weight/2) as a polynomial in the P_k and Q_k."""
        acc = DP_ZERO
        for mono, coeff in expr.terms.items():
            # the u-weight in halves: 2 per power of a u jet, 1 per power of a v jet
            if any(e < 0 or not is_jet(g) or jet_depvar(g) > 1 for g, e in mono) \
                    or sum(e * (2 - jet_depvar(g)) for g, e in mono) != half_weight:
                raise ValueError(f"{name} has a term that is not a polynomial of u-weight "
                                 f"{Fraction(half_weight, 2)} in the u and v jets")
            term = DiffPoly.constant(coeff)
            for g, e in mono:
                for _ in range(e):
                    term = term * images[jet_depvar(g)][jet_order(g)]
            acc = acc + term
        return acc

    return phi_prime(rewritten(A, "A", 2).scalar_mul(rf(Fraction(1, 4))),
                     rewritten(B, "B", 1).scalar_mul(rf(Fraction(-1, 2))))


def substitution_check(alpha0: Optional[Fraction] = None) -> SubstitutionReport:
    """Check that the linearizing map w = u_x/(4u), z = -v/(2 sqrt u)
    takes the triangular system into the Burgers-type system: the defects
    push_forward(ts rhs) - fs rhs, in the (w, z) jets, must vanish.
    """
    ts, fs = builtin_system("ts"), builtin_system("fs")
    if alpha0 is not None:
        ts, fs = ts.specialize(alpha0), fs.specialize(alpha0)
    defects = push_forward(ts.rhs) - fs.rhs
    return SubstitutionReport(defects.is_zero, tuple(defects))


# ---------------------------------------------------------------------------
# Hierarchy verification checklist
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    defect: object = None  # canonical JSON of the offending field, on failure

    def to_json(self):
        out = {"name": self.name, "status": "pass" if self.ok else "fail",
               "detail": self.detail}
        if self.defect is not None:
            out["defect"] = self.defect
        return out


class VerificationReport(NamedTuple):
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self):
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            suffix = f"  {c.detail}" if c.detail else ""
            lines.append(f"[{status}] {c.name}{suffix}")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def verify_hierarchy(h: Hierarchy) -> VerificationReport:
    """The full verification checklist for a generated hierarchy.

    Every bracket of the checklist comes from one ``commutators`` family
    over (F, K_1..K_N), and S after them for fs, on one kernel, so each
    field is scaled, packed and given its D_x table once.  Its pairs are
    the symmetry pairs (F, K_n), then the scaling pairs (S, K_n), then the
    table pairs (K_i, K_j): the tables of F and S are dropped before those
    of the members grow.  For fs the density decompositions
    K_n^1 = c w + D_x A run before the family, and each member that has
    one enters it in the linearizing frame of that certificate;
    F, S and a member with none enter as they are.  The report keeps its
    own order.  A K_n^1 with explicit x or t, or one whose integration
    meets a logarithm, fails its density decomposition and its Im D_x
    check, with the reason as detail.  Each K_n^1 is integrated once: the
    Im D_x check of a trailing member reads the certificate or the error
    of its decomposition, and only a member with x or t goes to
    ``integrate_dx`` again, which refuses it at entry with its own detail.
    """
    checks = []
    system = h.system
    names = system.depvars
    param = system.parameter or "alpha"
    is_fs = system.name == "fs"
    count = len(h.members)
    fields = [system.rhs, *h.members]
    pairs = [(0, n) for n in range(1, count + 1)]
    decompositions = {}  # n -> (c, A), or the reason K_n^1 has none
    if is_fs:
        fields.append(scaling_symmetry(h.specialized_at))
        pairs += [(count + 1, n) for n in range(1, count + 1)]
        for n in range(1, count + 1):
            try:
                decompositions[n] = density_decompose(h.member(n)[0], system)
            except JetsymError as exc:  # reported, or raised, after the family
                decompositions[n] = exc
    table_start = len(pairs)
    pairs += _table_pairs(count, 1)
    w = DiffPoly.var(jet(0, 0))
    integrals = {n: ExactnessCertificate(d[1], w.scalar_mul(d[0]))
                 for n, d in decompositions.items() if isinstance(d, tuple)}
    brackets = list(commutators(fields, pairs, integrals))
    for n, bracket in enumerate(brackets[:count], 1):
        res = _symmetry_check(h.member(n), bracket)
        detail = "" if res.ok else f"defect {res.defect.text(names, param)}"
        checks.append(CheckResult(f"symmetry K_{n}", res.ok, detail,
                                  None if res.ok else res.defect.to_json()))
    table = _table(count, brackets[table_start:])
    detail = "" if table.all_zero else \
        "nonzero at " + ", ".join(str(p) for p, _ in table.failures)
    checks.append(CheckResult(
        "pairwise commutativity", table.all_zero, detail,
        None if table.all_zero else table.failures[0][1].to_json()))
    for n in range(1, count + 1):
        try:
            form = structural_check(h.member(n), n)
            lead_ok = all(not c.is_zero for c in form.leading)
            checks.append(CheckResult(
                f"structural form K_{n}", lead_ok,
                "leading " + ", ".join(c.text(param) for c in form.leading)))
        except StructuralViolation as exc:
            checks.append(CheckResult(f"structural form K_{n}", False, str(exc)))
    if is_fs:
        for n, bracket in enumerate(brackets[count:2 * count], 1):
            defect = bracket - h.member(n).scalar_mul(n)
            checks.append(CheckResult(f"scaling homogeneity [S, K_{n}] = {n} K_{n}",
                                      defect.is_zero))
        for n, found in decompositions.items():
            name = f"density decomposition of K_{n}^1 has zero w-part"
            if isinstance(found, (NotDecomposable, *_NO_ANTIDERIVATIVE)):
                checks.append(CheckResult(name, False, str(found)))
                continue
            if isinstance(found, Exception):
                raise found
            c = found[0]
            checks.append(CheckResult(name, c.is_zero,
                                      "" if c.is_zero else f"constant part {c.text(param)}"))
        for cert in h.certificates:
            ok1 = cert.prev.antiderivative.dx() == h.member(cert.n - 1)[0]
            ok2 = cert.prevprev.antiderivative.dx() == h.member(cert.n - 2)[0]
            checks.append(CheckResult(
                f"Im D_x certificates for step {cert.n}", ok1 and ok2))
        # recursion steps only consume antiderivatives of earlier members,
        # so certify the first components of the trailing members directly,
        # by the decomposition's certificate (A, c w) or its error
        for n in range(max(count - 1, 1), count + 1):
            found = decompositions[n]
            if isinstance(found, ExplicitXTDependence):
                try:
                    integrate_dx(h.member(n)[0])
                except ExplicitXTDependence as exc:
                    found = exc
            if isinstance(found, _NO_ANTIDERIVATIVE):
                checks.append(CheckResult(f"K_{n}^1 lies in Im D_x", False, str(found)))
                continue
            cert = found.certificate if isinstance(found, NotDecomposable) else integrals[n]
            checks.append(CheckResult(
                f"K_{n}^1 lies in Im D_x", cert.is_exact,
                "" if cert.is_exact else "nonzero remainder",
                None if cert.is_exact else cert.remainder.to_json()))
    if system.name == "ts1" and h.triangular is not None:
        bs = h.triangular.b
        bad = next((n for n in range(1, count + 1)
                    if h.member(n)[0].coefficient(((jet(0, n), 1),)) != bs[n]), None)
        checks.append(CheckResult(
            "triangular leading coefficients", bad is None,
            "" if bad is None else f"u_{bad} coefficient differs from b_{bad}"))
        if len(bs) > 3:
            a_rf = (rf(h.specialized_at) if h.specialized_at is not None
                    else RationalFunction.param())
            rec_ok = all(
                bs[n] == bs[n - 1] - (rf(1) - a_rf) * rf(Fraction(1, 2)) * bs[n - 2]
                for n in range(3, len(bs)))
            checks.append(CheckResult("b recurrence", rec_ok))
    return VerificationReport(tuple(checks))
