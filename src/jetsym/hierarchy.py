"""Hierarchy generation: the two-term recursion for the Burgers-type
system (fs) and the triangular recursion for ts1, plus the scaling
symmetry and the leading-linear structural check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .coeffield import (AlphaPoly, RF_ONE, RationalFunction, parse_rational,
                        rational_text, rf)
from .errors import CrossCheckFailed, InvalidHierarchy, StructuralViolation
from .jetalgebra import (DP_ZERO, DiffPoly, EvoField, T_GEN, X_GEN, is_jet, jet,
                         jet_order, mono_degree)
from .operators import OperatorMatrix, OpTerm, apply_sum
from .systems import EvolutionSystem, builtin_names, builtin_system, parse_expression
from .varcalc import DxChain, ExactnessCertificate

_FS_VARS = ("w", "z")
_S_POLY = AlphaPoly((-1, 2))  # 2*alpha - 1


def _fs_expr(src: str) -> DiffPoly:
    return parse_expression(src, _FS_VARS, "alpha")


def _over_s(num_coeffs) -> RationalFunction:
    """Rational function (polynomial in alpha) / (2*alpha - 1)."""
    return RationalFunction(AlphaPoly(num_coeffs), _S_POLY)


def fs_seed() -> Tuple[EvoField, EvoField]:
    """The two seed symmetries of the Burgers-type system.

    The second component of the second seed carries
    +4z(alpha*w_x + (2alpha+1)w^2)/(2alpha-1): with the minus sign the
    field fails the symmetry condition, which is checked in the tests.
    """
    k1 = EvoField((_fs_expr("w_x"), _fs_expr("z_x")))
    k2_1 = _fs_expr("w_xx + 8*w*w_x").scalar_mul(_over_s((-1,))) \
        + _fs_expr("2*z*z_x")
    k2_2 = _fs_expr("z_xx + 4*w*z_x - 2*z^3") \
        + _fs_expr("alpha*z*w_x + (2*alpha + 1)*z*w^2").scalar_mul(_over_s((4,)))
    return k1, EvoField((k2_1, k2_2))


def recursion_matrix() -> OperatorMatrix:
    """First-order matrix of the two-term recursion (applied to K_{n-1})."""
    one = DiffPoly.constant(RF_ONE)
    return OperatorMatrix([
        [
            (OpTerm(one, 1),
             OpTerm(_fs_expr("4*w"), 0),
             OpTerm(_fs_expr("4*w_x"), -1)),
            (),
        ],
        [
            (OpTerm(_fs_expr("2*z_x - 4*w*z"), -1),),
            (OpTerm(one, 1), OpTerm(_fs_expr("2*w"), 0)),
        ],
    ])


def second_recursion_matrix() -> OperatorMatrix:
    """Second-order lag matrix of the two-term recursion (applied to K_{n-2})."""
    m11 = (
        OpTerm(DiffPoly.constant(_over_s((0, -1))), 2),
        OpTerm(_fs_expr("w").scalar_mul(_over_s((0, -8))), 1),
        OpTerm(_fs_expr("6*alpha*w_x + 8*alpha*w^2").scalar_mul(_over_s((-2,)))
               + _fs_expr("2*z^2"), 0),
        OpTerm(_fs_expr("alpha*w_xx + 8*alpha*w*w_x").scalar_mul(_over_s((-4,)))
               + _fs_expr("4*z*z_x"), -1),
    )
    m12 = (OpTerm(_fs_expr("z"), 1), OpTerm(_fs_expr("z_x"), 0))
    m21 = (
        OpTerm(_fs_expr("z").scalar_mul(_over_s((0, 2))), 1),
        OpTerm(_fs_expr("w*z").scalar_mul(_over_s((0, 16))), 0),
        OpTerm(_fs_expr("w_x*z + 4*w^2*z").scalar_mul(_over_s((0, 8)))
               + _fs_expr("-4*z^3"), -1),
    )
    m22 = (OpTerm(_fs_expr("-2*z^2"), 0),)
    return OperatorMatrix([[m11, m12], [m21, m22]])


def _antiderivative_rows() -> tuple:
    """The rows that give A_n = D_x^{-1} K_n^1 from the step's inputs,
    under the recursion matrix and under the second one.

    With s = 2*alpha - 1 and A_k the antiderivative of K_k^1,
    A_n = K_{n-1}^1 + 4w A_{n-1} - (alpha/s) D_x K_{n-2}^1
          - (8 alpha/s) w K_{n-2}^1
          + (2z^2 - (4 alpha w_x + 16 alpha w^2)/s) A_{n-2} + z K_{n-2}^2:
    D_x of each row is row 0 of its matrix (``fs_hierarchy`` checks it),
    and every term has a jet factor, so A_n has no free term and is the
    constructive antiderivative.
    """
    under_rec = [(OpTerm(DiffPoly.constant(RF_ONE), 0), OpTerm(_fs_expr("4*w"), -1)), ()]
    under_m = [
        (OpTerm(DiffPoly.constant(_over_s((0, -1))), 1),
         OpTerm(_fs_expr("w").scalar_mul(_over_s((0, -8))), 0),
         OpTerm(_fs_expr("4*alpha*w_x + 16*alpha*w^2").scalar_mul(_over_s((-1,)))
                + _fs_expr("2*z^2"), -1)),
        (OpTerm(_fs_expr("z"), 0),),
    ]
    return under_rec, under_m


def _check_antiderivative_rows(matrices):
    """Raise CrossCheckFailed unless D_x of row 2 is row 0 of each matrix,
    as an identity in the free jets of (w, z, a, b): each is applied by
    ``apply_sum`` to K = (a_x, b) with D_x^{-1} K^1 = a."""
    a, b = DiffPoly.var(jet(2, 0)), DiffPoly.var(jet(3, 0))
    for name, matrix in zip(("recursion", "second recursion"), matrices):
        chain = DxChain(EvoField((a.dx(), b)))
        chain.certificates[0] = ExactnessCertificate(a, DP_ZERO)
        (top, _, antiderivative), _ = apply_sum([(matrix, chain)])
        if antiderivative.dx() != top:
            raise CrossCheckFailed(
                f"D_x of the antiderivative row is not row 0 of the {name} matrix")


def _specialize_matrix(M: OperatorMatrix, value) -> OperatorMatrix:
    return OperatorMatrix([
        [tuple(OpTerm(t.coeff.specialize(value), t.power) for t in entry)
         for entry in row]
        for row in M.entries])


@dataclass(frozen=True)
class StepCertificates:
    """Im D_x witnesses consumed by one recursion step."""

    n: int
    prev: ExactnessCertificate
    prevprev: ExactnessCertificate


@dataclass(frozen=True)
class TriangularCoeffs:
    """Leading coefficients b_n and tails Q_n of the triangular hierarchy."""

    b: Tuple[RationalFunction, ...]  # b[0] unused, b[n] for member n
    Q: Tuple[DiffPoly, ...]


@dataclass(frozen=True)
class Hierarchy:
    """Generated symmetries K_1..K_N with provenance and certificates."""

    system: EvolutionSystem
    members: Tuple[EvoField, ...]
    provenance: Tuple[str, ...]
    certificates: Tuple[StepCertificates, ...]
    specialized_at: Optional[Fraction] = None
    triangular: Optional[TriangularCoeffs] = None

    def member(self, n: int) -> EvoField:
        """1-indexed access matching the K_n numbering."""
        return self.members[n - 1]

    def to_json(self):
        out = {
            "system": self.system.name,
            "parameter": self.system.parameter,
            "specialized_at": rational_text(self.specialized_at)
            if self.specialized_at is not None else None,
            "members": [m.to_json() for m in self.members],
            "provenance": list(self.provenance),
            "certificates": [
                {"n": c.n,
                 "prev": c.prev.antiderivative.to_json(),
                 "prevprev": c.prevprev.antiderivative.to_json()}
                for c in self.certificates],
        }
        if self.triangular is not None:
            out["b_sequence"] = [b.to_json() for b in self.triangular.b[1:]]
        return out

    @staticmethod
    def from_json(obj) -> "Hierarchy":
        if not isinstance(obj, dict) or obj.get("system") not in builtin_names():
            raise InvalidHierarchy("hierarchy JSON must name a built-in system")
        system = builtin_system(obj["system"])
        if "parameter" not in obj or obj["parameter"] != system.parameter:
            raise InvalidHierarchy(
                f"system {system.name} has the parameter {system.parameter!r}")
        try:
            spec_at = obj.get("specialized_at")
            value = None if spec_at is None else parse_rational(spec_at)
            members = tuple(EvoField.from_json(m) for m in obj["members"])
            certs = tuple(
                StepCertificates(
                    c["n"],
                    ExactnessCertificate(DiffPoly.from_json(c["prev"]), DP_ZERO),
                    ExactnessCertificate(DiffPoly.from_json(c["prevprev"]), DP_ZERO))
                for c in obj.get("certificates", ()))
            provenance = tuple(obj.get("provenance", ()))
            triangular = None
            if "b_sequence" in obj:
                bs = (rf(0),) + tuple(RationalFunction.from_json(b)
                                      for b in obj["b_sequence"])
                triangular = TriangularCoeffs(bs, ())
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidHierarchy(f"malformed hierarchy JSON: {exc!r}") from None
        if value is not None:
            system = system.specialize(value)
        nvars = system.nvars
        if any(len(m) != nvars for m in members):
            raise InvalidHierarchy(f"members need {nvars} components")
        polys = [p for m in members for p in m]
        polys += [c.prev.antiderivative for c in certs]
        polys += [c.prevprev.antiderivative for c in certs]
        if any(d >= nvars for p in polys for d in p.depvars()):
            raise InvalidHierarchy("a jet names a dependent variable the system lacks")
        if any(not isinstance(c.n, int) or not 3 <= c.n <= len(members) for c in certs):
            raise InvalidHierarchy("a certificate names no recursion step")
        return Hierarchy(system, members, provenance, certs, value, triangular)


def fs_step(prev: DxChain, prevprev: DxChain, rec: OperatorMatrix, m: OperatorMatrix):
    """One application of the two-term recursion to the chains of K_{n-1}
    and K_{n-2}; returns (rec K_{n-1} + m K_{n-2}, certificates).

    The sum is formed by one ``apply_sum``: both matrix applications run
    on packed ints, and only the antiderivatives, stored in the chains,
    are formed over the field.  It has one component per matrix row: K_n
    for the paper's matrices, and (K_n^1, K_n^2, A_n) with
    ``_antiderivative_rows`` stacked under them, A_n = D_x^{-1} K_n^1.
    """
    kn, (certs1, certs2) = apply_sum([(rec, prev), (m, prevprev)])
    return kn, certs1.get(0), certs2.get(0)


def fs_hierarchy(N: int, alpha0: Optional[Fraction] = None) -> Hierarchy:
    """Members K_1..K_N of the Burgers-type hierarchy.

    With alpha0 the whole computation runs over Q after specializing the
    seeds and both matrices; specializing at a pole of any seed
    coefficient raises PoleAtParameter.  Each step stacks
    ``_antiderivative_rows`` under the matrices, so it also forms
    A_n = D_x^{-1} K_n^1, which becomes the certificate of K_n's chain:
    ``integrate_dx`` runs on the two seeds only.  Before the first step,
    the rows are checked against the matrices in use
    (CrossCheckFailed).
    """
    if N < 1:
        raise ValueError("hierarchy length must be at least 1")
    system = builtin_system("fs")
    k1, k2 = fs_seed()
    rec, m = (OperatorMatrix(matrix.entries + (row,)) for matrix, row in
              zip((recursion_matrix(), second_recursion_matrix()), _antiderivative_rows()))
    if alpha0 is not None:
        alpha0 = Fraction(alpha0)
        k1, k2 = k1.specialize(alpha0), k2.specialize(alpha0)
        rec = _specialize_matrix(rec, alpha0)
        m = _specialize_matrix(m, alpha0)
        system = system.specialize(alpha0)
    if N > 2:
        _check_antiderivative_rows((rec, m))
    members = [k1, k2][:N]
    provenance = ["seed", "seed"][:N]
    certificates = []
    # each member is read twice, by rec as K_{n-1} and then by m as K_{n-2}:
    # its chain holds its antiderivative for both steps
    chains = [DxChain(k) for k in members]
    while len(members) < N:
        n = len(members) + 1
        (*comps, antiderivative), cert_prev, cert_prevprev = fs_step(
            chains[-1], chains[-2], rec, m)
        kn = EvoField(comps)
        chains = [chains[-1], DxChain(kn)]
        chains[-1].certificates[0] = ExactnessCertificate(antiderivative, DP_ZERO)
        members.append(kn)
        provenance.append("recursion")
        certificates.append(StepCertificates(n, cert_prev, cert_prevprev))
    return Hierarchy(system, tuple(members), tuple(provenance),
                     tuple(certificates), alpha0)


def triangular_coeffs(N: int, a: RationalFunction) -> TriangularCoeffs:
    """b_n and Q_n sequences at the field element a: b_1 = 1, b_2 = a,
    b_n = b_{n-1} - (1-a) b_{n-2}/2; Q_1 = 0, Q_2 = v^2,
    Q_n = D_x Q_{n-1} - ((1-a)/2) D_x^2 Q_{n-2} + v v_{n-2}.
    Index 0 of both sequences is an unused placeholder.
    """
    half_one_minus_a = (rf(1) - a) * rf(Fraction(1, 2))
    b = [rf(0), rf(1), a]
    v = 1
    q = [DP_ZERO, DP_ZERO, DiffPoly.var(jet(v, 0)) * DiffPoly.var(jet(v, 0))]
    for n in range(3, N + 1):
        b.append(b[n - 1] - half_one_minus_a * b[n - 2])
        vterm = DiffPoly.var(jet(v, 0)) * DiffPoly.var(jet(v, n - 2))
        q.append(q[n - 1].dx() - q[n - 2].dx().dx().scalar_mul(half_one_minus_a)
                 + vterm)
    return TriangularCoeffs(tuple(b[:N + 1]), tuple(q[:N + 1]))


def ts1_hierarchy(N: int, a0: Optional[Fraction] = None) -> Hierarchy:
    """Members G_n = (b_n u_n + Q_n, v_n) of the triangular hierarchy,
    built over the symbolic parameter a, or at a = a0."""
    if N < 1:
        raise ValueError("hierarchy length must be at least 1")
    system = builtin_system("ts1")
    if a0 is not None:
        a0 = Fraction(a0)
        system = system.specialize(a0)
    coeffs = triangular_coeffs(N, RationalFunction.param() if a0 is None else rf(a0))
    members = tuple(
        EvoField((DiffPoly.var(jet(0, n)).scalar_mul(coeffs.b[n]) + coeffs.Q[n],
                  DiffPoly.var(jet(1, n))))
        for n in range(1, N + 1))
    provenance = tuple("seed" if n <= 2 else "recursion" for n in range(1, N + 1))
    return Hierarchy(system, members, provenance, (), a0, coeffs)


def scaling_symmetry(alpha0: Optional[Fraction] = None) -> EvoField:
    """S = 2t(1-2alpha) K_2 + x K_1 + (w, z)."""
    k1, k2 = fs_seed()
    t = DiffPoly.var(T_GEN)
    x = DiffPoly.var(X_GEN)
    two_t = t.scalar_mul(RationalFunction(AlphaPoly((2, -4))))  # 2(1-2alpha) t
    comps = []
    for c in range(2):
        comps.append(two_t * k2[c] + x * k1[c] + DiffPoly.var(jet(c, 0)))
    s = EvoField(comps)
    if alpha0 is not None:
        s = s.specialize(alpha0)
    return s


@dataclass(frozen=True)
class StructuralForm:
    """Leading linear coefficients of a symmetry in the canonical shape."""

    order: int
    leading: Tuple[RationalFunction, ...]


def structural_check(K: EvoField, j: int) -> StructuralForm:
    """Verify K = (alpha_j w_j + tail1, beta_j z_j + tail2) with tails of
    order < j containing neither free nor linear terms; returns the
    leading coefficients, raises StructuralViolation otherwise.
    """
    if K.contains_xt():
        raise StructuralViolation("field depends explicitly on x or t")
    leading = []
    for c, comp in enumerate(K.components):
        lead_mono = ((jet(c, j), 1),)
        lead = comp.coefficient(lead_mono)
        tail = comp - DiffPoly.var(jet(c, j)).scalar_mul(lead)
        top = tail.max_jet_order()
        if top is not None and top >= j:
            offender = next(m for m in tail.terms
                            if any(is_jet(g) and jet_order(g) >= j for g, _ in m))
            raise StructuralViolation(
                f"component {c} tail contains a jet of order >= {j}",
                monomial=offender, component=c)
        if not tail.free_term().is_zero:
            raise StructuralViolation(
                f"component {c} tail has a free term", monomial=(), component=c)
        for mono in tail.terms:
            if mono_degree(mono) == 1:
                raise StructuralViolation(
                    f"component {c} tail has a linear term",
                    monomial=mono, component=c)
        leading.append(lead)
    return StructuralForm(j, tuple(leading))
