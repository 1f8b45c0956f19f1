"""Hierarchy generation: the two-term recursion for the Burgers-type
system (fs) and the triangular recursion for ts1, plus the scaling
symmetry and the leading-linear structural check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .coeffield import AlphaPoly, RF_ONE, RationalFunction, json_rational, rational_text, rf
from .errors import (HierarchyTooLarge, InvalidHierarchy, NonlocalObstruction,
                     StructuralViolation)
from .jetalgebra import (DP_ZERO, DiffPoly, EvoField, JsonWriter, T_GEN, X_GEN, jet,
                         mono_degree)
from .operators import OperatorMatrix, OpTerm, apply_sum
from .systems import EvolutionSystem, builtin_names, builtin_system, parse_expression
from .varcalc import ExactnessCertificate, integrate_dx, linearizing_frame, phi_prime

_FS_VARS = ("w", "z")
_S_POLY = AlphaPoly((-1, 2))  # 2*alpha - 1


def _fs_expr(src: str) -> DiffPoly:
    return parse_expression(src, _FS_VARS, "alpha")


def _over_s(num_coeffs) -> RationalFunction:
    """Rational function (polynomial in alpha) / (2*alpha - 1)."""
    return RationalFunction(AlphaPoly(num_coeffs), _S_POLY)


def fs_seed() -> Tuple[EvoField, EvoField]:
    """The two seed symmetries of the Burgers-type system: K_1 = (w_x, z_x)
    and K_2 = F/(1 - 2alpha), F the right-hand side of ``fs``."""
    k1 = EvoField((DiffPoly.var(jet(0, 1)), DiffPoly.var(jet(1, 1))))
    return k1, builtin_system("fs").rhs.scalar_mul(_over_s((-1,)))


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


def frame_matrices(alpha0: Optional[Fraction] = None) -> tuple:
    """(T_A, T_B) of the two-term recursion in the linearizing frame
    (A, q) = ``linearizing_frame``(K, A), with c = alpha/(1 - 2 alpha)
    evaluated at alpha0 if it is given:

        A_n = (D_x + 4w) A_{n-1} + c (D_x + 4w)^2 A_{n-2} + z q_{n-2},
        q_n = (D_x + 2w) q_{n-1},

    where (D_x + 4w)^2 = D_x^2 + 8w D_x + 4w_x + 16w^2.  T_A acts on the
    frame of K_{n-1} and T_B on that of K_{n-2}.  K_n is the frame's image
    under ``varcalc.phi_prime``, (D_x A_n, q_n - 2z A_n), so A_n is the
    antiderivative of K_n^1 that later steps read.
    """
    c = RationalFunction(AlphaPoly((0, 1)), AlphaPoly((1, -2)))
    if alpha0 is not None:
        c = rf(c.eval(alpha0))
    one = DiffPoly.constant(RF_ONE)
    t_a = OperatorMatrix([
        [(OpTerm(one, 1), OpTerm(_fs_expr("4*w"), 0)), ()],
        [(), (OpTerm(one, 1), OpTerm(_fs_expr("2*w"), 0))],
    ])
    t_b = OperatorMatrix([
        [(OpTerm(DiffPoly.constant(c), 2), OpTerm(_fs_expr("8*w").scalar_mul(c), 1),
          OpTerm(_fs_expr("4*w_x + 16*w^2").scalar_mul(c), 0)),
         (OpTerm(_fs_expr("z"), 0),)],
        [(), ()],
    ])
    return t_a, t_b


class StepCertificates(NamedTuple):
    """Im D_x witnesses consumed by one recursion step."""

    n: int
    prev: ExactnessCertificate
    prevprev: ExactnessCertificate


class TriangularCoeffs(NamedTuple):
    """Leading coefficients b_n and tails Q_n of the triangular hierarchy."""

    b: Tuple[RationalFunction, ...]  # b[0] unused, b[n] for member n
    Q: Tuple[DiffPoly, ...]


class Hierarchy(NamedTuple):
    """Generated symmetries K_1..K_N with provenance and certificates."""

    system: EvolutionSystem
    members: Tuple[EvoField, ...]
    provenance: Tuple[str, ...]
    certificates: Tuple[StepCertificates, ...]
    specialized_at: Optional[Fraction] = None
    b_sequence: Optional[Tuple[RationalFunction, ...]] = None  # ts1: b_1..b_N

    def member(self, n: int) -> EvoField:
        """1-indexed access matching the K_n numbering."""
        return self.members[n - 1]

    def to_json(self):
        """The hierarchy as JSON values, in one pass by one ``JsonWriter``:
        each distinct denominator's texts and each factor's form are written
        once, and so is each antiderivative, which two certificates name.
        Parts of the result are shared; each call returns a new structure.
        An empty provenance is left out; any other length but the member
        count, or certificates ``from_json`` refuses, raise ValueError."""
        if len(self.provenance) not in (0, len(self.members)):
            raise ValueError("provenance needs one entry per member, or none")
        self._check_steps(ValueError)
        w = JsonWriter()
        out = {
            "system": self.system.name,
            "parameter": self.system.parameter,
            "specialized_at": rational_text(self.specialized_at)
            if self.specialized_at is not None else None,
            "members": [w.field(m) for m in self.members],
            "provenance": list(self.provenance),
            "certificates": [
                {"n": c.n,
                 "prev": w.poly(c.prev.antiderivative),
                 "prevprev": w.poly(c.prevprev.antiderivative)}
                for c in self.certificates],
        }
        if not self.provenance:
            del out["provenance"]
        if self.b_sequence is not None:
            out["b_sequence"] = [w.coeff(b) for b in self.b_sequence]
        return out

    @staticmethod
    def from_json(obj) -> "Hierarchy":
        if not isinstance(obj, dict) or obj.get("system") not in builtin_names():
            raise InvalidHierarchy("hierarchy JSON must name a built-in system")
        system = builtin_system(obj["system"])
        if "parameter" not in obj or obj["parameter"] != system.parameter:
            raise InvalidHierarchy(
                f"system {system.name} has the parameter {system.parameter!r}")
        if "b_sequence" in obj and system.name != "ts1":
            raise InvalidHierarchy(f"system {system.name} has no b_sequence")
        try:
            spec_at = obj.get("specialized_at")
            value = None if spec_at is None else Fraction(json_rational(spec_at))
            members = tuple(EvoField.from_json(m) for m in obj["members"])
            certs = tuple(
                StepCertificates(
                    c["n"],
                    ExactnessCertificate(DiffPoly.from_json(c["prev"]), DP_ZERO),
                    ExactnessCertificate(DiffPoly.from_json(c["prevprev"]), DP_ZERO))
                for c in obj.get("certificates", ()))
            bs = (tuple(RationalFunction.from_json(b) for b in obj["b_sequence"])
                  if "b_sequence" in obj else None)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidHierarchy(f"malformed hierarchy JSON: {exc!r}") from None
        nvars = system.nvars
        if not members:
            raise InvalidHierarchy("a hierarchy needs at least one member")
        if any(len(m) != nvars for m in members):
            raise InvalidHierarchy(f"members need {nvars} components")
        if bs is not None and len(bs) != len(members):
            raise InvalidHierarchy("b_sequence must have one entry per member")
        provenance = obj.get("provenance", ())
        if "provenance" in obj and not (type(provenance) is list
                                        and len(provenance) == len(members)
                                        and all(type(p) is str for p in provenance)):
            raise InvalidHierarchy("provenance must be a list of strings, one per member")
        polys = [p for m in members for p in m]
        polys += [c.prev.antiderivative for c in certs]
        polys += [c.prevprev.antiderivative for c in certs]
        if any(d >= nvars for p in polys for d in p.depvars()):
            raise InvalidHierarchy("a jet names a dependent variable the system lacks")
        if value is not None:
            system = system.specialize(value)
            coeffs = [c for p in polys for c in p.terms.values()]
            if bs is not None:
                coeffs += bs
            if any(c.num.degree > 0 or c.den.degree > 0 for c in coeffs):
                raise InvalidHierarchy(
                    f"specialized at {system.parameter} = {spec_at}, "
                    f"but a coefficient depends on {system.parameter}")
        h = Hierarchy(system, members, tuple(provenance), certs, value, bs)
        h._check_steps(InvalidHierarchy)
        return h

    def _check_steps(self, error):
        """Raise error unless the certificates name fs steps 3..N in order."""
        steps = range(3, len(self.members) + 1) if self.system.name == "fs" else ()
        if [(type(c.n), c.n) for c in self.certificates] != [(int, n) for n in steps]:
            raise error("certificates must name each recursion step once, in order")


def fs_step(prev: EvoField, prevprev: EvoField, matrices) -> tuple:
    """One step of the two-term recursion, from the frames (A, q) of
    K_{n-1} and K_{n-2}.

    matrices are (T_A, T_B) of ``frame_matrices``: one ``apply_sum`` of
    T_A on prev and T_B on prevprev, which clears the two frames together,
    forms the frame (A_n, q_n), and ``phi_prime`` pushes it back to K_n.
    Returns K_n and the frame.
    """
    frame = apply_sum(list(zip(matrices, (prev, prevprev))))
    return phi_prime(*frame), frame


#: most terms that K_{n-1}, A_{n-1}, K_{n-2} and A_{n-2}, the members and
#: antiderivatives behind the two frames one recursion step of
#: ``fs_hierarchy`` reads, may have together.  They grow about 1.35 times
#: per member, and the step's time about 1.4 times: the symbolic fs steps
#: read 6,203 terms at N = 16, 11,613 at N = 18, 15,684 at N = 19 and
#: 21,015 at N = 20 (the same at alpha = 1/3).  So ``gen`` reaches N = 19,
#: 1.01 s of CPU symbolic (min of 3) on a 2-core x86-64 host (Python
#: 3.11), and refuses the step to N = 20 before its work; N = 40 would
#: otherwise run for hours.
_STEP_TERMS = 16_000

#: most members that ``ts1_hierarchy`` builds.  Its time grows about as
#: N^3, since Q_n has about n/2 terms whose coefficients are polynomials
#: of degree about n/2 in a: symbolic, N = 100 / 200 / 300 take 0.26 /
#: 1.1 / 5.2 s of CPU on a 2-core x86-64 host (Python 3.11), and the JSON
#: of N = 200 another 1.2 s (53 MB).  So ``gen`` reaches N = 200 and
#: refuses a longer ts1 hierarchy before its work; N = 4000 would
#: otherwise run for hours.
_TS1_MEMBERS = 200


def fs_hierarchy(N: int, alpha0: Optional[Fraction] = None) -> Hierarchy:
    """Members K_1..K_N of the Burgers-type hierarchy.

    With alpha0 the whole computation runs over Q after specializing the
    seeds, then the step; specializing at a pole of any seed coefficient
    raises PoleAtParameter.  ``integrate_dx`` runs on the two seeds only (a
    non-exact one raises NonlocalObstruction at entry (0, 0)), which then
    enter the linearizing frame (A, q); each ``fs_step`` forms the next
    frame (``frame_matrices``) and K_n = Phi'(A_n, q_n) (``phi_prime``).
    Each step clears the two frames it reads together, so a frame is
    cleared with each neighbour in the two steps that read it.  Before
    each step, the terms of K_{n-1}, A_{n-1}, K_{n-2} and A_{n-2}, behind
    its two frames, are checked against ``_STEP_TERMS`` (HierarchyTooLarge).
    """
    if N < 1:
        raise ValueError("hierarchy length must be at least 1")
    system = builtin_system("fs")
    k1, k2 = fs_seed()
    if alpha0 is not None:
        alpha0 = Fraction(alpha0)
        k1, k2 = k1.specialize(alpha0), k2.specialize(alpha0)
        system = system.specialize(alpha0)
    members = [k1, k2][:N]
    integrals = []
    frames = []  # the frames of the last two members
    if N > 2:
        matrices = frame_matrices(alpha0)
        for k in members:
            cert = integrate_dx(k[0])
            if not cert.is_exact:
                raise NonlocalObstruction(cert.remainder, entry=(0, 0))
            integrals.append(cert.antiderivative)
            frames.append(EvoField(linearizing_frame(k, cert.antiderivative)))
    while len(members) < N:
        terms = sum(len(p) for p in (*members[-1], *members[-2], *integrals[-2:]))
        if terms > _STEP_TERMS:
            raise HierarchyTooLarge(terms, _STEP_TERMS)
        kn, frame = fs_step(frames[-1], frames[-2], matrices)
        members.append(kn)
        integrals.append(frame[0])
        frames = [frames[-1], frame]
    certificates = tuple(
        StepCertificates(n, ExactnessCertificate(integrals[n - 2], DP_ZERO),
                         ExactnessCertificate(integrals[n - 3], DP_ZERO))
        for n in range(3, N + 1))
    provenance = tuple("seed" if n <= 2 else "recursion" for n in range(1, N + 1))
    return Hierarchy(system, tuple(members), provenance, certificates, alpha0)


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
    built over the symbolic parameter a, or at a = a0.  N past
    ``_TS1_MEMBERS`` raises HierarchyTooLarge before any work."""
    if N < 1:
        raise ValueError("hierarchy length must be at least 1")
    if N > _TS1_MEMBERS:
        raise HierarchyTooLarge(N, _TS1_MEMBERS, "a ts1 hierarchy would have", "members")
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
    return Hierarchy(system, members, provenance, (), a0, coeffs.b[1:])


def scaling_symmetry(alpha0: Optional[Fraction] = None) -> EvoField:
    """S = 2t F + x (w_x, z_x) + (w, z), F the right-hand side of ``fs``."""
    two_t = DiffPoly.var(T_GEN).scalar_mul(rf(2))
    x = DiffPoly.var(X_GEN)
    s = EvoField(two_t * f + x * DiffPoly.var(jet(c, 1)) + DiffPoly.var(jet(c, 0))
                 for c, f in enumerate(builtin_system("fs").rhs))
    if alpha0 is not None:
        s = s.specialize(alpha0)
    return s


class StructuralForm(NamedTuple):
    """Leading linear coefficients of a symmetry in the canonical shape."""

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
            raise StructuralViolation(f"component {c} tail contains a jet of order >= {j}")
        if not tail.free_term().is_zero:
            raise StructuralViolation(f"component {c} tail has a free term")
        if any(mono_degree(mono) == 1 for mono in tail.terms):
            raise StructuralViolation(f"component {c} tail has a linear term")
        leading.append(lead)
    return StructuralForm(tuple(leading))
