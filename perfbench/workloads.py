"""The four benchmark workloads and their correctness gates.

Each workload is one CLI command at a fixed size, driven through the same
public entry points the command uses.  They are chosen so that each puts a
different layer path on top:

- ``gen-symbolic``: ``jetsym gen --system fs --n 12``.  The coefficient
  field's general path (gcd and division of rational functions),
  ``OperatorMatrix.apply_detailed`` and ``integrate_dx``.
- ``verify-specialized``: ``jetsym verify`` on K_1..K_8 at a rational
  alpha0.  Constant coefficients, ``DiffPoly`` products and ``frechet``.
  gcd runs only while the scaling symmetry is built at symbolic alpha
  (22 calls), so a change to the gcd path should not move this workload.
- ``verify-symbolic``: ``jetsym verify`` on K_1..K_6 at symbolic alpha,
  all 15 commutators.  Polynomial-only coefficient products dominate.
- ``densities-symbolic``: ``jetsym densities --max-order 2 --max-degree 6``
  with 924 unknowns.  ``euler_operator`` through repeated ``DiffPoly.dx``,
  then ``sparse_rref``.

A workload has four steps: ``prepare`` makes the inputs from the seed
(not timed), ``load`` is what a fresh process must do before the command
can run (timed as set-up), ``run`` is one timed pass, and ``check`` is the
correctness gate applied to every pass.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from jetsym.analysis import (DensityAnsatz, density_decompose, density_search,
                             verify_hierarchy)
from jetsym.hierarchy import Hierarchy, fs_hierarchy
from jetsym.systems import builtin_system

GEN_N = 12
#: sha256 and size of the compact JSON of fs_hierarchy(12), no trailing newline
GEN_SHA256 = "11c02253aaac2aa92f984f030b16ab9d9f286398ceb37296c1179c6699315e88"
GEN_BYTES = 540412

#: alpha0 for verify-specialized, picked by the seed: rationals in (0, 1)
#: of small height, each of which passes all 41 checks at N = 8.  1/2 is
#: the pole of every seed coefficient; -1 is never drawn because
#: c_3 = -(alpha+1)/(2alpha-1) vanishes there and the structural check
#: correctly fails.
ALPHA0_CHOICES = ("1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "3/5", "4/5", "1/6", "5/6")

DENSITY_ANSATZ = DensityAnsatz(2, 6)


def dump_hierarchy(h: Hierarchy) -> str:
    """Compact JSON text of a hierarchy, as ``jetsym gen`` writes it."""
    return json.dumps(h.to_json(), separators=(",", ":"))


def load_hierarchy(path: str) -> Hierarchy:
    """Read a hierarchy file, as ``jetsym verify`` does."""
    with open(path, "r", encoding="utf-8") as fh:
        return Hierarchy.from_json(json.load(fh))


class GenSymbolic:
    name = "gen-symbolic"

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"n": GEN_N, "alpha0": None, "seed_independent": True}

    def load(self, params: dict):
        return builtin_system("fs")

    def run(self, params: dict):
        h = fs_hierarchy(GEN_N)
        return h, dump_hierarchy(h)

    def check(self, output) -> bool:
        data = output[1].encode("utf-8")
        return len(data) == GEN_BYTES and hashlib.sha256(data).hexdigest() == GEN_SHA256


class VerifyHierarchy:
    """Verification of a hierarchy file generated beforehand."""

    def __init__(self, name: str, n: int, checks: int, specialized: bool):
        self.name = name
        self.n = n
        self.checks = checks
        self.specialized = specialized

    def prepare(self, seed: int, workdir: Path) -> dict:
        alpha0 = ALPHA0_CHOICES[seed % len(ALPHA0_CHOICES)] if self.specialized else None
        h = fs_hierarchy(self.n, Fraction(alpha0) if alpha0 else None)
        path = workdir / f"{self.name}.json"
        path.write_text(dump_hierarchy(h) + "\n", encoding="utf-8")
        return {"n": self.n, "alpha0": alpha0, "seed_independent": not self.specialized,
                "path": str(path)}

    def load(self, params: dict):
        return load_hierarchy(params["path"])

    def run(self, params: dict):
        return verify_hierarchy(load_hierarchy(params["path"]))

    def check(self, report) -> bool:
        return report.ok and len(report.checks) == self.checks


class DensitiesSymbolic:
    name = "densities-symbolic"

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"max_order": DENSITY_ANSATZ.max_order,
                "max_degree": DENSITY_ANSATZ.max_degree,
                "alpha0": None, "seed_independent": True}

    def load(self, params: dict):
        return builtin_system("fs")

    def run(self, params: dict):
        system = builtin_system("fs")
        report = density_search(system, DENSITY_ANSATZ)
        w_part = None
        if report.nontrivial_basis:
            w_part, _ = density_decompose(report.nontrivial_basis[0], system)
        return report, w_part

    def check(self, output) -> bool:
        report, w_part = output
        return (report.unknowns == 924 and report.solution_dimension == 211
                and report.nontrivial_dimension == 1
                and w_part is not None and not w_part.is_zero)


WORKLOADS = {w.name: w for w in (
    GenSymbolic(),
    VerifyHierarchy("verify-specialized", 8, 41, specialized=True),
    VerifyHierarchy("verify-symbolic", 6, 31, specialized=False),
    DensitiesSymbolic(),
)}
