"""jetsym: exact symbolic differential algebra for the higher-symmetry
hierarchy of a two-component Burgers-type system.

The package constructs the infinite hierarchy of local symmetries via a
nonlocal two-term recursion relation and verifies, in exact arithmetic
over Q(alpha): the symmetry property, pairwise commutativity, locality
certificates, scaling homogeneity, uniqueness of the conserved density,
the triangular companion hierarchy, and the linearizing substitution.
"""

from .coeffield import AlphaPoly, RationalFunction, rf
from .jetalgebra import DiffPoly, EvoField, Monomial, T_GEN, X_GEN, jet
from .varcalc import (ExactnessCertificate, commutator, commutators, dt_along,
                      euler_operator, frechet, integrate_dx)
from .operators import OperatorMatrix, OpTerm
from .systems import EvolutionSystem, builtin_system, parse_system, render_system
from .hierarchy import (Hierarchy, TriangularCoeffs, fs_hierarchy, fs_seed,
                        fs_step, recursion_matrix, scaling_symmetry,
                        structural_check, second_recursion_matrix, triangular_coeffs,
                        ts1_hierarchy)
from .analysis import (DensityAnsatz, DensityReport, commutativity_table,
                       density_decompose, density_search, is_conserved_density,
                       is_symmetry, push_forward, substitution_check,
                       verify_hierarchy)

__version__ = "0.1.0"

__all__ = [
    "AlphaPoly", "DensityAnsatz", "DensityReport", "DiffPoly",
    "EvoField", "EvolutionSystem", "ExactnessCertificate", "Hierarchy",
    "Monomial", "OperatorMatrix", "OpTerm", "RationalFunction", "T_GEN",
    "TriangularCoeffs", "X_GEN", "builtin_system", "commutativity_table",
    "commutator", "commutators", "density_decompose", "density_search", "dt_along",
    "euler_operator", "frechet", "fs_hierarchy", "fs_seed", "fs_step",
    "integrate_dx", "is_conserved_density", "is_symmetry", "jet",
    "parse_system", "push_forward", "recursion_matrix", "render_system", "rf",
    "scaling_symmetry", "structural_check", "substitution_check",
    "second_recursion_matrix", "triangular_coeffs", "ts1_hierarchy",
    "verify_hierarchy",
]
