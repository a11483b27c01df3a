"""Exact Poisson (co)homology of weight-homogeneous surface singularities.

A polynomial phi in F[x,y,z] induces the Poisson bracket with
{x,y} = d(phi)/dz (and cyclic), on the polynomial algebra and on the surface
phi = 0.  When phi is weight homogeneous with an isolated singularity at the
origin, all Poisson cohomology and homology spaces of both algebras are
finitely described by the Jacobian quotient of phi; this package builds
those descriptions and verifies them degree by degree with exact linear
algebra over the rationals, in integers.
"""

from .cohomology import (
    GradedDims,
    Generator,
    ModuleDescription,
    brute_force_dims,
    closed_form,
    default_window,
    predicted_dims,
    surface_brute_force_dims,
    surface_closed_form,
)
from .homology import (
    ambient_homology_description,
    default_form_window,
    duality_identity_holds,
    homology_dims,
    surface_homology_description,
    surface_homology_dims,
)
from .linalg import (
    DegreeMismatch,
    GradedBasis,
    GradedOperatorMatrix,
    basis_of,
    matrix_of,
    symbol_of,
)
from .milnor import MilnorData, NotIsolated, check_isolated
from .poisson import PoissonStructure
from .poly import (
    Monomial,
    NotHomogeneous,
    Poly,
    PolyParseError,
    WeightSystem,
    monomials_of_degree,
    parse_poly,
    weighted_degree,
)
from .suites import SUITE_NAMES, CheckResult, run_suite
from .vectorcalc import VecPoly, cross, curl, divergence, dot, euler_field, grad

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DegreeMismatch",
    "GradedBasis",
    "GradedDims",
    "GradedOperatorMatrix",
    "Generator",
    "MilnorData",
    "ModuleDescription",
    "Monomial",
    "NotHomogeneous",
    "NotIsolated",
    "PoissonStructure",
    "Poly",
    "PolyParseError",
    "SUITE_NAMES",
    "VecPoly",
    "WeightSystem",
    "ambient_homology_description",
    "basis_of",
    "brute_force_dims",
    "check_isolated",
    "closed_form",
    "cross",
    "curl",
    "default_form_window",
    "default_window",
    "divergence",
    "dot",
    "duality_identity_holds",
    "euler_field",
    "grad",
    "homology_dims",
    "matrix_of",
    "monomials_of_degree",
    "parse_poly",
    "predicted_dims",
    "run_suite",
    "surface_brute_force_dims",
    "surface_closed_form",
    "surface_homology_description",
    "surface_homology_dims",
    "symbol_of",
    "weighted_degree",
]
