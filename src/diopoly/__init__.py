"""diopoly: construct and certify integer polynomials whose values over a
given finite set multiply pairwise to perfect squares.

The package is layered bottom-up: exact integer arithmetic in closed
forms (exactmath), integer node configurations and their determinantal
quadrics (variety), the reverse birational map and the closed-form
power-span parametrization (rationalmaps), the construction /
verification / search pipeline (forge), the block of rational points on
the associated twisted curves (twist), and a JSON-emitting command line
(cli).
"""

from .exactmath import integer_sqrt
from .variety import PointConfig, ProjPoint
from .rationalmaps import DegenerateParameterError
from .forge import (
    ConstructionError,
    Polynomial,
    SearchReport,
    SearchSpaceError,
    VerifyReport,
    Witness,
    brute_force_search,
    classify_trivial,
    construct_witness,
    verify_witness,
)
from .twist import twist_points

__version__ = "0.1.0"

__all__ = [
    "integer_sqrt",
    "ProjPoint",
    "PointConfig",
    "DegenerateParameterError",
    "Polynomial",
    "Witness",
    "VerifyReport",
    "SearchReport",
    "ConstructionError",
    "SearchSpaceError",
    "construct_witness",
    "verify_witness",
    "brute_force_search",
    "classify_trivial",
    "twist_points",
    "__version__",
]
