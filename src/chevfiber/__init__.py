"""Chevalley restriction and fiber-counting toolkit.

Exact invariant families for finite reflection groups, their restriction
along symmetric-pair embeddings, numerical fibers of the deformed systems
U(zeta; x) = a, and the classification table of exceptional pairs.

The exact layers load with the package.  The fiber layer, and numpy with
it, loads on first use of one of its names (PEP 562), so work that never
touches a fiber never imports numpy.
"""

import importlib

from ._common import (
    FiberSolveError,
    InconsistentClusteringError,
    NewtonDivergenceError,
    RamifiedPointError,
    SingularJacobianError,
)
from .pairdb import (
    EXCEPTIONAL_SIGNATURES,
    IntegrityError,
    PairRecord,
    b_exceptional_list,
    corrected_prop31,
    dual_of,
    is_b_exceptional,
    is_exceptional,
    is_split,
    load_database,
    verify_database,
)
from .polyring import Polynomial, jacobian_det, jacobian_matrix, parse_polynomial
from .restrict import (
    PairConfig,
    Restriction,
    RestrictionError,
    SurjectivityReport,
    adapt_coordinates,
    load_pair_config,
    parse_pair_config,
    rank_d,
    restrict_family,
    split_config,
    surjectivity_check,
)
from .rootsys import (
    ConstructionError,
    InvariantFamily,
    RootSystem,
    build_root_system,
    fundamental_degrees,
    invariant_family,
    orbit_sum_invariant,
    weyl_group,
    weyl_order,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError",
    "DeformedSystem",
    "EXCEPTIONAL_SIGNATURES",
    "FiberResult",
    "FiberSolveError",
    "InconsistentClusteringError",
    "IntegrityError",
    "InvariantFamily",
    "NewtonDivergenceError",
    "PairConfig",
    "PairRecord",
    "Polynomial",
    "RamifiedPointError",
    "Restriction",
    "RestrictionError",
    "RootSystem",
    "SingularJacobianError",
    "SurjectivityReport",
    "adapt_coordinates",
    "b_exceptional_list",
    "build_root_system",
    "corrected_prop31",
    "dual_of",
    "fundamental_degrees",
    "invariant_family",
    "is_b_exceptional",
    "is_exceptional",
    "is_generic",
    "is_generic_fiber",
    "is_split",
    "is_unramified",
    "jacobian_J",
    "jacobian_det",
    "jacobian_matrix",
    "load_database",
    "load_pair_config",
    "local_inverse_psi",
    "orbit_partition",
    "orbit_sum_invariant",
    "parse_pair_config",
    "parse_polynomial",
    "rank_d",
    "restrict_family",
    "solve_fiber",
    "solve_lambda_xi",
    "split_config",
    "surjectivity_check",
    "verify_database",
    "weyl_group",
    "weyl_order",
]

# the names of __all__ not bound above live in the fiber layer, which
# imports numpy; __getattr__ loads it on first access (PEP 562)
_FIBER_NAMES = frozenset(__all__) - set(globals())


def __getattr__(name: str):
    if name == "fiber" or name in _FIBER_NAMES:
        fiber = importlib.import_module(".fiber", __name__)
        return fiber if name == "fiber" else getattr(fiber, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
