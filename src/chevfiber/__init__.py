"""Chevalley restriction and fiber-counting toolkit.

Exact invariant families for finite reflection groups, their restriction
along symmetric-pair embeddings, numerical fibers of the deformed systems
U(zeta; x) = a, and the classification table of exceptional pairs.

`import chevfiber` loads this module alone.  Each public name loads the
module that defines it on first access (PEP 562), with the layers that
module imports, and is then bound here, so later lookups are plain
attribute reads; a layer module named as an attribute loads the same way.
`load_database` loads `pairdb` and `_common`; `restrict_family` loads
`restrict`, `rootsys`, `polyring`, `_linalg` and `_common`; a fiber name
loads those five, `fiber` and numpy.  `chevfiber.cli` loads `_common`, and
each command the layers it runs.  A module that is put off still compiles
on first use when no bytecode is cached, so a process that uses every
layer saves nothing.
"""

import importlib

__version__ = "0.1.0"

# each public name under the module that defines it
_EXPORTS = {
    "_common": (
        "ConstructionError",
        "FiberSolveError",
        "InconsistentClusteringError",
        "IntegrityError",
        "NewtonDivergenceError",
        "RamifiedPointError",
        "RestrictionError",
        "SingularJacobianError",
    ),
    "polyring": ("Polynomial", "jacobian_det", "jacobian_matrix", "parse_polynomial"),
    "rootsys": (
        "InvariantFamily",
        "RootSystem",
        "build_root_system",
        "fundamental_degrees",
        "invariant_family",
        "orbit_sum_invariant",
        "weyl_group",
        "weyl_order",
    ),
    "restrict": (
        "PairConfig",
        "Restriction",
        "SurjectivityReport",
        "adapt_coordinates",
        "load_pair_config",
        "parse_pair_config",
        "rank_d",
        "restrict_family",
        "split_config",
        "surjectivity_check",
    ),
    "fiber": (
        "DeformedSystem",
        "FiberResult",
        "is_generic",
        "is_generic_fiber",
        "is_unramified",
        "jacobian_J",
        "local_inverse_psi",
        "orbit_partition",
        "solve_fiber",
        "solve_lambda_xi",
    ),
    "pairdb": (
        "EXCEPTIONAL_SIGNATURES",
        "PairRecord",
        "b_exceptional_list",
        "corrected_prop31",
        "dual_of",
        "is_b_exceptional",
        "is_exceptional",
        "is_split",
        "load_database",
        "verify_database",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"_linalg"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
