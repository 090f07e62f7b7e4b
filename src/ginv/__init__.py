"""Groupoids of generalized inverses over finite-dimensional C*-algebras.

Subpackages
-----------
::

 linalg        -- SVD rank/norm with one relative cutoff, exact linear-map
                  matrices
 algebra       -- block matrix *-algebras and classification predicates
 geninv        -- Moore-Penrose inversion, reflexive inverse pairs
 groupoid      -- groupoid instances, composition, arrow chains, axiom
                  verification
 geometry      -- tangent spaces, anchors, isotropy and orbit decomposition
                  from exact chart differentials
 paths         -- admissible paths on projections, reparametrization
 continuity    -- pseudo-inverse continuity experiments
 sampling      -- seeded random elements, projections and unitaries
 serialization -- JSON wire format for elements
 reports       -- structured experiment reports
 suite         -- the acceptance battery
 cli           -- command-line entry point (`ginv`)

Names load on first use (PEP 562): ``import ginv`` loads no submodule and
no numpy, and ``ginv.moore_penrose`` or ``from ginv import moore_penrose``
imports :mod:`ginv.geninv` then.  Each name in ``__all__`` is looked up in
its submodule on every access and never cached here, so it is always the
object its submodule binds.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the names the package exports from it.
_EXPORTS = {
    "algebra": (
        "AlgebraElement",
        "ElementClass",
        "classify",
        "corner_compress",
        "expm_element",
    ),
    "continuity": (
        "ContinuityVerdict",
        "SequenceFamily",
        "continuity_experiment",
        "discontinuity_demo",
        "make_family",
    ),
    "errors": (
        "CompositionError",
        "ConsistencyError",
        "ConvergenceError",
        "DegenerateInterpolationError",
        "EvaluationError",
        "GinvError",
        "InputError",
        "OrbitError",
        "PreconditionError",
        "ShapeMismatchError",
        "WireFormatError",
    ),
    "geninv": (
        "GInvPair",
        "PenroseResidual",
        "is_ginv_pair",
        "moore_penrose",
        "mp_pair",
        "newton_schulz",
        "penrose_residuals",
        "sample_ginv_pairs",
    ),
    "geometry": (
        "AnchorData",
        "TangentBasis",
        "fiber_and_anchor",
        "isotropy_tangent_dim",
        "orbit_decompose",
        "submersion_rank_st",
        "tangent_basis",
    ),
    "groupoid": (
        "ActionArrow",
        "ActionGroupoid",
        "GInvArrow",
        "GInvGroupoid",
        "Groupoid",
        "IsometryArrow",
        "PairArrow",
        "PairGroupoid",
        "PartialIsometryGroupoid",
        "arrow_chain",
        "isometry_to_ginv",
        "make_groupoid",
        "verify_axioms",
    ),
    "linalg": (
        "DEFAULT_TOL",
        "ToleranceConfig",
        "finite_diff_jacobian",
        "numerical_rank",
        "operator_norm",
    ),
    "paths": (
        "APath",
        "direct_rotation",
        "nearest_projection",
        "orbit_path",
        "reparametrize_lift",
        "smooth_reparametrizer",
    ),
    "reports": ("CheckRecord", "ExperimentReport"),
    "serialization": ("parse_element", "serialize_element"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: Submodules that ``ginv.<name>`` imports on first use.
_SUBMODULES = frozenset(_EXPORTS) | {"sampling"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
