"""The ``ginv`` package namespace loads names on first use, and it is the
namespace the package has always exported: the same names, bound to the
same objects as in their submodules."""

import importlib

import pytest

import ginv

#: Each submodule and the names ``ginv`` exports from it.
EXPORTS = {
    "algebra": ("AlgebraElement", "ElementClass", "classify", "corner_compress",
                "expm_element"),
    "continuity": ("ContinuityVerdict", "SequenceFamily", "continuity_experiment",
                   "discontinuity_demo", "make_family"),
    "errors": ("CompositionError", "ConsistencyError", "ConvergenceError",
               "DegenerateInterpolationError", "EvaluationError", "GinvError", "InputError",
               "OrbitError", "PreconditionError", "ShapeMismatchError", "WireFormatError"),
    "geninv": ("GInvPair", "PenroseResidual", "is_ginv_pair", "moore_penrose", "mp_pair",
               "newton_schulz", "penrose_residuals", "sample_ginv_pairs"),
    "geometry": ("AnchorData", "TangentBasis", "fiber_and_anchor", "isotropy_tangent_dim",
                 "orbit_decompose", "submersion_rank_st", "tangent_basis"),
    "groupoid": ("ActionArrow", "ActionGroupoid", "GInvGroupoid", "Groupoid",
                 "IsometryArrow", "PairArrow", "PairGroupoid", "PartialIsometryGroupoid",
                 "arrow_chain", "isometry_to_ginv", "make_groupoid", "verify_axioms"),
    "linalg": ("DEFAULT_TOL", "ToleranceConfig", "finite_diff_jacobian", "numerical_rank",
               "operator_norm"),
    "paths": ("APath", "direct_rotation", "nearest_projection", "orbit_path",
              "reparametrize_lift", "smooth_reparametrizer"),
    "reports": ("CheckRecord", "ExperimentReport"),
    "serialization": ("parse_element", "serialize_element"),
}
#: Every name in ``__all__``, with the submodule it comes from.
HOME = {name: module for module, names in EXPORTS.items() for name in names}
#: The submodules ``ginv.<name>`` reaches without an import of its own.
SUBMODULES = sorted(EXPORTS) + ["sampling"]


def test_each_name_is_the_object_its_submodule_binds():
    assert [name for name, module in HOME.items()
            if getattr(ginv, name) is not getattr(importlib.import_module(f"ginv.{module}"), name)
            ] == []
    # ginv.__getattr__ answers for a submodule not imported yet
    assert [name for name in SUBMODULES
            if ginv.__getattr__(name) is not importlib.import_module(f"ginv.{name}")] == []


def test_all_is_the_export_set_and_dir_lists_it():
    assert sorted(ginv.__all__) == sorted(HOME)
    assert set(HOME) | set(SUBMODULES) <= set(dir(ginv))
    assert ginv.__version__ == "0.1.0"


def test_star_import_binds_every_exported_name_and_no_submodule():
    namespace = {}
    exec("from ginv import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(ginv, name) for name in HOME}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ginv.no_such_name
    with pytest.raises(ImportError):
        exec("from ginv import no_such_name", {})
