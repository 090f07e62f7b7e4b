"""The benchmark's tracer (``perfbench/tracing.py``) binds library names.

``perfbench/run.py --trace 1`` wraps functions and methods of ``ginv`` by
name; if the library drops or renames one, the traced run fails.  These
tests install the tracer on one benchmark point and check that it sees the
geometry layer and puts every binding back.
"""

import sys
from pathlib import Path

import pytest

import ginv
from ginv.linalg import DEFAULT_TOL


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``tracing`` and ``workloads`` modules."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    import workloads

    return tracing, workloads


def bindings() -> dict:
    """Every name bound in a ``ginv`` module, and every attribute of a class
    defined in ``ginv``, keyed by where it is bound."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "ginv" and not name.startswith("ginv."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__.startswith("ginv"):
                out.update(((name, attr, a), v) for a, v in vars(value).items())
    return out


def test_tracer_binds_the_geometry_layer_and_restores_it(perfbench):
    tracing, workloads = perfbench
    from ginv import (  # noqa: F401  (every module the tracer rebinds in)
        algebra, cli, continuity, geninv, geometry, groupoid, linalg, paths, reports,
        sampling, serialization, suite)

    before = bindings()
    exported = {name: getattr(ginv, name) for name in ginv.__all__}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = bindings()
        # the package namespace reads each name from its submodule, wrapped or not
        assert ginv.tangent_basis is geometry.tangent_basis is not exported["tangent_basis"]
        workloads.analyse_point(workloads.geometry_points(0)[0], DEFAULT_TOL)
        spans, counts = tracer.take()
    finally:
        tracer.uninstall()
    after = bindings()

    rebound = {key for key, value in before.items() if during.get(key) is not value}
    assert {("ginv.linalg", "finite_diff_jacobian"),
            ("ginv.algebra", "AlgebraElement", "_trusted"),
            ("ginv.geometry", "tangent_basis"), ("ginv.geometry", "fiber_and_anchor"),
            ("ginv.geometry", "isotropy_tangent_dim"),
            ("ginv.geometry", "submersion_rank_st")} <= rebound
    assert [key for key in rebound if after.get(key) is not before[key]] == []
    assert [name for name in ginv.__all__ if getattr(ginv, name) is not exported[name]] == []
    names = {span[0] for span in spans}
    assert {"geometry.tangent_basis", "geometry.fiber_and_anchor", "geometry.isotropy",
            "geometry.submersion"} <= names, names
    assert counts["algebra.elements"] > 0
