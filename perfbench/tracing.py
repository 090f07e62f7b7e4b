"""Layer tracing from outside the library.

:class:`Tracer` wraps the public functions of the ``ginv`` modules where
they are bound (the library imports them by name into ``suite``, ``cli``,
``geometry`` and ``groupoid``), so calls between modules pass through the
wrappers too.  Layer boundaries get spans (name, start, end, parent, tag);
the ``algebra`` and ``linalg`` primitives get counts only, since a single
criterion makes hundreds of thousands of them.  Spans stay in memory until
the run writes them out.  ``uninstall`` restores every binding, so one
process can time a task untraced and then traced.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

#: Counters kept directly by the wrappers.
COUNT_KEYS = (
    "algebra.elements",
    "algebra.trusted_elements",
    "algebra.norm_calls",
    "algebra.matmul_calls",
    "algebra.real_coords_calls",
    "algebra.expm_calls",
    "algebra.classify_calls",
    "linalg.numerical_rank_calls",
    "linalg.kernel_basis_calls",
    "linalg.operator_norm_calls",
    "linalg.fd_jacobian_calls",
    "linalg.fd_evals",
    "geninv.pair_create_calls",
    "groupoid.compose_calls",
    "groupoid.arrow_from_calls",
    "groupoid.arrow_from_raised",
    "paths.samples",
    "paths.phi_evals",
    "continuity.terms_generated",
    "reports.bytes",
)

CRITERIA = (
    "01_penrose", "02_route", "03_closure", "04_axioms", "05_morphisms",
    "06_isometry", "07_dimensions", "08_isotropy", "09_transitivity",
    "10_orbits", "11_reparam", "12_source", "13_determinism",
)
AXIOM_KINDS = ("ginv", "partial_isometry", "action", "pair")
POINT_CLASSES = ("n2", "n3", "n4", "n6", "n8", "multi")
CLI_COMMANDS = ("pinv", "check-groupoid", "path", "geometry", "continuity", "orbits")
LAYERS = (
    "algebra", "linalg", "geninv", "groupoid", "geometry", "paths", "continuity",
    "serialization", "reports", "suite", "cli", "sampling",
)

#: Spans whose total time per task is a metric, as (span name, metric name).
_SPAN_TIMES = (
    ("linalg.fd_jacobian", "linalg.fd_jacobian_s"),
    ("geninv.moore_penrose", "geninv.moore_penrose_s"),
    ("geninv.newton_schulz", "geninv.newton_schulz_s"),
    ("groupoid.verify_axioms", "groupoid.verify_axioms_s"),
    ("geometry.tangent_basis", "geometry.tangent_basis_s"),
    ("geometry.fiber_and_anchor", "geometry.fiber_and_anchor_s"),
    ("geometry.isotropy", "geometry.isotropy_s"),
    ("geometry.submersion", "geometry.submersion_s"),
    ("paths.orbit_path", "paths.orbit_path_s"),
    ("paths.reparametrize_lift", "paths.reparametrize_lift_s"),
    ("continuity.experiment", "continuity.experiment_s"),
    ("serialization.parse", "serialization.parse_s"),
    ("reports.to_json", "reports.to_json_s"),
)

#: Every per-layer metric the traced run prints, with its unit.
ALL_METRICS = (
    tuple((f"suite.{c}_s", "s") for c in CRITERIA)
    + tuple((k, "bytes" if k == "reports.bytes" else "count") for k in COUNT_KEYS)
    + tuple((m, "s") for _, m in _SPAN_TIMES)
    + (("geninv.moore_penrose_calls", "count"), ("geninv.newton_schulz_calls", "count"))
    + tuple((f"groupoid.axioms_sample_ms.{k}", "ms") for k in AXIOM_KINDS)
    + tuple((f"geometry.point_s.{c}", "s") for c in POINT_CLASSES)
    + (("geometry.wrong_dims", "count"), ("known_defects.failed", "count"))
    + tuple((f"cli.main_s.{c}", "s") for c in CLI_COMMANDS)
    + (("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("sampling.s", "s"))
    + (("trace.overhead_s", "s"), ("trace.count_drifts", "count"))
)

#: The per-layer metrics of the final JSON line (``per_layer`` in
#: BENCHMARK.json): every count, and the times that every workload's traced
#: run exercises.  A time that one workload never exercises would read 0.0 on
#: every run of it, so those are printed but left out of the JSON.
JSON_METRICS = tuple(
    name for name, unit in ALL_METRICS
    if unit in ("count", "bytes") or name in (
        "linalg.fd_jacobian_s", "geometry.tangent_basis_s",
        "geometry.fiber_and_anchor_s", "geometry.isotropy_s",
        "cli.interpreter_s", "cli.import_s", "trace.overhead_s",
    )
)
UNITS = dict(ALL_METRICS)


def span(tracer, name, tag=None):
    """A span on ``tracer``, or nothing when the run is untraced (``None``)."""
    return nullcontext() if tracer is None else tracer.span(name, tag)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------------------

    def _open(self, name, tag=None):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, tag=None):
        rec = self._open(name, tag)
        try:
            yield rec
        finally:
            self._close(rec)

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.update(dict.fromkeys(COUNT_KEYS, 0))
        return spans, counts

    # -- wrappers ---------------------------------------------------------------------

    def _spanned(self, name, fn, tag_of=None, after=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name, tag_of(*args, **kwargs) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after:
                after(result)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _add(self, key, amount):
        self.counts[key] += amount

    # -- installation -----------------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace ``original`` in every ginv module that binds it by name."""
        for module in [m for n, m in sys.modules.items() if n == "ginv" or n.startswith("ginv.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        # cli and suite are imported so that their by-name bindings get rebound too
        from ginv import algebra, cli, continuity, geninv, geometry, groupoid, linalg  # noqa: F401
        from ginv import paths, reports, sampling, serialization, suite  # noqa: F401

        A = algebra.AlgebraElement
        self._patch(A, "__post_init__", self._counted("algebra.elements", A.__post_init__))
        trusted = A.__dict__["_trusted"].__func__
        self._patch(A, "_trusted", classmethod(self._counted("algebra.trusted_elements", trusted)))
        self._patch(A, "norm", self._counted("algebra.norm_calls", A.norm))
        self._patch(A, "__matmul__", self._counted("algebra.matmul_calls", A.__matmul__))
        self._patch(A, "real_coords", self._counted("algebra.real_coords_calls", A.real_coords))
        self._rebind(algebra.expm_element, self._counted("algebra.expm_calls", algebra.expm_element))
        self._rebind(algebra.classify, self._counted("algebra.classify_calls", algebra.classify))

        for fn, key in ((linalg.numerical_rank, "linalg.numerical_rank_calls"),
                        (linalg.kernel_basis, "linalg.kernel_basis_calls"),
                        (linalg.operator_norm, "linalg.operator_norm_calls")):
            self._rebind(fn, self._counted(key, fn))

        self._rebind(linalg.finite_diff_jacobian, self._fd_jacobian(linalg.finite_diff_jacobian))

        self._rebind(geninv.moore_penrose, self._spanned("geninv.moore_penrose", geninv.moore_penrose))
        self._rebind(geninv.newton_schulz, self._spanned("geninv.newton_schulz", geninv.newton_schulz))
        create = geninv.GInvPair.__dict__["create"].__func__
        self._patch(geninv.GInvPair, "create",
                    classmethod(self._counted("geninv.pair_create_calls", create)))

        self._rebind(groupoid.verify_axioms, self._spanned(
            "groupoid.verify_axioms", groupoid.verify_axioms,
            lambda G, seed, n_samples, *rest, **kw: (G.kind, n_samples)))
        for cls in (groupoid.GInvGroupoid, groupoid.PartialIsometryGroupoid,
                    groupoid.ActionGroupoid, groupoid.PairGroupoid):
            self._patch(cls, "compose", self._counted("groupoid.compose_calls", cls.compose))
            self._patch(cls, "arrow_from", self._arrow_from(cls.arrow_from))

        for fn, name in ((geometry.tangent_basis, "geometry.tangent_basis"),
                         (geometry.fiber_and_anchor, "geometry.fiber_and_anchor"),
                         (geometry.isotropy_tangent_dim, "geometry.isotropy"),
                         (geometry.submersion_rank_st, "geometry.submersion")):
            self._rebind(fn, self._spanned(name, fn))

        self._rebind(paths.orbit_path, self._spanned(
            "paths.orbit_path", paths.orbit_path,
            after=lambda path: self._add("paths.samples", len(path))))
        self._rebind(paths.reparametrize_lift, self._reparametrize(paths.reparametrize_lift))

        self._rebind(continuity.continuity_experiment,
                     self._spanned("continuity.experiment", continuity.continuity_experiment))
        terms = continuity.SequenceFamily.terms

        def counted_terms(family):
            out = terms(family)
            self._add("continuity.terms_generated", len(out))
            return out
        self._patch(continuity.SequenceFamily, "terms", counted_terms)

        self._rebind(serialization.parse_element,
                     self._spanned("serialization.parse", serialization.parse_element))
        self._patch(reports.ExperimentReport, "to_json_bytes", self._spanned(
            "reports.to_json", reports.ExperimentReport.to_json_bytes,
            after=lambda data: self._add("reports.bytes", len(data))))

        for attr, value in list(vars(sampling).items()):
            if callable(value) and getattr(value, "__module__", None) == sampling.__name__:
                self._rebind(value, self._spanned(f"sampling.{attr}", value))

    def _arrow_from(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["groupoid.arrow_from_calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts["groupoid.arrow_from_raised"] += 1
                raise
        return wrapper

    def _fd_jacobian(self, fn):
        counts = self.counts

        def wrapper(f, x, *args, **kwargs):
            counts["linalg.fd_jacobian_calls"] += 1
            counts["linalg.fd_evals"] += 2 * len(x)  # one central difference per column
            with self.span("linalg.fd_jacobian"):
                return fn(f, x, *args, **kwargs)
        return wrapper

    def _reparametrize(self, fn):
        counts = self.counts

        def wrapper(path, phi, *args, **kwargs):
            def counted_phi(t):
                counts["paths.phi_evals"] += 1
                return phi(t)
            with self.span("paths.reparametrize_lift"):
                out = fn(path, counted_phi, *args, **kwargs)
            counts["paths.samples"] += len(out)
            return out
        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- per-layer metrics from one traced task ------------------------------------------------


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced task (every name in ALL_METRICS that
    the spans and counts determine; the caller adds the rest)."""
    total = defaultdict(float)
    calls = Counter()
    for name, start, end, _, _ in spans:
        total[name] += end - start
        calls[name] += 1
    m = dict(counts)
    for c in CRITERIA:
        m[f"suite.{c}_s"] = total[f"suite.{c}"]
    for span_name, metric in _SPAN_TIMES:
        m[metric] = total[span_name]
    m["geninv.moore_penrose_calls"] = calls["geninv.moore_penrose"]
    m["geninv.newton_schulz_calls"] = calls["geninv.newton_schulz"]

    axiom_s, axiom_n = defaultdict(float), Counter()
    point_s, point_n = defaultdict(float), Counter()
    main_s, main_n = defaultdict(float), Counter()
    for name, start, end, _, tag in spans:
        if name == "groupoid.verify_axioms":
            axiom_s[tag[0]] += end - start
            axiom_n[tag[0]] += tag[1]
        elif name == "geometry.point":
            point_s[tag] += end - start
            point_n[tag] += 1
        elif name == "cli.main":
            main_s[tag] += end - start
            main_n[tag] += 1
    for k in AXIOM_KINDS:
        m[f"groupoid.axioms_sample_ms.{k}"] = 1000.0 * axiom_s[k] / axiom_n[k] if axiom_n[k] else 0.0
    for c in POINT_CLASSES:
        m[f"geometry.point_s.{c}"] = point_s[c] / point_n[c] if point_n[c] else 0.0
    for c in CLI_COMMANDS:
        m[f"cli.main_s.{c}"] = main_s[c] / main_n[c] if main_n[c] else 0.0
    m["sampling.s"] = sum(
        end - start for name, start, end, parent, _ in spans
        if name.startswith("sampling.") and (parent < 0 or not spans[parent][0].startswith("sampling."))
    )
    return m


def self_times(spans) -> dict:
    """Self time per layer: each span's duration minus the time its child
    spans cover, summed by layer (the span name's first component)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    out = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        out[name.split(".", 1)[0]] += t
    return dict(out)


def count_drifts(first: dict, second: dict) -> list:
    """Count metrics that differ between two traced tasks at one seed."""
    return sorted(k for k, unit in ALL_METRICS
                  if unit in ("count", "bytes") and first.get(k) != second.get(k))
