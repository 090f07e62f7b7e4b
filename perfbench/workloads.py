"""The three workloads.  Each is a closed loop with one caller in one process;
its inputs are made from the seed, and every output is checked.

A workload runs in *rounds*: one battery, one pass over the fixed point mix,
or one rotation of CLI invocations.  A round is a list of operations (one
criterion, one base point, one invocation); an operation fails when it
raises, gives a wrong answer, or (CLI) exits with a code other than 0 or 1.
Failures are counted and the round goes on.  Rounds and operations carry
their ``perf_counter`` start and end, which ``speed.Sampler`` turns into
reference seconds.

The timed rounds hold only operations that pass today.  The known defects
(criterion 03 at some seeds, ill-conditioned idempotents) are reproduced by
``known_defects``, outside the timed rounds, in the traced run.

The set-up functions (``SETUP``) import the library themselves, so the
set-up probe can time ``import ginv`` together with making the inputs.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

from harness import OUT, run_child
from tracing import CRITERIA, span


@dataclass
class Op:
    label: str
    t0: float
    t1: float
    ok: bool
    detail: str = ""
    rss_mb: float = 0.0
    wrong_dims: int = 0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class Round:
    t0: float
    t1: float
    ops: list
    fingerprint: object  # equal across rounds at one seed, or the output is not deterministic

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _timed(fn):
    """Run ``fn``; return (start, end, result, failure text or "")."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a raising operation is a failed operation; the round goes on
        return start, time.perf_counter(), None, f"raised {type(exc).__name__}: {exc}"
    return start, time.perf_counter(), result, ""


# -- battery ------------------------------------------------------------------------------

_CRITERION_NAMES = (
    "check_penrose_suite", "check_route_agreement", "check_closure", "check_axioms",
    "check_morphism_laws", "check_isometry_pseudoinverse", "check_dimension_identities",
    "check_isotropy_groups", "check_transitivity_counterexample", "check_orbit_suite",
    "check_reparametrization", "check_source_criterion", "check_report_determinism",
)
_LABELS = dict(zip(_CRITERION_NAMES, CRITERIA))


#: Criteria left out of the timed battery because they do not pass at every
#: seed; ``known_defects`` runs them in the traced run.  Closure (03) fails at
#: battery seeds 1, 3, 5, 10 and 11 of 0-11 and raises at seed 1.
KNOWN_FAILING = ("check_closure",)


def battery_inputs(seed: int):
    from ginv import suite
    from ginv.linalg import DEFAULT_TOL

    return DEFAULT_TOL, suite.ALL_CRITERIA


class Battery:
    """The acceptance battery at the seed, one criterion at a time, with the
    per-criterion seeds ``seed*1000+k`` of ``run_acceptance``, leaving out
    ``KNOWN_FAILING``; then the canonical report is serialized."""

    name = "battery"
    timed = "round"        # the timed unit is a whole battery
    tail = 1.0             # a run holds too few batteries for any lower percentile
    min_rounds = 2         # two batteries at one seed must give identical bytes
    unit_label, op_label = "batteries", "criteria"

    def __init__(self, seed: int, criteria=None):
        self.seed = seed
        self.tol, default = battery_inputs(seed)
        numbered = enumerate(default if criteria is None else criteria, start=1)
        skip = KNOWN_FAILING if criteria is None else ()
        self.criteria = [(k, c) for k, c in numbered if c.__name__ not in skip]

    def run_round(self, tracer=None) -> Round:
        from ginv.reports import CheckRecord, ExperimentReport

        tol, start = self.tol, time.perf_counter()
        report = ExperimentReport(
            suite="acceptance",
            config={
                "seed": self.seed,
                "residual_tol": tol.residual_tol,
                "rank_cutoff_factor": tol.rank_cutoff_factor,
                "fd_step_scale": tol.fd_step_scale,
            },
        )
        ops = []
        for k, criterion in self.criteria:
            label = _LABELS.get(criterion.__name__, f"{k:02d}_{criterion.__name__}")
            with span(tracer, f"suite.{label}"):
                t0, t1, record, raised = _timed(lambda: criterion(tol, self.seed * 1000 + k))
            if raised:
                record = CheckRecord(name=f"{k:02d} {criterion.__name__}",
                                     anchor="the criterion runs to completion",
                                     passed=False, value="raised", details=raised)
            report.add(record)
            detail = "" if record.passed else raised or f"value {record.value}: {record.details}"
            ops.append(Op(label, t0, t1, bool(record.passed), detail[:200]))
        data = report.to_json_bytes()
        return Round(start, time.perf_counter(), ops, data)


# -- geometry -----------------------------------------------------------------------------

GEOMETRY_SHAPES = ((2,), (3,), (4,), (6,), (8,), (2, 3), (1, 2, 3))
#: ginv idempotents in M3 whose conjugator has condition number 1e4, where the
#: finite-difference chart Jacobians give wrong fiber and isotropy dimensions.
#: They are not in the timed mix; ``known_defects`` analyses them.
CONDITIONED = {"count": 9, "n": 3, "cond": 1e4}


@dataclass(frozen=True)
class Point:
    kind: str      # "ginv" (idempotents) or "partial_isometry" (projections)
    shape: tuple
    ranks: tuple
    x: object
    slice: str     # "benign", or "cond1e4" for the known-defect points

    @property
    def size_class(self) -> str:
        return "multi" if len(self.shape) > 1 else f"n{self.shape[0]}"


def _rank_choices(shape):
    if len(shape) == 1:
        n = shape[0]
        return [(r,) for r in sorted({0, 1, n // 2, n - 1, n})]
    return [tuple(0 for _ in shape), tuple(1 for _ in shape),
            tuple(n - 1 for n in shape), tuple(shape)]


def conditioned_idempotent(rng, n: int, rank: int, cond: float):
    """Rank-``rank`` idempotent ``s D s^-1`` whose conjugator ``s`` has
    condition number ``cond`` (singular values spread geometrically)."""
    import numpy as np
    from ginv import sampling
    from ginv.algebra import AlgebraElement

    s = (sampling.random_unitary(rng, n) * np.geomspace(1.0, cond, n)) @ \
        sampling.random_unitary(rng, n).conj().T
    d = np.diag((np.arange(n) < rank).astype(complex))
    return AlgebraElement((n,), (s @ d @ np.linalg.inv(s),))


def geometry_points(seed: int) -> list:
    import numpy as np
    from ginv import sampling

    rng = np.random.default_rng(seed)
    points = []
    for kind, sample in (("ginv", sampling.random_idempotent),
                         ("partial_isometry", sampling.random_projection)):
        for shape in GEOMETRY_SHAPES:
            for ranks in _rank_choices(shape):
                points.append(Point(kind, shape, ranks, sample(rng, shape, ranks=ranks), "benign"))
    return points


def conditioned_points(seed: int, cond: float = CONDITIONED["cond"]) -> list:
    import numpy as np

    rng, n = np.random.default_rng(seed), CONDITIONED["n"]
    ranks = [1 + i % 2 for i in range(CONDITIONED["count"])]
    return [Point("ginv", (n,), (r,), conditioned_idempotent(rng, n, r, cond), f"cond{cond:.0e}")
            for r in ranks]


def analyse_point(p: Point, tol) -> dict:
    """Tangent, fiber, anchor, isotropy and submersion dimensions at ``p``."""
    from ginv import geometry, groupoid

    cls = groupoid.GInvGroupoid if p.kind == "ginv" else groupoid.PartialIsometryGroupoid
    G = cls(p.shape, tol)
    data = geometry.fiber_and_anchor(G, p.x, tol)
    rank, _ = geometry.submersion_rank_st(G, G.identity_at(p.x), tol)
    return {
        "tangent": geometry.tangent_basis("Q" if p.kind == "ginv" else "P", p.x, tol).real_dim,
        "fiber": data.fiber_basis.real_dim,
        "anchor": data.anchor_rank,
        "isotropy": geometry.isotropy_tangent_dim(G, p.x, tol),
        "submersion": rank,
    }


def expected_dims(p: Point) -> dict:
    """Closed forms: dim T(Q) = 4r(n-r), dim T(P) = 2r(n-r) per block; the
    anchor is onto T(base); isotropy is GL(r) (2r^2) resp. U(r) (r^2);
    fiber = anchor + isotropy; (s, t) has rank 2 dim T(base)."""
    tangent_c, iso_c = (4, 2) if p.kind == "ginv" else (2, 1)
    tangent = sum(tangent_c * r * (n - r) for r, n in zip(p.ranks, p.shape))
    isotropy = sum(iso_c * r * r for r in p.ranks)
    return {"tangent": tangent, "fiber": tangent + isotropy, "anchor": tangent,
            "isotropy": isotropy, "submersion": 2 * tangent}


def wrong_dims(p: Point, got: dict) -> list:
    want = expected_dims(p)
    wrong = [f"{k} {got[k]} != {v}" for k, v in want.items() if got[k] != v]
    if got["fiber"] != got["anchor"] + got["isotropy"]:
        wrong.append(f"fiber {got['fiber']} != anchor {got['anchor']} + isotropy {got['isotropy']}")
    return wrong


class Geometry:
    """A fixed, seeded mix of base points; each gets the full dimension analysis."""

    name = "geometry"
    #: The timed unit is a whole pass: its time averages over the mix, while
    #: a percentile of single points depends on which seeded points are slow.
    timed = "round"
    tail = 1.0
    min_rounds = 2         # two passes at one seed must give identical answers
    unit_label, op_label = "passes", "points"

    def __init__(self, seed: int):
        from ginv.linalg import DEFAULT_TOL

        self.tol = DEFAULT_TOL
        self.points = geometry_points(seed)
        self.analyse = analyse_point  # the self-tests put an off-by-one analyser here

    def run_round(self, tracer=None) -> Round:
        start, ops, answers = time.perf_counter(), [], []
        for i, p in enumerate(self.points):
            label = f"{p.kind} {p.shape} ranks {p.ranks} {p.slice}"
            with span(tracer, "geometry.point", p.size_class):
                t0, t1, got, raised = _timed(lambda: self.analyse(p, self.tol))
            wrong = [] if raised else wrong_dims(p, got)
            ops.append(Op(label, t0, t1, not (raised or wrong), raised or "; ".join(wrong),
                          wrong_dims=len(wrong)))
            answers.append(None if raised else tuple(sorted(got.items())))
        return Round(start, time.perf_counter(), ops, tuple(answers))


# -- cli ----------------------------------------------------------------------------------

PINV_SHAPES = (("2", (2,)), ("3", (3,)), ("8", (8,)), ("2,3", (2, 3)))


def cli_documents(seed: int) -> dict:
    """Seeded rank-deficient (but nonzero) elements in the wire format."""
    import numpy as np
    from ginv import sampling
    from ginv.serialization import serialize_element

    rng = np.random.default_rng(seed)
    docs = {}
    for label, shape in PINV_SHAPES:
        ranks = tuple(int(rng.integers(1, n)) for n in shape)
        docs[label] = serialize_element(sampling.well_conditioned_element(rng, shape, ranks=ranks))
    return docs


def _blocks(doc):
    import numpy as np

    return [np.array([[complex(re, im) for re, im in row] for row in block]) for block in doc["blocks"]]


def check_pinv(report: dict, doc_text: str) -> str:
    """Recompute the four Penrose residuals of the reported pseudo-inverse."""
    import numpy as np

    try:
        payload = next(r["payload"] for r in report["records"] if r["name"] == "zz pseudo-inverse")
        a, b = _blocks(json.loads(doc_text)), _blocks(payload)
        tol = report["config"]["residual_tol"]
    except (StopIteration, KeyError, TypeError, ValueError):
        return "no pseudo-inverse in the report"
    bound = tol * (1.0 + max(np.linalg.norm(x, 2) for x in a))
    worst = max(
        np.linalg.norm(r, 2)
        for x, y in zip(a, b)
        for r in (x @ y @ x - x, y @ x @ y - y, (y @ x).conj().T - y @ x, (x @ y).conj().T - x @ y)
    )
    return "" if worst <= bound else f"Penrose residual {worst:.3e} > {bound:.3e}"


def check_cli(command: str, rc, stdout: bytes, doc_text: str = "") -> str:
    """Failure text for one invocation, or "" when its output is right."""
    if rc not in (0, 1):
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
        failed = int(report["summary"]["failed"])
    except (ValueError, KeyError, TypeError):
        return "output is not a JSON report"
    if (rc == 0) != (failed == 0):
        return f"exit code {rc} disagrees with {failed} failed checks"
    if failed:
        names = [r.get("name") for r in report.get("records", []) if not r.get("passed")]
        return f"{failed} checks failed: {names[:3]}"
    return check_pinv(report, doc_text) if command == "pinv" else ""


class Cli:
    """``python -m ginv.cli`` invocations, one at a time, in a fixed rotation.

    With ``in_process`` the same rotation calls ``ginv.cli.main`` directly,
    which is how the traced run sees the layers below the CLI.
    """

    name = "cli"
    timed = "op"           # the timed unit is one invocation
    #: 11/18 sits mid-way through the 7th of the 9 invocations a rotation
    #: sorts into, so whole rotations keep it on the same kind; with three or
    #: more rotations at least ten invocations lie beyond it.
    tail = 11 / 18
    min_rounds = 3
    unit_label = op_label = "invocations"

    def __init__(self, seed: int, in_process: bool = False):
        self.in_process = in_process
        OUT.mkdir(exist_ok=True)
        self.docs = {}
        for label, text in cli_documents(seed).items():
            path = OUT / f"cli-doc-{label.replace(',', 'x')}.json"
            path.write_text(text)
            self.docs[str(path)] = text
        common = ["--seed", str(seed), "--no-timestamp"]
        self.rotation = [("pinv", ["pinv", "--in", path, *common]) for path in self.docs] + [
            ("check-groupoid", ["check-groupoid", "--kind", "ginv", "--shape", "2",
                                "--samples", "20", *common]),
            ("path", ["path", *common]),
            ("geometry", ["geometry", "--count", "1", *common]),
            ("continuity", ["continuity", "--count", "1", *common]),
            ("orbits", ["orbits", *common]),
        ]

    def _invoke(self, command, args, tracer):
        """Returns (start, end, exit code or None, stdout, peak RSS in MB, error text)."""
        if not self.in_process:
            res = run_child([sys.executable, "-m", "ginv.cli", *args])
            stderr = res.stderr.decode(errors="replace").strip().splitlines()
            return (res.t0, res.t1, res.rc, res.stdout, res.maxrss_mb,
                    stderr[-1] if stderr else "")
        from ginv import cli

        out = OUT / "cli-inprocess.json"
        out.unlink(missing_ok=True)
        with span(tracer, "cli.main", command):
            t0, t1, rc, raised = _timed(lambda: cli.main([*args, "--out", str(out)]))
        stdout = out.read_bytes() if out.exists() else b""
        return t0, t1, None if raised else rc, stdout, 0.0, raised

    def run_round(self, tracer=None) -> Round:
        start, ops, outputs = time.perf_counter(), [], []
        for command, args in self.rotation:
            t0, t1, rc, stdout, rss, error = self._invoke(command, args, tracer)
            doc = self.docs.get(args[2], "") if command == "pinv" else ""
            detail = check_cli(command, rc, stdout, doc)
            if detail and error:
                detail += f" ({error[:120]})"
            ops.append(Op(command, t0, t1, not detail, detail, rss_mb=rss))
            outputs.append(stdout)
        return Round(start, time.perf_counter(), ops, tuple(outputs))


# -- known defects ------------------------------------------------------------------------


def known_defects(workload: str, seed: int) -> list:
    """Operations the timed rounds leave out because they fail today, run at
    the seed: criterion 03 (``battery``) or the conditioned points
    (``geometry``).  The CLI rotation has none."""
    from ginv import suite
    from ginv.linalg import DEFAULT_TOL as tol

    ops = []
    if workload == "battery":
        k = 1 + suite.ALL_CRITERIA.index(suite.check_closure)
        t0, t1, record, raised = _timed(lambda: suite.check_closure(tol, seed * 1000 + k))
        ok = not raised and bool(record.passed)
        detail = raised or ("" if ok else f"value {record.value}: {record.details}")
        ops.append(Op(_LABELS["check_closure"], t0, t1, ok, detail[:200]))
    elif workload == "geometry":
        for p in conditioned_points(seed):
            t0, t1, got, raised = _timed(lambda: analyse_point(p, tol))
            wrong = [] if raised else wrong_dims(p, got)
            ops.append(Op(f"{p.kind} {p.shape} ranks {p.ranks} {p.slice}", t0, t1,
                          not (raised or wrong), raised or "; ".join(wrong), wrong_dims=len(wrong)))
    return ops


WORKLOADS = {"battery": Battery, "geometry": Geometry, "cli": Cli}
SETUP = {"battery": battery_inputs, "geometry": geometry_points, "cli": cli_documents}
