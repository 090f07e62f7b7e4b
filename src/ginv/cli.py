"""Command-line entry point.

Subcommands dispatch to the library and emit machine-readable reports:

    pinv            pseudo-inverse of a serialized element, with residuals
    check-groupoid  groupoid-law verification for one instance kind
    orbits          orbit decomposition of sampled base points
    geometry        anchor/isotropy/submersion dimensions at sampled points
    path            admissible path between two projections, plus a
                    reparametrization check
    continuity      pseudo-inverse continuity experiments over a family grid
    suite           the full acceptance battery

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input or
configuration, or any other error; every exit-2 failure is reported as an
``error`` record, never as a traceback.  Identical configuration (including
``--seed``) produces byte-identical reports; ``--no-timestamp`` suppresses
the only non-deterministic field.  The environment variable ``GINV_SEED``
supplies the default seed when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import sampling
from .algebra import AlgebraElement
from .continuity import continuity_experiment, make_family
from .errors import GinvError, InputError
from .geninv import moore_penrose, penrose_residuals
from .geometry import fiber_and_anchor, isotropy_tangent_dim, orbit_decompose, submersion_rank_st
from .groupoid import make_groupoid, verify_axioms
from .linalg import ToleranceConfig
from .paths import orbit_path, reparametrize_lift
from .reports import CheckRecord, ExperimentReport
from .serialization import element_to_dict, parse_element
from .suite import ENDPOINT_TOL, LIFT_TOL, reparametrized_bound, run_acceptance

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginv",
        description="Generalized-inverse groupoids: pseudo-inversion, groupoid "
        "law checks and numerical geometry reports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-residual", type=float, default=None,
                        help="override the residual tolerance (default 1e-8)")
    common.add_argument("--tol-rank-factor", type=float, default=None,
                        help="override the relative rank cutoff factor (default 1e-12)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed (default: GINV_SEED from the environment, else 0)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", type=Path, default=None, help="write the report here")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp so reports are byte-reproducible")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", parents=[common], help="pseudo-inverse with residual report")
    p.add_argument("--in", dest="infile", type=Path, required=True,
                   help="element in the JSON wire format")

    p = sub.add_parser("check-groupoid", parents=[common], help="verify the groupoid laws")
    p.add_argument("--kind", choices=("ginv", "partial_isometry", "action", "pair"),
                   default="pair")
    p.add_argument("--shape", type=str, default="2",
                   help="comma-separated block sizes for algebra-backed kinds")
    p.add_argument("--dim", type=int, default=2, help="dimension for action/pair kinds")
    p.add_argument("--points", type=int, default=None,
                   help="size of the base point pool (pair kind)")
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("orbits", parents=[common], help="orbit decomposition")
    p.add_argument("--kind", choices=("ginv", "partial_isometry", "action", "pair"),
                   default="partial_isometry")
    p.add_argument("--shape", type=str, default="3")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=50, help="number of sampled base points")

    p = sub.add_parser("geometry", parents=[common],
                       help="anchor, isotropy and submersion dimensions")
    p.add_argument("--kind", choices=("ginv", "partial_isometry", "action", "pair"),
                   default="ginv")
    p.add_argument("--shape", type=str, default="2")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=3, help="number of sampled base points")

    p = sub.add_parser("path", parents=[common],
                       help="admissible path between two projections")
    p.add_argument("--p", dest="p_file", type=Path, default=None)
    p.add_argument("--q", dest="q_file", type=Path, default=None)
    p.add_argument("--shape", type=str, default="3",
                   help="shape for sampled endpoints when --p/--q are not given")
    p.add_argument("--steps", type=int, default=16)

    p = sub.add_parser("continuity", parents=[common],
                       help="pseudo-inverse continuity experiments")
    p.add_argument("--shape", type=str, default="2")
    p.add_argument("--count", type=int, default=6, help="families per kind")
    p.add_argument("--horizon", type=int, default=64)

    sub.add_parser("suite", parents=[common], help="run the full acceptance battery")
    return parser


def _parse_shape(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"bad shape {text!r}: {exc}") from exc


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GINV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"GINV_SEED must be an integer, got {env!r}") from exc
    return 0


def _resolve_tol(args) -> ToleranceConfig:
    kwargs = {}
    if args.tol_residual is not None:
        kwargs["residual_tol"] = args.tol_residual
    if args.tol_rank_factor is not None:
        kwargs["rank_cutoff_factor"] = args.tol_rank_factor
    return ToleranceConfig(**kwargs)


def _read_element(path: Path) -> AlgebraElement:
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_element(text)


def _instance(args, tol: ToleranceConfig):
    kind = args.kind
    if kind in ("ginv", "partial_isometry"):
        return make_groupoid(kind, tol, shape=_parse_shape(args.shape))
    if kind == "action":
        return make_groupoid(kind, tol, n=args.dim)
    return make_groupoid(kind, tol, dim=args.dim, pool_size=getattr(args, "points", None))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_pinv(args, tol, seed) -> ExperimentReport:
    a = _read_element(args.infile)
    dagger = moore_penrose(a, tol)
    res = penrose_residuals(a, dagger)
    bound = tol.residual_tol * (1.0 + a.norm())
    report = ExperimentReport(suite="pinv", config=_config_echo(args, tol, seed))
    names = ("aba = a", "bab = b", "(ba)* = ba", "(ab)* = ab")
    for name, value in zip(names, (res.r1, res.r2, res.r3, res.r4)):
        report.add(CheckRecord(name=f"residual {name}", anchor=name,
                               passed=value <= bound, value=value))
    report.add(
        CheckRecord(
            name="zz pseudo-inverse",
            anchor="b is the unique reflexive inverse with Hermitian ba, ab",
            passed=True,
            value=None,
            payload=element_to_dict(dagger),
        )
    )
    return report


def _cmd_check_groupoid(args, tol, seed) -> ExperimentReport:
    G = _instance(args, tol)
    report = verify_axioms(G, seed=seed, n_samples=args.samples)
    report.config.update(_config_echo(args, tol, seed))
    return report


def _cmd_orbits(args, tol, seed) -> ExperimentReport:
    G = _instance(args, tol)
    rng = np.random.default_rng(seed)
    points = [G.sample_base_point(rng) for _ in range(args.count)]
    report = orbit_decompose(G, points, tol)
    report.config.update(_config_echo(args, tol, seed))
    return report


def _cmd_geometry(args, tol, seed) -> ExperimentReport:
    G = _instance(args, tol)
    rng = np.random.default_rng(seed)
    report = ExperimentReport(suite=f"geometry-{G.kind}",
                              config=_config_echo(args, tol, seed))
    for i in range(args.count):
        x = G.sample_base_point(rng)
        data = fiber_and_anchor(G, x, tol)
        iso = isotropy_tangent_dim(G, x, tol)
        base_dim = data.anchor_matrix.shape[0]
        report.add(
            CheckRecord(
                name=f"point {i} anchor",
                anchor="anchor rank = dim T(base) where the orbit is open",
                passed=True,
                value=data.anchor_rank,
                details=f"fiber dim {data.fiber_basis.real_dim}, base dim {base_dim}",
            )
        )
        report.add(
            CheckRecord(
                name=f"point {i} isotropy",
                anchor="fiber dim - anchor rank = isotropy dim",
                passed=data.fiber_basis.real_dim - data.anchor_rank == iso,
                value=iso,
            )
        )
        arrow = G.identity_at(x)
        rank, want = submersion_rank_st(G, arrow, tol)
        report.add(
            CheckRecord(
                name=f"point {i} submersion",
                anchor="rank T(s,t) = dim T(base) + dim T(base) iff locally transitive",
                passed=True,
                value=rank,
                details=f"target dimension {want}",
            )
        )
    return report


def _cmd_path(args, tol, seed) -> ExperimentReport:
    if (args.p_file is None) != (args.q_file is None):
        raise InputError("--p and --q must be given together")
    if args.p_file is not None:
        p, q = _read_element(args.p_file), _read_element(args.q_file)
    else:
        shape = _parse_shape(args.shape)
        rng = np.random.default_rng(seed)
        ranks = tuple(max(1, int(rng.integers(1, n + 1))) for n in shape)
        p = sampling.random_projection(rng, shape, ranks=ranks)
        q = sampling.random_projection(rng, shape, ranks=ranks)
    path = orbit_path(p, q, steps=args.steps, tol=tol)
    smooth = reparametrize_lift(path, lambda t: 3 * t * t - 2 * t**3, tol)
    report = ExperimentReport(suite="projection-path", config=_config_echo(args, tol, seed))
    end_gap = path.end.distance(q)
    report.add(CheckRecord(name="endpoint", anchor="path ends at the requested projection",
                           passed=end_gap <= ENDPOINT_TOL, value=end_gap))
    report.add(CheckRecord(name="lift residual", anchor="anchor of the lift matches the velocity",
                           passed=path.max_lift_residual <= LIFT_TOL,
                           value=path.max_lift_residual))
    report.add(
        CheckRecord(
            name="reparametrized residual",
            anchor="(alpha . phi) phi' lifts c . phi",
            passed=smooth.max_lift_residual <= reparametrized_bound(path.max_lift_residual),
            value=smooth.max_lift_residual,
        )
    )
    return report


def _cmd_continuity(args, tol, seed) -> ExperimentReport:
    shape = _parse_shape(args.shape)
    rng = np.random.default_rng(seed)
    report = ExperimentReport(suite="mp-continuity", config=_config_echo(args, tol, seed))
    report.config["horizon"] = args.horizon
    for i in range(args.count):
        for kind in ("rank_preserving", "rank_dropping", "constant"):
            if kind == "constant":
                ranks = None  # full rank
            else:
                # deficient but nonzero, so both perturbation kinds apply
                ranks = tuple(max(1, int(rng.integers(1, n))) if n > 1 else 1 for n in shape)
                if kind == "rank_dropping":
                    ranks = tuple(min(r, n - 1) if n > 1 else 0 for r, n in zip(ranks, shape))
                if all(r == 0 for r in ranks):
                    raise InputError("shape too small for a rank-dropping family")
            base = sampling.well_conditioned_element(rng, shape, ranks=ranks)
            fam = make_family(kind, base, horizon=args.horizon, tol=tol)
            verdict = continuity_experiment(fam, tol)
            expected = kind != "rank_dropping"
            report.add(
                CheckRecord(
                    name=f"family {i} {kind}",
                    anchor="(a_n, a_n+) converges iff a_n+ a_n does",
                    passed=verdict.pair_converges == expected,
                    value=float(verdict.distances_pair[-1]),
                    details=f"pair={verdict.pair_converges} source={verdict.source_converges}",
                )
            )
    return report


def _cmd_suite(args, tol, seed) -> ExperimentReport:
    report = run_acceptance(tol, seed)
    report.config.update(_config_echo(args, tol, seed))
    return report


def _config_echo(args, tol: ToleranceConfig, seed: int) -> dict:
    return {
        "command": args.command,
        "seed": seed,
        "residual_tol": tol.residual_tol,
        "rank_cutoff_factor": tol.rank_cutoff_factor,
        "fd_step_scale": tol.fd_step_scale,
        "format": args.format,
    }


_HANDLERS = {
    "pinv": _cmd_pinv,
    "check-groupoid": _cmd_check_groupoid,
    "orbits": _cmd_orbits,
    "geometry": _cmd_geometry,
    "path": _cmd_path,
    "continuity": _cmd_continuity,
    "suite": _cmd_suite,
}


def _emit(report: ExperimentReport, args) -> None:
    if not args.no_timestamp:
        report.stamp()
    payload = report.to_json_bytes() if args.format == "json" else report.to_csv_text().encode()
    if args.out is not None:
        args.out.write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _resolve_seed(args)
        tol = _resolve_tol(args)
        report = _HANDLERS[args.command](args, tol, seed)
    except Exception as exc:  # every failure leaves as a record, never as a traceback
        details = str(exc)
        if not isinstance(exc, GinvError):
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            details += f" (raised at {Path(frame.filename).name}:{frame.lineno} in {frame.name})"
        error_report = ExperimentReport(
            suite=f"{args.command}-error",
            config={"command": args.command},
        )
        error_report.add(
            CheckRecord(
                name="error",
                anchor="input and configuration must satisfy the documented contracts",
                passed=False,
                value=type(exc).__name__,
                details=details,
            )
        )
        _emit(error_report, args)
        return EXIT_INPUT_ERROR
    _emit(report, args)
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
