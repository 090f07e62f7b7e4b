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
``error`` record, never as a traceback.  That includes a malformed
command line, whose record goes to stdout under the command ``usage``.
Input past the desk scale is bad input: block sizes and ``--dim`` above
8, more than 8 blocks, and the counts outside :data:`SCALE_LIMITS`, such
as a ``--count`` of 0, which would check nothing.  So is an ``--out``
path that cannot be written; that record goes to stdout.  Identical
configuration (including ``--seed``) produces byte-identical reports,
and each report's ``config`` echoes that configuration, the subcommand's
own arguments included; ``--no-timestamp`` suppresses the only
non-deterministic field.  The environment variable ``GINV_SEED``
supplies the default seed when ``--seed`` is not given.

Each handler imports the library modules it runs when it runs, so that a
command loads only those; the module itself needs ``errors``, ``linalg``
and ``reports``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .errors import GinvError, InputError
from .linalg import ToleranceConfig
from .reports import CheckRecord, ExperimentReport

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2

#: The largest block size, and the most blocks, of an algebra the CLI takes.
MAX_BLOCK_SIZE = 8
MAX_BLOCKS = 8
#: The ``(lowest, highest)`` value of each size flag, ``None`` where the
#: library checks that end itself; checked before any work starts.
SCALE_LIMITS = {
    "dim": (None, 8),
    "samples": (None, 10_000),
    "count": (1, 1_000),
    "steps": (None, 1_024),
    "horizon": (None, 1_024),
    "points": (None, 10_000),
}


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose errors raise :class:`InputError`, so that they leave
    as an ``error`` record instead of usage text on stderr."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _common_parser() -> argparse.ArgumentParser:
    """The options every subcommand takes; the rest are its own."""
    common = _ArgumentParser(add_help=False)
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
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ginv",
        description="Generalized-inverse groupoids: pseudo-inversion, groupoid "
        "law checks and numerical geometry reports.",
    )
    common = _common_parser()
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


def _check_scale(args) -> None:
    for name, (lowest, highest) in SCALE_LIMITS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if lowest is not None and value < lowest:
            raise InputError(f"--{name} {value} is below the lower limit of {lowest}")
        if value > highest:
            raise InputError(f"--{name} {value} is past the limit of {highest}")


def _check_blocks(shape: tuple) -> tuple:
    if len(shape) > MAX_BLOCKS:
        raise InputError(f"{len(shape)} blocks are past the limit of {MAX_BLOCKS}")
    if any(n > MAX_BLOCK_SIZE for n in shape):
        raise InputError(f"block size {max(shape)} is past the limit of {MAX_BLOCK_SIZE}")
    return shape


def _parse_shape(text: str) -> tuple:
    try:
        shape = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"bad shape {text!r}: {exc}") from exc
    return _check_blocks(shape)


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


def _read_element(path: Path):
    from .serialization import parse_element

    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read {path}: {exc}") from exc
    element = parse_element(text)
    _check_blocks(element.shape)
    return element


def _instance(args, tol: ToleranceConfig):
    from .groupoid import make_groupoid

    kind = args.kind
    if kind in ("ginv", "partial_isometry"):
        return make_groupoid(kind, tol, shape=_parse_shape(args.shape))
    if kind == "action":
        return make_groupoid(kind, tol, n=args.dim)
    return make_groupoid(kind, tol, dim=args.dim, pool_size=getattr(args, "points", None))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_pinv(args, tol, seed) -> ExperimentReport:
    from .geninv import moore_penrose, penrose_residuals
    from .serialization import element_to_dict

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
    from .groupoid import verify_axioms

    G = _instance(args, tol)
    report = verify_axioms(G, seed=seed, n_samples=args.samples)
    del report.config["n_samples"]  # echoed as ``samples``
    report.config.update(_config_echo(args, tol, seed))
    return report


def _cmd_orbits(args, tol, seed) -> ExperimentReport:
    from .geometry import orbit_decompose

    G = _instance(args, tol)
    rng = np.random.default_rng(seed)
    points = [G.sample_base_point(rng) for _ in range(args.count)]
    report = orbit_decompose(G, points, tol)
    del report.config["n_points"]  # echoed as ``count``
    report.config.update(_config_echo(args, tol, seed))
    return report


def _cmd_geometry(args, tol, seed) -> ExperimentReport:
    from .geometry import at

    G = _instance(args, tol)
    rng = np.random.default_rng(seed)
    report = ExperimentReport(suite=f"geometry-{G.kind}",
                              config=_config_echo(args, tol, seed))
    for i in range(args.count):
        point = at(G, G.sample_base_point(rng), tol)
        data, iso = point.anchor, point.isotropy_dim
        base_dim = point.tangent.real_dim
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
        rank, want = point.submersion
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
    from . import sampling
    from .paths import ENDPOINT_TOL, LIFT_TOL, orbit_path, reparametrize_lift, reparametrized_bound

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
    smooth = reparametrize_lift(path, lambda t: 3 * t * t - 2 * t**3)
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
    from .continuity import DRAWN_KINDS, drawn_experiments

    shape = _parse_shape(args.shape)
    rng = np.random.default_rng(seed)
    report = ExperimentReport(suite="mp-continuity", config=_config_echo(args, tol, seed))
    kinds = DRAWN_KINDS * args.count
    for j, (fam, verdict) in enumerate(drawn_experiments(rng, shape, kinds, args.horizon, tol)):
        if isinstance(verdict, GinvError):
            raise verdict
        report.add(
            CheckRecord(
                name=f"family {j // 3} {fam.kind}",
                anchor="(a_n, a_n+) converges iff a_n+ a_n does",
                passed=verdict.pair_converges == (fam.kind != "rank_dropping"),
                value=float(verdict.distances_pair[-1]),
                details=f"pair={verdict.pair_converges} source={verdict.source_converges}",
            )
        )
    return report


def _cmd_suite(args, tol, seed) -> ExperimentReport:
    from .suite import run_acceptance

    report = run_acceptance(tol, seed)
    report.config.update(_config_echo(args, tol, seed))
    return report


def _config_echo(args, tol: ToleranceConfig, seed: int) -> dict:
    """The command, its seed and tolerances as resolved, the format, and each
    of the subcommand's own arguments, as given or at its default, under its
    ``argparse`` name; an input file is echoed as its path text."""
    shared = vars(_common_parser().parse_args([]))
    own = {name: str(value) if isinstance(value, Path) else value
           for name, value in vars(args).items() if name not in shared and name != "command"}
    return {"command": args.command, "seed": seed, **dataclasses.asdict(tol),
            "format": args.format, **own}


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
        try:
            args.out.write_bytes(payload)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _emit_error(exc: Exception, args) -> None:
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
    try:
        _emit(error_report, args)
    except InputError:  # an --out path that cannot be written
        args.out = None  # the record goes to stdout
        _emit(error_report, args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except InputError as exc:  # a malformed command line; its own flags are not trusted
        usage = argparse.Namespace(command="usage", format="json", out=None,
                                   no_timestamp="--no-timestamp" in argv)
        _emit_error(exc, usage)
        return EXIT_INPUT_ERROR
    try:
        _check_scale(args)
        seed = _resolve_seed(args)
        tol = _resolve_tol(args)
        report = _HANDLERS[args.command](args, tol, seed)
        _emit(report, args)
    except Exception as exc:  # every failure leaves as a record, never as a traceback
        _emit_error(exc, args)
        return EXIT_INPUT_ERROR
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
