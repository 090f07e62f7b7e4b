"""Benchmark of the ginv library: the acceptance battery, geometry analysis
and CLI invocations, with per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload {battery,geometry,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a ginv checkout; it loads the library from
``src/`` there and nowhere else.  It prints a readable report (environment,
every metric with its unit and sample count, every failed operation) and,
as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see README.md).  End-to-end times are reference seconds
(``speed.py``): wall time corrected by a speed probe sampled every 20 ms, so
that they do not swing with the shared host; the report prints the raw wall
times next to them.  ``correct`` is false when outputs that must repeat at
one seed do not (reports, dimension answers, per-layer counts).  Wrong
answers are counted in ``failed``.  Each run is appended to
``perfbench/out/runs.jsonl``; a traced run also writes its spans to
``perfbench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import harness
import speed
import tracing
import workloads

harness.pin_blas(os.environ)  # before numpy loads, in this process and its children

#: The end-to-end metrics of the JSON line, with their units.
END_TO_END = (("task_p50_s", "s"), ("task_tail_s", "s"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5  # set-ups per run; setup_s is their median
IMPORT_PROBES = 3  # interpreter and `import ginv.cli` starts per traced run

#: The workload's own name for a metric, printed next to the
#: workload-neutral name the JSON line uses.
_ALIASES = {
    "battery": {"task_p50_s": "battery_s"},
    "geometry": {"ops_per_s": "geometry_points_per_s"},
    "cli": {"task_p50_s": "cli_p50_s", "task_tail_s": "cli_tail_s"},
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("battery", "geometry", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _closed_loop(run_round, seconds: float, min_rounds: int):
    """Rounds back to back; the next starts only if, at the mean round time so
    far, it ends within ``seconds`` (or fewer than ``min_rounds`` have run)."""
    rounds, start = [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.fmean(
                r.seconds for r in rounds) > seconds:
            return rounds
        rounds.append(run_round())


def _setup_seconds(workload: str, seed: int) -> list:
    """Reference seconds of each set-up probe's import and input making."""
    probe = str(harness.BENCH_DIR / "probe.py")
    spans = []
    with speed.Sampler() as sampler:
        for _ in range(SETUP_PROBES):
            res = harness.run_child([sys.executable, probe, workload, str(seed)])
            if res.rc != 0:
                raise RuntimeError(f"set-up probe failed ({res.rc}): {res.stderr.decode()[-400:]}")
            spans.append([float(x) for x in res.stdout.split()])
    return [sampler.scaled(t0, t1) for t0, t1 in spans]


def _line(name, value, unit, note=""):
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}"


def measure(wl, args, setup):
    """End-to-end run: tracing off, the speed sampler on."""
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        rounds = _closed_loop(wl.run_round, args.seconds, wl.min_rounds)
        end = time.perf_counter()
    ops = [op for r in rounds for op in r.ops]
    units = rounds if wl.timed == "round" else ops
    samples = [sampler.scaled(u.t0, u.t1) for u in units]
    walls = [u.seconds for u in units]
    elapsed = sampler.scaled(start, end)
    if args.workload == "cli":
        rss = max(op.rss_mb for op in ops)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    values = (harness.median(samples), harness.percentile(samples, wl.tail),
              len(ops) / elapsed, harness.median(setup), rss)
    metrics = {name: (value, unit) for (name, unit), value in zip(END_TO_END, values)}
    alias = _ALIASES[args.workload]
    pct = round(100 * wl.tail)
    notes = {
        "task_p50_s": f"median of n={len(samples)} {wl.unit_label} "
                      f"(wall {harness.median(walls):.4g} s)",
        "task_tail_s": f"p{pct} of n={len(samples)}, {harness.beyond(samples, wl.tail)} beyond "
                       f"(wall {harness.percentile(walls, wl.tail):.4g} s)",
        "ops_per_s": f"{len(ops)} {wl.op_label} in {elapsed:.2f} reference s "
                     f"({end - start:.2f} s wall)",
        "setup_s": f"median of n={len(setup)} set-ups {[round(s, 4) for s in setup]}",
        "peak_rss_mb": "max over the CLI children" if args.workload == "cli"
                       else "this process",
    }
    lines = [f"end-to-end metrics (tracing off; times in reference seconds, mean machine "
             f"speed {sampler.speed():.3f} of the reference over {len(sampler.samples)} probes):"]
    for name, (value, unit) in metrics.items():
        label = f"{name} ({alias[name]})" if name in alias else name
        lines.append(_line(label, value, unit, notes[name]))
    lines.append(f"  rounds (reference s): {[round(sampler.scaled(r.t0, r.t1), 3) for r in rounds]}")
    lines.append(f"  rounds (wall s):      {[round(r.seconds, 3) for r in rounds]}")
    return rounds, metrics, lines


def traced(wl, args):
    """Per-layer run at one seed: an untraced round, two traced rounds, and
    another untraced round; then the known defects, untraced."""
    interp = [harness.run_child([sys.executable, "-c", "pass"]).wall_s
              for _ in range(IMPORT_PROBES)]
    imports = [harness.run_child([sys.executable, "-c", "import ginv.cli"]).wall_s
               for _ in range(IMPORT_PROBES)]
    tracer, per_round, span_sets = tracing.Tracer(), [], []
    with speed.Sampler() as sampler:
        rounds = [wl.run_round()]
        tracer.install()
        try:
            for _ in range(2):
                rounds.append(wl.run_round(tracer))
                spans, counts = tracer.take()
                per_round.append(tracing.layer_metrics(spans, counts))
                span_sets.append(spans)
        finally:
            tracer.uninstall()
        rounds.append(wl.run_round())  # untraced rounds on both sides of the traced ones
    defects = workloads.known_defects(args.workload, args.seed)
    for m, r in zip(per_round, rounds[1:3]):
        m["geometry.wrong_dims"] = sum(op.wrong_dims for op in r.ops + defects)
        m["known_defects.failed"] = sum(not op.ok for op in defects)

    drifts = tracing.count_drifts(per_round[0], per_round[1])
    metrics = {}
    for name, unit in tracing.ALL_METRICS:
        if name in per_round[0]:
            value = per_round[0][name] if unit in ("count", "bytes") else \
                statistics.fmean(m[name] for m in per_round)
            metrics[name] = (value, unit)
    metrics["cli.interpreter_s"] = (harness.median(interp), "s")
    metrics["cli.import_s"] = (harness.median(imports) - harness.median(interp), "s")
    ref = [sampler.scaled(r.t0, r.t1) for r in rounds]
    traced_s, untraced_s = ref[1:3], [ref[0], ref[3]]
    overhead = statistics.fmean(traced_s) - statistics.fmean(untraced_s)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.count_drifts"] = (len(drifts), "count")

    lines = [f"per-layer metrics (traced; times are means over n=2 traced rounds, "
             f"counts from one round; {wl.op_label} per round: {len(rounds[0].ops)}):"]
    for name, (value, unit) in metrics.items():
        note = "median of %d starts" % IMPORT_PROBES if name.startswith("cli.i") else ""
        if name == "trace.overhead_s":
            note = (f"traced {[round(t, 3) for t in traced_s]} minus untraced "
                    f"{[round(t, 3) for t in untraced_s]} reference s "
                    f"({100 * overhead / statistics.fmean(untraced_s):+.1f}%)")
        lines.append(_line(name, value, unit, note))
    selfs = tracing.self_times(span_sets[0])
    lines.append("  self time per layer, first traced round (s): " + ", ".join(
        f"{k} {selfs[k]:.3f}" for k in tracing.LAYERS if k in selfs))
    for name in drifts:
        lines.append(f"  COUNT DRIFT {name}: {per_round[0][name]} then {per_round[1][name]}")
    lines.append(f"known defects, outside the timed rounds: {len(defects)} run, "
                 f"{sum(not op.ok for op in defects)} failed")
    lines += [f"  KNOWN FAILURE {op.label}: {op.detail}" for op in defects if not op.ok]

    harness.OUT.mkdir(exist_ok=True)
    with open(harness.OUT / f"trace-{args.workload}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "drifts": drifts,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "rounds": [{"spans": s} for s in span_sets]}, fh)
    return rounds, metrics, lines, drifts


def main(argv=None) -> int:
    args = _parse(argv)
    if not harness.source_present():
        print(f"perfbench: no library at {harness.SRC / 'ginv'}; "
              "run from the root of a ginv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    import ginv

    if not os.path.realpath(ginv.__file__).startswith(os.path.realpath(harness.SRC)):
        print(f"perfbench: ginv loaded from {ginv.__file__}, not {harness.SRC}", file=sys.stderr)
        return 2

    started = harness.utc_now()
    env = harness.environment(args.seed)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, in_process=True) if args.workload == "cli" and args.trace else cls(args.seed)

    problems = []
    if args.trace:
        rounds, metrics, lines, drifts = traced(wl, args)
        wanted = tracing.JSON_METRICS
        problems += [f"per-layer count {name} drifted between rounds" for name in drifts]
    else:
        setup = _setup_seconds(args.workload, args.seed)
        rounds, metrics, lines = measure(wl, args, setup)
        wanted = tuple(metrics)
    if len({r.fingerprint for r in rounds}) > 1:
        problems.append("outputs differ between rounds at one seed")

    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if not op.ok]
    ended = harness.utc_now()
    print(f"ginv benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  started={started} ended={ended}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(lines))
    print(f"  failed_share {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f} "
          f"(operations are {wl.op_label})")
    for (label, detail), n in Counter((op.label, op.detail) for op in failed).items():
        print(f"  FAILED x{n} {label}: {detail}")
    for problem in problems:
        print(f"  NOT CORRECT: {problem}")

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    harness.OUT.mkdir(exist_ok=True)
    with open(harness.OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, "started": started,
                             "ended": ended, "env": env,
                             "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
