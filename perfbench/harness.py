"""Plumbing shared by the benchmark scripts: checkout paths, child processes,
statistics and the environment record.

Nothing here imports numpy or ginv at module level, so a set-up probe can
start its clock before the library is loaded.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import selectors
import statistics
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: BLAS threads in this process and every child.  The largest matrix the
#: library factors is a 512 x 256 Jacobian, where more BLAS threads only add
#: contention for the two cores; one thread also keeps runs steadier.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD_TIMEOUT_S = 150.0


def pin_blas(env) -> None:
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)


def source_present() -> bool:
    return (SRC / "ginv" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment of every child: the checkout's library first, BLAS pinned,
    and no ``GINV_SEED`` leaking in from the caller."""
    env = dict(os.environ)
    pin_blas(env)
    env["PYTHONPATH"] = str(SRC)
    env.pop("GINV_SEED", None)
    return env


@dataclass(frozen=True)
class ChildResult:
    rc: int
    stdout: bytes
    stderr: bytes
    t0: float  # perf_counter at start and end
    t1: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def run_child(argv) -> ChildResult:
    """Run one child to completion from the checkout root.

    Reaps the child with ``wait4`` so its own peak resident memory is known;
    a child that outlives ``CHILD_TIMEOUT_S`` is killed and reported with its signal.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for pipe in chunks:
        pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        rc=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        t0=start,
        t1=end,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


# -- statistics ------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 1]; ``p = 1`` is the maximum."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(p * len(ordered)) - 1)])


def beyond(values, p: float) -> int:
    """Number of samples strictly after the nearest-rank ``p`` percentile."""
    return len(values) - max(1, math.ceil(p * len(values)))


# -- environment record -------------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, entry = line.partition(" ")
            if entry == name:
                return sha
    return "unknown"


def _source_digest() -> str:
    """Digest of the library sources, which names the code even without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ginv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy

    config = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{config.get('name', 'unknown')} {config.get('version', '')}".strip()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")
