"""The ``ginv`` console script: the CLI with OpenBLAS pinned to one thread.

The library's matrices are at most 512 x 256, and for them extra OpenBLAS
threads only spin: two concurrent ``ginv check-groupoid`` runs on a 2-CPU
host took 19.1 s wall with the default threads against 5.0 s with one.
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads, so this
module sets it before anything imports numpy, and only when the user has
not set it.  It lives outside the ``ginv`` package because importing
``ginv.cli`` loads numpy (through ``ginv.linalg``).  ``python -m ginv.cli``
runs the same CLI unpinned.
"""

import os


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from ginv.cli import main as cli_main

    return cli_main()
