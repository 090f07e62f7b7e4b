import os

# One BLAS thread, as the ``ginv`` launcher pins it: set before numpy loads,
# so that it takes effect; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ginv.linalg import DEFAULT_TOL  # noqa: E402


@pytest.fixture
def tol():
    return DEFAULT_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
