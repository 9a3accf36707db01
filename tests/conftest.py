import warnings

import numpy as np
import pytest

# hypothesis imports this module (and libcst through it) only to report a
# failing example; libcst warns on import, and with warnings as errors that
# report would abort the whole session instead of failing one test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from dirw.problems import benchmark2d, BENCHMARK2D_SADDLE_X2


@pytest.fixture(scope="session")
def bench():
    return benchmark2d()


@pytest.fixture(scope="session")
def saddle_x2():
    return BENCHMARK2D_SADDLE_X2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
