import math
import os
import pathlib

import pytest

from nvk.measures import Atomic
from nvk.quadrature import QuadratureConfig

# pytest puts src/ on this process's path (pyproject's ``pythonpath``); tests
# that start ``python -m nvk.cli`` in a subprocess need it there too.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def pi_delta0():
    """The measure pi * delta_0 on R, the data of q(z) = -1/z."""
    return Atomic.single(math.pi, 0.0)


@pytest.fixture
def cfg():
    """Default-accuracy configuration for one-dimensional integrals."""
    return QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)


@pytest.fixture
def cfg_nested():
    """Cheaper configuration for nested (two-level) integrals."""
    return QuadratureConfig(rel_tol=1e-8, abs_tol=1e-11)
