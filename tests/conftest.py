import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# Child processes import the package from this checkout's src, as the tests do.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def triangular():
    """Symmetric triangular law on (0, 1), built through make_custom."""
    from recinacc.verify import _make_triangular

    return _make_triangular()
