import pytest
from hypothesis import HealthCheck, settings

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
