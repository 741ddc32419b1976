"""The open defects of ROADMAP's defect ledger, each against its truth.

Every test here fails today and is marked ``xfail(strict=True)`` with its
D id, so the change that mends a defect turns its test into an unexpected
pass, and that change must drop the mark.
"""

import json
import math

import pytest

from test_cli import run_cli
from recinacc.distributions import make_exponential, make_weibull
from recinacc.record_measures import RecordMeasureRequest, compute_record_measure, kerridge_record
from recinacc.records import RecordSpec


@pytest.mark.xfail(strict=True, reason="D2: the quadrature route never sees the record mass near x = 2e-18")
def test_d2_weibull_lower_kerridge_quadrature():
    res = kerridge_record(make_weibull(2.0, 0.5), RecordSpec("lower", 20, 1), "quadrature")
    assert res.value == pytest.approx(-20.6931457498, rel=1e-9)


D12_TRUTHS = pytest.mark.parametrize("measure, truth", [
    ("kij", -(1.0 - 2.0**-50) / 2.0),
    ("kl", 46.631750051622),
], ids=["kij", "kl"])


@pytest.mark.xfail(strict=True, reason="D12: the generic route misses the record mass at n = 50")
@D12_TRUTHS
def test_d12_library_default_path_on_a_record_law(measure, truth):
    res = compute_record_measure(
        RecordMeasureRequest(make_exponential(1.0), RecordSpec("lower", 50, 1), measure))
    assert math.isfinite(res.value)
    assert res.value == pytest.approx(truth, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="D12: the generic route misses the record mass at n = 50")
@D12_TRUTHS
def test_d12_cli_default_path_on_a_record_law(measure, truth):
    res = run_cli(
        "compute", "--dist", "exponential", "--param", "theta=1", "--measure", measure,
        "--side", "lower", "--n", "50", "--k", "1", "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    value = json.loads(res.stdout)["value"]
    assert math.isfinite(value)
    assert value == pytest.approx(truth, rel=1e-9)
