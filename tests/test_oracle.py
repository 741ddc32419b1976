"""Stream-based record extraction and Monte Carlo estimates.

The stream scanner is the definitional ground truth; these tests check
its classical structure (monotone sequences, first record after k
observations), its distributional agreement with the analytic record law
and with the transform-based sampler, and the Monte Carlo error bars.
"""

import math

import numpy as np
import pytest
from scipy import stats

from recinacc import oracle as O
from recinacc import record_measures as RM
from recinacc.distributions import (
    make_custom,
    make_exponential,
    make_power_decreasing,
    make_uniform01,
)
from recinacc.errors import (
    ContaminationError,
    ParameterError,
    StreamCapError,
    UnsupportedMethodError,
)
from recinacc.records import RecordSpec, record_cdf, sample_record

E1 = make_exponential(1.0)
U = make_uniform01()
PD = make_power_decreasing()


class TestMcConfig:
    def test_defaults_valid(self):
        cfg = O.McConfig()
        assert cfg.samples >= 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples=999),
            dict(samples=10_000.0),
            dict(seed=-1),
            dict(seed=3.5),
            dict(seed=np.random.SeedSequence(0)),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            O.McConfig(**kwargs)


class TestStreamExtraction:
    def test_classical_upper_records_strictly_increase(self):
        seq = O.stream_extract_records(E1, "upper", 1, 6, seed=7)
        assert seq.shape == (6,)
        assert np.all(np.diff(seq) > 0)

    def test_classical_lower_records_strictly_decrease(self):
        seq = O.stream_extract_records(U, "lower", 1, 6, seed=7)
        assert np.all(np.diff(seq) < 0)

    def test_k_records_increase_on_upper_side(self):
        seq = O.stream_extract_records(E1, "upper", 3, 8, seed=11)
        assert np.all(np.diff(seq) > 0)

    def test_deterministic_given_seed(self):
        a = O.stream_extract_records(E1, "upper", 2, 5, seed=3)
        b = O.stream_extract_records(E1, "upper", 2, 5, seed=3)
        c = O.stream_extract_records(E1, "upper", 2, 5, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draw_cap_reports_partial_progress(self, monkeypatch):
        monkeypatch.setattr(O, "STREAM_CAP", 2000)
        with pytest.raises(StreamCapError) as exc:
            # the 40th classical record needs ~e^39 observations
            O.stream_extract_records(U, "upper", 1, 40, seed=0)
        assert 1 <= exc.value.records_found < 40

    def test_batch_sampler_matches_single_scans_in_law(self):
        # same process, two implementations: compare a moderate sample
        single = np.array(
            [O.stream_extract_records(E1, "upper", 2, 2, seed=s)[-1] for s in range(400)]
        )
        batch = O.stream_record_sample(E1, "upper", 2, 2, reps=4000, seed=123)
        assert stats.ks_2samp(single, batch).pvalue > 0.001

    def test_batch_sampler_cap(self, monkeypatch):
        monkeypatch.setattr(O, "STREAM_CAP", 5000)
        with pytest.raises(StreamCapError):
            O.stream_record_sample(U, "upper", 1, 12, reps=200, seed=0)

    @pytest.mark.parametrize("reps", [0, 2.5])
    def test_bad_reps_is_a_parameter_error(self, reps):
        with pytest.raises(ParameterError, match="reps must be a positive integer"):
            O.stream_record_sample(E1, "upper", 2, 2, reps=reps, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "x"])
    @pytest.mark.parametrize("sampler", ["stream_extract_records", "stream_record_sample"])
    def test_bad_seed_is_a_parameter_error(self, sampler, seed):
        args = (E1, "upper", 2, 2) if sampler == "stream_extract_records" else (E1, "upper", 2, 2, 10)
        with pytest.raises(ParameterError, match="seed"):
            getattr(O, sampler)(*args, seed=seed)


class TestDistributionalAgreement:
    def test_second_upper_2_record_matches_analytic_cdf(self):
        spec = RecordSpec("upper", 2, 2)
        draws = O.stream_record_sample(E1, "upper", 2, 2, reps=100_000, seed=42)
        res = stats.kstest(draws, lambda x: record_cdf(E1, spec, x))
        assert res.pvalue > 0.001

    @pytest.mark.parametrize(
        "parent,side,n,k",
        [
            (E1, "upper", 2, 1),
            (E1, "lower", 3, 2),
            (U, "upper", 3, 3),
            (U, "lower", 2, 1),
            (PD, "upper", 2, 2),
        ],
        ids=["exp-up", "exp-low", "uni-up", "uni-low", "pd-up"],
    )
    def test_stream_agrees_with_transform_sampler(self, parent, side, n, k):
        reps = 30_000
        stream = O.stream_record_sample(parent, side, k, n, reps=reps, seed=5)
        transform = sample_record(parent, RecordSpec(side, n, k), 6, reps)
        assert stats.ks_2samp(stream, transform).pvalue > 0.001


class TestMcMeasure:
    def test_exponential_kerridge_brackets_truth(self):
        req = RM.RecordMeasureRequest(E1, RecordSpec("upper", 2, 1), "kerridge")
        res = O.mc_measure(req, O.McConfig(samples=1_000_000, seed=1))
        assert res.method == "monte_carlo"
        assert res.abs_error_estimate < 0.01
        assert abs(res.value - 2.0) <= res.abs_error_estimate

    @pytest.mark.parametrize("measure", ["kerridge", "cri"])
    def test_error_estimate_is_a_python_float(self, measure):
        req = RM.RecordMeasureRequest(E1, RecordSpec("upper", 2, 1), measure)
        res = O.mc_measure(req, O.McConfig(samples=10_000, seed=1))
        assert type(res.value) is float
        assert type(res.abs_error_estimate) is float

    def test_uniform_kerridge_is_exactly_zero(self):
        req = RM.RecordMeasureRequest(U, RecordSpec("upper", 3, 2), "kerridge")
        res = O.mc_measure(req, O.McConfig(samples=10_000, seed=2))
        assert res.value == 0.0
        assert res.abs_error_estimate == 0.0

    def test_power_law_kerridge(self):
        req = RM.RecordMeasureRequest(PD, RecordSpec("upper", 1, 1), "kerridge")
        res = O.mc_measure(req, O.McConfig(samples=200_000, seed=3))
        want = -math.log(3.0) + 2.0 / 3.0
        assert abs(res.value - want) <= res.abs_error_estimate

    def test_exponential_cri_has_constant_functional(self):
        # survival/pdf is identically 1/theta for the exponential, so the
        # estimate is exact and the error bar collapses to zero
        req = RM.RecordMeasureRequest(E1, RecordSpec("upper", 2, 1), "cri")
        res = O.mc_measure(req, O.McConfig(samples=10_000, seed=4))
        assert res.value == pytest.approx(3.0, abs=1e-12)
        assert res.abs_error_estimate == 0.0

    def test_uniform_cri_brackets_closed_form(self):
        req = RM.RecordMeasureRequest(U, RecordSpec("upper", 1, 2), "cri")
        res = O.mc_measure(req, O.McConfig(samples=200_000, seed=5))
        assert abs(res.value - 1.0 / 9.0) <= res.abs_error_estimate

    def test_uniform_cpi_brackets_closed_form(self):
        req = RM.RecordMeasureRequest(U, RecordSpec("lower", 2, 1), "cpi")
        res = O.mc_measure(req, O.McConfig(samples=200_000, seed=6))
        assert abs(res.value - 0.5) <= res.abs_error_estimate

    def test_deterministic_given_seed(self):
        req = RM.RecordMeasureRequest(E1, RecordSpec("upper", 2, 1), "kerridge")
        a = O.mc_measure(req, O.McConfig(samples=10_000, seed=9))
        b = O.mc_measure(req, O.McConfig(samples=10_000, seed=9))
        c = O.mc_measure(req, O.McConfig(samples=10_000, seed=10))
        assert a == b
        assert a.value != c.value

    @pytest.mark.parametrize("measure, label", [
        ("kij", "extropy inaccuracy"),
        ("crij", "cumulative residual extropy inaccuracy"),
        ("cpij", "cumulative past extropy inaccuracy"),
        ("kl", "kl divergence"),
        ("relinfo", "relative information"),
    ])
    def test_refuses_a_measure_it_cannot_estimate(self, measure, label):
        # an auto request is valid for these; the oracle must not fall
        # into the cumulative branch and return a cpi-style estimate
        req = RM.RecordMeasureRequest(E1, RecordSpec("upper", 2, 1), measure)
        with pytest.raises(UnsupportedMethodError) as exc:
            O.mc_measure(req, O.McConfig(samples=10_000, seed=0))
        assert str(exc.value) == f"no monte_carlo route is known for {label}"

    def test_contaminated_functional_raises(self):
        # valid uniform law, but the log-density is poisoned near 1 where
        # third records concentrate; the non-finite fraction is a few
        # percent, far above the tolerance
        def bad_log_pdf(x):
            x = np.asarray(x, float)
            return np.where(x > 0.999, np.nan, 0.0)

        poisoned = make_custom(
            pdf=lambda x: np.where((np.asarray(x) >= 0) & (np.asarray(x) <= 1), 1.0, 0.0),
            cdf=lambda x: np.clip(np.asarray(x, float), 0.0, 1.0),
            quantile=lambda p: np.asarray(p, float),
            support=(0.0, 1.0),
            log_pdf=bad_log_pdf,
        )
        req = RM.RecordMeasureRequest(poisoned, RecordSpec("upper", 3, 1), "kerridge")
        with pytest.raises(ContaminationError):
            O.mc_measure(req, O.McConfig(samples=50_000, seed=0))
