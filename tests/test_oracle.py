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
from recinacc import records as R
from recinacc.distributions import (
    affine_transform,
    make_custom,
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
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


def _reference_stream_record_sample(parent, side, k, n, reps, seed):
    """The stream scan written plainly: the bit-for-bit reference of
    ``oracle.stream_record_sample``, which draws into one buffer and moves
    each new value into its top-k row by compare-swaps."""
    RecordSpec(side, n, k)
    sgn = 1.0 if side == "upper" else -1.0
    rng = np.random.default_rng(seed)

    drawn = 0

    def draw(shape) -> np.ndarray:
        nonlocal drawn
        count = int(np.prod(shape))
        if drawn + count > O.STREAM_CAP:
            raise StreamCapError(
                f"stream cap of {O.STREAM_CAP} draws reached with "
                f"{int(done.sum())} of {reps} replications finished",
                records_found=int(done.sum()),
            )
        drawn += count
        return sgn * np.asarray(parent.quantile(rng.random(shape)), float)

    done = np.zeros(reps, dtype=bool)
    # top-k buffer of the sign-adjusted stream, ascending; column 0 holds the
    # k-th largest, whose sign-adjusted value is the current record
    z = np.sort(draw((reps, k)), axis=1)
    count = np.ones(reps, dtype=np.int64)
    record = z[:, 0].copy()
    done = count >= n

    active = np.flatnonzero(~done)
    chunk = 4
    while active.size:
        zs = draw((active.size, chunk))
        hit = zs > z[active, 0][:, None]
        any_hit = hit.any(axis=1)
        rows = active[any_hit]
        if rows.size:
            first = hit[any_hit].argmax(axis=1)
            z[rows, 0] = zs[any_hit, first]
            z[rows] = np.sort(z[rows], axis=1)
            count[rows] += 1
            record[rows] = z[rows, 0]
            finished = rows[count[rows] >= n]
            done[finished] = True
        # the window doubles after a round in which most rows met no record,
        # bounded by a few million draws per round
        if any_hit.mean() < 0.5:
            chunk = min(2 * chunk, max(4, 4_000_000 // active.size))
        active = np.flatnonzero(~done)
    return sgn * record


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
            # a bool passed as an integer
            dict(samples=True),
            dict(seed=True),
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

    # True passed as 1, then numpy raised a bare TypeError
    @pytest.mark.parametrize("reps", [0, 2.5, True])
    def test_bad_reps_is_a_parameter_error(self, reps):
        with pytest.raises(ParameterError, match="reps must be an integer >= 1"):
            O.stream_record_sample(E1, "upper", 2, 2, reps=reps, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "x"])
    @pytest.mark.parametrize("sampler", ["stream_extract_records", "stream_record_sample"])
    def test_bad_seed_is_a_parameter_error(self, sampler, seed):
        args = (E1, "upper", 2, 2) if sampler == "stream_extract_records" else (E1, "upper", 2, 2, 10)
        with pytest.raises(ParameterError, match="seed"):
            getattr(O, sampler)(*args, seed=seed)


def _scan_parents():
    from recinacc.verify import _make_triangular

    return {
        "exp1": E1,
        "exp2": make_exponential(2.0),
        "pareto2": make_pareto(2.0),
        "pareto3": make_pareto(3.0),
        "weibull2-0.5": make_weibull(2.0, 0.5),
        "weibull1-2": make_weibull(1.0, 2.0),
        "uniform": U,
        "power-dec": PD,
        "power-inc2": make_power_increasing(2),
        "power-inc3": make_power_increasing(3),
        "triangular": _make_triangular(),
        "affine-weibull": affine_transform(make_weibull(1.0, 2.0), 2.0, 1.0),
    }


SCAN_PARENTS = _scan_parents()


def _scan_or_cap(sampler, *args):
    try:
        return sampler(*args)
    except StreamCapError as exc:
        return str(exc), exc.records_found


class TestStreamScanBits:
    """The scan returns the bits of the plainly written scan."""

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("name", list(SCAN_PARENTS))
    def test_grid_matches_the_full_chunk_scan(self, name, side):
        parent = SCAN_PARENTS[name]
        for k in range(1, 5):
            for n in range(1, 7):
                for seed in range(3):
                    args = (parent, side, k, n, 64, seed)
                    got = O.stream_record_sample(*args)
                    want = _reference_stream_record_sample(*args)
                    # tobytes also tells -0.0 from 0.0
                    assert got.tobytes() == want.tobytes(), (k, n, seed)

    @pytest.mark.parametrize("name, side, k, n, reps", [
        ("exp1", "upper", 2, 2, 50_000),
        ("pareto2", "upper", 3, 3, 20_000),
        ("weibull2-0.5", "lower", 2, 3, 20_000),
        ("uniform", "lower", 1, 2, 1000),
    ])
    def test_benchmark_scans_match_the_full_chunk_scan(self, name, side, k, n, reps):
        args = (SCAN_PARENTS[name], side, k, n, reps, 17)
        assert O.stream_record_sample(*args).tobytes() == _reference_stream_record_sample(*args).tobytes()

    @pytest.mark.parametrize("cap, args", [
        (5000, (U, "upper", 1, 12, 200, 0)),
        (60_000, (E1, "lower", 1, 4, 300, 3)),
        (2000, (PD, "upper", 3, 2, 1000, 1)),
    ])
    def test_cap_refusal_matches_the_full_chunk_scan(self, monkeypatch, cap, args):
        monkeypatch.setattr(O, "STREAM_CAP", cap)
        got = _scan_or_cap(O.stream_record_sample, *args)
        want = _scan_or_cap(_reference_stream_record_sample, *args)
        assert isinstance(want, tuple)
        assert got == want

    # past 4,000,000 draws, the draw buffer must hold the first round (4 per
    # row of 1,100,000) and the first k per row (5 per row of 900,000)
    @pytest.mark.parametrize("k, n, reps", [(1, 2, 1_100_000), (5, 1, 900_000)])
    def test_draws_past_the_chunk_bound(self, k, n, reps):
        args = (U, "upper", k, n, reps, 5)
        got = O.stream_record_sample(*args)
        assert got.tobytes() == _reference_stream_record_sample(*args).tobytes()

    @pytest.mark.parametrize("cap", [1_100_000 + 4_400_000 - 1, 1_100_000 + 4_400_000 + 1])
    def test_cap_reached_inside_the_first_large_round(self, monkeypatch, cap):
        # the cap falls one draw short of the end of the first round of
        # 4,400,000 draws, or one past it, so that the second round passes
        # it: a refusal either way, never a buffer overrun
        monkeypatch.setattr(O, "STREAM_CAP", cap)
        args = (U, "upper", 1, 2, 1_100_000, 5)
        got = _scan_or_cap(O.stream_record_sample, *args)
        want = _scan_or_cap(_reference_stream_record_sample, *args)
        assert isinstance(want, tuple)
        assert got == want


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

    @pytest.mark.parametrize("name, side, n, k, measure, value, error", [
        ("exp1", "upper", 3, 2, "kerridge", "0x1.8054b29dab419p+0", "0x1.2d86fafcffcd2p-6"),
        ("weibull2-0.5", "lower", 2, 1, "kerridge", "-0x1.17d5d7c3a9686p+1", "0x1.466eb8b9692a7p-5"),
        ("power-dec", "upper", 1, 3, "kerridge", "-0x1.bfc6619cbd5e8p-1", "0x1.3773ef6e3ebc5p-8"),
        ("pareto2", "upper", 2, 2, "cri", "0x1.a0a0e80ee4a98p-1", "0x1.1417147faed1ap-7"),
        ("weibull1-2", "upper", 3, 1, "cri", "0x1.eed43064dc8c2p+0", "0x1.1a110ed1669abp-7"),
        ("uniform", "lower", 2, 2, "cpi", "0x1.08dedda4cac30p-2", "0x1.35b907cbfcb28p-9"),
        ("power-inc2", "lower", 3, 1, "cpi", "0x1.9ef8b0f618fdap-1", "0x1.ba0cba82aa9eap-8"),
    ])
    def test_estimates_are_pinned_to_the_bit(self, name, side, n, k, measure, value, error):
        # recorded when the sampler drew exponential(scale=1/k) directly
        req = RM.RecordMeasureRequest(SCAN_PARENTS[name], RecordSpec(side, n, k), measure)
        res = O.mc_measure(req, O.McConfig(samples=20_000, seed=7))
        assert (res.value.hex(), res.abs_error_estimate.hex()) == (value, error)

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

    @pytest.mark.parametrize("measure, side", [("cri", "upper"), ("cpi", "lower")])
    def test_over_budget_refused_before_any_sampling(self, monkeypatch, measure, side):
        # the cumulative branch samples orders 2 .. n + 1; the last term's
        # draws are over the cap, so nothing is sampled before the refusal,
        # which is the one sample_record gives for that term
        monkeypatch.setattr(R, "STREAM_CAP", 200_000)
        n, samples = 1000, 1000
        with pytest.raises(ParameterError) as direct:
            sample_record(E1, RecordSpec(side, n + 1, 1), 0, samples)
        calls = []
        monkeypatch.setattr(O, "sample_record", lambda *a: calls.append(a))
        req = RM.RecordMeasureRequest(E1, RecordSpec(side, n, 1), measure)
        with pytest.raises(ParameterError) as exc:
            O.mc_measure(req, O.McConfig(samples=samples, seed=0))
        assert str(exc.value) == str(direct.value)
        assert calls == []

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
