"""Direct checks of the verification suites' reporting contract.

The CLI tests cover the subprocess surface; these pin the in-process
report shape that downstream tooling parses, the oracle suite's report
text, and its Kolmogorov-Smirnov p-values, which must equal scipy.stats's
to the bit.  The monotonicity and symmetry reports are pinned byte for
byte too, from files under ``pinned/``.
"""

import contextlib
import io
import math
from pathlib import Path

import pytest
from scipy import stats

from recinacc import ParameterError, cli
from recinacc import verify as V


class TestRunSuite:
    def test_reference_suite_report_shape(self):
        report = V.run_suite("paper-examples")
        assert report["suite"] == "paper-examples"
        assert report["seed"] is None
        assert "PCG64" in report["generator"]
        assert report["passed"] is True
        assert isinstance(report["checks"], list) and report["checks"]
        for check in report["checks"]:
            assert set(check) == {"name", "passed", "detail"}
            assert isinstance(check["passed"], bool)

    def test_identity_suite_deterministic(self):
        first = V.run_suite("propositions")
        second = V.run_suite("propositions")
        assert first == second
        assert first["passed"] is True

    def test_unknown_suite_raises(self):
        # a package error that names the known suites, not a bare KeyError
        with pytest.raises(ParameterError, match="suite must be one of .*'oracle'.*got 'everything'"):
            V.run_suite("everything")

    def test_suite_names_cover_cli_tokens(self):
        assert {"paper-examples", "propositions", "monotonicity", "symmetry", "oracle"} == set(
            V.SUITES
        )


def verify_output(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *args])
    return code, out.getvalue()


# `recinacc verify --suite S`, captured before custom and affine laws were
# built by the catalog's constructor (the symmetry suite's triangular law
# is a custom one)
PINNED = Path(__file__).parent / "pinned"


@pytest.mark.parametrize("suite", ["monotonicity", "symmetry"])
def test_report_text_is_pinned(suite):
    code, text = verify_output("--suite", suite)
    assert code == 0
    assert text == (PINNED / f"verify_{suite}.txt").read_text()


# `recinacc verify --suite oracle --seed S`, captured before the suite's
# KS p-values were computed in the package
ORACLE_REPORTS = {
    0: (
        'PASS  stream scan matches analytic record cdf, exp n=2 k=2  (ks pvalue=0.56971)\n'
        'PASS  stream scan vs transform draws, exp upper n=2 k=1  (ks pvalue=0.72567)\n'
        'PASS  stream scan vs transform draws, uniform lower n=2 k=1  (ks pvalue=0.34467)\n'
        'PASS  mc kerridge brackets closed form, exp n=2 k=1'
        '  (actual=1.99726059066 expected=2 interval=+-0.0135)\n'
        'PASS  mc cri brackets closed form, uniform n=1 k=2'
        '  (actual=0.111042879171 expected=0.111111111111 interval=+-0.000543)\n'
        'PASS  mc estimate deterministic under a fixed seed'
        '  (first=0.11172132836207893 second=0.11172132836207893)\n'
        'suite oracle: 6/6 checks passed\n'
        '{"checks": [{"detail": "ks pvalue=0.56971", '
        '"name": "stream scan matches analytic record cdf, exp n=2 k=2", '
        '"passed": true}, {"detail": "ks pvalue=0.72567", '
        '"name": "stream scan vs transform draws, exp upper n=2 k=1", '
        '"passed": true}, {"detail": "ks pvalue=0.34467", '
        '"name": "stream scan vs transform draws, uniform lower n=2 k=1", '
        '"passed": true}, '
        '{"detail": "actual=1.99726059066 expected=2 interval=+-0.0135", '
        '"name": "mc kerridge brackets closed form, exp n=2 k=1", "passed": true}, '
        '{"detail": "actual=0.111042879171 expected=0.111111111111 interval=+-0.000543", '
        '"name": "mc cri brackets closed form, uniform n=1 k=2", "passed": true}, '
        '{"detail": "first=0.11172132836207893 second=0.11172132836207893", '
        '"name": "mc estimate deterministic under a fixed seed", "passed": true}], '
        '"generator": "numpy PCG64 (seeded via SeedSequence, substreams by spawn)", '
        '"passed": true, "seed": 0, "suite": "oracle"}\n'
    ),
    42: (
        'PASS  stream scan matches analytic record cdf, exp n=2 k=2  (ks pvalue=0.32797)\n'
        'PASS  stream scan vs transform draws, exp upper n=2 k=1  (ks pvalue=0.6229)\n'
        'PASS  stream scan vs transform draws, uniform lower n=2 k=1  (ks pvalue=0.67795)\n'
        'PASS  mc kerridge brackets closed form, exp n=2 k=1'
        '  (actual=1.9981076031 expected=2 interval=+-0.0134)\n'
        'PASS  mc cri brackets closed form, uniform n=1 k=2'
        '  (actual=0.111130406907 expected=0.111111111111 interval=+-0.000541)\n'
        'PASS  mc estimate deterministic under a fixed seed'
        '  (first=0.11097689911747262 second=0.11097689911747262)\n'
        'suite oracle: 6/6 checks passed\n'
        '{"checks": [{"detail": "ks pvalue=0.32797", '
        '"name": "stream scan matches analytic record cdf, exp n=2 k=2", '
        '"passed": true}, {"detail": "ks pvalue=0.6229", '
        '"name": "stream scan vs transform draws, exp upper n=2 k=1", '
        '"passed": true}, {"detail": "ks pvalue=0.67795", '
        '"name": "stream scan vs transform draws, uniform lower n=2 k=1", '
        '"passed": true}, '
        '{"detail": "actual=1.9981076031 expected=2 interval=+-0.0134", '
        '"name": "mc kerridge brackets closed form, exp n=2 k=1", "passed": true}, '
        '{"detail": "actual=0.111130406907 expected=0.111111111111 interval=+-0.000541", '
        '"name": "mc cri brackets closed form, uniform n=1 k=2", "passed": true}, '
        '{"detail": "first=0.11097689911747262 second=0.11097689911747262", '
        '"name": "mc estimate deterministic under a fixed seed", "passed": true}], '
        '"generator": "numpy PCG64 (seeded via SeedSequence, substreams by spawn)", '
        '"passed": true, "seed": 42, "suite": "oracle"}\n'
    ),
}


@pytest.fixture
def fallbacks(monkeypatch):
    """Every call of scipy.stats.kstwo.sf, by its arguments."""
    calls = []
    sf = stats.kstwo.sf

    def spy(d, n):
        calls.append((d, n))
        return sf(d, n)

    monkeypatch.setattr(stats.kstwo, "sf", spy)
    return calls


class TestOracleKS:
    @pytest.mark.parametrize("seed", [0, 42])
    def test_report_text(self, seed):
        code, text = verify_output("--suite", "oracle", "--seed", str(seed))
        assert code == 0
        assert text == ORACLE_REPORTS[seed]

    def test_suite_p_values_are_scipys(self, monkeypatch, fallbacks):
        # each test's p-value, scipy's, and whether ours called no scipy.stats
        tests = []

        def checked(ours, theirs):
            def test(*args):
                calls = len(fallbacks)
                p = ours(*args)
                ported = len(fallbacks) == calls
                tests.append((p, theirs(*args).pvalue, ported))
                return p

            return test

        monkeypatch.setattr(V, "_ks_1samp", checked(V._ks_1samp, stats.kstest))
        monkeypatch.setattr(V, "_ks_2samp", checked(V._ks_2samp, stats.ks_2samp))
        for seed in range(20):
            V.suite_oracle(seed)
        assert len(tests) == 60
        assert all(ours == theirs and ported for ours, theirs, ported in tests)

    # n d^2 per ported branch of kstwo.sf for d < 1/2, in scipy's order
    @pytest.mark.parametrize("nd2", [3000.0, 400.0, 371.0])
    @pytest.mark.parametrize("n", [50_000, 15_000.0])
    def test_tail_is_zero(self, n, nd2, fallbacks):
        d = math.sqrt(nd2 / n)
        assert V._kstwo_sf(d, n) == stats.kstwo.sf(d, n) == 0.0
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("d", [0.5, 0.75, 0.999])
    @pytest.mark.parametrize("n", [50_000, 15_000.0])
    def test_smirnov_from_one_half(self, n, d, fallbacks):
        assert V._kstwo_sf(d, n) == stats.kstwo.sf(d, n)
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("nd2", [300.0, 100.0, 10.0, 3.0, 2.2])
    @pytest.mark.parametrize("n", [50_000, 15_000.0])
    def test_smirnov_in_the_tail(self, n, nd2, fallbacks):
        d = math.sqrt(nd2 / n)
        p = V._kstwo_sf(d, n)
        assert 0.0 < p < 1.0
        assert p == stats.kstwo.sf(d, n)
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("nd2", [2.19, 1.0, 0.5, 0.2, 0.1])
    @pytest.mark.parametrize("n", [50_000, 15_000.0])
    def test_pelz_good(self, n, nd2, fallbacks):
        d = math.sqrt(nd2 / n)
        assert V._kstwo_sf(d, n) == stats.kstwo.sf(d, n)
        assert len(fallbacks) == 1

    def test_pelz_good_underflow(self, fallbacks):
        # z = sqrt(n) d below 0.0417: the series' q underflows and P(D_n > d) is 1
        n, d = 10**9, 1e-6
        assert V._kstwo_sf(d, n) == stats.kstwo.sf(d, n) == 1.0
        assert len(fallbacks) == 1

    # scipy's other branches, as the suite's n > 10,000 reach them
    @pytest.mark.parametrize("n, d", [
        (15_000.0, math.sqrt(0.03 / 15_000)),  # the Durbin matrix: n d^1.5 <= 1.4
        (15_000.0, 0.5 / 15_000),  # n d <= 1/2: the law's lower end
        (50_000, 0.25 / 50_000),
        (50_000, 1.0),  # n d >= n - 1
    ])
    def test_other_branches_are_scipys(self, n, d, fallbacks):
        assert V._kstwo_sf(d, n) == stats.kstwo.sf(d, n)
        assert fallbacks == [(d, n)]
