import statistics

import pytest

from perfbench.stats import TooFewSamples, min_samples, percentile, samples_beyond, spread


class TestTenBeyondRule:
    @pytest.mark.parametrize("q, n", [(0.5, 20), (0.9, 100), (0.99, 1000)])
    def test_smallest_allowed_count(self, q, n):
        assert min_samples(q) == n
        assert samples_beyond(n, q) == 10
        percentile(list(range(n)), q)
        with pytest.raises(TooFewSamples, match="at least 10"):
            percentile(list(range(n - 1)), q)

    def test_optimize_pass_count_reaches_p90(self):
        # 22 sessions a pass: five passes are the first to allow a p90.
        assert samples_beyond(22 * 4, 0.9) < 10 <= samples_beyond(22 * 5, 0.9)

    def test_nearest_rank_returns_an_observed_sample(self):
        samples = [float(x) for x in range(1, 101)]
        assert percentile(samples, 0.5) == 50.0
        assert percentile(samples, 0.9) == 90.0
        assert percentile(list(reversed(samples)), 0.9) == 90.0

    def test_refusal_names_the_sample_count(self):
        with pytest.raises(TooFewSamples, match="of 999 samples has 9 beyond"):
            percentile([1.0] * 999, 0.99)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5])
    def test_quantile_outside_open_interval_is_rejected(self, q):
        with pytest.raises(ValueError):
            percentile([1.0] * 1000, q)


class TestSpread:
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, median, q3 = statistics.quantiles(values, n=4)
        row = spread(values)
        assert (row["q1"], row["median"], row["q3"]) == (q1, median, q3)
        assert row["spread"] == pytest.approx((q3 - q1) / median)
        assert (row["min"], row["max"]) == (9.5, 11.0)

    def test_identical_runs_have_no_spread(self):
        assert spread([3.0] * 10)["spread"] == 0.0
