"""Statistical validation of the probabilistic guarantees.

These tests treat the randomized algorithms as black boxes and measure
failure frequencies across many seeded runs, checking them against the
configured delta (with generous slack — they are sanity checks on the
theorem machinery, not precise estimators).
"""

import math
import random

import pytest

from repro.bench.runner import _T_975, ConfidenceInterval, repeat_with_ci
from repro.core.config import topn_width
from repro.core.distinct import DistinctPruner
from repro.core.topn import TopNRandomized


def t_central_mass(t: float, df: int) -> float:
    """P(|T| < t) for Student's t with integer ``df``, in closed form
    (Abramowitz & Stegun 26.7.3/26.7.4, with theta = atan(t / sqrt(df)))."""
    theta = math.atan(t / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    if df % 2:
        term = total = c if df > 1 else 0.0
        for k in range(3, df - 1, 2):
            term *= (k - 1) / k * c * c
            total += term
        return 2 / math.pi * (theta + s * total)
    term = total = 1.0
    for k in range(2, df - 1, 2):
        term *= (k - 1) / k * c * c
        total += term
    return s * total


def topn_run_fails(n, rows, width, stream_length, seed) -> bool:
    """One randomized TOP-N run; True if a top-n value was pruned."""
    rng = random.Random(seed)
    stream = [rng.random() for _ in range(stream_length)]
    pruner = TopNRandomized(n=n, rows=rows, width=width, seed=seed)
    kept = [v for v in stream if not pruner.offer(v)]
    return sorted(kept, reverse=True)[:n] != sorted(stream, reverse=True)[:n]


class TestTopNFailureRates:
    def test_theorem2_width_rarely_fails(self):
        """At the Theorem-2 width for delta=0.05, failures across 60 runs
        should be a small minority (expected ~3)."""
        n, rows, delta = 50, 256, 0.05
        width = topn_width(rows, n, delta)
        failures = sum(
            topn_run_fails(n, rows, width, 4000, seed)
            for seed in range(60)
        )
        # Binomial(60, 0.05): > 12 failures is a < 1e-4 event.
        assert failures <= 12

    def test_undersized_width_fails_often(self):
        """Well below the Theorem-2 width, the guarantee visibly breaks —
        the configuration math is load-bearing, not decorative."""
        n, rows = 50, 256
        width = 1
        failures = sum(
            topn_run_fails(n, rows, width, 4000, seed)
            for seed in range(30)
        )
        assert failures >= 15

    def test_more_width_fewer_failures(self):
        n, rows = 80, 64
        rates = []
        for width in (1, 3, 6):
            failures = sum(
                topn_run_fails(n, rows, width, 3000, seed)
                for seed in range(25)
            )
            rates.append(failures)
        assert rates[0] >= rates[1] >= rates[2]


class TestFingerprintFailureRates:
    def test_tiny_fingerprints_lose_keys_often(self):
        losses = 0
        for seed in range(20):
            pruner = DistinctPruner(rows=4, width=8, fingerprint_bits_=6,
                                    seed=seed)
            forwarded = pruner.filter_stream(list(range(500)))
            if len(set(forwarded)) < 500:
                losses += 1
        assert losses >= 15

    def test_theorem7_fingerprints_never_lose_here(self):
        from repro.sketches.fingerprint import fingerprint_length_distinct

        bits = min(64, fingerprint_length_distinct(500, 64, 1e-4))
        for seed in range(20):
            pruner = DistinctPruner(rows=64, width=8,
                                    fingerprint_bits_=bits, seed=seed)
            forwarded = pruner.filter_stream(list(range(500)))
            assert len(set(forwarded)) == 500


class TestConfidenceIntervals:
    def test_interval_contains_true_mean(self):
        """CI over seeded pruning rates should cover the long-run mean."""

        def metric(seed):
            rng = random.Random(seed)
            pruner = TopNRandomized(n=20, rows=64, width=4, seed=seed)
            for _ in range(3000):
                pruner.offer(rng.random())
            return pruner.stats.pruned_fraction

        interval = repeat_with_ci(metric, seeds=range(5))
        long_run = sum(metric(seed) for seed in range(40, 60)) / 20
        # A 95% interval from 5 runs is wide; allow a half-width of slack.
        assert abs(long_run - interval.mean) <= 3 * max(
            interval.half_width, 0.005
        )

    def test_interval_shrinks_with_more_runs(self):
        def metric(seed):
            return random.Random(seed).gauss(1.0, 0.1)

        five = repeat_with_ci(metric, seeds=range(5))
        twenty = repeat_with_ci(metric, seeds=range(20))
        assert twenty.half_width < five.half_width

    def test_membership(self):
        interval = ConfidenceInterval(mean=1.0, half_width=0.2, runs=5)
        assert 1.1 in interval
        assert 1.3 not in interval
        assert interval.low == pytest.approx(0.8)

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            repeat_with_ci(lambda s: 1.0, seeds=[0])

    def test_at_most_31_runs(self):
        assert repeat_with_ci(float, seeds=range(31)).runs == 31
        with pytest.raises(ValueError):
            repeat_with_ci(float, seeds=range(32))

    def test_pinned_critical_values(self):
        """The df 4 and df 19 values (5 and 20 runs, the callers' sizes)
        are scipy's ``stats.t.ppf(0.975, df)`` to the bit."""
        for runs, t_crit in ((5, 2.7764451051977934),
                             (20, 2.0930240544083087)):
            values = [float(i * i) for i in range(runs)]
            interval = repeat_with_ci(values.__getitem__, seeds=range(runs))
            mean = sum(values) / runs
            variance = sum((v - mean) ** 2 for v in values) / (runs - 1)
            assert interval.half_width == t_crit * (variance / runs) ** 0.5

    @pytest.mark.parametrize("df", range(1, len(_T_975) + 1))
    def test_critical_value_is_the_975_quantile(self, df):
        """Every pasted value leaves 95% of Student's t between -t and t,
        checked without scipy against the closed-form distribution."""
        assert t_central_mass(_T_975[df - 1], df) == pytest.approx(
            0.95, abs=1e-13)
