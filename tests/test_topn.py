"""Tests for TOP-N pruners (Examples #3 and #7) and their configuration."""

import json
import math
import pathlib
import random

import pytest

from repro.core.analysis import topn_expected_unpruned
from repro.core.base import Guarantee
from repro.core.config import (
    InfeasibleConfiguration,
    _lambert_w,
    feasible_topn_config,
    optimal_topn_rows,
    topn_width,
)
from repro.core.topn import TopNDeterministic, TopNRandomized

DATA = pathlib.Path(__file__).parent / "data"


def topn_of(stream, n):
    return sorted(stream, reverse=True)[:n]


class TestDeterministic:
    def test_soundness_always(self):
        """The deterministic variant never loses a top-N value."""
        for seed in range(5):
            rng = random.Random(seed)
            stream = [rng.randrange(1, 1 << 16) for _ in range(4000)]
            pruner = TopNDeterministic(n=25, thresholds=6)
            kept = [v for v in stream if not pruner.offer(v)]
            assert topn_of(kept, 25) == topn_of(stream, 25)

    def test_warmup_forwards_everything(self):
        pruner = TopNDeterministic(n=100, thresholds=4)
        for v in range(100):
            assert pruner.offer(v) is False

    def test_prunes_below_t0_after_warmup(self):
        pruner = TopNDeterministic(n=3, thresholds=2)
        for v in (10, 20, 30):   # warmup; t0 = 10
            pruner.offer(v)
        for v in (50, 60, 70):   # three values >= t0 counted
            pruner.offer(v)
        assert pruner.offer(5) is True    # below t0, counter full

    def test_threshold_doubling_extends_pruning(self):
        """Power-of-two thresholds can prune above t0 once N larger
        values are seen (the 'first N much smaller' case)."""
        pruner = TopNDeterministic(n=2, thresholds=4)
        pruner.offer(4)
        pruner.offer(4)          # t0 = 4; thresholds 4, 8, 16, 32
        for _ in range(2):
            pruner.offer(100)    # counters for 8/16/32 all reach 2
        assert pruner.offer(20) is True   # 20 < 32 and counter(32) = 2

    def test_monotone_increasing_stream_never_prunes(self):
        """Worst case from §5: increasing streams defeat pruning but
        correctness holds."""
        pruner = TopNDeterministic(n=10, thresholds=4)
        stream = list(range(1, 1000))
        kept = [v for v in stream if not pruner.offer(v)]
        assert topn_of(kept, 10) == topn_of(stream, 10)

    def test_resources_table2(self):
        usage = TopNDeterministic(n=250, thresholds=4).resources()
        assert usage.stages == 5
        assert usage.alus == 5
        assert usage.sram_bits == 5 * 64

    def test_guarantee(self):
        assert TopNDeterministic().guarantee is Guarantee.DETERMINISTIC

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TopNDeterministic(n=0)
        with pytest.raises(ValueError):
            TopNDeterministic(n=1, thresholds=0)

    def test_reset(self):
        pruner = TopNDeterministic(n=2, thresholds=2)
        for v in (5, 5, 9, 9, 9):
            pruner.offer(v)
        pruner.reset()
        assert pruner.offer(1) is False   # back in warmup


class TestRandomized:
    def test_success_with_theorem2_configuration(self):
        """Configured by Theorem 2, the top-N survives (delta=1e-4, so a
        failure here is a one-in-ten-thousand event per run)."""
        pruner = TopNRandomized.configured(n=100, delta=1e-4, seed=7)
        rng = random.Random(7)
        stream = [rng.random() for _ in range(50_000)]
        kept = [v for v in stream if not pruner.offer(v)]
        assert topn_of(kept, 100) == topn_of(stream, 100)

    def test_pruning_beats_deterministic(self):
        rng = random.Random(8)
        stream = [rng.randrange(1, 1 << 20) for _ in range(30_000)]
        det = TopNDeterministic(n=250, thresholds=4)
        rand = TopNRandomized(n=250, rows=512, width=4, seed=8)
        for v in stream:
            det.offer(v)
            rand.offer(v)
        assert (rand.stats.pruned_fraction
                > det.stats.pruned_fraction)

    def test_theorem3_bound(self):
        """Unpruned count is close to w*d*ln(me/wd) in expectation."""
        d, w, m = 128, 4, 40_000
        rng = random.Random(9)
        stream = [rng.random() for _ in range(m)]
        pruner = TopNRandomized(n=10, rows=d, width=w, seed=9)
        forwarded = sum(1 for v in stream if not pruner.offer(v))
        bound = topn_expected_unpruned(m, d, w)
        assert forwarded <= bound * 1.3

    def test_failure_probability_bound(self):
        pruner = TopNRandomized(n=250, rows=4096, width=4)
        assert 0.0 <= pruner.failure_probability_bound() <= 1.0
        wide = TopNRandomized(n=250, rows=4096, width=12)
        assert (wide.failure_probability_bound()
                <= pruner.failure_probability_bound())

    def test_resources(self):
        usage = TopNRandomized(n=250, rows=4096, width=4).resources()
        assert usage.stages == 4
        assert usage.sram_bits == 4096 * 4 * 64

    def test_guarantee(self):
        assert TopNRandomized().guarantee is Guarantee.PROBABILISTIC

    def test_reset(self):
        pruner = TopNRandomized(n=5, rows=4, width=2)
        for v in range(100):
            pruner.offer(v)
        pruner.reset()
        assert pruner.stats.offered == 0


class TestConfiguration:
    """The §5 / Appendix E worked examples, verbatim."""

    def test_paper_w_examples(self):
        assert topn_width(600, 1000, 1e-4) == 16
        assert topn_width(8000, 1000, 1e-4) == 5
        assert topn_width(200, 1000, 1e-4) in (288, 289, 290)

    def test_paper_lambert_optimum(self):
        d = optimal_topn_rows(1000, 1e-4)
        assert abs(d - 481) <= 2
        assert abs(topn_width(d, 1000, 1e-4) - 19) <= 1

    def test_width_monotone_decreasing_in_d(self):
        widths = [topn_width(d, 1000, 1e-4) for d in (600, 2000, 8000)]
        assert widths == sorted(widths, reverse=True)

    def test_feasible_config_unconstrained(self):
        config = feasible_topn_config(1000, 1e-4)
        assert abs(config.rows - 481) <= 2
        assert config.memory_words == config.rows * config.width

    def test_feasible_config_row_cap(self):
        config = feasible_topn_config(1000, 1e-4, max_rows=600)
        assert config.rows <= 600

    def test_feasible_config_width_cap_grows_rows(self):
        config = feasible_topn_config(1000, 1e-4, max_width=6)
        assert config.width <= 6
        assert config.rows > 481

    def test_infeasible_combination(self):
        with pytest.raises(InfeasibleConfiguration):
            feasible_topn_config(1000, 1e-4, max_rows=300, max_width=4)

    def test_too_few_rows_infeasible(self):
        with pytest.raises(InfeasibleConfiguration):
            topn_width(50, 1000, 1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            topn_width(0, 10, 0.1)
        with pytest.raises(ValueError):
            optimal_topn_rows(10, 2.0)

    def test_optimal_rows_match_golden_grid(self):
        """``d`` equals what ``scipy.special.lambertw`` gave on a grid of
        n in 1..10^7 and delta in 0.999..1e-10."""
        golden = json.loads((DATA / "topn_rows_golden.json").read_text())
        mismatches = [(n, delta, d) for n, delta, d in golden["points"]
                      if optimal_topn_rows(n, delta) != d]
        assert len(golden["points"]) > 1800
        assert mismatches == []

    def test_lambert_w_solves_its_equation(self):
        for n in (1, 7, 1000, 10**7):
            for delta in (0.999, 1e-4, 1e-10):
                x = n * math.e**2 / delta
                w = _lambert_w(x)
                assert w * math.exp(w) == pytest.approx(x, rel=1e-12)
