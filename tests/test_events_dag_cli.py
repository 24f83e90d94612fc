"""Tests for the master-queue event simulator and the CLI."""

import pytest

from repro.cluster.costmodel import CostModel
from repro.cluster.events import (
    blocking_vs_unpruned,
    simulate_master_queue,
    simulate_master_queue_events,
)
from repro.core.distinct import DistinctPruner
from repro.core.topn import TopNDeterministic


class TestMasterQueueSimulation:
    def test_underload_no_blocking(self):
        report = simulate_master_queue(1000, arrival_rate=100.0,
                                       service_rate=1000.0)
        assert report.blocking_seconds < 0.02
        assert report.served == 1000

    def test_overload_blocks(self):
        report = simulate_master_queue(1000, arrival_rate=1000.0,
                                       service_rate=100.0)
        assert report.blocking_seconds > 1.0
        assert report.max_queue_depth > 100

    def test_matches_fluid_model(self):
        """The D/D/1 simulation agrees with the cost model's closed form
        within a few percent — validating the Figure 9 analytics."""
        model = CostModel()
        total = 1_000_000
        stream = 2.0
        rate = model.master_service_rate("groupby")
        for fraction in (0.1, 0.3, 0.5):
            forwarded = round(total * fraction)
            sim = simulate_master_queue(forwarded, forwarded / stream, rate)
            fluid = model.master_blocking_seconds("groupby", total,
                                                  forwarded, stream)
            assert sim.blocking_seconds == pytest.approx(fluid, abs=0.05)

    def test_event_variant_agrees_with_paced(self):
        paced = simulate_master_queue(500, 250.0, 100.0)
        times = [i / 250.0 for i in range(500)]
        events = simulate_master_queue_events(times, 100.0)
        assert events.completion_seconds == pytest.approx(
            paced.completion_seconds, rel=0.01
        )

    def test_bursty_arrivals_block_more(self):
        spread = simulate_master_queue_events(
            [i / 100.0 for i in range(200)], 150.0)
        burst = simulate_master_queue_events([0.0] * 200, 150.0)
        assert burst.max_queue_depth > spread.max_queue_depth

    def test_blocking_vs_unpruned_superlinear(self):
        series = blocking_vs_unpruned(1_000_000, 2.0, 1e5,
                                      (0.05, 0.2, 0.4))
        blockings = [b for _, b in series]
        assert blockings == sorted(blockings)
        assert blockings[0] < 0.05

    def test_zero_and_invalid(self):
        assert simulate_master_queue(0, 1.0, 1.0).served == 0
        with pytest.raises(ValueError):
            simulate_master_queue(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            simulate_master_queue_events([1.0], 0.0)


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10a" in out and "table2" in out

    def test_run_cheap_experiment(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["run", "table3", "--results-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table3.txt").exists()
        assert "tofino2" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        from repro.cli import main

        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_sql_demo(self, capsys):
        from repro.cli import main

        code = main(["sql", "SELECT DISTINCT seller FROM Products",
                     "--demo-tables"])
        assert code == 0
        assert "matches direct execution: True" in capsys.readouterr().out
