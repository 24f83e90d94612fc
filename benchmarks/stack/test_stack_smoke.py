"""Smoke test of the ``stack`` benchmark at ~1/50 scale.

Each workload runs once in traced mode — an untraced and a traced
server session over the same queries, plus the kernel drive — which
yields every named metric.  The two sessions double as the
repeatability check: same seed, same queries, so their tick domains
must be identical (and tracing must not perturb them).
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402

SECONDS = catalog.RUN_SECONDS / 50
TICK_DOMAIN = ("ticks_p50", "ticks_p95", "tx_per_entry", "pruned_share")


@pytest.fixture(scope="module")
def results():
    # Rows are capped too: every session serves the 14 warm-up queries
    # and the kernel drive replays them six times.
    return {
        w.name: run.run_workload(
            dataclasses.replace(w, rows=min(w.rows, 60)), seed=0,
            seconds=SECONDS, trace=True)
        for w in catalog.WORKLOADS
    }


def test_benchmark_json_matches_catalog():
    with open(HERE.parents[1] / "BENCHMARK.json") as handle:
        assert json.load(handle) == catalog.benchmark_json()


@pytest.mark.parametrize("workload", [w.name for w in catalog.WORKLOADS])
def test_every_metric_present_and_finite(results, workload):
    result = results[workload]
    assert result["failed"] == 0 and result["attempted"] >= 14
    for kind, metrics in (("end_to_end", catalog.END_TO_END),
                          ("per_layer", catalog.PER_LAYER)):
        for metric in metrics:
            value = result[kind][metric.name]
            assert math.isfinite(value), metric.name
    for metric in catalog.END_TO_END:
        assert result["end_to_end"][metric.name] > 0, metric.name


@pytest.mark.parametrize("workload", ["bulk_solo", "trace_tiers_aimd"])
def test_tick_domain_repeats_exactly(results, workload):
    first = results[workload]["end_to_end"]
    second = results[workload]["end_to_end_traced"]
    for name in TICK_DOMAIN:
        assert first[name] == second[name], name


def test_ledger_partitions_server_cpu(results):
    # Every span's self time must be summed into exactly one ledger
    # entry; serving.server.self_s is the CPU no span covers.
    for workload, result in results.items():
        layers = result["per_layer"]
        accounted = sum(layers[metric] for metric in catalog.LEDGER)
        assert accounted == pytest.approx(
            layers["serving.server.cpu_s"], abs=1e-6), workload


def test_compare_flags_a_regression(tmp_path, results, capsys):
    base = {"workloads": {name: {"end_to_end": r["end_to_end"]}
                          for name, r in results.items()}}
    slow = json.loads(json.dumps(base))
    slow["workloads"]["bulk_solo"]["end_to_end"]["query_p50_ms"] *= 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))
    assert run.compare(str(a), str(a)) == 0
    assert run.compare(str(a), str(b)) == 1
    assert "bulk_solo          query_p50_ms" in capsys.readouterr().out
