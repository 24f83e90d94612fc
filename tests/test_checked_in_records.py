"""The checked-in deterministic records regenerate byte-for-byte and
keep the claims they were recorded for.

Comparing a fresh run against ``results/`` pins the decisions
themselves: any change that moves a scheduling, pruning or transport
decision shows up as a diff here and must re-record the file on
purpose.  Because a fresh run equals the checked-in file, the claim
predicates below are asserted on the checked-in JSON.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: record file -> the exact CLI arguments it was made with.
RECORDS = {
    "BENCH_replay.json": ["bench", "replay", "--seed", "0"],
    "BENCH_chaos.json": ["bench", "chaos", "--seed", "0"],
    "BENCH_congestion.json": ["bench", "congestion", "--seed", "0"],
    "BENCH_qos.json": ["bench", "qos", "--seed", "0",
                       "--loss", "0.02", "--reorder", "1"],
    "table2.txt": ["run", "table2"],
}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_record_regenerates_identically(record, tmp_path, capsys):
    assert main(RECORDS[record] + ["--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    fresh = (tmp_path / record).read_bytes()
    assert fresh == (RESULTS / record).read_bytes(), (
        f"{record} differs from results/{record}")


def _replay_claims(replay):
    assert replay["benchmark"] == "trace_replay"
    assert replay["all_equivalent"] is True
    assert set(replay["processes"]) == {"poisson", "burst", "diurnal",
                                        "pareto"}
    # Tail latency + slot occupancy per arrival process, tick-based.
    for process in replay["processes"]:
        assert replay["p99_latency_ticks"][process] > 0, process
        assert replay["peak_occupancy"][process] >= 1, process
    for run in replay["runs"]:
        latency = run["latency"]
        assert (latency["p50_ticks"] <= latency["p95_ticks"]
                <= latency["p99_ticks"]), run["process"]
        assert run["occupancy"]["peak"] <= replay["slots"], run["process"]
        assert run["occupancy"]["mean"] is not None, run["process"]
        assert run["occupancy"]["timeline"], run["process"]


def _qos_claims(qos):
    assert qos["benchmark"] == "qos"
    # Result identity survives preemption, and preemption helps the
    # interactive tail.
    assert qos["all_equivalent"] is True
    p99 = qos["interactive_p99_ticks"]
    assert p99["tiers"] < p99["tiers-no-preempt"], p99
    assert qos["interactive_p99_improvement"] > 1.0
    assert qos["preemption_events"]["tiers"] > 0
    assert qos["preemption_events"]["tiers-no-preempt"] == 0


def _chaos_claims(chaos):
    assert chaos["benchmark"] == "chaos"
    # A shard was killed mid-query, its installed queries migrated to
    # survivors, a restart restored one, and every surviving tenant
    # still equals its solo QueryPlan.run.
    assert chaos["migrations"] >= 1
    assert chaos["all_equivalent"] is True
    assert "kill_shard" in {event["event"] for event in chaos["timeline"]}
    assert chaos["restored"] >= 1
    assert (chaos["baseline"]["served"] == chaos["chaos"]["served"]
            == chaos["tenants"])


def _congestion_claims(congestion):
    assert congestion["benchmark"] == "congestion"
    # Under finite ingress queues and loss >= 0.02, AIMD beats the
    # fixed schedule on goodput with fewer retransmissions, and never
    # changes a result.
    assert congestion["all_equivalent"] is True
    assert congestion["congested_goodput_ratio_min"] >= 1.0
    assert congestion["congested_retransmission_ratio_max"] < 1.0
    congested = [cell for cell in congestion["sweep"] if cell["congested"]]
    assert congested
    for cell in congested:
        assert cell["goodput_ratio"] >= 1.0, cell
    fairness = congestion["fairness"]
    rates = fairness["mean_rates"]
    assert rates["interactive"] > rates["standard"] > rates["batch"], rates
    assert fairness["normalized_spread"] < 2.0, fairness


def _fig11_claims(fig11):
    # The checked-in artifact is the 1M-row run; CI's tiny rerun only
    # checks determinism, the recorded speedup is the tracked perf
    # claim.
    assert fig11["rows"] >= 1_000_000, fig11["rows"]
    assert fig11["all_equivalent"] is True
    assert fig11["overall_speedup_at_largest"] >= 5.0, \
        fig11["overall_speedup_at_largest"]
    for series in fig11["decision_domain"].values():
        for point in series:
            assert point["equivalent"] is True, point
            assert len(point["decisions_sha256"]) == 64, point


#: record file -> the claims its payload must keep.
CLAIMS = {
    "BENCH_fig11.json": _fig11_claims,
    "BENCH_replay.json": _replay_claims,
    "BENCH_qos.json": _qos_claims,
    "BENCH_chaos.json": _chaos_claims,
    "BENCH_congestion.json": _congestion_claims,
}


@pytest.mark.parametrize("record", sorted(CLAIMS))
def test_record_keeps_its_claims(record):
    CLAIMS[record](json.loads((RESULTS / record).read_text()))
