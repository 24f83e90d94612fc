"""Trace-replay workloads: format, generators, telemetry, determinism.

Covers the JSON-lines trace format (parser diagnostics carry
``source:line``, golden fixtures under ``tests/data/``), the three
deterministic arrival-process generators, and the replay path through
the scheduler: byte-identical reports for the same trace + seed, every
served tenant result-equivalent to its solo ``QueryPlan.run`` across
loss x shards, and the scheduler edge cases the PR 3 suite missed
(empty trace, single-tick bursts over the slot budget, late arrivals).
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import run_replay_bench
from repro.cluster.scheduler import (
    ScheduleReport,
    SchedulerConfig,
    SchedulerTelemetry,
    _percentile,
    replay_trace,
)
from repro.cluster.simulation import (
    SCENARIOS,
    ClusterSimulation,
    build_scenario,
)
from repro.workloads.traces import (
    ARRIVAL_PROCESSES,
    DEFAULT_MIX,
    Trace,
    TenantSpec,
    generate_trace,
    load_trace,
    parse_trace,
)

DATA = pathlib.Path(__file__).parent / "data"


def payload_bytes(report):
    """The deterministic serialization the byte-identity claims use."""
    return json.dumps(report.to_payload(), sort_keys=True).encode()


class TestParsing:
    def test_golden_trace_parses(self):
        trace = load_trace(str(DATA / "trace_golden.jsonl"))
        assert trace.process == "custom"
        assert trace.seed == 3
        assert trace.loss_rate == 0.02
        assert trace.shards == 2
        assert [q.tenant for q in trace.queries] == \
            ["alpha", "beta", "gamma", "delta"]
        assert [q.arrival_tick for q in trace.queries] == [0, 5, 5, 30]
        assert trace.queries[0] == TenantSpec(
            tenant="alpha", scenario="distinct", rows=60, seed=1,
            arrival_tick=0)
        assert trace.duration_ticks == 30

    def test_round_trip_is_identity(self):
        trace = load_trace(str(DATA / "trace_golden.jsonl"))
        assert parse_trace(trace.to_jsonl()) == trace

    def test_defaults_applied(self):
        trace = parse_trace(
            '{"kind": "cheetah-trace", "version": 1}\n'
            '{"scenario": "distinct"}\n'
        )
        query = trace.queries[0]
        assert query.tenant == "q0"
        assert (query.rows, query.seed, query.arrival_tick) == (240, 0, 0)
        assert trace.loss_rate is None and trace.shards is None

    def test_malformed_json_names_the_line(self):
        path = str(DATA / "trace_malformed_json.jsonl")
        with pytest.raises(ValueError,
                           match=r"trace_malformed_json\.jsonl:3: "
                                 r"malformed JSON"):
            load_trace(path)

    def test_unknown_scenario_names_the_line(self):
        path = str(DATA / "trace_unknown_scenario.jsonl")
        with pytest.raises(ValueError,
                           match=r"trace_unknown_scenario\.jsonl:3: "
                                 r"unknown scenario 'quantum_sort'"):
            load_trace(path)

    def test_out_of_order_arrivals_name_the_line(self):
        path = str(DATA / "trace_out_of_order.jsonl")
        with pytest.raises(ValueError,
                           match=r"trace_out_of_order\.jsonl:3: arrival "
                                 r"ticks must be non-decreasing"):
            load_trace(path)

    def test_unsupported_version_names_the_line(self):
        path = str(DATA / "trace_bad_header.jsonl")
        with pytest.raises(ValueError,
                           match=r"trace_bad_header\.jsonl:1: "
                                 r"unsupported trace version 7"):
            load_trace(path)

    def test_blank_lines_keep_line_numbers(self):
        text = ('{"kind": "cheetah-trace", "version": 1}\n'
                '\n'
                '{"scenario": "nope"}\n')
        with pytest.raises(ValueError, match=r"<trace>:3: unknown "
                                             r"scenario"):
            parse_trace(text)

    @pytest.mark.parametrize("text,match", [
        ("", r"<trace>:1: empty trace"),
        ('{"version": 1}', r"<trace>:1: first line must be the trace "
                           r"header"),
        ('[1, 2]', r"<trace>:1: every trace line must be a JSON object"),
        ('{"kind": "cheetah-trace", "version": 1, "surprise": true}',
         r"<trace>:1: unknown header field\(s\): surprise"),
        ('{"kind": "cheetah-trace", "version": 1, "loss_rate": 1.5}',
         r"<trace>:1: \"loss_rate\" must be a number in \[0, 1\)"),
        ('{"kind": "cheetah-trace", "version": 1, "process": "lunar"}',
         r"<trace>:1: unknown arrival process 'lunar'"),
        ('{"kind": "cheetah-trace", "version": 1}\n'
         '{"scenario": "distinct", "rows": 5}',
         r"<trace>:2: 'rows' must be >= 20"),
        ('{"kind": "cheetah-trace", "version": 1}\n'
         '{"scenario": "distinct", "arrival_tick": -1}',
         r"<trace>:2: 'arrival_tick' must be >= 0"),
        ('{"kind": "cheetah-trace", "version": 1}\n'
         '{"scenario": "distinct", "arrival_tick": "soon"}',
         r"<trace>:2: 'arrival_tick' must be an integer"),
        ('{"kind": "cheetah-trace", "version": 1}\n'
         '{"scenario": "distinct", "color": "red"}',
         r"<trace>:2: unknown query field\(s\): color"),
        ('{"kind": "cheetah-trace", "version": 1}\n'
         '{"scenario": "distinct", "tenant": "t"}\n'
         '{"scenario": "filter", "tenant": "t"}',
         r"<trace>:3: duplicate tenant name 't'"),
    ])
    def test_validation_diagnostics(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_trace(text)


class TestGenerators:
    def test_generation_is_deterministic(self):
        for process in ARRIVAL_PROCESSES:
            once = generate_trace(process, queries=10, rows=40, seed=5)
            again = generate_trace(process, queries=10, rows=40, seed=5)
            assert once.to_jsonl() == again.to_jsonl(), process

    def test_seeds_decorrelate(self):
        a = generate_trace("poisson", queries=12, rows=40, seed=0)
        b = generate_trace("poisson", queries=12, rows=40, seed=1)
        assert [q.arrival_tick for q in a.queries] != \
            [q.arrival_tick for q in b.queries]

    def test_arrivals_non_decreasing_and_parseable(self):
        for process in ARRIVAL_PROCESSES:
            trace = generate_trace(process, queries=15, rows=40, seed=2)
            arrivals = [q.arrival_tick for q in trace.queries]
            assert arrivals == sorted(arrivals), process
            assert parse_trace(trace.to_jsonl()) == trace

    def test_burst_structure(self):
        trace = generate_trace("burst", queries=10, rows=40, seed=0,
                               burst_size=4, burst_gap=100)
        arrivals = [q.arrival_tick for q in trace.queries]
        assert arrivals == [0] * 4 + [100] * 4 + [200] * 2

    def test_mix_cycles_through_scenarios(self):
        trace = generate_trace("poisson", queries=4, rows=40, seed=0,
                               mix=("distinct", "filter"))
        assert [q.scenario for q in trace.queries] == \
            ["distinct", "filter", "distinct", "filter"]

    def test_default_mix_scenarios_exist(self):
        assert set(DEFAULT_MIX) <= set(SCENARIOS)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(process="weekly", queries=2), "unknown arrival process"),
        (dict(process="poisson", queries=-1), "queries must be >= 0"),
        (dict(process="poisson", queries=2, seed=-1),
         "seed must be >= 0"),
        (dict(process="poisson", queries=2, rows=10), "rows must be"),
        (dict(process="poisson", queries=2, mix=()), "mix must not"),
        (dict(process="poisson", queries=2, interarrival=0),
         "interarrival"),
        (dict(process="burst", queries=2, burst_size=0), "burst_size"),
        (dict(process="diurnal", queries=2, amplitude=2.0), "amplitude"),
    ])
    def test_generator_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            generate_trace(**kwargs)


class TestReplay:
    def test_golden_trace_replays_with_header_overrides(self):
        trace = load_trace(str(DATA / "trace_golden.jsonl"))
        report = replay_trace(trace, SchedulerConfig(slots=2, seed=1))
        # Header pinned the network conditions.
        assert report.loss_rate == 0.02
        assert report.shards == 2
        assert len(report.served) == 4
        assert report.all_equivalent is True
        assert report.latency_p99_ticks >= report.latency_p50_ticks > 0

    def test_replay_is_byte_deterministic(self):
        trace = generate_trace("diurnal", queries=6, rows=60, seed=4)
        config = SchedulerConfig(slots=2, loss_rate=0.05,
                                 reorder_window=1, seed=3)
        assert payload_bytes(replay_trace(trace, config)) == \
            payload_bytes(replay_trace(trace, config))

    def test_empty_trace_replay_has_no_divisions_by_zero(self):
        report = replay_trace(Trace(queries=()),
                              SchedulerConfig(slots=3))
        assert report.ticks == 0
        assert report.tenants == []
        assert report.latency_p50_ticks is None
        assert report.latency_p95_ticks is None
        assert report.latency_p99_ticks is None
        assert report.throughput_entries_per_second is None
        assert report.throughput_entries_per_tick is None
        assert report.mean_occupancy is None
        assert report.peak_occupancy == 0
        assert report.rejection_timeline == []
        payload = report.to_payload()
        assert payload["latency"]["p99_ticks"] is None
        assert payload["occupancy"]["timeline"] == []

    def test_single_tick_burst_over_budget_queues(self):
        """burst_size > slots in one tick with queueing: everyone is
        eventually served, the queue visibly backs up, and waiting
        inflates the tail above the median."""
        trace = generate_trace("burst", queries=6, rows=60, seed=1,
                               burst_size=6, mix=("distinct", "filter"))
        assert len({q.arrival_tick for q in trace.queries}) == 1
        report = replay_trace(trace, SchedulerConfig(slots=2, seed=2))
        assert len(report.served) == 6
        assert report.all_equivalent is True
        assert report.peak_occupancy == 2
        assert report.telemetry.peak_queue_depth >= 1
        assert report.latency_p99_ticks > report.latency_p50_ticks

    def test_single_tick_burst_over_budget_rejects(self):
        """Same burst with queue_when_full=False: exactly ``slots``
        tenants are served, the rest land on the rejection timeline at
        the burst tick."""
        trace = generate_trace("burst", queries=6, rows=60, seed=1,
                               burst_size=6, mix=("distinct", "filter"))
        report = replay_trace(trace, SchedulerConfig(
            slots=2, queue_when_full=False, seed=2))
        assert len(report.served) == 2
        assert len(report.rejected) == 4
        assert report.all_equivalent is True
        timeline = report.rejection_timeline
        assert [e.tenant for e in timeline] == \
            [t.spec.tenant for t in report.rejected]
        burst_tick = trace.queries[0].arrival_tick
        assert all(e.tick == burst_tick for e in timeline)
        assert all("no free slot" in e.reason for e in timeline)
        # Samples correlate with the timeline tick-for-tick: the burst
        # tick's sample carries exactly the 4 rejections (and the 2
        # admissions) stamped with that tick.
        burst_sample = next(s for s in report.telemetry.samples
                            if s.tick == burst_tick)
        assert burst_sample.rejected == 4
        assert burst_sample.admitted == 2
        # The payload carries the same timeline.
        payload = report.to_payload()
        assert len(payload["rejections"]) == 4
        assert payload["served"] == 2

    def test_tenant_arriving_after_all_others_completed(self):
        """A straggler lands long after the rest finished: the loop
        idles forward, occupancy returns to 1, and its latency is pure
        service (no queueing)."""
        first = generate_trace("burst", queries=2, rows=60, seed=3,
                               burst_size=2, mix=("distinct", "filter"))
        straggler = TenantSpec(tenant="late", scenario="topn", rows=60,
                               seed=9, arrival_tick=50_000)
        trace = Trace(queries=first.queries + (straggler,))
        report = replay_trace(trace, SchedulerConfig(slots=2, seed=1))
        assert len(report.served) == 3
        assert report.all_equivalent is True
        late = report.tenants[-1]
        assert late.spec.tenant == "late"
        assert late.admitted_tick >= 50_000
        assert late.wait_ticks == 0
        assert late.latency_ticks == late.service_ticks
        # Telemetry: nothing sampled in the idle gap, and the straggler
        # runs alone (occupancy 1) at the end.
        tail = [s for s in report.telemetry.samples if s.tick >= 50_000]
        assert tail and all(s.occupancy <= 1 for s in tail)
        assert report.ticks >= 50_000

    def test_throughput_none_when_nothing_served(self):
        """All tenants rejected: throughput and percentiles are None,
        not a division by zero."""
        from repro.switch.resources import SMALL_SWITCH_MODEL

        trace = Trace(queries=(
            TenantSpec(tenant="big", scenario="skyline", rows=60),
        ))
        report = replay_trace(trace, SchedulerConfig(
            slots=1, switch=SMALL_SWITCH_MODEL))
        assert report.served == []
        assert len(report.rejected) == 1
        assert report.throughput_entries_per_second is None
        assert report.throughput_entries_per_tick is None
        assert report.latency_p99_ticks is None

    def test_telemetry_conservation(self):
        """Sampled admission/completion counters add up to the tenant
        outcomes, and occupancy never exceeds the slot budget."""
        trace = generate_trace("poisson", queries=8, rows=60, seed=6,
                               interarrival=10.0)
        config = SchedulerConfig(slots=3, loss_rate=0.02, seed=5)
        report = replay_trace(trace, config)
        samples = report.telemetry.samples
        assert sum(s.admitted for s in samples) == len(report.served)
        assert sum(s.completed for s in samples) == len(report.served)
        assert sum(s.rejected for s in samples) == len(report.rejected)
        assert all(0 <= s.occupancy <= config.slots for s in samples)
        assert all(s.queue_depth >= 0 for s in samples)
        ticks = [s.tick for s in samples]
        assert ticks == sorted(ticks)
        assert report.mean_occupancy <= config.slots

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert _percentile(values, 0.50) == 50
        assert _percentile(values, 0.95) == 95
        assert _percentile(values, 0.99) == 99
        assert _percentile([7], 0.99) == 7
        report = ScheduleReport(
            tenants=[], ticks=0, wall_seconds=0.0, slots=1, shards=1,
            loss_rate=0.0, reorder_window=0,
            telemetry=SchedulerTelemetry(slots=1))
        assert report.latency_percentile(0.5) is None


@settings(max_examples=6, deadline=None)
@given(
    process=st.sampled_from(ARRIVAL_PROCESSES),
    loss=st.sampled_from([0.0, 0.02, 0.05]),
    shards=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_property_replay_deterministic_and_solo_equivalent(
        process, loss, shards, seed):
    """The satellite property: same trace + same seed => byte-identical
    ScheduleReport payloads, and every served tenant is
    result-equivalent to its solo ``QueryPlan.run`` across loss 0-0.05
    x shards 1-4."""
    trace = generate_trace(process, queries=4, rows=50,
                           seed=seed % 997, interarrival=15.0,
                           mix=("distinct", "topn", "groupby_sum",
                                "having_sum"))
    config = SchedulerConfig(slots=2, loss_rate=loss, reorder_window=1,
                             shards=shards, seed=seed % 89)
    report = replay_trace(trace, config)
    assert payload_bytes(report) == \
        payload_bytes(replay_trace(trace, config))
    assert report.all_equivalent is True, [
        (t.spec.scenario, t.status, t.reason) for t in report.tenants
    ]
    for index, tenant in enumerate(report.tenants):
        sim = ClusterSimulation(config.tenant_simulation_config(index))
        query, tables = build_scenario(tenant.spec.scenario,
                                       rows=tenant.spec.rows,
                                       seed=tenant.spec.seed)
        solo = sim.run(query, tables)
        assert solo.equivalent
        assert tenant.result == solo.result, tenant.spec.scenario


class TestReplayCliAndBench:
    def test_cli_replay_generated(self, capsys):
        from repro.cli import main

        code = main(["replay", "--gen", "poisson", "--queries", "4",
                     "--rows", "60", "--slots", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("IDENTICAL to QueryPlan.run") == 4
        assert "latency" in out and "p99=" in out
        assert "occupancy" in out

    def test_cli_replay_trace_file_honors_overrides(self, capsys):
        from repro.cli import main

        code = main(["replay", str(DATA / "trace_golden.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "loss=0.02 shards=2" in out
        assert out.count("IDENTICAL to QueryPlan.run") == 4

    def test_cli_replay_flag_beats_trace_header(self, capsys):
        from repro.cli import main

        code = main(["replay", "--trace",
                     str(DATA / "trace_golden.jsonl"), "--loss", "0.0",
                     "--shards", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loss=0.0 shards=1" in out

    def test_cli_replay_needs_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["replay"]) == 2
        assert "need a trace file or --gen" in capsys.readouterr().err
        assert main(["replay", str(DATA / "trace_golden.jsonl"),
                     "--gen", "burst"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_cli_replay_reports_parse_errors(self, capsys):
        from repro.cli import main

        code = main(["replay",
                     str(DATA / "trace_malformed_json.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert "trace_malformed_json.jsonl:3" in err

    def test_cli_replay_rejects_unknown_mix(self, capsys):
        from repro.cli import main

        code = main(["replay", "--gen", "burst", "--mix", "nonsense"])
        assert code == 2
        assert "unknown scenarios" in capsys.readouterr().err

    def test_cli_replay_saves_generated_trace(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "trace.jsonl"
        code = main(["replay", "--gen", "burst", "--queries", "3",
                     "--rows", "60", "--seed", "2", "--out",
                     str(out_path)])
        assert code == 0
        saved = load_trace(str(out_path))
        assert saved == generate_trace("burst", queries=3, rows=60,
                                       seed=2)

    def test_bench_payload_shape_and_determinism(self):
        payload = run_replay_bench(queries=4, rows=60, slots=2,
                                   loss_rate=0.02, seed=1)
        assert payload["benchmark"] == "trace_replay"
        assert payload["processes"] == list(ARRIVAL_PROCESSES)
        assert payload["all_equivalent"] is True
        for process in ARRIVAL_PROCESSES:
            assert payload["p99_latency_ticks"][process] > 0
            assert payload["peak_occupancy"][process] >= 1
        for run in payload["runs"]:
            assert run["served"] + run["rejected"] == 4
            assert run["latency"]["p50_ticks"] <= \
                run["latency"]["p99_ticks"]
            assert run["occupancy"]["peak"] <= payload["slots"]
            assert run["occupancy"]["timeline"], run["process"]
        again = run_replay_bench(queries=4, rows=60, slots=2,
                                 loss_rate=0.02, seed=1)
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_cli_bench_replay(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["bench", "replay", "--queries", "4", "--rows",
                     "60", "--loss", "0.02", "--seed", "1",
                     "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p99=" in out
        saved = json.loads(
            (tmp_path / "BENCH_replay.json").read_text())
        assert saved["benchmark"] == "trace_replay"
        assert set(saved["p99_latency_ticks"]) == set(ARRIVAL_PROCESSES)
