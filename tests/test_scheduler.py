"""Multi-tenant serving: QueryScheduler vs. solo execution.

The acceptance property of the serving layer: N concurrent tenants
interleaved through shared switches each produce results *identical* to
their solo ``ClusterSimulation`` run (which itself equals
``QueryPlan.run``), across loss rates and shard counts — plus the
admission edge cases: tenants arriving mid-run, slot-budget queueing and
rejection, and switch-resource rejection.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import run_concurrency_bench
from repro.cluster.scheduler import (
    QueryScheduler,
    SchedulerConfig,
    TenantSpec,
    tenant_specs,
)
from repro.cluster.simulation import (
    TRANSPORT_FIELDS,
    ClusterSimulation,
    SimulationConfig,
    build_scenario,
)
from repro.core.multiquery import QueryPack
from repro.switch.resources import ResourceExhausted, SMALL_SWITCH_MODEL


def serve(specs, **overrides):
    config = SchedulerConfig(**overrides)
    return QueryScheduler(config).serve(specs)


class TestConcurrentEquivalence:
    def test_four_tenants_shared_switch_lossy(self):
        """N>=4 mixed tenants on one shared switch under loss: every
        result identical to the solo path (the tentpole property)."""
        specs = tenant_specs(4, rows=160, seed=3)
        report = serve(specs, slots=4, loss_rate=0.05, reorder_window=2,
                       shards=2, seed=1)
        assert len(report.served) == 4
        assert report.all_equivalent is True

    def test_shared_results_match_solo_cluster_simulation(self):
        """Interleaved execution is byte-identical to running each
        tenant alone under the same per-tenant config."""
        specs = tenant_specs(5, rows=140, seed=9)
        config = SchedulerConfig(slots=5, loss_rate=0.08,
                                 reorder_window=1, shards=3, seed=4)
        report = QueryScheduler(config).serve(specs)
        assert report.all_equivalent is True
        for index, (spec, tenant) in enumerate(zip(specs,
                                                   report.tenants)):
            sim = ClusterSimulation(config.tenant_simulation_config(index))
            query, tables = build_scenario(spec.scenario, rows=spec.rows,
                                           seed=spec.seed)
            solo = sim.run(query, tables)
            assert tenant.result == solo.result, spec.scenario

    def test_compound_tenant_among_concurrent(self):
        """A compound (tpch_q3) tenant's sequential install/uninstall
        cycles coexist with other tenants in the shared pack."""
        specs = [
            TenantSpec("q3", "tpch_q3", rows=150, seed=1),
            TenantSpec("d", "distinct", rows=120, seed=2),
            TenantSpec("j", "join", rows=100, seed=3),
            TenantSpec("h", "having_sum", rows=120, seed=4),
        ]
        report = serve(specs, slots=4, loss_rate=0.04, shards=2, seed=5)
        assert report.all_equivalent is True
        q3 = report.tenants[0]
        assert len(q3.passes) == 8  # two joins x (2 build + 2 prune)


class TestAdmission:
    def test_tenant_arriving_mid_run(self):
        """A tenant that shows up while others are being served is
        admitted at (not before) its arrival tick and still matches."""
        specs = [
            TenantSpec("early", "distinct", rows=160, seed=1),
            TenantSpec("late", "filter", rows=120, seed=2,
                       arrival_tick=40),
        ]
        report = serve(specs, slots=2, loss_rate=0.05, seed=6)
        early, late = report.tenants
        assert early.admitted_tick == 0
        assert late.admitted_tick >= 40
        assert late.admitted_tick < early.completed_tick, \
            "the late tenant should overlap the early one"
        assert report.all_equivalent is True

    def test_arrival_after_everyone_finished(self):
        """An arrival far in the future idles the loop forward instead
        of spinning through empty ticks."""
        specs = [
            TenantSpec("a", "distinct", rows=120, seed=1),
            TenantSpec("b", "filter", rows=120, seed=2,
                       arrival_tick=100_000),
        ]
        report = serve(specs, slots=1, loss_rate=0.0, seed=7)
        assert report.all_equivalent is True
        assert report.tenants[1].admitted_tick >= 100_000

    def test_slot_contention_queues_fifo(self):
        """slots=1 serializes: each tenant is admitted only after the
        previous one completes, and all still match solo results."""
        specs = tenant_specs(3, rows=120, seed=5)
        report = serve(specs, slots=1, loss_rate=0.02, seed=2)
        assert len(report.served) == 3
        assert report.all_equivalent is True
        for previous, tenant in zip(report.tenants, report.tenants[1:]):
            assert tenant.admitted_tick >= previous.completed_tick

    def test_rejection_when_tenants_exceed_slot_budget(self):
        """queue_when_full=False: tenants beyond the slot budget are
        turned away at arrival with an explanatory reason."""
        specs = tenant_specs(3, rows=120, seed=5)
        report = serve(specs, slots=1, queue_when_full=False,
                       loss_rate=0.0, seed=2)
        assert [t.status for t in report.tenants] == \
            ["served", "rejected", "rejected"]
        for tenant in report.rejected:
            assert "no free slot" in tenant.reason
        assert report.all_equivalent is True  # over the served tenant

    def test_rejection_on_switch_resource_exhaustion(self):
        """A tenant whose compiled query cannot fit the shared switch at
        all is rejected with the compiler/packer's reason."""
        specs = [
            TenantSpec("fits", "distinct", rows=120, seed=1),
            TenantSpec("too-big", "skyline", rows=120, seed=2),
        ]
        report = serve(specs, slots=2, switch=SMALL_SWITCH_MODEL, seed=3)
        fits, too_big = report.tenants
        assert fits.status == "served" and fits.equivalent
        assert too_big.status == "rejected"
        assert "does not fit switch" in too_big.reason

    def test_pack_slot_budget_is_enforced_in_data_plane(self):
        """The QueryPack itself rejects installs beyond max_slots — the
        scheduler's budget is enforced at the data plane too."""
        from repro.core.filtering import FilterPruner
        from repro.core.expr import Col

        pack = QueryPack(max_slots=1)
        pack.add(1, "filter", FilterPruner(Col("v") > 1))
        assert pack.free_slots() == 0
        with pytest.raises(ResourceExhausted, match="no free query slot"):
            pack.add(2, "filter", FilterPruner(Col("v") > 2))
        pack.remove(1)
        assert pack.free_slots() == 1
        pack.add(2, "filter", FilterPruner(Col("v") > 2))


class TestFairnessAndAccounting:
    def test_service_order_rotates(self):
        """All concurrently admitted tenants make progress in the same
        global window (no tenant is starved until others finish)."""
        specs = tenant_specs(4, rows=200, seed=11,
                             mix=("distinct", "filter", "topn",
                                  "groupby_max"))
        report = serve(specs, slots=4, loss_rate=0.05, seed=8)
        served = report.served
        assert len(served) == 4
        # Every tenant overlapped every other: all admitted at tick 0,
        # none completed before the slowest had a chance to start.
        assert all(t.admitted_tick == 0 for t in served)
        makespan = max(t.completed_tick for t in served)
        assert all(t.service_ticks <= makespan for t in served)
        # Aggregate accounting adds up.
        assert report.entries == sum(t.entries for t in served)
        assert report.delivered == sum(t.delivered for t in served)

    def test_unique_tenant_names_required(self):
        specs = [TenantSpec("same", "distinct"),
                 TenantSpec("same", "filter")]
        with pytest.raises(ValueError, match="unique"):
            serve(specs)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="slots"):
            SchedulerConfig(slots=0)
        with pytest.raises(ValueError, match="loss_rate"):
            SchedulerConfig(loss_rate=1.0)
        with pytest.raises(ValueError, match="arrival_tick"):
            TenantSpec("t", "distinct", arrival_tick=-1)


#: Transport field -> (a valid non-default value, an invalid value or
#: None when every value is valid: any int seeds the channel RNG).
TRANSPORT_VALUES = {
    "workers": (3, 0),
    "loss_rate": (0.1, 1.0),
    "reorder_window": (2, -1),
    "shards": (3, 0),
    "seed": (7, None),
    "congestion": ("aimd", "tcp"),
    "queue_capacity": (5, 0),
}


class TestTenantSimulationConfig:
    """``SchedulerConfig`` and ``SimulationConfig`` share one transport
    declaration; a tenant's config is derived from it, not copied."""

    def test_each_transport_knob_is_declared_once(self):
        assert set(TRANSPORT_FIELDS) == set(TRANSPORT_VALUES)
        sim = [f.name for f in dataclasses.fields(SimulationConfig)]
        sched = [f.name for f in dataclasses.fields(SchedulerConfig)]
        assert sim == [*TRANSPORT_FIELDS, "pipelined", "fid_base",
                       "rate_weight"]
        assert sched == [*TRANSPORT_FIELDS, "slots", "queue_when_full",
                         "policy", "switch", "obs"]

    @pytest.mark.parametrize("field", sorted(TRANSPORT_VALUES))
    def test_tenant_config_carries_the_knob(self, field):
        value, _ = TRANSPORT_VALUES[field]
        config = SchedulerConfig(**{field: value})
        tenant = config.tenant_simulation_config(2, rate_weight=3.0)
        expected = value + 2 * 1009 if field == "seed" else value
        assert getattr(tenant, field) == expected
        assert tenant.fid_base == 2 * (config.workers + config.shards)
        assert tenant.rate_weight == 3.0
        assert tenant.pipelined is True

    @pytest.mark.parametrize("field", sorted(
        name for name, (_, bad) in TRANSPORT_VALUES.items()
        if bad is not None))
    def test_bad_knob_is_rejected_with_the_simulation_message(self, field):
        bad = TRANSPORT_VALUES[field][1]
        with pytest.raises(ValueError) as sim_error:
            SimulationConfig(**{field: bad})
        with pytest.raises(ValueError) as sched_error:
            SchedulerConfig(**{field: bad})
        assert str(sched_error.value) == str(sim_error.value)
        assert field in str(sim_error.value)


class TestTelemetryAndEdgeCases:
    """Scheduler hardening: the per-tick telemetry probe plus the edge
    cases the PR 3 suite missed (trace-level cases such as the empty
    trace live in tests/test_traces.py)."""

    def test_serve_collects_telemetry(self):
        specs = tenant_specs(4, rows=120, seed=3)
        report = serve(specs, slots=2, loss_rate=0.02, seed=1)
        telemetry = report.telemetry
        assert telemetry is not None and telemetry.slots == 2
        assert telemetry.samples, "no probe samples collected"
        assert report.peak_occupancy == 2  # 4 tenants contend for 2 slots
        assert telemetry.peak_queue_depth >= 1
        assert 0 < report.mean_occupancy <= 2
        assert sum(s.completed for s in telemetry.samples) == 4
        # Occupancy timeline buckets are bounded and ordered.
        timeline = telemetry.occupancy_timeline(buckets=10)
        assert 0 < len(timeline) <= 10
        assert [b["until_tick"] for b in timeline] == \
            sorted(b["until_tick"] for b in timeline)
        assert all(b["max_occupancy"] <= 2 for b in timeline)

    def test_latency_includes_queueing_delay(self):
        """A queued tenant's arrival->completion latency exceeds its
        admission->completion service time by exactly its wait."""
        specs = tenant_specs(3, rows=120, seed=5)
        report = serve(specs, slots=1, loss_rate=0.0, seed=2)
        for tenant in report.served:
            assert tenant.latency_ticks == \
                tenant.wait_ticks + tenant.service_ticks
        queued = [t for t in report.served if t.wait_ticks > 0]
        assert queued, "slots=1 with 3 tenants must queue someone"

    def test_single_tick_burst_exceeding_slots_queues_all(self):
        """All tenants arrive in one tick, more than max_slots: with
        queueing they are all served and all still match solo runs."""
        specs = tenant_specs(5, rows=100, seed=7)  # all arrival_tick=0
        report = serve(specs, slots=2, loss_rate=0.0, seed=4)
        assert len(report.served) == 5
        assert report.all_equivalent is True
        assert report.peak_occupancy == 2
        assert report.telemetry.peak_queue_depth == 3

    def test_single_tick_burst_exceeding_slots_rejects_overflow(self):
        """Same burst with reject_when_full: overflow is rejected at
        tick 0 and lands on the rejection timeline."""
        specs = tenant_specs(5, rows=100, seed=7)
        report = serve(specs, slots=2, queue_when_full=False,
                       loss_rate=0.0, seed=4)
        assert len(report.served) == 2
        assert len(report.rejected) == 3
        assert len(report.rejection_timeline) == 3
        assert all(e.tick == 0 for e in report.rejection_timeline)

    def test_throughput_is_none_when_nothing_served(self):
        """The division-by-zero fix: zero ticks / all rejected => None,
        never ZeroDivisionError."""
        from repro.cluster.scheduler import (
            ScheduleReport,
            SchedulerTelemetry,
        )

        empty = ScheduleReport(tenants=[], ticks=0, wall_seconds=0.0,
                               slots=2, shards=1, loss_rate=0.0,
                               reorder_window=0,
                               telemetry=SchedulerTelemetry(slots=2))
        assert empty.throughput_entries_per_second is None
        assert empty.throughput_entries_per_tick is None
        assert empty.latency_p50_ticks is None
        assert empty.mean_occupancy is None
        # All-rejected serve: wall_seconds > 0 but nothing served.
        specs = [TenantSpec("big", "skyline", rows=100, seed=2)]
        report = serve(specs, slots=1, switch=SMALL_SWITCH_MODEL, seed=3)
        assert report.served == []
        assert report.throughput_entries_per_second is None
        assert report.throughput_entries_per_tick is None


@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(
    loss=st.sampled_from([0.0, 0.02, 0.05]),
    shards=st.sampled_from([1, 2, 4]),
    rows=st.integers(min_value=40, max_value=90),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_property_interleaved_equals_solo(loss, shards, rows, seed):
    """N=4 concurrent tenants on shared switches, loss 0-0.05, shards
    1-4: every tenant's result equals its solo ClusterSimulation run
    (which is itself checked against QueryPlan.run)."""
    mix = ("distinct", "topn", "groupby_sum", "having_sum")
    specs = tenant_specs(4, rows=rows, seed=seed % 997, mix=mix)
    config = SchedulerConfig(slots=4, loss_rate=loss, reorder_window=2,
                             shards=shards, seed=seed % 89)
    report = QueryScheduler(config).serve(specs)
    assert report.all_equivalent is True, [
        (t.spec.scenario, t.status) for t in report.tenants
    ]
    for index, (spec, tenant) in enumerate(zip(specs, report.tenants)):
        sim = ClusterSimulation(config.tenant_simulation_config(index))
        query, tables = build_scenario(spec.scenario, rows=spec.rows,
                                       seed=spec.seed)
        solo = sim.run(query, tables)
        assert solo.equivalent
        assert tenant.result == solo.result, spec.scenario


class TestConcurrencyBenchAndCli:
    def test_bench_payload_shape_and_scaling(self):
        payload = run_concurrency_bench(max_tenants=4, rows=100,
                                        loss_rate=0.05,
                                        reorder_window=1, seed=1)
        assert payload["benchmark"] == "concurrency"
        assert payload["tenant_counts"] == [1, 2, 4]
        assert payload["all_equivalent"] is True
        assert len(payload["solo"]) == 4
        for run in payload["runs"]:
            assert run["served"] == run["tenants"]
            assert run["all_equivalent"] is True
            assert run["makespan_ticks"] > 0
        # Ticks are deterministic, so the scaling claim is exact: the
        # shared makespan beats running the tenants back to back.
        assert payload["throughput_scaling"] > 1.0
        assert payload["runs"][-1]["consolidation_speedup"] > 1.0

    def test_cli_serve(self, capsys):
        from repro.cli import main

        code = main(["serve", "--tenants", "3", "--loss", "0.05",
                     "--rows", "120", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("IDENTICAL to QueryPlan.run") == 3
        assert "aggregate" in out

    def test_cli_serve_rejects_unknown_mix(self, capsys):
        from repro.cli import main

        code = main(["serve", "--tenants", "2", "--mix", "nonsense"])
        assert code == 2
        assert "unknown scenarios" in capsys.readouterr().err

    def test_cli_bench_concurrency(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["bench", "concurrency", "--tenants", "2", "--rows",
                     "100", "--loss", "0.02", "--results-dir",
                     str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput scaling" in out
        assert (tmp_path / "BENCH_concurrency.json").exists()

    def test_default_mix_scenarios_exist(self):
        from repro.cluster.simulation import SCENARIOS
        from repro.workloads.traces import DEFAULT_MIX

        assert set(DEFAULT_MIX) <= set(SCENARIOS)
