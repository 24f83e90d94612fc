"""QoS policy engine: classes, DRR, reservations, preemption, trace v2.

The acceptance invariants of the QoS subsystem:

* **result identity survives preemption** — a tenant suspended
  mid-pass and resumed later produces a final result byte-identical to
  its solo ``ClusterSimulation`` run (itself equal to
  ``QueryPlan.run``), across loss 0-0.05 x shards 1-4
  (hypothesis-property-tested);
* **starvation freedom** — the ``batch`` class keeps making progress
  under arbitrarily sustained ``interactive`` load (its reservation
  floor);
* **legacy equivalence** — the default ``fifo`` policy reproduces the
  pre-QoS scheduler byte for byte (covered by the untouched
  ``test_scheduler.py`` / ``test_traces.py`` suites passing);
* **v1 backward compatibility** — version-1 traces parse unchanged and
  v2 fields under a v1 header fail with a version-gating diagnostic.
"""

import json
import pathlib
import re
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import run_qos_bench
from repro.cluster.qos import (
    BUILTIN_POLICIES,
    DeficitRoundRobin,
    PriorityClass,
    QosPolicy,
    fifo_policy,
    parse_policy,
    plan_preemption,
    tiers_policy,
)
from repro.cluster.scheduler import (
    QueryScheduler,
    SchedulerConfig,
    TenantSpec,
    replay_trace,
    tenant_specs,
)
from repro.cluster.runtime import ShardedSwitchFrontend
from repro.cluster.simulation import ClusterSimulation, build_scenario
from repro.switch.controlplane import ControlPlane, QuerySpec
from repro.workloads.traces import (
    Trace,
    generate_trace,
    load_trace,
    parse_trace,
    trace_from_specs,
)

DATA = pathlib.Path(__file__).parent / "data"


def payload_bytes(report):
    return json.dumps(report.to_payload(), sort_keys=True).encode()


#: A saturating-batch + arriving-interactive tenant set that forces
#: preemption under the tiers policy with slots=3.
PREEMPTION_SPECS = [
    TenantSpec("b0", "groupby_sum", rows=300, seed=1, priority="batch"),
    TenantSpec("b1", "skyline", rows=300, seed=2, priority="batch"),
    TenantSpec("i0", "distinct", rows=60, seed=3, arrival_tick=10,
               priority="interactive"),
    TenantSpec("i1", "filter", rows=60, seed=4, arrival_tick=14,
               priority="interactive"),
]


def serve(specs, **overrides):
    return QueryScheduler(SchedulerConfig(**overrides)).serve(specs)


class TestPolicyModel:
    def test_builtin_policies(self):
        for name, factory in BUILTIN_POLICIES.items():
            policy = factory()
            assert policy.resolve(None).name == policy.default_class
        tiers = parse_policy("tiers")
        assert tiers.preemption is True
        assert tiers.resolve("interactive").reserved_slots == 1
        assert tiers.resolve("interactive").preemptible is False
        assert tiers.resolve("batch").reserved_slots == 1
        assert parse_policy("tiers-no-preempt").preemption is False
        assert parse_policy("fifo").classes[0].weight == 1.0

    def test_custom_policy_spec(self):
        policy = parse_policy(
            "nopreempt; rt:prio=5,weight=8,reserve=1,rigid; "
            "bg:prio=0,default")
        assert policy.preemption is False
        assert policy.default_class == "bg"
        rt = policy.resolve("rt")
        assert (rt.priority, rt.weight, rt.reserved_slots,
                rt.preemptible) == (5, 8.0, 1, False)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown policy"):
            parse_policy("nonsense")
        with pytest.raises(ValueError, match="bad field"):
            parse_policy("a:prio=oops")
        with pytest.raises(ValueError, match="weight must be > 0"):
            PriorityClass("x", priority=0, weight=0)
        with pytest.raises(ValueError, match="duplicate class"):
            QosPolicy("p", (PriorityClass("a", 0), PriorityClass("a", 1)),
                      "a")
        with pytest.raises(ValueError, match="default class"):
            QosPolicy("p", (PriorityClass("a", 0),), "b")
        with pytest.raises(ValueError, match="unknown priority class"):
            tiers_policy().resolve("platinum")
        # Reservations must fit the slot budget (checked by the config).
        with pytest.raises(ValueError, match="reserves 2 slots"):
            SchedulerConfig(slots=1, policy=tiers_policy())

    def test_admission_math(self):
        policy = tiers_policy()
        interactive = policy.resolve("interactive")
        batch = policy.resolve("batch")
        # Empty scheduler, 3 slots: batch may take 3 - 1 (interactive
        # floor) = 2; interactive may take 3 - 1 (batch floor) = 2.
        assert policy.best_case_slots(batch, 3) == 2
        assert policy.best_case_slots(interactive, 3) == 2
        # One batch tenant running: its floor is filled, interactive
        # sees free - 0.
        assert policy.available_to(interactive, 2, {"batch": 1}) == 2
        # No batch running: one free slot is held back for batch.
        assert policy.available_to(interactive, 2, {}) == 1

    def test_plan_preemption_respects_floors(self):
        policy = tiers_policy()
        interactive = policy.resolve("interactive")
        batch = policy.resolve("batch")
        # Two batch tenants in service (floor 1): only one may go.
        candidates = [("b1", batch, 1), ("b0", batch, 1)]
        assert plan_preemption(policy, interactive, 1, 1, candidates,
                               {"batch": 2}) == ["b1"]
        # A single in-service batch tenant sits on the floor: no victim.
        assert plan_preemption(policy, interactive, 1, 1,
                               [("b0", batch, 1)], {"batch": 1}) is None
        # Equal priority never preempts.
        assert plan_preemption(policy, batch, 1, 1, candidates,
                               {"batch": 2}) is None
        # Preemption disabled: no plan.
        assert plan_preemption(tiers_policy(False), interactive, 1, 1,
                               candidates, {"batch": 2}) is None

    def test_describe_mentions_every_class(self):
        text = tiers_policy().describe()
        for name in ("interactive", "standard", "batch"):
            assert name in text


class TestDeficitRoundRobin:
    def test_weighted_service_ratio(self):
        drr = DeficitRoundRobin()
        for key in ("fast", "slow"):
            drr.admit(key)
        weights = {"fast": 4.0, "slow": 1.0}
        served = [drr.serviced(weights) for _ in range(40)]
        fast = sum("fast" in tick for tick in served)
        slow = sum("slow" in tick for tick in served)
        assert fast == 40  # max weight steps every tick
        assert slow == 10  # exactly the 4:1 weight ratio

    def test_uniform_weights_step_everyone(self):
        drr = DeficitRoundRobin()
        for key in range(3):
            drr.admit(key)
        weights = {key: 2.0 for key in range(3)}
        for _ in range(5):
            assert drr.serviced(weights) == [0, 1, 2]

    def test_work_conserving_when_alone(self):
        """A lone low-weight tenant is never slowed: normalization is
        by the *active* maximum."""
        drr = DeficitRoundRobin()
        drr.admit("batch")
        for _ in range(5):
            assert drr.serviced({"batch": 1.0}) == ["batch"]

    def test_fractional_weights_accumulate(self):
        drr = DeficitRoundRobin()
        for key in ("a", "b"):
            drr.admit(key)
        weights = {"a": 3.0, "b": 1.0}
        served = [drr.serviced(weights) for _ in range(9)]
        assert sum("b" in tick for tick in served) == 3  # 1/3 rate


class TestPreemption:
    def test_interactive_arrival_preempts_batch(self):
        report = serve(PREEMPTION_SPECS, slots=3, loss_rate=0.02,
                       reorder_window=1, seed=5, policy=tiers_policy())
        assert report.policy == "tiers"
        assert report.all_equivalent is True
        assert len(report.served) == 4
        assert report.preemption_count >= 1
        preempts = [e for e in report.preemption_timeline
                    if e.kind == "preempt"]
        resumes = [e for e in report.preemption_timeline
                   if e.kind == "resume"]
        assert preempts and len(resumes) == len(preempts)
        # The victim is a batch tenant, preempted by an interactive one.
        victim = next(t for t in report.tenants
                      if t.spec.tenant == preempts[0].tenant)
        assert victim.qos_class == "batch"
        assert victim.preemptions >= 1
        assert victim.suspended_ticks > 0
        by = next(t for t in report.tenants
                  if t.spec.tenant == preempts[0].by)
        assert by.qos_class == "interactive"
        # Latency accounting still closes (suspension is service time).
        for tenant in report.served:
            assert tenant.latency_ticks == \
                tenant.wait_ticks + tenant.service_ticks

    def test_preempted_tenant_equals_solo_run(self):
        """The tentpole invariant: every preempted-and-resumed tenant's
        result is byte-identical to its solo ClusterSimulation run."""
        config = SchedulerConfig(slots=3, loss_rate=0.02,
                                 reorder_window=1, seed=5,
                                 policy=tiers_policy())
        report = QueryScheduler(config).serve(PREEMPTION_SPECS)
        assert any(t.preemptions for t in report.tenants)
        for index, tenant in enumerate(report.tenants):
            sim = ClusterSimulation(config.tenant_simulation_config(index))
            query, tables = build_scenario(tenant.spec.scenario,
                                           rows=tenant.spec.rows,
                                           seed=tenant.spec.seed)
            solo = sim.run(query, tables)
            assert solo.equivalent
            assert tenant.result == solo.result, tenant.spec.tenant

    def test_no_preempt_control_arm(self):
        """Same tenants, preemption off: nobody is suspended and the
        late interactive tenant queues behind the batch pass."""
        on = serve(PREEMPTION_SPECS, slots=3, loss_rate=0.02,
                   reorder_window=1, seed=5, policy=tiers_policy())
        off = serve(PREEMPTION_SPECS, slots=3, loss_rate=0.02,
                    reorder_window=1, seed=5,
                    policy=tiers_policy(preemption=False))
        assert off.policy == "tiers-no-preempt"
        assert off.preemption_count == 0
        assert off.all_equivalent is True

        def interactive_p99(report):
            return report.class_latency_percentile("interactive", 0.99)

        assert interactive_p99(on) < interactive_p99(off)

    def test_preemption_telemetry_conservation(self):
        report = serve(PREEMPTION_SPECS, slots=3, loss_rate=0.02,
                       reorder_window=1, seed=5, policy=tiers_policy())
        samples = report.telemetry.samples
        preempts = [e for e in report.preemption_timeline
                    if e.kind == "preempt"]
        resumes = [e for e in report.preemption_timeline
                   if e.kind == "resume"]
        assert sum(s.preempted for s in samples) == len(preempts)
        assert sum(s.resumed for s in samples) == len(resumes)
        assert sum(s.completed for s in samples) == len(report.served)
        # Events land on the sample stamped with their tick.
        first = preempts[0]
        sample = next(s for s in samples if s.tick == first.tick)
        assert sample.preempted >= 1

    def test_payload_carries_classes_and_preemptions(self):
        config = SchedulerConfig(slots=3, loss_rate=0.02,
                                 reorder_window=1, seed=5,
                                 policy=tiers_policy())
        report = QueryScheduler(config).serve(PREEMPTION_SPECS)
        payload = report.to_payload()
        assert payload["policy"] == "tiers"
        classes = payload["classes"]
        assert set(classes) == {"interactive", "batch"}
        assert classes["interactive"]["served"] == 2
        assert classes["interactive"]["latency"]["p99_ticks"] > 0
        assert classes["batch"]["preemptions"] == \
            sum(e["kind"] == "preempt" for e in payload["preemptions"])
        suspended = [t for t in payload["tenants"]
                     if t["suspended_ticks"] > 0]
        assert suspended and all(t["qos_class"] == "batch"
                                 for t in suspended)
        # Byte-determinism with preemption in play.
        again = QueryScheduler(config).serve(PREEMPTION_SPECS)
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(again.to_payload(), sort_keys=True)

    def test_rigid_class_is_never_preempted(self):
        """An interactive tenant (rigid) is never a victim, even when a
        later interactive arrival finds no slot."""
        specs = [
            TenantSpec("i0", "groupby_sum", rows=200, seed=1,
                       priority="interactive"),
            TenantSpec("i1", "distinct", rows=200, seed=2,
                       priority="interactive"),
            TenantSpec("i2", "filter", rows=60, seed=3, arrival_tick=5,
                       priority="interactive"),
        ]
        report = serve(specs, slots=3, loss_rate=0.05, seed=1,
                       policy=tiers_policy())
        i2 = next(t for t in report.tenants if t.spec.tenant == "i2")
        assert i2.wait_ticks > 0  # it really had to queue
        assert report.preemption_count == 0
        assert report.all_equivalent is True


class TestAdmissionAndReservations:
    def test_priority_classes_admitted_first(self):
        """When a slot frees, a waiting interactive tenant beats a
        batch tenant that arrived earlier."""
        specs = [
            TenantSpec("b0", "groupby_sum", rows=240, seed=1,
                       priority="batch"),
            TenantSpec("b1", "skyline", rows=240, seed=2,
                       priority="batch"),
            TenantSpec("b2", "having_sum", rows=240, seed=3,
                       arrival_tick=2, priority="batch"),
            TenantSpec("i0", "distinct", rows=60, seed=4,
                       arrival_tick=4, priority="interactive"),
        ]
        report = serve(specs, slots=3, loss_rate=0.05, seed=7,
                       policy=tiers_policy(preemption=False))
        b2 = next(t for t in report.tenants if t.spec.tenant == "b2")
        i0 = next(t for t in report.tenants if t.spec.tenant == "i0")
        # The interactive floor admits i0 on arrival (b0/b1 hold the
        # two batch-usable slots well past tick 4 at this loss rate);
        # b2 keeps waiting for a batch slot.
        assert i0.admitted_tick == 4
        assert b2.admitted_tick > i0.admitted_tick
        assert report.all_equivalent is True

    def test_reservation_holds_slot_for_interactive(self):
        """With slots=2 and the tiers floors, two batch tenants can
        never run simultaneously: one slot is held for interactive."""
        specs = [
            TenantSpec("b0", "distinct", rows=100, seed=1,
                       priority="batch"),
            TenantSpec("b1", "filter", rows=100, seed=2,
                       priority="batch"),
        ]
        report = serve(specs, slots=2, loss_rate=0.0, seed=3,
                       policy=tiers_policy())
        b0, b1 = report.tenants
        assert b1.admitted_tick >= b0.completed_tick
        assert report.peak_occupancy == 1

    def test_impossible_slot_ask_is_rejected_with_reason(self):
        specs = [TenantSpec("wide", "distinct", rows=100, seed=1,
                            priority="standard", slots=2)]
        report = serve(specs, slots=2, loss_rate=0.0, seed=1,
                       policy=tiers_policy())
        tenant = report.tenants[0]
        assert tenant.status == "rejected"
        assert "can use at most 0" in tenant.reason
        assert report.rejection_timeline

    def test_multi_slot_tenant_occupies_capacity(self):
        """A slots=2 tenant under fifo keeps a second tenant queued
        until it completes."""
        specs = [
            TenantSpec("wide", "distinct", rows=120, seed=1, slots=2),
            TenantSpec("thin", "filter", rows=120, seed=2),
        ]
        report = serve(specs, slots=3, loss_rate=0.0, seed=4)
        wide, thin = report.tenants
        assert thin.admitted_tick == 0  # 1 slot still free
        specs = [
            TenantSpec("wide", "distinct", rows=120, seed=1, slots=2),
            TenantSpec("wide2", "filter", rows=120, seed=2, slots=2),
        ]
        report = serve(specs, slots=3, loss_rate=0.0, seed=4)
        first, second = report.tenants
        assert second.admitted_tick >= first.completed_tick

    def test_occupancy_counts_slots_held_not_tenants_stepped(self):
        """Telemetry occupancy is slot-weighted: two slots=2 tenants on
        a 4-slot scheduler occupy all 4 slots; the serviced counter
        tracks stepped tenants separately."""
        specs = [
            TenantSpec("w0", "distinct", rows=120, seed=1, slots=2),
            TenantSpec("w1", "filter", rows=120, seed=2, slots=2),
        ]
        report = serve(specs, slots=4, loss_rate=0.0, seed=3)
        assert report.peak_occupancy == 4
        assert max(s.serviced for s in report.telemetry.samples) == 2

    def test_occupancy_exceeds_serviced_when_drr_skips(self):
        """Under tiers weights a slot-holding batch tenant skipped by
        DRR still counts as occupying its slot."""
        report = serve(PREEMPTION_SPECS, slots=3, loss_rate=0.02,
                       reorder_window=1, seed=5, policy=tiers_policy())
        divergent = [s for s in report.telemetry.samples
                     if 0 < s.serviced < s.occupancy]
        assert divergent, "batch was never DRR-skipped while occupying"
        assert all(s.serviced <= s.occupancy <= 3
                   for s in report.telemetry.samples)

    def test_unknown_priority_hint_fails_at_serve(self):
        specs = [TenantSpec("t", "distinct", priority="platinum")]
        with pytest.raises(ValueError, match="unknown priority class"):
            serve(specs, slots=2, policy=tiers_policy())

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="slots must be >= 1"):
            TenantSpec("t", "distinct", slots=0)


class TestStarvationFreedom:
    def test_batch_completes_under_sustained_interactive_load(self):
        """The batch reservation floor: a batch tenant admitted before
        a sustained interactive stream still completes while the stream
        is ongoing — preemption never takes its last slot and DRR keeps
        it stepping at weight ratio."""
        interactive = [
            TenantSpec(f"i{k}", "distinct" if k % 2 else "filter",
                       rows=60, seed=10 + k, arrival_tick=2 + 12 * k,
                       priority="interactive")
            for k in range(30)
        ]
        specs = [TenantSpec("b", "groupby_sum", rows=240, seed=1,
                            priority="batch")] + interactive
        report = serve(specs, slots=2, loss_rate=0.04, seed=3,
                       policy=tiers_policy())
        batch = next(t for t in report.tenants if t.spec.tenant == "b")
        assert batch.status == "served"
        assert report.all_equivalent is True
        # The stream was genuinely sustained: the batch tenant ran
        # alongside many interactive services and completed while
        # interactive tenants were still arriving.
        last_arrival = max(t.spec.arrival_tick for t in report.tenants)
        assert 50 < batch.completed_tick < last_arrival


class TestSuspendAfterFinDrain:
    """Regression: suspending a query whose transfer already
    FIN-drained (and whose fid the driver uninstalled) must be a no-op
    — re-checkpointing stale pruner state would resurrect a dead
    query's slot occupancy and corrupt the next resume."""

    SPEC = QuerySpec("distinct", params=(("rows", 32), ("width", 2)))

    def test_controlplane_suspend_of_drained_query_returns_none(self):
        plane = ControlPlane()
        install = plane.install_query(self.SPEC)
        plane.uninstall_query(install.fid)
        assert plane.suspend_query(install.fid) is None
        # The slot is genuinely free, not held by a stale checkpoint.
        again = plane.install_query(self.SPEC)
        assert again.fid != install.fid
        assert len(plane.installed_queries()) == 1

    def test_sharded_frontend_suspend_of_drained_query_returns_none(self):
        frontend = ShardedSwitchFrontend(shards=2)
        install = frontend.install_query(self.SPEC)
        frontend.uninstall_query(install.fid)
        assert frontend.suspend_query(install.fid) is None

    def test_preempting_tenant_with_drained_fid_keeps_serving(self):
        """End to end: a batch tenant whose early pass FIN-drained and
        uninstalled its fid gets preempted later — the suspend must
        skip the dead fid and the tenant must still finish correct.
        ``join`` uninstalls its Bloom-filter fid after pass 2, so a
        preemption landing later hits the drained-fid suspend path."""
        specs = [
            TenantSpec("b0", "join", rows=260, seed=1,
                       priority="batch"),
            TenantSpec("b1", "groupby_max", rows=260, seed=2,
                       priority="batch"),
            TenantSpec("i0", "distinct", rows=60, seed=3,
                       arrival_tick=8, priority="interactive"),
            TenantSpec("i1", "topn", rows=60, seed=4,
                       arrival_tick=12, priority="interactive"),
        ]
        report = serve(specs, slots=3, policy=tiers_policy(),
                       loss_rate=0.02, seed=5)
        assert report.all_equivalent is True
        assert all(t.status == "served" for t in report.tenants)


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(
    loss=st.sampled_from([0.0, 0.02, 0.05]),
    shards=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_property_preemption_never_changes_results(loss, shards, seed):
    """The satellite property: under the tiers policy with preemption,
    every tenant's final result (preempted or not) equals its solo
    ``QueryPlan.run``, across loss 0-0.05 x shards 1-4."""
    specs = [
        TenantSpec("b0", "groupby_sum", rows=90, seed=seed % 997,
                   priority="batch"),
        TenantSpec("b1", "having_sum", rows=90, seed=seed % 997 + 1,
                   priority="batch"),
        TenantSpec("i0", "distinct", rows=40, seed=seed % 997 + 2,
                   arrival_tick=4, priority="interactive"),
        TenantSpec("i1", "topn", rows=40, seed=seed % 997 + 3,
                   arrival_tick=8, priority="interactive"),
    ]
    config = SchedulerConfig(slots=3, loss_rate=loss, reorder_window=1,
                             shards=shards, seed=seed % 89,
                             policy=tiers_policy())
    report = QueryScheduler(config).serve(specs)
    assert report.all_equivalent is True, [
        (t.spec.tenant, t.status, t.reason) for t in report.tenants
    ]
    assert payload_bytes(report) == \
        payload_bytes(QueryScheduler(config).serve(specs))
    for index, tenant in enumerate(report.tenants):
        sim = ClusterSimulation(config.tenant_simulation_config(index))
        query, tables = build_scenario(tenant.spec.scenario,
                                       rows=tenant.spec.rows,
                                       seed=tenant.spec.seed)
        solo = sim.run(query, tables)
        assert solo.equivalent
        assert tenant.result == solo.result, tenant.spec.tenant


class TestTraceV2:
    def test_golden_v2_fixture_parses(self):
        trace = load_trace(str(DATA / "trace_golden_v2.jsonl"))
        assert trace.version == 2
        alpha, beta, gamma, delta = trace.queries
        assert alpha.priority == "batch" and alpha.slots == 1
        assert beta.priority == "interactive"
        assert gamma.priority is None and gamma.slots == 2
        assert delta.priority is None and delta.slots == 1

    def test_v2_round_trip_is_identity(self):
        trace = load_trace(str(DATA / "trace_golden_v2.jsonl"))
        assert parse_trace(trace.to_jsonl()) == trace
        assert '"version": 2' in trace.to_jsonl()

    def test_v1_golden_fixture_still_parses_and_serializes_v1(self):
        """Backward compat: the PR-4 golden trace is untouched, parses,
        and round-trips as version 1 (no hints -> lowest version)."""
        trace = load_trace(str(DATA / "trace_golden.jsonl"))
        assert trace.version == 1
        assert '"version": 1' in trace.to_jsonl()
        assert all(q.priority is None and q.slots == 1
                   for q in trace.queries)
        assert parse_trace(trace.to_jsonl()) == trace

    def test_v2_field_under_v1_header_names_the_line(self):
        with pytest.raises(ValueError,
                           match=r"trace_v1_priority\.jsonl:3: "
                                 r"'priority' is a version-2 field"):
            load_trace(str(DATA / "trace_v1_priority.jsonl"))

    @pytest.mark.parametrize("text,match", [
        ('{"kind": "cheetah-trace", "version": 1}\n'
         '{"scenario": "distinct", "slots": 2}',
         r"<trace>:2: 'slots' is a version-2 field"),
        ('{"kind": "cheetah-trace", "version": 2}\n'
         '{"scenario": "distinct", "slots": 0}',
         r"<trace>:2: 'slots' must be >= 1"),
        ('{"kind": "cheetah-trace", "version": 2}\n'
         '{"scenario": "distinct", "priority": ""}',
         r"<trace>:2: \"priority\" must be a non-empty"),
        ('{"kind": "cheetah-trace", "version": 2}\n'
         '{"scenario": "distinct", "color": "red"}',
         r"<trace>:2: unknown query field\(s\): color"),
        ('{"kind": "cheetah-trace", "version": 3}',
         r"<trace>:1: unsupported trace version 3 \(this parser reads "
         r"versions 1-2\)"),
    ])
    def test_v2_validation_diagnostics(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_trace(text)

    def test_generated_priorities_cycle_and_force_v2(self):
        trace = generate_trace("poisson", queries=4, rows=40, seed=1,
                               priorities=("interactive", "batch"))
        assert [q.priority for q in trace.queries] == \
            ["interactive", "batch", "interactive", "batch"]
        assert trace.version == 2
        assert parse_trace(trace.to_jsonl()) == trace

    def test_v2_trace_replays_under_tiers_policy(self):
        trace = load_trace(str(DATA / "trace_golden_v2.jsonl"))
        report = replay_trace(trace, SchedulerConfig(
            slots=3, seed=1, policy=tiers_policy()))
        assert report.all_equivalent is True
        by_name = {t.spec.tenant: t for t in report.tenants}
        assert by_name["alpha"].qos_class == "batch"
        assert by_name["beta"].qos_class == "interactive"
        assert by_name["gamma"].qos_class == "standard"  # default


class TestParetoGenerator:
    def test_deterministic_and_non_decreasing(self):
        once = generate_trace("pareto", queries=12, rows=40, seed=9)
        again = generate_trace("pareto", queries=12, rows=40, seed=9)
        assert once.to_jsonl() == again.to_jsonl()
        arrivals = [q.arrival_tick for q in once.queries]
        assert arrivals == sorted(arrivals)
        assert parse_trace(once.to_jsonl()) == once

    def test_heavy_tail_produces_outlier_gaps(self):
        """The defining Pareto property: the largest inter-arrival gap
        dwarfs the median gap (flash crowds separated by long lulls)."""
        trace = generate_trace("pareto", queries=40, rows=40, seed=3,
                               interarrival=30.0, alpha=1.2)
        arrivals = [q.arrival_tick for q in trace.queries]
        gaps = sorted(b - a for a, b in zip(arrivals, arrivals[1:]))
        assert gaps[-1] > 10 * max(gaps[len(gaps) // 2], 1)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha must be > 1"):
            generate_trace("pareto", queries=2, rows=40, alpha=1.0)

    def test_pareto_in_replay_bench_sweep(self):
        from repro.bench.runner import run_replay_bench

        payload = run_replay_bench(queries=4, rows=60, slots=2,
                                   loss_rate=0.02, seed=1)
        assert "pareto" in payload["processes"]
        assert payload["p99_latency_ticks"]["pareto"] > 0
        assert payload["all_equivalent"] is True


class TestRecordTrace:
    def test_recorded_serve_session_replays_byte_identically(self):
        """The PR-4 follow-up closed: record a serve session's
        admissions, replay the recording, get the same report byte for
        byte."""
        config = SchedulerConfig(slots=3, loss_rate=0.03,
                                 reorder_window=1, shards=2, seed=6,
                                 policy=tiers_policy())
        specs = tenant_specs(5, rows=80, seed=6, arrival_stride=9,
                             priorities=("interactive", "batch"))
        report = QueryScheduler(config).serve(specs)
        trace = trace_from_specs(specs, config)
        assert trace.version == 2
        replayed = replay_trace(parse_trace(trace.to_jsonl()), config,
                                apply_overrides=False)
        assert payload_bytes(replayed) == payload_bytes(report)

    def test_cli_serve_record_trace_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "session.jsonl"
        code = main(["serve", "--tenants", "3", "--slots", "3",
                     "--policy", "tiers", "--priorities",
                     "interactive,batch", "--arrival-stride", "8",
                     "--rows", "80", "--loss", "0.02", "--reorder", "2",
                     "--seed", "2", "--record-trace", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert f"recorded trace {out}" in stdout
        # The suggested replay command carries every non-default knob
        # the header cannot pin (here: the reorder window).
        assert "--reorder 2" in stdout
        trace = load_trace(str(out))
        assert trace.version == 2
        assert trace.loss_rate == 0.02
        assert [q.priority for q in trace.queries] == \
            ["interactive", "batch", "interactive"]
        code = main(["replay", str(out), "--slots", "3", "--policy",
                     "tiers", "--seed", "2"])
        replay_out = capsys.readouterr().out
        assert code == 0
        assert replay_out.count("IDENTICAL to QueryPlan.run") == 3
        # Under AIMD the congestion knobs must ride the announced
        # command too: replaying it reproduces the served makespan.
        aimd = tmp_path / "aimd.jsonl"
        code = main(["serve", "--tenants", "3", "--rows", "60",
                     "--congestion", "aimd", "--queue-capacity", "2",
                     "--record-trace", str(aimd)])
        stdout = capsys.readouterr().out
        assert code == 0
        announced = re.search(r"replay with: repro (.*)\)$", stdout,
                              re.MULTILINE).group(1)
        assert "--congestion aimd --queue-capacity 2" in announced
        assert main(shlex.split(announced)) == 0
        replay_out = capsys.readouterr().out
        served, replayed = (
            re.search(r"makespan\s*: (\d+) ticks", text).group(1)
            for text in (stdout, replay_out))
        assert replayed == served == "120"

    def test_cli_replay_rejects_priorities_with_trace_file(self, capsys):
        from repro.cli import main

        code = main(["replay", str(DATA / "trace_golden.jsonl"),
                     "--priorities", "interactive,batch"])
        assert code == 2
        assert "--priorities applies to --gen" in capsys.readouterr().err

    def test_partial_resume_keeps_unrestored_checkpoints(self):
        """A mid-list ResourceExhausted during resume consumes only the
        checkpoints that landed, so a retry never double-installs."""
        from repro.cluster.scheduler import _TenantFrontend
        from repro.switch.resources import ResourceExhausted

        class FlakyShared:
            def __init__(self):
                self.resumed = []
                self.fail_on = 2

            def resume_query(self, checkpoint):
                if checkpoint == self.fail_on:
                    raise ResourceExhausted("no slot")
                self.resumed.append(checkpoint)

        shared = FlakyShared()
        frontend = _TenantFrontend(shared)
        checkpoints = [1, 2, 3]
        with pytest.raises(ResourceExhausted):
            frontend.resume(checkpoints)
        assert shared.resumed == [1]
        assert checkpoints == [2, 3]  # retry resumes only the rest
        shared.fail_on = None
        frontend.resume(checkpoints)
        assert shared.resumed == [1, 2, 3]
        assert checkpoints == []

    def test_trace_from_specs_sorts_by_arrival(self):
        specs = [TenantSpec("late", "distinct", arrival_tick=50),
                 TenantSpec("early", "filter", arrival_tick=0)]
        trace = trace_from_specs(specs, SchedulerConfig())
        assert [q.tenant for q in trace.queries] == ["early", "late"]
        parse_trace(trace.to_jsonl())  # non-decreasing arrivals hold


class TestQosBenchAndCli:
    def test_bench_payload_shape_and_improvement(self):
        payload = run_qos_bench(seed=0)
        assert payload["benchmark"] == "qos"
        assert payload["all_equivalent"] is True
        assert [run["policy"] for run in payload["runs"]] == \
            ["tiers", "tiers-no-preempt"]
        p99 = payload["interactive_p99_ticks"]
        assert p99["tiers"] < p99["tiers-no-preempt"]
        assert payload["interactive_p99_improvement"] > 1.0
        assert payload["preemption_events"]["tiers"] > 0
        assert payload["preemption_events"]["tiers-no-preempt"] == 0
        # preemption_events counts preemptions only (not resumes) and
        # agrees with the per-class tenant accounting.
        for run in payload["runs"]:
            assert payload["preemption_events"][run["policy"]] == \
                sum(cls["preemptions"] for cls in run["classes"].values())
        again = run_qos_bench(seed=0)
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_cli_bench_qos(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["bench", "qos", "--rows", "200", "--seed", "0",
                     "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "interactive p99 improvement" in out
        saved = json.loads((tmp_path / "BENCH_qos.json").read_text())
        assert saved["benchmark"] == "qos"
        assert saved["all_equivalent"] is True

    def test_cli_serve_rejects_unknown_policy(self, capsys):
        from repro.cli import main

        code = main(["serve", "--tenants", "2", "--policy", "bogus"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_cli_serve_prints_class_lines(self, capsys):
        from repro.cli import main

        code = main(["serve", "--tenants", "4", "--slots", "3",
                     "--policy", "tiers", "--priorities",
                     "interactive,batch", "--rows", "100",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "class interactive" in out
        assert "class batch" in out

    def test_cli_replay_generated_priorities(self, capsys):
        from repro.cli import main

        code = main(["replay", "--gen", "pareto", "--queries", "4",
                     "--rows", "60", "--slots", "3", "--seed", "1",
                     "--priorities", "interactive,batch"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy=tiers" in out  # hinted trace -> tiers default
        assert out.count("IDENTICAL to QueryPlan.run") == 4

    def test_cli_replay_slots_only_trace_defaults_to_fifo(self, tmp_path,
                                                          capsys):
        """A v2 trace with only `slots` hints (no priorities) stays
        classless: under the tiers default its standard-class queries
        would be locked out of a 2-slot budget by the reservation
        floors and rejected."""
        from repro.cli import main

        trace = Trace(queries=(
            TenantSpec(tenant="wide", scenario="distinct", rows=60,
                       slots=2),
        ))
        path = tmp_path / "slots_only.jsonl"
        trace.save(str(path))
        code = main(["replay", str(path), "--slots", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy=fifo" in out
        assert out.count("IDENTICAL to QueryPlan.run") == 1

    def test_cli_replay_explicit_policy_beats_default(self, capsys):
        from repro.cli import main

        code = main(["replay", "--gen", "poisson", "--queries", "3",
                     "--rows", "60", "--seed", "1", "--policy",
                     "tiers-no-preempt", "--slots", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy=tiers-no-preempt" in out