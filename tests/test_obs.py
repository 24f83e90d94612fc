"""The unified observability layer (PR 10): metrics, spans, surfaces.

The acceptance properties of ``repro.obs``:

* **Determinism** — two identical seeded runs export byte-identical
  OpenMetrics text and byte-identical Chrome trace JSON (the same
  contract every ``BENCH_*.json`` decision domain carries).
* **Non-interference** — serving with a full ``Observability``
  attached produces a schedule whose tick-domain fingerprint is
  sha256-identical to the uninstrumented run (hooks are read-only).
* **Schema** — the span export is valid Chrome trace-event JSON
  (Perfetto-loadable) and the metrics export is valid OpenMetrics
  (HELP/TYPE headers, histogram ``_bucket``/``_sum``/``_count``,
  terminal ``# EOF``).
* **Accounting** — every wire pass is exported, read-time values
  match an end-of-tick poll, and serving writes metric samples on
  lifecycle events only (pass totals are folded at pass end, live
  values collected when the registry is read).
* **Surfaces** — the proto/v1 ``stats`` frame carries the registry
  snapshot; ``repro obs dump`` summarizes both export kinds; a
  default run logs nothing to stderr (NullHandler contract).
"""

import asyncio
import json

import pytest

from repro.bench.runner import _schedule_fingerprint
from repro.cluster.chaos import ChaosController, generate_schedule
from repro.cluster.qos import tiers_policy
from repro.cluster.scheduler import (
    QueryScheduler,
    SchedulerConfig,
    ServingLoop,
    TenantSpec,
    tenant_specs,
)
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    SpanTracer,
    names,
)

SERVE = dict(slots=2, loss_rate=0.05, reorder_window=1, shards=2,
             seed=3)


def serve_fleet(obs=None, tenants=3, rows=60):
    config = SchedulerConfig(obs=obs, **SERVE)
    specs = tenant_specs(tenants, rows=rows, seed=SERVE["seed"])
    return QueryScheduler(config).serve(specs)


#: Serving configurations whose exports must account for every pass:
#: name -> (SchedulerConfig knobs, tenant specs, chaos schedule knobs).
#: 24-row lossless passes take one tick each, so a whole pass starts
#: and ends between two end-of-tick reads.
ACCOUNTED = {
    "lossless-24": (
        dict(slots=2, shards=2, seed=1),
        tenant_specs(6, rows=24, seed=1, mix=("distinct",)),
        None),
    "lossy": (
        dict(slots=4, loss_rate=0.05, reorder_window=2, shards=2,
             seed=0),
        tenant_specs(8, rows=240, seed=0),
        None),
    "aimd-tiers-preempt": (
        dict(slots=3, loss_rate=0.02, reorder_window=1, seed=5,
             policy=tiers_policy(), congestion="aimd",
             queue_capacity=4),
        [TenantSpec("b0", "groupby_sum", rows=300, seed=1,
                    priority="batch"),
         TenantSpec("b1", "skyline", rows=300, seed=2,
                    priority="batch"),
         TenantSpec("i0", "distinct", rows=60, seed=3, arrival_tick=10,
                    priority="interactive"),
         TenantSpec("i1", "filter", rows=60, seed=4, arrival_tick=14,
                    priority="interactive")],
        None),
    "chaos": (
        dict(slots=3, loss_rate=0.02, shards=3, seed=1),
        tenant_specs(3, rows=60, seed=1, mix=("distinct",)),
        dict(seed=1, kills=2, shards=3, workers=4, horizon=20)),
}


def serve_accounted(name, obs):
    knobs, specs, chaos = ACCOUNTED[name]
    controller = (ChaosController(generate_schedule(**chaos))
                  if chaos is not None else None)
    return QueryScheduler(SchedulerConfig(obs=obs, **knobs)).serve(
        specs, chaos=controller)


def tenant_totals(snapshot, tenant):
    """The exported per-tenant counters, channels summed."""

    def total(name):
        return sum(sample["value"] for sample in snapshot[name]["samples"]
                   if sample["labels"]["tenant"] == tenant)

    return {
        "offers": total(names.SWITCH_OFFERS),
        "prunes": total(names.SWITCH_PRUNES),
        "retransmissions": total(names.TRANSPORT_RETRANSMISSIONS),
        "sent": total(names.CHANNEL_SENT),
        "drops": total(names.CHANNEL_DROPS),
    }


def pass_totals(passes):
    """The same counters summed over a tenant's ``PassStats``."""
    return {
        "offers": sum(p.switch_pruned + p.switch_forwarded
                      for p in passes),
        "prunes": sum(p.switch_pruned for p in passes),
        "retransmissions": sum(p.retransmissions for p in passes),
        "sent": sum(p.packets_sent for p in passes),
        "drops": sum(p.packets_dropped for p in passes),
    }


def shard_gauges(obs):
    """The exported per-shard offered and pruned gauges, by shard."""
    snapshot = obs.registry.snapshot()
    return [[sample["value"] for sample in snapshot[metric]["samples"]]
            for metric in (names.SWITCH_SHARD_OFFERED,
                           names.SWITCH_SHARD_PRUNED)]


def live_totals(run):
    """What an end-of-tick poll publishes for an in-service tenant:
    its finished passes plus the in-flight one."""
    totals = pass_totals(run.passes)
    if run.current is not None:
        for key, value in pass_totals([run.current.stats()]).items():
            totals[key] += value
    return totals


class TestRegistry:
    def test_counter_is_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("cheetah_test_total", "t", ("a",))
        counter.inc(2, a="x")
        counter.set_total(5, a="x")
        counter.set_total(3, a="x")  # monotone: max() wins
        assert counter.value(a="x") == 5
        with pytest.raises(ValueError):
            counter.inc(-1, a="x")

    def test_label_set_is_exact(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("cheetah_test_gauge", "t", ("a",))
        with pytest.raises(ValueError):
            gauge.set(1)  # missing label
        with pytest.raises(ValueError):
            gauge.set(1, a="x", b="y")  # extra label
        gauge.set(1.5, a="x")
        assert gauge.value(a="x") == 1.5

    def test_type_collisions_raise(self):
        registry = MetricsRegistry()
        registry.counter("cheetah_test_total", "t")
        with pytest.raises(ValueError):
            registry.gauge("cheetah_test_total", "t")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("cheetah_test_ticks", "t",
                                       buckets=(1.0, 10.0, 100.0))
        for value in (0, 5, 50, 500):
            histogram.observe(value)
        text = registry.render_openmetrics()
        assert 'le="1"} 1' in text
        assert 'le="10"} 2' in text
        assert 'le="100"} 3' in text
        assert 'le="+Inf"} 4' in text
        assert "cheetah_test_ticks_sum 555" in text
        assert "cheetah_test_ticks_count 4" in text

    def test_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("cheetah_test_total", "Things.", ("a",)).inc(
            a='we"ird\nlabel\\')
        text = registry.render_openmetrics(tick=7)
        assert text.startswith("# HELP cheetah_test_total Things.\n"
                               "# TYPE cheetah_test_total counter\n")
        assert text.endswith("# EOF\n")
        # Label escaping per the OpenMetrics ABNF.
        assert r'a="we\"ird\nlabel\\"' in text
        assert text.splitlines()[2].endswith(" 1 7")  # tick timestamp


class TestDeterminism:
    def test_openmetrics_double_run_byte_identical(self):
        exports = []
        for _ in range(2):
            obs = Observability(spans=True)
            report = serve_fleet(obs)
            exports.append(
                obs.registry.render_openmetrics(tick=report.ticks))
        assert exports[0] == exports[1]

    def test_span_export_double_run_byte_identical(self):
        exports = []
        for _ in range(2):
            obs = Observability(spans=True)
            serve_fleet(obs)
            exports.append(json.dumps(obs.tracer.to_chrome_trace(),
                                      sort_keys=True))
        assert exports[0] == exports[1]

    def test_obs_on_decisions_identical_to_obs_off(self):
        """The PR 9 decision-domain pattern: sha256 of the tick-domain
        schedule, obs-off vs obs-on, must match exactly."""
        bare = _schedule_fingerprint(serve_fleet(None))
        instrumented = _schedule_fingerprint(
            serve_fleet(Observability(spans=True)))
        assert bare == instrumented

    def test_metric_catalog_is_run_independent(self):
        """Every catalog name renders HELP/TYPE even in a run that
        never exercises its subsystem (CI greps for names)."""
        obs = Observability()
        serve_fleet(obs, tenants=1, rows=40)
        text = obs.registry.render_openmetrics()
        for name in (names.SCHED_ADMISSIONS, names.SCHED_PREEMPTIONS,
                     names.QUERY_LATENCY, names.CHANNEL_TAIL_DROPS,
                     names.TRANSPORT_RETRANSMISSIONS,
                     names.SWITCH_PRUNES, names.CHAOS_MIGRATIONS):
            assert f"# TYPE {name} " in text


class TestCollectOnRead:
    """Pass totals are pushed when a pass ends; everything that moves
    every tick is computed when the registry is read."""

    @pytest.mark.parametrize("name", sorted(ACCOUNTED))
    def test_every_pass_is_exported(self, name):
        obs = Observability(spans=True)
        report = serve_accounted(name, obs)
        assert report.all_equivalent is True
        if name == "aimd-tiers-preempt":
            assert report.preemption_count >= 1
        if name == "chaos":
            assert obs.chaos_events.samples()
        snapshot = obs.registry.snapshot()
        for tenant in report.tenants:
            assert tenant.passes
            assert tenant_totals(snapshot, tenant.spec.tenant) == \
                pass_totals(tenant.passes), tenant.spec.tenant
        passes = [e for e in obs.tracer.to_chrome_trace()["traceEvents"]
                  if e["name"].startswith(names.SPAN_PASS_PREFIX)]
        assert len(passes) == sum(len(t.passes) for t in report.tenants)
        # A pass span runs from the tick its transfer began; under
        # uniform DRR weights (fifo) every tenant steps every tick, so
        # the span lasts exactly the pass's tick count.
        for span in passes:
            assert span["dur"] >= span["args"]["ticks"], span
            if report.policy == "fifo":
                assert span["dur"] == span["args"]["ticks"], span

    def test_final_scheduler_gauges_show_the_drained_loop(self):
        obs = Observability()
        report = serve_fleet(obs)
        snapshot = obs.registry.snapshot()

        def gauge(name):
            (sample,) = snapshot[name]["samples"]
            return sample["value"]

        assert gauge(names.SCHED_TICK) == report.ticks
        for name in (names.SCHED_ACTIVE, names.SCHED_OCCUPANCY,
                     names.SCHED_QUEUE_DEPTH, names.SCHED_SUSPENDED):
            assert gauge(name) == 0, name

    @pytest.mark.parametrize("name", ["chaos", "lossless-24", "lossy",
                                      "tiers-preempt-2-shards"])
    def test_shard_gauges_count_every_query_once(self, name):
        """The per-shard gauges are cumulative: at session end they
        equal each query's per-shard counters taken when it was
        uninstalled — none lost, none counted twice across a
        suspend/resume or a chaos migration."""
        if name == "tiers-preempt-2-shards":
            knobs, specs, chaos = ACCOUNTED["aimd-tiers-preempt"]
            knobs = dict(knobs, shards=2)
        else:
            knobs, specs, chaos = ACCOUNTED[name]
        obs = Observability()
        loop = ServingLoop(
            SchedulerConfig(obs=obs, **knobs),
            chaos=(ChaosController(generate_schedule(**chaos))
                   if chaos is not None else None))
        frontend = loop.frontend
        retired = []
        uninstall = frontend.uninstall_query

        def recording_uninstall(fid):
            retired.append([(s.offered, s.pruned) for s in
                            frontend.pruner_for(fid).per_shard_stats()])
            uninstall(fid)

        frontend.uninstall_query = recording_uninstall
        for spec in specs:
            loop.submit(spec)
        while loop.has_work:
            loop.run_tick()
        report = loop.report(check=False, wall_seconds=0.0)
        if name == "tiers-preempt-2-shards":
            assert report.preemption_count >= 1
        if name == "chaos":
            assert frontend.migrations >= 1
        expected = [tuple(map(sum, zip(*shard))) for shard in zip(*retired)]
        assert [(s.offered, s.pruned)
                for s in frontend.per_shard_stats()] == expected
        assert shard_gauges(obs) == [list(c) for c in zip(*expected)]

    def test_shard_gauges_keep_retired_queries(self):
        """Pinned totals of a lossy two-shard fleet; before the
        gauges kept retired queries they read 0 at session end."""
        obs = Observability()
        loop = ServingLoop(SchedulerConfig(slots=4, shards=2,
                                           loss_rate=0.05,
                                           reorder_window=2, obs=obs))
        for spec in tenant_specs(8, rows=60):
            loop.submit(spec)
        while loop.has_work:
            loop.run_tick()
        assert shard_gauges(obs) == [[253, 287], [113, 165]]

    def test_reads_mid_session_carry_live_counters(self):
        """What a ``stats`` frame snapshots between ticks equals what
        an end-of-tick poll of every in-service tenant would have
        published."""
        obs = Observability()
        knobs, specs, _ = ACCOUNTED["lossy"]
        loop = ServingLoop(SchedulerConfig(obs=obs, **knobs))
        for spec in specs:
            loop.submit(spec)
        checked = 0
        while loop.has_work:
            loop.run_tick()
            if loop.tick % 37:
                continue
            snapshot = obs.registry.snapshot()
            for run in loop.active + loop.suspended:
                assert tenant_totals(snapshot, run.spec.tenant) == \
                    live_totals(run)
                checked += 1
            (active,) = snapshot[names.SCHED_ACTIVE]["samples"]
            assert active["value"] == len(loop.active)
        assert checked > 8

    def test_state_is_bounded_by_tenants_in_service(self):
        obs = Observability()
        loop = ServingLoop(SchedulerConfig(slots=4, seed=0, obs=obs))
        for spec in tenant_specs(50, rows=24, seed=0):
            loop.submit(spec)
        while loop.has_work:
            loop.run_tick()
            assert len(obs._state) <= 4
        assert len(loop.finished) == 50
        assert not obs._state

    def test_failed_tenant_is_retired(self, monkeypatch):
        """A tenant whose next pass cannot install fails mid-run: its
        finished passes stay exported, its state is dropped, and its
        service span ends at the failure."""
        from repro.cluster import scheduler
        from repro.switch.resources import ResourceExhausted

        advance = scheduler._TenantRun.advance

        def advance_or_fail(run):
            if run.spec.tenant == "tenant-1":
                raise ResourceExhausted("no room for the next pass")
            return advance(run)

        monkeypatch.setattr(scheduler._TenantRun, "advance",
                            advance_or_fail)
        obs = Observability(spans=True)
        report = serve_fleet(obs)
        (failed,) = [t for t in report.tenants if t.status == "failed"]
        assert failed.passes and not obs._state
        assert tenant_totals(obs.registry.snapshot(), "tenant-1") == \
            pass_totals(failed.passes)
        (service,) = [e for e in obs.tracer.to_chrome_trace()["traceEvents"]
                      if e["name"] == names.SPAN_SERVICE
                      and e["args"]["tenant"] == "tenant-1"]
        assert service["args"]["failed"] is True
        assert service["ts"] + service["dur"] == failed.completed_tick

    def test_serving_ticks_write_at_most_one_sample_per_stepped_run(
            self, monkeypatch):
        """The serving loop's per-tick hooks do integer bookkeeping;
        metric samples are written on lifecycle events and reads."""
        from repro.obs import metrics

        writes = []
        key = metrics._Metric._key

        def counted(metric, labels):
            writes.append(metric.name)
            return key(metric, labels)

        knobs, specs, _ = ACCOUNTED["lossy"]
        loop = ServingLoop(SchedulerConfig(obs=Observability(), **knobs))
        for spec in specs:
            loop.submit(spec)
        monkeypatch.setattr(metrics._Metric, "_key", counted)
        while loop.has_work:
            loop.run_tick()
        monkeypatch.undo()
        stepped = sum(sample.serviced for sample
                      in loop.report(check=False).telemetry.samples)
        assert stepped > 2000
        assert 0 < len(writes) <= stepped


class TestSpanSchema:
    def test_chrome_trace_event_format(self, tmp_path):
        obs = Observability(spans=True)
        report = serve_fleet(obs)
        path = tmp_path / "spans.json"
        obs.write_spans(str(path))
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events, "an instrumented serve must emit spans"
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "M", "C"}
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in metadata} >= {"thread_name",
                                                "process_name"}
        # Metadata precedes payload events (Perfetto names tracks on
        # first sight).
        assert events[:len(metadata)] == metadata
        for event in events:
            assert event["pid"] == 1
            if event["ph"] == "X":
                assert isinstance(event["ts"], int)
                assert isinstance(event["dur"], int)
                assert event["dur"] >= 0
                assert event["ts"] + event["dur"] <= report.ticks
                assert isinstance(event["args"], dict)
                assert list(event["args"]) == sorted(event["args"])

    def test_span_taxonomy_covers_lifecycle(self):
        """A contended fleet produces queue, service, and pass spans
        carrying tenant and QoS attribution."""
        obs = Observability(spans=True)
        serve_fleet(obs)
        spans = [e for e in obs.tracer.to_chrome_trace()["traceEvents"]
                 if e["ph"] == "X"]
        kinds = {span["name"].split(":")[0] for span in spans}
        assert names.SPAN_SERVICE in kinds
        assert names.SPAN_QUEUE in kinds  # 3 tenants on 2 slots
        assert "pass" in kinds
        service = next(s for s in spans
                       if s["name"] == names.SPAN_SERVICE)
        assert service["args"]["tenant"].startswith("tenant-")
        assert service["args"]["qos_class"]

    def test_open_spans_truncated_at_finalize(self):
        tracer = SpanTracer()
        tracer.begin(("k", 1), "service", 5, track="t0",
                     cat="scheduler")
        tracer.finalize(9)
        span = tracer.to_chrome_trace()["traceEvents"][-1]
        assert span["ts"] == 5 and span["dur"] == 4
        assert span["args"]["truncated"] is True


class TestSurfaces:
    def test_stats_frame_carries_metrics_snapshot(self):
        """proto/v1 `stats`: the telemetry reply embeds the server's
        registry snapshot (docs/PROTOCOL.md §4)."""
        from repro.serving import AsyncReproClient, ReproServer

        async def session():
            config = SchedulerConfig(**SERVE)
            server = ReproServer(config)
            await server.start()
            host, port = server.address
            client = await AsyncReproClient.connect(host, port)
            await client.run("distinct", tenant="t0", rows=40, seed=1)
            frame = await client.stats()
            await client.close()
            await server.stop()
            return frame

        frame = asyncio.run(session())
        assert frame["type"] == "telemetry"
        metrics = frame["metrics"]
        assert names.SCHED_ADMISSIONS in metrics
        admissions = metrics[names.SCHED_ADMISSIONS]
        assert admissions["type"] == "counter"
        assert sum(s["value"] for s in admissions["samples"]) == 1
        # The snapshot must survive the JSON wire protocol.
        json.dumps(metrics)

    def test_default_run_emits_nothing_to_stderr(self, capfd):
        """NullHandler contract: an unconfigured embedding sees no
        logging output, not even lastResort."""
        serve_fleet(None, tenants=2, rows=40)
        serve_fleet(Observability(spans=True), tenants=2, rows=40)
        assert capfd.readouterr().err == ""

    def test_log_level_flag_attaches_handler(self, capfd, tmp_path):
        import logging

        from repro.cli import main

        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            code = main(["serve", "--tenants", "2", "--rows", "40",
                         "--log-level", "info"])
        finally:
            for handler in root.handlers[len(before):]:
                root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
        assert code == 0
        err = capfd.readouterr().err
        assert "INFO repro.cluster.scheduler" in err

    def test_cli_exports_and_dump(self, capsys, tmp_path):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.prom"
        span_path = tmp_path / "spans.json"
        code = main(["serve", "--tenants", "2", "--rows", "40",
                     "--metrics-out", str(metrics_path),
                     "--span-out", str(span_path)])
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "dump", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "34 metrics" in out
        assert names.SCHED_COMPLETIONS in out
        assert main(["obs", "dump", str(span_path)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "tenant-0" in out

    def test_cli_serve_exports_are_byte_identical(self, capsys, tmp_path):
        """``repro serve --tenants 3 --rows 60`` at its real defaults
        (5% loss) exports byte-identical metrics and spans on a rerun,
        and ``repro obs dump`` reads both."""
        from repro.cli import main

        exports = []
        for run in ("a", "b"):
            metrics_path = tmp_path / f"metrics-{run}.prom"
            span_path = tmp_path / f"spans-{run}.json"
            assert main(["serve", "--tenants", "3", "--rows", "60",
                         "--metrics-out", str(metrics_path),
                         "--span-out", str(span_path)]) == 0
            exports.append((metrics_path.read_bytes(),
                            span_path.read_bytes()))
        assert exports[0] == exports[1]
        lines = exports[0][0].decode().splitlines()
        for expected in ("# TYPE cheetah_scheduler_tick gauge",
                         "# TYPE cheetah_scheduler_completions_total "
                         "counter",
                         "# TYPE cheetah_switch_prunes_total counter",
                         "# TYPE cheetah_query_latency_ticks histogram",
                         "# EOF"):
            assert expected in lines
        assert b'"traceEvents"' in exports[0][1]
        capsys.readouterr()
        assert main(["obs", "dump", str(tmp_path / "metrics-a.prom")]) == 0
        assert main(["obs", "dump", str(tmp_path / "spans-a.json")]) == 0

    def test_replay_metrics_export(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "replay.prom"
        code = main(["replay", "--gen", "poisson", "--queries", "3",
                     "--rows", "40", "--metrics-out", str(path)])
        assert code == 0
        assert "# EOF" in path.read_text()

    def test_run_e2e_ingests_simulation_report(self, tmp_path):
        from repro.api import run_scenario

        obs = Observability(spans=True)
        report = run_scenario("distinct", rows=200, seed=0, loss=0.05)
        obs.ingest_simulation_report(report, track="distinct")
        text = obs.registry.render_openmetrics()
        offered = sum(stats.switch_pruned + stats.switch_forwarded
                      for stats in report.passes)
        assert offered > 0
        assert f'{names.SWITCH_OFFERS}{{tenant="distinct"}} '\
            f'{offered}' in text
        spans = [e for e in obs.tracer.to_chrome_trace()["traceEvents"]
                 if e["ph"] == "X"]
        assert len(spans) == len(report.passes)
        assert sum(s["dur"] for s in spans) == report.ticks


class TestChaosInstrumentation:
    def test_chaos_events_counted(self):
        from repro.cluster.chaos import ChaosController, generate_schedule

        schedule = generate_schedule(seed=1, kills=2, shards=3,
                                     workers=4, horizon=20)
        obs = Observability(spans=True)
        config = SchedulerConfig(slots=3, loss_rate=0.02, shards=3,
                                 seed=1, obs=obs)
        specs = tenant_specs(3, rows=60, seed=1, mix=("distinct",))
        controller = ChaosController(schedule)
        QueryScheduler(config).serve(specs, chaos=controller)
        counted = obs.chaos_events
        applied = sum(
            counted.value(event=record["event"])
            for record in controller.applied) if controller.applied \
            else 0
        assert applied >= len(controller.applied)
        assert obs.chaos_migrations.value() == controller.migrations
