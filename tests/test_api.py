"""The stable ``repro.api`` facade.

The facade's contract: a ``Session`` produces the same tick domain as
the internal ``QueryScheduler.serve`` for the same specs, and its
``QueryResult`` is constructible from both transports.
"""

import json
import warnings

import pytest

from repro.api import (
    API_VERSION,
    QueryResult,
    ServeConfig,
    Session,
    run_scenario,
    submit,
)
from repro.cluster.scheduler import QueryScheduler, TenantSpec


POPULATION = [("topn", "interactive"), ("filter", "batch"),
              ("distinct", "standard"), ("join", "interactive")]


class TestFacadeSurface:
    def test_explicit_all(self):
        import repro.api as api

        assert set(api.__all__) >= {"Session", "submit", "QueryResult",
                                    "ServeConfig"}
        for name in api.__all__:
            assert hasattr(api, name)
        assert API_VERSION == 1

    def test_serve_config_resolves_policy_strings(self):
        assert ServeConfig(policy="tiers").scheduler_config() \
            .policy.name == "tiers"
        assert ServeConfig().scheduler_config().policy.name == "fifo"
        with pytest.raises(ValueError):
            ServeConfig(policy="no-such-policy").scheduler_config()


class TestSession:
    def _spec_args(self):
        return ServeConfig(slots=2, loss=0.05, reorder=2,
                           policy="tiers", seed=1)

    def test_session_matches_scheduler_serve_byte_for_byte(self):
        config = self._spec_args()
        session = Session(config)
        for i, (scenario, priority) in enumerate(POPULATION):
            session.submit(scenario, tenant=f"t{i}", rows=40, seed=i,
                           priority=priority)
        session.run()
        specs = [TenantSpec(tenant=f"t{i}", scenario=scenario, rows=40,
                            seed=i, priority=priority)
                 for i, (scenario, priority) in enumerate(POPULATION)]
        reference = QueryScheduler(
            config.scheduler_config()).serve(specs)
        assert (json.dumps(session.report().to_payload(),
                           sort_keys=True)
                == json.dumps(reference.to_payload(), sort_keys=True))

    def test_results_verified_against_solo_run(self):
        session = Session(ServeConfig(slots=2, loss=0.02))
        session.submit("topn", rows=40)
        session.submit("distinct", rows=40)
        results = session.run()
        assert [r.tenant for r in results]
        for result in results:
            assert result.served
            assert result.equivalent is True
            assert result.output is not None
            assert result.output_repr == repr(result.output)

    def test_incremental_submissions_keep_monotone_stamps(self, tmp_path):
        """Submitting after run() resumes the loop; stamps never go
        backwards, so the recorded trace stays replay-identical."""
        session = Session(ServeConfig(slots=1))
        session.submit("filter", rows=40, tenant="a")
        session.run()
        name = session.submit("distinct", rows=40, tenant="b",
                              arrival_tick=0)  # clamped forward
        session.run()
        specs = session.write_trace(str(tmp_path / "t.jsonl")).queries
        assert [s.tenant for s in specs] == ["a", "b"]
        assert specs[1].arrival_tick >= specs[0].arrival_tick
        assert session.result(name).served

    def test_auto_names_and_missing_result(self):
        session = Session(ServeConfig(slots=1))
        assert session.submit("filter", rows=40) == "q0"
        assert session.submit("distinct", rows=40) == "q1"
        session.run()
        with pytest.raises(KeyError):
            session.result("nope")

    def test_one_shot_submit(self):
        result = submit("topn", rows=40,
                        config=ServeConfig(slots=1))
        assert result.served and result.equivalent is True


class TestQueryResult:
    def test_from_frame_round_trips_the_wire_shape(self):
        frame = {"type": "result", "tenant": "t0", "scenario": "topn",
                 "status": "served", "reason": "", "qos_class":
                 "standard", "equivalent": True, "arrival_tick": 3,
                 "admitted_tick": 3, "completed_tick": 9,
                 "wait_ticks": 0, "service_ticks": 6,
                 "latency_ticks": 6, "preemptions": 0,
                 "suspended_ticks": 0, "entries": 40, "delivered": 12,
                 "output_repr": "(1, 2)"}
        result = QueryResult.from_frame(frame)
        assert result.served
        assert result.output is None  # reprs only over the wire
        assert result.output_repr == "(1, 2)"
        assert result.latency_ticks == 6


class TestRunScenario:
    def test_facade_e2e_path(self):
        report = run_scenario("distinct", rows=60, loss=0.02,
                              reorder=1)
        assert report.equivalent is True

    def test_bad_scenario_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("nope", rows=60)


class TestDeprecationShim:
    def test_canonical_import_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.cluster.simulation import (  # noqa: F401
                ClusterSimulation,
            )

    def test_cluster_package_does_not_reexport_simulation(self):
        import repro.cluster

        assert "ClusterSimulation" not in repro.cluster.__all__
        with pytest.raises(AttributeError):
            repro.cluster.ClusterSimulation

    def test_unknown_attribute_still_raises(self):
        import repro.cluster

        with pytest.raises(AttributeError):
            repro.cluster.definitely_not_a_name
