"""The asyncio socket frontend: proto/v1, ReproServer, ReproClient.

The acceptance properties of the serving boundary:

* **Result identity** — ≥16 concurrent socket clients with mixed QoS
  classes and injected loss each receive a result identical to their
  solo ``QueryPlan.run`` (the server-side ``equivalent`` check plus a
  client-side repr comparison).
* **Isolation** — a malformed frame kills (at most) its own
  connection; every other client's session completes untouched.
* **Determinism** — a ``--record-trace`` capture of a live socket
  session replays byte-identically through ``replay_trace``, and the
  hold-barrier mode gives byte-identical tick domains across runs.
* **Versioning** — hello/welcome negotiation, the unknown-field rule,
  and recoverable vs. fatal protocol errors behave as specified in
  ``docs/PROTOCOL.md``.

No pytest-asyncio: tests drive their own event loop via
``asyncio.run``.
"""

import ast
import asyncio
import json
import struct

import pytest

from repro.cluster.qos import tiers_policy
from repro.cluster.scheduler import SchedulerConfig, replay_trace
from repro.db import QueryPlanner
from repro.cluster.simulation import build_scenario
from repro.serving import (
    AsyncReproClient,
    ProtocolError,
    ReproClient,
    ReproServer,
    ServingError,
    encode_frame,
)
from repro.serving import protocol
from repro.workloads.traces import load_trace

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")


# A mixed-QoS tenant population: (scenario, priority), cycled.
MIXED = [("topn", "interactive"), ("filter", "standard"),
         ("distinct", "batch"), ("join", "interactive"),
         ("groupby_max", "standard"), ("skyline", "batch"),
         ("having_sum", "interactive"), ("groupby_sum", "batch")]


def solo_output(scenario, rows, seed):
    """The reference output a served tenant must match."""
    query, tables = build_scenario(scenario, rows=rows, seed=seed)
    return QueryPlanner().plan(query).run(tables).result.output


async def _serve_swarm(config, clients, *, rows=40, hold=0):
    """Run ``clients`` concurrent connections; returns (server,
    result frames in client order)."""
    server = ReproServer(config, hold=hold)
    await server.start()
    host, port = server.address

    async def one(i):
        scenario, priority = MIXED[i % len(MIXED)]
        client = await AsyncReproClient.connect(host, port)
        result = await client.run(scenario, tenant=f"t{i:02d}",
                                  rows=rows, seed=i,
                                  priority=priority)
        await client.close()
        return result

    results = await asyncio.gather(*(one(i) for i in range(clients)))
    await server.stop()
    return server, results


class TestConcurrentClients:
    def test_sixteen_mixed_qos_clients_match_solo_run(self):
        """≥16 concurrent clients, mixed QoS, injected loss: every
        served tenant's result equals its solo QueryPlan.run."""
        config = SchedulerConfig(slots=6, policy=tiers_policy(),
                                 loss_rate=0.05, reorder_window=2,
                                 seed=7)
        _, results = asyncio.run(_serve_swarm(config, 16))
        assert len(results) == 16
        served = [r for r in results if r["status"] == "served"]
        assert len(served) >= 12  # tiers may reject some standard
        for frame in served:
            # Server-side equivalence check ran at completion time...
            assert frame["equivalent"] is True
            # ...and the value crossing the wire matches a local rerun.
            # The switch pipeline may carry float registers where the
            # functional reference keeps ints ({1.0: 703.0} == {1: 703}
            # is the product's contract), so fall back to value
            # equality when the reprs disagree.
            i = int(frame["tenant"][1:])
            solo = solo_output(frame["scenario"], 40, i)
            if frame["output_repr"] != repr(solo):
                assert ast.literal_eval(frame["output_repr"]) == solo
        for frame in results:
            if frame["status"] != "served":
                assert frame["status"] == "rejected"
                assert frame["reason"]

    def test_socket_session_replays_byte_identically(self):
        """The tentpole guarantee: record a live socket session, replay
        it in-process, compare full report payloads byte-for-byte."""
        config = SchedulerConfig(slots=4, policy=tiers_policy(),
                                 loss_rate=0.05, reorder_window=2,
                                 seed=3)
        server, _ = asyncio.run(_serve_swarm(config, 12))
        live = json.dumps(server.report().to_payload(),
                          sort_keys=True)
        import os
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "session.jsonl")
            server.write_trace(path)
            trace = load_trace(path)
        replay_config = SchedulerConfig(slots=4, policy=tiers_policy(),
                                        loss_rate=0.05,
                                        reorder_window=2, seed=3)
        replayed = replay_trace(trace, replay_config)
        assert live == json.dumps(replayed.to_payload(),
                                  sort_keys=True)

    def test_hold_barrier_is_deterministic_across_runs(self):
        """Hold mode: two racy swarms produce identical tick domains."""
        def run_once():
            config = SchedulerConfig(slots=4, policy=tiers_policy(),
                                     loss_rate=0.02, seed=1)
            server, _ = asyncio.run(
                _serve_swarm(config, 10, hold=10))
            return json.dumps(server.report().to_payload(),
                              sort_keys=True)

        assert run_once() == run_once()

    def test_every_recorder_writes_the_same_trace(self, tmp_path,
                                                  capsys):
        """One set of specs under one config, recorded three ways —
        ``Session``, ``ReproServer`` and ``repro serve --record-trace``
        — gives byte-identical traces that each replay to the same
        report payload as the live in-process session."""
        from repro.api import ServeConfig, Session
        from repro.cli import main
        from repro.cluster.scheduler import tenant_specs

        config = ServeConfig(slots=2, loss=0.05, shards=2,
                             policy="tiers", seed=4)
        specs = tenant_specs(4, rows=60, seed=4, arrival_stride=3,
                             priorities=("interactive", "batch"))
        paths = {name: str(tmp_path / f"{name}.jsonl")
                 for name in ("session", "server", "cli")}

        session = Session(config)
        for spec in specs:
            session.submit(spec.scenario, tenant=spec.tenant,
                           rows=spec.rows, seed=spec.seed,
                           priority=spec.priority,
                           arrival_tick=spec.arrival_tick)
        session.run()
        session.write_trace(paths["session"])

        async def socket_session():
            server = ReproServer(config, hold=len(specs))
            await server.start()
            host, port = server.address

            async def one(spec):
                client = await AsyncReproClient.connect(host, port)
                await client.run(spec.scenario, tenant=spec.tenant,
                                 rows=spec.rows, seed=spec.seed,
                                 priority=spec.priority,
                                 arrival_tick=spec.arrival_tick)
                await client.close()

            await asyncio.gather(*(one(spec) for spec in specs))
            await server.stop()
            server.write_trace(paths["server"])

        asyncio.run(socket_session())

        assert main(["serve", "--tenants", "4", "--rows", "60",
                     "--seed", "4", "--arrival-stride", "3",
                     "--priorities", "interactive,batch",
                     "--slots", "2", "--loss", "0.05", "--shards", "2",
                     "--policy", "tiers",
                     "--record-trace", paths["cli"]]) == 0
        capsys.readouterr()

        written = {name: open(path, "rb").read()
                   for name, path in paths.items()}
        assert written["session"] == written["server"] == written["cli"]
        live = json.dumps(session.report().to_payload(), sort_keys=True)
        for path in paths.values():
            replayed = replay_trace(load_trace(path),
                                    config.scheduler_config())
            assert json.dumps(replayed.to_payload(),
                              sort_keys=True) == live


class TestProtocolEdges:
    @staticmethod
    async def _open(server):
        host, port = server.address
        return await AsyncReproClient.connect(host, port)

    def test_malformed_frame_does_not_wedge_other_connections(self):
        """A garbage frame kills its own connection only: a healthy
        client mid-session on the same server still completes."""
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            host, port = server.address
            healthy = await AsyncReproClient.connect(host, port)
            await healthy.submit("topn", tenant="ok", rows=40)

            # Malformed: valid length prefix, payload is not JSON.
            bad_reader, bad_writer = await asyncio.open_connection(
                host, port)
            bad_writer.write(encode_frame(protocol.hello()))
            payload = b"\x00not json at all"
            bad_writer.write(struct.pack("!I", len(payload)) + payload)
            await bad_writer.drain()
            # Server answers the handshake, then a fatal error frame,
            # then closes *this* connection.
            frames = []
            while True:
                frame = await protocol.read_frame(bad_reader)
                if frame is None:
                    break
                frames.append(frame)
            assert frames[0]["type"] == "welcome"
            assert frames[-1]["type"] == "error"
            assert frames[-1]["code"] == "bad-json"
            bad_writer.close()

            # The healthy connection is untouched.
            result = await healthy.result("ok")
            assert result["status"] == "served"
            assert result["equivalent"] is True
            await healthy.close()
            await server.stop()

        asyncio.run(scenario())

    def test_truncated_frame_is_rejected_cleanly(self):
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(protocol.hello()))
            # A length prefix promising more bytes than ever arrive.
            writer.write(struct.pack("!I", 500) + b"short")
            writer.write_eof()
            await writer.drain()
            frames = []
            while True:
                frame = await protocol.read_frame(reader)
                if frame is None:
                    break
                frames.append(frame)
            assert frames[0]["type"] == "welcome"
            assert frames[-1]["type"] == "error"
            assert frames[-1]["code"] == "framing"
            writer.close()
            await server.stop()

        asyncio.run(scenario())

    def test_unknown_type_is_recoverable(self):
        """An unknown message type draws an error frame but the
        connection keeps serving (forward-compatibility rule)."""
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            client = await self._open(server)
            await client.send({"type": "speculate", "x": 1})
            with pytest.raises(ServingError) as err:
                await client.stats()  # error frame arrives first
            assert err.value.code == "unknown-type"
            # Still serving: a submit on the same connection works.
            result = await client.run("distinct", tenant="a", rows=40)
            assert result["status"] == "served"
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_unknown_fields_are_ignored(self):
        """The unknown-field rule: extra fields on a known message
        must not disturb it (how proto/v2 ships compatibly)."""
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            client = await self._open(server)
            await client.send({"type": "submit", "scenario": "topn",
                               "tenant": "x", "rows": 40,
                               "v2_experimental_hint": {"a": 1}})
            result = await client.result("x")
            assert result["status"] == "served"
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_version_negotiation_rejects_no_overlap(self):
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(
                {"type": "hello", "versions": [99]}))
            await writer.drain()
            frame = await protocol.read_frame(reader)
            assert frame["type"] == "error"
            assert frame["code"] == "version"
            writer.close()
            await server.stop()

        asyncio.run(scenario())

    def test_welcome_carries_negotiated_version_and_catalog(self):
        async def scenario():
            server = ReproServer(SchedulerConfig(
                slots=3, policy=tiers_policy()))
            await server.start()
            client = await self._open(server)
            assert client.version == protocol.PROTOCOL_VERSION
            assert client.welcome["policy"] == "tiers"
            assert client.welcome["slots"] == 3
            assert "topn" in client.welcome["scenarios"]
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_unknown_scenario_and_duplicate_names_are_rejected(self):
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            client = await self._open(server)
            with pytest.raises(ServingError, match="unknown scenario"):
                await client.submit("no_such_query", tenant="a")
            await client.submit("topn", tenant="dup", rows=40)
            with pytest.raises(ServingError, match="unique"):
                await client.submit("filter", tenant="dup", rows=40)
            result = await client.result("dup")
            assert result["status"] == "served"
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_bad_field_type_is_a_protocol_error(self):
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            client = await self._open(server)
            await client.send({"type": "submit", "scenario": "topn",
                               "rows": "forty"})
            with pytest.raises(ServingError) as err:
                await client.stats()
            assert err.value.code == "bad-field"
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_stats_frame_reports_loop_state(self):
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            client = await self._open(server)
            stats = await client.stats()
            assert stats["type"] == "telemetry"
            assert stats["slots"] == 2
            assert stats["finished"] == 0
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_oversized_stats_reply_keeps_the_connection(self):
        """Regression: once the registry snapshot outgrew
        ``MAX_FRAME_BYTES``, ``encode_frame`` raised inside the
        connection handler and the asking client was disconnected."""
        async def scenario():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            client = await self._open(server)
            before = await client.stats()
            assert "metrics" in before
            assert "metrics_truncated" not in before
            # What ~1200 polled tenants leave behind, in one go.
            inflated = server.obs.registry.counter(
                "test_inflated_total", "Per-tenant samples.", ["tenant"])
            for index in range(protocol.MAX_FRAME_BYTES // 32):
                inflated.inc(tenant=f"tenant-{index:08d}")
            with pytest.raises(ProtocolError):
                encode_frame({"type": "telemetry",
                              "metrics": server.obs.registry.snapshot()})
            stats = await client.stats()
            assert stats["metrics_truncated"] is True
            assert "metrics" not in stats
            assert {key: stats[key] for key in ("type", "slots", "policy",
                                                "finished", "tick")} == \
                {key: before[key] for key in ("type", "slots", "policy",
                                              "finished", "tick")}
            # The same connection is still served.
            for tenant in ("after-1", "after-2"):
                await client.submit("topn", tenant=tenant, rows=40)
                result = await client.result(tenant)
                assert result["status"] == "served"
                assert result["equivalent"] is True
            assert (await client.stats())["finished"] == 2
            await client.close()
            await server.stop()

        asyncio.run(scenario())


class TestProtocolUnit:
    def test_frame_roundtrip_is_byte_stable(self):
        frame = encode_frame({"b": 1, "a": [2, 3]})
        assert frame == encode_frame({"a": [2, 3], "b": 1})
        (length,) = struct.unpack("!I", frame[:4])
        assert protocol.decode_payload(frame[4:4 + length]) == {
            "a": [2, 3], "b": 1}

    def test_oversized_frame_is_fatal(self):
        with pytest.raises(ProtocolError) as err:
            encode_frame({"x": "y" * (protocol.MAX_FRAME_BYTES + 1)})
        assert err.value.fatal

    def test_validate_message_codes(self):
        with pytest.raises(ProtocolError) as err:
            protocol.validate_message({"no": "type"})
        assert err.value.code == "bad-message"
        with pytest.raises(ProtocolError) as err:
            protocol.validate_message({"type": "submit"})
        assert err.value.code == "bad-field"
        assert protocol.validate_message(
            {"type": "submit", "scenario": "topn"}) == "submit"

    def test_negotiate_version_picks_highest_mutual(self):
        assert protocol.negotiate_version([1, 99]) == 1
        with pytest.raises(ProtocolError):
            protocol.negotiate_version("1")
        with pytest.raises(ProtocolError):
            protocol.negotiate_version([42])


class TestSyncClient:
    def test_blocking_client_round_trip(self):
        async def start():
            server = ReproServer(SchedulerConfig(slots=2))
            await server.start()
            return server

        # Run the server in a background thread's event loop so the
        # blocking client can do its own loop in the main thread.
        import threading

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            server = asyncio.run_coroutine_threadsafe(
                start(), loop).result()
            host, port = server.address
            with ReproClient(host, port) as client:
                result = client.run("distinct", tenant="sync",
                                    rows=40)
                assert result["status"] == "served"
                assert result["equivalent"] is True
            asyncio.run_coroutine_threadsafe(server.stop(),
                                             loop).result()
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.close()
