"""End-to-end equivalence: ClusterSimulation vs. QueryPlan.run.

The acceptance property of the distributed harness: driving a planned
query through the *real* layers — CWorker wire encoding, lossy/reordered
channels under the §7.2 protocol, the (sharded) switch, master
completion — produces results identical to the functional planner path,
for every query shape, across loss rates and shard counts.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.simulation import (
    SCENARIOS,
    ActiveTransfer,
    ClusterSimulation,
    SimulationConfig,
    SimulationError,
    TransferRequest,
    build_scenario,
)
from repro.core.expr import Col
from repro.db.planner import QueryPlanner
from repro.db.queries import (
    DistinctQuery,
    FilterQuery,
    GroupByQuery,
    HavingQuery,
    SortOrder,
    TopNQuery,
)
from repro.db.table import Table
from repro.net.channel import LossyChannel
from repro.net.packet import CheetahPacket
from repro.net.reliability import BatchedSwitchForwarder, SwitchForwarder
from repro.net.wire import encode_packet


def simulate(query, tables, **overrides):
    config = SimulationConfig(**overrides)
    return ClusterSimulation(config).run(query, tables)


CORE_SCENARIOS = sorted(
    set(SCENARIOS) - {"tpch_q3", "bigdata_q1", "bigdata_q2", "bigdata_q4"}
)


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", CORE_SCENARIOS)
    def test_lossy_reordered_sharded(self, name):
        query, tables = build_scenario(name, rows=240, seed=1)
        report = simulate(query, tables, loss_rate=0.08, reorder_window=2,
                          shards=3, seed=2)
        assert report.equivalent, (name, report.result, report.reference)

    @pytest.mark.parametrize("name", CORE_SCENARIOS)
    def test_lossless_single_switch(self, name):
        query, tables = build_scenario(name, rows=120, seed=3)
        report = simulate(query, tables, seed=4)
        assert report.equivalent
        # No loss: no retransmissions, no drops.
        assert report.retransmissions == 0
        assert report.packets_dropped == 0

    def test_tpch_q3_compound_joins(self):
        query, tables = build_scenario("tpch_q3", rows=400, seed=5)
        report = simulate(query, tables, loss_rate=0.05, shards=2, seed=6)
        assert report.equivalent
        # Both joins ran their two passes: 8 transfers total.
        assert len(report.passes) == 8

    @pytest.mark.parametrize("name", ["bigdata_q1", "bigdata_q2",
                                      "bigdata_q4"])
    def test_bigdata_queries(self, name):
        query, tables = build_scenario(name, rows=150, seed=7)
        report = simulate(query, tables, loss_rate=0.05, seed=8)
        assert report.equivalent

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
    def test_loss_sweep_distinct(self, loss):
        query, tables = build_scenario("distinct", rows=200, seed=9)
        report = simulate(query, tables, loss_rate=loss, reorder_window=4,
                          seed=10)
        assert report.equivalent

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_shard_sweep_join(self, shards):
        query, tables = build_scenario("join", rows=160, seed=11)
        report = simulate(query, tables, loss_rate=0.06, shards=shards,
                          seed=12)
        assert report.equivalent


class TestPipelinedMatchesSequential:
    """The batched switch frontend is observationally identical to
    per-packet dispatch: same results, same protocol statistics, same
    channel RNG draws."""

    @pytest.mark.parametrize("name", ["distinct", "groupby_sum", "join",
                                      "having_sum"])
    def test_identical_streams_and_stats(self, name):
        query, tables = build_scenario(name, rows=180, seed=13)
        reports = {}
        for pipelined in (True, False):
            config = SimulationConfig(loss_rate=0.12, reorder_window=3,
                                      shards=2, seed=14,
                                      pipelined=pipelined)
            reports[pipelined] = ClusterSimulation(config).run(query,
                                                               tables)
        assert reports[True].result == reports[False].result
        assert reports[True].passes == reports[False].passes
        assert reports[True].equivalent and reports[False].equivalent

    @pytest.mark.parametrize("congestion", ["fixed", "aimd"])
    @pytest.mark.parametrize("reorder", [0, 2])
    @pytest.mark.parametrize("loss", [0.0, 0.05])
    def test_active_transfer_stepped_to_completion(self, loss, reorder,
                                                   congestion):
        """The object-free stream path (``encode_stream``, int ACKs,
        one value decode per batch) against the per-packet reference
        forwarder and master: same ticks, stats and deliveries."""
        rng = random.Random(17)
        streams = {
            fid: [(seq, rng.randrange(40)) for seq in range(length)]
            for fid, length in ((3, 150), (4, 97), (5, 0))
        }

        def run(pipelined):
            seen = set()

            def scalar(values):
                duplicate = values[1] in seen
                seen.add(values[1])
                return duplicate

            request = TransferRequest(
                name="pass", streams=streams, entry_width=2,
                scalar_fn=scalar,
                batch_fn=lambda batch: [scalar(v) for v in batch])
            config = SimulationConfig(
                loss_rate=loss, reorder_window=reorder, seed=5,
                pipelined=pipelined, congestion=congestion,
                queue_capacity=8 if congestion == "aimd" else None)
            active = ActiveTransfer(request, config, salt=99)
            while not active.done:
                assert active.ticks < 20_000
                active.step()
            return active.ticks, active.stats(), active.delivered()

        batched, reference = run(True), run(False)
        assert batched == reference
        _, stats, delivered = batched
        assert stats.delivered == sum(map(len, delivered.values()))
        # A pruned packet whose switch ACK is lost is retransmitted and
        # forwarded unprocessed (superset safety), so under loss the
        # master may hold more than the switch let through first time.
        assert stats.switch_pruned + stats.delivered >= stats.entries
        if not loss:
            assert stats.switch_pruned + stats.delivered == stats.entries


class TestQueryShapes:
    """Direct (non-scenario) query coverage, including ASC order, wide
    DISTINCT keys, and MAX/MIN HAVING witnesses."""

    def _table(self, rows=150, seed=0):
        rng = random.Random(seed)
        return Table.from_rows("T", [
            {"k": rng.randrange(12), "v": rng.randrange(1, 500),
             "w": rng.randrange(1, 500)}
            for _ in range(rows)
        ])

    def test_topn_ascending(self):
        report = simulate(TopNQuery(n=5, order_column="v",
                                    order=SortOrder.ASC),
                          self._table(seed=15), loss_rate=0.1, seed=16)
        assert report.equivalent

    def test_multi_column_distinct(self):
        report = simulate(DistinctQuery(key_columns=("k", "v")),
                          self._table(seed=17), loss_rate=0.05, shards=2,
                          seed=18)
        assert report.equivalent

    def test_having_max_witness(self):
        report = simulate(HavingQuery(key_column="k", value_column="v",
                                      threshold=450, aggregate="max"),
                          self._table(seed=19), loss_rate=0.1, seed=20)
        assert report.equivalent

    def test_groupby_min(self):
        report = simulate(GroupByQuery(key_column="k", value_column="v",
                                       aggregate="min"),
                          self._table(seed=21), loss_rate=0.08, seed=22)
        assert report.equivalent

    def test_groupby_count(self):
        report = simulate(GroupByQuery(key_column="k", value_column="v",
                                       aggregate="count"),
                          self._table(seed=23), loss_rate=0.08, shards=3,
                          seed=24)
        assert report.equivalent

    def test_string_distinct_keys_fingerprint(self):
        rng = random.Random(25)
        table = Table.from_rows("S", [
            {"name": f"item-{rng.randrange(20)}", "v": rng.randrange(100)}
            for _ in range(120)
        ])
        report = simulate(DistinctQuery(key_columns=("name",)), table,
                          loss_rate=0.1, seed=26)
        assert report.equivalent

    def test_string_filter_predicate_rejected(self):
        table = Table.from_rows("S", [
            {"name": "a", "v": 1}, {"name": "b", "v": 2},
        ])
        with pytest.raises(SimulationError, match="string column"):
            simulate(FilterQuery(predicate=Col("name").eq("a")), table)

    def test_custom_planner_is_respected(self):
        planner = QueryPlanner(seed=3, structure_scale=0.01)
        query, tables = build_scenario("distinct", rows=120, seed=27)
        report = ClusterSimulation(SimulationConfig(loss_rate=0.05,
                                                    seed=3),
                                   planner=planner).run(query, tables)
        assert report.equivalent


@settings(max_examples=12, deadline=None)
@given(
    rows=st.integers(min_value=30, max_value=90),
    keys=st.integers(min_value=2, max_value=15),
    loss=st.sampled_from([0.0, 0.1, 0.2]),
    shards=st.sampled_from([1, 2, 4]),
    kind=st.sampled_from(["distinct", "topn", "groupby_max",
                          "groupby_sum", "having_sum"]),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_property_equivalence(rows, keys, loss, shards, kind, seed):
    """Random tables, query shapes, loss, and shard counts: the wire
    path and the functional path always agree."""
    rng = random.Random(seed)
    table = Table.from_rows("T", [
        {"k": rng.randrange(keys), "v": rng.randrange(1, 200)}
        for _ in range(rows)
    ])
    if kind == "distinct":
        query = DistinctQuery(key_columns=("k",))
    elif kind == "topn":
        query = TopNQuery(n=5, order_column="v")
    elif kind == "groupby_max":
        query = GroupByQuery(key_column="k", value_column="v",
                             aggregate="max")
    elif kind == "groupby_sum":
        query = GroupByQuery(key_column="k", value_column="v",
                             aggregate="sum")
    else:
        total = sum(table.column("v").values)
        query = HavingQuery(key_column="k", value_column="v",
                            threshold=1.5 * total / keys,
                            aggregate="sum")
    report = simulate(query, table, loss_rate=loss, reorder_window=2,
                      shards=shards, seed=seed % 97, workers=3)
    assert report.equivalent, (kind, report.result, report.reference)


class TestBatchedForwarderUnit:
    """BatchedSwitchForwarder mirrors SwitchForwarder packet-for-packet
    on hand-crafted arrival patterns (in-order, retransmission, gap)."""

    def _arrivals(self):
        packets = [
            CheetahPacket(fid=1, seq=0, values=(10,)),
            CheetahPacket(fid=1, seq=1, values=(11,)),
            CheetahPacket(fid=1, seq=1, values=(11,)),   # retransmission
            CheetahPacket(fid=1, seq=3, values=(13,)),   # gap (2 missing)
            CheetahPacket(fid=2, seq=0, values=(20,)),   # second flow
            CheetahPacket(fid=1, seq=2, values=(12,)),
        ]
        return [encode_packet(p) for p in packets]

    def test_matches_per_packet_switch(self):
        def prune(values):
            return values[0] % 2 == 1   # prune odd values

        outputs = {}
        for cls in (SwitchForwarder, BatchedSwitchForwarder):
            switch = cls(prune)
            down = LossyChannel(name="down")
            acks = LossyChannel(name="acks")
            datas = self._arrivals()
            if cls is BatchedSwitchForwarder:
                switch.process_batch(datas, down, acks)
            else:
                for data in datas:
                    switch.process(data, down, acks)
            outputs[cls.__name__] = (
                down.drain(), acks.drain(), switch.pruned,
                switch.forwarded, switch.forwarded_retransmissions,
                switch.dropped_out_of_order,
            )
        assert (outputs["SwitchForwarder"]
                == outputs["BatchedSwitchForwarder"])

    def test_empty_batch_is_noop(self):
        switch = BatchedSwitchForwarder(lambda values: False)
        down = LossyChannel(name="down")
        acks = LossyChannel(name="acks")
        switch.process_batch([], down, acks)
        assert down.pending() == 0 and acks.pending() == 0


class TestCliAndBench:
    def test_cli_run_e2e_scenario(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["run", "distinct", "--loss", "0.05", "--rows", "120",
                     "--shards", "2", "--seed", "1",
                     "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "IDENTICAL to QueryPlan.run" in out
        saved = tmp_path / "E2E_distinct_pipelined.txt"
        assert "IDENTICAL to QueryPlan.run" in saved.read_text()

    def test_cli_run_scenario_name_defaults_to_e2e(self, capsys, tmp_path):
        from repro.cli import main

        # "groupby_sum" is a scenario, not an experiment id: the run
        # subcommand routes it to the simulated cluster automatically.
        code = main(["run", "groupby_sum", "--rows", "120", "--seed", "1",
                     "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "e2e groupby_sum" in out

    def test_cli_rejects_out_of_range_loss(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["run", "distinct", "--loss", "1.0", "--rows", "120",
                     "--results-dir", str(tmp_path)])
        assert code == 2
        assert "loss_rate must be in [0, 1)" in capsys.readouterr().err

    def test_cli_ambiguous_name_hints_e2e(self, capsys, tmp_path):
        from repro.cli import main

        # tpch_q3 is both an experiment id and a scenario: without
        # --loss/--reorder the legacy experiment runs, with a hint.
        code = main(["run", "tpch_q3", "--results-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "add --loss/--reorder" in captured.err

    def test_cli_run_experiments_still_work(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["run", "table2", "--results-dir", str(tmp_path)])
        assert code == 0
        assert "table2" in capsys.readouterr().out

    def test_cli_rejects_unknown_e2e_scenario(self, capsys):
        from repro.cli import main

        code = main(["run", "nonsense", "--loss", "0.1"])
        assert code == 2
        assert "unknown e2e scenarios" in capsys.readouterr().err

    def test_run_e2e_bench_payload(self, tmp_path):
        from repro.bench.runner import run_e2e_bench

        payload = run_e2e_bench(rows=100, shards=2, loss_rate=0.05,
                                reorder_window=1, seed=1,
                                scenarios=("distinct",),
                                loss_sweep=(0.0, 0.1))
        assert payload["benchmark"] == "e2e_pipeline"
        assert payload["all_equivalent"] is True
        assert len(payload["scenarios"]) == 1
        assert len(payload["loss_sweep"]) == 2
        for row in payload["scenarios"] + payload["loss_sweep"]:
            assert row["modes_match"] is True
            assert row["pipelined_seconds"] > 0
            assert row["sequential_seconds"] > 0
        assert payload["overall_speedup"] > 0


class TestConfigValidation:
    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError, match="loss_rate"):
            SimulationConfig(loss_rate=1.0)

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError, match="shards"):
            SimulationConfig(shards=0)

    def test_unknown_scenario(self):
        with pytest.raises(SimulationError, match="unknown scenario"):
            build_scenario("nope")

    def test_packet_flags_must_fit_one_byte(self):
        with pytest.raises(ValueError, match="flags"):
            CheetahPacket(fid=1, seq=0, flags=256)
