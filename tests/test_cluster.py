"""Tests for the cluster layer: workers, master, cost model, runtimes."""

import pytest

from repro.cluster import (
    CheetahRuntime,
    CostModel,
    CWorker,
    SparkBaseline,
    decode_numeric,
    encode_value,
)
from repro.cluster.costmodel import HARDWARE_PROFILES
from repro.cluster.spark import result_cardinality, total_input_entries
from repro.core.expr import Col
from repro.db import (
    DistinctQuery,
    FilterQuery,
    GroupByQuery,
    HavingQuery,
    Table,
    TopNQuery,
    execute,
)
from repro.db.queries import CompoundQuery
from repro.net.channel import LossyChannel
from repro.net.reliability import MasterEndpoint
from repro.net.wire import encode_packet


class TestEncoding:
    def test_int_roundtrip(self):
        for value in (0, 1, -5, 123456):
            assert decode_numeric(encode_value(value)) == value

    def test_float_roundtrip_quantized(self):
        assert decode_numeric(encode_value(3.25)) == pytest.approx(
            3.25, abs=1e-5
        )

    def test_order_preserving(self):
        values = [-10, -1, 0, 0.5, 3, 100.25]
        encoded = [encode_value(v) for v in values]
        assert encoded == sorted(encoded)

    def test_string_fingerprint(self):
        assert encode_value("abc") == encode_value("abc")
        assert encode_value("abc") != encode_value("abd")

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            encode_value(True)


class TestCWorkerCMaster:
    def test_worker_entries(self, products_table):
        worker = CWorker(0, products_table)
        entries = worker.entries(["price"])
        assert len(entries) == 4
        assert decode_numeric(entries[0][0]) == 4

    def test_worker_packets_end_with_fin(self, products_table):
        worker = CWorker(0, products_table)
        packets = worker.packets(["price"])
        assert packets[-1].is_fin
        assert len(packets) == 5

    @staticmethod
    def _master_receives(packets):
        """The CMaster (``MasterEndpoint``) takes the worker's frames."""
        master, acks = MasterEndpoint(), LossyChannel()
        master.process_batch([encode_packet(p) for p in packets], acks)
        return master, acks

    @staticmethod
    def _rebuild(entries, columns):
        return Table.from_rows("meta", [
            {col: decode_numeric(v) for col, v in zip(columns, values)}
            for values in entries
        ])

    def test_master_rebuilds_table(self, products_table):
        worker = CWorker(0, products_table)
        master, _ = self._master_receives(worker.packets(["price"]))
        assert master.fin_received(0)
        rebuilt = self._rebuild(master.received(0), ["price"])
        assert [int(v) for v in rebuilt.column("price").values] == [4, 7, 2, 5]

    def test_master_completes_query(self, products_table):
        worker = CWorker(0, products_table)
        master, _ = self._master_receives(worker.packets(["price"]))
        table = self._rebuild(master.received(0), ["price"])
        result = execute(TopNQuery(n=2, order_column="price"), table)
        assert result.output == (7.0, 5.0)

    def test_master_acks_every_copy_and_keeps_one(self, products_table):
        packets = CWorker(0, products_table).packets(["price"])
        master, acks = self._master_receives(packets + packets)
        assert acks.pending() == 2 * len(packets)
        assert master.duplicates == len(packets)
        assert master.received(0) == [p.values for p in packets[:-1]]


class TestCostModel:
    def test_stream_time_network_bound_at_10g(self):
        model = CostModel()
        entries = 30_000_000
        t10 = model.cheetah_stream_seconds(entries, 5, 10e9)
        t20 = model.cheetah_stream_seconds(entries, 5, 20e9)
        assert t20 < t10
        assert t10 / t20 > 1.5   # ~2x: the Fig. 8 network-bound claim

    def test_serialization_bound_with_one_worker(self):
        model = CostModel()
        tight = model.cheetah_stream_seconds(30_000_000, 1, 100e9)
        assert tight == pytest.approx(30_000_000 / model.worker_serialize_rate)

    def test_blocking_zero_when_master_keeps_up(self):
        model = CostModel()
        assert model.master_blocking_seconds("topn", 10_000_000, 1000,
                                             stream_seconds=2.0) == 0.0

    def test_blocking_superlinear_shape(self):
        """Fig. 9: zero at low unpruned fractions, then growing."""
        model = CostModel()
        m = 31_700_000
        stream = model.cheetah_stream_seconds(m, 5, 10e9)
        latencies = [
            model.master_blocking_seconds("groupby", m, round(m * u), stream)
            for u in (0.02, 0.1, 0.3, 0.5)
        ]
        assert latencies[0] == 0.0
        assert latencies[1] < latencies[2] < latencies[3]

    def test_op_order_matches_paper(self):
        """Fig. 9 ordering: topn cheapest, max group-by most expensive."""
        model = CostModel()
        m = 31_700_000
        stream = model.cheetah_stream_seconds(m, 5, 10e9)
        half = round(m * 0.5)
        topn = model.master_blocking_seconds("topn", m, half, stream)
        distinct = model.master_blocking_seconds("distinct", m, half, stream)
        groupby = model.master_blocking_seconds("groupby", m, half, stream)
        assert topn < distinct < groupby

    def test_spark_first_run_slower(self):
        model = CostModel()
        first = model.spark_completion("distinct", 10**7, 5, 1000, True)
        later = model.spark_completion("distinct", 10**7, 5, 1000, False)
        assert first.total > later.total

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            CostModel().master_service_rate("sort")

    def test_hardware_profiles_table3(self):
        assert HARDWARE_PROFILES["tofino2"]["throughput_bps"] == 12.8e12
        assert (HARDWARE_PROFILES["tofino2"]["latency_s"]
                < HARDWARE_PROFILES["server"]["latency_s"])


class TestSparkBaseline:
    def test_result_is_ground_truth(self, products_table):
        query = DistinctQuery(key_columns=("seller",))
        report = SparkBaseline().run(query, products_table)
        assert report.result == execute(query, products_table)

    def test_extrapolation_scales_time(self, products_table):
        query = DistinctQuery(key_columns=("seller",))
        small = SparkBaseline().run(query, products_table)
        big = SparkBaseline().run(query, products_table,
                                  extrapolate_to_rows=10_000_000)
        assert big.completion_seconds > small.completion_seconds

    def test_result_cardinality(self):
        from collections import Counter

        assert result_cardinality(frozenset({1, 2})) == 2
        assert result_cardinality({1: "a"}) == 1
        assert result_cardinality(Counter({1: 3})) == 3
        assert result_cardinality(7) == 1
        assert result_cardinality(None) == 0

    def test_total_input_entries_table(self, products_table):
        query = DistinctQuery(key_columns=("seller",))
        assert total_input_entries(query, products_table) == 4


class TestCheetahRuntime:
    @pytest.fixture
    def table(self):
        import random

        rng = random.Random(0)
        return Table.from_rows("T", [
            {"k": rng.randrange(30), "v": rng.randrange(1000)}
            for _ in range(2000)
        ])

    def test_result_matches_ground_truth(self, table):
        query = DistinctQuery(key_columns=("k",))
        report = CheetahRuntime().run(query, table)
        assert report.result == execute(query, table)

    def test_breakdown_components_positive(self, table):
        query = DistinctQuery(key_columns=("k",))
        report = CheetahRuntime().run(query, table)
        assert report.breakdown.network > 0
        assert report.breakdown.other > 0
        assert report.completion_seconds == pytest.approx(
            report.breakdown.total
        )

    def test_cheetah_beats_spark_on_aggregation(self, table):
        query = GroupByQuery(key_column="k", value_column="v")
        target = 30_000_000
        cheetah = CheetahRuntime().run(query, table,
                                       extrapolate_to_rows=target)
        spark = SparkBaseline().run(query, table,
                                    extrapolate_to_rows=target)
        assert cheetah.completion_seconds < spark.completion_seconds

    def test_filter_shows_no_win(self, table):
        """BigData A's lesson: plain filtering does not benefit."""
        query = FilterQuery(predicate=Col("v") > 300)
        target = 30_000_000
        cheetah = CheetahRuntime().run(query, table,
                                       extrapolate_to_rows=target)
        spark = SparkBaseline().run(query, table,
                                    extrapolate_to_rows=target)
        assert cheetah.completion_seconds > spark.completion_seconds * 0.8

    def test_20g_improves_network_bound_query(self, table):
        query = DistinctQuery(key_columns=("k",))
        target = 30_000_000
        at10 = CheetahRuntime(network_bps=10e9).run(
            query, table, extrapolate_to_rows=target)
        at20 = CheetahRuntime(network_bps=20e9).run(
            query, table, extrapolate_to_rows=target)
        assert at20.breakdown.network < at10.breakdown.network

    def test_compound_pipelines_serialization(self, table):
        query = CompoundQuery(parts=(
            FilterQuery(predicate=Col("v") > 500),
            DistinctQuery(key_columns=("k",)),
        ))
        compound = CheetahRuntime().run(query, table)
        separate = sum(
            CheetahRuntime().run(part, table).breakdown.network
            for part in query.parts
        )
        assert compound.breakdown.network < separate

    def test_extrapolation_per_op_direction(self, table):
        """TOP-N's unpruned fraction must shrink with scale; filter's
        must stay constant."""
        topn = TopNQuery(n=50, order_column="v")
        report_small = CheetahRuntime().run(topn, table)
        small_frac = report_small.traffic.unpruned_fraction
        report_big = CheetahRuntime().run(topn, table,
                                          extrapolate_to_rows=10_000_000)
        # Priced forwarded at big scale / big scale rows << small fraction.
        from repro.cluster.runtime import CheetahRuntime as CR

        big_fwd = CR._extrapolate_forwarded(
            "topn", report_big.traffic, 10_000_000)
        assert big_fwd / 10_000_000 < small_frac

    def test_having_max_extrapolates_at_the_tail_rate(self, table):
        """HAVING's scale law is ``tail`` for every aggregate: MAX/MIN
        runs measure the steady-state unpruned rate too, and the priced
        forwarded count at 10M rows follows it, not the warm-up-inflated
        sample average."""
        from repro.cluster.runtime import CheetahRuntime as CR

        query = HavingQuery(key_column="k", value_column="v",
                            threshold=90, aggregate="max")
        report = CheetahRuntime().run(query, table,
                                      extrapolate_to_rows=10_000_000)
        traffic = report.traffic
        assert traffic.tail_unpruned_fraction is not None
        extra = 10_000_000 - traffic.first_pass_entries
        assert CR._extrapolate_forwarded("having", traffic, 10_000_000) == (
            round(traffic.forwarded_entries
                  + extra * traffic.tail_unpruned_fraction))
        linear = round(traffic.forwarded_entries * 10_000_000
                       / traffic.first_pass_entries)
        assert CR._extrapolate_forwarded(
            "having", traffic, 10_000_000) < linear
