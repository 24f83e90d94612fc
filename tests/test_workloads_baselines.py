"""Tests for workload generators, OPT baselines, and the NetAccel model."""

import pytest

from repro.baselines.netaccel import NetAccelModel
from repro.baselines import streaming_opt as opt
from repro.workloads.bigdata import (
    BENCHMARK_QUERIES,
    BigDataGenerator,
    benchmark_query,
    q6_sampled_tables,
)
from repro.workloads.streams import (
    join_key_streams,
    keyed_value_stream,
    random_order_stream,
    random_points,
    value_stream,
    zipf_keys,
)
from repro.workloads.tpch import (
    TPCHGenerator,
    q3_filtered_inputs,
    q3_reference_result,
    tpch_q3_queries,
)


class TestStreams:
    def test_random_order_stream_covers_keys(self):
        stream = random_order_stream(1000, 100, seed=1)
        assert len(stream) == 1000
        assert set(stream) == set(range(100))

    def test_random_order_deterministic(self):
        assert random_order_stream(100, 10, 5) == random_order_stream(100, 10, 5)

    def test_zipf_skew(self):
        keys = zipf_keys(20_000, 1000, skew=1.2, seed=2)
        from collections import Counter

        counts = Counter(keys)
        top = counts.most_common(10)
        # The top key should be much hotter than the median.
        assert top[0][1] > 20_000 / 1000 * 5

    def test_random_points_ranges(self):
        points = random_points(500, dimensions=2,
                               value_ranges=[256, 65536], seed=3)
        assert all(p[0] < 256 and p[1] < 65536 for p in points)

    def test_random_points_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_points(10, dimensions=2, value_ranges=[256])

    def test_join_key_streams_overlap(self):
        left, right = join_key_streams(5000, 5000, overlap=0.5,
                                       key_space=10_000, seed=4)
        matches = opt.opt_unpruned_join(left, right)
        disjoint_l, disjoint_r = join_key_streams(
            5000, 5000, overlap=0.0, key_space=10_000, seed=4)
        assert matches > opt.opt_unpruned_join(disjoint_l, disjoint_r)

    def test_keyed_value_stream_shape(self):
        stream = keyed_value_stream(100, 10, seed=5)
        assert len(stream) == 100
        assert all(isinstance(k, int) and v >= 1 for k, v in stream)


class TestOptBaselines:
    def test_distinct(self):
        assert opt.opt_unpruned_distinct([1, 1, 2, 2]) == 0.5
        assert opt.opt_unpruned_distinct([]) == 0.0

    def test_topn(self):
        stream = [1, 2, 3, 4, 5]
        # Every prefix value enters the top-5 heap.
        assert opt.opt_unpruned_topn(stream, 5) == 1.0
        # Descending: only the first enters beyond the warm-up.
        assert opt.opt_unpruned_topn([5, 4, 3, 2, 1], 1) == 0.2

    def test_skyline(self):
        points = [(1, 1), (2, 2), (0, 0)]
        # (0,0) dominated by earlier (2,2): pruned.
        assert opt.opt_unpruned_skyline(points) == pytest.approx(2 / 3)

    def test_groupby_max(self):
        stream = [("a", 1), ("a", 2), ("a", 1)]
        assert opt.opt_unpruned_groupby_max(stream) == pytest.approx(2 / 3)

    def test_join(self):
        assert opt.opt_unpruned_join([1, 2], [2, 3]) == 0.5

    def test_having(self):
        stream = [("a", 10), ("a", 10), ("b", 1)]
        assert opt.opt_unpruned_having(stream, 15) == pytest.approx(1 / 3)

    def test_series_monotonicity_distinct(self):
        stream = random_order_stream(20_000, 500, seed=6)
        series = opt.opt_unpruned_series(opt.opt_unpruned_distinct, stream,
                                         [5000, 10_000, 20_000])
        assert series == sorted(series, reverse=True)


class TestBigDataGenerator:
    def test_schemas(self):
        generator = BigDataGenerator(scale=1e-4, seed=0)
        rankings = generator.rankings()
        visits = generator.uservisits()
        assert rankings.column_names == ["pageURL", "pageRank",
                                         "avgDuration"]
        assert len(visits.column_names) == 9

    def test_rankings_nearly_sorted(self):
        generator = BigDataGenerator(scale=1e-4, seed=0)
        ranks = list(generator.rankings(permuted=False).column("pageRank"))
        inversions = sum(
            1 for a, b in zip(ranks, ranks[1:]) if a > b + 10
        )
        assert inversions == 0

    def test_permutation_breaks_order(self):
        generator = BigDataGenerator(scale=1e-4, seed=0)
        ranks = list(generator.rankings(permuted=True).column("pageRank"))
        assert ranks != sorted(ranks)

    def test_desturl_references_rankings(self):
        generator = BigDataGenerator(scale=1e-4, seed=0)
        tables = generator.tables()
        urls = set(tables["Rankings"].column("pageURL"))
        hits = sum(
            1 for u in tables["UserVisits"].column("destURL") if u in urls
        )
        assert hits == len(tables["UserVisits"])   # 100% match (note 10)

    def test_q6_sampling_reduces(self):
        generator = BigDataGenerator(scale=1e-4, seed=0)
        tables = generator.tables()
        sampled = q6_sampled_tables(tables, 0.1, seed=1)
        assert len(sampled["Rankings"]) < len(tables["Rankings"]) * 0.2

    def test_all_benchmark_queries_construct(self):
        for number in range(1, 8):
            query = benchmark_query(number)
            assert query.relevant_columns()
        with pytest.raises(ValueError):
            benchmark_query(8)

    def test_registry_complete(self):
        assert set(BENCHMARK_QUERIES) >= {
            "bigdata_a", "bigdata_b", "bigdata_a_plus_b",
            "q1", "q2", "q3", "q4", "q5", "q6", "q7",
        }

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            BigDataGenerator(scale=0)


class TestTPCH:
    def test_cardinality_ratios(self):
        generator = TPCHGenerator(scale=1e-2, seed=0)
        tables = generator.tables()
        assert len(tables["orders"]) == 10 * len(tables["customer"])
        assert len(tables["lineitem"]) == 4 * len(tables["orders"])

    def test_q3_filters_selectivity(self):
        generator = TPCHGenerator(scale=1e-2, seed=0)
        tables = generator.tables()
        filtered = q3_filtered_inputs(tables)
        cust_rate = len(filtered["customer"]) / len(tables["customer"])
        assert 0.1 < cust_rate < 0.3          # 1 of 5 segments
        orders_rate = len(filtered["orders"]) / len(tables["orders"])
        assert 0.3 < orders_rate < 0.6

    def test_q3_reference_result_ranked(self):
        generator = TPCHGenerator(scale=1e-2, seed=0)
        ranked = q3_reference_result(generator.tables(), limit=10)
        revenues = [rev for _, rev in ranked]
        assert revenues == sorted(revenues, reverse=True)
        assert len(ranked) <= 10

    def test_q3_queries_shapes(self):
        join_co, join_ol, topn = tpch_q3_queries()
        assert join_co.query_type == "join"
        assert join_ol.left_key == "l_orderkey"
        assert topn.n == 10


class TestNetAccelModel:
    def test_drain_linear(self):
        model = NetAccelModel()
        assert model.drain_seconds(2_000_000) == pytest.approx(
            2 * model.drain_seconds(1_000_000)
        )

    def test_paper_figure7_magnitude(self):
        """Fig 7: ~40% of a 1.5M-row input drains in ~0.6s."""
        model = NetAccelModel()
        assert model.drain_seconds(600_000) == pytest.approx(0.6)

    def test_completion_lower_bound_additive(self):
        model = NetAccelModel()
        assert model.completion_lower_bound(1.0, 1_000_000) == pytest.approx(
            2.0
        )

    def test_switch_cpu_slower_than_server(self):
        model = NetAccelModel()
        for op in ("groupby", "distinct"):
            assert (model.switch_cpu_seconds(op, 10**6)
                    > model.server_seconds(op, 10**6))
            assert model.cpu_slowdown(op) == pytest.approx(10.0)

    def test_unknown_op(self):
        with pytest.raises(KeyError):
            NetAccelModel().switch_cpu_seconds("sort", 10)

    def test_negative_result_rejected(self):
        with pytest.raises(ValueError):
            NetAccelModel().drain_seconds(-1)
