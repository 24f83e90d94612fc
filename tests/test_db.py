"""Tests for the columnar table store, executor, and SQL parser."""

import pytest

from repro.core.expr import Col
from repro.db import (
    DistinctQuery,
    FilterQuery,
    GroupByQuery,
    HavingQuery,
    JoinQuery,
    SkylineQuery,
    Table,
    TopNQuery,
    execute,
    parse_sql,
)
from repro.db.column import Column, ColumnType
from repro.db.queries import CompoundQuery, SortOrder
from repro.db.sql import SQLSyntaxError


class TestColumn:
    def test_type_inference(self):
        assert ColumnType.infer(3) is ColumnType.INT
        assert ColumnType.infer(3.5) is ColumnType.FLOAT
        assert ColumnType.infer("x") is ColumnType.STR
        with pytest.raises(TypeError):
            ColumnType.infer(True)
        with pytest.raises(TypeError):
            ColumnType.infer(None)

    def test_coercion(self):
        assert ColumnType.INT.coerce(3.0) == 3
        assert ColumnType.FLOAT.coerce(3) == 3.0
        with pytest.raises(TypeError):
            ColumnType.INT.coerce("x")
        with pytest.raises(TypeError):
            ColumnType.STR.coerce(5)

    def test_take(self):
        col = Column("c", ColumnType.INT, [10, 20, 30])
        assert col.take([2, 0]).values == [30, 10]


class TestTable:
    def test_from_rows_and_access(self, products_table):
        assert len(products_table) == 4
        assert products_table.row(0)["name"] == "Burger"
        assert products_table.column("price").values == [4, 7, 2, 5]

    def test_schema(self, products_table):
        assert products_table.schema == [
            ("name", ColumnType.STR),
            ("seller", ColumnType.STR),
            ("price", ColumnType.INT),
        ]

    def test_missing_column_raises(self, products_table):
        with pytest.raises(KeyError):
            products_table.column("nope")

    def test_append_checks_columns(self, products_table):
        with pytest.raises(KeyError):
            products_table.append({"name": "X"})

    def test_rows_match_row_by_index(self, products_table):
        rows = list(products_table.rows())
        assert rows == [products_table.row(i)
                        for i in range(len(products_table))]
        assert [list(row) for row in rows] == \
            [products_table.column_names] * len(rows)
        empty = Table("t", [("a", ColumnType.INT)])
        assert list(empty.rows()) == []

    def test_extend_matches_append(self):
        schema = [("k", ColumnType.INT), ("v", ColumnType.FLOAT),
                  ("s", ColumnType.STR)]
        rows = [{"k": 1, "v": 2, "s": "a", "extra": None},
                {"s": "b", "v": 0.5, "k": 3.0}]
        bulk, one_by_one = Table("t", schema), Table("t", schema)
        bulk.extend(iter(rows))
        for row in rows:
            one_by_one.append(row)
        assert list(bulk.rows()) == list(one_by_one.rows()) == [
            {"k": 1, "v": 2.0, "s": "a"}, {"k": 3, "v": 0.5, "s": "b"}]
        assert [type(v) for v in bulk.row(1).values()] == [int, float, str]

    @pytest.mark.parametrize("bad, error", [
        ({"k": 1, "s": "a"}, KeyError),
        ({"k": True, "v": 1.0, "s": "a"}, TypeError),
        ({"k": 1, "v": "x", "s": "a"}, TypeError),
        ({"k": 1, "v": 1.0, "s": 7}, TypeError),
    ])
    def test_extend_rejects_what_append_rejects(self, bad, error):
        schema = [("k", ColumnType.INT), ("v", ColumnType.FLOAT),
                  ("s", ColumnType.STR)]
        good = {"k": 1, "v": 1.0, "s": "a"}
        with pytest.raises(error) as appended:
            Table("t", schema).append(bad)
        table = Table("t", schema)
        with pytest.raises(error) as extended:
            table.extend([good, bad, good])
        assert str(extended.value) == str(appended.value)
        assert len(table) == 0

    def test_select_columns(self, products_table):
        projected = products_table.select_columns(["price"])
        assert projected.column_names == ["price"]
        assert len(projected) == 4

    def test_take(self, products_table):
        picked = products_table.take([1, 3])
        assert [r["name"] for r in picked.rows()] == ["Pizza", "Jello"]

    def test_partition_covers_all_rows(self, products_table):
        parts = products_table.partition(3)
        assert sum(len(p) for p in parts) == len(products_table)

    def test_partition_single(self, products_table):
        assert len(products_table.partition(1)[0]) == 4

    def test_estimated_row_bytes(self, products_table):
        assert products_table.estimated_row_bytes() > 8

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [("a", ColumnType.INT), ("a", ColumnType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [])


class TestExecutor:
    def test_distinct(self, products_table):
        result = execute(DistinctQuery(key_columns=("seller",)),
                         products_table)
        assert result.output == frozenset(
            {("McCheetah",), ("Papizza",), ("JellyFish",)}
        )

    def test_filter_rows(self, ratings_table):
        query = FilterQuery(predicate=Col("taste") > 5)
        result = execute(query, ratings_table)
        assert sum(result.output.values()) == 3

    def test_filter_count(self, ratings_table):
        query = FilterQuery(predicate=Col("taste") > 5, count_only=True)
        assert execute(query, ratings_table).output == 3

    def test_topn_desc(self, ratings_table):
        query = TopNQuery(n=3, order_column="taste")
        assert execute(query, ratings_table).output == (9, 8, 7)

    def test_topn_asc(self, ratings_table):
        query = TopNQuery(n=2, order_column="taste", order=SortOrder.ASC)
        assert execute(query, ratings_table).output == (3, 5)

    def test_groupby_max(self, products_table):
        query = GroupByQuery(key_column="seller", value_column="price")
        assert execute(query, products_table).output == {
            "McCheetah": 4, "Papizza": 7, "JellyFish": 5,
        }

    def test_groupby_sum(self, products_table):
        query = GroupByQuery(key_column="seller", value_column="price",
                             aggregate="sum")
        assert execute(query, products_table).output == {
            "McCheetah": 6, "Papizza": 7, "JellyFish": 5,
        }

    def test_having_paper_example(self, products_table):
        """HAVING SUM(price) > 5 -> (McCheetah, Papizza)."""
        query = HavingQuery(key_column="seller", value_column="price",
                            threshold=5)
        assert execute(query, products_table).output == frozenset(
            {"McCheetah", "Papizza"}
        )

    def test_join_paper_example(self, both_tables):
        """Products JOIN Ratings ON name: 4 rows, Cheetos excluded."""
        query = JoinQuery(left_table="Products", right_table="Ratings",
                          left_key="name", right_key="name")
        result = execute(query, both_tables)
        assert sum(result.output.values()) == 4
        joined_names = {dict(k)["name"] for k in result.output}
        assert "Cheetos" not in joined_names

    def test_skyline_paper_example(self, ratings_table):
        query = SkylineQuery(dimensions=("taste", "texture"))
        assert execute(query, ratings_table).output == frozenset(
            {(8, 6), (9, 4), (5, 7)}
        )

    def test_compound(self, ratings_table):
        query = CompoundQuery(parts=(
            TopNQuery(n=1, order_column="taste"),
            DistinctQuery(key_columns=("texture",)),
        ))
        output = execute(query, ratings_table).output
        assert output[0] == (9,)
        assert len(output[1]) == 5

    def test_join_requires_mapping(self, products_table):
        query = JoinQuery(left_table="a", right_table="b",
                          left_key="x", right_key="y")
        with pytest.raises(ValueError):
            execute(query, products_table)

    def test_result_equality_semantics(self, ratings_table):
        a = execute(DistinctQuery(key_columns=("texture",)), ratings_table)
        b = execute(DistinctQuery(key_columns=("texture",)), ratings_table)
        assert a == b


class TestSQLParser:
    def test_distinct(self):
        query = parse_sql("SELECT DISTINCT seller FROM Products")
        assert isinstance(query, DistinctQuery)
        assert list(query.key_columns) == ["seller"]

    def test_multi_column_distinct(self):
        query = parse_sql("SELECT DISTINCT a, b FROM T")
        assert query.multi_column

    def test_filter_with_like_and_parens(self):
        query = parse_sql(
            "SELECT * FROM Ratings WHERE (taste > 5) "
            "OR (texture > 4 AND name LIKE 'e%s')"
        )
        assert isinstance(query, FilterQuery)
        assert query.predicate.evaluate(
            {"taste": 7, "texture": 0, "name": "x"}
        )

    def test_count_query(self):
        query = parse_sql(
            "SELECT COUNT() FROM Rankings WHERE avgDuration < 10"
        )
        assert query.count_only

    def test_top_n(self):
        query = parse_sql(
            "SELECT TOP 250 * FROM UserVisits ORDER BY adRevenue"
        )
        assert isinstance(query, TopNQuery)
        assert query.n == 250 and query.order_column == "adRevenue"

    def test_top_n_asc(self):
        query = parse_sql("SELECT TOP 5 * FROM T ORDER BY x ASC")
        assert query.order is SortOrder.ASC

    def test_groupby_max(self):
        query = parse_sql(
            "SELECT userAgent, MAX(adRevenue) FROM UserVisits "
            "GROUP BY userAgent"
        )
        assert isinstance(query, GroupByQuery)
        assert query.aggregate == "max"
        assert query.value_column == "adRevenue"

    def test_having(self):
        query = parse_sql(
            "SELECT languageCode FROM UserVisits GROUP BY languageCode "
            "HAVING SUM(adRevenue) > 1000000"
        )
        assert isinstance(query, HavingQuery)
        assert query.threshold == 1_000_000

    def test_join(self):
        query = parse_sql(
            "SELECT * FROM UserVisits JOIN Rankings "
            "ON UserVisits.destURL = Rankings.pageURL"
        )
        assert isinstance(query, JoinQuery)
        assert query.left_key == "destURL"
        assert query.right_key == "pageURL"

    def test_skyline(self):
        query = parse_sql(
            "SELECT name FROM Ratings SKYLINE OF taste, texture"
        )
        assert isinstance(query, SkylineQuery)
        assert list(query.dimensions) == ["taste", "texture"]

    def test_not_operator(self):
        query = parse_sql("SELECT * FROM T WHERE NOT x > 5")
        assert not query.predicate.evaluate({"x": 6})

    def test_string_literal(self):
        query = parse_sql("SELECT * FROM T WHERE name = 'Pizza'")
        assert query.predicate.evaluate({"name": "Pizza"})

    @pytest.mark.parametrize("bad", [
        "SELECT",
        "SELECT * FROM",
        "SELECT * FROM T",                       # full scan unsupported
        "SELECT TOP 5 * FROM T",                 # TOP without ORDER BY
        "SELECT * FROM T ORDER BY x",            # ORDER BY without TOP
        "SELECT x FROM T GROUP BY x HAVING SUM(y) < 5",  # '<' deferred
        "SELECT * FROM T WHERE x >! 5",
        "FOO BAR",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SQLSyntaxError):
            parse_sql(bad)

    def test_parse_execute_roundtrip(self, both_tables):
        query = parse_sql(
            "SELECT seller FROM Products GROUP BY seller "
            "HAVING SUM(price) > 5"
        )
        result = execute(query, both_tables["Products"])
        assert result.output == frozenset({"McCheetah", "Papizza"})
