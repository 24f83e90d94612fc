"""Reference executor: ground-truth ``Q(D)`` for every query shape.

The same executor runs on original *and* pruned data — that is the whole
point of pruning (§3): the master "thinks" it is running the query on the
pruned dataset and completes the operation, and the result must equal
running on the full data.  Tests assert exactly that equality.

Output canonicalisation: results are returned in forms where equality is
well-defined under row reordering (frozensets / sorted multisets /
dicts), since pruning changes arrival order.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.db.queries import (
    CompoundQuery,
    DistinctQuery,
    FilterQuery,
    GroupByQuery,
    HavingQuery,
    JoinQuery,
    JoinType,
    Query,
    SkylineQuery,
    SortOrder,
    TopNQuery,
)
from repro.db.table import Row, Table

TableSet = Union[Table, Mapping[str, Table]]


@dataclasses.dataclass
class ExecutionResult:
    """A canonicalised query result."""

    query: Query
    output: Any

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionResult):
            return NotImplemented
        return self.output == other.output

    def __repr__(self) -> str:  # pragma: no cover
        preview = repr(self.output)
        if len(preview) > 120:
            preview = preview[:117] + "..."
        return f"ExecutionResult({type(self.query).__name__}, {preview})"


def resolve_table(tables: TableSet, name: str = None) -> Table:
    """Resolve a single-table query's source from a ``TableSet``.

    A bare :class:`Table` is returned as-is; a mapping is indexed by
    ``name`` when given, and a one-entry mapping resolves to its only
    table.  The executor, the planner's runners and
    :class:`repro.cluster.simulation.ClusterSimulation` all use it, so
    every path agrees on which table a query reads.
    """
    if isinstance(tables, Table):
        return tables
    if name is not None:
        return tables[name]
    if len(tables) != 1:
        raise ValueError("query needs exactly one table or an explicit name")
    return next(iter(tables.values()))


def execute(query: Query, tables: TableSet) -> ExecutionResult:
    """Run ``query`` against ``tables`` and return the canonical result."""
    handler = _HANDLERS.get(type(query))
    if handler is None:
        raise TypeError(f"no executor for {type(query).__name__}")
    return ExecutionResult(query=query, output=handler(query, tables))


# -- per-query handlers --------------------------------------------------------

def _execute_filter(query: FilterQuery, tables: TableSet):
    table = resolve_table(tables, query.table)
    matches = [row for row in table.rows() if query.predicate.evaluate(row)]
    if query.count_only:
        return len(matches)
    return _row_multiset(matches, query.columns, table)


def _execute_distinct(query: DistinctQuery, tables: TableSet):
    table = resolve_table(tables, query.table)
    return frozenset(
        tuple(row[c] for c in query.key_columns) for row in table.rows()
    )


def _execute_topn(query: TopNQuery, tables: TableSet):
    table = resolve_table(tables, query.table)
    values = list(table.column(query.order_column))
    reverse = query.order is SortOrder.DESC
    values.sort(reverse=reverse)
    return tuple(values[: query.n])


def _execute_groupby(query: GroupByQuery, tables: TableSet):
    table = resolve_table(tables, query.table)
    groups: Dict[Any, List[float]] = {}
    for row in table.rows():
        groups.setdefault(row[query.key_column], []).append(
            row[query.value_column]
        )
    agg = {
        "max": max,
        "min": min,
        "sum": sum,
        "count": len,
    }[query.aggregate]
    return {key: agg(values) for key, values in groups.items()}


def _execute_join(query: JoinQuery, tables: TableSet):
    if isinstance(tables, Table):
        raise ValueError("JOIN needs a mapping of table name -> Table")
    join_type = getattr(query, "join_type", JoinType.INNER)
    if join_type is JoinType.RIGHT_OUTER:
        # Mirror: a RIGHT OUTER join is the LEFT OUTER of the swap.
        mirrored = JoinQuery(
            left_table=query.right_table, right_table=query.left_table,
            left_key=query.right_key, right_key=query.left_key,
            join_type=JoinType.LEFT_OUTER,
        )
        return _execute_join(mirrored, tables)
    left = tables[query.left_table]
    right = tables[query.right_table]
    by_key: Dict[Any, List[Row]] = {}
    for row in right.rows():
        by_key.setdefault(row[query.right_key], []).append(row)
    joined = Counter()
    null_row = {name: None for name in right.column_names}
    for lrow in left.rows():
        matches = by_key.get(lrow[query.left_key], ())
        if not matches and join_type is JoinType.LEFT_OUTER:
            matches = (null_row,)
        for rrow in matches:
            merged = dict(lrow)
            for name, value in rrow.items():
                merged[f"{query.right_table}.{name}"] = value
            joined[tuple(sorted(merged.items()))] += 1
    return joined


def _execute_having(query: HavingQuery, tables: TableSet):
    table = resolve_table(tables, query.table)
    groups: Dict[Any, List[float]] = {}
    for row in table.rows():
        groups.setdefault(row[query.key_column], []).append(
            row[query.value_column]
        )
    agg = {
        "sum": sum,
        "count": len,
        "max": max,
        "min": min,
    }[query.aggregate]
    return frozenset(
        key for key, values in groups.items() if agg(values) > query.threshold
    )


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x >= y for x, y in zip(a, b)) and any(
        x > y for x, y in zip(a, b)
    )


def _execute_skyline(query: SkylineQuery, tables: TableSet):
    table = resolve_table(tables, query.table)
    points = {
        tuple(row[d] for d in query.dimensions) for row in table.rows()
    }
    return frozenset(
        p for p in points
        if not any(_dominates(q, p) for q in points if q != p)
    )


def _execute_compound(query: CompoundQuery, tables: TableSet):
    return tuple(execute(part, tables).output for part in query.parts)


def _row_multiset(rows: List[Row], columns: Sequence[str],
                  table: Table) -> Counter:
    """Rows as an order-insensitive multiset of value tuples."""
    if columns == ("*",) or list(columns) == ["*"]:
        columns = table.column_names
    return Counter(tuple(row[c] for c in columns) for row in rows)


_HANDLERS = {
    FilterQuery: _execute_filter,
    DistinctQuery: _execute_distinct,
    TopNQuery: _execute_topn,
    GroupByQuery: _execute_groupby,
    JoinQuery: _execute_join,
    HavingQuery: _execute_having,
    SkylineQuery: _execute_skyline,
    CompoundQuery: _execute_compound,
}
