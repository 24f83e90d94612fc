"""Query descriptions — the paper's seven query shapes plus compounds.

A query object carries everything the planner needs: the relevant
columns (what the CWorkers put on the wire), the parameters sent to the
switch control plane, and what the master must still do.  Execution
semantics live in :mod:`repro.db.executor`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Sequence, Tuple

from repro.core.expr import Expr


class Query:
    """Base class for all query descriptions."""

    #: The switch query type: a key of the operator table (``compound``
    #: and ``abstract`` excepted).
    query_type: str = "abstract"

    def relevant_columns(self) -> List[str]:
        """Columns the metadata stream must carry (late materialization)."""
        raise NotImplementedError


@dataclasses.dataclass
class FilterQuery(Query):
    """``SELECT <columns> FROM t WHERE predicate`` (optionally COUNT)."""

    predicate: Expr
    columns: Sequence[str] = ("*",)
    count_only: bool = False
    #: Optional explicit source table (multi-table workloads).
    table: Optional[str] = None
    query_type = "filter"

    def relevant_columns(self) -> List[str]:
        return _expr_columns(self.predicate)


@dataclasses.dataclass
class DistinctQuery(Query):
    """``SELECT DISTINCT <key_columns> FROM t``."""

    key_columns: Sequence[str]
    #: Optional explicit source table (multi-table workloads).
    table: Optional[str] = None
    query_type = "distinct"

    def relevant_columns(self) -> List[str]:
        return list(self.key_columns)

    @property
    def multi_column(self) -> bool:
        """Multi-column DISTINCT keys are fingerprinted (Example #8)."""
        return len(self.key_columns) > 1


class SortOrder(enum.Enum):
    """ORDER BY direction (the pruners assume DESC = "largest N")."""

    DESC = "desc"
    ASC = "asc"


@dataclasses.dataclass
class TopNQuery(Query):
    """``SELECT TOP n <columns> FROM t ORDER BY order_column``."""

    n: int
    order_column: str
    columns: Sequence[str] = ("*",)
    order: SortOrder = SortOrder.DESC
    randomized: bool = True
    delta: float = 1e-4
    #: Optional explicit source table (multi-table workloads).
    table: Optional[str] = None
    query_type = "topn"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"TOP n must be positive, got {self.n}")

    def relevant_columns(self) -> List[str]:
        return [self.order_column]


@dataclasses.dataclass
class GroupByQuery(Query):
    """``SELECT key, AGG(value) FROM t GROUP BY key`` (MAX/MIN offloaded)."""

    key_column: str
    value_column: str
    aggregate: str = "max"
    #: Optional explicit source table (multi-table workloads).
    table: Optional[str] = None
    query_type = "groupby"

    def __post_init__(self) -> None:
        if self.aggregate not in ("max", "min", "sum", "count"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")

    def relevant_columns(self) -> List[str]:
        return [self.key_column, self.value_column]

    @property
    def switch_offloadable(self) -> bool:
        """Only entry-dominated aggregates prune per entry (§4.2)."""
        return self.aggregate in ("max", "min")


class JoinType(enum.Enum):
    """INNER is SQL's default; footnote 3: LEFT/RIGHT OUTER joins are
    prunable with slight modifications (only the inner side is pruned)."""

    INNER = "inner"
    LEFT_OUTER = "left_outer"
    RIGHT_OUTER = "right_outer"


@dataclasses.dataclass
class JoinQuery(Query):
    """``SELECT * FROM left [LEFT|RIGHT] JOIN right ON lkey = rkey``."""

    left_table: str
    right_table: str
    left_key: str
    right_key: str
    join_type: JoinType = JoinType.INNER
    query_type = "join"

    def relevant_columns(self) -> List[str]:
        return [self.left_key, self.right_key]

    @property
    def prunable_sides(self) -> tuple:
        """Which tables the switch may prune: an OUTER side must reach
        the master in full (its unmatched rows are part of the output)."""
        if self.join_type is JoinType.LEFT_OUTER:
            return (self.right_table,)
        if self.join_type is JoinType.RIGHT_OUTER:
            return (self.left_table,)
        return (self.left_table, self.right_table)


@dataclasses.dataclass
class HavingQuery(Query):
    """``SELECT key FROM t GROUP BY key HAVING AGG(value) > threshold``."""

    key_column: str
    value_column: str
    threshold: float
    aggregate: str = "sum"
    #: Optional explicit source table (multi-table workloads).
    table: Optional[str] = None
    query_type = "having"

    def __post_init__(self) -> None:
        if self.aggregate not in ("sum", "count", "max", "min"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")

    def relevant_columns(self) -> List[str]:
        return [self.key_column, self.value_column]


@dataclasses.dataclass
class SkylineQuery(Query):
    """``SELECT <columns> FROM t SKYLINE OF <dimensions>`` (maximising)."""

    dimensions: Sequence[str]
    columns: Sequence[str] = ("*",)
    #: Optional explicit source table (multi-table workloads).
    table: Optional[str] = None
    query_type = "skyline"

    def __post_init__(self) -> None:
        if len(self.dimensions) < 1:
            raise ValueError("skyline needs at least one dimension")

    def relevant_columns(self) -> List[str]:
        return list(self.dimensions)


@dataclasses.dataclass
class CompoundQuery(Query):
    """Several queries executed sequentially over the same data flow —
    e.g. Big Data "A + B" (§8.2.1) — packed concurrently on the switch."""

    parts: Sequence[Query]
    query_type = "compound"

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("a compound query needs >= 2 parts")

    def relevant_columns(self) -> List[str]:
        columns: List[str] = []
        for part in self.parts:
            for col in part.relevant_columns():
                if col not in columns:
                    columns.append(col)
        return columns


def _expr_columns(expr: Expr) -> List[str]:
    """Column names referenced by an expression, in first-seen order."""
    from repro.core.expr import And, BinOp, Cmp, Col, Like, Not, Or

    found: List[str] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Col):
            if node.name not in found:
                found.append(node.name)
        elif isinstance(node, (And, Or, Cmp, BinOp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, Like):
            walk(node.target)

    walk(expr)
    return found
