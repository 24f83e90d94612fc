"""The operator table: each of the seven pruning operators, declared once.

The switch ships one program, compiled ahead of time, that holds every
pruning algorithm; per query the control plane installs only a (query
type, parameters) pair (§3, §7.1).  :data:`OPERATORS` is that program's
operator set, one :class:`Operator` record per query type carrying every
per-operator fact the planner, compiler, P4 emitter, runtime and
cluster simulation need.

The reference path, ``QueryPlan.run``, shares only the parameters,
routing, scale law and emitter: its row-level loops stay in
:mod:`repro.db.planner` and never read :class:`EntryEncoding`, so the
served path and its oracle cannot agree by construction.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.base import PruningAlgorithm
from repro.core.distinct import DistinctPruner
from repro.core.expr import Col
from repro.core.filtering import FilterPruner
from repro.core.groupby import (
    GroupAggregate,
    GroupByPruner,
    GroupBySumAggregator,
)
from repro.core.having import HavingAggregate, HavingPruner
from repro.core.join import FilterKind, JoinPruner
from repro.core.skyline import Projection, SkylinePruner
from repro.core.topn import TopNDeterministic, TopNRandomized
from repro.net.wire import decode_numeric
from repro.switch import p4gen


@dataclasses.dataclass(frozen=True)
class EntryEncoding:
    """A single-pass query's wire entry: CWorkers ship the row id and the
    encoded ``columns`` (raw values through ``transforms`` first), the
    switch reads the words back with ``to_entry``.  ``numeric`` columns
    must not be strings (only a fingerprint rides the wire); ``label``
    names them in the rejection."""

    columns: Tuple[str, ...]
    to_entry: Callable[[Tuple[int, ...]], Any]
    numeric: Tuple[str, ...] = ()
    label: str = ""
    transforms: Optional[Mapping[str, Callable]] = None


@dataclasses.dataclass(frozen=True)
class Operator:
    """Every facet of one pruning operator (see the module docstring)."""

    name: str  # Query.query_type and QuerySpec.query_type
    #: Spec parameters the compiler fills in when a spec omits them.
    defaults: Mapping[str, Any]
    #: ``(params with defaults, compiler) -> pruner``.
    pruner: Callable[[Dict[str, Any], Any], PruningAlgorithm]
    pruners: Tuple[type, ...]  # what ``pruner`` builds; generate_p4 matches
    #: ``(planner, query, defaults) -> spec params`` the planner ships.
    params: Callable[[Any, Any, Mapping[str, Any]], Tuple]
    emit: Callable[[PruningAlgorithm], List[str]]  # the P4 emitter
    #: Forwarded entries vs input (Fig. 11): ``"log"`` (Theorem 3),
    #: ``"tail"`` (steady-state tail rate, if measured) or ``"linear"``.
    scale_law: str
    p4_examples: Mapping[str, Tuple]  # ``repro p4 <key>`` -> spec params
    required: Tuple[str, ...] = ()  # spec parameters without a default
    route: Optional[Callable[[Any], Any]] = None  # None: route the entry
    #: The served path of a single-pass query; ``None`` hands the query
    #: to the ``ClusterSimulation`` driver ``multi_pass`` names.
    entry: Callable[[Any], Optional[EntryEncoding]] = lambda query: None
    multi_pass: Optional[str] = None
    second_pass_pruned: bool = False  # else pass 2 bypasses the switch


def _filter_entry(query) -> EntryEncoding:
    columns = tuple(query.relevant_columns())

    def to_row(values):
        return {column: decode_numeric(word)
                for column, word in zip(columns, values[1:])}

    return EntryEncoding(columns, to_row, numeric=columns,
                         label="FILTER predicate")


FILTER = Operator(
    name="filter",
    defaults={"worker_assist": False},
    required=("predicate",),
    pruner=lambda p, c: FilterPruner(p["predicate"],
                                     worker_assist=p["worker_assist"]),
    pruners=(FilterPruner,),
    params=lambda planner, q, defaults: (("predicate", q.predicate),),
    emit=p4gen.emit_filter,
    scale_law="linear",
    entry=_filter_entry,
    p4_examples={"filter": (("predicate", Col("c") > 0),)},
)


def _distinct_entry(query) -> EntryEncoding:
    columns = tuple(query.key_columns)
    if len(columns) == 1:
        return EntryEncoding(columns, lambda values: values[1])
    return EntryEncoding(columns, lambda values: tuple(values[1:]))


DISTINCT = Operator(
    name="distinct",
    defaults={"d": 4096, "w": 2, "fingerprint_bits": None},
    pruner=lambda p, c: DistinctPruner(
        rows=p["d"], width=p["w"], fingerprint_bits_=p["fingerprint_bits"],
        seed=c.seed),
    pruners=(DistinctPruner,),
    params=lambda planner, q, defaults: (
        ("d", planner.scaled(defaults["d"])),),
    emit=p4gen.emit_distinct,
    scale_law="tail",
    entry=_distinct_entry,
    p4_examples={"distinct": ()},
)


def _topn_pruner(p: Dict[str, Any], compiler) -> PruningAlgorithm:
    n = p["n"]
    if not p["randomized"]:
        return TopNDeterministic(n=n, thresholds=p.get("w", 4))
    if "d" in p or "w" in p:
        return TopNRandomized(n=n, rows=p.get("d", 4096),
                              width=p.get("w", 4), seed=compiler.seed)
    # Reserve one stage for the pack's prune-bit select (§6).
    budget = max(1, compiler.switch.stages - 1)
    max_width = min(budget, p.get("max_w", budget))
    return TopNRandomized.configured(n, p["delta"], max_width=max_width,
                                     seed=compiler.seed)


def _topn_entry(query) -> EntryEncoding:
    # repro.db imports the compiler, which imports this table.
    from repro.db.queries import SortOrder

    column = query.order_column
    transforms = None
    if query.order is SortOrder.ASC:
        # The switch registers keep "largest seen"; ascending order
        # negates at the CWorker so the same program applies.
        transforms = {column: lambda value: -value}
    return EntryEncoding((column,), lambda values: decode_numeric(values[1]),
                         numeric=(column,), label="TOP-N ordering",
                         transforms=transforms)


TOPN = Operator(
    name="topn",
    defaults={"n": 250, "randomized": True, "delta": 1e-4},
    pruner=_topn_pruner,
    pruners=(TopNDeterministic, TopNRandomized),
    params=lambda planner, q, defaults: (
        ("n", q.n), ("randomized", q.randomized), ("delta", q.delta)),
    emit=p4gen.emit_topn,
    scale_law="log",
    entry=_topn_entry,
    p4_examples={"topn_det": (("randomized", False),),
                 "topn_rand": (("w", 4),)},
)


def _skyline_params(planner, query, defaults) -> Tuple:
    # Table 2's default w=10 counts *logical* stages; fold the point
    # store into the physical pipeline: D-dim points take 2 stages
    # each plus log2(D) + 2 overhead stages (projection + prune bit).
    dims = len(query.dimensions)
    log_d = max(1, math.ceil(math.log2(max(2, dims))))
    width = max(1, (planner.switch.stages - log_d) // 2 - 1)
    return (("D", dims), ("w", width))


def _skyline_entry(query) -> EntryEncoding:
    dimensions = tuple(query.dimensions)
    return EntryEncoding(
        dimensions,
        lambda values: tuple(decode_numeric(word) for word in values[1:]),
        numeric=dimensions, label="SKYLINE dimensions")


SKYLINE = Operator(
    name="skyline",
    defaults={"D": 2, "w": 10, "projection": "aph"},
    pruner=lambda p, c: SkylinePruner(
        dimensions=p["D"], width=p["w"],
        projection=Projection(p["projection"])),
    pruners=(SkylinePruner,),
    params=_skyline_params,
    emit=p4gen.emit_skyline,
    scale_law="log",
    entry=_skyline_entry,
    p4_examples={"skyline": ()},
)


def _groupby_entry(query) -> Optional[EntryEncoding]:
    if not query.switch_offloadable:
        return None
    return EntryEncoding(
        (query.key_column, query.value_column),
        lambda values: (values[1], decode_numeric(values[2])),
        numeric=(query.value_column,), label="GROUP BY value")


GROUPBY = Operator(
    name="groupby",
    defaults={"d": 4096, "w": 8, "aggregate": "max"},
    pruner=lambda p, c: GroupByPruner(
        rows=p["d"], width=p["w"],
        aggregate=GroupAggregate(p["aggregate"]), seed=c.seed),
    pruners=(GroupByPruner,),
    params=lambda planner, q, defaults: (
        ("aggregate", q.aggregate), ("d", planner.scaled(defaults["d"]))),
    emit=p4gen.emit_groupby,
    scale_law="tail",
    route=lambda entry: entry[0],
    entry=_groupby_entry,
    multi_pass="_sim_groupby_sum",
    p4_examples={"groupby": ()},
)


def groupby_sum_aggregator(planner, query) -> GroupBySumAggregator:
    """The in-switch partial-aggregation matrix of a SUM/COUNT GROUP BY
    (§6), sized like the GROUP BY matrix under the planner's scale."""
    defaults = GROUPBY.defaults
    return GroupBySumAggregator(
        rows=planner.scaled(defaults["d"], floor=1), width=defaults["w"],
        count_mode=(query.aggregate == "count"), seed=planner.seed)


JOIN = Operator(
    name="join",
    defaults={"M_bits": 4 * 2 ** 20 * 8, "H": 3, "kind": "bf"},
    pruner=lambda p, c: JoinPruner(
        size_bits=p["M_bits"], hashes=p["H"], kind=FilterKind(p["kind"]),
        seed=c.seed),
    pruners=(JoinPruner,),
    params=lambda planner, q, defaults: (
        ("M_bits", planner.scaled(defaults["M_bits"], floor=1024 * 8)),),
    emit=p4gen.emit_join,
    scale_law="linear",
    route=lambda entry: entry[1],
    multi_pass="_sim_join",
    second_pass_pruned=True,
    p4_examples={"join": ()},
)


HAVING = Operator(
    name="having",
    defaults={"aggregate": "sum", "w": 1024, "d": 3},
    required=("threshold",),
    pruner=lambda p, c: HavingPruner(
        threshold=p["threshold"],
        aggregate=HavingAggregate(p["aggregate"]), width=p["w"],
        depth=p["d"], seed=c.seed),
    pruners=(HavingPruner,),
    params=lambda planner, q, defaults: (
        ("threshold", q.threshold), ("aggregate", q.aggregate)),
    emit=p4gen.emit_having,
    scale_law="tail",
    route=lambda entry: entry[0],
    multi_pass="_sim_having",
    p4_examples={"having": (("threshold", 1e6),)},
)


#: The precompiled data plane's operators, by query type.
OPERATORS: Dict[str, Operator] = {
    op.name: op
    for op in (FILTER, DISTINCT, TOPN, SKYLINE, GROUPBY, JOIN, HAVING)
}
