"""Query planner: decompose queries into a switch part and a master part.

``QueryPlanner.plan`` maps a :class:`~repro.db.queries.Query` to a
:class:`QueryPlan` carrying (1) the :class:`QuerySpec` sent to the switch
control plane, (2) how worker rows become switch entries, and (3) how the
master completes the query from the forwarded data.

``plan.run(tables)`` executes the whole Cheetah flow *functionally* (no
timing — the cluster layer adds the cost model; the driven network
simulation lives in :class:`repro.cluster.simulation.ClusterSimulation`,
which asserts its results against this path) and returns the result
plus traffic accounting:

* JOIN runs its two passes (§4.3), with the asymmetric optimization when
  the tables are lopsided;
* HAVING SUM/COUNT and SUM/COUNT GROUP BY run the sketch / partial-
  aggregation path with the partial second pass (§4.3, §6);
* everything else is single-pass: prune, then execute the unchanged
  query on the forwarded subset.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.base import PruningAlgorithm
from repro.db.column import ColumnType
from repro.db.executor import ExecutionResult, execute, resolve_table
from repro.db.queries import (
    CompoundQuery,
    DistinctQuery,
    FilterQuery,
    GroupByQuery,
    HavingQuery,
    JoinQuery,
    Query,
    SkylineQuery,
    SortOrder,
    TopNQuery,
)
from repro.db.table import Table
from repro.sketches.fingerprint import fingerprint_length_distinct
from repro.switch.compiler import QuerySpec
from repro.switch.controlplane import ControlPlane
from repro.switch.operators import OPERATORS, groupby_sum_aggregator
from repro.switch.resources import SwitchModel, TOFINO_MODEL

TableSet = Union[Table, Mapping[str, Table]]


@dataclasses.dataclass
class TrafficStats:
    """Entry counts for the cost model (per run)."""

    first_pass_entries: int = 0
    forwarded_entries: int = 0
    second_pass_entries: int = 0
    #: Unpruned fraction over the final 20% of the stream — the
    #: steady-state miss rate, used to extrapolate cache-style pruners
    #: (DISTINCT / GROUP BY / HAVING) to larger data scales.
    tail_unpruned_fraction: Optional[float] = None

    @property
    def unpruned_fraction(self) -> float:
        """Forwarded / offered on the pruned pass."""
        if self.first_pass_entries == 0:
            return 0.0
        return self.forwarded_entries / self.first_pass_entries


def _tail_fraction(forwarded: List[bool]) -> Optional[float]:
    """Forwarded share of the final 20% of a pass (``None`` if empty)."""
    tail = forwarded[int(len(forwarded) * 0.8):]
    return sum(tail) / len(tail) if tail else None


def _offer_rows(cp: ControlPlane, fid: int, table: Table,
                entry_of: Callable[[Dict[str, Any]], Any],
                ) -> Tuple[List[int], Optional[float]]:
    """Offer every row's entry on ``fid``: the forwarded row indices and
    the unpruned rate over the pass's final 20%."""
    forwarded = [not cp.offer(fid, entry_of(row)) for row in table.rows()]
    keep = [i for i, kept in enumerate(forwarded) if kept]
    return keep, _tail_fraction(forwarded)


@dataclasses.dataclass
class CheetahRun:
    """Outcome of one end-to-end pruned execution."""

    result: ExecutionResult
    traffic: TrafficStats
    pruner: Optional[PruningAlgorithm] = None
    parts: Optional[List["CheetahRun"]] = None


@dataclasses.dataclass
class QueryPlan:
    """A planned query: switch spec + runner."""

    query: Query
    spec: Optional[QuerySpec]
    runner: Callable[[TableSet, ControlPlane], CheetahRun]

    def run(self, tables: TableSet,
            control_plane: Optional[ControlPlane] = None) -> CheetahRun:
        """Execute the Cheetah flow; a fresh control plane by default."""
        if control_plane is None:
            control_plane = ControlPlane()
        return self.runner(tables, control_plane)


class QueryPlanner:
    """Plans queries for a given switch budget."""

    def __init__(self, switch: SwitchModel = TOFINO_MODEL, seed: int = 0,
                 delta: float = 1e-4, structure_scale: float = 1.0):
        if structure_scale <= 0:
            raise ValueError(
                f"structure_scale must be positive, got {structure_scale}"
            )
        self.switch = switch
        self.seed = seed
        self.delta = delta
        #: Shrinks the switch data structures proportionally when running
        #: on sampled data, so measured pruning fractions transfer to the
        #: full-scale structure-to-data ratio (used by CheetahRuntime's
        #: extrapolation).
        self.structure_scale = structure_scale

    def scaled(self, size: int, floor: int = 4) -> int:
        """A structure dimension under the sampling scale.

        The operator table sizes every switch structure with it (the
        spec parameters and the SUM GROUP BY partial-aggregation
        matrix), so the served path and ``plan.run`` agree.
        """
        return max(floor, round(size * self.structure_scale))

    def plan(self, query: Query) -> QueryPlan:
        """Build the :class:`QueryPlan` for ``query`` (``_plan_<type>``)."""
        planner = getattr(self, f"_plan_{query.query_type}", None)
        if planner is None:
            raise TypeError(f"no plan for {type(query).__name__}")
        return planner(query)

    def spec(self, query: Query) -> QuerySpec:
        """The (type, parameters) pair shipped to the switch for
        ``query``, from its record in the operator table."""
        operator = OPERATORS[query.query_type]
        return QuerySpec(operator.name,
                         operator.params(self, query, operator.defaults))

    # -- single-pass plans --------------------------------------------------
    def _plan_single_pass(self, query: Query,
                          entry_of: Callable[[Dict[str, Any]], Any],
                          spec_for: Optional[Callable] = None) -> QueryPlan:
        """Offer every row's entry to the switch, then run the unchanged
        query on the forwarded rows.  ``spec_for(table, spec)`` adapts
        the installed spec to the input (DISTINCT fingerprints)."""
        spec = self.spec(query)

        def run(tables: TableSet, cp: ControlPlane) -> CheetahRun:
            table = resolve_table(tables, query.table)
            installation = cp.install_query(
                spec if spec_for is None else spec_for(table, spec))
            keep, tail = _offer_rows(cp, installation.fid, table, entry_of)
            return CheetahRun(
                result=execute(query, table.take(keep)),
                traffic=TrafficStats(len(table), len(keep),
                                     tail_unpruned_fraction=tail),
                pruner=installation.compiled.pruner,
            )

        return QueryPlan(query, spec, run)

    def _plan_filter(self, query: FilterQuery) -> QueryPlan:
        return self._plan_single_pass(query, lambda row: row)

    def _plan_distinct(self, query: DistinctQuery) -> QueryPlan:
        columns = tuple(query.key_columns)

        def entry_of(row):
            key = tuple(row[c] for c in columns)
            return key[0] if len(key) == 1 else key

        def spec_for(table: Table, spec: QuerySpec) -> QuerySpec:
            if not query.multi_column and all(
                    table.column(c).ctype is not ColumnType.STR
                    for c in columns):
                return spec
            # Wide/multi-column keys exceed the parseable bits:
            # fingerprint at the CWorker (Example #8), sized by
            # Theorems 6/7 from a distinct-count estimate.
            estimate = max(2, len(table) // 4)
            bits = min(64, fingerprint_length_distinct(
                estimate, spec.params_dict()["d"], self.delta))
            return dataclasses.replace(
                spec, params=spec.params + (("fingerprint_bits", bits),))

        return self._plan_single_pass(query, entry_of, spec_for)

    def _plan_topn(self, query: TopNQuery) -> QueryPlan:
        sign = 1 if query.order is SortOrder.DESC else -1
        column = query.order_column
        return self._plan_single_pass(query, lambda row: sign * row[column])

    def _plan_skyline(self, query: SkylineQuery) -> QueryPlan:
        dimensions = tuple(query.dimensions)
        return self._plan_single_pass(
            query, lambda row: tuple(row[d] for d in dimensions))

    # -- group by ------------------------------------------------------------
    def _plan_groupby(self, query: GroupByQuery) -> QueryPlan:
        if query.switch_offloadable:
            return self._plan_single_pass(
                query,
                lambda row: (row[query.key_column], row[query.value_column]))

        # SUM/COUNT group-by: in-switch partial aggregation (§6) — the
        # matrix absorbs entries into per-group partial sums; evicted and
        # drained partials are forwarded and merged at the master.
        def run_sum(tables: TableSet, cp: ControlPlane) -> CheetahRun:
            table = resolve_table(tables, query.table)
            aggregator = groupby_sum_aggregator(self, query)
            partials: Dict[Any, float] = {}
            evictions = []
            for row in table.rows():
                amount = (1 if query.aggregate == "count"
                          else row[query.value_column])
                evicted = aggregator.offer(row[query.key_column], amount)
                evictions.append(evicted is not None)
                if evicted is not None:
                    key, value = evicted
                    partials[key] = partials.get(key, 0) + value
            drained = aggregator.drain()
            for key, value in drained:
                partials[key] = partials.get(key, 0) + value
            ground_shape = {k: (int(v) if query.aggregate == "count" else v)
                            for k, v in partials.items()}
            result = ExecutionResult(query=query, output=ground_shape)
            return CheetahRun(
                result=result,
                traffic=TrafficStats(
                    len(evictions), sum(evictions) + len(drained),
                    tail_unpruned_fraction=_tail_fraction(evictions)),
            )

        return QueryPlan(query, None, run_sum)

    # -- join ------------------------------------------------------------------
    def _plan_join(self, query: JoinQuery) -> QueryPlan:
        spec = self.spec(query)

        def run(tables: TableSet, cp: ControlPlane) -> CheetahRun:
            if isinstance(tables, Table):
                raise ValueError("JOIN needs a mapping of table name -> Table")
            left = tables[query.left_table]
            right = tables[query.right_table]
            installation = cp.install_query(spec)
            pruner = installation.compiled.pruner
            # Pass 1: stream the key columns of both tables to build the
            # Bloom filters; nothing is forwarded.
            for row in left.rows():
                cp.offer(installation.fid, ("A", row[query.left_key]))
            for row in right.rows():
                cp.offer(installation.fid, ("B", row[query.right_key]))
            pruner.start_second_pass()
            # Pass 2: prune each table against the other's filter — but
            # only the *prunable* sides (an OUTER side's unmatched rows
            # are part of the output and must reach the master whole).
            prunable = query.prunable_sides
            if query.left_table in prunable:
                keep_left = [
                    i for i, row in enumerate(left.rows())
                    if not cp.offer(installation.fid,
                                    ("A", row[query.left_key]))
                ]
            else:
                keep_left = list(range(len(left)))
            if query.right_table in prunable:
                keep_right = [
                    i for i, row in enumerate(right.rows())
                    if not cp.offer(installation.fid,
                                    ("B", row[query.right_key]))
                ]
            else:
                keep_right = list(range(len(right)))
            pruned = {
                query.left_table: left.take(keep_left),
                query.right_table: right.take(keep_right),
            }
            result = execute(query, pruned)
            total = len(left) + len(right)
            return CheetahRun(
                result=result,
                traffic=TrafficStats(
                    first_pass_entries=total,
                    forwarded_entries=len(keep_left) + len(keep_right),
                    second_pass_entries=total,
                ),
                pruner=pruner,
            )

        return QueryPlan(query, spec, run)

    # -- having -----------------------------------------------------------------
    def _plan_having(self, query: HavingQuery) -> QueryPlan:
        spec = self.spec(query)

        def run(tables: TableSet, cp: ControlPlane) -> CheetahRun:
            table = resolve_table(tables, query.table)
            installation = cp.install_query(spec)
            pruner = installation.compiled.pruner
            keep, tail = _offer_rows(
                cp, installation.fid, table,
                lambda row: (row[query.key_column], row[query.value_column]))
            if query.aggregate in ("max", "min"):
                # Witness forwarding is exact: complete on forwarded rows.
                result = execute(query, table.take(keep))
                return CheetahRun(
                    result=result,
                    traffic=TrafficStats(len(table), len(keep),
                                         tail_unpruned_fraction=tail),
                    pruner=pruner,
                )
            # SUM/COUNT: the master got a superset of candidate keys; the
            # partial second pass streams only those keys' entries and
            # computes the exact aggregates (§4.3).
            candidates = pruner.candidate_keys()
            second_pass_rows = [
                i for i, row in enumerate(table.rows())
                if row[query.key_column] in candidates
            ]
            result = execute(query, table.take(second_pass_rows))
            return CheetahRun(
                result=result,
                traffic=TrafficStats(
                    first_pass_entries=len(table),
                    forwarded_entries=len(keep),
                    second_pass_entries=len(second_pass_rows),
                    tail_unpruned_fraction=tail,
                ),
                pruner=pruner,
            )

        return QueryPlan(query, spec, run)

    # -- compound -----------------------------------------------------------------
    def _plan_compound(self, query: CompoundQuery) -> QueryPlan:
        def run(tables: TableSet, cp: ControlPlane) -> CheetahRun:
            runs = [self.plan(part).run(tables, ControlPlane(self.switch))
                    for part in query.parts]
            combined = TrafficStats(
                first_pass_entries=sum(r.traffic.first_pass_entries
                                       for r in runs),
                forwarded_entries=sum(r.traffic.forwarded_entries
                                      for r in runs),
                second_pass_entries=sum(r.traffic.second_pass_entries
                                        for r in runs),
            )
            result = ExecutionResult(
                query=query, output=tuple(r.result.output for r in runs)
            )
            return CheetahRun(result=result, traffic=combined, parts=runs)

        return QueryPlan(query, None, run)

