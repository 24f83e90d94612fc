"""End-to-end Cheetah runtime: functional pruning + calibrated timing.

``CheetahRuntime.run`` executes the full flow — planner decomposition,
control-plane rule install, per-entry switch pruning, master completion
— on real data, then prices the run with the cost model:

* **network**: serializing and streaming every pass's entries through
  the shared link budget (the 10G/20G knob of Figure 8);
* **computation**: the master's service time that the streaming window
  could not hide (Figure 9's blocking effect) plus result merge;
* **other**: job setup, control-plane install, switch latency.

``extrapolate_to_rows`` re-prices the timing at paper scale using the
pruning fractions measured on the (sampled) input — conservative for
DISTINCT/TOP-N/GROUP BY, whose pruning *improves* with scale (Fig. 11).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.cluster.costmodel import CostModel, TimingBreakdown
from repro.cluster.spark import result_cardinality, total_input_entries
from repro.core.base import PruneStats
from repro.db.executor import ExecutionResult
from repro.db.planner import CheetahRun, QueryPlanner, TrafficStats
from repro.db.queries import CompoundQuery, Query
from repro.db.table import Table
from repro.sketches.hashing import row_of, rows_of_batch
from repro.switch.compiler import QuerySpec
from repro.switch.controlplane import (
    ControlPlane,
    QueryCheckpoint,
    RuleInstallation,
)
from repro.switch.operators import OPERATORS
from repro.switch.resources import SwitchModel, TOFINO_MODEL

TableSet = Union[Table, Mapping[str, Table]]

#: Serialization overlap for compound queries (§8.2.1: A+B completes
#: faster than A then B because column pre-processing is pipelined).
COMPOUND_PIPELINE_FACTOR = 0.75

#: Seed perturbation for shard routing, so the shard hash is independent
#: of the in-shard row hashes that share the entry key.
_SHARD_ROUTE_SALT = 0x5A4D


def shard_key_fn(query_type: Optional[str]) -> Optional[Callable]:
    """Routing-key extractor for a query type's wire entries.

    Stateful pruners need all entries of one logical key on the same
    shard (a JOIN key must hit the shard whose Bloom filter saw it in
    pass 1; a group's entries must share a slot row), so routing hashes
    the operator table's key component.  ``None`` means "route on the
    entry itself" (DISTINCT values, TOP-N values, SKYLINE points), with
    an arrival counter as fallback for unhashable entries (filter rows —
    the FilterPruner is stateless, so any deterministic spread is sound).
    """
    operator = OPERATORS.get(query_type)
    return None if operator is None else operator.route


def shard_of(key, shards: int, seed: int = 0) -> int:
    """The switch pipeline an entry key hash-routes to.

    This is *the* routing rule — :class:`ShardedPruner` and the cluster
    simulation's SUM GROUP BY aggregation both use it, so an entry key
    lands on the same pipe regardless of which frontend drives it.
    """
    return row_of(key, shards, seed ^ _SHARD_ROUTE_SALT)


def ingress_capacity(per_pipeline: Optional[int],
                     shards: int) -> Optional[int]:
    """Aggregate ingress-queue budget of ``shards`` switch pipelines.

    Each simulated pipeline owns a finite ingress queue of
    ``per_pipeline`` packets (``None`` = unbounded, the historical
    behaviour).  The event-loop simulation models the union of the K
    per-pipeline queues as one worker→switch channel bound — entries
    hash across the pipelines, so the aggregate budget scales with the
    pipeline count, exactly like adding a switch adds its own SRAM
    ingress buffer.  See ``docs/CONGESTION.md`` for how tail drops at
    this bound feed AIMD rate controllers.
    """
    if per_pipeline is None:
        return None
    if per_pipeline < 1:
        raise ValueError(
            f"per-pipeline ingress capacity must be >= 1 (or None for "
            f"unbounded), got {per_pipeline}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return per_pipeline * shards


class ShardedPruner:
    """K per-shard pruner instances behind one pruner-shaped facade.

    Hash-partitions entries across ``K`` simulated switch pipelines
    (each shard owns a full instance of the algorithm's data structures)
    and merges the per-shard prune statistics.  Per-shard decisions are
    sound for every Cheetah pruner: a shard prunes an entry only on
    evidence from entries it has itself seen, which is a subset of the
    global stream — so a sharded prune decision is always justified
    globally (the superset-safety invariant of §3 carries over).

    ``offer``/``offer_batch`` are bit-identical: batch routing hashes
    the whole batch at once and preserves per-shard entry order.
    """

    def __init__(self, pruners: Sequence, key_fn: Optional[Callable] = None,
                 seed: int = 0):
        if not pruners:
            raise ValueError("ShardedPruner needs at least one shard")
        self.pruners = list(pruners)
        self.key_fn = key_fn
        self.seed = seed
        self._arrival = 0

    @property
    def name(self) -> str:
        return self.pruners[0].name

    @property
    def guarantee(self):
        return self.pruners[0].guarantee

    @property
    def shards(self) -> int:
        """Number of switch pipelines entries are partitioned across."""
        return len(self.pruners)

    # -- routing -------------------------------------------------------------
    def _route(self, entry) -> int:
        key = self.key_fn(entry) if self.key_fn is not None else entry
        try:
            return shard_of(key, len(self.pruners), self.seed)
        except TypeError:
            # Unhashable entry (e.g. a filter row): deterministic
            # arrival-counter spread.
            arrival = self._arrival
            self._arrival += 1
            return row_of(arrival, len(self.pruners),
                          self.seed ^ _SHARD_ROUTE_SALT)

    def _route_batch(self, entries) -> List[int]:
        key_fn = self.key_fn
        keys = [key_fn(e) for e in entries] if key_fn is not None \
            else entries
        routed = rows_of_batch(keys, len(self.pruners),
                               self.seed ^ _SHARD_ROUTE_SALT)
        if routed is None:
            route = self._route
            if key_fn is not None:
                seed = self.seed ^ _SHARD_ROUTE_SALT
                shards = len(self.pruners)
                routed = [row_of(key, shards, seed) for key in keys]
            else:
                routed = [route(entry) for entry in entries]
        return routed

    # -- data plane ----------------------------------------------------------
    def offer(self, entry) -> bool:
        """Route one entry to its shard; True iff pruned there."""
        return self.pruners[self._route(entry)].offer(entry)

    def offer_batch(self, entries) -> List[bool]:
        """Route a batch; per-shard sub-batches keep the arrival order,
        so decisions match per-entry :meth:`offer` calls exactly."""
        routed = self._route_batch(entries)
        shards = len(self.pruners)
        buckets: List[list] = [[] for _ in range(shards)]
        positions: List[list] = [[] for _ in range(shards)]
        for position, (entry, shard) in enumerate(zip(entries, routed)):
            buckets[shard].append(entry)
            positions[shard].append(position)
        out = [False] * len(entries)
        for shard, bucket in enumerate(buckets):
            if not bucket:
                continue
            decisions = self.pruners[shard].offer_batch(bucket)
            for position, decision in zip(positions[shard], decisions):
                out[position] = decision
        return out

    # -- merged statistics / control -----------------------------------------
    @property
    def stats(self) -> PruneStats:
        """Per-shard prune statistics merged into one view."""
        merged = PruneStats()
        for pruner in self.pruners:
            merged.offered += pruner.stats.offered
            merged.pruned += pruner.stats.pruned
        return merged

    def per_shard_stats(self) -> List[PruneStats]:
        """Each shard's own prune counters (cost-model input)."""
        return [pruner.stats for pruner in self.pruners]

    def start_second_pass(self) -> None:
        """JOIN pass boundary, fanned out to every shard."""
        for pruner in self.pruners:
            pruner.start_second_pass()

    def start_large_table(self) -> None:
        """Asymmetric-JOIN phase boundary, fanned out to every shard."""
        for pruner in self.pruners:
            pruner.start_large_table()

    def candidate_keys(self) -> set:
        """HAVING candidate keys, unioned across shards."""
        merged = set()
        for pruner in self.pruners:
            merged |= pruner.candidate_keys()
        return merged

    def resources(self):
        """Per-switch resource usage (each shard is its own pipeline,
        so the budget check is per shard, not summed)."""
        return self.pruners[0].resources()

    def parameters(self) -> dict:
        params = dict(self.pruners[0].parameters())
        params["shards"] = len(self.pruners)
        return params

    def reset(self) -> None:
        for pruner in self.pruners:
            pruner.reset()
        self._arrival = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ShardedPruner({type(self.pruners[0]).__name__} x "
                f"{len(self.pruners)})")


def make_sharded(factory: Callable[[], object], shards: int,
                 query_type: Optional[str] = None, seed: int = 0):
    """Build ``shards`` instances of ``factory()`` behind a
    :class:`ShardedPruner` (or the bare pruner when ``shards == 1``)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return factory()
    return ShardedPruner([factory() for _ in range(shards)],
                         key_fn=shard_key_fn(query_type), seed=seed)


def _add_stats(totals: List[PruneStats],
               per_shard: Sequence[PruneStats]) -> None:
    """Add ``per_shard`` counters into ``totals``, shard by shard."""
    for total, stats in zip(totals, per_shard):
        total.offered += stats.offered
        total.pruned += stats.pruned


class ShardedSwitchFrontend:
    """K simulated switch pipelines behind one control-plane facade.

    Installs every query on each of ``shards`` independent
    :class:`ControlPlane` instances (one per simulated switch) and
    exposes the planner-facing surface — ``install_query`` / ``offer`` /
    ``installed_queries`` — so the whole Cheetah flow runs unchanged
    while entries hash-partition across the switches.

    ``max_slots`` is applied to every per-shard control plane: a packed
    query occupies one slot on *each* pipeline (it must be installed
    everywhere its entries may hash), so the concurrent-tenant budget of
    the sharded frontend equals that of a single switch.

    **Fault injection** (``docs/CHAOS.md``): :meth:`kill_shard` crashes
    one physical pipeline.  The K *logical* shards stay fixed — routing
    (:func:`shard_of`) and the merged :class:`ShardedPruner` view are
    untouched, which is what keeps every prune decision (and therefore
    every tenant result) byte-identical to a no-fault run — while the
    dead pipeline's per-query state is suspended via the PR 5
    checkpoints and re-homed to a surviving plane (K logical shards on
    K−1 physical pipelines, consistent-hashing style).
    :meth:`restart_shard` moves the migrated state back (K−1→K live).
    Naively re-routing keys K→K−1 would be *unsound* for stateful
    pruners: a JOIN pass-2 entry re-routed to a shard whose pass-1
    Bloom filters never saw its key would be over-pruned.
    """

    def __init__(self, switch: SwitchModel = TOFINO_MODEL, shards: int = 2,
                 seed: int = 0, max_slots: Optional[int] = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.seed = seed
        self.planes = [ControlPlane(switch, seed=seed, max_slots=max_slots)
                       for _ in range(shards)]
        self._installed: dict = {}
        #: Physical pipelines currently crashed (see :meth:`kill_shard`).
        self._dead: set = set()
        #: dead plane -> {fid: (host plane, per-shard checkpoint)} —
        #: the dead pipeline's suspended state, in a survivor's custody.
        self._refugees: Dict[int, Dict[int, tuple]] = {}
        #: Queries migrated off dead pipelines (cumulative, telemetry).
        self.migrations = 0
        #: fid -> sharded pruner view of every query installed and not
        #: yet uninstalled (suspended ones included), and the per-shard
        #: prune totals of the uninstalled ones: together they make
        #: :meth:`per_shard_stats` cumulative, each query counted once.
        self._views: Dict[int, ShardedPruner] = {}
        self._retired = [PruneStats() for _ in range(shards)]

    def install_query(self, spec: QuerySpec,
                      fid: Optional[int] = None) -> RuleInstallation:
        """Install ``spec`` on every switch; one merged installation
        receipt whose pruner is the sharded view."""
        first = self.planes[0].install_query(spec, fid=fid)
        installs = [first]
        installs += [plane.install_query(spec, fid=first.fid)
                     for plane in self.planes[1:]]
        view = ShardedPruner(
            [inst.compiled.pruner for inst in installs],
            key_fn=shard_key_fn(spec.query_type),
            seed=self.seed,
        )
        compiled = dataclasses.replace(first.compiled, pruner=view)
        installation = RuleInstallation(
            fid=first.fid,
            compiled=compiled,
            # Switches install in parallel; the slowest plane gates.
            install_seconds=max(i.install_seconds for i in installs),
        )
        self._installed[first.fid] = installation
        self._views[first.fid] = view
        # A pipeline that is currently dead cannot accept the push: the
        # controller compiles its copy (so the logical shard's pruner
        # exists behind the merged view) and parks it with a survivor
        # until the plane restarts.
        for dead in sorted(self._dead):
            parked = self.planes[dead].suspend_query(first.fid)
            if parked is not None:
                self._refugees[dead][first.fid] = (
                    self._host_for(first.fid), parked)
        return installation

    def uninstall_query(self, fid: int) -> None:
        """Remove a query's rules from every switch (a dead pipeline's
        parked copy is simply dropped — the query is finished)."""
        for index, plane in enumerate(self.planes):
            if index in self._dead:
                self._refugees[index].pop(fid, None)
            else:
                plane.uninstall_query(fid)
        self._installed.pop(fid, None)
        view = self._views.pop(fid, None)
        if view is not None:
            _add_stats(self._retired, view.per_shard_stats())

    def suspend_query(self, fid: int) -> Optional["ShardedQueryCheckpoint"]:
        """Checkpoint a live query on every shard (QoS preemption).

        Each pipeline's rules are removed while its pruner state is
        retained in a per-shard :class:`QueryCheckpoint`; the merged
        sharded view is kept alongside, so :meth:`resume_query`
        restores the exact pre-suspension state everywhere.  A dead
        pipeline contributes its parked refugee checkpoint.  Like
        :meth:`ControlPlane.suspend_query`, a fid that already
        FIN-drained and uninstalled returns ``None``.
        """
        merged = self._installed.pop(fid, None)
        if merged is None:
            return None
        shards = []
        for index, plane in enumerate(self.planes):
            if index in self._dead:
                parked = self._refugees[index].pop(fid, None)
                shards.append(None if parked is None else parked[1])
            else:
                shards.append(plane.suspend_query(fid))
        return ShardedQueryCheckpoint(fid=fid, installation=merged,
                                      shards=tuple(shards))

    def resume_query(self,
                     checkpoint: "ShardedQueryCheckpoint",
                     ) -> RuleInstallation:
        """Re-install a suspended query on every shard.

        Every live pipeline holds the same packed composition, so if
        the first live shard's pack re-admits the checkpoint the rest
        do too (``ResourceExhausted`` therefore surfaces before any
        live shard is mutated).  A dead pipeline's sub-checkpoint is
        parked back with a survivor instead of re-installed.
        """
        for index, (plane, shard_checkpoint) in enumerate(
                zip(self.planes, checkpoint.shards)):
            if shard_checkpoint is None:
                continue
            if index in self._dead:
                self._refugees[index][checkpoint.fid] = (
                    self._host_for(checkpoint.fid), shard_checkpoint)
            else:
                plane.resume_query(shard_checkpoint)
        self._installed[checkpoint.fid] = checkpoint.installation
        return checkpoint.installation

    # -- fault injection (docs/CHAOS.md) --------------------------------------
    @property
    def live_shards(self) -> List[int]:
        """Physical pipelines currently serving (not crashed)."""
        return [i for i in range(self.shards) if i not in self._dead]

    @property
    def dead_shards(self) -> List[int]:
        """Physical pipelines currently crashed."""
        return sorted(self._dead)

    def _host_for(self, fid: int) -> int:
        """The surviving plane that takes custody of a migrated query
        (deterministic spread: fid modulo the live-plane count)."""
        survivors = self.live_shards
        return survivors[fid % len(survivors)]

    def kill_shard(self, shard: int) -> int:
        """Crash physical pipeline ``shard``, migrating its queries.

        Every installed query's per-shard state is suspended off the
        dead plane (:meth:`ControlPlane.suspend_query` — the same PR 5
        checkpoint preemption uses) and re-homed to a surviving plane.
        Logical routing and the merged pruner view are untouched, so
        the data plane's decisions — and every tenant's result — stay
        byte-identical to a no-fault run.  Returns the number of
        queries migrated.  Killing a dead shard, an out-of-range
        shard, or the last live pipeline raises ``ValueError``.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(
                f"shard must be in [0, {self.shards}), got {shard}")
        if shard in self._dead:
            raise ValueError(f"shard {shard} is already dead")
        if len(self._dead) + 1 >= self.shards:
            raise ValueError(
                f"cannot kill shard {shard}: it is the last live "
                f"pipeline of {self.shards}")
        self._dead.add(shard)
        refugees: Dict[int, tuple] = {}
        for fid in sorted(self._installed):
            parked = self.planes[shard].suspend_query(fid)
            if parked is None:
                continue
            refugees[fid] = (self._host_for(fid), parked)
        self._refugees[shard] = refugees
        self.migrations += len(refugees)
        return len(refugees)

    def restart_shard(self, shard: int) -> int:
        """Bring a crashed pipeline back (K−1→K), restoring its state.

        Every refugee checkpoint parked at :meth:`kill_shard` time (or
        installed/preempted during the outage) is resumed back onto the
        restarted plane — the pack slot and footprint accounting move
        home, and the pruner objects never changed hands.  Returns the
        number of queries restored; restarting a live shard raises
        ``ValueError``.
        """
        if shard not in self._dead:
            raise ValueError(f"shard {shard} is not dead")
        refugees = self._refugees.pop(shard, {})
        self._dead.discard(shard)
        for fid in sorted(refugees):
            _host, parked = refugees[fid]
            self.planes[shard].resume_query(parked)
        return len(refugees)

    def parked_checkpoint(self, shard: int, fid: int):
        """The refugee :class:`QueryCheckpoint` of ``fid`` parked off
        dead plane ``shard`` (``None`` when not parked) — test hook."""
        entry = self._refugees.get(shard, {}).get(fid)
        return None if entry is None else entry[1]

    def refugee_hosts(self) -> Dict[int, Dict[int, int]]:
        """dead plane -> {fid: surviving host plane} (telemetry)."""
        return {shard: {fid: host for fid, (host, _parked)
                        in sorted(entries.items())}
                for shard, entries in sorted(self._refugees.items())}

    def offer(self, fid: int, entry) -> bool:
        """Data-plane prune decision on the entry's shard."""
        return self._installed[fid].compiled.pruner.offer(entry)

    def offer_batch(self, fid: int, entries) -> List[bool]:
        """Batched data-plane decisions across the shards."""
        return self._installed[fid].compiled.pruner.offer_batch(entries)

    def pruner_for(self, fid: int) -> ShardedPruner:
        """The sharded pruner view behind ``fid``."""
        return self._installed[fid].compiled.pruner

    def installed_queries(self) -> List[RuleInstallation]:
        """All live (merged) installations."""
        return list(self._installed.values())

    def per_shard_stats(self) -> List[PruneStats]:
        """Prune statistics per switch, summed over every query this
        frontend has served: installed, suspended and uninstalled."""
        totals = [dataclasses.replace(stats) for stats in self._retired]
        for view in self._views.values():
            _add_stats(totals, view.per_shard_stats())
        return totals


@dataclasses.dataclass(frozen=True)
class ShardedQueryCheckpoint:
    """A query suspended across all shards: the merged installation
    plus one :class:`~repro.switch.controlplane.QueryCheckpoint` per
    pipeline (state preserved shard by shard)."""

    fid: int
    installation: RuleInstallation
    shards: tuple


@dataclasses.dataclass
class CheetahReport:
    """One Cheetah run: result + traffic + timing."""

    result: ExecutionResult
    traffic: TrafficStats
    breakdown: TimingBreakdown
    #: Number of switch pipelines the entries were sharded across.
    shards: int = 1
    #: Per-shard prune statistics when sharded (None for one switch).
    shard_stats: Optional[List[PruneStats]] = None

    @property
    def completion_seconds(self) -> float:
        """Total completion time."""
        return self.breakdown.total

    @property
    def unpruned_fraction(self) -> float:
        """Fraction of the pruned pass forwarded to the master."""
        return self.traffic.unpruned_fraction


class CheetahRuntime:
    """Prices a planned Cheetah execution.

    ``shards > 1`` runs the dataplane across that many simulated switch
    pipelines (entries hash-partitioned per query key; see
    :class:`ShardedSwitchFrontend`): the functional result is unchanged
    — the master completes the query on the union of the shards'
    forwarded entries — while the cost model streams the first pass
    through the parallel pipes, gated by the most-loaded shard.
    Compound (multi-part) queries run their parts unsharded.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 workers: int = 5, network_bps: float = 10e9,
                 switch: SwitchModel = TOFINO_MODEL, seed: int = 0,
                 shards: int = 1):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.cost_model = cost_model or CostModel()
        self.workers = workers
        self.network_bps = network_bps
        self.switch = switch
        self.shards = shards
        self.planner = QueryPlanner(switch, seed=seed)

    def run(self, query: Query, tables: TableSet,
            extrapolate_to_rows: Optional[int] = None) -> CheetahReport:
        """Execute ``query`` with pruning and report timing.

        Extrapolation prices the run as if the input had
        ``extrapolate_to_rows`` entries, using per-op scale laws on the
        measured pruning (see :meth:`_extrapolate_forwarded`).  Switch
        structures keep their real (full-scale) sizes; pass
        ``structure_scale`` to the planner explicitly to study shrunken
        structures (ablation benches do).
        """
        planner = self.planner
        plan = planner.plan(query)
        if self.shards > 1 and not isinstance(query, CompoundQuery):
            control_plane = ShardedSwitchFrontend(self.switch, self.shards)
        else:
            control_plane = ControlPlane(self.switch)
        run = plan.run(tables, control_plane)
        if isinstance(query, CompoundQuery):
            return self._price_compound(query, run, tables,
                                        extrapolate_to_rows)
        shard_stats = None
        if isinstance(control_plane, ShardedSwitchFrontend):
            shard_stats = control_plane.per_shard_stats()
        breakdown = self._price(query.query_type, run.traffic,
                                run.result, control_plane,
                                extrapolate_to_rows,
                                shard_stats=shard_stats)
        return CheetahReport(result=run.result, traffic=run.traffic,
                             breakdown=breakdown,
                             shards=self.shards, shard_stats=shard_stats)

    # -- pricing ---------------------------------------------------------------
    @staticmethod
    def _extrapolate_forwarded(op: str, traffic: TrafficStats,
                               full_first: int) -> int:
        """Forwarded entries at ``full_first`` input rows.

        Scale behaviour differs per op (Figure 11, the operator table's
        ``scale_law``):

        * ``linear`` (filter / join) — selectivity is scale-invariant:
          scale the measured fraction;
        * ``tail`` (DISTINCT / GROUP BY / HAVING) — the structure
          converges, so the extra rows forward at the *steady-state tail
          rate*, not the warm-up-inflated average;
        * ``log`` (TOP-N / SKYLINE) — the forwarded count grows only
          logarithmically (Theorem 3); scale it by the log ratio.
        """
        import math

        sample_first = traffic.first_pass_entries
        sample_fwd = traffic.forwarded_entries
        if sample_first == 0 or full_first <= sample_first:
            if sample_first == 0:
                return 0
            return round(sample_fwd * full_first / sample_first)
        law = OPERATORS[op].scale_law
        if law == "log":
            growth = math.log(full_first) / math.log(max(2, sample_first))
            return min(full_first, round(sample_fwd * growth))
        if law == "tail" and traffic.tail_unpruned_fraction is not None:
            extra = full_first - sample_first
            return min(full_first, round(
                sample_fwd + extra * traffic.tail_unpruned_fraction))
        return round(sample_fwd * full_first / sample_first)

    def _price(self, op: str, traffic: TrafficStats,
               result: ExecutionResult, control_plane: ControlPlane,
               extrapolate_to_rows: Optional[int],
               shard_stats: Optional[Sequence[PruneStats]] = None,
               ) -> TimingBreakdown:
        model = self.cost_model
        scale = 1.0
        first = traffic.first_pass_entries
        if extrapolate_to_rows is not None and first > 0:
            scale = extrapolate_to_rows / first
        first = round(first * scale)
        forwarded = self._extrapolate_forwarded(op, traffic, first)
        second = round(traffic.second_pass_entries * scale)

        # Sharded merge: K switch pipes stream in parallel, so the wire
        # time is gated by the most-loaded shard's share of the entries
        # (1/K under perfect balance).  The master-side costs stay whole:
        # one master absorbs the union of the forwarded streams.
        parallel = 1.0
        if shard_stats:
            offered = sum(s.offered for s in shard_stats)
            if offered:
                parallel = max(s.offered for s in shard_stats) / offered

        stream = parallel * model.cheetah_stream_seconds(
            first, self.workers, self.network_bps)
        second_master = 0.0
        if second:
            if OPERATORS[op].second_pass_pruned:
                # JOIN's second pass re-streams switch-format packets
                # (they are pruned in flight): full Cheetah wire cost;
                # its master work is the forwarded entries, priced below.
                stream += parallel * model.cheetah_stream_seconds(
                    second, self.workers, self.network_bps)
            else:
                # HAVING / SUM-GROUP-BY partial second passes bypass the
                # switch: batched + compressed like ordinary Spark
                # traffic, merged at the batched rate.
                stream += (second * model.spark_bits_per_entry
                           / self.network_bps)
                second_master = second / model.spark_master_merge_rate
        blocking = model.master_blocking_seconds(op, first, forwarded,
                                                 stream)
        results = max(1, round(result_cardinality(result.output) * scale))
        merge = second_master + results / model.spark_master_merge_rate
        install = sum(
            inst.install_seconds
            for inst in control_plane.installed_queries()
        )
        other = (model.cheetah_setup_seconds + install
                 + model.switch_latency_seconds)
        return TimingBreakdown(computation=blocking + merge,
                               network=stream, other=other)

    def _price_compound(self, query: CompoundQuery, run: CheetahRun,
                        tables: TableSet,
                        extrapolate_to_rows: Optional[int]) -> CheetahReport:
        computation = network = other = 0.0
        for part_query, part_run in zip(query.parts, run.parts):
            part_rows = None
            if extrapolate_to_rows is not None:
                share = (total_input_entries(part_query, tables)
                         / total_input_entries(query, tables))
                part_rows = round(extrapolate_to_rows * share)
            part_breakdown = self._price(
                part_query.query_type, part_run.traffic, part_run.result,
                ControlPlane(self.switch), part_rows,
            )
            computation += part_breakdown.computation
            network += part_breakdown.network
            other = max(other, part_breakdown.other)  # one shared setup
        network *= COMPOUND_PIPELINE_FACTOR
        return CheetahReport(
            result=run.result,
            traffic=run.traffic,
            breakdown=TimingBreakdown(computation, network, other),
        )
