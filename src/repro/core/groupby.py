"""GROUP BY pruning (used by query 5 of the Big Data benchmark).

For ``SELECT key, AGG(value) ... GROUP BY key`` with a *decomposable,
entry-dominated* aggregate (MAX or MIN), a single entry can be pruned as
soon as the switch knows it cannot change its group's aggregate: for MAX,
an entry whose value is <= the best value already recorded for its group.

The switch keeps a d x w matrix: each entry hashes to a row, and the row
holds up to ``w`` (group-fingerprint, best-value) slots — one slot pair
per stage, so ``w`` groups per row can be tracked exactly.  Rows are
keyed by group hash so a group always lands in the same row.  When all
``w`` slots of a row are taken by other groups, entries of further groups
are forwarded unpruned (correct, just less pruning).

SUM/COUNT aggregates are *not* entry-dominated; those run through the
HAVING pruner's sketch path instead (Example #5).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import DefaultDict, Dict, List, Tuple

from repro.core.base import Guarantee, PruningAlgorithm, register_algorithm
from repro.sketches.hashing import HashableValue, row_of, rows_of_batch
from repro.switch.resources import ResourceUsage


class GroupAggregate(enum.Enum):
    """Aggregates the GROUP BY pruner supports in the data plane."""

    MAX = "max"
    MIN = "min"


@register_algorithm
class GroupByPruner(PruningAlgorithm):
    """MAX/MIN GROUP BY via a d x w matrix of per-group best values.

    Entries are ``(group_key, value)`` pairs.  Default w=8 (Table 2).
    """

    name = "groupby"
    guarantee = Guarantee.DETERMINISTIC

    def __init__(self, rows: int = 4096, width: int = 8,
                 aggregate: GroupAggregate = GroupAggregate.MAX,
                 seed: int = 0):
        super().__init__()
        if rows < 1 or width < 1:
            raise ValueError("rows and width must be positive")
        self.rows = rows
        self.width = width
        self.aggregate = aggregate
        self.seed = seed
        # Touched row -> ordered (group_key, best_value) slots; index = stage.
        self._slots: DefaultDict[int, List[Tuple]] = defaultdict(list)

    def _better(self, a: float, b: float) -> bool:
        """True iff ``a`` strictly improves on ``b`` for the aggregate."""
        if self.aggregate is GroupAggregate.MAX:
            return a > b
        return a < b

    def _decide(self, entry: Tuple[HashableValue, float]) -> bool:
        key, value = entry
        value = float(value)
        row = self._slots[row_of(key, self.rows, self.seed)]
        for i, (slot_key, best) in enumerate(row):
            if slot_key == key:
                if self._better(value, best):
                    row[i] = (key, value)
                    return False
                # Cannot affect the group's MAX/MIN: prune.
                return True
        if len(row) < self.width:
            row.append((key, value))
            return False
        # Row full of other groups: forward unpruned (safe superset).
        return False

    def _decide_batch(self, entries) -> List[bool]:
        """Batched decisions: row hashes vectorized, slot walk hoisted;
        decisions and slot state match the scalar path exactly."""
        keys = [entry[0] for entry in entries]
        rows_idx = rows_of_batch(keys, self.rows, self.seed)
        if rows_idx is None:
            rows = self.rows
            seed = self.seed
            rows_idx = [row_of(key, rows, seed) for key in keys]
        slots = self._slots
        width = self.width
        is_max = self.aggregate is GroupAggregate.MAX
        out: List[bool] = []
        append = out.append
        for (key, value), index in zip(entries, rows_idx):
            value = float(value)
            row = slots[index]
            for i, (slot_key, best) in enumerate(row):
                if slot_key == key:
                    if (value > best) if is_max else (value < best):
                        row[i] = (key, value)
                        append(False)
                    else:
                        append(True)
                    break
            else:
                if len(row) < width:
                    row.append((key, value))
                append(False)
        return out

    def resources(self) -> ResourceUsage:
        """Table 2: w stages, w ALUs, d x w x 64b SRAM.

        (Each stage stores one slot per row; the key fingerprint and value
        share the 64b register word in the paper's accounting.)
        """
        return ResourceUsage(
            stages=self.width,
            alus=self.width,
            sram_bits=self.rows * self.width * 64,
            tcam_entries=0,
            metadata_bits=224,
        )

    def parameters(self) -> dict:
        return {"d": self.rows, "w": self.width,
                "aggregate": self.aggregate.value}

    def reset(self) -> None:
        super().reset()
        self._slots.clear()

    def tracked_groups(self) -> int:
        """Number of groups currently holding a slot (test hook)."""
        return sum(len(row) for row in self._slots.values())

    def current_best(self) -> Dict[HashableValue, float]:
        """Best value per tracked group, in row order (test hook)."""
        best = {}
        for index in sorted(self._slots):
            for key, value in self._slots[index]:
                best[key] = value
        return best


class GroupBySumAggregator:
    """In-switch partial aggregation for SUM/COUNT GROUP BY (§6).

    SUM is not entry-dominated, so entries cannot simply be dropped.
    Instead the d x w matrix holds per-group *running partial sums*:

    * an entry whose group occupies a slot is **absorbed** (added to the
      partial and pruned from the wire);
    * an entry of a new group takes a free slot, or — when its row is
      full — **evicts** the least-recently-updated slot, whose
      ``(key, partial)`` is forwarded to the master inside the packet;
    * at end of stream, :meth:`drain` forwards the <= d*w live partials.

    The master merges partials per key, which reconstructs the exact
    aggregate: every unit of mass is forwarded exactly once.  Unlike
    NetAccel this is a bounded cache drain (d*w entries), not the full
    result set, and partials stream to the master throughout execution.

    This class is not a :class:`PruningAlgorithm` because its "forward"
    carries a *merged* value rather than the original entry; the planner
    drives it directly.
    """

    def __init__(self, rows: int = 4096, width: int = 8,
                 count_mode: bool = False, seed: int = 0):
        if rows < 1 or width < 1:
            raise ValueError("rows and width must be positive")
        self.rows = rows
        self.width = width
        self.count_mode = count_mode
        self.seed = seed
        # Touched row -> [key, partial] slots; index 0 = most recently updated.
        self._slots: DefaultDict[int, List[List]] = defaultdict(list)
        self.absorbed = 0
        self.evicted = 0

    def offer(self, key: HashableValue,
              amount: float) -> "Tuple[HashableValue, float] | None":
        """Process one entry; return an evicted ``(key, partial)`` to
        forward, or None if the entry was absorbed / took a free slot."""
        if self.count_mode:
            amount = 1
        row = self._slots[row_of(key, self.rows, self.seed)]
        for i, slot in enumerate(row):
            if slot[0] == key:
                slot[1] += amount
                row.insert(0, row.pop(i))
                self.absorbed += 1
                return None
        if len(row) < self.width:
            row.insert(0, [key, amount])
            self.absorbed += 1
            return None
        victim = row.pop()
        row.insert(0, [key, amount])
        self.evicted += 1
        return victim[0], victim[1]

    def drain(self) -> List[Tuple[HashableValue, float]]:
        """Flush all live partials in row order (the FIN-time drain)."""
        out = [(key, partial)
               for index in sorted(self._slots)
               for key, partial in self._slots[index]]
        self._slots.clear()
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GroupBySumAggregator(d={self.rows}, w={self.width}, "
            f"absorbed={self.absorbed}, evicted={self.evicted})"
        )
