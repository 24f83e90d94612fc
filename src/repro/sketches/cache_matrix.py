"""The d x w cache matrix — Cheetah's central in-switch data structure.

Several pruners share the same physical layout: a matrix of ``d`` rows by
``w`` columns of 64-bit registers, one column per pipeline stage.  A packet
touches exactly one row (hash-partitioned or uniformly random, depending on
the query) and compares against the ``w`` entries in that row, one per
stage.  Row policies differ per query:

* DISTINCT uses LRU (rolling replacement) or FIFO eviction and asks
  "was this value seen?" — no false positives by construction.
* Randomized TOP-N keeps a rolling **minimum** per row: the row holds the
  ``w`` largest values mapped to it, sorted descending across stages.
* GROUP BY keys each row slot by group hash and keeps per-group aggregates.

This module implements the matrix with both membership and rolling-min
semantics; pruners wrap it with their query logic.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import DefaultDict, List, Optional

from repro.sketches.hashing import (
    HashableValue,
    hash64,
    row_of,
    rows_of_batch,
    sequence_rows_batch,
)


class EvictionPolicy(enum.Enum):
    """Row replacement policy for membership caches (Fig. 10a compares
    LRU against FIFO; LRU prunes slightly more)."""

    LRU = "lru"
    FIFO = "fifo"


class CacheMatrix:
    """Membership cache: ``d`` rows, each an ordered list of <= ``w`` values.

    ``contains_or_insert`` is the single-pass operation the switch performs:
    it reports whether the value was already cached in its row and, if not,
    inserts it (evicting per policy).  On a hit under LRU the value is moved
    to the front, emulating the paper's rolling-replacement registers.

    Guarantees: a **hit implies the value truly appeared before** (no false
    positives), which makes DISTINCT pruning sound.  Misses on previously
    seen values (false negatives, due to eviction) merely reduce pruning.

    Models ``d x w`` registers; stores only the rows a query touched.
    """

    def __init__(self, rows: int, width: int,
                 policy: EvictionPolicy = EvictionPolicy.LRU,
                 seed: int = 0):
        if rows < 1:
            raise ValueError(f"rows must be positive, got {rows}")
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        self.rows = rows
        self.width = width
        self.policy = policy
        self.seed = seed
        self._data: DefaultDict[int, List[HashableValue]] = defaultdict(list)
        self.hits = 0
        self.misses = 0

    def row_index(self, value: HashableValue) -> int:
        """Hash-partition ``value`` to its row (stable across packets)."""
        return row_of(value, self.rows, self.seed)

    def contains_or_insert(self, value: HashableValue) -> bool:
        """Return True iff ``value`` was cached; insert it otherwise.

        This mirrors the switch datapath: one row selected by hash, up to
        ``w`` register comparisons, and a rolling replacement on miss.
        """
        row = self._data[self.row_index(value)]
        if value in row:
            self.hits += 1
            if self.policy is EvictionPolicy.LRU:
                row.remove(value)
                row.insert(0, value)
            return True
        self.misses += 1
        row.insert(0, value)
        if len(row) > self.width:
            row.pop()
        return False

    def contains_or_insert_batch(self, values) -> List[bool]:
        """Batched :meth:`contains_or_insert` — identical decisions.

        Row selection is hashed for the whole batch at once (falling back
        to per-value hashing for non-int keys) and the membership loop
        runs with locals hoisted; per-value semantics, stats, and stored
        state match the scalar path exactly.
        """
        rows_idx = rows_of_batch(values, self.rows, self.seed)
        if rows_idx is None:
            row_index = self.row_index
            rows_idx = [row_index(v) for v in values]
        data = self._data
        width = self.width
        lru = self.policy is EvictionPolicy.LRU
        hits = misses = 0
        out: List[bool] = []
        append = out.append
        for value, index in zip(values, rows_idx):
            row = data[index]
            if value in row:
                hits += 1
                if lru:
                    row.remove(value)
                    row.insert(0, value)
                append(True)
            else:
                misses += 1
                row.insert(0, value)
                if len(row) > width:
                    row.pop()
                append(False)
        self.hits += hits
        self.misses += misses
        return out

    def __contains__(self, value: HashableValue) -> bool:
        """Pure membership test (no insertion, no stat update)."""
        return value in self._data.get(self.row_index(value), ())

    def occupancy(self) -> int:
        """Total cached values across all rows."""
        return sum(len(row) for row in self._data.values())

    def memory_words(self) -> int:
        """64-bit register words provisioned (d*w, per Table 2)."""
        return self.rows * self.width

    def clear(self) -> None:
        """Wipe all rows."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CacheMatrix(d={self.rows}, w={self.width}, "
            f"policy={self.policy.value}, occupancy={self.occupancy()})"
        )


class RollingMinMatrix:
    """Rolling-minimum matrix for randomized TOP-N (Example #7, Fig. 2).

    Each row stores the ``w`` largest values routed to it, kept sorted
    descending; an arriving value is inserted by a chain of per-stage
    compare-and-swap operations (the "rolling minimum"), and the value
    falling off the end is the one the next stage considers.  A value
    smaller than everything in its row is **prunable**.

    Rows are selected *uniformly at random* per entry (not by value hash):
    TOP-N cares about ranks, not identity, and random placement is what the
    balls-and-bins analysis (Theorem 2) assumes.  We derive the row from a
    hash of the entry's sequence number so runs are reproducible.

    Models ``d x w`` registers; stores only the rows a query touched.
    """

    def __init__(self, rows: int, width: int, seed: int = 0):
        if rows < 1:
            raise ValueError(f"rows must be positive, got {rows}")
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        self.rows = rows
        self.width = width
        self.seed = seed
        self._data: DefaultDict[int, List[float]] = defaultdict(list)
        self._arrivals = 0

    def row_for_arrival(self, sequence: Optional[int] = None) -> int:
        """Pick the (pseudo)random row for the next arrival."""
        if sequence is None:
            sequence = self._arrivals
        return hash64((self.seed, sequence), 0x70F1) % self.rows

    def offer(self, value: float, sequence: Optional[int] = None) -> bool:
        """Process one arrival; return True iff the entry is prunable
        (strictly smaller than all ``w`` stored values in its full row)."""
        row_idx = self.row_for_arrival(sequence)
        self._arrivals += 1
        row = self._data[row_idx]
        if len(row) < self.width:
            self._insert_sorted(row, value)
            return False
        if value <= row[-1]:
            # Smaller than (or equal to) the row minimum: every stored value
            # is >= it, so at least w larger-or-equal values exist -> prune.
            # Equal values are pruned too: the stored duplicates suffice.
            return value < row[-1] or self._count_ge(row, value) >= self.width
        row.pop()
        self._insert_sorted(row, value)
        return False

    def offer_batch(self, values) -> List[bool]:
        """Batched :meth:`offer` over consecutive arrivals.

        The per-arrival row sequence is hashed for the whole batch at
        once; the rolling-minimum updates run in arrival order, so the
        decisions and the stored matrix state are bit-identical to
        calling :meth:`offer` per value.
        """
        count = len(values)
        rows_idx = sequence_rows_batch(self.seed, self._arrivals, count,
                                       self.rows)
        if rows_idx is None:
            row_for_arrival = self.row_for_arrival
            rows_idx = [row_for_arrival(self._arrivals + i)
                        for i in range(count)]
        self._arrivals += count
        data = self._data
        width = self.width
        insert_sorted = self._insert_sorted
        count_ge = self._count_ge
        out: List[bool] = []
        append = out.append
        for value, index in zip(values, rows_idx):
            row = data[index]
            if len(row) < width:
                insert_sorted(row, value)
                append(False)
                continue
            last = row[-1]
            if value <= last:
                append(value < last or count_ge(row, value) >= width)
                continue
            row.pop()
            insert_sorted(row, value)
            append(False)
        return out

    @staticmethod
    def _insert_sorted(row: List[float], value: float) -> None:
        # Keep descending order: insert by negated key.
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid] >= value:
                lo = mid + 1
            else:
                hi = mid
        row.insert(lo, value)

    @staticmethod
    def _count_ge(row: List[float], value: float) -> int:
        return sum(1 for v in row if v >= value)

    def row_contents(self, row_idx: int) -> List[float]:
        """Stored values of a row, largest first (test hook)."""
        return list(self._data.get(row_idx, ()))

    def memory_words(self) -> int:
        """Provisioned 64-bit words (d*w, per Table 2)."""
        return self.rows * self.width

    def clear(self) -> None:
        """Wipe all rows and the arrival counter."""
        self._data.clear()
        self._arrivals = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"RollingMinMatrix(d={self.rows}, w={self.width})"
