"""OPT: the unconstrained streaming pruner (Figs 10/11 upper bound).

OPT is "a hypothetical stream algorithm with no resource constraints"
(§8.3): it remembers everything seen so far and forwards an entry only
when no algorithm could safely prune it at that point of the stream:

* DISTINCT / GROUP BY keys: first occurrences only;
* TOP-N: entries among the N largest *of the prefix so far*;
* GROUP BY MAX: entries strictly improving their group's running max;
* SKYLINE: entries not dominated by any earlier entry;
* JOIN: entries whose key truly occurs in the other table;
* HAVING: one witness per true output key.

Each function returns the **unpruned fraction** for a concrete stream,
which the benches plot under the measured algorithm curves.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple


def opt_unpruned_distinct(stream: Sequence) -> float:
    """First occurrences / stream length."""
    if not stream:
        return 0.0
    return len(set(stream)) / len(stream)


def opt_unpruned_topn(stream: Sequence[float], n: int) -> float:
    """Entries that enter the prefix top-N heap at arrival time."""
    if not stream:
        return 0.0
    heap: List[float] = []
    forwarded = 0
    for value in stream:
        if len(heap) < n:
            heapq.heappush(heap, value)
            forwarded += 1
        elif value > heap[0]:
            heapq.heapreplace(heap, value)
            forwarded += 1
    return forwarded / len(stream)


def opt_unpruned_skyline(stream: Sequence[Tuple[float, ...]]) -> float:
    """Entries not dominated by any earlier entry.

    Maintains the running Pareto frontier; an arriving point is forwarded
    iff no frontier point dominates it.
    """
    if not stream:
        return 0.0
    frontier: List[Tuple[float, ...]] = []
    forwarded = 0
    for point in stream:
        dominated = any(
            all(f >= p for f, p in zip(fp, point))
            and any(f > p for f, p in zip(fp, point))
            for fp in frontier
        )
        if dominated:
            continue
        forwarded += 1
        frontier = [
            fp for fp in frontier
            if not (all(p >= f for p, f in zip(point, fp))
                    and any(p > f for p, f in zip(point, fp)))
        ]
        frontier.append(point)
    return forwarded / len(stream)


def opt_unpruned_groupby_max(stream: Sequence[Tuple]) -> float:
    """(key, value) entries strictly improving the group's running max."""
    if not stream:
        return 0.0
    best: Dict = {}
    forwarded = 0
    for key, value in stream:
        if key not in best or value > best[key]:
            best[key] = value
            forwarded += 1
    return forwarded / len(stream)


def opt_unpruned_join(left_keys: Sequence, right_keys: Sequence) -> float:
    """Entries whose key occurs in the other table (exact membership)."""
    total = len(left_keys) + len(right_keys)
    if total == 0:
        return 0.0
    left_set: Set = set(left_keys)
    right_set: Set = set(right_keys)
    forwarded = sum(1 for k in left_keys if k in right_set)
    forwarded += sum(1 for k in right_keys if k in left_set)
    return forwarded / total


def opt_unpruned_having(stream: Sequence[Tuple], threshold: float,
                        aggregate: str = "sum") -> float:
    """One witness per key whose final aggregate exceeds ``threshold``."""
    if not stream:
        return 0.0
    totals: Dict = {}
    for key, value in stream:
        amount = 1 if aggregate == "count" else value
        totals[key] = totals.get(key, 0) + amount
    winners = sum(1 for total in totals.values() if total > threshold)
    return winners / len(stream)


def opt_unpruned_series(opt: Callable[[Sequence], float],
                        stream: Sequence,
                        checkpoints: Iterable[int]) -> List[float]:
    """OPT unpruned fraction at growing prefixes (Fig. 11's x-axis).

    ``opt`` is one of the per-op functions above, with any parameters
    bound (e.g. ``lambda s: opt_unpruned_topn(s, 250)``).
    """
    return [opt(stream[:checkpoint]) for checkpoint in checkpoints]
