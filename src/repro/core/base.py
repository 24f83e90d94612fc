"""Pruning algorithm base class, guarantees, stats, and registry.

Formal definition (§3): for query ``Q`` and data ``D``, a pruning
algorithm ``A_Q`` computes ``A_Q(D) ⊆ D`` such that
``Q(A_Q(D)) == Q(D)`` (always, or with probability ``1 - delta`` for the
probabilistic variants).
"""

from __future__ import annotations

import abc
import dataclasses
import enum
from typing import Any, Dict, List, Optional, Sequence, Type

from repro.switch.resources import ResourceUsage


class Guarantee(enum.Enum):
    """Correctness guarantee class of a pruner (Table 4)."""

    DETERMINISTIC = "deterministic"
    PROBABILISTIC = "probabilistic"


@dataclasses.dataclass
class PruneStats:
    """Running counters every pruner maintains."""

    offered: int = 0
    pruned: int = 0

    @property
    def forwarded(self) -> int:
        """Entries sent on to the master."""
        return self.offered - self.pruned

    @property
    def pruned_fraction(self) -> float:
        """Fraction of offered entries pruned (Fig. 10's 1 - y axis)."""
        if self.offered == 0:
            return 0.0
        return self.pruned / self.offered

    @property
    def unpruned_fraction(self) -> float:
        """Fraction forwarded — the y axis of Figures 10 and 11."""
        return 1.0 - self.pruned_fraction


class PruningAlgorithm(abc.ABC):
    """Base class for all pruners.

    Subclasses implement :meth:`_decide` (prune/forward for one entry)
    and :meth:`resources` (Table 2 accounting).  ``offer`` wraps
    ``_decide`` with bookkeeping so stats are consistent everywhere.
    """

    #: Human-readable algorithm name (Table 4 row).
    name: str = "abstract"
    #: Guarantee class.
    guarantee: Guarantee = Guarantee.DETERMINISTIC

    def __init__(self) -> None:
        self.stats = PruneStats()

    def offer(self, entry: Any) -> bool:
        """Process one entry; return True iff the entry is **pruned**."""
        pruned = self._decide(entry)
        self.stats.offered += 1
        if pruned:
            self.stats.pruned += 1
        return pruned

    def offer_batch(self, entries: Sequence[Any]) -> List[bool]:
        """Process a batch of entries; per-entry prune booleans.

        The batched dataplane entry point: decisions, internal state, and
        stats are identical to calling :meth:`offer` per entry in order —
        subclasses override :meth:`_decide_batch` to amortize Python
        dispatch (vectorized hashing, hoisted loops) without changing a
        single decision.  If a batch raises mid-way (e.g. an invalid
        entry), stats for that batch are not recorded.
        """
        decisions = self._decide_batch(entries)
        self.stats.offered += len(decisions)
        self.stats.pruned += sum(1 for d in decisions if d)
        return decisions

    def filter_stream(self, entries, batch_size: Optional[int] = None) -> list:
        """Convenience: the forwarded subset ``A_Q(D)`` of ``entries``.

        With ``batch_size`` set, entries run through the batched path in
        chunks of that size (same output, amortized dispatch).
        """
        if batch_size is None:
            return [e for e in entries if not self.offer(e)]
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        entries = list(entries)
        kept = []
        for start in range(0, len(entries), batch_size):
            chunk = entries[start:start + batch_size]
            kept.extend(e for e, pruned in zip(chunk, self.offer_batch(chunk))
                        if not pruned)
        return kept

    @abc.abstractmethod
    def _decide(self, entry: Any) -> bool:
        """Prune decision for one entry (True = prune)."""

    def _decide_batch(self, entries: Sequence[Any]) -> List[bool]:
        """Prune decisions for a batch, in order (default: scalar loop)."""
        decide = self._decide
        return [decide(entry) for entry in entries]

    @abc.abstractmethod
    def resources(self) -> ResourceUsage:
        """Switch resources this configuration consumes (Table 2)."""

    def parameters(self) -> Dict[str, Any]:
        """Algorithm parameters for the Table 4 summary."""
        return {}

    def reset(self) -> None:
        """Clear state and stats (control-plane reboot, §3)."""
        self.stats = PruneStats()

    def __repr__(self) -> str:  # pragma: no cover
        params = ", ".join(f"{k}={v}" for k, v in self.parameters().items())
        return f"{type(self).__name__}({params})"


#: Registry mapping algorithm name -> class, used to render Table 4 and by
#: the query planner to locate a pruner for a query type.
ALGORITHM_REGISTRY: Dict[str, Type[PruningAlgorithm]] = {}


def register_algorithm(cls: Type[PruningAlgorithm]) -> Type[PruningAlgorithm]:
    """Class decorator adding a pruner to :data:`ALGORITHM_REGISTRY`."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"{cls.__name__} must define a non-default 'name'")
    ALGORITHM_REGISTRY[cls.name] = cls
    return cls
