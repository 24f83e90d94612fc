"""CWorker: turn table partitions into Cheetah wire entries.

The CWorker intercepts the data flow at a Spark worker, extracts the
query-relevant columns, converts each row to 64-bit wire values (fixed
point for floats, fingerprints for strings — Example #8), and streams
one packet per entry (§7.1).
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.db.table import Table
from repro.net.packet import CheetahPacket, packets_for_entries
from repro.net.wire import decode_numeric, encode_value


class CWorker:
    """One worker's Cheetah module.

    ``fid`` is the flow id stamped on every packet this worker emits
    (16 bits on the wire).  It scopes all per-flow protocol state —
    switch sequence tracking, master deduplication — *and* selects the
    tenant's pruner inside a multi-query pack, so under multi-tenant
    serving each tenant's workers must use fids from that tenant's
    disjoint range (the scheduler assigns ``fid_base`` offsets; see
    ``SimulationConfig.fid_base``).
    """

    def __init__(self, worker_id: int, partition: Table, fid: int = None):
        self.worker_id = worker_id
        self.partition = partition
        self.fid = worker_id if fid is None else fid

    def entries(self, columns: Sequence[str]) -> List[Tuple[int, ...]]:
        """The wire entries for ``columns``, one per row."""
        cols = [self.partition.column(c) for c in columns]
        return [
            tuple(encode_value(col[i]) for col in cols)
            for i in range(len(self.partition))
        ]

    def indexed_entries(self, columns: Sequence[str], base: int = 0,
                        transforms: Optional[Mapping[str, Callable]] = None,
                        ) -> List[Tuple[int, ...]]:
        """Wire entries carrying a leading *row identifier* word.

        Late materialization (§2): the metadata stream ships
        ``(row_id, encoded relevant columns)`` so the master can fetch
        the full rows of surviving entries after pruning.  ``base`` is
        this partition's global row offset (partitions are contiguous),
        making the identifiers cluster-wide.  ``transforms`` optionally
        maps a column name to a callable applied to the raw value
        *before* encoding (e.g. negation for ascending TOP-N, so the
        switch's "keep the largest" registers implement "smallest").
        """
        words = []
        for name in columns:
            values = self.partition.column(name).values
            fn = transforms.get(name) if transforms else None
            if fn is not None:
                values = map(fn, values)
            words.append(map(encode_value, values))
        return list(zip(range(base, base + len(self.partition)), *words))

    def packets(self, columns: Sequence[str],
                per_packet: int = 1) -> List[CheetahPacket]:
        """The packet stream for ``columns`` (ends with FIN)."""
        return packets_for_entries(self.fid, self.entries(columns),
                                   per_packet=per_packet)

    def serialize_seconds(self, columns: Sequence[str],
                          rate: float = 10e6) -> float:
        """Time to serialize this partition at ``rate`` entries/s."""
        return len(self.partition) / rate

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CWorker(id={self.worker_id}, fid={self.fid}, "
            f"rows={len(self.partition)})"
        )
