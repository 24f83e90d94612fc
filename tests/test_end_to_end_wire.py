"""Full-stack integration: CWorker serialization -> lossy wire with the
§7.2 protocol -> switch pruning -> CMaster (``MasterEndpoint``) ->
table rebuild -> query completion.

This is the closest the repository gets to the paper's Figure 1 with
every component engaged at once, bytes on the wire included.
"""

import random

import pytest

from repro.cluster.worker import CWorker, decode_numeric, encode_value
from repro.core.distinct import DistinctPruner
from repro.core.topn import TopNRandomized
from repro.db.executor import execute
from repro.db.queries import DistinctQuery, TopNQuery
from repro.db.table import Table
from repro.net.reliability import run_transfer


def partitioned_table(rows, parts, seed=0):
    rng = random.Random(seed)
    table = Table.from_rows("T", [
        {"k": rng.randrange(30), "v": rng.randrange(1, 1 << 18)}
        for _ in range(rows)
    ])
    return table, table.partition(parts)


def rebuild(delivered, column):
    """The master's table: every delivered entry, flows in fid order."""
    return Table.from_rows("meta", [
        {column: decode_numeric(values[0])}
        for fid in sorted(delivered) for values in delivered[fid]
    ])


class TestDistinctOverWire:
    def test_query_result_survives_loss_and_pruning(self):
        table, partitions = partitioned_table(600, 3, seed=1)
        workers = [CWorker(i, part) for i, part in enumerate(partitions)]
        pruner = DistinctPruner(rows=16, width=2, seed=1)
        workers_entries = {
            worker.fid: worker.entries(["k"]) for worker in workers
        }
        report = run_transfer(
            workers_entries,
            prune_fn=lambda values: pruner.offer(values[0]),
            loss_rate=0.15, seed=2,
        )
        meta = rebuild(report.delivered, "k")
        result = execute(DistinctQuery(key_columns=("k",)), meta)
        expected = frozenset(
            (float(k),) for k in set(table.column("k"))
        )
        assert result.output == expected

    def test_wire_volume_reduced_by_pruning(self):
        _, partitions = partitioned_table(600, 3, seed=3)
        workers = [CWorker(i, part) for i, part in enumerate(partitions)]
        pruner = DistinctPruner(rows=64, width=2, seed=3)
        report = run_transfer(
            {w.fid: w.entries(["k"]) for w in workers},
            prune_fn=lambda values: pruner.offer(values[0]),
        )
        delivered = sum(len(v) for v in report.delivered.values())
        assert delivered < 600 * 0.2        # 30 keys of 600 rows
        assert report.switch_pruned > 400


class TestTopNOverWire:
    def test_topn_with_fixed_point_values(self):
        table, partitions = partitioned_table(800, 2, seed=4)
        workers = [CWorker(i, part) for i, part in enumerate(partitions)]
        pruner = TopNRandomized(n=10, rows=64, width=4, seed=4)
        report = run_transfer(
            {w.fid: w.entries(["v"]) for w in workers},
            prune_fn=lambda values: pruner.offer(values[0]),
            loss_rate=0.1, seed=5,
        )
        meta = rebuild(report.delivered, "v")
        result = execute(TopNQuery(n=10, order_column="v"), meta)
        expected = tuple(
            float(v) for v in sorted(table.column("v"), reverse=True)[:10]
        )
        assert result.output == pytest.approx(expected)

    def test_encoding_preserves_switch_comparability(self):
        """The order-preserving fixed-point encoding is what lets the
        switch compare values the workers serialized."""
        values = [0, 1, 2.5, -3, 1 << 17, 0.0001]
        encoded = [encode_value(v) for v in values]
        ranked = sorted(range(len(values)), key=lambda i: values[i])
        ranked_encoded = sorted(range(len(values)),
                                key=lambda i: encoded[i])
        assert ranked == ranked_encoded
        for v, e in zip(values, encoded):
            assert decode_numeric(e) == pytest.approx(v, abs=1e-5)
