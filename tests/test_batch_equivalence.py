"""Batched dataplane equivalence: ``offer_batch`` == per-entry ``offer``.

Property-based checks that for random entry streams every ``core``
pruning algorithm makes identical prune decisions, accumulates identical
``PruneStats``, and reports identical ``ResourceUsage`` through the
per-packet and the batched paths — including when the entries are
hash-partitioned across K > 1 simulated switch pipelines — plus the
same cross-validation for the register-level pipeline programs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.runtime import ShardedPruner, make_sharded
from repro.core import (
    DistinctPruner,
    GroupByPruner,
    HavingPruner,
    JoinPruner,
    SkylinePruner,
    TopNDeterministic,
    TopNRandomized,
)
from repro.core.groupby import GroupAggregate
from repro.core.having import HavingAggregate
from repro.core.join import FilterKind, JoinSide
from repro.core.skyline import Projection
from repro.sketches.cache_matrix import EvictionPolicy
from repro.switch.alu import UnsupportedOperation
from repro.switch.pipeline import PacketBatch, PacketContext, Pipeline
from repro.switch.programs import (
    DeterministicTopNProgram,
    DistinctProgram,
    GroupByMaxProgram,
    RandomizedTopNProgram,
)

SETTINGS = settings(max_examples=25, deadline=None)


def run_both_paths(make_pruner, stream, batch_sizes, two_pass=False):
    """(per-packet decisions, batched decisions, both pruners)."""
    packet = make_pruner()
    batched = make_pruner()
    packet_decisions = [packet.offer(entry) for entry in stream]
    batched_decisions = []
    start = 0
    index = 0
    while start < len(stream):
        size = batch_sizes[index % len(batch_sizes)]
        batched_decisions += batched.offer_batch(stream[start:start + size])
        start += size
        index += 1
    if two_pass:
        packet.start_second_pass()
        batched.start_second_pass()
        packet_decisions += [packet.offer(entry) for entry in stream]
        start = 0
        while start < len(stream):
            size = batch_sizes[index % len(batch_sizes)]
            batched_decisions += batched.offer_batch(
                stream[start:start + size])
            start += size
            index += 1
    return packet_decisions, batched_decisions, packet, batched


def assert_equivalent(make_pruner, stream, batch_sizes, two_pass=False):
    packet_dec, batched_dec, packet, batched = run_both_paths(
        make_pruner, stream, batch_sizes, two_pass=two_pass)
    assert packet_dec == batched_dec
    assert packet.stats == batched.stats
    assert packet.resources() == batched.resources()


batch_sizes_st = st.lists(st.integers(min_value=1, max_value=97),
                          min_size=1, max_size=4)
values_st = st.lists(st.integers(min_value=0, max_value=1 << 40),
                     min_size=1, max_size=300)
keyed_st = st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                              st.integers(min_value=0, max_value=1000)),
                    min_size=1, max_size=300)


@SETTINGS
@given(stream=values_st, batch_sizes=batch_sizes_st,
       policy=st.sampled_from(list(EvictionPolicy)),
       fingerprint=st.sampled_from([None, 12]))
def test_distinct_batch_equivalence(stream, batch_sizes, policy,
                                    fingerprint):
    assert_equivalent(
        lambda: DistinctPruner(rows=32, width=2, policy=policy,
                               fingerprint_bits_=fingerprint, seed=3),
        stream, batch_sizes)


@SETTINGS
@given(stream=st.lists(st.text(min_size=0, max_size=6),
                       min_size=1, max_size=200),
       batch_sizes=batch_sizes_st)
def test_distinct_string_keys_batch_equivalence(stream, batch_sizes):
    """Non-int keys exercise the scalar fallback inside the batch path."""
    assert_equivalent(lambda: DistinctPruner(rows=16, width=2, seed=1),
                      stream, batch_sizes)


@SETTINGS
@given(stream=values_st, batch_sizes=batch_sizes_st,
       n=st.integers(min_value=1, max_value=40))
def test_topn_deterministic_batch_equivalence(stream, batch_sizes, n):
    assert_equivalent(lambda: TopNDeterministic(n=n, thresholds=4),
                      stream, batch_sizes)


@SETTINGS
@given(stream=st.lists(st.integers(min_value=0, max_value=1 << 63),
                       min_size=1, max_size=200),
       batch_sizes=batch_sizes_st)
def test_topn_deterministic_wide_values_batch_equivalence(stream,
                                                          batch_sizes):
    """Values beyond int64-safe range exercise the scalar fallback."""
    assert_equivalent(lambda: TopNDeterministic(n=10, thresholds=6),
                      stream, batch_sizes)


@SETTINGS
@given(stream=values_st, batch_sizes=batch_sizes_st)
def test_topn_randomized_batch_equivalence(stream, batch_sizes):
    assert_equivalent(
        lambda: TopNRandomized(n=20, rows=16, width=3, seed=5),
        stream, batch_sizes)


@SETTINGS
@given(stream=keyed_st, batch_sizes=batch_sizes_st,
       aggregate=st.sampled_from(list(GroupAggregate)))
def test_groupby_batch_equivalence(stream, batch_sizes, aggregate):
    assert_equivalent(
        lambda: GroupByPruner(rows=16, width=3, aggregate=aggregate,
                              seed=2),
        stream, batch_sizes)


@SETTINGS
@given(stream=keyed_st, batch_sizes=batch_sizes_st,
       aggregate=st.sampled_from(list(HavingAggregate)))
def test_having_batch_equivalence(stream, batch_sizes, aggregate):
    assert_equivalent(
        lambda: HavingPruner(threshold=500, aggregate=aggregate,
                             width=32, depth=3, seed=2),
        stream, batch_sizes)


@SETTINGS
@given(stream=st.lists(
           st.tuples(st.sampled_from([JoinSide.A, JoinSide.B, "A", "B"]),
                     st.integers(min_value=0, max_value=500)),
           min_size=1, max_size=200),
       batch_sizes=batch_sizes_st,
       kind=st.sampled_from(list(FilterKind)))
def test_join_batch_equivalence(stream, batch_sizes, kind):
    assert_equivalent(
        lambda: JoinPruner(size_bits=1024, hashes=3, kind=kind, seed=4),
        stream, batch_sizes, two_pass=True)


@SETTINGS
@given(stream=st.lists(st.tuples(st.integers(0, 1 << 18),
                                 st.integers(0, 1 << 18)),
                       min_size=1, max_size=200),
       batch_sizes=batch_sizes_st,
       projection=st.sampled_from(list(Projection)))
def test_skyline_batch_equivalence(stream, batch_sizes, projection):
    assert_equivalent(
        lambda: SkylinePruner(dimensions=2, width=5,
                              projection=projection),
        stream, batch_sizes)


@SETTINGS
@given(stream=values_st, batch_sizes=batch_sizes_st,
       shards=st.integers(min_value=2, max_value=5))
def test_sharded_distinct_batch_equivalence(stream, batch_sizes, shards):
    """The K>1 case: hash-partitioned shards, both paths identical."""
    assert_equivalent(
        lambda: make_sharded(
            lambda: DistinctPruner(rows=32, width=2, seed=3),
            shards, seed=7),
        stream, batch_sizes)


@SETTINGS
@given(stream=keyed_st, batch_sizes=batch_sizes_st,
       shards=st.integers(min_value=2, max_value=5))
def test_sharded_groupby_batch_equivalence(stream, batch_sizes, shards):
    assert_equivalent(
        lambda: make_sharded(lambda: GroupByPruner(rows=16, width=3,
                                                   seed=2),
                             shards, "groupby", seed=7),
        stream, batch_sizes)


@SETTINGS
@given(stream=st.lists(
           st.tuples(st.sampled_from([JoinSide.A, JoinSide.B]),
                     st.integers(min_value=0, max_value=500)),
           min_size=1, max_size=200),
       batch_sizes=batch_sizes_st,
       shards=st.integers(min_value=2, max_value=4))
def test_sharded_join_batch_equivalence(stream, batch_sizes, shards):
    assert_equivalent(
        lambda: make_sharded(
            lambda: JoinPruner(size_bits=1024, hashes=3, seed=4),
            shards, "join", seed=7),
        stream, batch_sizes, two_pass=True)


def test_sharded_pruner_merges_per_shard_stats():
    sharded = make_sharded(lambda: DistinctPruner(rows=32, width=2),
                           4, seed=1)
    assert isinstance(sharded, ShardedPruner)
    stream = [value % 40 for value in range(400)]
    sharded.offer_batch(stream)
    per_shard = sharded.per_shard_stats()
    assert len(per_shard) == 4
    assert sum(s.offered for s in per_shard) == 400
    assert sharded.stats.offered == 400
    assert sharded.stats.pruned == sum(s.pruned for s in per_shard)
    # Hash partitioning actually spreads the entries.
    assert sum(1 for s in per_shard if s.offered > 0) > 1


def test_make_sharded_single_shard_returns_bare_pruner():
    pruner = make_sharded(lambda: DistinctPruner(rows=32, width=2), 1)
    assert isinstance(pruner, DistinctPruner)


# -- register-level pipeline programs ---------------------------------------

@SETTINGS
@given(stream=st.lists(st.integers(min_value=0, max_value=500),
                       min_size=1, max_size=150),
       batch_sizes=batch_sizes_st)
def test_distinct_program_batch_equivalence(stream, batch_sizes):
    packet = DistinctProgram(16, 2, seed=1)
    batched = DistinctProgram(16, 2, seed=1)
    packet_dec = [packet.offer(value) for value in stream]
    batched_dec = []
    start = index = 0
    while start < len(stream):
        size = batch_sizes[index % len(batch_sizes)]
        batched_dec += batched.offer_batch(stream[start:start + size])
        start += size
        index += 1
    assert packet_dec == batched_dec
    assert (packet.pipeline.packets_pruned
            == batched.pipeline.packets_pruned)


@SETTINGS
@given(stream=st.lists(st.integers(min_value=1, max_value=5000),
                       min_size=1, max_size=150),
       batch_sizes=batch_sizes_st)
def test_pipeline_programs_batch_equivalence(stream, batch_sizes):
    programs = [
        (DeterministicTopNProgram(10, 3), DeterministicTopNProgram(10, 3)),
        (RandomizedTopNProgram(16, 3, seed=2),
         RandomizedTopNProgram(16, 3, seed=2)),
    ]
    for packet_prog, batched_prog in programs:
        packet_dec = [packet_prog.offer(value) for value in stream]
        batched_dec = []
        start = index = 0
        while start < len(stream):
            size = batch_sizes[index % len(batch_sizes)]
            batched_dec += batched_prog.offer_batch(
                stream[start:start + size])
            start += size
            index += 1
        assert packet_dec == batched_dec


def test_groupby_program_batch_equivalence():
    stream = [(key % 7, (key * 37) % 1000) for key in range(200)]
    packet = GroupByMaxProgram(16, 3, seed=1)
    batched = GroupByMaxProgram(16, 3, seed=1)
    packet_dec = [packet.offer(k, v) for k, v in stream]
    batched_dec = []
    for start in range(0, len(stream), 33):
        batched_dec += batched.offer_batch(stream[start:start + 33])
    assert packet_dec == batched_dec


def test_pipeline_process_batch_metadata_violation():
    """The batched path raises the same PHV violation the scalar path does."""
    def bloat(stage, packet):
        for slot in range(10):
            packet.set_meta(f"pad{slot}", 1)

    def build():
        pipeline = Pipeline(2, metadata_limit_bits=256)
        pipeline.stage(0).set_program(bloat)
        return pipeline

    scalar = build()
    with pytest.raises(UnsupportedOperation) as scalar_err:
        scalar.process(PacketContext(fields={"value": 1}))
    batched = build()
    with pytest.raises(UnsupportedOperation) as batched_err:
        batched.process_batch(PacketBatch.from_values([1, 2, 3]))
    assert str(scalar_err.value) == str(batched_err.value)


def test_batched_register_accounting_enforces_hardware_semantics():
    from repro.switch.registers import RegisterAccessError, RegisterArray

    array = RegisterArray("r", size=4, width_bits=8)
    assert array.increment_many([0, 1, 0], [2, 300, 3],
                                [1, 2, 3]) == [2, 255, 5]
    assert array.read_many([0, 1], [4, 5]) == [5, 255]
    assert array.read_modify_write_many([2, 3], [7, 9],
                                        [6, 7]) == [0, 0]
    assert array.accesses == 7
    # Same epoch twice within one batch = two accesses by one packet.
    with pytest.raises(RegisterAccessError):
        array.read_many([0, 0], [8, 8])
    with pytest.raises(RegisterAccessError):
        array.read_modify_write_many([0], [1 << 9], [9])  # width overflow


def test_alu_fire_many_enforces_once_per_packet():
    from repro.switch.alu import ALU, ALUOp

    alu = ALU(0, 0)
    assert alu.fire_many(ALUOp.ADD, [1, 2], [3, 4], [1, 2]) == [4, 6]
    assert alu.invocations == 2
    with pytest.raises(UnsupportedOperation):
        alu.fire_many(ALUOp.ADD, [1, 2], [1, 1], [3, 3])


def test_master_endpoint_batch_matches_per_packet():
    """``process_batch`` is ``process`` per packet: same ACK bytes in the
    same order, same entries, FINs and duplicate count."""
    from repro.net.channel import LossyChannel
    from repro.net.packet import FIN_FLAG, CheetahPacket
    from repro.net.reliability import MasterEndpoint
    from repro.net.wire import encode_packet

    def flow(fid, values):
        out = [CheetahPacket(fid=fid, seq=i, values=v)
               for i, v in enumerate(values)]
        out.append(CheetahPacket(fid=fid, seq=len(values), values=(),
                                 flags=FIN_FLAG))
        return out

    a = flow(1, [(10, 1), (11, 2), (12, 3)])
    b = flow(2, [(20, 4), (21, 5)])
    # Interleaved flows, reordered sequences, retransmitted entries and
    # a retransmitted FIN.
    stream = [encode_packet(p) for p in (
        a[0], b[1], a[2], a[0], b[0], a[3], a[1], b[1], a[3], b[2], a[2])]

    one_by_one, batched = MasterEndpoint(), MasterEndpoint()
    acks_one, acks_batch = LossyChannel(), LossyChannel()
    for data in stream:
        one_by_one.process(data, acks_one)
    batched.process_batch(stream, acks_batch)

    assert acks_batch.drain() == acks_one.drain()
    for fid in (1, 2):
        assert batched.received(fid) == one_by_one.received(fid)
        assert batched.fin_received(fid) == one_by_one.fin_received(fid)
    assert batched.received(1) == [(10, 1), (11, 2), (12, 3)]
    assert batched.fin_received(1) and batched.fin_received(2)
    assert batched.duplicates == one_by_one.duplicates == 4


def test_packet_batch_helpers():
    batch = PacketBatch.from_values([5, 6, 7])
    assert len(batch) == 3
    assert batch[0].get("value") == 5
    pipeline = Pipeline(1)
    survived = pipeline.process_batch(batch)
    assert survived == [True, True, True]
    assert batch.prune_flags() == [False, False, False]
    assert len(batch.survivors()) == 3
    assert pipeline.packets_seen == 3
