"""ShardedPruner: K hash-partitioned pipelines, run in process.

Sharding models the switch's pipeline partitioning (§6): each shard is
an independent pruner instance that sees exactly the entries whose key
:func:`shard_of` routes to it, in arrival order.  These tests pin that
contract against an explicit reference — K bare pruners fed the
partitioned stream one entry at a time — for every routing mode, across
the frontend's checkpoint and fault paths, and check that the removed
process-pool executor left no way to be selected.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.runtime import (
    ShardedPruner,
    ShardedSwitchFrontend,
    make_sharded,
    shard_key_fn,
    shard_of,
)
from repro.core import DistinctPruner, GroupByPruner, JoinPruner
from repro.core.join import JoinSide
from repro.switch.compiler import QuerySpec

SHARDS = 3


def _distinct_factory(seed=7):
    return lambda: DistinctPruner(rows=256, width=2, seed=seed)


def _stream(n, spread=40, seed=3):
    rng = random.Random(seed)
    return [rng.randrange(spread) for _ in range(n)]


class _Partitioned:
    """The reference: K bare pruners, each offered its own substream."""

    def __init__(self, factory, shards, query_type=None, seed=0):
        self.pruners = [factory() for _ in range(shards)]
        self.key_fn = shard_key_fn(query_type or "")
        self.seed = seed

    def offer(self, entry):
        key = self.key_fn(entry) if self.key_fn is not None else entry
        shard = shard_of(key, len(self.pruners), self.seed)
        return self.pruners[shard].offer(entry)

    def offer_all(self, entries):
        return [self.offer(entry) for entry in entries]

    def start_second_pass(self):
        for pruner in self.pruners:
            pruner.start_second_pass()


class TestMatchesPartitionedReference:
    def test_offer_batch_matches_reference(self):
        stream = _stream(600)
        reference = _Partitioned(_distinct_factory(), SHARDS, seed=0)
        sharded = make_sharded(_distinct_factory(), SHARDS, None, seed=0)
        assert sharded.offer_batch(stream) == reference.offer_all(stream)
        assert [(s.offered, s.pruned) for s in sharded.per_shard_stats()] \
            == [(p.stats.offered, p.stats.pruned)
                for p in reference.pruners]

    def test_offer_matches_reference(self):
        stream = _stream(60)
        reference = _Partitioned(_distinct_factory(), SHARDS, seed=0)
        sharded = make_sharded(_distinct_factory(), SHARDS, None, seed=0)
        assert [sharded.offer(e) for e in stream] == \
            reference.offer_all(stream)

    def test_mixed_offer_and_batch(self):
        stream = _stream(300)
        reference = _Partitioned(_distinct_factory(), SHARDS, seed=0)
        sharded = make_sharded(_distinct_factory(), SHARDS, None, seed=0)
        got = ([sharded.offer(e) for e in stream[:50]]
               + sharded.offer_batch(stream[50:250])
               + [sharded.offer(e) for e in stream[250:]])
        assert got == reference.offer_all(stream)

    def test_two_pass_join(self):
        rng = random.Random(5)
        first = [(JoinSide.A, rng.randrange(200)) for _ in range(300)]
        second = [(JoinSide.B, rng.randrange(200)) for _ in range(300)]
        factory = lambda: JoinPruner(size_bits=64 * 1024, hashes=3, seed=1)
        reference = _Partitioned(factory, SHARDS, "join", seed=0)
        sharded = make_sharded(factory, SHARDS, "join", seed=0)
        expected = reference.offer_all(first)
        reference.start_second_pass()
        expected += reference.offer_all(second)
        got = sharded.offer_batch(first)
        sharded.start_second_pass()
        got += sharded.offer_batch(second)
        assert got == expected
        assert sharded.stats.offered == len(first) + len(second)

    def test_groupby_routes_on_the_group_key(self):
        rng = random.Random(11)
        stream = [(rng.randrange(30), rng.randrange(100))
                  for _ in range(400)]
        factory = lambda: GroupByPruner(rows=128, width=6, seed=2)
        reference = _Partitioned(factory, SHARDS, "groupby", seed=0)
        sharded = make_sharded(factory, SHARDS, "groupby", seed=0)
        assert sharded.offer_batch(stream) == reference.offer_all(stream)
        # Every entry of one group lands on the group's single shard.
        offered = [p.stats.offered for p in sharded.pruners]
        by_shard = [0] * SHARDS
        for group, _value in stream:
            by_shard[shard_of(group, SHARDS, 0)] += 1
        assert offered == by_shard

    def test_routing_seed_changes_the_partition(self):
        stream = list(range(200))
        counts = []
        for seed in (0, 1):
            sharded = make_sharded(_distinct_factory(), SHARDS, None,
                                   seed=seed)
            sharded.offer_batch(stream)
            counts.append([s.offered for s in sharded.per_shard_stats()])
            assert sum(counts[-1]) == len(stream)
        assert counts[0] != counts[1]

    def test_reset_and_reuse(self):
        stream = _stream(200)
        sharded = make_sharded(_distinct_factory(), SHARDS, None, seed=0)
        first = sharded.offer_batch(stream)
        sharded.reset()
        assert sharded.stats.offered == 0
        assert sharded.offer_batch(stream) == first
        assert sharded.stats.offered == len(stream)

    @given(st.lists(st.integers(0, 50), max_size=200))
    @settings(max_examples=15, deadline=None)
    def test_property_matches_reference(self, stream):
        reference = _Partitioned(_distinct_factory(), SHARDS, seed=0)
        sharded = make_sharded(_distinct_factory(), SHARDS, None, seed=0)
        assert sharded.offer_batch(stream) == reference.offer_all(stream)


class TestSoundness:
    def test_distinct_never_prunes_a_first_occurrence(self):
        stream = _stream(800, spread=120)
        sharded = make_sharded(_distinct_factory(), SHARDS, None, seed=0)
        decisions = sharded.offer_batch(stream)
        seen = set()
        for value, pruned in zip(stream, decisions):
            if value not in seen:
                assert not pruned, value
            seen.add(value)
        assert any(decisions)

    def test_join_never_prunes_a_matching_key(self):
        rng = random.Random(9)
        a_keys = [rng.randrange(300) for _ in range(200)]
        b_keys = [rng.randrange(300) for _ in range(200)]
        factory = lambda: JoinPruner(size_bits=64 * 1024, hashes=3, seed=1)
        sharded = make_sharded(factory, SHARDS, "join", seed=0)
        sharded.offer_batch([(JoinSide.A, k) for k in a_keys])
        sharded.start_second_pass()
        decisions = sharded.offer_batch([(JoinSide.B, k) for k in b_keys])
        matched = set(a_keys)
        for key, pruned in zip(b_keys, decisions):
            if key in matched:
                assert not pruned, key
        assert any(decisions)


class TestFrontend:
    def _spec(self):
        return QuerySpec("distinct", params=(("rows", 256), ("width", 2)))

    def test_frontend_view_is_the_in_process_sharded_pruner(self):
        stream = _stream(500)
        frontend = ShardedSwitchFrontend(shards=SHARDS, seed=0)
        fid = frontend.install_query(self._spec()).fid
        view = frontend.pruner_for(fid)
        assert type(view) is ShardedPruner
        assert view.shards == SHARDS
        decisions = frontend.offer_batch(fid, stream)
        assert sum(decisions) == view.stats.pruned
        assert frontend.per_shard_stats() == view.per_shard_stats()
        frontend.uninstall_query(fid)
        assert not frontend._installed

    def test_suspend_resume_matches_uninterrupted(self):
        stream = _stream(600)
        steady = ShardedSwitchFrontend(shards=SHARDS, seed=0)
        preempted = ShardedSwitchFrontend(shards=SHARDS, seed=0)
        fid_s = steady.install_query(self._spec()).fid
        fid_p = preempted.install_query(self._spec()).fid
        view = preempted.pruner_for(fid_p)
        expected = steady.offer_batch(fid_s, stream[:300])
        got = preempted.offer_batch(fid_p, stream[:300])
        checkpoint = preempted.suspend_query(fid_p)
        assert checkpoint is not None
        # The checkpoint keeps the live pruner objects themselves.
        assert checkpoint.installation.compiled.pruner is view
        assert all(shard.installation.compiled.pruner is pruner
                   for shard, pruner in zip(checkpoint.shards,
                                            view.pruners))
        preempted.resume_query(checkpoint)
        expected += steady.offer_batch(fid_s, stream[300:])
        got += preempted.offer_batch(fid_p, stream[300:])
        assert got == expected
        preempted.uninstall_query(fid_p)

    def test_kill_and_restart_shard_matches_no_fault(self):
        stream = _stream(600)
        steady = ShardedSwitchFrontend(shards=SHARDS, seed=0)
        faulty = ShardedSwitchFrontend(shards=SHARDS, seed=0)
        fid_s = steady.install_query(self._spec()).fid
        fid_f = faulty.install_query(self._spec()).fid
        expected = steady.offer_batch(fid_s, stream)
        got = faulty.offer_batch(fid_f, stream[:200])
        assert faulty.kill_shard(1) == 1
        got += faulty.offer_batch(fid_f, stream[200:400])
        assert faulty.restart_shard(1) == 1
        got += faulty.offer_batch(fid_f, stream[400:])
        assert got == expected
        faulty.uninstall_query(fid_f)


class TestNoProcessPool:
    """The process-pool executor and its ``parallel`` knob are gone."""

    def test_make_sharded_takes_no_parallel_flag(self):
        with pytest.raises(TypeError):
            make_sharded(_distinct_factory(), SHARDS, None, seed=0,
                         parallel=True)

    def test_frontend_takes_no_parallel_flag(self):
        with pytest.raises(TypeError):
            ShardedSwitchFrontend(shards=SHARDS, seed=0, parallel=True)

    def test_runtime_exports_no_executor(self):
        import repro.cluster.runtime as runtime

        assert not hasattr(runtime, "ProcessPoolShardExecutor")

    @pytest.mark.parametrize("module, config", [
        ("repro.cluster.simulation", "SimulationConfig"),
        ("repro.cluster.scheduler", "SchedulerConfig"),
    ])
    def test_configs_have_no_parallel_shards(self, module, config):
        import importlib

        cls = getattr(importlib.import_module(module), config)
        names = {field.name for field in dataclasses.fields(cls)}
        assert "shards" in names
        assert "parallel_shards" not in names

    def test_run_scenario_takes_no_parallel_shards(self):
        from repro.api import run_scenario

        with pytest.raises(TypeError):
            run_scenario("distinct", rows=60, shards=2,
                         parallel_shards=True)

    @pytest.mark.parametrize("argv", [
        ["run", "distinct"],
        ["serve"],
        ["chaos", "distinct"],
        ["bench", "fig11"],
    ])
    def test_cli_rejects_parallel_shards(self, argv, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv + ["--parallel-shards"])
        assert exit_info.value.code == 2
        assert "--parallel-shards" in capsys.readouterr().err
