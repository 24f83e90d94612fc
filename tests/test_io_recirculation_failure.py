"""Tests for pipeline recirculation and failure injection."""

import random

import pytest

from repro.core.distinct import DistinctPruner
from repro.switch.compiler import QuerySpec
from repro.switch.controlplane import ControlPlane
from repro.switch.pipeline import PacketContext, Pipeline, RecirculatingPipeline
from repro.switch.programs import DistinctProgram


class TestRecirculation:
    def _counting_pipeline(self, stages):
        pipe = Pipeline(num_stages=stages)
        for i in range(stages):
            def program(stage, packet, i=i):
                packet.set_meta("visited", packet.get("visited") + 1)

            pipe.stage(i).set_program(program)
        return pipe

    def test_pass_count(self):
        logical = self._counting_pipeline(23)   # SKYLINE w=10 logical depth
        recirc = RecirculatingPipeline(logical, physical_stages=12)
        assert recirc.passes == 2
        assert recirc.recirculations == 1
        assert recirc.throughput_factor == pytest.approx(0.5)

    def test_all_logical_stages_execute(self):
        logical = self._counting_pipeline(10)
        recirc = RecirculatingPipeline(logical, physical_stages=4)
        packet = PacketContext(fields={})
        assert recirc.process(packet) is True
        assert packet.get("visited") == 10

    def test_single_pass_when_it_fits(self):
        logical = self._counting_pipeline(5)
        recirc = RecirculatingPipeline(logical, physical_stages=12)
        assert recirc.passes == 1
        assert recirc.throughput_factor == 1.0

    def test_prune_only_at_final_pass(self):
        logical = Pipeline(num_stages=4)
        logical.stage(1).set_program(
            lambda s, p: setattr(p, "prune", True)
        )
        recirc = RecirculatingPipeline(logical, physical_stages=2)
        packet = PacketContext(fields={})
        assert recirc.process(packet) is False
        assert recirc.packets_pruned == 1

    def test_distinct_program_under_recirculation(self):
        """A w=8 DISTINCT folded onto 4 physical stages behaves
        identically to the unfolded pipeline."""
        rng = random.Random(0)
        stream = [rng.randrange(60) for _ in range(1500)]
        plain = DistinctProgram(rows=16, width=8, seed=3)
        folded = DistinctProgram(rows=16, width=8, seed=3)
        recirc = RecirculatingPipeline(folded.pipeline, physical_stages=4)
        for value in stream:
            expected = plain.offer(value)
            packet = PacketContext(fields={"value": int(value)})
            recirc.process(packet)
            # Mirror DistinctProgram.offer's end-of-pipe handling: a hit
            # anywhere in the (folded) chain means the duplicate is pruned.
            pruned = bool(packet.get("seen"))
            assert pruned == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            RecirculatingPipeline(Pipeline(2), physical_stages=0)


class TestFailureInjection:
    """§3: 'If the switch fails, operators can simply reboot the switch
    with empty states' — correctness must survive a mid-query reboot."""

    def test_reboot_mid_stream_keeps_distinct_correct(self):
        rng = random.Random(1)
        stream = [rng.randrange(50) for _ in range(2000)]
        cp = ControlPlane()
        inst = cp.install_query(QuerySpec("distinct", (("d", 32), ("w", 2))))
        forwarded = []
        for i, value in enumerate(stream):
            if i == 1000:
                # Crash + reboot: all switch state is lost, the query is
                # reinstalled; in the meantime nothing is pruned.
                cp.reboot()
                inst = cp.install_query(
                    QuerySpec("distinct", (("d", 32), ("w", 2)))
                )
            if not cp.offer(inst.fid, value):
                forwarded.append(value)
        # The master still sees every distinct key at least once.
        assert set(forwarded) == set(stream)

    def test_reboot_loses_pruning_not_correctness(self):
        """After a reboot the first re-arrival of every key is forwarded
        again (duplicates reach the master; it removes them)."""
        cp = ControlPlane()
        inst = cp.install_query(QuerySpec("distinct", (("d", 8), ("w", 2))))
        assert cp.offer(inst.fid, "k") is False
        assert cp.offer(inst.fid, "k") is True
        cp.reboot()
        inst = cp.install_query(QuerySpec("distinct", (("d", 8), ("w", 2))))
        assert cp.offer(inst.fid, "k") is False   # forwarded anew: safe

    def test_pruner_reset_equals_fresh(self):
        a = DistinctPruner(rows=8, width=2, seed=4)
        for value in range(20):
            a.offer(value % 5)
        a.reset()
        b = DistinctPruner(rows=8, width=2, seed=4)
        rng = random.Random(2)
        for _ in range(200):
            value = rng.randrange(10)
            assert a.offer(value) == b.offer(value)

    def test_reliability_with_adversarial_loss_seeds(self):
        """Protocol correctness across many loss patterns."""
        from repro.net.reliability import run_transfer

        stream = [(i % 12,) for i in range(150)]
        for seed in range(8):
            pruner = DistinctPruner(rows=4, width=2, seed=seed)
            report = run_transfer(
                {1: stream}, lambda v: pruner.offer(v[0]),
                loss_rate=0.3, seed=seed,
            )
            assert {v[0] for v in report.delivered[1]} == set(range(12))
