"""The §7.2 reliability protocol over UDP-like lossy channels.

Key difficulty: the master cannot detect loss from sequence gaps because
the switch legitimately prunes packets.  Cheetah therefore makes the
switch a protocol participant:

* every worker numbers entries with ``seq`` and retransmits unACKed
  packets on timeout;
* the switch tracks, per flow, the last processed sequence ``X``:

  - ``Y == X + 1``: process normally; if pruned, the **switch** sends
    ``ACK(Y)``; otherwise the master will;
  - ``Y <= X``: a retransmission of an already-processed packet —
    forward *without* reprocessing (so switch state is not corrupted);
  - ``Y > X + 1``: an earlier packet is missing — drop and wait for it;

* the master ACKs every packet it receives.

Correctness relies on the superset-safety of all pruning algorithms: if
a pruned packet's retransmission slips through to the master (the
``Y <= X`` path), the master's result is unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.channel import LossyChannel
from repro.net.packet import Ack, AckKind, CheetahPacket, FIN_FLAG
from repro.net.wire import (
    ACK_MASTER,
    ACK_SWITCH,
    decode_ack,
    decode_header_fields,
    decode_packet,
    decode_values,
    decode_values_run,
    encode_ack,
    encode_packet,
    encode_stream,
    pack_ack,
)

PruneFn = Callable[[Tuple[int, ...]], bool]

#: Unacked packets a worker keeps in flight per flow (the §7.2 send
#: window).  This is also the per-flow bound on the batch the pipelined
#: switch drains per tick.
WINDOW = 32

#: Event-loop ticks before a worker retransmits an unacked packet.
TIMEOUT_TICKS = 8


class ReliableWorker:
    """CWorker side: send entries, retransmit on timeout.

    Parameters
    ----------
    fid:
        Flow id stamped on every packet (16 bits on the wire).
    entries:
        The entry stream, one tuple of 64-bit words per entry; a FIN
        packet is appended automatically.
    timeout_ticks:
        Retransmit an unACKed packet after this many event-loop ticks.
    window:
        Maximum unACKed packets in flight — this is the bound on the
        batch the switch can drain per tick in the pipelined driver.
    per_packet:
        Entries packed per packet (the §9 multi-entry extension).
    controller:
        Optional :class:`~repro.net.congestion.RateController`.  When
        present, every send (new or retransmitted) must first obtain a
        pacing token and a fully acked window triggers additive
        increase — the AIMD transport mode (``docs/CONGESTION.md``).
        The worker never reports decreases itself: congestion signals
        come exclusively from the switch ingress queue via
        :meth:`~repro.net.congestion.RateController.on_queue_signal`
        (random wire loss is not congestion).  ``None`` (the default)
        keeps the historical fixed schedule bit-identical.
    """

    def __init__(self, fid: int, entries: Sequence[Tuple[int, ...]],
                 timeout_ticks: int = TIMEOUT_TICKS, window: int = WINDOW,
                 per_packet: int = 1, controller=None):
        if timeout_ticks < 1:
            raise ValueError(f"timeout must be >= 1 tick, got {timeout_ticks}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.fid = fid
        self.timeout_ticks = timeout_ticks
        self.window = window
        # Serialize once, straight from the entry tuples (which also
        # validates ``per_packet``): retransmissions resend the cached
        # bytes, the CWorker's serialization buffer; frame ``seq`` is
        # ``_wire[seq]``.
        self._wire: List[bytes] = encode_stream(fid, entries, per_packet)
        self._count = len(self._wire)
        self._next_new = 0
        self._unacked: Dict[int, int] = {}   # seq -> last send tick
        self._acked: set = set()
        self.retransmissions = 0
        self.controller = controller
        #: Ticks on which the retransmit-timer scan actually ran; the
        #: scan is skipped entirely while no packets are in flight
        #: (idle or fully acked streams cost O(1) per tick).
        self.timer_scans = 0

    @property
    def done(self) -> bool:
        """All packets (including FIN) are acknowledged."""
        return len(self._acked) == self._count

    def on_ack(self, ack: Ack) -> None:
        """Process an ACK object; other flows' ACKs are ignored."""
        if ack.fid == self.fid:
            self.on_ack_seq(ack.seq)

    def on_ack_seq(self, seq: int) -> None:
        """Sequence ``seq`` of this flow was acknowledged.

        Only the *first* ACK of a sequence credits the rate
        controller's acked window — duplicate ACKs (retransmission
        echoes) must not inflate the additive-increase clock.
        """
        if seq not in self._acked:
            if self.controller is not None:
                self.controller.on_ack()
            self._acked.add(seq)
        self._unacked.pop(seq, None)

    def replay_window(self) -> int:
        """Survivor takeover after a worker crash (``docs/CHAOS.md``).

        Models a worker dying mid-pass: a survivor picks up the dead
        worker's serialized packet buffer (``_wire``) and §7.2 window
        bookkeeping, and — not knowing which in-flight packets made it
        — immediately re-sends every unACKed packet by zeroing their
        last-send ticks (the next :meth:`tick` retransmits them all,
        lowest seq first).  Correctness is the protocol's: the switch
        forwards already-processed sequences without reprocessing and
        the master deduplicates, so results are unchanged; the cost
        shows up as retransmissions.  Returns the replayed window size.
        """
        for seq in self._unacked:
            self._unacked[seq] = -(1 << 30)
        return len(self._unacked)

    def tick(self, now: int, channel: LossyChannel) -> None:
        """Retransmit timed-out packets; send new ones up to the window.

        ``_unacked`` iterates in ascending-seq order by construction:
        packets enter in send order, timeouts update values in place
        (which preserves dict position), and ACKs only remove — so no
        sort is needed, and a timeout round resends the missing head
        *before* the packets queued behind it (which the switch would
        gap-drop until the head arrives).

        The retransmit-timer scan only runs while packets are actually
        in flight: an idle stream (window empty — fully acked, or
        stalled waiting for pacing tokens with nothing outstanding)
        costs O(1) per tick instead of rebuilding the pending set.

        With a :attr:`controller` attached, every send is gated on a
        pacing token; a packet denied a token simply stays timed out
        and is retried next tick (head-first order preserved — the
        loop stops rather than skipping ahead, so a later sequence
        never jumps the still-missing head).
        """
        ctrl = self.controller
        if ctrl is not None:
            ctrl.advance()
        if self._unacked:
            self.timer_scans += 1
            timeout = self.timeout_ticks
            for seq, sent_at in list(self._unacked.items()):
                if now - sent_at >= timeout:
                    if ctrl is not None and not ctrl.try_send():
                        break
                    channel.send(self._wire[seq])
                    self._unacked[seq] = now
                    self.retransmissions += 1
        while (self._next_new < self._count
               and len(self._unacked) < self.window):
            if ctrl is not None and not ctrl.try_send():
                break
            channel.send(self._wire[self._next_new])
            self._unacked[self._next_new] = now
            self._next_new += 1


class SwitchForwarder:
    """Switch side: per-flow sequence tracking + prune ACKs.

    ``entries_per_packet > 1`` enables the §9 multi-entry mode: the
    packet's values are split into fixed-width entries, each gets its
    own prune decision, and pruned entries are *popped* from the packet
    (P4 header popping) — the packet itself is only dropped (and
    switch-ACKed) when every entry was pruned.
    """

    def __init__(self, prune_fn: PruneFn, entries_per_packet: int = 1,
                 values_per_entry: int = 1):
        if entries_per_packet < 1 or values_per_entry < 1:
            raise ValueError(
                "entries_per_packet and values_per_entry must be >= 1"
            )
        self.prune_fn = prune_fn
        self.entries_per_packet = entries_per_packet
        self.values_per_entry = values_per_entry
        self._last_seq: Dict[int, int] = {}
        self.pruned = 0
        self.forwarded = 0
        self.entries_popped = 0
        self.dropped_out_of_order = 0
        self.forwarded_retransmissions = 0

    def _split_entries(self, values: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        step = self.values_per_entry
        if len(values) % step:
            raise ValueError(
                f"packet carries {len(values)} values, not a multiple of "
                f"{step} per entry"
            )
        return [values[i:i + step] for i in range(0, len(values), step)]

    def process(self, data: bytes, to_master: LossyChannel,
                to_worker: LossyChannel) -> None:
        """Handle one wire packet from a worker."""
        packet = decode_packet(data)
        last = self._last_seq.get(packet.fid, -1)
        if packet.seq == last + 1:
            self._last_seq[packet.fid] = packet.seq
            if packet.is_fin:
                self.forwarded += 1
                to_master.send(data)
                return
            surviving: List[int] = []
            for entry in self._split_entries(packet.values):
                if self.prune_fn(entry):
                    self.entries_popped += 1
                else:
                    surviving.extend(entry)
            if not surviving:
                self.pruned += 1
                to_worker.send(encode_ack(
                    Ack(fid=packet.fid, seq=packet.seq, kind=AckKind.SWITCH)
                ))
                return
            self.forwarded += 1
            if len(surviving) == len(packet.values):
                to_master.send(data)
            else:
                popped = CheetahPacket(fid=packet.fid, seq=packet.seq,
                                       values=tuple(surviving),
                                       flags=packet.flags)
                to_master.send(encode_packet(popped))
            return
        if packet.seq <= last:
            # Retransmission of a processed packet: forward unprocessed.
            # The master deduplicates; pruning state must not be touched.
            self.forwarded_retransmissions += 1
            to_master.send(data)
            return
        # A gap: an earlier packet is still missing; drop and wait.
        self.dropped_out_of_order += 1


# process_batch outcome codes (private to the batched forwarder).
_PENDING, _FORWARD, _PRUNED, _RETRANSMIT, _GAP = range(5)


class BatchedSwitchForwarder(SwitchForwarder):
    """Batched §7.2 switch frontend: one prune call per arrival batch.

    :meth:`process_batch` consumes one event-loop tick's arrivals in
    three phases: (1) decode and sequence-classify every packet in
    arrival order — identical per-flow ``last_seq`` transitions to
    per-packet :meth:`~SwitchForwarder.process`; (2) make all in-order
    data packets' prune decisions with a single ``prune_batch_fn`` call
    (the vectorized dataplane — bit-identical to per-entry ``prune_fn``
    by the batched-dataplane equivalence property); (3) emit ACKs and
    forwards in arrival order, so each channel sees exactly the send
    sequence — and therefore the same loss/reorder RNG draws — as the
    per-packet switch.  Given identical inputs the two forwarders are
    observationally indistinguishable; only the Python dispatch cost
    differs, which is what ``repro bench e2e`` measures.

    Each packet carries one entry of ``values_per_entry`` words; the §9
    multi-entry popping path is only available on the per-packet base
    class.
    """

    def __init__(self, prune_fn: PruneFn,
                 prune_batch_fn: Optional[Callable] = None,
                 values_per_entry: int = 1):
        super().__init__(prune_fn, entries_per_packet=1,
                         values_per_entry=values_per_entry)
        if prune_batch_fn is None:
            def prune_batch_fn(batch):
                fn = self.prune_fn
                return [fn(values) for values in batch]
        self.prune_batch_fn = prune_batch_fn
        self.batches = 0
        self.largest_batch = 0

    def process_batch(self, datas: Sequence[bytes], to_master: LossyChannel,
                      to_worker: LossyChannel) -> None:
        """Handle one tick's wire packets from the workers.

        Only the headers of the arrival batch are parsed up front — one
        vectorized :func:`decode_header_fields` call (like a PISA
        parser, the payload stays opaque for forwarding decisions); the
        values of the in-order *fresh* packets — the only ones that
        reach the prune logic — come out of one
        :func:`decode_values_run` over those packets.  Under loss,
        retransmissions dominate arrivals, so this skips the bulk of
        the payload parsing the per-packet path performs.  Nothing here
        builds a per-packet object: frames in, frames and int-coded
        ACKs out.
        """
        if not datas:
            return
        fids, seqs, ns, flag_col = decode_header_fields(datas)
        outcomes: List[int] = []
        fresh: List[int] = []
        last_seq = self._last_seq
        for i, (fid, seq) in enumerate(zip(fids, seqs)):
            last = last_seq.get(fid, -1)
            if seq == last + 1:
                last_seq[fid] = seq
                if flag_col[i] & FIN_FLAG:
                    outcomes.append(_FORWARD)
                else:
                    outcomes.append(_PENDING)
                    fresh.append(i)
            elif seq <= last:
                outcomes.append(_RETRANSMIT)
            else:
                outcomes.append(_GAP)
        if fresh:
            decisions = self.prune_batch_fn(decode_values_run(
                [datas[i] for i in fresh], [ns[i] for i in fresh]))
            if len(decisions) != len(fresh):
                raise ValueError(
                    f"prune_batch_fn returned {len(decisions)} decisions "
                    f"for {len(fresh)} entries"
                )
            self.batches += 1
            self.largest_batch = max(self.largest_batch, len(fresh))
            for i, pruned in zip(fresh, decisions):
                outcomes[i] = _PRUNED if pruned else _FORWARD
        forward = to_master.send
        ack = to_worker.send
        forwarded = pruned = retransmitted = 0
        for data, fid, seq, outcome in zip(datas, fids, seqs, outcomes):
            if outcome == _FORWARD:
                forwarded += 1
                forward(data)
            elif outcome == _PRUNED:
                pruned += 1
                ack(pack_ack(fid, seq, ACK_SWITCH))
            elif outcome == _RETRANSMIT:
                retransmitted += 1
                forward(data)
        self.forwarded += forwarded
        self.pruned += pruned
        self.forwarded_retransmissions += retransmitted
        self.dropped_out_of_order += (len(datas) - forwarded - pruned
                                      - retransmitted)


class MasterEndpoint:
    """CMaster side: ACK everything, deduplicate, collect entries."""

    def __init__(self):
        self._entries: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._fins: set = set()
        self._seen: Dict[int, set] = {}
        self.duplicates = 0

    def process(self, data: bytes, to_worker: LossyChannel) -> None:
        """Handle one wire packet from the switch."""
        packet = decode_packet(data)
        to_worker.send(encode_ack(
            Ack(fid=packet.fid, seq=packet.seq, kind=AckKind.MASTER)
        ))
        seen = self._seen.setdefault(packet.fid, set())
        if packet.seq in seen:
            self.duplicates += 1
            return
        seen.add(packet.seq)
        if packet.is_fin:
            self._fins.add(packet.fid)
            return
        self._entries.setdefault(packet.fid, {})[packet.seq] = packet.values

    def process_batch(self, datas: Sequence[bytes],
                      to_worker: LossyChannel) -> None:
        """Handle one tick's wire packets from the switch.

        Observationally identical to :meth:`process` per packet in
        order (same ACK send sequence, same stored entries), but the
        batch's headers are parsed with one vectorized
        :func:`decode_header_fields` call and only headers are parsed
        for the duplicate majority — a forwarded retransmission's
        values are only decoded the first time its sequence number is
        seen.
        """
        ack = to_worker.send
        seen_by_fid = self._seen
        for data, fid, seq, n, flags in zip(datas,
                                            *decode_header_fields(datas)):
            ack(pack_ack(fid, seq, ACK_MASTER))
            seen = seen_by_fid.get(fid)
            if seen is None:
                seen = seen_by_fid[fid] = set()
            if seq in seen:
                self.duplicates += 1
                continue
            seen.add(seq)
            if flags & FIN_FLAG:
                self._fins.add(fid)
                continue
            self._entries.setdefault(fid, {})[seq] = decode_values(data, n)

    def received(self, fid: int) -> List[Tuple[int, ...]]:
        """Entries received for ``fid``, in sequence order."""
        entries = self._entries.get(fid, {})
        return [entries[seq] for seq in sorted(entries)]

    def received_count(self, fid: int) -> int:
        """How many distinct entries arrived for ``fid``."""
        return len(self._entries.get(fid, ()))

    def fin_received(self, fid: int) -> bool:
        """Whether the worker's end-of-stream marker arrived."""
        return fid in self._fins


@dataclasses.dataclass
class TransferReport:
    """Outcome of :func:`run_transfer`."""

    delivered: Dict[int, List[Tuple[int, ...]]]
    ticks: int
    retransmissions: int
    switch_pruned: int
    switch_forwarded: int
    master_duplicates: int


def run_transfer(workers_entries: Dict[int, Sequence[Tuple[int, ...]]],
                 prune_fn: PruneFn,
                 loss_rate: float = 0.0,
                 seed: int = 0,
                 timeout_ticks: int = TIMEOUT_TICKS,
                 max_ticks: int = 1_000_000,
                 per_packet: int = 1,
                 values_per_entry: int = 1) -> TransferReport:
    """Run the full protocol until every worker completes.

    ``workers_entries`` maps fid -> entry tuples; all flows share one
    switch running ``prune_fn``.  Loss applies independently on the
    worker->switch, switch->master, and ACK return channels.
    ``per_packet > 1`` packs several entries per packet (§9) — the
    switch then pops pruned entries instead of dropping whole packets.
    """
    up = LossyChannel(loss_rate, seed=seed * 7 + 1, name="worker->switch")
    down = LossyChannel(loss_rate, seed=seed * 7 + 2, name="switch->master")
    acks = LossyChannel(loss_rate, seed=seed * 7 + 3, name="acks")

    workers = {
        fid: ReliableWorker(fid, entries, timeout_ticks=timeout_ticks,
                            per_packet=per_packet)
        for fid, entries in workers_entries.items()
    }
    switch = SwitchForwarder(prune_fn, entries_per_packet=per_packet,
                             values_per_entry=values_per_entry)
    master = MasterEndpoint()

    tick = 0
    while not all(w.done for w in workers.values()):
        tick += 1
        if tick > max_ticks:
            raise RuntimeError(
                f"transfer did not complete within {max_ticks} ticks "
                "(protocol livelock?)"
            )
        for worker in workers.values():
            worker.tick(tick, up)
        for data in up.drain():
            switch.process(data, down, acks)
        for data in down.drain():
            master.process(data, acks)
        for data in acks.drain():
            ack = decode_ack(data)
            worker = workers.get(ack.fid)
            if worker is not None:
                worker.on_ack(ack)

    delivered = {fid: master.received(fid) for fid in workers}
    return TransferReport(
        delivered=delivered,
        ticks=tick,
        retransmissions=sum(w.retransmissions for w in workers.values()),
        switch_pruned=switch.pruned,
        switch_forwarded=switch.forwarded,
        master_duplicates=master.duplicates,
    )
