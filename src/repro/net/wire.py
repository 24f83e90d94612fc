"""Byte-level wire encoding of Cheetah packets, ACKs and column values.

Layout (big-endian, matching Figure 4's variable-length header):

Data packet::

    0        2        6      7      8                8 + 8n
    +--------+--------+------+------+----------------+
    |  fid   |  seq   |  n   |flags | values (n x 8B)|
    +--------+--------+------+------+----------------+

ACK::

    0        2        6      7
    +--------+--------+------+
    |  fid   |  seq   | kind |
    +--------+--------+------+

These functions are exercised by the reliability tests to ensure the
protocol survives a real serialize/deserialize round trip, not just
in-memory object passing.

Two codec tiers share this layout:

* **Per-packet reference** (``encode_packet`` / ``decode_packet`` /
  ``decode_header`` / ``decode_values`` / ``encode_ack`` /
  ``decode_ack``): one interned ``struct.Struct`` call per packet, in
  terms of the validated :class:`CheetahPacket` / :class:`Ack`
  dataclasses.  ``SwitchForwarder.process``, ``MasterEndpoint.process``,
  ``run_transfer`` and the tests speak it.
* **Stream** (``encode_stream`` / ``decode_header_fields`` /
  ``decode_values_run`` / ``pack_ack`` / ``unpack_ack``): what the
  production transport runs, bytes and ints only.  A worker's stream is
  framed straight from its entry tuples; a tick's arrivals are
  header-parsed as four parallel columns with one ``np.frombuffer``
  (the 8-byte header keeps every frame a multiple of 8 bytes, so each
  packet's words land 8-aligned in the join); the fresh packets' values
  come out of one ``iter_unpack`` over their join; ACKs travel as
  ``(fid, seq, code)``.  Each function validates like its per-packet
  counterpart (``ValueError`` for unencodable fields,
  :class:`WireFormatError` for malformed bytes) and is byte-identical
  to it (property-tested).
"""

from __future__ import annotations

import functools
import struct
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.net.packet import (
    FIN_FLAG,
    MAX_VALUES,
    VALUE_BITS,
    Ack,
    AckKind,
    CheetahPacket,
)
from repro.sketches.hashing import fingerprint_bits

_HEADER = struct.Struct(">HIBB")
_ACK = struct.Struct(">HIB")

#: ACK kind codes on the wire (the ACK layout's third field);
#: :class:`AckKind` is the reference tier's view of them.
ACK_MASTER, ACK_SWITCH = 0, 1
_ACK_KIND_CODE = {AckKind.MASTER: ACK_MASTER, AckKind.SWITCH: ACK_SWITCH}
_ACK_KIND_FROM = {code: kind for kind, code in _ACK_KIND_CODE.items()}

#: Header batches at least this large take the ``np.frombuffer`` path;
#: smaller ones loop the per-packet structs (cheaper at that size).
_BULK_MIN_BATCH = 16


class WireFormatError(ValueError):
    """Malformed bytes on the wire."""


# Formats are interned per value count; ``n`` rides in one header byte
# (out-of-range counts raise, uncached), so each cache holds <= 256.
@functools.lru_cache(maxsize=None)
def _frame_struct(n: int) -> struct.Struct:
    """The ``>HIBB{n}Q`` format of a whole ``n``-value frame."""
    if not 0 <= n <= MAX_VALUES:
        raise ValueError(f"at most {MAX_VALUES} values per packet, got {n}")
    return struct.Struct(f">HIBB{n}Q")


@functools.lru_cache(maxsize=None)
def _value_struct(n: int) -> struct.Struct:
    """The ``>8x{n}Q`` format: a frame's ``n`` values, header skipped."""
    if not 0 <= n <= MAX_VALUES:
        raise WireFormatError(
            f"value count must fit the 1-byte header field, got {n}")
    return struct.Struct(f">8x{n}Q")


def encode_packet(packet: CheetahPacket) -> bytes:
    """Serialize a data packet: one cached ``struct.Struct`` call
    (``>HIBB{n}Q``) per packet."""
    values = packet.values
    n = len(values)
    return _frame_struct(n).pack(packet.fid, packet.seq, n, packet.flags,
                                 *values)


def encode_stream(fid: int, entries: Sequence[Tuple[int, ...]],
                  per_packet: int = 1) -> List[bytes]:
    """A worker's whole stream as wire frames, FIN included.

    Byte-identical to ``[encode_packet(p) for p in
    packets_for_entries(fid, entries, per_packet)]`` (property-tested)
    without building the packets: frame ``seq`` carries the values of
    entries ``seq * per_packet ...`` and the last frame is the empty
    FIN.  Validation is :class:`CheetahPacket`'s — ``fid`` 16 bits,
    every ``seq`` 32 bits, at most 255 values per frame, every value
    64 bits — raising ``ValueError`` the same way.
    """
    if per_packet < 1:
        raise ValueError(f"per_packet must be >= 1, got {per_packet}")
    if not 0 <= fid < 1 << 16:
        raise ValueError(f"fid must fit 16 bits, got {fid}")
    fin_seq = -(-len(entries) // per_packet)
    if fin_seq >= 1 << 32:
        raise ValueError(f"seq must fit 32 bits, got {fin_seq}")
    if per_packet == 1:
        groups = entries
    else:
        groups = [tuple(v for entry in entries[start:start + per_packet]
                        for v in entry)
                  for start in range(0, len(entries), per_packet)]
    frames = []
    append = frames.append
    width = pack = None
    try:
        for seq, values in enumerate(groups):
            n = len(values)
            if n != width:
                pack = _frame_struct(n).pack
                width = n
            append(pack(fid, seq, n, 0, *values))
    except struct.error:
        for v in values:
            if not 0 <= v < 1 << VALUE_BITS:
                raise ValueError(
                    f"value {v} does not fit {VALUE_BITS} bits") from None
        raise
    append(_HEADER.pack(fid, fin_seq, 0, FIN_FLAG))
    return frames


def decode_header(data: bytes):
    """Header-only parse: ``(fid, seq, n_values, flags)``.

    The switch fast path: sequence classification and forwarding need
    only the header — exactly like a PISA parser, which extracts headers
    and leaves the payload opaque.  The values of the ~90%-majority
    retransmitted/forwarded packets are never parsed; callers fetch them
    lazily with :func:`decode_values` for the packets that actually hit
    the prune logic.

    The full frame length is validated here even though only the header
    is parsed: a frame accepted by the fast path must be decodable by
    :func:`decode_values` later, and :func:`decode_packet` validates
    through this function, so header-then-values and whole-packet parses
    accept exactly the same byte strings (property-tested in
    ``tests/test_wire_codec.py``).
    """
    if len(data) < _HEADER.size:
        raise WireFormatError(
            f"packet too short: {len(data)} bytes < header {_HEADER.size}"
        )
    fid, seq, n, flags = _HEADER.unpack_from(data)
    expected = _HEADER.size + 8 * n
    if len(data) != expected:
        raise WireFormatError(
            f"length mismatch: header says {n} values ({expected} bytes), "
            f"got {len(data)} bytes"
        )
    return fid, seq, n, flags


def decode_packet(data: bytes) -> CheetahPacket:
    """Parse a data packet; raises :class:`WireFormatError` on junk."""
    fid, seq, n, flags = decode_header(data)
    values = _value_struct(n).unpack(data) if n else ()
    return CheetahPacket(fid=fid, seq=seq, values=values, flags=flags)


def decode_values(data: bytes, n: int):
    """Parse the ``n`` 64-bit values behind a header-checked packet.

    Bounds-checked: a buffer shorter than the claimed ``n`` values
    raises :class:`WireFormatError`, never a raw ``struct.error``, even
    for an unvalidated ``n``.
    """
    if not n:
        return ()
    if n < 0 or len(data) < _HEADER.size + 8 * n:
        raise WireFormatError(
            f"value payload too short: header claims {n} values "
            f"({_HEADER.size + 8 * n} bytes), got {len(data)} bytes"
        )
    return _value_struct(n).unpack_from(data)


# ---------------------------------------------------------------------------
# Stream (vectorized) codec
# ---------------------------------------------------------------------------

def decode_header_fields(
        datas: Sequence[bytes]) -> Tuple[List[int], List[int],
                                         List[int], List[int]]:
    """Column-oriented bulk header decode: ``(fids, seqs, ns, flags)``.

    The header fast path of the stream tier: the batch is joined and its
    header words split with one ``np.frombuffer``; four parallel columns
    instead of per-packet tuples make it ~3x faster than per-packet
    ``struct`` calls on large batches.  ``zip(*decode_header_fields(ds))``
    equals ``[decode_header(d) for d in ds]`` (property-tested), and a
    frame :func:`decode_header` rejects raises the same
    :class:`WireFormatError` here.
    """
    if len(datas) >= _BULK_MIN_BATCH:
        lens = np.fromiter(map(len, datas), dtype=np.int64,
                           count=len(datas))
        if int(lens.min()) >= _HEADER.size and not (lens % 8).any():
            # Whole 64-bit words only, so the join is word-aligned and
            # frame i's header sits at the word offset of the frames
            # before it.
            words = np.frombuffer(b"".join(datas), dtype=">u8").astype(
                np.uint64, copy=False)
            starts = np.zeros(lens.size, dtype=np.int64)
            np.cumsum(lens[:-1] // 8, out=starts[1:])
            first = words[starts]
            fids = first >> np.uint64(48)
            seqs = (first >> np.uint64(16)) & np.uint64(0xFFFFFFFF)
            ns = (first >> np.uint64(8)) & np.uint64(0xFF)
            flags = first & np.uint64(0xFF)
            if (8 * ns.astype(np.int64) + _HEADER.size == lens).all():
                return (fids.tolist(), seqs.tolist(), ns.tolist(),
                        flags.tolist())
    # Small batches loop the per-packet structs — and so does a batch
    # with a malformed frame, which the per-packet validator rejects.
    if not datas:
        return [], [], [], []
    fids, seqs, ns, flags = zip(*map(decode_header, datas))
    return list(fids), list(seqs), list(ns), list(flags)


def decode_values_run(datas: Sequence[bytes],
                      ns: Sequence[int]) -> List[tuple]:
    """Values of a run of header-checked frames, decoded together.

    ``[decode_values(d, n) for d, n in zip(datas, ns)]`` — same tuples,
    same :class:`WireFormatError` on a short payload — but when every
    frame carries the same ``n`` values (always true for the fresh
    packets of one wire pass) the run is joined and split by a single
    ``Struct(">8x{n}Q").iter_unpack``.  Ragged runs, and any frame
    whose length is not exactly its claimed width, take the per-frame
    path, so the taxonomy is :func:`decode_values`'s by construction.
    """
    if datas:
        n = ns[0]
        if (0 < n <= MAX_VALUES and ns.count(n) == len(datas)
                and set(map(len, datas)) == {_HEADER.size + 8 * n}):
            return list(_value_struct(n).iter_unpack(b"".join(datas)))
    return [decode_values(data, n) for data, n in zip(datas, ns)]


def pack_ack(fid: int, seq: int, code: int) -> bytes:
    """Serialize an ACK from its three ints (``code`` is
    :data:`ACK_MASTER` or :data:`ACK_SWITCH`); fields that do not fit
    the layout raise ``ValueError`` like :class:`Ack` does."""
    try:
        return _ACK.pack(fid, seq, code)
    except struct.error:
        raise ValueError(
            f"ACK fields do not fit the wire layout: fid={fid} "
            f"seq={seq} code={code}") from None


def unpack_ack(data: bytes) -> Tuple[int, int, int]:
    """Parse an ACK into ``(fid, seq, code)``; raises
    :class:`WireFormatError` on a bad length or unknown kind code."""
    try:
        ack = _ACK.unpack(data)
    except struct.error:
        raise WireFormatError(
            f"ACK must be {_ACK.size} bytes, got {len(data)}") from None
    if ack[2] not in _ACK_KIND_FROM:
        raise WireFormatError(f"unknown ACK kind code {ack[2]}")
    return ack


def encode_ack(ack: Ack) -> bytes:
    """Serialize an ACK."""
    return pack_ack(ack.fid, ack.seq, _ACK_KIND_CODE[ack.kind])


def decode_ack(data: bytes) -> Ack:
    """Parse an ACK."""
    fid, seq, code = unpack_ack(data)
    return Ack(fid=fid, seq=seq, kind=_ACK_KIND_FROM[code])


# -- column values (Example #8) ---------------------------------------------

#: Fixed-point fraction bits for float columns on the wire.
FLOAT_FRACTION_BITS = 20
_FLOAT_SCALE = 1 << FLOAT_FRACTION_BITS
#: Bias so signed values map into the unsigned 64-bit wire space while
#: preserving order (the switch compares unsigned).
_SIGN_BIAS = 1 << 62


def encode_value(value: Any) -> int:
    """Encode one column value as an order-preserving 64-bit word.

    * ints/floats: biased fixed point (order preserved, so threshold and
      rolling-minimum comparisons on the switch are meaningful);
    * strings: a 64-bit fingerprint (equality only — ordering queries on
      strings are not switch-offloadable).

    Booleans are rejected even though ``bool`` is a subclass of ``int``:
    ``True`` would silently encode as the number ``1`` and round-trip
    through :func:`decode_numeric` as ``1.0``, masking a schema bug (the
    paper's wire format has no boolean column type — predicates on flags
    belong in the worker-side filter, not on the wire).

    >>> encode_value(0)
    4611686018427387904
    >>> decode_numeric(encode_value(-2.5))
    -2.5
    >>> encode_value(True)
    Traceback (most recent call last):
        ...
    TypeError: boolean columns are not part of the wire format
    """
    if isinstance(value, bool):
        raise TypeError("boolean columns are not part of the wire format")
    if isinstance(value, int):
        return _SIGN_BIAS + value * _FLOAT_SCALE
    if isinstance(value, float):
        return _SIGN_BIAS + round(value * _FLOAT_SCALE)
    if isinstance(value, str):
        return fingerprint_bits(value, 64)
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def decode_numeric(word: int) -> float:
    """Invert :func:`encode_value` for numeric values."""
    return (word - _SIGN_BIAS) / _FLOAT_SCALE
