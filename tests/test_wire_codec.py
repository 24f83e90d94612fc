"""Wire-codec regression + property suite (PR 9, stream tier PR 14).

Covers the codec error taxonomy (malformed bytes raise only
``WireFormatError``, never a raw ``struct.error``), the interned
``struct.Struct`` caches, and the bit-identity of the stream tier
(``encode_stream``, ``decode_header_fields``, ``decode_values_run``,
``pack_ack``/``unpack_ack``) against the per-packet reference tier.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import (
    Ack,
    AckKind,
    CheetahPacket,
    packets_for_entries,
)
from repro.net.wire import (
    _BULK_MIN_BATCH,
    ACK_MASTER,
    ACK_SWITCH,
    WireFormatError,
    decode_ack,
    decode_header,
    decode_header_fields,
    decode_packet,
    decode_values,
    decode_values_run,
    encode_ack,
    encode_packet,
    encode_stream,
    pack_ack,
    unpack_ack,
)

values64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
packets = st.builds(
    CheetahPacket,
    fid=st.integers(0, (1 << 16) - 1),
    seq=st.integers(0, (1 << 32) - 1),
    values=st.lists(values64, max_size=8).map(tuple),
    flags=st.integers(0, 255),
)


def _packet(n_values: int, fid: int = 7, seq: int = 3) -> CheetahPacket:
    return CheetahPacket(fid=fid, seq=seq,
                         values=tuple(range(n_values)), flags=1)


class TestErrorTaxonomy:
    """Malformed input raises WireFormatError — the documented taxonomy
    — on every decode entry point (regression: ``decode_values`` used
    to leak ``struct.error`` on short buffers)."""

    def test_decode_values_short_buffer_raises_wire_error(self):
        frame = encode_packet(_packet(4))
        # Claim more values than the buffer holds: previously this
        # leaked struct.error out of struct.unpack_from.
        with pytest.raises(WireFormatError):
            decode_values(frame, 5)

    def test_decode_values_truncated_payload(self):
        frame = encode_packet(_packet(4))
        with pytest.raises(WireFormatError):
            decode_values(frame[:-1], 4)

    def test_decode_values_negative_count(self):
        frame = encode_packet(_packet(4))
        with pytest.raises(WireFormatError):
            decode_values(frame, -1)

    @pytest.mark.parametrize("junk", [
        b"",
        b"\x01",
        b"\xff" * 7,            # one byte short of a header
        b"\xff" * 9,            # header + ragged partial value
        b"\x00" * 8 + b"\x01",  # n=0 header with trailing junk
    ])
    def test_decode_packet_and_header_reject_junk(self, junk):
        for decoder in (decode_packet, decode_header):
            with pytest.raises(WireFormatError):
                decoder(junk)

    def test_truncated_value_payload(self):
        frame = encode_packet(_packet(3))
        for cut in (len(frame) - 1, len(frame) - 8, 9):
            with pytest.raises(WireFormatError):
                decode_packet(frame[:cut])
            with pytest.raises(WireFormatError):
                decode_header(frame[:cut])

    def test_oversized_buffer(self):
        frame = encode_packet(_packet(3))
        with pytest.raises(WireFormatError):
            decode_packet(frame + b"\x00" * 8)
        with pytest.raises(WireFormatError):
            decode_header(frame + b"\x00")

    def test_bulk_decoders_reject_malformed_frames(self):
        good = [encode_packet(_packet(2, seq=i))
                for i in range(_BULK_MIN_BATCH)]
        for bad in (b"", b"\x01" * 7, good[0][:-1], good[0] + b"\x00"):
            with pytest.raises(WireFormatError):
                decode_header_fields(good + [bad])
            with pytest.raises(WireFormatError):
                decode_header_fields([bad])
        for short in (b"", good[0][:-1], good[0][:-8]):
            with pytest.raises(WireFormatError):
                decode_values_run(good + [short], [2] * len(good) + [2])
            with pytest.raises(WireFormatError):
                decode_values_run([short], [2])
        with pytest.raises(WireFormatError):
            decode_values_run(good, [-1] * len(good))

    @given(st.binary(max_size=64))
    @settings(max_examples=200)
    def test_never_leaks_struct_error(self, blob):
        """Whatever the bytes, the decoders raise only the taxonomy."""
        for decoder in (decode_packet, decode_header):
            try:
                decoder(blob)
            except WireFormatError:
                pass
        try:
            decode_values(blob, blob[6] if len(blob) > 6 else 1)
        except WireFormatError:
            pass


class TestStructCache:
    """The cached ``struct.Struct`` objects are byte-identical to the
    historical per-call ``f">{{n}}Q"`` formats."""

    @pytest.mark.parametrize("n", [0, 1, 2, 8, 255])
    def test_encode_matches_uncached_format(self, n):
        packet = _packet(n)
        frame = encode_packet(packet)
        header = struct.pack(">HIBB", packet.fid, packet.seq, n,
                             packet.flags)
        expected = header + struct.pack(f">{n}Q", *packet.values)
        assert frame == expected

    def test_cache_survives_interleaved_sizes(self):
        for n in (3, 1, 3, 0, 255, 3):
            packet = _packet(n)
            assert decode_packet(encode_packet(packet)) == packet


class TestRoundTripBoundaries:
    """Hypothesis round trips, pinned at the n=0 and n=255 header-field
    boundaries (n rides in one byte)."""

    @given(fid=st.integers(0, (1 << 16) - 1),
           seq=st.integers(0, (1 << 32) - 1),
           flags=st.integers(0, 255))
    @settings(max_examples=50)
    def test_empty_payload_round_trip(self, fid, seq, flags):
        packet = CheetahPacket(fid=fid, seq=seq, values=(), flags=flags)
        frame = encode_packet(packet)
        assert len(frame) == 8
        assert decode_packet(frame) == packet
        assert decode_header(frame) == (fid, seq, 0, flags)
        assert decode_values(frame, 0) == ()

    @given(fid=st.integers(0, (1 << 16) - 1),
           seq=st.integers(0, (1 << 32) - 1),
           flags=st.integers(0, 255),
           data=st.data())
    @settings(max_examples=20)
    def test_max_payload_round_trip(self, fid, seq, flags, data):
        values = tuple(data.draw(
            st.lists(values64, min_size=255, max_size=255)))
        packet = CheetahPacket(fid=fid, seq=seq, values=values,
                               flags=flags)
        frame = encode_packet(packet)
        assert len(frame) == 8 + 8 * 255
        assert decode_packet(frame) == packet

    @given(packets)
    @settings(max_examples=100)
    def test_header_plus_values_equals_whole_packet(self, packet):
        """decode_header + decode_values ≡ decode_packet: any frame the
        header-only fast path accepts, the value parse completes on —
        with the same fields."""
        frame = encode_packet(packet)
        fid, seq, n, flags = decode_header(frame)
        values = decode_values(frame, n)
        whole = decode_packet(frame)
        assert (fid, seq, flags) == (whole.fid, whole.seq, whole.flags)
        assert n == len(whole.values)
        assert values == whole.values

    @given(st.binary(max_size=80))
    @settings(max_examples=200)
    def test_fast_path_acceptance_matches_decode_packet(self, blob):
        """decode_header and decode_packet accept exactly the same byte
        strings (the duplicated length validation is deliberate)."""
        try:
            decode_packet(blob)
            packet_ok = True
        except WireFormatError:
            packet_ok = False
        try:
            fid, seq, n, flags = decode_header(blob)
            header_ok = True
        except WireFormatError:
            header_ok = False
        assert packet_ok == header_ok
        if header_ok:
            decode_values(blob, n)  # must not raise


class TestBulkBitIdentity:
    """The stream tier's decoders are bit-identical to the per-packet
    tier across random batches (including batches below the bulk
    threshold, which take the scalar fallback)."""

    @given(st.lists(packets, max_size=3 * _BULK_MIN_BATCH))
    @settings(max_examples=50)
    def test_bulk_encode_decode_identity(self, batch):
        frames = [encode_packet(p) for p in batch]
        fids, seqs, ns_col, flags = decode_header_fields(frames)
        assert list(zip(fids, seqs, ns_col, flags)) == \
            [decode_header(f) for f in frames]
        # Ragged widths: the per-frame path.
        assert decode_values_run(frames, ns_col) == [p.values
                                                     for p in batch]
        # One shared width: a single iter_unpack over the join.
        for width in set(ns_col):
            run = [f for f, n in zip(frames, ns_col) if n == width]
            assert decode_values_run(run, [width] * len(run)) == \
                [decode_values(f, width) for f in run]

    def test_bulk_types_are_python_ints(self):
        frames = encode_stream(7, [(i, i + 1)
                                   for i in range(_BULK_MIN_BATCH + 4)])
        columns = decode_header_fields(frames)
        for column in columns:
            assert all(type(field) is int for field in column)
        data = frames[:-1]
        for values in decode_values_run(data, columns[2][:-1]):
            assert type(values) is tuple
            assert all(type(v) is int for v in values)

    def test_boundary_value_survives_bulk(self):
        top = (1 << 64) - 1
        entries = [(top, 0)] * _BULK_MIN_BATCH
        frames = encode_stream(1, entries)
        assert [decode_packet(f) for f in frames] == \
            packets_for_entries(1, entries)
        assert decode_values_run(frames[:-1], [2] * len(entries)) == entries


entry_lists = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.lists(values64, min_size=width, max_size=width).map(tuple),
        max_size=12))
ragged_entry_lists = st.lists(st.lists(values64, max_size=4).map(tuple),
                              max_size=12)


class _HugeStream(list):
    """An (empty) entry list that claims 2**32 entries: the FIN's
    sequence number would not fit the header."""

    def __len__(self):
        return 1 << 32


class TestEncodeStream:
    """``encode_stream`` frames a worker's stream exactly like
    ``encode_packet`` over ``packets_for_entries`` and rejects exactly
    what ``CheetahPacket`` rejects."""

    @given(fid=st.integers(0, (1 << 16) - 1),
           entries=st.one_of(entry_lists, ragged_entry_lists),
           per_packet=st.integers(1, 4))
    @settings(max_examples=150)
    def test_equals_per_packet_encoding(self, fid, entries, per_packet):
        expected = [encode_packet(p) for p in
                    packets_for_entries(fid, entries, per_packet)]
        assert encode_stream(fid, entries, per_packet) == expected

    def test_empty_stream_is_one_fin(self):
        assert encode_stream(9, []) == \
            [encode_packet(p) for p in packets_for_entries(9, [])]
        assert len(encode_stream(9, [], per_packet=3)) == 1

    @given(data=st.data(), per_packet=st.sampled_from([1, 3, 5]))
    @settings(max_examples=10)
    def test_255_value_packets(self, data, per_packet):
        width = 255 // per_packet
        entries = [tuple(data.draw(st.lists(values64, min_size=width,
                                            max_size=width)))
                   for _ in range(2 * per_packet)]
        frames = encode_stream(3, entries, per_packet)
        assert frames == [encode_packet(p) for p in
                          packets_for_entries(3, entries, per_packet)]
        assert len(frames[0]) == 8 + 8 * width * per_packet

    @pytest.mark.parametrize("fid, entries, per_packet", [
        (-1, [(1,)], 1),
        (1 << 16, [(1,)], 1),
        (1, [(1,), (-1,)], 1),
        (1, [(1,), (1 << 64,)], 1),
        (1, [(0,) * 256], 1),
        (1, [(0,) * 128, (0,) * 128], 2),
    ], ids=["fid<0", "fid>16b", "value<0", "value>64b", "256 values",
            "256 packed values"])
    def test_raises_value_error_where_packets_do(self, fid, entries,
                                                 per_packet):
        with pytest.raises(ValueError):
            packets_for_entries(fid, entries, per_packet)
        with pytest.raises(ValueError) as caught:
            encode_stream(fid, entries, per_packet)
        assert not isinstance(caught.value, WireFormatError)

    def test_fin_sequence_must_fit_32_bits(self):
        with pytest.raises(ValueError):
            CheetahPacket(fid=1, seq=1 << 32, flags=1)
        with pytest.raises(ValueError, match="seq must fit 32 bits"):
            encode_stream(1, _HugeStream())

    def test_per_packet_must_be_positive(self):
        with pytest.raises(ValueError):
            encode_stream(1, [(1,)], per_packet=0)


class TestIntAcks:
    """``pack_ack``/``unpack_ack`` and ``encode_ack``/``decode_ack`` are
    one codec: same bytes, same error taxonomy."""

    CODES = {AckKind.MASTER: ACK_MASTER, AckKind.SWITCH: ACK_SWITCH}

    @given(fid=st.integers(0, (1 << 16) - 1),
           seq=st.integers(0, (1 << 32) - 1),
           kind=st.sampled_from(list(AckKind)))
    @settings(max_examples=100)
    def test_agrees_with_dataclass_codec(self, fid, seq, kind):
        ack = Ack(fid=fid, seq=seq, kind=kind)
        data = pack_ack(fid, seq, self.CODES[kind])
        assert data == encode_ack(ack)
        assert unpack_ack(data) == (fid, seq, self.CODES[kind])
        assert decode_ack(data) == ack

    @given(st.binary(max_size=12))
    @settings(max_examples=200)
    def test_same_rejections(self, blob):
        outcomes = []
        for decoder in (unpack_ack, decode_ack):
            try:
                decoder(blob)
                outcomes.append(None)
            except WireFormatError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (len(blob) == 7 and blob[6] < 2)

    @pytest.mark.parametrize("junk", [b"", b"\x00" * 6, b"\x00" * 8])
    def test_bad_length(self, junk):
        for decoder in (unpack_ack, decode_ack):
            with pytest.raises(WireFormatError, match="7 bytes"):
                decoder(junk)

    def test_unknown_kind_code(self):
        for decoder in (unpack_ack, decode_ack):
            with pytest.raises(WireFormatError, match="unknown ACK kind"):
                decoder(b"\x00\x01\x00\x00\x00\x01\x09")

    @pytest.mark.parametrize("fid, seq", [(-1, 0), (1 << 16, 0),
                                          (0, -1), (0, 1 << 32)])
    def test_unencodable_fields_raise_value_error(self, fid, seq):
        with pytest.raises(ValueError):
            Ack(fid=fid, seq=seq)
        with pytest.raises(ValueError):
            pack_ack(fid, seq, ACK_MASTER)


def test_hotpath_profile_times_both_tiers():
    """``repro profile``'s codec block compares the per-packet reference
    tier with the stream tier kernel by kernel (its in-run assertions
    check their outputs are identical); CI gates two of the ratios."""
    from repro.bench.profile import _profile_codec_pipeline
    from repro.obs import names

    codec = _profile_codec_pipeline(rows=400, shards=2, batch_size=64,
                                    seed=0)
    assert codec["packets"] == 400
    assert codec["bytes_on_wire"] == 400 * 16
    for key in names.PROFILE_KERNEL_KEYS:
        assert codec[key]["per_packet_seconds"] > 0, key
    for key in (names.KERNEL_ENCODE, names.KERNEL_DECODE_HEADER,
                names.KERNEL_DECODE_VALUES, names.KERNEL_ACK):
        assert codec[key]["bulk_seconds"] > 0, key
        assert codec[key]["bulk_speedup"] > 0, key
