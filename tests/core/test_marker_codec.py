"""The canonical marker wire codec (one encoder for every transport)."""

import random
import struct

import pytest

from repro.core.markers import (
    MARKER_CODEC_VERSION,
    MARKER_MAGIC,
    MARKER_WIRE_BYTES,
    MarkerDecodeError,
    decode_marker,
    encode_marker,
    piggybacked_credit,
)
from repro.core.packet import MarkerPacket, Packet


class TestRoundTrip:
    def test_plain_marker(self):
        marker = MarkerPacket(channel=3, round_number=17, deficit=412.5)
        wire = encode_marker(marker)
        assert len(wire) == MARKER_WIRE_BYTES
        back = decode_marker(wire)
        assert (back.channel, back.round_number, back.deficit) == (3, 17, 412.5)
        assert back.credit is None

    def test_credit_marker(self):
        marker = MarkerPacket(
            channel=0, round_number=0, deficit=0.0, credit=9
        )
        back = decode_marker(encode_marker(marker))
        assert back.credit == 9

    def test_zero_credit_survives(self):
        """credit=0 is a real advertisement, distinct from 'no credit'."""
        marker = MarkerPacket(
            channel=1, round_number=2, deficit=3.0, credit=0
        )
        back = decode_marker(encode_marker(marker))
        assert back.credit == 0

    def test_wire_bytes_match_default_marker_size(self):
        """The simulated marker size is the real encoded size, so wire
        timing in the simulator matches what a live codec would cost."""
        marker = MarkerPacket(channel=0, round_number=0, deficit=0.0)
        assert MARKER_WIRE_BYTES == 32 == marker.size == MarkerPacket.size
        assert len(encode_marker(marker)) == marker.size


class TestRejection:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match="32 bytes"):
            decode_marker(b"\x00" * 31)

    def test_typed_error_is_a_value_error(self):
        """Pre-existing except ValueError handlers keep working."""
        assert issubclass(MarkerDecodeError, ValueError)
        with pytest.raises(MarkerDecodeError):
            decode_marker(b"")

    def test_oversized_frame_without_sack_flag(self):
        wire = encode_marker(
            MarkerPacket(channel=0, round_number=0, deficit=0.0)
        )
        with pytest.raises(MarkerDecodeError, match="32 bytes"):
            decode_marker(wire + b"\x00")

    def test_sack_extension_frame_is_refused(self):
        """The SACK extension is gone: a well-formed 57-byte frame with
        flag bit 0x02 and two SACK blocks, as codec version 1 used to
        encode it, is refused whole, and so is its 32-byte head alone."""
        head = struct.pack(
            "!HBBIqdq", MARKER_MAGIC, MARKER_CODEC_VERSION, 0x01 | 0x02,
            1, 4, 12.0, 7,
        )
        sack = struct.pack("!QB", 10, 2) + struct.pack("!IIII", 2, 3, 30, 1)
        wire = head + sack
        assert len(wire) == 57
        for frame in (wire, head):
            with pytest.raises(MarkerDecodeError):
                decode_marker(frame)


class TestFuzz:
    def test_random_bytes_never_escape_the_typed_error(self):
        """decode_marker on arbitrary input either parses or raises
        MarkerDecodeError — never struct.error or a crash."""
        rng = random.Random(0xC0DEC)
        for _ in range(2000):
            blob = rng.randbytes(rng.randrange(0, 80))
            try:
                decode_marker(blob)
            except MarkerDecodeError:
                pass

    def test_corrupted_valid_frames(self):
        """Every single-byte corruption of a real frame is either still
        decodable or rejected with the typed error."""
        rng = random.Random(7)
        marker = MarkerPacket(
            channel=2, round_number=9, deficit=100.0, credit=3
        )
        wire = encode_marker(marker)
        assert len(wire) == MARKER_WIRE_BYTES
        for position in range(len(wire)):
            corrupted = bytearray(wire)
            corrupted[position] ^= 1 << rng.randrange(8)
            try:
                decode_marker(bytes(corrupted))
            except MarkerDecodeError:
                pass

    def test_bad_magic(self):
        wire = bytearray(
            encode_marker(MarkerPacket(channel=0, round_number=0, deficit=0.0))
        )
        wire[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decode_marker(bytes(wire))

    def test_bad_version(self):
        wire = bytearray(
            encode_marker(MarkerPacket(channel=0, round_number=0, deficit=0.0))
        )
        wire[2] = MARKER_CODEC_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            decode_marker(bytes(wire))

    def test_reserved_fec_flag_rejected(self):
        """0x04 was reserved for FEC metadata that never got a format; it
        is an unknown flag bit now, like every bit but the credit's."""
        wire = bytearray(
            encode_marker(MarkerPacket(channel=0, round_number=0, deficit=0.0))
        )
        wire[3] |= 0x04
        with pytest.raises(MarkerDecodeError, match="flag"):
            decode_marker(bytes(wire))

    def test_unknown_flag_bits_rejected(self):
        """Every flag bit but the credit's is a hard decode error, alone
        or combined with it."""
        marker = MarkerPacket(channel=1, round_number=2, deficit=3.0, credit=4)
        wire = bytearray(encode_marker(marker))
        base_flags = wire[3]
        for bit in range(1, 8):
            corrupted = bytearray(wire)
            corrupted[3] = base_flags | (1 << bit)
            with pytest.raises(MarkerDecodeError):
                decode_marker(bytes(corrupted))

    def test_flag_byte_fuzz_never_escapes_typed_error(self):
        """All 256 flag-byte values either decode or raise the typed
        error; only 0x00 and the credit bit 0x01 decode."""
        marker = MarkerPacket(channel=0, round_number=5, deficit=1.0)
        wire = bytearray(encode_marker(marker))
        decoded = []
        for flags in range(256):
            corrupted = bytearray(wire)
            corrupted[3] = flags
            try:
                decode_marker(bytes(corrupted))
            except MarkerDecodeError:
                continue
            decoded.append(flags)
        assert decoded == [0x00, 0x01]


class TestPiggyback:
    def test_data_packet_carries_nothing(self):
        assert piggybacked_credit(Packet(size=100, seq=0)) is None

    def test_creditless_marker_carries_nothing(self):
        marker = MarkerPacket(channel=0, round_number=1, deficit=2.0)
        assert piggybacked_credit(marker) is None

    def test_credit_marker_yields_channel_and_credit(self):
        marker = MarkerPacket(channel=2, round_number=1, deficit=0.0, credit=5)
        assert piggybacked_credit(marker) == (2, 5)
