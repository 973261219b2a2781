"""Unit tests for the systematic erasure codecs in :mod:`repro.core.fec`.

The contract every FEC claim in the transport layer rests on: for any
group of up to ``k`` equal-length shards, encoding ``m`` parity shards
lets the decoder rebuild *any* combination of at most ``m`` missing data
shards bit-exactly, using whichever parity shards survive.
"""

import itertools
import random

import pytest

from repro.core.fec import (
    FecDecodeError,
    GF256Codec,
    XorCodec,
    gf_div,
    gf_inv,
    gf_mul,
    make_codec,
)

RNG = random.Random(20260808)


def _shards(count, length, rng=RNG):
    return [bytes(rng.randrange(256) for _ in range(length)) for _ in range(count)]


# --------------------------------------------------------------------- #
# field arithmetic


def test_gf_multiplicative_inverse_over_entire_field():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
        assert gf_div(a, a) == 1


def test_gf_mul_identity_and_zero():
    for a in range(256):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0


def test_gf_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_gf_mul_distributes_over_xor():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


# --------------------------------------------------------------------- #
# constructor validation


@pytest.mark.parametrize("k,m", [(0, 1), (1, 0), (-1, 2), (255, 2)])
def test_invalid_geometry_rejected(k, m):
    with pytest.raises(ValueError):
        make_codec(k, m)


def test_unequal_shard_lengths_rejected():
    codec = make_codec(3, 2)
    with pytest.raises(ValueError):
        codec.encode([b"aa", b"bbb", b"cc"])


def test_too_many_shards_rejected():
    codec = make_codec(3, 2)
    with pytest.raises(ValueError):
        codec.encode(_shards(4, 8))


# --------------------------------------------------------------------- #
# exhaustive erasure recovery

GEOMETRIES = [(1, 1), (2, 1), (3, 2), (5, 3), (6, 2), (6, 3)]


@pytest.mark.parametrize("k,m", GEOMETRIES)
def test_every_erasure_pattern_recovers_bit_exact(k, m):
    """All data-erasure patterns of size <= m decode, for all parity
    survivor subsets large enough to cover them."""
    codec = make_codec(k, m)
    shards = _shards(k, 64)
    parity = codec.encode(shards)
    for n_lost in range(1, m + 1):
        for lost in itertools.combinations(range(k), n_lost):
            for kept_parity in itertools.combinations(range(m), n_lost):
                data = [
                    None if i in lost else shards[i] for i in range(k)
                ]
                par = [
                    parity[j] if j in kept_parity else None for j in range(m)
                ]
                decoded = codec.decode(data, par)
                assert decoded == shards, (
                    f"k={k} m={m} lost={lost} parity_kept={kept_parity}"
                )


@pytest.mark.parametrize("k,m", GEOMETRIES)
def test_short_group_recovers(k, m):
    """Groups sealed short (k' < k) use the matrix's first k' columns."""
    if k == 1:
        pytest.skip("no shorter group exists")
    codec = make_codec(k, m)
    shards = _shards(k - 1, 32)
    parity = codec.encode(shards)
    data = [None] + shards[1:]
    assert codec.decode(data, parity) == shards


def test_overload_raises_fec_decode_error():
    codec = make_codec(4, 2)
    shards = _shards(4, 16)
    parity = codec.encode(shards)
    data = [None, None, None, shards[3]]
    with pytest.raises(FecDecodeError):
        codec.decode(data, parity)
    # ... and losing parity tightens the bound further.
    data = [None, None] + shards[2:]
    with pytest.raises(FecDecodeError):
        codec.decode(data, [parity[0], None])


def test_no_erasures_is_identity():
    codec = make_codec(4, 2)
    shards = _shards(4, 16)
    parity = codec.encode(shards)
    assert codec.decode(list(shards), parity) == shards


def test_xor_codec_selected_for_single_parity():
    assert isinstance(make_codec(5, 1), XorCodec)
    assert isinstance(make_codec(5, 2), GF256Codec)


def test_xor_parity_is_plain_xor():
    codec = make_codec(3, 1)
    shards = [b"\x0f\x00", b"\xf0\x01", b"\x33\x02"]
    (parity,) = codec.encode(shards)
    assert parity == bytes(a ^ b ^ c for a, b, c in zip(*shards))


def test_stats_count_operations():
    codec = make_codec(3, 2)
    shards = _shards(3, 8)
    parity = codec.encode(shards)
    codec.decode([None] + shards[1:], parity)
    stats = codec.stats()
    assert stats["encodes"] == 1
    assert stats["decodes"] == 1
