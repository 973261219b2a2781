"""Unit tests for the systematic erasure codecs in :mod:`repro.core.fec`.

The contract every FEC claim in the transport layer rests on: for any
group of up to ``k`` shards, encoding ``m`` parity shards lets the decoder
rebuild *any* combination of at most ``m`` missing data shards bit-exactly
(zero-padded to the longest), using whichever parity shards survive.
"""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fec
from repro.core.fec import (
    FecDecodeError,
    gf_div,
    gf_inv,
    gf_mul,
    make_codec,
)

from tests.core.fec_oracle import PaddedCodec

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


def test_unequal_lengths_encode_as_if_zero_padded():
    codec = make_codec(3, 2)
    shards = [b"aa", b"bbb", b""]
    padded = [shard.ljust(3, b"\x00") for shard in shards]
    parity = codec.encode(shards)
    assert parity == codec.encode(padded)
    assert [len(p) for p in parity] == [3, 3]
    rebuilt = codec.decode([None, b"bbb", None], parity)
    assert rebuilt == [b"aa\x00", b"bbb", b"\x00\x00\x00"]


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


def test_xor_parity_is_plain_xor():
    codec = make_codec(3, 1)
    shards = [b"\x0f\x00", b"\xf0\x01", b"\x33\x02"]
    (parity,) = codec.encode(shards)
    assert parity == bytes(a ^ b ^ c for a, b, c in zip(*shards))


@pytest.mark.parametrize("k,m", GEOMETRIES + [(12, 4)])
def test_scaled_generator_row_and_column_zero_are_ones(k, m):
    matrix = make_codec(k, m).matrix
    assert matrix[0] == [1] * k
    assert [row[0] for row in matrix] == [1] * m
    # The first parity is the plain XOR of the group, whatever m is.
    shards = _shards(k, 16)
    xor = bytes(functools.reduce(operator.xor, col) for col in zip(*shards))
    assert make_codec(k, m).encode(shards)[0] == xor


def test_codecs_share_tables_filled_on_first_use():
    built = dict(fec._MUL_TABLES)
    codec = make_codec(6, 2)
    assert built.keys() <= fec._MUL_TABLES.keys()
    tables = dict(fec._MUL_TABLES)
    make_codec(6, 2).encode(_shards(6, 8))
    assert fec._MUL_TABLES == tables  # a second codec builds nothing
    for row, coefficients in zip(codec._tables, codec.matrix):
        for table, c in zip(row, coefficients):
            assert (table is None) == (c == 1)
            if table is not None:
                assert table == bytes(gf_mul(c, b) for b in range(256))


@st.composite
def _groups(draw):
    """A geometry, a short-or-full group of unequal shards, and its size."""
    k = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    count = draw(st.integers(1, k))
    shards = draw(
        st.lists(st.binary(min_size=0, max_size=64), min_size=count,
                 max_size=count)
    )
    return k, m, shards


@given(group=_groups())
@settings(max_examples=150, deadline=None)
def test_unpadded_codec_matches_the_padded_twin(group):
    """New encode == the padded twin's encode over the scaled matrix, and
    every erasure pattern of up to ``m`` decodes with every sufficient
    parity subset, to the zero-padded originals."""
    k, m, shards = group
    codec = make_codec(k, m)
    twin = PaddedCodec(k, m, codec.matrix)
    parity = codec.encode(shards)
    assert parity == twin.encode(shards)
    length = max(len(shard) for shard in shards)
    padded = [shard.ljust(length, b"\x00") for shard in shards]
    count = len(shards)
    for n_lost in range(1, min(m, count) + 1):
        for lost in itertools.combinations(range(count), n_lost):
            data = [None if i in lost else s for i, s in enumerate(shards)]
            for kept in itertools.combinations(range(m), n_lost):
                par = [parity[j] if j in kept else None for j in range(m)]
                want = [
                    padded[i] if i in lost else shards[i]
                    for i in range(count)
                ]
                assert codec.decode(data, par) == want
                assert twin.decode(data, par) == want


def test_stats_count_operations():
    codec = make_codec(3, 2)
    shards = _shards(3, 8)
    parity = codec.encode(shards)
    codec.decode([None] + shards[1:], parity)
    assert codec.encodes == 1
    assert codec.decodes == 1
