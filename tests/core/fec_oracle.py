"""The GF(256) codec as it was before shards went unpadded: the oracle twin.

Zero-pads a group to its longest shard and works byte by byte with
``gf_mul`` (no tables, no big-ints) over the plain Cauchy generator
``1 / (j ^ (m + i))`` or a ``matrix`` it is handed (the production one).
"""

from repro.core.fec import FecDecodeError, _gf_matrix_invert, gf_inv, gf_mul


class PaddedCodec:
    def __init__(self, k, m, matrix=None):
        self.k, self.m = k, m
        self.matrix = matrix or [
            [gf_inv(j ^ (m + i)) for i in range(k)] for j in range(m)
        ]

    @staticmethod
    def _combine(rows, length):
        """Byte-wise ``sum_r c_r * shard_r`` of ``(c, shard)`` pairs."""
        out = bytearray(length)
        for c, shard in rows:
            for n, byte in enumerate(shard):
                out[n] ^= gf_mul(c, byte)
        return bytes(out)

    def encode(self, shards):
        assert 0 < len(shards) <= self.k
        length = max(len(shard) for shard in shards)
        padded = [shard.ljust(length, b"\x00") for shard in shards]
        return [
            self._combine(zip(row, padded), length) for row in self.matrix
        ]

    def decode(self, data, parity):
        missing = [i for i, shard in enumerate(data) if shard is None]
        rows = [j for j, shard in enumerate(parity) if shard is not None]
        if len(missing) > len(rows):
            raise FecDecodeError("too many erasures")
        if not missing:
            return list(data)
        rows = rows[: len(missing)]
        length = len(parity[rows[0]])
        syndromes = [
            self._combine(
                [(1, parity[j])] + [
                    (self.matrix[j][i], shard.ljust(length, b"\x00"))
                    for i, shard in enumerate(data) if shard is not None
                ],
                length,
            )
            for j in rows
        ]
        inverse = _gf_matrix_invert(
            [[self.matrix[j][i] for i in missing] for j in rows]
        )
        out = list(data)
        for position, coefficients in zip(missing, inverse):
            out[position] = self._combine(zip(coefficients, syndromes), length)
        return out
