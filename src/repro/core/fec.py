"""Systematic erasure codes for proactive stripe-group recovery.

ARQ (:mod:`repro.transport.reliability`) pays a round trip per loss; the
third recovery strategy is *proactive* redundancy: every group of ``k``
data shards is extended with ``m`` parity shards, and any ``k`` of the
``k + m`` reconstruct the originals with no retransmission.  This module
is the pure coding layer — byte shards in, byte shards out; packets,
groups, and scheduling live in :mod:`repro.transport.fec`.

* ``m = 1`` uses plain XOR parity (:class:`XorCodec`): one erasure per
  group recoverable, one table-free pass to encode.
* ``m > 1`` uses a systematic Reed-Solomon-style code over GF(256)
  (:class:`GF256Codec`).  The generator matrix is a Cauchy matrix rather
  than the classic Vandermonde one: *every* square submatrix of a Cauchy
  matrix is invertible over a field, so any combination of up to ``m``
  erasures is decodable with any ``m`` surviving parities — the
  Vandermonde construction famously lacks that guarantee over GF(2^8).
* The arithmetic is pure python: per-coefficient 256-byte translation
  tables make a multiply-accumulate one ``bytes.translate`` plus one
  big-int XOR per (row, shard).

Shards within one call must share a length; the framing layer pads a
group's shards to its longest member before encoding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = [
    "FecCodec",
    "FecDecodeError",
    "GF256Codec",
    "XorCodec",
    "gf_div",
    "gf_inv",
    "gf_mul",
    "make_codec",
]


class FecDecodeError(ValueError):
    """A shard group has more erasures than surviving parity can repair."""


# --------------------------------------------------------------------- #
# GF(256) arithmetic (AES-unrelated polynomial 0x11d, generator 2 — the
# standard choice of Reed-Solomon erasure coders)

_GF_POLY = 0x11D

_GF_EXP: List[int] = [0] * 512
_GF_LOG: List[int] = [0] * 256
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _GF_POLY
for _i in range(255, 512):
    _GF_EXP[_i] = _GF_EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on 0."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _GF_EXP[255 - _GF_LOG[a]]


def gf_div(a: int, b: int) -> int:
    """Quotient ``a / b``; raises on ``b == 0``."""
    if b == 0:
        raise ZeroDivisionError("division by 0 in GF(256)")
    if a == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + 255 - _GF_LOG[b]]


def _gf_matrix_invert(matrix: List[List[int]]) -> List[List[int]]:
    """Invert a square GF(256) matrix by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if aug[r][col] != 0), None
        )
        if pivot is None:  # pragma: no cover - Cauchy matrices never hit it
            raise FecDecodeError("singular recovery matrix")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = gf_inv(aug[col][col])
        if inv_p != 1:
            aug[col] = [gf_mul(v, inv_p) for v in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            row_c = aug[col]
            aug[r] = [v ^ gf_mul(factor, row_c[j])
                      for j, v in enumerate(aug[r])]
    return [row[n:] for row in aug]


# --------------------------------------------------------------------- #
# codecs


class FecCodec:
    """Base class: ``k`` data shards, ``m`` parity shards, equal lengths.

    Subclasses implement :meth:`encode` / :meth:`decode`; groups may be
    *short* (``k' <= k`` data shards) — the first ``k'`` generator
    columns are used, so a count- or timeout-sealed partial group
    encodes and decodes consistently with the same codec.
    """

    kind = "abstract"

    def __init__(self, k: int, m: int) -> None:
        if k < 1:
            raise ValueError(f"need at least one data shard, got k={k}")
        if m < 1:
            raise ValueError(f"need at least one parity shard, got m={m}")
        if k + m > 256:
            raise ValueError(f"GF(256) supports k + m <= 256, got {k + m}")
        self.k = k
        self.m = m
        #: encode calls served
        self.encodes = 0
        #: decode calls that reconstructed at least one shard
        self.decodes = 0

    # -- shared validation -------------------------------------------- #

    def _check_group(self, shards: Sequence[bytes]) -> int:
        if not shards:
            raise ValueError("cannot encode an empty shard group")
        if len(shards) > self.k:
            raise ValueError(
                f"group has {len(shards)} shards, codec holds k={self.k}"
            )
        length = len(shards[0])
        for shard in shards:
            if len(shard) != length:
                raise ValueError("shards in a group must share one length")
        return length

    def _erasures(
        self,
        data: Sequence[Optional[bytes]],
        parity: Sequence[Optional[bytes]],
    ) -> List[int]:
        if len(data) > self.k:
            raise ValueError(
                f"group has {len(data)} shards, codec holds k={self.k}"
            )
        if len(parity) != self.m:
            raise ValueError(
                f"expected {self.m} parity slots, got {len(parity)}"
            )
        missing = [i for i, shard in enumerate(data) if shard is None]
        available = sum(1 for shard in parity if shard is not None)
        if len(missing) > available:
            raise FecDecodeError(
                f"{len(missing)} erasures but only {available} parity "
                f"shards survive"
            )
        return missing

    def encode(self, shards: Sequence[bytes]) -> List[bytes]:
        """The ``m`` parity shards for a (possibly short) group."""
        raise NotImplementedError

    def decode(
        self,
        data: Sequence[Optional[bytes]],
        parity: Sequence[Optional[bytes]],
    ) -> List[bytes]:
        """Reconstruct the full data shard list.

        ``data`` holds ``None`` at erased positions; ``parity`` holds
        ``None`` for lost parity shards (length exactly ``m``).  Raises
        :class:`FecDecodeError` when erasures exceed surviving parity.
        """
        raise NotImplementedError

    def stats(self) -> Dict[str, int]:
        return {"encodes": self.encodes, "decodes": self.decodes}


def _xor_reduce(shards: Sequence[bytes], length: int) -> bytes:
    acc = 0
    for shard in shards:
        acc ^= int.from_bytes(shard, "big")
    return acc.to_bytes(length, "big")


class XorCodec(FecCodec):
    """Single-parity XOR code (``m = 1``): repairs one erasure per group."""

    kind = "xor"

    def __init__(self, k: int) -> None:
        super().__init__(k, 1)

    def encode(self, shards: Sequence[bytes]) -> List[bytes]:
        length = self._check_group(shards)
        self.encodes += 1
        return [_xor_reduce(shards, length)]

    def decode(
        self,
        data: Sequence[Optional[bytes]],
        parity: Sequence[Optional[bytes]],
    ) -> List[bytes]:
        missing = self._erasures(data, parity)
        if not missing:
            return list(data)  # type: ignore[arg-type]
        self.decodes += 1
        present = [shard for shard in data if shard is not None]
        present.append(parity[0])  # type: ignore[arg-type]
        length = len(present[0])
        repaired = _xor_reduce(present, length)
        out = list(data)
        out[missing[0]] = repaired
        return out  # type: ignore[return-value]


class GF256Codec(FecCodec):
    """Reed-Solomon-style systematic code over GF(256), Cauchy generator.

    Parity row ``j`` is ``sum_i C[j][i] * data_i`` with
    ``C[j][i] = 1 / (x_j ^ y_i)``, ``x_j = j`` and ``y_i = m + i``.  The
    two index sets are disjoint, so every entry is defined, and every
    square submatrix of a Cauchy matrix is invertible — any erasure
    pattern with ``erasures <= surviving parities`` is decodable.
    """

    kind = "gf256"

    def __init__(self, k: int, m: int) -> None:
        super().__init__(k, m)
        self.matrix: List[List[int]] = [
            [gf_inv(j ^ (m + i)) for i in range(k)] for j in range(m)
        ]
        self._tables: Dict[int, bytes] = {}

    def _table(self, coefficient: int) -> bytes:
        """The 256-entry multiply-by-``coefficient`` translation table."""
        table = self._tables.get(coefficient)
        if table is None:
            table = bytes(gf_mul(coefficient, b) for b in range(256))
            self._tables[coefficient] = table
        return table

    def _scaled(self, shard: bytes, coefficient: int) -> int:
        if coefficient == 0:
            return 0
        if coefficient == 1:
            return int.from_bytes(shard, "big")
        return int.from_bytes(shard.translate(self._table(coefficient)), "big")

    def encode(self, shards: Sequence[bytes]) -> List[bytes]:
        length = self._check_group(shards)
        self.encodes += 1
        out: List[bytes] = []
        for row in self.matrix:
            acc = 0
            for i, shard in enumerate(shards):
                acc ^= self._scaled(shard, row[i])
            out.append(acc.to_bytes(length, "big"))
        return out

    def decode(
        self,
        data: Sequence[Optional[bytes]],
        parity: Sequence[Optional[bytes]],
    ) -> List[bytes]:
        missing = self._erasures(data, parity)
        if not missing:
            return list(data)  # type: ignore[arg-type]
        self.decodes += 1
        rows = [j for j, shard in enumerate(parity) if shard is not None]
        rows = rows[: len(missing)]
        length = len(next(s for s in parity if s is not None))
        # Syndromes: the parity contribution the known shards leave
        # unexplained is exactly the missing shards' contribution.
        syndromes: List[int] = []
        for j in rows:
            acc = int.from_bytes(parity[j], "big")  # type: ignore[arg-type]
            row = self.matrix[j]
            for i, shard in enumerate(data):
                if shard is not None:
                    acc ^= self._scaled(shard, row[i])
            syndromes.append(acc)
        sub = [[self.matrix[j][i] for i in missing] for j in rows]
        inverse = _gf_matrix_invert(sub)
        syndrome_bytes = [s.to_bytes(length, "big") for s in syndromes]
        out = list(data)
        for c, position in enumerate(missing):
            acc = 0
            for r, syndrome in enumerate(syndrome_bytes):
                acc ^= self._scaled(syndrome, inverse[c][r])
            out[position] = acc.to_bytes(length, "big")
        return out  # type: ignore[return-value]


def make_codec(k: int, m: int) -> FecCodec:
    """Build the right codec for a ``(k, m)`` group geometry."""
    if m == 1:
        return XorCodec(k)
    return GF256Codec(k, m)
