"""Systematic erasure code for proactive stripe-group recovery.

ARQ (:mod:`repro.transport.reliability`) pays a round trip per loss; the
third recovery strategy is *proactive* redundancy: every group of ``k``
data shards is extended with ``m`` parity shards, and any ``k`` of the
``k + m`` reconstruct the originals with no retransmission.  This module
is the pure coding layer — byte shards in, byte shards out; packets,
groups, and scheduling live in :mod:`repro.transport.fec`.

One codec, :class:`GF256Codec` (behind the :class:`FecCodec` interface): a
systematic Reed-Solomon-style code over GF(256) for every ``m >= 1``.

* The generator is a Cauchy matrix rather than the classic Vandermonde
  one: *every* square submatrix of a Cauchy matrix is invertible over a
  field, so any combination of up to ``m`` erasures is decodable with any
  ``m`` surviving parities — the Vandermonde construction famously lacks
  that guarantee over GF(2^8).
* Its rows and columns are scaled so that row 0 and column 0 are all
  ones.  Scaling a row or a column by a nonzero constant scales every
  square submatrix's determinant by it, so the code stays MDS; what it
  buys is that parity 0 is the plain XOR of the group (``m = 1`` *is* the
  XOR code) and the first shard of every row costs no multiply.
* The arithmetic is pure python on little-endian big-ints: a
  multiply-accumulate is one ``bytes.translate`` through a shared
  256-byte table plus one big-int XOR per (row, shard), a coefficient of
  1 skips the translate.  Little-endian makes zero padding free — a short
  shard is the same integer as the shard zero-padded — so shards of one
  group may have different lengths and parity comes out as long as the
  longest, byte-equal to the encode of the zero-padded group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = [
    "FecCodec",
    "FecDecodeError",
    "GF256Codec",
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


#: multiply-by-``c`` translation tables, shared by every codec and filled
#: per coefficient on first use (all 255 at import would cost every
#: process a few milliseconds for tables most runs never touch)
_MUL_TABLES: Dict[int, bytes] = {}


def _mul_table(coefficient: int) -> bytes:
    """The 256-entry multiply-by-``coefficient`` translation table."""
    table = _MUL_TABLES.get(coefficient)
    if table is None:
        exp, log_c = _GF_EXP, _GF_LOG[coefficient]
        table = bytes([0] + [exp[log_c + log_b] for log_b in _GF_LOG[1:]])
        _MUL_TABLES[coefficient] = table
    return table


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
    """Base class: ``k`` data shards, ``m`` parity shards.

    Subclasses implement :meth:`encode` / :meth:`decode`; groups may be
    *short* (``k' <= k`` data shards) — the first ``k'`` generator
    columns are used, so a count- or timeout-sealed partial group
    encodes and decodes consistently with the same codec — and the
    shards of a group may differ in length (they code as if zero-padded
    to the longest).
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
        """The group's longest shard length: the length of its parity."""
        if not shards:
            raise ValueError("cannot encode an empty shard group")
        if len(shards) > self.k:
            raise ValueError(
                f"group has {len(shards)} shards, codec holds k={self.k}"
            )
        return max(map(len, shards))

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
        """The ``m`` parity shards for a (possibly short) group, each as
        long as its longest shard."""
        raise NotImplementedError

    def decode(
        self,
        data: Sequence[Optional[bytes]],
        parity: Sequence[Optional[bytes]],
    ) -> List[bytes]:
        """Reconstruct the full data shard list.

        ``data`` holds ``None`` at erased positions; ``parity`` holds
        ``None`` for lost parity shards (length exactly ``m``).  A rebuilt
        shard comes back zero-padded to the parity length; surviving
        shards come back as given.  Raises :class:`FecDecodeError` when
        erasures exceed surviving parity.
        """
        raise NotImplementedError


class GF256Codec(FecCodec):
    """Systematic ``k`` + ``m`` code over GF(256), scaled Cauchy generator.

    Parity row ``j`` is ``sum_i G[j][i] * data_i`` with
    ``G[j][i] = a_j * b_i / (x_j ^ y_i)``, ``x_j = j`` and ``y_i = m + i``
    (the two index sets are disjoint, so every entry is defined), and
    ``a_j`` / ``b_i`` chosen so row 0 and column 0 are all ones.  Any
    erasure pattern with ``erasures <= surviving parities`` is decodable.
    """

    kind = "gf256"

    def __init__(self, k: int, m: int) -> None:
        super().__init__(k, m)
        cauchy = [[gf_inv(j ^ (m + i)) for i in range(k)] for j in range(m)]
        columns = [gf_inv(c) for c in cauchy[0]]
        scaled = [
            [gf_mul(c, b) for c, b in zip(row, columns)] for row in cauchy
        ]
        self.matrix: List[List[int]] = [
            [gf_div(c, row[0]) for c in row] for row in scaled
        ]
        # Per row, the table of each column's coefficient; None for a 1.
        self._tables: List[List[Optional[bytes]]] = [
            [None if c == 1 else _mul_table(c) for c in row]
            for row in self.matrix
        ]

    def encode(self, shards: Sequence[bytes]) -> List[bytes]:
        length = self._check_group(shards)
        self.encodes += 1
        from_bytes = int.from_bytes
        values = [from_bytes(shard, "little") for shard in shards]
        out: List[bytes] = []
        for tables in self._tables:
            acc = 0
            for value, shard, table in zip(values, shards, tables):
                if table is None:
                    acc ^= value
                else:
                    acc ^= from_bytes(shard.translate(table), "little")
            out.append(acc.to_bytes(length, "little"))
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
        length = len(parity[rows[0]])  # type: ignore[arg-type]
        from_bytes = int.from_bytes
        # Syndromes: the parity contribution the known shards leave
        # unexplained is exactly the missing shards' contribution.
        syndromes: List[int] = []
        for j in rows:
            acc = from_bytes(parity[j], "little")  # type: ignore[arg-type]
            for shard, table in zip(data, self._tables[j]):
                if shard is None:
                    continue
                if table is not None:
                    shard = shard.translate(table)
                acc ^= from_bytes(shard, "little")
            syndromes.append(acc)
        inverse = _gf_matrix_invert(
            [[self.matrix[j][i] for i in missing] for j in rows]
        )
        out = list(data)
        for position, coefficients in zip(missing, inverse):
            acc = 0
            for syndrome, c in zip(syndromes, coefficients):
                if c == 1:
                    acc ^= syndrome
                elif c:
                    scaled = syndrome.to_bytes(length, "little").translate(
                        _mul_table(c)
                    )
                    acc ^= from_bytes(scaled, "little")
            out[position] = acc.to_bytes(length, "little")
        return out  # type: ignore[return-value]


def make_codec(k: int, m: int) -> FecCodec:
    """The codec for a ``(k, m)`` group geometry."""
    return GF256Codec(k, m)
