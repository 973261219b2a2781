"""IP and MAC address types for the simulated protocol stack.

Real dotted-quad semantics (32-bit integers, prefix matching) so the
routing-table behaviour the strIPe architecture relies on — host-specific
routes overriding network routes (section 6.1) — is exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


def _parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 octet {part!r} in {text!r}")
        value = (value << 8) | octet
    return value


@dataclass(frozen=True, order=True)
class IPAddress:
    """A 32-bit IPv4 address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address out of range: {self.value}")

    @classmethod
    def parse(cls, text: Union[str, "IPAddress"]) -> "IPAddress":
        if isinstance(text, IPAddress):
            return text
        return cls(_parse_ipv4(text))

    def network(self, prefix_len: int) -> "IPAddress":
        """The network address under a prefix length."""
        mask = _prefix_mask(prefix_len)
        return IPAddress(self.value & mask)

    def in_network(self, network: "IPAddress", prefix_len: int) -> bool:
        mask = _prefix_mask(prefix_len)
        return (self.value & mask) == (network.value & mask)

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"


def _prefix_mask(prefix_len: int) -> int:
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix length must be 0..32, got {prefix_len}")
    if prefix_len == 0:
        return 0
    return (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF


@dataclass(frozen=True, order=True)
class MACAddress:
    """A 48-bit link-layer address."""

    value: int

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFF:
            raise ValueError(f"MAC address out of range: {self.value}")

    @classmethod
    def broadcast(cls) -> "MACAddress":
        return cls(cls.BROADCAST_VALUE)

    @property
    def is_broadcast(self) -> bool:
        return self.value == self.BROADCAST_VALUE

    def __str__(self) -> str:
        octets = [(self.value >> (8 * i)) & 255 for i in range(5, -1, -1)]
        return ":".join(f"{o:02x}" for o in octets)

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"


_next_mac = [1]


def fresh_mac() -> MACAddress:
    """Allocate a unique locally-administered MAC address."""
    value = (0x02 << 40) | _next_mac[0]
    _next_mac[0] += 1
    return MACAddress(value)
