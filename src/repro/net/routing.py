"""Longest-prefix-match routing table.

The strIPe deployment trick (section 6.1): "it is possible for host
specific routes to override network specific routes.  Thus, if the two
ethernets are on IP networks Net1 and Net2, and the receiving host's two IP
addresses are Net1.B and Net2.B, then we simply make entries in the sending
host's routing table, asking it to route packets to Net1.B and Net2.B to
interface C, which corresponds to the strIPe interface."

Host routes are just /32 prefixes, so longest-prefix match gives exactly
that override behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.net.addresses import IPAddress


@dataclass(frozen=True)
class Route:
    """One routing table entry.

    Attributes:
        network: destination network address.
        prefix_len: prefix length; 32 = host route.
        interface: the egress interface object.
        next_hop: optional gateway address (None = directly connected).
        metric: tie-break among equal-length prefixes (lower wins).
    """

    network: IPAddress
    prefix_len: int
    interface: Any
    next_hop: Optional[IPAddress] = None
    metric: int = 0


class RoutingTable:
    """A simple longest-prefix-match table."""

    def __init__(self) -> None:
        self._routes: List[Route] = []

    def add(
        self,
        network: str | IPAddress,
        prefix_len: int,
        interface: Any,
        next_hop: Optional[str | IPAddress] = None,
        metric: int = 0,
    ) -> Route:
        """Install a route; returns the entry."""
        route = Route(
            network=IPAddress.parse(network).network(prefix_len),
            prefix_len=prefix_len,
            interface=interface,
            next_hop=IPAddress.parse(next_hop) if next_hop is not None else None,
            metric=metric,
        )
        self._routes.append(route)
        return route

    def add_host_route(self, host: str | IPAddress, interface: Any) -> Route:
        """Host-specific (/32) route — the strIPe override mechanism."""
        return self.add(host, 32, interface)

    def remove(self, route: Route) -> None:
        self._routes.remove(route)

    def lookup(self, dst: str | IPAddress) -> Optional[Route]:
        """Longest-prefix match; among equal prefixes the lowest metric wins."""
        address = IPAddress.parse(dst)
        best: Optional[Route] = None
        for route in self._routes:
            if not address.in_network(route.network, route.prefix_len):
                continue
            if (
                best is None
                or route.prefix_len > best.prefix_len
                or (route.prefix_len == best.prefix_len and route.metric < best.metric)
            ):
                best = route
        return best

    def __len__(self) -> int:
        return len(self._routes)
