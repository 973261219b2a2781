"""The strIPe architecture substrate: IP over striped heterogeneous links.

Provides address types, the IP packet model, longest-prefix routing with
host-route overrides, ARP, Ethernet and ATM-PVC interfaces, and the strIPe
virtual interface itself (section 6.1 of the paper).
"""

from repro.net.addresses import IPAddress, MACAddress, fresh_mac
from repro.net.ip import IPPacket
from repro.net.routing import RoutingTable
from repro.net.interface import FrameType
from repro.net.ethernet import EthernetInterface, ethernet_wire_size
from repro.net.atm import AtmInterface, aal5_wire_size
from repro.net.stripe import (
    RESEQ_MARKER,
    RESEQ_NONE,
    RESEQ_PLAIN,
    StripeInterface,
)
from repro.net.stack import Link, Stack
from repro.net.fragmentation import Fragment, FragmentingStriper, Reassembler

__all__ = [
    "IPAddress",
    "MACAddress",
    "fresh_mac",
    "IPPacket",
    "RoutingTable",
    "FrameType",
    "EthernetInterface",
    "ethernet_wire_size",
    "AtmInterface",
    "aal5_wire_size",
    "StripeInterface",
    "RESEQ_MARKER",
    "RESEQ_PLAIN",
    "RESEQ_NONE",
    "Link",
    "Stack",
    "Fragment",
    "FragmentingStriper",
    "Reassembler",
]
