"""ATM PVC interface with AAL5 segmentation.

The paper's second link was "an ATM interface, which sent IP packets
through a Permanent Virtual Circuit (PVC).  The bandwidth of the PVC could
be modified in hardware" (section 6.2).  We model:

* AAL5 encapsulation: payload + 8-byte trailer, padded up to a multiple of
  48 bytes, carried in 53-byte cells — so PVC *goodput* is below line rate
  and depends on packet size, just like real hardware.
* A settable PVC rate (:meth:`set_rate`), the knob Figure 15 sweeps.
* Marker codepoints via LLC/SNAP-style demux info, per section 5 ("such
  codepoints are available for ATM virtual circuits, e.g., OAM cells or
  LLC/SNAP encapsulation").

A PVC is point-to-point: no ARP, the peer is implicit.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.net.addresses import IPAddress
from repro.net.interface import Frame, FrameType, NetworkInterface
from repro.sim.engine import Simulator

ATM_CELL_BYTES = 53
ATM_CELL_PAYLOAD_BYTES = 48
AAL5_TRAILER_BYTES = 8
#: Classic IP over ATM default MTU (RFC 1626).
ATM_DEFAULT_MTU = 9180


def aal5_wire_size(payload_bytes: int) -> int:
    """Bytes on the wire for an AAL5 PDU of ``payload_bytes``.

    The PDU (payload + trailer) is padded to a whole number of 48-byte cell
    payloads; each cell costs 53 bytes of line capacity.
    """
    cells = math.ceil((payload_bytes + AAL5_TRAILER_BYTES) / ATM_CELL_PAYLOAD_BYTES)
    return cells * ATM_CELL_BYTES


def aal5_cell_count(payload_bytes: int) -> int:
    """Number of 53-byte cells for a payload."""
    return math.ceil((payload_bytes + AAL5_TRAILER_BYTES) / ATM_CELL_PAYLOAD_BYTES)


class AtmInterface(NetworkInterface):
    """An IP interface over an ATM PVC.

    Args:
        sim: event engine.
        name: interface label.
        ip_address: this end's IP address.
        mtu: IP MTU of the PVC (default 9180; Figure 15 effectively runs it
            at the Ethernet MTU because strIPe clamps to the minimum member
            MTU).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip_address: IPAddress | str,
        mtu: int = ATM_DEFAULT_MTU,
    ) -> None:
        super().__init__(sim, name, ip_address, mtu)
        self.cells_sent = 0

    def encapsulate(
        self, payload: Any, codepoint: str, next_hop: Optional[IPAddress]
    ) -> Optional[Frame]:
        size = aal5_wire_size(payload.size)
        return Frame(codepoint=codepoint, payload=payload, size=size)

    def send_ip(
        self, packet: Any, next_hop: Optional[IPAddress], force: bool = False
    ) -> bool:
        return self.send_with_codepoint(packet, FrameType.IPV4, next_hop, force=force)

    def send_with_codepoint(
        self,
        packet: Any,
        codepoint: str,
        next_hop: Optional[IPAddress] = None,
        force: bool = False,
    ) -> bool:
        frame = self.encapsulate(packet, codepoint, next_hop)
        assert frame is not None
        ok = self.transmit_frame(frame, force=force)
        if ok:
            self.cells_sent += aal5_cell_count(packet.size)
        return ok
