"""Transport substrate: the striping endpoint pipelines and their ports.

Substrate protocols:

* :mod:`repro.transport.udp` — datagram sockets over the simulated stack.
* :mod:`repro.transport.tcp` — the sliding-window TCP used to drive the
  Figure 15 throughput measurements (dup-ACK fast retransmit + AIMD, so
  reordering and loss have their real effects).
* :mod:`repro.transport.credit` — Kung/Chapman credit-based flow control
  (section 6.3).

The endpoint layer (one sender pipeline, one receiver pipeline):

* :mod:`repro.transport.endpoint` — the channel-port protocol, the two
  pipelines, and the ARQ/FEC recovery-stack builders.
* :mod:`repro.transport.discipline` — the striping-discipline registry
  and the receiver mode matching each discipline (how the endpoints
  agree on packet order: markers, direct delivery, or headers).
* :mod:`repro.transport.health` — channel-health machinery: failure
  detection, the channel lifecycle, the sender stall watch.

Layers mounted on the pipelines:

* :mod:`repro.transport.reliability` — selective-repeat ARQ
  (``reliable`` / ``hybrid``).
* :mod:`repro.transport.fec` — erasure-coded stripe groups (``fec`` /
  ``hybrid``).
* :mod:`repro.transport.fabric` — the multi-tenant session fabric: a
  flow table plus a weighted-DRR scheduler above any sender pipeline
  (FQ across flows x SRR across channels).
* :mod:`repro.transport.recovery` — crash-tolerant endpoints: checkpoints
  and epoch-stamped resume.

Transports — a port type plus the functions that build and bind it:

* :mod:`repro.transport.socket_striping` — UDP flows through the stack
  (section 6.3's experimental harness), with the reverse credit/ack flows.
* :mod:`repro.transport.tcp_striping` — message-mode TCP connections
  (section 2's transport channels).
* :mod:`repro.transport.fast_path` — simulated channels driven directly,
  no UDP/IP stack in between.
* :mod:`repro.transport.duplex` — two UDP endpoints with credits and
  SACKs piggybacked on each other's markers.
* :mod:`repro.transport.session_striping` — UDP ports, each pipeline
  driven by a reset/reconfiguration controller of :mod:`repro.core.session`.

The endpoint layer, ARQ, FEC, the fabric and the fast path import with
the package, and none of them loads :mod:`repro.net`.  The names from
the substrate protocols and the four stack transports resolve on first
use, which is when the simulated IP stack loads.
:mod:`~repro.transport.recovery` exports nothing here; import it by its
module name.
"""

from repro import lazy_exports
from repro.headers import UDP_HEADER_BYTES
from repro.transport.endpoint import (
    DISCIPLINES,
    ChannelFailureDetector,
    ChannelLifecycleManager,
    ChannelPort,
    SenderHealthMonitor,
    StripeReceiverPipeline,
    StripeSenderPipeline,
    make_discipline,
    receiver_mode_for,
    resolve_discipline,
)
from repro.transport.fast_path import (
    FastChannelPort,
    bind_fast_receiver,
    wire_size,
)
from repro.transport.fabric import (
    FabricScheduler,
    FlowTable,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "udp": ("UdpDatagram", "UdpLayer", "UdpSocket"),
    "tcp": (
        "BulkReceiver",
        "BulkSender",
        "TCP_HEADER_BYTES",
        "TcpLayer",
        "TcpSegment",
    ),
    "credit": ("CreditPacket", "CreditReceiver", "CreditSender"),
    "socket_striping": ("UdpChannelPort", "bind_udp_receiver", "udp_ports"),
    "session_striping": ("bind_udp_session_receiver", "udp_session_sender"),
    "duplex": ("DuplexStripedEndpoint", "connect_duplex"),
    "tcp_striping": ("TcpChannelPort", "bind_tcp_receiver", "tcp_ports"),
})

__all__ = [
    "ChannelPort",
    "StripeSenderPipeline",
    "StripeReceiverPipeline",
    "DISCIPLINES",
    "make_discipline",
    "resolve_discipline",
    "receiver_mode_for",
    "ChannelLifecycleManager",
    "SenderHealthMonitor",
    "UdpChannelPort",
    "FastChannelPort",
    "bind_fast_receiver",
    "wire_size",
    "UdpDatagram",
    "UdpLayer",
    "UdpSocket",
    "UDP_HEADER_BYTES",
    "TcpLayer",
    "TcpSegment",
    "BulkSender",
    "BulkReceiver",
    "TCP_HEADER_BYTES",
    "CreditPacket",
    "CreditReceiver",
    "CreditSender",
    "udp_ports",
    "bind_udp_receiver",
    "udp_session_sender",
    "bind_udp_session_receiver",
    "ChannelFailureDetector",
    "DuplexStripedEndpoint",
    "connect_duplex",
    "FlowTable",
    "FabricScheduler",
    "TcpChannelPort",
    "tcp_ports",
    "bind_tcp_receiver",
]
