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
  with its receiver-mode and synchronization-model axes.
* :mod:`repro.transport.sync_model` — synchronization models: how the
  endpoints agree on packet order (marker-based, hash-based/marker-free,
  header-based).
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
"""

from repro.transport.endpoint import (
    DISCIPLINES,
    SYNC_MODELS,
    ChannelFailureDetector,
    ChannelLifecycleManager,
    ChannelPort,
    FastStriper,
    HashSyncModel,
    HeaderSyncModel,
    MarkerSyncModel,
    SenderHealthMonitor,
    StripeReceiverPipeline,
    StripeSenderPipeline,
    SynchronizationModel,
    make_discipline,
    make_sync_model,
    receiver_mode_for,
    resolve_discipline,
    sync_model_for,
)
from repro.transport.udp import UDP_HEADER_BYTES, UdpDatagram, UdpLayer, UdpSocket
from repro.transport.tcp import (
    BulkReceiver,
    BulkSender,
    TCP_HEADER_BYTES,
    TcpLayer,
    TcpSegment,
)
from repro.transport.credit import CreditPacket, CreditReceiver, CreditSender
from repro.transport.socket_striping import (
    UdpChannelPort,
    bind_udp_receiver,
    udp_ports,
)
from repro.transport.session_striping import (
    bind_udp_session_receiver,
    udp_session_sender,
)
from repro.transport.fast_path import (
    FastChannelPort,
    bind_fast_receiver,
    wire_size,
)
from repro.transport.duplex import DuplexStripedEndpoint, connect_duplex
from repro.transport.fabric import (
    FabricScheduler,
    FlowTable,
    logarithmic_tenant_weights,
)
from repro.transport.tcp_striping import (
    TcpChannelPort,
    bind_tcp_receiver,
    tcp_ports,
)

__all__ = [
    "ChannelPort",
    "StripeSenderPipeline",
    "StripeReceiverPipeline",
    "FastStriper",
    "DISCIPLINES",
    "SYNC_MODELS",
    "make_discipline",
    "resolve_discipline",
    "receiver_mode_for",
    "sync_model_for",
    "make_sync_model",
    "SynchronizationModel",
    "MarkerSyncModel",
    "HashSyncModel",
    "HeaderSyncModel",
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
    "logarithmic_tenant_weights",
    "TcpChannelPort",
    "tcp_ports",
    "bind_tcp_receiver",
]
