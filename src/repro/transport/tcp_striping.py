"""Striping across TCP connections — the paper's §2 transport channels.

"Since most transport protocols like TCP provide a stream service, it is
possible to think of a channel as a transport connection.  A fast CPU may
achieve higher throughput by striping data across multiple 'intelligent'
adaptors, each of which implements a TCP connection."

Each striped channel is one :class:`~repro.transport.tcp.BulkSender` /
``BulkReceiver`` pair running in *message mode*; both classes are thin
adapters over the shared endpoint pipelines
(:mod:`repro.transport.endpoint`).  Because TCP channels are reliable
**and** FIFO, logical reception alone yields *guaranteed* FIFO delivery —
no markers, no quasi-FIFO caveat: the loss-recovery machinery exists
precisely because raw links lose packets, and these channels do not.
(Table 1's "Fair Queuing algorithm, no header" row upgrades from
"Quasi-FIFO" to "Guaranteed FIFO" when the channels are transport
connections.)  A whole *connection* can still die, though — pass a
:class:`~repro.transport.endpoint.ChannelFailureDetector` to the receiver
and delivery degrades to quasi-FIFO with gaps instead of stalling forever.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.packet import Packet
from repro.transport.endpoint import (
    ChannelFailureDetector,
    StripeReceiverPipeline,
    StripeSenderPipeline,
    make_discipline,
    receiver_mode_for,
)
from repro.transport.tcp import BulkReceiver, BulkSender, TcpLayer


class TcpChannelPort:
    """Adapts one message-mode TCP connection to the endpoint port API.

    Backpressure comes from the connection's own send state: the port
    refuses new messages while more than ``max_backlog_bytes`` are queued
    but unsent (cwnd-limited), so the causal striper waits exactly when
    the channel is congestion-limited.
    """

    def __init__(self, sender: BulkSender, max_backlog_bytes: int = 64 * 1024):
        self.sender = sender
        self.max_backlog_bytes = max_backlog_bytes
        self.messages_sent = 0

    def send(self, packet: Any, force: bool = False) -> bool:
        self.sender.write_message(packet, int(packet.size))
        self.messages_sent += 1
        return True

    def can_accept(self) -> bool:
        if self.sender.state != "ESTABLISHED":
            return False
        return self.sender.queued_message_bytes < self.max_backlog_bytes

    @property
    def queue_length(self) -> int:
        return self.sender.queued_messages


class StripedTcpSender(StripeSenderPipeline):
    """Stripes application messages across N TCP connections.

    Args:
        tcp_layer: local TCP layer.
        dst: peer address (as reachable per channel — multihomed hosts pass
            per-channel addresses via ``dst_ips``).
        base_port: connection *i* runs ``(src 41000+i) -> (dst base_port+i)``.
        algorithm: any discipline spec the endpoint layer resolves — a CFQ
            algorithm (markers are unnecessary here), a registry name, or
            a ready-made load sharer (e.g. marker-free Sprinklers).
        discipline_options: forwarded to ``make_discipline`` for names.
    """

    def __init__(
        self,
        tcp_layer: TcpLayer,
        dst: str,
        n_channels: int,
        algorithm: Any,
        base_port: int = 8800,
        dst_ips: Optional[Sequence[str]] = None,
        mss: int = 1460,
        max_backlog_bytes: int = 64 * 1024,
        discipline_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        connections: List[BulkSender] = []
        ports: List[TcpChannelPort] = []
        for index in range(n_channels):
            target = dst_ips[index] if dst_ips is not None else dst
            sender = BulkSender(
                tcp_layer, target, base_port + index, 41000 + index, mss=mss
            )
            sender.on_writable = self.pump
            connections.append(sender)
            ports.append(TcpChannelPort(sender, max_backlog_bytes))
        self.connections = connections
        super().__init__(ports, algorithm, discipline_options=discipline_options)

    def start(self) -> None:
        for connection in self.connections:
            connection.start()


class StripedTcpReceiver(StripeReceiverPipeline):
    """Reassembles the striped FIFO stream from N TCP connections.

    Guaranteed FIFO: the channels are reliable, so plain logical reception
    (Theorem 4.1) suffices with no recovery machinery at all — unless a
    connection dies outright, which the optional ``failure_detector``
    turns into assumed-lost gaps instead of a permanent stall.

    The reception mode follows the discipline: a CFQ ``algorithm`` gets
    plain logical reception (above), while marker-free disciplines
    (registry name or load-sharer instance with ``marker_free``) get
    ``"direct"`` — no resequencer at all, since per-flow pinning plus FIFO
    channels already deliver each flow in order.  ``mode`` overrides the
    derivation explicitly.
    """

    def __init__(
        self,
        tcp_layer: TcpLayer,
        n_channels: int,
        algorithm: Any,
        base_port: int = 8800,
        on_message: Optional[Callable[[Packet], None]] = None,
        failure_detector: Optional[ChannelFailureDetector] = None,
        mode: Optional[str] = None,
        discipline_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        spec = algorithm
        if isinstance(spec, str):
            spec = make_discipline(
                spec, n_channels, **(discipline_options or {})
            )
        if mode is None:
            mode = receiver_mode_for(spec)
        # Logical-reception modes simulate the sender's CFQ algorithm;
        # the other engines (direct, header-based) need no algorithm.
        cfq = spec if mode in ("marker", "plain") else None
        if cfq is not None and hasattr(cfq, "algorithm"):
            cfq = cfq.algorithm
        super().__init__(
            n_channels,
            cfq,
            mode=mode,
            on_message=on_message,
            failure_detector=failure_detector,
        )
        self.connections: List[BulkReceiver] = []
        for index in range(n_channels):
            receiver = BulkReceiver(
                tcp_layer, base_port + index,
                on_message=self.channel_handler(index),
            )
            self.connections.append(receiver)
