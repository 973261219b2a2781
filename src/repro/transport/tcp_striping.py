"""Striping across TCP connections — the paper's §2 transport channels.

"Since most transport protocols like TCP provide a stream service, it is
possible to think of a channel as a transport connection.  A fast CPU may
achieve higher throughput by striping data across multiple 'intelligent'
adaptors, each of which implements a TCP connection."

Each striped channel is one :class:`~repro.transport.tcp.BulkSender` /
``BulkReceiver`` pair running in *message mode*: :class:`TcpChannelPort`
adapts the sending half to the endpoint port protocol, :func:`tcp_ports`
opens the N connections and :func:`bind_tcp_receiver` points the N
listening halves at a receiver pipeline.  Because TCP channels are
reliable **and** FIFO, logical reception alone yields *guaranteed* FIFO
delivery — no markers, no quasi-FIFO caveat: the loss-recovery machinery
exists precisely because raw links lose packets, and these channels do
not.  (Table 1's "Fair Queuing algorithm, no header" row upgrades from
"Quasi-FIFO" to "Guaranteed FIFO" when the channels are transport
connections.)  A whole *connection* can still die, though — give the
receiver pipeline a
:class:`~repro.transport.endpoint.ChannelFailureDetector` and delivery
degrades to quasi-FIFO with gaps instead of stalling forever.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.transport.tcp import BulkReceiver, BulkSender, TcpLayer


class TcpChannelPort:
    """Adapts one message-mode TCP connection to the endpoint port API.

    Backpressure comes from the connection's own send state: the port
    refuses new messages while more than ``max_backlog_bytes`` are queued
    but unsent (cwnd-limited), so the causal striper waits exactly when
    the channel is congestion-limited.  The ``on_unblocked`` slot *is* the
    connection's ``on_writable`` callback, so the pipeline that fills it
    is pumped whenever the connection can take more.
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

    @property
    def on_unblocked(self) -> Any:
        return self.sender.on_writable

    @on_unblocked.setter
    def on_unblocked(self, fn: Any) -> None:
        self.sender.on_writable = fn


def tcp_ports(
    tcp_layer: TcpLayer, dst_ips: Sequence[str], base_port: int = 8800
) -> List[TcpChannelPort]:
    """Open one connection per channel: ``(src 41000+i) -> (dst_ips[i],
    base_port+i)``, each started and wrapped in a :class:`TcpChannelPort`."""
    ports = []
    for index, dst in enumerate(dst_ips):
        connection = BulkSender(
            tcp_layer, dst, base_port + index, 41000 + index
        )
        connection.start()
        ports.append(TcpChannelPort(connection))
    return ports


def bind_tcp_receiver(
    tcp_layer: TcpLayer, receiver: Any, base_port: int = 8800
) -> List[BulkReceiver]:
    """Channel *i* of ``receiver`` is the connection accepted on
    ``base_port + i``."""
    return [
        BulkReceiver(
            tcp_layer, base_port + index,
            on_message=receiver.channel_handler(index),
        )
        for index in range(receiver.n_channels)
    ]
