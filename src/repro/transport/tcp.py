"""Simplified TCP — the measurement driver of the paper's section 6.2.

The paper measured "application level" throughput of "a sending program
which sent a random mixture of small and large packets to the receiving
program ... over a TCP connection".  What matters for reproducing
Figure 15 is TCP's *reaction to reordering and loss*:

* cumulative ACKs — out-of-order arrival generates duplicate ACKs;
* fast retransmit on 3 dup-ACKs — persistent reordering (the
  "no resequencing" ablation) triggers spurious retransmissions and
  congestion-window collapse;
* AIMD congestion control with slow start and RTO backoff — drops at the
  striper input queue or NIC ring translate into reduced offered load.

This implementation is deliberately small (no SACK, no delayed ACKs, no
window scaling — none of which the paper's 1996 NetBSD stack had either)
but is a real sliding-window protocol: every byte of goodput counted by
the experiments was carried in a data segment, acknowledged, and if
necessary retransmitted.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.net.addresses import IPAddress
from repro.net.ip import IPPacket, PROTO_TCP
from repro.net.stack import Stack
from repro.sim.engine import Event, Simulator
from repro.transport.reliability import RtoEstimator

TCP_HEADER_BYTES = 20

FLAG_SYN = "SYN"
FLAG_ACK = "ACK"
FLAG_FIN = "FIN"

_segment_ids = itertools.count(1)


@dataclass
class TcpSegment:
    """A TCP segment; payload bytes are synthetic (size only).

    In *message mode* (see :meth:`BulkSender.write_message`) ``chunks``
    carries ``(message, byte_count)`` pairs — the pieces of application
    messages this segment's bytes represent, so the receiver can rebuild
    message boundaries from the in-order byte stream.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: frozenset
    payload_size: int = 0
    chunks: Optional[tuple] = None
    uid: int = field(default_factory=lambda: next(_segment_ids))

    @property
    def size(self) -> int:
        return TCP_HEADER_BYTES + self.payload_size

    def has(self, flag: str) -> bool:
        return flag in self.flags

    def __repr__(self) -> str:
        flags = ",".join(sorted(self.flags)) or "-"
        return (
            f"TcpSegment({self.src_port}->{self.dst_port} seq={self.seq} "
            f"ack={self.ack} [{flags}] {self.payload_size}B)"
        )


class TcpLayer:
    """Registers as protocol 6 on a stack; demuxes segments by port."""

    def __init__(self, stack: Stack, sim: Simulator) -> None:
        self.stack = stack
        self.sim = sim
        self.endpoints: Dict[int, Any] = {}
        stack.register_protocol(PROTO_TCP, self._input)

    def register(self, port: int, endpoint: Any) -> None:
        if port in self.endpoints:
            raise ValueError(f"TCP port {port} already in use on {self.stack.name}")
        self.endpoints[port] = endpoint

    def _input(self, packet: IPPacket, interface: Any) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        endpoint = self.endpoints.get(segment.dst_port)
        if endpoint is not None:
            endpoint.on_segment(segment, packet.src)

    def send_segment(
        self, segment: TcpSegment, dst: IPAddress, src: Optional[IPAddress] = None
    ) -> bool:
        source = src if src is not None else self.stack.local_addresses()[0]
        packet = IPPacket(src=source, dst=dst, proto=PROTO_TCP, payload=segment)
        return self.stack.ip_output(packet)


@dataclass
class _FlightRecord:
    seq: int
    length: int
    sent_time: float
    retransmitted: bool = False
    chunks: Optional[tuple] = None

    @property
    def end(self) -> int:
        return self.seq + self.length


class BulkSender:
    """A backlogged TCP sender (one direction).

    Args:
        layer: the local stack's TCP layer.
        dst / dst_port: the receiver.
        src_port: local port.
        mss: maximum segment payload.
        segment_size_fn: generator of application message sizes (bytes per
            segment, clipped to mss).  Default: always ``mss``.  This is
            how the paper's "random mixture of small and large packets"
            and the adversarial alternating workload enter the system.
        src_ip: source address override (useful with multiple interfaces).

    A bulk sender sends for as long as the connection lives; a finite
    transfer is a message (:meth:`write_message`).  The retransmission
    timeout is an :class:`RtoEstimator` (:attr:`rto`) with BSD's bounds:
    1 s initially, clamped to [0.2 s, 60 s].  The connection opens with a
    congestion window of ``INITIAL_CWND_SEGMENTS``.
    """

    INITIAL_RTO = 1.0
    MIN_RTO = 0.2
    MAX_RTO = 60.0
    #: consecutive backoffs allowed: enough to double MIN_RTO past
    #: MAX_RTO, so the cap never binds before the clamp does
    BACKOFF_CAP = 9
    DUPACK_THRESHOLD = 3
    INITIAL_CWND_SEGMENTS = 2

    def __init__(
        self,
        layer: TcpLayer,
        dst: IPAddress | str,
        dst_port: int,
        src_port: int,
        mss: int = 1460,
        segment_size_fn: Optional[Callable[[], int]] = None,
        src_ip: Optional[IPAddress | str] = None,
    ) -> None:
        self.layer = layer
        self.sim = layer.sim
        self.dst = IPAddress.parse(dst)
        self.dst_port = dst_port
        self.src_port = src_port
        self.src_ip = IPAddress.parse(src_ip) if src_ip is not None else None
        self.mss = mss
        self.segment_size_fn = segment_size_fn
        layer.register(src_port, self)

        self.state = "CLOSED"
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = float(self.INITIAL_CWND_SEGMENTS * mss)
        self.ssthresh = 64 * 1024.0
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        self.flight: List[_FlightRecord] = []
        #: records awaiting retransmission (go-back-N after an RTO)
        self._rexmit_pending: List[_FlightRecord] = []
        self.rto = RtoEstimator(
            initial_rto=self.INITIAL_RTO,
            min_rto=self.MIN_RTO,
            max_rto=self.MAX_RTO,
            backoff_cap=self.BACKOFF_CAP,
        )
        self._timer: Optional[Event] = None
        self._next_payload: Optional[int] = None
        #: message mode (transport-channel striping): queued application
        #: messages, each entry [obj, total_size, remaining_bytes]
        self._msg_queue: Deque[list] = deque()
        self._message_mode = False
        #: invoked after ACK processing when message mode may accept more
        self.on_writable: Optional[Callable[[], None]] = None

        # stats
        self.segments_sent = 0
        self.bytes_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.egress_drops = 0

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Open the connection (SYN) and start pumping data."""
        if self.state != "CLOSED":
            raise RuntimeError("sender already started")
        self.state = "SYN_SENT"
        self._transmit(
            TcpSegment(
                self.src_port, self.dst_port, seq=0, ack=0,
                flags=frozenset({FLAG_SYN}),
            )
        )
        self._arm_timer()

    @property
    def bytes_in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------ #
    # message mode (the paper's §2 "transport connection as a channel")

    def write_message(self, obj: Any, size: int) -> None:
        """Queue an application message of ``size`` bytes for the stream.

        Messages are packed into segments back to back; the receiver
        reconstructs boundaries from the chunk annotations, giving a
        reliable, FIFO *message* channel — usable as a striping channel.
        """
        if size <= 0:
            raise ValueError("message size must be positive")
        if self.segment_size_fn is not None:
            raise RuntimeError("message mode conflicts with segment_size_fn")
        self._message_mode = True
        self._msg_queue.append([obj, size, size])
        self.try_send()

    @property
    def queued_message_bytes(self) -> int:
        return sum(entry[2] for entry in self._msg_queue)

    @property
    def queued_messages(self) -> int:
        return len(self._msg_queue)

    def _payload_budget_left(self) -> bool:
        return not self._message_mode or bool(self._msg_queue)

    def _next_segment_size(self) -> int:
        if self._next_payload is None:
            if self.segment_size_fn is not None:
                size = int(self.segment_size_fn())
            else:
                size = self.mss
            self._next_payload = max(1, min(size, self.mss))
        return self._next_payload

    def try_send(self) -> None:
        """Send segments while the congestion window allows.

        Pending retransmissions (go-back-N after a timeout) take priority
        over new data; retransmitted bytes are already inside
        ``bytes_in_flight``, so the budget check uses a pipe estimate that
        counts only data at or beyond the first retransmission point.
        """
        if self.state != "ESTABLISHED":
            return
        while self._rexmit_pending:
            record = self._rexmit_pending[0]
            if record.end <= self.snd_una:
                self._rexmit_pending.pop(0)  # already acked meanwhile
                continue
            pipe = self._rexmit_pipe()
            if pipe + record.length > self.cwnd:
                return
            self._rexmit_pending.pop(0)
            self._retransmit(record)
        while self._payload_budget_left():
            if self.in_recovery:
                # Conservative recovery: no new data until the holes are
                # repaired (partial ACKs drive the retransmissions).
                break
            chunks: Optional[tuple] = None
            if self._message_mode:
                size, chunks = self._pack_message_segment()
            else:
                size = self._next_segment_size()
            if size <= 0:
                break
            if self.bytes_in_flight + size > self.cwnd:
                if self._message_mode:
                    self._unpack_message_segment(chunks)
                break
            self._next_payload = None
            record = _FlightRecord(
                self.snd_nxt, size, self.sim.now, chunks=chunks
            )
            self.flight.append(record)
            self.snd_nxt += size
            self._transmit(
                TcpSegment(
                    self.src_port, self.dst_port,
                    seq=record.seq, ack=0,
                    flags=frozenset({FLAG_ACK}),
                    payload_size=size,
                    chunks=chunks,
                )
            )
            self.segments_sent += 1
            self.bytes_sent += size
        if self.flight and self._timer is None:
            self._arm_timer()

    def _pack_message_segment(self) -> tuple:
        """Consume queued message bytes into one segment (up to MSS)."""
        chunks: List[tuple] = []
        size = 0
        while self._msg_queue and size < self.mss:
            entry = self._msg_queue[0]
            take = min(entry[2], self.mss - size)
            chunks.append((entry[0], take))
            entry[2] -= take
            size += take
            if entry[2] == 0:
                self._msg_queue.popleft()
        return size, tuple(chunks)

    def _unpack_message_segment(self, chunks: Optional[tuple]) -> None:
        """Put consumed chunks back (the window refused the segment)."""
        if not chunks:
            return
        for obj, nbytes in reversed(chunks):
            if self._msg_queue and self._msg_queue[0][0] is obj:
                self._msg_queue[0][2] += nbytes
            else:
                total = getattr(obj, "size", nbytes)
                self._msg_queue.appendleft([obj, total, nbytes])

    # ------------------------------------------------------------------ #
    # segment input

    def on_segment(self, segment: TcpSegment, src: IPAddress) -> None:
        if segment.has(FLAG_SYN) and segment.has(FLAG_ACK):
            if self.state == "SYN_SENT":
                self.state = "ESTABLISHED"
                self._cancel_timer()
                self.rto.reset_backoff()
                # complete handshake
                self._transmit(
                    TcpSegment(
                        self.src_port, self.dst_port, seq=0,
                        ack=0, flags=frozenset({FLAG_ACK}),
                    )
                )
                self.try_send()
            return
        if not segment.has(FLAG_ACK):
            return
        self._on_ack(segment.ack)

    def _on_ack(self, ack: int) -> None:
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.snd_una = ack
            self._remove_acked(ack)
            self.dupacks = 0
            if self.in_recovery:
                if ack >= self.recover_point:
                    # Full ACK: deflate to ssthresh and leave recovery.
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # NewReno partial ACK: the next hole is known lost —
                    # retransmit it immediately instead of waiting for RTO.
                    self._retransmit_first()
            else:
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(acked, self.mss)  # slow start
                else:
                    self.cwnd += (self.mss * self.mss) / self.cwnd
            self._cancel_timer()
            if self.flight:
                self._arm_timer()
            else:
                self.rto.reset_backoff()
            self.try_send()
            if self.on_writable is not None:
                self.on_writable()
        elif ack == self.snd_una and self.flight:
            self.dupacks += 1
            if self.dupacks == self.DUPACK_THRESHOLD and not self.in_recovery:
                self._fast_retransmit()
        # acks below snd_una: stale, ignore (reordered ACK path)

    def _remove_acked(self, ack: int) -> None:
        kept: List[_FlightRecord] = []
        for record in self.flight:
            if record.end <= ack:
                if not record.retransmitted:
                    self.rto.sample(self.sim.now - record.sent_time)
            else:
                kept.append(record)
        self.flight = kept

    # ------------------------------------------------------------------ #
    # loss recovery

    def _rexmit_pipe(self) -> int:
        """Unacked bytes believed in the network during go-back-N recovery."""
        pending = {id(r) for r in self._rexmit_pending}
        return sum(
            r.length
            for r in self.flight
            if id(r) not in pending and r.end > self.snd_una
        )

    def _fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        flight = max(self.bytes_in_flight, self.mss)
        self.ssthresh = max(flight / 2.0, 2.0 * self.mss)
        self.cwnd = self.ssthresh
        self.in_recovery = True
        self.recover_point = self.snd_nxt
        self._retransmit_first()

    def _retransmit_first(self) -> None:
        if not self.flight:
            return
        self._retransmit(self.flight[0])

    def _retransmit(self, record: _FlightRecord) -> None:
        self.retransmits += 1
        record.retransmitted = True
        record.sent_time = self.sim.now
        self._transmit(
            TcpSegment(
                self.src_port, self.dst_port,
                seq=record.seq, ack=0,
                flags=frozenset({FLAG_ACK}),
                payload_size=record.length,
                chunks=record.chunks,
            )
        )

    def _on_timeout(self) -> None:
        self._timer = None
        if self.state == "SYN_SENT":
            self._transmit(
                TcpSegment(
                    self.src_port, self.dst_port, seq=0, ack=0,
                    flags=frozenset({FLAG_SYN}),
                )
            )
            self.rto.backoff()
            self._arm_timer()
            return
        if not self.flight:
            return
        self.timeouts += 1
        flight = max(self.bytes_in_flight, self.mss)
        self.ssthresh = max(flight / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self.dupacks = 0
        self.in_recovery = False
        # Go-back-N: everything unacked becomes eligible for retransmission
        # (BSD sets snd_nxt back to snd_una; we keep the original segment
        # boundaries and replay them as the window reopens).
        self._rexmit_pending = list(self.flight)
        self.try_send()  # retransmits the head within cwnd = 1 MSS
        self.rto.backoff()
        self._arm_timer()

    # ------------------------------------------------------------------ #
    # timers and RTT

    def _arm_timer(self) -> None:
        self._cancel_timer()
        self._timer = self.sim.schedule(self.rto.rto, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _transmit(self, segment: TcpSegment) -> None:
        ok = self.layer.send_segment(segment, self.dst, src=self.src_ip)
        if not ok:
            self.egress_drops += 1


class BulkReceiver:
    """The receiving endpoint: cumulative ACKs, out-of-order buffering.

    ``on_message`` (message mode) receives the application messages the
    sender queued with :meth:`BulkSender.write_message`, reconstructed in
    exact stream order from the chunk annotations.
    """

    def __init__(
        self,
        layer: TcpLayer,
        port: int,
        on_message: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.layer = layer
        self.sim = layer.sim
        self.port = port
        layer.register(port, self)
        self.on_message = on_message
        self._assembling: Any = None
        self._assembled = 0
        self.messages_delivered = 0
        self.rcv_nxt = 0
        self.ooo: Dict[int, tuple] = {}  # seq -> (length, chunks)
        self.established = False
        # stats
        self.bytes_delivered = 0
        self.segments_received = 0
        self.ooo_segments = 0
        self.duplicate_segments = 0
        self.acks_sent = 0
        self.max_seq_seen = -1
        self.reorder_events = 0
        self.peer: Optional[IPAddress] = None
        self.peer_port: Optional[int] = None

    def on_segment(self, segment: TcpSegment, src: IPAddress) -> None:
        self.peer = src
        self.peer_port = segment.src_port
        if segment.has(FLAG_SYN):
            self.established = True
            self._send_ack(src, segment.src_port, syn_ack=True)
            return
        if segment.payload_size <= 0:
            return  # bare ACK (handshake completion)
        self.segments_received += 1
        if segment.seq < self.max_seq_seen:
            self.reorder_events += 1
        self.max_seq_seen = max(self.max_seq_seen, segment.seq)

        if segment.seq == self.rcv_nxt:
            self.rcv_nxt += segment.payload_size
            self.bytes_delivered += segment.payload_size
            self._consume_chunks(segment.chunks)
            while self.rcv_nxt in self.ooo:
                length, chunks = self.ooo.pop(self.rcv_nxt)
                self.rcv_nxt += length
                self.bytes_delivered += length
                self._consume_chunks(chunks)
        elif segment.seq > self.rcv_nxt:
            self.ooo_segments += 1
            self.ooo.setdefault(
                segment.seq, (segment.payload_size, segment.chunks)
            )
        else:
            self.duplicate_segments += 1
        self._send_ack(src, segment.src_port)

    def _consume_chunks(self, chunks: Optional[tuple]) -> None:
        """Advance message reassembly with the in-order bytes just accepted."""
        if not chunks:
            return
        for obj, nbytes in chunks:
            if obj is not self._assembling:
                self._assembling = obj
                self._assembled = 0
            self._assembled += nbytes
            total = getattr(obj, "size", self._assembled)
            if self._assembled >= total:
                self._assembling = None
                self._assembled = 0
                self.messages_delivered += 1
                if self.on_message is not None:
                    self.on_message(obj)

    def _send_ack(self, dst: IPAddress, dst_port: int, syn_ack: bool = False) -> None:
        flags = frozenset({FLAG_SYN, FLAG_ACK}) if syn_ack else frozenset({FLAG_ACK})
        segment = TcpSegment(
            src_port=self.port, dst_port=dst_port,
            seq=0, ack=self.rcv_nxt, flags=flags,
        )
        self.acks_sent += 1
        self.layer.send_segment(segment, dst)
