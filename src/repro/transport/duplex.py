"""Duplex striped sessions with credits piggybacked on markers.

Section 6.3: the FCVC credit scheme "was particularly well suited to our
striping scheme, since the credits could be piggybacked on the periodic
marker packets."  That sentence assumes bidirectional striping: each
direction's periodic markers carry the *other* direction's credit
advertisements, so flow control costs zero extra packets.

:class:`DuplexStripedEndpoint` is the sender and receiver pipeline of one
host; :func:`connect_duplex` wires two endpoints so that

* endpoint A's markers carry A-receiver credits for the B→A direction,
* endpoint B's markers carry B-receiver credits for the A→B direction,
* each receiver forwards arriving piggybacked credits to its co-located
  sender's :class:`~repro.transport.credit.CreditSender`.

No standalone credit packets are sent at all.  Everything here is plain
composition over the endpoint layer: each side is a
:class:`~repro.transport.endpoint.StripeSenderPipeline` over
:func:`~repro.transport.socket_striping.udp_ports` and a
:class:`~repro.transport.endpoint.StripeReceiverPipeline` bound with
:func:`~repro.transport.socket_striping.bind_udp_receiver`, and the
piggyback plumbing is the pipelines' ``marker_decorator`` /
``credit_sink`` / ``sack_sink`` hooks — all of it local to one side.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from repro.core.markers import MAX_SACK_BLOCKS_WIRE, attach_sack
from repro.core.packet import MarkerPacket
from repro.core.striper import MarkerPolicy
from repro.net.stack import Stack
from repro.sim.engine import Simulator
from repro.transport.credit import CreditReceiver, CreditSender
from repro.transport.discipline import make_discipline, receiver_args_for
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.reliability import arq_enabled
from repro.transport.socket_striping import bind_udp_receiver, udp_ports


class DuplexStripedEndpoint(NamedTuple):
    """One side of a bidirectional striped session: its two pipelines."""

    sender: StripeSenderPipeline
    receiver: StripeReceiverPipeline


def connect_duplex(
    sim: Simulator,
    stack_a: Stack,
    stack_b: Stack,
    a_to_b: Sequence[Tuple[str, int]],
    b_to_a: Sequence[Tuple[str, int]],
    algorithm_factory=None,
    buffer_packets: Optional[int] = None,
    marker_policy: Optional[MarkerPolicy] = None,
    base_port_a: int = 7000,
    base_port_b: int = 7100,
    advertise_every: int = 1,
    reliability: str = "quasi_fifo",
    reliability_options: Optional[dict] = None,
    discipline: Optional[str] = None,
    discipline_options: Optional[dict] = None,
) -> Tuple[DuplexStripedEndpoint, DuplexStripedEndpoint]:
    """Build two endpoints with marker-piggybacked FCVC in both directions.

    Every argument is validated before the first socket is bound, so a
    rejected call leaves both stacks untouched.

    Args:
        a_to_b: per-channel ``(b_ip, port)`` targets for A's data (ports
            must be ``base_port_b + i``).
        b_to_a: per-channel ``(a_ip, port)`` targets for B's data (ports
            must be ``base_port_a + i``).
        algorithm_factory: zero-arg callable building the (identical)
            SRR-family algorithm for each striper/resequencer instance
            (mutually exclusive with ``discipline``).
        buffer_packets: per-channel receiver buffer, at least 1 — the
            FCVC bound, and the physical drop rule's cap.  Required with
            markers (the credits ride them); None means no cap and is
            accepted only by the marker-free variant below.
        reliability: ``"reliable"`` arms selective-repeat ARQ in *both*
            directions, with SACKs piggybacked on the reverse markers
            exactly like the credits (an ack-worthy event forces a
            marker batch, so no standalone ack packets are sent at all).
        reliability_options: forwarded to both ARQ halves (sender keys
            are passed to the senders, receiver keys to the receivers —
            use ``{"sender": {...}, "receiver": {...}}``).
        discipline: optional registry discipline name replacing the
            SRR-family ``algorithm_factory`` on both sides.  A
            **marker-free** discipline (Sprinklers, address hashing)
            builds the *marker-free duplex variant*: no marker stream in
            either direction, hence no credit or SACK piggybacking and no
            keepalives — and none is needed, because direct reception
            buffers nothing (FCVC bounds resequencer memory, which is
            structurally zero here).  Reliable mode is rejected for
            marker-free duplex: its SACKs have no markers to ride on.
        discipline_options: forwarded to ``make_discipline``.
    """
    n = len(a_to_b)
    if len(b_to_a) != n:
        raise ValueError("both directions must have the same channel count")
    if discipline is not None:
        if algorithm_factory is not None:
            raise ValueError("pass either algorithm_factory or discipline")
        made = dict(discipline_options or {})

        def algorithm_factory():
            return make_discipline(discipline, n, **made)

    elif algorithm_factory is None:
        raise ValueError("need an algorithm_factory or a discipline")
    mode, _ = receiver_args_for(algorithm_factory(), n, markers=True)
    marker_free = mode == "direct"
    arq = arq_enabled(reliability)
    if marker_free and arq:
        raise ValueError(
            f"marker-free duplex cannot be {reliability}: piggybacked "
            "SACKs need a marker stream to ride on"
        )
    if buffer_packets is None:
        if not marker_free:
            raise ValueError(
                "buffer_packets is required: marker-piggybacked FCVC "
                "needs the per-channel receiver buffer it bounds"
            )
    elif buffer_packets < 1:
        raise ValueError(
            f"buffer_packets must be at least 1, got {buffer_packets}"
        )
    if advertise_every < 1:
        raise ValueError("advertise_every must be >= 1")
    if marker_free:
        marker_policy = None
    elif marker_policy is None:
        marker_policy = MarkerPolicy(interval_rounds=1)
    options = reliability_options or {}

    def side(stack: Stack, targets, base_port: int) -> DuplexStripedEndpoint:
        credit_out = credit_in = decorate = None
        if not marker_free:
            credit_out = CreditSender(n, initial_credit=buffer_packets)
            # Manual credit accounting: no standalone advertisement flow.
            credit_in = CreditReceiver(
                n, buffer_packets, send_credit=None,
                advertise_every=advertise_every,
            )

            def decorate(channel: int, marker: MarkerPacket) -> None:
                # This side's marker on channel c grants the peer the
                # right to push more data at this side's receiver ...
                marker.credit = credit_in.piggyback_limit(channel)
                if receiver.reliable is not None:
                    # ... and acknowledges what it has received so far.
                    attach_sack(
                        marker,
                        receiver.reliable.sack_info(MAX_SACK_BLOCKS_WIRE),
                    )

        _, algorithm = receiver_args_for(algorithm_factory(), n, markers=True)
        receiver = StripeReceiverPipeline(
            n, algorithm, mode=mode, buffer_packets=buffer_packets,
            credit=credit_in, sim=sim, reliability=reliability,
            reliability_options=options.get("receiver"),
        )
        bind_udp_receiver(stack, receiver, base_port)
        sender = StripeSenderPipeline(
            udp_ports(stack, targets, credit=credit_out),
            algorithm_factory(),
            marker_policy=marker_policy, marker_decorator=decorate,
            credit=credit_out, sim=sim,
            marker_keepalive_s=None if marker_free else 0.01,
            reliability=reliability,
            reliability_options=options.get("sender"),
        )
        if credit_out is not None:
            # Arriving piggybacked credits feed the co-located sender.
            receiver.credit_sink = credit_out.on_credit
        if arq:
            # Arriving piggybacked SACKs feed the co-located sender's ARQ,
            # and an ack-worthy event (out-of-order arrival, delayed-ack
            # expiry) forces a marker batch out of the co-located sender
            # so the fresh SACK travels immediately — zero standalone
            # acks, mirroring the credit scheme.
            receiver.sack_sink = sender.on_ack
            receiver.reliable.send_ack = (
                lambda sack: sender.striper.force_marker_batch()
            )
        return DuplexStripedEndpoint(sender=sender, receiver=receiver)

    return (
        side(stack_a, a_to_b, base_port_a),
        side(stack_b, b_to_a, base_port_b),
    )
