"""The session controllers against their from-scratch oracle twin.

One hypothesis script — submit / pump / port space / resets of every kind
/ lost RESETs / lost acks / retry timeouts / stragglers racing a RESET —
drives the real stack (pipelines + controllers, ``tests/session_rig.py``)
and the twin (``session_oracle.py``: a ``Striper`` per epoch, a bare
``SRRReceiver``) side by side, and after every step the two must agree on
every port's wire sequence (RESETs and markers included), on every
delivery and on every reverse-path packet.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet, is_marker
from repro.core.session import (
    RESET_MAX_RETRIES,
    RESET_RETRY_S,
    ResetPacket,
    StripeConfig,
)
from repro.core.striper import MarkerPolicy
from repro.sim.engine import Simulator
from repro.transport.endpoint import (
    build_receiver_recovery,
    build_sender_recovery,
)
from repro.transport.reliability import AckPacket
from tests.conftest import LimitedPort
from tests.properties.session_oracle import OracleReceiver, OracleSender
from tests.session_rig import Loopback

N_PORTS = 3


class OracleLoopback(Loopback):
    """The twin under the same rig, with the recovery layers stacked
    around the sessions the way the parent's socket classes did."""

    def _build(self, marker_policy, checker, reliability, session_options):
        ports, reliable, _ = build_sender_recovery(
            self.ports, reliability, self.sim,
            lambda packets: [sender.submit(packet) for packet in packets],
            lambda packet: sender.withdraw(packet),
        )
        sender = OracleSender(
            self.sim, ports, self.config, marker_policy, RESET_RETRY_S
        )
        sender.submit_packet = sender.submit
        if reliable is not None:
            sender.submit_packet = lambda packet: reliable.submit([packet])
            sender.on_ack = reliable.on_ack
            sender.on_reset_complete = reliable.on_channel_rejoin
        self.sender = self.sender_session = sender
        _, _, head = build_receiver_recovery(
            reliability, self.sim,
            lambda packet: self.delivered.append(packet.seq),
            lambda sack: self.send_control(AckPacket(sack=sack)),
        )
        self.receiver_session = OracleReceiver(
            len(self.ports), self.config, self.send_control, head
        )


def signature(packet):
    if isinstance(packet, ResetPacket):
        return ("reset", packet.epoch, packet.config)
    if is_marker(packet):
        return ("marker", packet.channel, packet.round_number, packet.deficit)
    return ("data", packet.seq, getattr(packet, "rseq", None))


def observed(loop):
    return (
        [[signature(p) for p in port.sent] for port in loop.ports],
        list(loop.delivered),
        [(type(p).__name__, getattr(p, "epoch", None))
         for p in loop.control_log],
    )


def reconfigured(session, kind, pick):
    """The configuration a reset of ``kind`` asks for (None: unchanged)."""
    config = session.config
    active = config.active_channels
    idle = [i for i in range(N_PORTS) if i not in active]
    if kind == "quanta":
        return StripeConfig(
            quanta=tuple(100.0 * (1 + (pick + i) % 3) for i in active),
            active_channels=active,
        )
    if kind == "drop" and len(active) > 1:
        return session.config_without(active[pick % len(active)])
    if kind == "rejoin" and idle:
        return session.config_with(idle[pick % len(idle)], 100.0 * (1 + pick))
    return None


small = st.integers(min_value=0, max_value=5)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 5)),
        st.tuples(st.just("pump")),
        st.tuples(st.just("space"), st.integers(0, N_PORTS - 1),
                  st.integers(1, 6)),
        st.tuples(st.just("reset"),
                  st.sampled_from(["same", "quanta", "drop", "rejoin"]),
                  small),
        st.tuples(st.just("flush"), st.booleans(),
                  st.none() | st.integers(0, N_PORTS - 1), st.booleans()),
        st.tuples(st.just("timeout")),
    ),
    max_size=30,
).filter(
    # the oracle retries a RESET forever; the session gives up after
    # RESET_MAX_RETRIES unanswered rounds
    lambda steps: sum(step[0] == "timeout" for step in steps)
    <= RESET_MAX_RETRIES
)


@pytest.mark.parametrize("reliability", ["quasi_fifo", "reliable"])
@given(steps=steps)
@settings(max_examples=60, deadline=None)
def test_controllers_match_the_oracle_at_every_step(reliability, steps):
    loops = [
        cls(
            Simulator(), n_ports=N_PORTS, quanta=(100.0, 200.0, 100.0),
            marker_policy=MarkerPolicy(interval_rounds=2),
            reliability=reliability,
            ports=[LimitedPort(4) for _ in range(N_PORTS)],
            **options,
        )
        for cls, options in (
            (Loopback, {}),
            (OracleLoopback, {}),
        )
    ]
    real = loops[0]
    seq = 0
    for step in steps:
        kind = step[0]
        if kind == "reset":
            config = reconfigured(real.sender_session, step[1], step[2])
        for loop in loops:
            if kind == "submit":
                for offset in range(step[1]):
                    loop.sender.submit_packet(Packet(100, seq=seq + offset))
            elif kind == "pump":
                loop.sender.pump()
            elif kind == "space":
                loop.ports[step[1]].limit += step[2]
                loop.sender.pump()
            elif kind == "reset":
                loop.sender_session.initiate_reset(config)
            elif kind == "flush":
                _, interleave, lossy_port, lose_control = step
                lost = []
                if lossy_port is not None:
                    lost = [
                        p for p in loop.ports[lossy_port].sent
                        if isinstance(p, ResetPacket)
                    ]
                loop.lose_control = lose_control
                loop.flush(drop=lost, interleave=interleave)
                loop.lose_control = False
            else:
                loop.sim.run(until=loop.sim.now + 1.01 * RESET_RETRY_S)
        if kind == "submit":
            seq += step[1]
        assert observed(real) == observed(loops[1]), step
