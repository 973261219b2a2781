"""The one in-memory session rig: both controllers over ``ListPort``s.

``Loopback`` builds the sender pipeline + :class:`StripeSenderSession`
and the receiver pipeline + :class:`StripeReceiverSession` over a list of
in-memory ports and ferries packets between them synchronously, so the
reset handshake can be stepped, reordered and made lossy by hand.
"""

from __future__ import annotations

from repro.core.session import (
    StripeConfig,
    StripeReceiverSession,
    StripeSenderSession,
)
from repro.core.striper import ListPort
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.reliability import AckPacket


class Loopback:
    """Synchronous sender↔receiver session pair over in-memory ports.

    ``sender`` / ``receiver`` are the pipelines (submit, pump,
    ``resequencer``); ``sender_session`` / ``receiver_session`` the reset
    controllers.  :meth:`flush` ferries everything new on the sender's
    ports to the receiver, and control packets straight back — optionally
    dropping selected packets.  ``delivered`` collects delivered ``seq``s,
    ``control_log`` every reverse-path packet (lost ones included).
    """

    def __init__(self, sim, n_ports=2, quanta=(100.0, 100.0),
                 marker_policy=None, checker=None,
                 reliability="quasi_fifo", ports=None,
                 failure_detector=None, **session_options):
        self.sim = sim
        self.ports = ports or [ListPort() for _ in range(n_ports)]
        self.config = StripeConfig(
            quanta=tuple(quanta),
            active_channels=tuple(range(len(self.ports))),
        )
        self.delivered = []
        self.control_log = []
        self.lose_control = False
        self._cursor = [0] * len(self.ports)
        self.failure_detector = failure_detector
        self._build(marker_policy, checker, reliability, session_options)

    def _build(self, marker_policy, checker, reliability, session_options):
        n_ports = len(self.ports)
        self.sender = StripeSenderPipeline(
            self.ports, self.config.algorithm(),
            marker_policy=marker_policy, sim=self.sim,
            reliability=reliability,
        )
        self.sender_session = StripeSenderSession(
            self.sim, self.sender, self.config, **session_options
        )
        self.receiver = StripeReceiverPipeline(
            n_ports, self.config.algorithm(),
            on_message=lambda p: self.delivered.append(p.seq),
            sim=self.sim, reliability=reliability,
            send_ack=lambda sack: self.send_control(AckPacket(sack=sack)),
        )
        self.receiver_session = StripeReceiverSession(
            self.receiver, n_ports, self.config, self.send_control,
            checker=checker, failure_detector=self.failure_detector,
        )

    def send_control(self, packet):
        """The reverse control path (inline unless ``lose_control``)."""
        self.control_log.append(packet)
        if not self.lose_control:
            self.sender_session.on_control(packet)

    def flush(self, drop=None, interleave=True):
        """Deliver new port contents to the receiver.

        ``interleave=True`` (default) alternates channels packet by packet
        (realistic bounded skew); ``False`` delivers channel-major
        (maximal skew — whole channels early).  ``drop`` lists the
        packets (the objects: data and control ``uid``s are separate
        counters) lost in flight.
        """
        drop = drop or ()

        def push_one(index):
            sent = self.ports[index].sent
            if self._cursor[index] >= len(sent):
                return False
            packet = sent[self._cursor[index]]
            self._cursor[index] += 1
            if not any(packet is lost for lost in drop):
                self.receiver_session.push(index, packet)
            return True

        if interleave:
            progressing = True
            while progressing:
                progressing = False
                for index in range(len(self.ports)):
                    if push_one(index):
                        progressing = True
        else:
            for index in range(len(self.ports)):
                while push_one(index):
                    pass
