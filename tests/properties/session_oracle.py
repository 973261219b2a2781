"""Oracle twin of the session endpoints, written from scratch.

The shape the repo shipped before the sessions became controllers over
the pipelines: the sender session builds a ``Striper`` per epoch and parks
packets submitted mid-reset in a list, the receiver session pushes into a
bare ``SRRReceiver``.  One deliberate difference: a reset started while
one is in flight *moves* the striper's queue into the parked list (the
shipped code copied it, sending every queued packet twice).
"""

from repro.core.control import CODEPOINT_RESET, ResetAckPacket, ResetPacket
from repro.core.markers import SRRReceiver
from repro.core.packet import Codepoint
from repro.core.striper import Striper
from repro.core.transform import TransformedLoadSharer


class OracleSender:
    def __init__(self, sim, ports, config, marker_policy, retry_timeout):
        self.sim, self.ports, self.config = sim, ports, config
        self.marker_policy, self.retry_timeout = marker_policy, retry_timeout
        self.epoch, self.resetting, self.parked = 0, False, []
        self.on_ack = self.on_reset_complete = self._retry = None
        self.striper = self._striper()

    def _striper(self):
        return Striper(
            TransformedLoadSharer(self.config.algorithm()),
            [self.ports[i] for i in self.config.active_channels],
            self.marker_policy,
        )

    def submit(self, packet):
        if self.resetting:
            self.parked.append(packet)
        else:
            self.striper.submit(packet)

    def pump(self):
        return 0 if self.resetting else self.striper.pump()

    def withdraw(self, packet):
        # A queued copy waits in this epoch's striper or, mid-reset, in
        # the parked list; identity, not ==, picks it out.
        for queue in (self.striper.input_queue, self.parked):
            for index, queued in enumerate(queue):
                if queued is packet:
                    del queue[index]
                    return True
        return False

    def initiate_reset(self, config=None):
        queue = self.striper.input_queue
        self.parked = list(queue) + self.parked
        queue.clear()
        self.epoch += 1
        self.config = self.config if config is None else config
        self.resetting = True
        self._send_resets()

    def _send_resets(self):
        for index in self.config.active_channels:
            self.ports[index].send(
                ResetPacket(epoch=self.epoch, config=self.config), force=True
            )
        if self._retry is not None:
            self._retry.cancel()
        self._retry = self.sim.schedule(self.retry_timeout, self._send_resets)

    def on_control(self, packet):
        if getattr(packet, "codepoint", None) == Codepoint.ACK:
            self.on_ack(packet)
        elif (
            isinstance(packet, ResetAckPacket)
            and self.resetting and packet.epoch == self.epoch
        ):
            self._retry.cancel()
            self.resetting = False
            self.striper = self._striper()
            parked, self.parked = self.parked, []
            for queued in parked:
                self.striper.submit(queued)
            if self.on_reset_complete is not None:
                self.on_reset_complete()


class OracleReceiver:
    def __init__(self, n_ports, config, send_control, on_deliver):
        self.config, self.send_control = config, send_control
        self.on_deliver = on_deliver
        self.epoch, self.channel_epoch = 0, [0] * n_ports
        self.engine = self._engine()

    def _engine(self):
        return SRRReceiver(self.config.algorithm(), on_deliver=self.on_deliver)

    def push(self, port, packet):
        if getattr(packet, "codepoint", None) == CODEPOINT_RESET:
            if packet.epoch > self.epoch:
                self.epoch, self.config = packet.epoch, packet.config
                self.engine = self._engine()
            if packet.epoch == self.epoch:
                self.channel_epoch[port] = packet.epoch
                active = self.config.active_channels
                if all(self.channel_epoch[i] == self.epoch for i in active):
                    self.send_control(ResetAckPacket(epoch=self.epoch))
            return
        position = self.config.position_of(port)
        if self.channel_epoch[port] == self.epoch and position is not None:
            self.engine.push(position, packet)
