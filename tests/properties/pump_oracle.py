"""The packet-at-a-time SRR pump: what :meth:`Striper.pump` is checked against.

One packet per iteration: ask the pointer port ``can_accept``, ``send``,
step the kernel through the policy's ``notify_sent``, then walk the pointer
path from where it was to where it is and emit a marker batch on every
``interval``-th entry into the marker position.  ``Striper.pump`` does the
same work one ``SRRKernel.assign_admitted`` pass at a time; it may only be
faster.
"""

from repro.core.striper import Striper


class PerPacketStriper(Striper):
    """A :class:`Striper` whose SRR pump moves one packet at a time."""

    def pump(self):
        if self.held:
            return 0
        if self._initial_markers_pending:
            self._initial_markers_pending = False
            self._emit_markers()
        kernel = self._kernel
        assert kernel is not None, "the oracle covers SRR-kernel policies"
        sent = 0
        while self.input_queue:
            channel = kernel.ptr  # causal: the choice precedes the packet
            port = self.ports[channel]
            if not port.can_accept():
                break  # must wait: causality forbids sending elsewhere
            packet = self.input_queue.popleft()
            old_ptr, old_round = kernel.ptr, kernel.round_number
            port.send(packet)
            self.sharer.notify_sent(channel, packet)
            self.packets_sent += 1
            self.bytes_sent += packet.size
            sent += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.clock(), "striper", "send",
                    channel=channel, size=packet.size,
                )
            if self._markers_enabled:
                self._cross(old_ptr, old_round)
        return sent

    def _cross(self, ptr, rnd):
        """Count each entry into the marker position on the way from
        ``(ptr, rnd)`` to the kernel's position; a deep overdraw hops
        several channels, or rounds, in one step."""
        kernel = self._kernel
        policy = self.marker_policy
        n = len(kernel.quanta)
        while (ptr, rnd) != (kernel.ptr, kernel.round_number):
            ptr += 1
            if ptr == n:
                ptr, rnd = 0, rnd + 1
            if ptr == policy.position % n:
                self._crossings_seen += 1
                if self._crossings_seen % policy.interval_rounds == 0:
                    self._emit_markers()
