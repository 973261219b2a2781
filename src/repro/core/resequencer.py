"""Logical reception: the receiver side of the striping protocol.

Section 4's idea: separate *physical* reception (a packet arrives on a
channel and is buffered) from *logical* reception (the resequencing
algorithm removes packets from channel buffers in sender order).  Because
the sender policy is a transformed **causal** FQ algorithm, the receiver
can run the very same CFQ algorithm to predict which channel the next
packet in sender order will arrive on, block on that channel, and buffer
everything else.

:class:`Resequencer` implements this for any :class:`~repro.core.cfq.CausalFQ`
(Theorem 4.1 — exact FIFO when nothing is lost).  Loss recovery with
markers is algorithm-specific and lives in :mod:`repro.core.markers`.

:class:`NullResequencer` is the ablation: it delivers packets in physical
arrival order ("no resequencing" in Figure 15).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.core.cfq import CausalFQ
from repro.core.kernel import SchedulerKernel, kernel_for
from repro.core.packet import is_marker


class Resequencer:
    """Generic logical-reception engine (no loss recovery).

    Args:
        algorithm: the same CFQ algorithm the sender's load sharer was
            transformed from.
        on_deliver: callback receiving packets in logical (sender) order.

    Physical arrivals are pushed with :meth:`push`; each push drains as
    many packets as the simulation allows.  If the expected channel's
    buffer is empty the engine *blocks* — it simply returns and waits for a
    later push.  Marker packets, if any arrive, are discarded (this engine
    does not do recovery; see :class:`repro.core.markers.SRRReceiver`).

    The sender simulation steps a mutable
    :class:`~repro.core.kernel.SchedulerKernel`; the legacy ``state``
    attribute remains as a snapshot view of it, and :meth:`snapshot` /
    :meth:`restore` capture it together with the channel buffers.
    """

    def __init__(
        self,
        algorithm: CausalFQ,
        on_deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.algorithm = algorithm
        self.on_deliver = on_deliver
        self.kernel: SchedulerKernel = kernel_for(algorithm)
        self.buffers: List[Deque[Any]] = [
            deque() for _ in range(algorithm.n_channels)
        ]
        self.delivered = 0
        self.max_buffered = 0
        self._buffered = 0
        #: channels declared dead (see :meth:`fail_channel`)
        self.failed: set = set()
        #: packets the simulated sender assigned to a failed channel that
        #: were skipped over (assumed lost) to keep delivery progressing
        self.assumed_lost = 0

    def snapshot(self) -> Any:
        """Plain-value capture: the simulated sender state and what each
        channel buffers."""
        return {
            "kernel": self.kernel.snapshot(),
            "buffers": [list(buffer) for buffer in self.buffers],
        }

    def restore(self, snapshot: Any) -> None:
        """Install a :meth:`snapshot` capture."""
        self.kernel.restore(snapshot["kernel"])
        for buffer, held in zip(self.buffers, snapshot["buffers"]):
            buffer.clear()
            buffer.extend(held)
        self._buffered = sum(len(buffer) for buffer in self.buffers)

    def sender_restarted(self, state: Any) -> int:
        """A restarted sender announced its kernel ``state``: drop what
        the buffers hold from its dead incarnation and mirror ``state``.
        Returns the packets dropped."""
        dropped = self._buffered
        for buffer in self.buffers:
            buffer.clear()
        self._buffered = 0
        if state is not None:
            self.kernel.restore(state)
        return dropped

    @property
    def n_channels(self) -> int:
        return self.algorithm.n_channels

    @property
    def buffered(self) -> int:
        """Packets currently held in per-channel buffers.

        Tracked incrementally — reading it is O(1), not O(n_channels),
        so the per-push high-water check stays cheap at large N.
        """
        return self._buffered

    def push(self, channel: int, packet: Any) -> List[Any]:
        """Physical arrival of ``packet`` on ``channel``.

        Returns the packets delivered (in logical order) as a result; they
        are also passed to ``on_deliver``.
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        self.buffers[channel].append(packet)
        self._buffered += 1
        if self._buffered > self.max_buffered:
            self.max_buffered = self._buffered
        return self.drain()

    def fail_channel(self, channel: int) -> List[Any]:
        """Declare ``channel`` dead; packets routed there count as lost.

        Logical reception normally *blocks* on the expected channel — on a
        channel that will never speak again, that block is forever.  After
        failure, whenever the scan reaches the dead channel while data is
        buffered elsewhere, the simulated sender is stepped past the
        expected packet (assumed lost, one nominal quantum-sized packet per
        step) so the surviving channels keep delivering.  Delivery degrades
        to quasi-FIFO with gaps instead of stalling; returns packets that
        became deliverable immediately.
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        self.failed.add(channel)
        return self.drain()

    def revive_channel(self, channel: int) -> None:
        """Welcome a failed channel back; stop assuming its packets lost.

        Without markers there is no in-band resync, so a mid-stream revival
        restores *blocking* semantics on the channel: alignment of its new
        packets with the simulated sender requires a session reset (or a
        marker-mode receiver, which resyncs via condition C1).
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        self.failed.discard(channel)

    def _nominal_size(self, channel: int) -> int:
        """Assumed size of an unseen (lost) packet on a failed channel."""
        quanta = getattr(self.kernel, "quanta", None)
        if quanta is not None:
            return max(1, int(quanta[channel]))
        return 1

    def drain(self) -> List[Any]:
        """Deliver everything currently deliverable in logical order."""
        out: List[Any] = []
        kernel = self.kernel
        buffers = self.buffers
        skip_budget = 64 * self.n_channels
        while True:
            channel = kernel.peek()
            buffer = buffers[channel]
            if not buffer:
                if (
                    channel in self.failed
                    and self._buffered > 0
                    and skip_budget > 0
                ):
                    # Dead channel with live data elsewhere: write the
                    # expected packet off as lost and keep scanning.
                    kernel.step(self._nominal_size(channel))
                    self.assumed_lost += 1
                    skip_budget -= 1
                    continue
                break  # block on the expected channel
            skip_budget = 64 * self.n_channels
            packet = buffer.popleft()
            self._buffered -= 1
            if is_marker(packet):
                continue  # recovery not handled here
            out.append(packet)
            self.delivered += 1
            kernel.step(packet.size)
            if self.on_deliver is not None:
                self.on_deliver(packet)
        return out


class NullResequencer:
    """The "no resequencing" ablation: deliver in physical arrival order."""

    def __init__(self, n_channels: int, on_deliver=None) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        self._n = n_channels
        self.on_deliver = on_deliver
        self.delivered = 0
        self.max_buffered = 0

    @property
    def buffered(self) -> int:
        return 0

    def push(self, channel: int, packet: Any) -> List[Any]:
        if not 0 <= channel < self._n:
            raise ValueError(f"channel {channel} out of range")
        if is_marker(packet):
            return []
        self.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(packet)
        return [packet]

    def fail_channel(self, channel: int) -> List[Any]:
        """Physical-order delivery never blocks; nothing to do."""
        return []

    def revive_channel(self, channel: int) -> None:
        """Physical-order delivery never blocked; nothing to restore."""

    def snapshot(self) -> None:
        """Arrival-order delivery keeps no state to resume."""
        return None

    def restore(self, state: Any) -> None:
        if state is not None:
            raise ValueError(
                f"{type(self).__name__} is stateless; nothing to restore "
                f"(got {state!r})"
            )

    def sender_restarted(self, state: Any) -> int:
        """Arrival order mirrors no sender: nothing to drop or adopt."""
        return 0


class DirectReception(NullResequencer):
    """Marker-free reception: every data arrival *is* a delivery.

    The receiver half of hash-synchronized disciplines (address hashing,
    Sprinklers): per-flow channel pinning makes physical arrival order the
    delivery order, so there is nothing to resequence — ``buffered`` and
    ``max_buffered`` are structurally zero, and a delivered packet has no
    surviving reference inside the engine (the pooling contract:
    :class:`~repro.core.packet.PacketPool` may recycle it at delivery,
    not at drain).

    Unlike the :class:`NullResequencer` ablation — which rides the marker
    pipeline and silently swallows the marker stream — this engine should
    never see a marker at all; any that arrive (a misconfigured sender)
    are counted in :attr:`stray_markers` and dropped undecoded.
    """

    def __init__(self, n_channels: int, on_deliver) -> None:
        super().__init__(n_channels, on_deliver)
        #: markers that reached a marker-free receiver (sender misconfig)
        self.stray_markers = 0

    def push(self, channel: int, packet: Any) -> List[Any]:
        if is_marker(packet):
            self.stray_markers += 1
            return []
        return super().push(channel, packet)


#: Receiver modes understood by :func:`make_resequencer`.
RESEQ_MODES = ("marker", "plain", "none", "direct", "mppp", "bonding")


def make_resequencer(
    algorithm: Optional[CausalFQ],
    mode: str,
    *,
    n_channels: Optional[int] = None,
    on_deliver: Optional[Callable[[Any], None]] = None,
    clock: Optional[Callable[[], float]] = None,
    sim: Optional[Any] = None,
) -> Any:
    """The one canonical construction of a logical-reception engine.

    Every receiver stack historically hand-rolled the same mode dispatch;
    this factory is the single copy.  Modes:

    * ``"marker"`` — logical reception + marker recovery (the paper;
      requires an SRR-family ``algorithm``).
    * ``"plain"`` — logical reception, no loss recovery (Theorem 4.1;
      any :class:`~repro.core.cfq.CausalFQ`).
    * ``"none"`` — physical arrival order (the Figure 15 ablation;
      needs only ``n_channels``).
    * ``"direct"`` — marker-free delivery at arrival (hash-synchronized
      disciplines; stray markers counted, never decoded).
    * ``"mppp"`` — RFC 1717 sequence-number resequencing (baseline;
      ``sim`` enables the gap timeout).
    * ``"bonding"`` — BONDING-style frame alignment (baseline).

    Returns an object with ``push(channel, packet)`` / ``drain()``.
    """
    if n_channels is None:
        if algorithm is None:
            raise ValueError("need an algorithm or an explicit n_channels")
        n_channels = algorithm.n_channels
    if mode == "marker":
        from repro.core.markers import SRRReceiver
        from repro.core.srr import SRR

        if not isinstance(algorithm, SRR):
            raise ValueError("marker mode requires an SRR-family algorithm")
        return SRRReceiver(algorithm, on_deliver=on_deliver, clock=clock)
    if mode == "plain":
        if algorithm is None:
            raise ValueError("plain mode requires a CausalFQ algorithm")
        return Resequencer(algorithm, on_deliver=on_deliver)
    if mode == "none":
        return NullResequencer(n_channels, on_deliver=on_deliver)
    if mode == "direct":
        return DirectReception(n_channels, on_deliver=on_deliver)
    if mode == "mppp":
        from repro.baselines.mppp import MpppReceiver

        return MpppReceiver(sim=sim, on_deliver=on_deliver)
    if mode == "bonding":
        from repro.baselines.bonding import BondingResequencer

        return BondingResequencer(n_channels, on_deliver=on_deliver)
    raise ValueError(f"unknown resequencing mode {mode!r}")
