"""The fair-queuing → load-sharing transformation (Theorem 3.1).

A load sharing algorithm is the "time reversal" of a fair queuing
algorithm: where FQ pulls packets *from* many queues onto one channel, load
sharing pushes packets from one queue *to* many channels, using the same
``(s0, f, g)``.

This module provides:

* :class:`LoadSharer` — the interface every striping policy implements
  (including non-causal baselines like shortest-queue-first, which is why
  ``choose`` also receives the packet and current queue depths).
* :class:`TransformedLoadSharer` — wraps any :class:`~repro.core.cfq.CausalFQ`
  into a load sharer, per the paper's transformation.  Internally it steps
  a :class:`~repro.core.kernel.SchedulerKernel`, so the per-packet path is
  mutation, not frozen-state churn.
* :func:`stripe_sequence` — offline driver: split an input sequence across
  channels (the paper's Figure 3 / Figure 6 direction), batched through
  ``assign_many``.
* :func:`verify_reverse_correspondence` — an executable rendering of the
  Theorem 3.1 proof: feed the load sharer's per-channel outputs back into
  the original CFQ algorithm as queues and check the FQ service order
  reproduces the original input sequence.  Property tests run this over
  random algorithms and inputs.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence

from repro.core.cfq import Capabilities, CausalFQ, fq_service_order
from repro.core.kernel import SchedulerKernel, kernel_for
from repro.core.packet import Packet


class LoadSharer(abc.ABC):
    """A striping policy: assigns each packet, in order, to a channel.

    The two-phase protocol matters for backpressure: the sender engine
    calls :meth:`choose` to learn where the next packet must go, waits (if
    needed) for that channel to have queue space, sends, then calls
    :meth:`notify_sent`.  A causal policy must commit to its choice before
    seeing anything but its own state; non-causal baselines may inspect the
    packet and live queue depths.
    """

    #: Table 1 feature claims.
    capabilities: Capabilities = Capabilities(
        fifo_delivery="may_reorder",
        load_sharing="poor",
        environment="At all levels",
    )

    #: True if a receiver can simulate this policy (logical reception).
    simulatable: bool = False

    @property
    @abc.abstractmethod
    def n_channels(self) -> int: ...

    @abc.abstractmethod
    def choose(
        self,
        packet: Any,
        queue_depths: Optional[Sequence[int]] = None,
    ) -> int:
        """Channel index for this packet.  Must not mutate policy state."""

    @abc.abstractmethod
    def notify_sent(self, channel: int, packet: Any) -> None:
        """Commit: the packet was handed to ``channel``'s transmit queue."""

    def assign_many(
        self,
        packets: Sequence[Any],
        queue_depths: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Assign a burst of packets; returns one channel index per packet.

        The default runs the two-phase protocol per packet, tracking the
        queue-depth growth a depth-sensitive policy (e.g. shortest queue
        first) would observe if the burst were submitted one at a time to
        infinite queues.  Kernel-backed policies override this with a
        single batched loop.
        """
        depths = (
            list(queue_depths)
            if queue_depths is not None
            else [0] * self.n_channels
        )
        out: List[int] = []
        for packet in packets:
            channel = self.choose(packet, depths)
            self.notify_sent(channel, packet)
            depths[channel] += 1
            out.append(channel)
        return out

    def reset(self) -> None:
        """Restore initial state (default implemented by subclasses)."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """Plain-value capture of the policy state (checkpoints).

        The default is a stateless policy's: nothing.  Stateful policies
        override this and :meth:`restore` together.
        """
        return None

    def restore(self, state: Any) -> None:
        """Install a state captured by :meth:`snapshot`."""


class TransformedLoadSharer(LoadSharer):
    """Load sharer obtained from a CFQ algorithm via Theorem 3.1.

    The wrapped algorithm's ``f`` picks the output channel; ``g`` advances
    the state on each send.  Because the choice never depends on the packet
    (until it is sent), the policy is causal and a receiver running the
    same CFQ algorithm can simulate it — the basis of logical reception.

    Stepping is delegated to the :class:`~repro.core.kernel.SchedulerKernel`
    built by :func:`~repro.core.kernel.kernel_for`; the legacy ``state``
    attribute remains available as a snapshot view for code (and tests)
    written against the immutable path.
    """

    simulatable = True

    def __init__(self, algorithm: CausalFQ) -> None:
        self.algorithm = algorithm
        self.capabilities = algorithm.capabilities
        self.kernel: SchedulerKernel = kernel_for(algorithm)

    @property
    def n_channels(self) -> int:
        return self.algorithm.n_channels

    def snapshot(self) -> Any:
        """The kernel's snapshot (an :class:`~repro.core.srr.SRRState` for
        the SRR family)."""
        return self.kernel.snapshot()

    def restore(self, state: Any) -> None:
        self.kernel.restore(state)

    #: the kernel snapshot as an attribute (immutable-path compatibility)
    state = property(snapshot, restore)

    def choose(
        self,
        packet: Any,
        queue_depths: Optional[Sequence[int]] = None,
    ) -> int:
        return self.kernel.peek()

    def notify_sent(self, channel: int, packet: Any) -> None:
        expected = self.kernel.peek()
        if channel != expected:
            raise ValueError(
                f"causal policy must send to channel {expected}, "
                f"but {channel} was reported"
            )
        self.kernel.step(packet.size)

    def assign_many(
        self,
        packets: Sequence[Any],
        queue_depths: Optional[Sequence[int]] = None,
    ) -> List[int]:
        return self.kernel.assign_many([p.size for p in packets])

    def reset(self) -> None:
        self.kernel.reset()


def stripe_sequence(
    sharer: LoadSharer, packets: Sequence[Packet]
) -> List[List[Packet]]:
    """Split ``packets`` (in order) across channels; returns per-channel lists.

    This is the offline (infinite queue, zero time) view used for fairness
    analysis and the Theorem 3.1 check; the event-driven sender lives in
    :mod:`repro.core.striper`.  Assignment goes through the policy's
    batched :meth:`~LoadSharer.assign_many`, so kernel-backed policies run
    the whole sequence in one tight loop.
    """
    channels: List[List[Packet]] = [[] for _ in range(sharer.n_channels)]
    for packet, channel in zip(packets, sharer.assign_many(packets)):
        channels[channel].append(packet)
    return channels


def verify_reverse_correspondence(
    algorithm: CausalFQ, packets: Sequence[Packet]
) -> bool:
    """Executable Theorem 3.1 proof construction.

    Stripe ``packets`` with the transformed algorithm to get per-channel
    output sequences E; initialize FQ queues with those sequences and run
    the *original* CFQ algorithm on them (execution E').  The theorem's
    1-1 correspondence holds iff the FQ service order equals the original
    input order.
    """
    sharer = TransformedLoadSharer(algorithm)
    channels = stripe_sequence(sharer, packets)
    replay = fq_service_order(algorithm, channels)
    if len(replay) != len(packets):
        return False
    return all(a.uid == b.uid for a, b in zip(replay, packets))
