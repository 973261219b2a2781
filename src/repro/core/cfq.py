"""Causal Fair Queuing (CFQ) algorithms.

Section 3.1 of the paper characterizes the backlogged behaviour of a causal
fair-queuing algorithm by a triple ``(s0, f, g)``:

* ``s0`` — an initial state,
* ``f(s)`` — selects which queue to serve next, from the state alone,
* ``g(s, p)`` — updates the state after packet ``p`` is transmitted.

*Causality* means the choice of the next queue depends only on previously
transmitted packets (encoded in the state) — never on the contents of the
queues (e.g. head-of-line packet sizes).  Causality is exactly what lets a
receiver *simulate* the sender (section 4): the receiver can compute
``f(s)`` before the next packet arrives.

This module defines the :class:`CausalFQ` interface, a backlogged
fair-queuing driver (:func:`fq_service_order`), and capability metadata used
to regenerate the paper's Table 1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.packet import Packet


@dataclass(frozen=True)
class Capabilities:
    """Feature claims for a striping scheme, as in the paper's Table 1.

    Attributes:
        fifo_delivery: ``"guaranteed"``, ``"quasi"``, or ``"may_reorder"``.
        load_sharing: ``"good"`` or ``"poor"`` with variable-length packets.
        environment: free-text target environment description.
        modifies_packets: True if the scheme must add headers / reformat
            data packets (disqualifying it for fixed-format channels).
    """

    fifo_delivery: str
    load_sharing: str
    environment: str
    modifies_packets: bool = False


class CausalFQ(abc.ABC):
    """A causal fair-queuing algorithm ``(s0, f, g)``.

    Implementations must be *pure*: :meth:`select` must not mutate the
    state, and :meth:`update` must return a new state object.  Purity is
    what makes sender/receiver simulation trivially correct and lets
    hypothesis drive the algorithms directly.

    ``update`` receives only the transmitted packet's size: by causality the
    algorithm may use nothing else about the packet.
    """

    #: Table 1 feature claims; subclasses override.
    capabilities: Capabilities = Capabilities(
        fifo_delivery="quasi",
        load_sharing="good",
        environment="At all levels",
    )

    @property
    @abc.abstractmethod
    def n_channels(self) -> int:
        """Number of queues (fair queuing) / channels (load sharing)."""

    @abc.abstractmethod
    def initial_state(self) -> Any:
        """The initial state ``s0``."""

    @abc.abstractmethod
    def select(self, state: Any) -> int:
        """``f(s)``: index of the queue/channel to serve next."""

    @abc.abstractmethod
    def update(self, state: Any, size: int) -> Any:
        """``g(s, p)``: state after transmitting a packet of ``size`` bytes."""


class NonCausalFQ(abc.ABC):
    """A fair-queuing algorithm whose decision needs queue contents.

    Such algorithms (e.g. classic DRR, or DKS bit-by-bit round robin) can be
    used for fair queuing but *cannot* be transformed into striping
    algorithms with logical reception: the receiver cannot predict the next
    channel without seeing data it has not received yet.  They exist here as
    contrast cases for tests and the Table 1 bench.
    """

    @property
    @abc.abstractmethod
    def n_queues(self) -> int: ...

    @abc.abstractmethod
    def initial_state(self) -> Any: ...

    @abc.abstractmethod
    def next(
        self, state: Any, head_sizes: Sequence[Optional[int]]
    ) -> Tuple[int, Any]:
        """Pick the queue to serve, inspecting head-of-line packet sizes.

        Returns ``(queue_index, state)`` — selection itself may consume
        state (e.g. DRR banks quanta while walking past queues whose head
        does not fit), which is exactly why these algorithms are not
        causal.
        """

    @abc.abstractmethod
    def update(self, state: Any, queue: int, size: int) -> Any:
        """Account for the packet just sent from ``queue``."""


def fq_service_order(
    algorithm: CausalFQ,
    queues: Sequence[Sequence[Packet]],
    max_packets: Optional[int] = None,
) -> List[Packet]:
    """Run a CFQ algorithm over pre-loaded queues; return the service order.

    This is the *fair queuing* direction (the paper's Figure 2): packets sit
    in per-queue FIFOs and the algorithm merges them onto one output
    channel.  The run is a "backlogged execution" in the paper's sense: it
    stops as soon as the selected queue is empty (at which point the
    backlogged prefix has been exhausted) or when all packets are serviced.

    Args:
        algorithm: the CFQ algorithm to drive.
        queues: one packet list per queue, each in FIFO order.
        max_packets: optional safety cap on the output length.

    Returns:
        Packets in the order the algorithm services them.
    """
    # Imported lazily: kernel.py depends on this module's interfaces.
    from repro.core.kernel import kernel_for

    if len(queues) != algorithm.n_channels:
        raise ValueError(
            f"algorithm expects {algorithm.n_channels} queues, got {len(queues)}"
        )
    kernel = kernel_for(algorithm)
    positions = [0] * len(queues)
    total = sum(len(q) for q in queues)
    output: List[Packet] = []
    while len(output) < total:
        if max_packets is not None and len(output) >= max_packets:
            break
        queue_index = kernel.peek()
        position = positions[queue_index]
        if position >= len(queues[queue_index]):
            break  # selected queue empty: backlogged prefix exhausted
        packet = queues[queue_index][position]
        positions[queue_index] = position + 1
        output.append(packet)
        kernel.step(packet.size)
    return output


def fq_service_order_noncausal(
    algorithm: NonCausalFQ,
    queues: Sequence[Sequence[Packet]],
    max_packets: Optional[int] = None,
) -> List[Packet]:
    """Backlogged driver for non-causal FQ algorithms (head sizes visible)."""
    if len(queues) != algorithm.n_queues:
        raise ValueError(
            f"algorithm expects {algorithm.n_queues} queues, got {len(queues)}"
        )
    positions = [0] * len(queues)
    total = sum(len(q) for q in queues)
    output: List[Packet] = []
    state = algorithm.initial_state()
    while len(output) < total:
        if max_packets is not None and len(output) >= max_packets:
            break
        heads: List[Optional[int]] = [
            queues[i][positions[i]].size if positions[i] < len(queues[i]) else None
            for i in range(len(queues))
        ]
        if all(h is None for h in heads):
            break
        queue_index, state = algorithm.next(state, heads)
        position = positions[queue_index]
        if position >= len(queues[queue_index]):
            break
        packet = queues[queue_index][position]
        positions[queue_index] = position + 1
        output.append(packet)
        state = algorithm.update(state, queue_index, packet.size)
    return output

