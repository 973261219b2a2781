"""Internal fragmentation/reassembly — lifting the min-MTU restriction.

Section 6.2: "our striping algorithm restricts the MTU size used for a
collection of links to be the smallest MTU size ...  This problem does not
appear to be specific to our scheme, but seems to apply to any striping
algorithm that does not internally fragment and reassemble packets.  Since
the overall throughput is considerably dependent on MTU size, we recommend
that striping be done on links with similar MTU sizes."

This module implements the alternative the paper chose not to take —
*internal* fragmentation — so the trade-off can be measured:

* :class:`FragmentingStriper` cuts each upper-layer packet into fragments
  sized to the MTU of whichever channel the **causal** SRR kernel selects:
  the channel is chosen first (from state alone, so logical reception
  still works), then the fragment is cut to fit it.  Fairness is
  preserved because SRR charges actual bytes sent.
* :class:`Reassembler` rebuilds packets from in-order fragments on the
  receiver side (after logical reception, fragments of one packet are
  consecutive, so reassembly is a simple accumulator; losses abort the
  packet in progress).

The cost, which the paper's no-modification goal forbids: each fragment
carries a small header (:data:`FRAGMENT_HEADER_BYTES`).  The benefit: the
striped interface's MTU becomes the *largest* member MTU, so a CPU-bound
receiver handles fewer, bigger packets (the paper's 8 KB-MTU observation).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional, Sequence

from repro.core.striper import ChannelPort, MarkerPolicy, Striper
from repro.core.transform import LoadSharer

FRAGMENT_HEADER_BYTES = 8

_fragment_packet_ids = itertools.count(1)


@dataclass
class Fragment:
    """One piece of a fragmented upper-layer packet.

    ``size`` is the wire size (payload share + fragment header); the
    striping algorithm charges it like any data packet.
    """

    packet_id: int
    index: int
    count: int
    payload_bytes: int
    inner: Any  # the original packet (carried on the last fragment only
    #             in a real system; here for reconstruction convenience)

    @property
    def size(self) -> int:
        return self.payload_bytes + FRAGMENT_HEADER_BYTES

    def __repr__(self) -> str:
        return (
            f"Fragment(pkt={self.packet_id} {self.index + 1}/{self.count} "
            f"{self.size}B)"
        )


class FragmentingStriper(Striper):
    """A striper that cuts packets to the selected channel's MTU.

    The order of operations preserves causality: the SRR kernel's pointer
    picks the channel **first**; the fragment is then sized to that
    channel's MTU and the kernel charges its size.  The receiver running
    the same algorithm predicts the same channels and sees the same sizes.

    Whole packets wait in their own queue.  :meth:`pump` cuts one fragment
    at a time, for the channel the kernel points at, into ``input_queue``
    and lets :meth:`Striper.pump` send it and place the markers, so the
    send counters (``packets_sent``, ``bytes_sent``) count fragments and
    ``backlog`` counts the whole packets not yet started.

    Args:
        sharer: a :class:`~repro.core.transform.TransformedLoadSharer`
            wrapping an SRR-family algorithm (the kernel pointer is what a
            fragment is cut for; anything else raises).
        mtus: per-channel maximum fragment wire size.
    """

    def __init__(
        self,
        sharer: LoadSharer,
        ports: Sequence[ChannelPort],
        mtus: Sequence[int],
        marker_policy: Optional[MarkerPolicy],
    ) -> None:
        super().__init__(sharer, ports, marker_policy)
        if self._kernel is None:
            raise ValueError("fragmentation requires an SRR-family algorithm")
        if len(mtus) != len(ports):
            raise ValueError("one MTU per channel required")
        if any(m <= FRAGMENT_HEADER_BYTES for m in mtus):
            raise ValueError("MTUs must exceed the fragment header")
        self.mtus = list(mtus)
        self._packets: Deque[Any] = deque()
        #: in-progress packet: [original, bytes_remaining, packet_id,
        #: fragments cut so far]
        self._current: Optional[list] = None

    def submit(self, packet: Any) -> None:
        self.submit_many((packet,))

    def submit_many(self, packets: Any) -> None:
        self._packets.extend(packets)
        self.pump()

    @property
    def backlog(self) -> int:
        """Whole packets waiting to be cut."""
        return len(self._packets)

    def pump(self) -> int:
        sent = 0
        while self.input_queue or self._cut():
            sent += super().pump()
            if self.input_queue:
                break  # causal blocking (or held): the fragment waits
        return sent

    def _cut(self) -> bool:
        """Cut the next fragment for the kernel's pointer channel into
        ``input_queue``; False when no packet is waiting."""
        if self._current is None:
            if not self._packets:
                return False
            packet = self._packets.popleft()
            self._current = [
                packet, int(packet.size), next(_fragment_packet_ids), [],
            ]
        packet, remaining, packet_id, fragments = self._current
        chunk = min(
            remaining, self.mtus[self._kernel.ptr] - FRAGMENT_HEADER_BYTES
        )
        fragment = Fragment(
            packet_id=packet_id,
            index=len(fragments),
            count=0,  # patched below when the packet's last piece is cut
            payload_bytes=chunk,
            inner=packet,
        )
        fragments.append(fragment)
        self._current[1] = remaining - chunk
        if remaining <= chunk:
            for piece in fragments:
                piece.count = len(fragments)
            self._current = None
        self.input_queue.append(fragment)
        return True


class Reassembler:
    """Rebuilds packets from logically ordered fragments.

    After logical reception the fragments of one packet arrive
    consecutively; a fragment from a *different* packet id aborts any
    packet in progress (its missing fragments were lost).
    """

    def __init__(self, on_packet: Callable[[Any], None]) -> None:
        self.on_packet = on_packet
        self._current_id: Optional[int] = None
        self._got = 0
        self._need = 0
        self._inner: Any = None
        self.packets_completed = 0
        self.packets_aborted = 0
        self.fragments_seen = 0

    def push(self, fragment: Any) -> Optional[Any]:
        """Feed the next in-order fragment; returns a completed packet."""
        if not isinstance(fragment, Fragment):
            return None
        self.fragments_seen += 1
        if fragment.packet_id != self._current_id:
            if self._current_id is not None and self._got < self._need:
                self.packets_aborted += 1
            self._current_id = fragment.packet_id
            self._got = 0
            self._need = max(fragment.count, 1)
            self._inner = fragment.inner
        if fragment.index != self._got:
            # out-of-sequence within the packet (mid-packet loss): abort
            self.packets_aborted += 1
            self._current_id = None
            return None
        self._got += 1
        self._need = max(fragment.count, self._need)
        if fragment.count and self._got == fragment.count:
            inner = self._inner
            self._current_id = None
            self.packets_completed += 1
            self.on_packet(inner)
            return inner
        return None
