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
  sized to the MTU of whichever channel the **causal** algorithm selects:
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
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

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

    The order of operations preserves causality: ``f(state)`` picks the
    channel **first**; the fragment is then sized to that channel's MTU and
    ``g(state, fragment_size)`` advances the state.  The receiver running
    the same algorithm predicts the same channels and sees the same sizes.

    Args:
        mtus: per-channel maximum fragment wire size.
    """

    def __init__(
        self,
        sharer: LoadSharer,
        ports: Sequence[ChannelPort],
        mtus: Sequence[int],
        marker_policy: Optional[MarkerPolicy] = None,
        marker_decorator=None,
    ) -> None:
        super().__init__(
            sharer, ports, marker_policy, marker_decorator=marker_decorator
        )
        if len(mtus) != len(ports):
            raise ValueError("one MTU per channel required")
        if any(m <= FRAGMENT_HEADER_BYTES for m in mtus):
            raise ValueError("MTUs must exceed the fragment header")
        self.mtus = list(mtus)
        #: in-progress packet: (original, bytes_remaining, packet_id,
        #: fragments_emitted, fragment_count)
        self._current: Optional[list] = None
        self.fragments_sent = 0
        self.fragment_overhead_bytes = 0

    def pump(self) -> int:
        if self._initial_markers_pending:
            self._initial_markers_pending = False
            self._emit_markers()
        sent = 0
        kernel = self._kernel
        markers = self._markers_enabled
        while True:
            if self._current is None:
                if not self.input_queue:
                    break
                packet = self.input_queue.popleft()
                self._current = [
                    packet, int(packet.size), next(_fragment_packet_ids), [],
                ]
            packet, remaining, packet_id, fragments = self._current
            if kernel is not None:
                channel = kernel.ptr
            else:
                depths = [p.queue_length for p in self.ports]
                channel = self.sharer.choose(packet, depths)
            port = self.ports[channel]
            if not port.can_accept():
                return sent  # causal blocking, mid-packet included
            chunk = min(remaining, self.mtus[channel] - FRAGMENT_HEADER_BYTES)
            fragment = Fragment(
                packet_id=packet_id,
                index=len(fragments),
                count=0,  # patched below when the packet completes
                payload_bytes=chunk,
                inner=packet,
            )
            fragments.append(fragment)
            remaining -= chunk
            self._current[1] = remaining
            if markers:
                old_ptr, old_round = kernel.ptr, kernel.round_number
            port.send(fragment)
            self.sharer.notify_sent(channel, fragment)
            self.fragments_sent += 1
            self.fragment_overhead_bytes += FRAGMENT_HEADER_BYTES
            sent += 1
            if remaining <= 0:
                for piece in fragments:
                    piece.count = len(fragments)
                self.packets_sent += 1
                self.bytes_sent += packet.size
                self._current = None
            if markers:
                self._check_marker_crossing(old_ptr, old_round)
        return sent

    def _check_marker_crossing(self, old_ptr: int, old_round: int) -> None:
        """Emit markers if the pointer advanced into the policy position.

        A single step can hop several channels (deep overdraw skipping), so
        we walk the pointer path from ``(old_ptr, old_round)`` to the
        kernel's live position and count every entry into ``position``.
        """
        kernel = self._kernel
        policy = self.marker_policy
        assert kernel is not None and policy is not None
        new_ptr, new_round = kernel.ptr, kernel.round_number
        n = kernel.n_channels
        position = policy.position % n
        crossings = 0
        ptr, rnd = old_ptr, old_round
        while (ptr, rnd) != (new_ptr, new_round):
            ptr += 1
            if ptr == n:
                ptr = 0
                rnd += 1
            if ptr == position:
                crossings += 1
        for _ in range(crossings):
            self._crossings_seen += 1
            if self._crossings_seen % policy.interval_rounds == 0:
                self._emit_markers()


class Reassembler:
    """Rebuilds packets from logically ordered fragments.

    After logical reception the fragments of one packet arrive
    consecutively; a fragment from a *different* packet id aborts any
    packet in progress (its missing fragments were lost).
    """

    def __init__(self, on_packet: Optional[Callable[[Any], None]] = None) -> None:
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
            if self.on_packet is not None:
                self.on_packet(inner)
            return inner
        return None
