"""MPPP-style striping: per-packet sequence-number headers (RFC 1717).

The paper contrasts strIPe with Multilink PPP: MPPP "modifies each packet
by adding sequence numbers to it" and "supplies no algorithm for striping
at the sender and resequencing at the receiver".  We implement the obvious
instantiation: any load-sharing policy at the sender, a 4-byte (configurable)
sequence header prepended to every packet, and a receiver that sorts by
sequence number, releasing gaps after a timeout.

The costs this baseline quantifies against strIPe:

* **Header overhead** — every data packet grows by ``header_bytes``; a
  packet already at the channel MTU cannot be carried at all (the paper's
  key objection), surfaced here as :attr:`MpppSender.oversize_rejects`.
* **Guaranteed FIFO** — unlike quasi-FIFO, reordering never escapes the
  resequencer (gaps stall delivery until the timeout fires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro.core.cfq import Capabilities
from repro.core.packet import Packet
from repro.core.srr import make_rr
from repro.core.transform import LoadSharer, TransformedLoadSharer
from repro.sim.engine import Event, Simulator

MPPP_HEADER_BYTES = 4

_frag_ids = itertools.count(1)


@dataclass
class MpppFragment:
    """A data packet wrapped with an MPPP sequence header."""

    sequence: int
    inner: Packet
    header_bytes: int = MPPP_HEADER_BYTES
    uid: int = field(default_factory=lambda: next(_frag_ids))

    @property
    def size(self) -> int:
        return self.inner.size + self.header_bytes

    def __repr__(self) -> str:
        return f"MpppFragment(#{self.sequence}, {self.size}B)"


class MpppSender:
    """Wraps packets with sequence numbers and stripes them.

    Args:
        sharer: any load-sharing policy (MPPP does not specify one; plain
            RR is the conventional choice).
        ports: channel ports.
        channel_mtu: maximum packet size the channels accept; a packet that
            no longer fits once the header is added is rejected (counted in
            ``oversize_rejects``) — the situation the paper's
            no-modification constraint exists to avoid.
    """

    capabilities = Capabilities(
        fifo_delivery="guaranteed",
        load_sharing="poor",
        environment="Only if we can add headers (PPP links)",
        modifies_packets=True,
    )

    def __init__(
        self,
        sharer: LoadSharer,
        ports: List[Any],
        channel_mtu: Optional[int] = None,
        header_bytes: int = MPPP_HEADER_BYTES,
    ) -> None:
        if len(ports) != sharer.n_channels:
            raise ValueError("port count must match the policy's channel count")
        self.sharer = sharer
        self.ports = ports
        self.channel_mtu = channel_mtu
        self.header_bytes = header_bytes
        # Causal policies expose their scheduler kernel; stepping it
        # directly skips the per-packet queue-depth materialization that
        # only depth-sensitive baselines need.
        self._kernel = getattr(sharer, "kernel", None)
        self.next_sequence = 0
        self.sent = 0
        self.header_overhead_bytes = 0
        self.oversize_rejects = 0

    def submit(self, packet: Packet) -> bool:
        """Send one packet; returns False if it no longer fits the MTU."""
        wrapped = MpppFragment(self.next_sequence, packet, self.header_bytes)
        if self.channel_mtu is not None and wrapped.size > self.channel_mtu:
            self.oversize_rejects += 1
            return False
        if self._kernel is not None:
            channel = self._kernel.peek()
        else:
            depths = [getattr(p, "queue_length", 0) for p in self.ports]
            channel = self.sharer.choose(wrapped, depths)
        self.ports[channel].send(wrapped)
        self.sharer.notify_sent(channel, wrapped)
        self.next_sequence += 1
        self.sent += 1
        self.header_overhead_bytes += self.header_bytes
        return True


class MpppDiscipline(LoadSharer):
    """MPPP as a pluggable endpoint discipline.

    RFC 1717 "supplies no algorithm for striping at the sender" — the
    channel choice delegates to any inner policy (plain round robin by
    default, the conventional reading).  What MPPP *does* specify is the
    per-packet sequence header: :meth:`wrap_packet` applies it, and the
    matching receiver half (``receiver_mode = "mppp"``, an
    :class:`MpppReceiver`) strips it.  Plugged into the unified endpoint
    pipeline this runs MPPP over any transport's channel ports.
    """

    capabilities = MpppSender.capabilities
    simulatable = False
    #: receiver half the endpoint pipeline should build
    receiver_mode = "mppp"

    def __init__(
        self,
        n: int,
        header_bytes: int = MPPP_HEADER_BYTES,
        inner: Optional[LoadSharer] = None,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one channel")
        self.inner = (
            inner if inner is not None else TransformedLoadSharer(make_rr(n))
        )
        if self.inner.n_channels != n:
            raise ValueError("inner policy/channel count mismatch")
        self.header_bytes = header_bytes
        self.next_sequence = 0
        self.header_overhead_bytes = 0

    @property
    def n_channels(self) -> int:
        return self.inner.n_channels

    def wrap_packet(self, packet: Packet) -> List[MpppFragment]:
        """Prepend the sequence header (the modification strIPe forbids)."""
        fragment = MpppFragment(self.next_sequence, packet, self.header_bytes)
        self.next_sequence += 1
        self.header_overhead_bytes += self.header_bytes
        return [fragment]

    def choose(self, packet, queue_depths=None) -> int:
        return self.inner.choose(packet, queue_depths)

    def notify_sent(self, channel: int, packet) -> None:
        self.inner.notify_sent(channel, packet)

    def assign_many(self, packets, queue_depths=None) -> List[int]:
        return self.inner.assign_many(packets, queue_depths)

    def reset(self) -> None:
        self.inner.reset()
        self.next_sequence = 0

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Any:
        return {
            "next_sequence": self.next_sequence,
            "header_overhead_bytes": self.header_overhead_bytes,
            "inner": self.inner.snapshot(),
        }

    def restore(self, state: Any) -> None:
        self.next_sequence = state["next_sequence"]
        self.header_overhead_bytes = state["header_overhead_bytes"]
        self.inner.restore(state["inner"])


class MpppReceiver:
    """Sequence-number resequencer with gap timeout.

    Guaranteed FIFO: packets are released strictly in sequence order.  A
    missing sequence number stalls delivery; if it stays missing for
    ``gap_timeout`` simulated seconds the gap is declared lost and skipped.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        gap_timeout: float = 0.2,
        on_deliver: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.gap_timeout = gap_timeout
        self.on_deliver = on_deliver
        self.next_expected = 0
        self._heap: List[tuple] = []
        self._buffered: set = set()
        self._gap_timer: Optional[Event] = None
        self.delivered = 0
        self.gaps_skipped = 0
        self.duplicates = 0
        self.max_buffered = 0

    @property
    def buffered(self) -> int:
        return len(self._heap)

    def push(self, channel: int, fragment: MpppFragment) -> List[Packet]:
        """Arrival on any channel (the channel index is irrelevant here)."""
        if fragment.sequence < self.next_expected or (
            fragment.sequence in self._buffered
        ):
            self.duplicates += 1
            return []
        heapq.heappush(self._heap, (fragment.sequence, fragment.uid, fragment))
        self._buffered.add(fragment.sequence)
        self.max_buffered = max(self.max_buffered, len(self._heap))
        out = self._release()
        self._manage_gap_timer()
        return out

    def _release(self) -> List[Packet]:
        out: List[Packet] = []
        while self._heap and self._heap[0][0] == self.next_expected:
            _, _, fragment = heapq.heappop(self._heap)
            self._buffered.discard(fragment.sequence)
            self.next_expected += 1
            self.delivered += 1
            out.append(fragment.inner)
            if self.on_deliver is not None:
                self.on_deliver(fragment.inner)
        return out

    def _manage_gap_timer(self) -> None:
        if self.sim is None:
            return
        if self._heap and self._gap_timer is None:
            self._gap_timer = self.sim.schedule(self.gap_timeout, self._on_gap_timeout)
        elif not self._heap and self._gap_timer is not None:
            self._gap_timer.cancel()
            self._gap_timer = None

    def _on_gap_timeout(self) -> None:
        self._gap_timer = None
        if not self._heap:
            return
        # Skip to the oldest buffered sequence number.
        oldest = self._heap[0][0]
        if oldest > self.next_expected:
            self.gaps_skipped += oldest - self.next_expected
            self.next_expected = oldest
        self._release()
        self._manage_gap_timer()

    def fail_channel(self, channel: int) -> List[Packet]:
        """A channel died; don't wait out the gap timer for its fragments.

        Sequence numbers are channel-agnostic, so the only actionable step
        is the gap timeout's: skip to the oldest buffered sequence number
        immediately, draining packets the dead channel was holding up.
        """
        if not self._heap:
            return []
        oldest = self._heap[0][0]
        if oldest > self.next_expected:
            self.gaps_skipped += oldest - self.next_expected
            self.next_expected = oldest
        out = self._release()
        self._manage_gap_timer()
        return out

    def revive_channel(self, channel: int) -> None:
        """Sequence numbering is channel-agnostic; a returning channel resumes."""

    def flush(self) -> List[Packet]:
        """Deliver everything buffered, skipping all gaps (end of run)."""
        out: List[Packet] = []
        while self._heap:
            sequence, _, fragment = heapq.heappop(self._heap)
            self._buffered.discard(fragment.sequence)
            if sequence > self.next_expected:
                self.gaps_skipped += sequence - self.next_expected
            self.next_expected = sequence + 1
            self.delivered += 1
            out.append(fragment.inner)
            if self.on_deliver is not None:
                self.on_deliver(fragment.inner)
        return out

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Any:
        return {
            "next_expected": self.next_expected,
            "pending": [frag for _, _, frag in sorted(self._heap)],
            "delivered": self.delivered,
            "gaps_skipped": self.gaps_skipped,
            "duplicates": self.duplicates,
            "max_buffered": self.max_buffered,
        }

    def restore(self, state: Any) -> None:
        self.next_expected = state["next_expected"]
        self._heap = [
            (frag.sequence, frag.uid, frag) for frag in state["pending"]
        ]
        heapq.heapify(self._heap)
        self._buffered = {frag.sequence for frag in state["pending"]}
        self.delivered = state["delivered"]
        self.gaps_skipped = state["gaps_skipped"]
        self.duplicates = state["duplicates"]
        self.max_buffered = state["max_buffered"]
        self._manage_gap_timer()

    def sender_restarted(self, state: Any) -> int:
        """Sequence headers need no mirror of the sender: nothing to drop
        or adopt when it restarts."""
        return 0
