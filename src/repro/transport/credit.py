"""Credit-based flow control (Kung & Chapman's FCVC, section 6.3).

"For channels not providing flow control, e.g., UDP channels, a simple
credit based flow control scheme proposed by Kung et. al. proved very
effective in eliminating packet loss due to channel congestion.  This
scheme was particularly well suited to our striping scheme, since the
credits could be piggybacked on the periodic marker packets."

The FCVC idea, adapted per striped channel:

* The receiver keeps a per-channel buffer of ``buffer_packets`` slots and a
  cumulative count of packets *consumed* (removed by logical reception).
* It advertises a per-channel **credit limit** = consumed + buffer size:
  the highest cumulative packet count the sender may have pushed into that
  channel without ever overflowing the buffer.
* The sender counts packets sent per channel and sends on a channel only
  while ``sent < limit``.

Credits travel on whatever reverse path the deployment has; the API
supports both standalone :class:`CreditPacket` messages and piggybacking
(``MarkerPacket.credit``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
from typing import Callable, List, Optional

_credit_ids = itertools.count(1)


@dataclass
class CreditPacket:
    """A standalone credit advertisement for one channel."""

    channel: int
    limit: int
    size: int = 16
    uid: int = field(default_factory=lambda: next(_credit_ids))
    codepoint: str = "credit"

    def __repr__(self) -> str:
        return f"CreditPacket(ch={self.channel}, limit={self.limit})"


class CreditSender:
    """Sender-side credit accounting for N striped channels.

    ``initial_credit`` packets per channel may be sent before the first
    advertisement arrives (the receiver's initial buffer).
    """

    def __init__(
        self,
        n_channels: int,
        initial_credit: int,
    ) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if initial_credit < 0:
            raise ValueError("initial credit must be >= 0")
        self.limits: List[int] = [initial_credit] * n_channels
        self.sent: List[int] = [0] * n_channels
        #: called when an advertisement reopens a blocked channel (the
        #: sender pipeline points it at its pump)
        self.on_unblocked: Optional[Callable[[], None]] = None
        #: blocked episodes: a channel found without credit counts once,
        #: however often it is polled, until an advertisement reopens it
        self.stalls = 0
        self._stalled: List[bool] = [False] * n_channels
        #: advertisements rejected because they would have *shrunk* the
        #: window (a reordered CreditPacket overtaken by a newer
        #: piggybacked credit); limits are monotone, so stale ones are
        #: dropped rather than applied
        self.stale_credits = 0

    def can_send(self, channel: int) -> bool:
        if self.sent[channel] < self.limits[channel]:
            return True
        if not self._stalled[channel]:
            self._stalled[channel] = True
            self.stalls += 1
        return False

    def on_send(self, channel: int) -> None:
        if self.sent[channel] >= self.limits[channel]:
            raise RuntimeError(f"channel {channel} has no credit")
        self.sent[channel] += 1

    def on_credit(self, channel: int, limit: int) -> None:
        """A credit advertisement arrived (possibly stale — keep the max).

        FCVC limits are cumulative (consumed + buffer), hence monotone
        non-decreasing at the receiver; an advertisement at or below the
        current limit is a reordered or duplicated stale one and must
        not regress the window.  Stale arrivals are counted and ignored.
        """
        if limit <= self.limits[channel]:
            self.stale_credits += 1
            return
        was_blocked = self.sent[channel] >= self.limits[channel]
        self.limits[channel] = limit
        self._stalled[channel] = False
        if was_blocked and self.on_unblocked is not None:
            self.on_unblocked()


class CreditReceiver:
    """Receiver-side credit generation.

    Call :meth:`on_consumed` whenever logical reception removes a packet
    from a channel buffer; an advertisement is issued per consumed packet
    through the ``send_credit(channel, limit)`` callback.  :meth:`piggyback_limit`
    returns the current limit for stamping onto reverse-direction markers.
    """

    def __init__(
        self,
        n_channels: int,
        buffer_packets: int,
        send_credit: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if buffer_packets < 1:
            raise ValueError("buffer must hold at least one packet")
        self.buffer_packets = buffer_packets
        self.send_credit = send_credit
        self.consumed: List[int] = [0] * n_channels
        self.advertisements = 0

    def on_consumed(self, channel: int) -> None:
        self.consumed[channel] += 1
        self.advertisements += 1
        if self.send_credit is not None:
            self.send_credit(channel, self.piggyback_limit(channel))

    def piggyback_limit(self, channel: int) -> int:
        """The limit to advertise for ``channel`` right now."""
        return self.consumed[channel] + self.buffer_packets
