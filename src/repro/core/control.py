"""Control-plane vocabulary of the session layer.

Split out of :mod:`repro.core.session` so the configuration and in-band
control packet types can be shared (transport adapters, the fabric layer,
wire codecs) without dragging in the session state machines.

* :class:`StripeConfig` — the ``(channels, quanta)`` agreement both ends
  install at an epoch boundary.  Carries a cached position index so
  per-packet membership tests and channel-to-position mapping are O(1)
  at fabric scale (a 10k-flow bundle cannot afford a linear scan per
  arrival or per reset event).
* The reset / probe packet family — epoch separators and the liveness
  probes of the channel-revival path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.core.srr import SRR

_control_ids = itertools.count(1)

CODEPOINT_RESET = "reset"
CODEPOINT_RESET_ACK = "reset_ack"
CODEPOINT_RESET_REQUEST = "reset_request"
CODEPOINT_PROBE = "probe"
CODEPOINT_PROBE_ACK = "probe_ack"
CODEPOINT_RESUME = "resume"
CODEPOINT_RESUME_REPORT = "resume_report"


@dataclass(frozen=True)
class StripeConfig:
    """The striping parameters both ends must agree on."""

    quanta: Tuple[float, ...]
    count_packets: bool = False
    #: indices into the *original* port list that are active this epoch
    active_channels: Optional[Tuple[int, ...]] = None

    def algorithm(self) -> SRR:
        return SRR(list(self.quanta), count_packets=self.count_packets)

    @property
    def n_channels(self) -> int:
        return len(self.quanta)

    @cached_property
    def _positions(self) -> Dict[int, int]:
        # cached_property writes straight into __dict__, which a frozen
        # dataclass permits; the config is immutable so the cache is safe.
        if self.active_channels is None:
            return {}
        return {
            channel: position
            for position, channel in enumerate(self.active_channels)
        }

    def position_of(self, port_index: int) -> Optional[int]:
        """Position of an original port index among the active channels,
        or None when the channel is not active this epoch.  O(1)."""
        return self._positions.get(port_index)

    def is_active(self, port_index: int) -> bool:
        return port_index in self._positions


@dataclass
class ResetPacket:
    """In-band epoch separator, sent on every active channel."""

    epoch: int
    config: StripeConfig
    size: int = 40
    uid: int = field(default_factory=lambda: next(_control_ids))
    codepoint: str = CODEPOINT_RESET

    def __repr__(self) -> str:
        return f"Reset(epoch={self.epoch}, {self.config.n_channels}ch)"


@dataclass
class ResetAckPacket:
    """Reverse-path acknowledgement: all channels switched to ``epoch``."""

    epoch: int
    size: int = 16
    uid: int = field(default_factory=lambda: next(_control_ids))
    codepoint: str = CODEPOINT_RESET_ACK


@dataclass
class ResetRequestPacket:
    """Reverse-path plea from the receiver (reboot, corruption, dead link).

    ``exclude_channel`` (an *original* port index) asks the sender to
    reconfigure without that channel — the link-failure path.
    """

    reason: str
    exclude_channel: Optional[int] = None
    size: int = 16
    uid: int = field(default_factory=lambda: next(_control_ids))
    codepoint: str = CODEPOINT_RESET_REQUEST


@dataclass
class ProbePacket:
    """Forward-path liveness probe on an excluded (possibly dead) channel.

    ``channel`` is the *original* port index being probed; ``seq`` lets
    the prober tell fresh acknowledgements from stale ones.
    """

    channel: int
    seq: int
    size: int = 16
    uid: int = field(default_factory=lambda: next(_control_ids))
    codepoint: str = CODEPOINT_PROBE


@dataclass
class ProbeAckPacket:
    """Reverse-path acknowledgement: the probed channel delivered again."""

    channel: int
    seq: int
    size: int = 16
    uid: int = field(default_factory=lambda: next(_control_ids))
    codepoint: str = CODEPOINT_PROBE_ACK


@dataclass
class ResumePacket:
    """Forward-path announcement of a (re)started sender incarnation.

    Sent on every channel after a crash restart, retried until a
    :class:`ResumeReportPacket` echoes ``epoch``.  Like
    :class:`ResetPacket` carries its config, the resume carries the
    sender's current kernel snapshot (``state``) so the receiver can
    warm-adopt the mirror instead of resetting; ``base_rseq`` is the
    lowest bundle sequence the sender can still replay, which a
    checkpoint-less (cold) receiver adopts as its cursor.  Data packets
    stay headerless — only this control packet carries the epoch.
    """

    epoch: int
    peer_epoch: int = 0
    base_rseq: int = -1
    state: Any = None
    size: int = 40
    uid: int = field(default_factory=lambda: next(_control_ids))
    codepoint: str = CODEPOINT_RESUME

    def __repr__(self) -> str:
        return (
            f"Resume(epoch={self.epoch}, peer={self.peer_epoch}, "
            f"base={self.base_rseq})"
        )


@dataclass
class ResumeReportPacket:
    """Reverse-path reconciliation report answering a :class:`ResumePacket`
    (or announcing a restarted receiver).

    Carries the receiver's rseq high-water (``cum_ack``) and SACK blocks
    so the sender can rewrite its scoreboard — a restarted receiver may
    have lost out-of-order packets the sender believed SACKed — and
    replay exactly the missing suffix.  ``cold`` marks a checkpoint-less
    restart: no history, replay the whole window and send the base.
    """

    epoch: int
    peer_epoch: int = 0
    cum_ack: int = 0
    blocks: Tuple[Tuple[int, int], ...] = ()
    cold: bool = False
    size: int = 24
    uid: int = field(default_factory=lambda: next(_control_ids))
    codepoint: str = CODEPOINT_RESUME_REPORT

    def __post_init__(self) -> None:
        if self.size == 24:
            self.size = min(24 + 8 * len(self.blocks), 64)

    def __repr__(self) -> str:
        return (
            f"ResumeReport(epoch={self.epoch}, peer={self.peer_epoch}, "
            f"cum={self.cum_ack}, cold={self.cold})"
        )


__all__ = [
    "CODEPOINT_PROBE",
    "CODEPOINT_PROBE_ACK",
    "CODEPOINT_RESET",
    "CODEPOINT_RESET_ACK",
    "CODEPOINT_RESET_REQUEST",
    "CODEPOINT_RESUME",
    "CODEPOINT_RESUME_REPORT",
    "ProbeAckPacket",
    "ProbePacket",
    "ResetAckPacket",
    "ResetPacket",
    "ResetRequestPacket",
    "ResumePacket",
    "ResumeReportPacket",
    "StripeConfig",
]
