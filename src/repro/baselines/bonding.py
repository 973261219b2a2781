"""BONDING-style inverse multiplexing (fixed frames + skew compensation).

Section 2.1: "The BONDING scheme uses a fixed size frame structure and skew
compensation for reordering, together with frame sequence numbers to
recover from errors.  The BONDING scheme requires special hardware at the
sender and receiver" and works "only over synchronous serial channels".

We model the essence: the input byte stream is carved into fixed-size
frames dealt round-robin over the channels; each frame carries an in-band
sequence number (the hardware framing).  The receiver compensates skew with
a per-channel alignment buffer of bounded depth ``max_skew_frames``.  Skew
within the bound is absorbed exactly; skew beyond it breaks alignment and
the affected frames are lost (counted) — the failure mode that motivates
the paper's unbounded-skew-tolerant design.

Because frames are fixed-size, load sharing is perfect regardless of
packet-size mix — but only by virtue of reformatting everything, which is
exactly what general channels disallow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.cfq import Capabilities
from repro.core.packet import Packet, is_marker
from repro.core.transform import LoadSharer


@dataclass
class BondingFrame:
    """A fixed-size frame with an in-band sequence number."""

    sequence: int
    channel: int
    payload_bytes: int
    #: packet boundaries (packet-uid, bytes-of-that-packet) inside this frame
    content: List[tuple]

    @property
    def size(self) -> int:
        return self.payload_bytes

    def __repr__(self) -> str:
        return f"BondingFrame(#{self.sequence} ch={self.channel} {self.size}B)"


class BondingMux:
    """Sender: serialize packets into fixed frames, deal round robin."""

    capabilities = Capabilities(
        fifo_delivery="guaranteed",
        load_sharing="good",
        environment="Only over synchronous serial channels",
        modifies_packets=True,
    )

    def __init__(self, n_channels: int, frame_bytes: int = 512) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if frame_bytes < 8:
            raise ValueError("frame must be at least 8 bytes")
        self.n_channels = n_channels
        self.frame_bytes = frame_bytes
        self.next_sequence = 0
        self._residual: List[tuple] = []  # partial frame content
        self._residual_bytes = 0
        self.frames_emitted = 0
        self.padding_bytes = 0

    def submit(self, packet: Packet) -> List[BondingFrame]:
        """Carve a packet into the frame stream; returns completed frames."""
        frames: List[BondingFrame] = []
        remaining = packet.size
        while remaining > 0:
            space = self.frame_bytes - self._residual_bytes
            take = min(space, remaining)
            self._residual.append((packet.uid, take))
            self._residual_bytes += take
            remaining -= take
            if self._residual_bytes == self.frame_bytes:
                frames.append(self._emit())
        return frames

    def flush(self) -> Optional[BondingFrame]:
        """Pad and emit the partial frame (end of burst)."""
        if self._residual_bytes == 0:
            return None
        self.padding_bytes += self.frame_bytes - self._residual_bytes
        return self._emit()

    def _emit(self) -> BondingFrame:
        frame = BondingFrame(
            sequence=self.next_sequence,
            channel=self.next_sequence % self.n_channels,
            payload_bytes=self.frame_bytes,
            content=list(self._residual),
        )
        self.next_sequence += 1
        self.frames_emitted += 1
        self._residual = []
        self._residual_bytes = 0
        return frame


class BondingDemux:
    """Receiver: align frames by sequence within a bounded skew window.

    Frames are released in sequence order.  If the head-of-line gap cannot
    be filled because more than ``max_skew_frames`` frames are already
    waiting (i.e. the skew exceeded the hardware's compensation range), the
    gap is abandoned and alignment re-established — data loss, as real
    inverse muxes suffer when the skew bound is violated.
    """

    def __init__(
        self,
        n_channels: int,
        max_skew_frames: int = 8,
        on_bytes: Optional[Callable[[int, List[tuple]], None]] = None,
    ) -> None:
        self.n_channels = n_channels
        self.max_skew_frames = max_skew_frames
        self.on_bytes = on_bytes
        self.next_expected = 0
        self._pending: Dict[int, BondingFrame] = {}
        self.frames_released = 0
        self.frames_lost = 0
        self.sync_losses = 0
        #: reassembled packet byte counts: uid -> bytes seen
        self._assembly: Dict[int, int] = {}
        self.packets_reassembled: List[int] = []

    def push(self, frame: BondingFrame) -> List[BondingFrame]:
        """Frame arrival; returns frames released in order."""
        if frame.sequence < self.next_expected:
            self.frames_lost += 1
            return []
        self._pending[frame.sequence] = frame
        released: List[BondingFrame] = []
        released.extend(self._release())
        if len(self._pending) > self.max_skew_frames:
            # Skew compensation range exceeded: drop the gap, resync.
            self.sync_losses += 1
            target = min(self._pending)
            self.frames_lost += target - self.next_expected
            self.next_expected = target
            released.extend(self._release())
        return released

    def _release(self) -> List[BondingFrame]:
        out: List[BondingFrame] = []
        while self.next_expected in self._pending:
            frame = self._pending.pop(self.next_expected)
            self.next_expected += 1
            self.frames_released += 1
            self._track_packets(frame)
            out.append(frame)
            if self.on_bytes is not None:
                self.on_bytes(frame.payload_bytes, frame.content)
        return out

    def _track_packets(self, frame: BondingFrame) -> None:
        for uid, nbytes in frame.content:
            self._assembly[uid] = self._assembly.get(uid, 0) + nbytes
        # A packet is complete when all its bytes arrived; the mux does not
        # carry lengths in-band (hardware knows the HDLC-style boundaries),
        # so completion is detected by the caller comparing against packet
        # sizes; we expose raw assembly state instead.

    def assembled_bytes(self, uid: int) -> int:
        return self._assembly.get(uid, 0)


class BondingDiscipline(LoadSharer):
    """BONDING as a pluggable endpoint discipline.

    :meth:`wrap_packet` carves each submitted packet into fixed-size frames
    (the hardware reformatting general channels disallow); the channel of a
    frame is fixed by its sequence number, so ``choose`` just reads it.
    The receiver half (``receiver_mode = "bonding"``, a
    :class:`BondingResequencer`) realigns frames by sequence.  Plugged into
    the unified endpoint pipeline this runs BONDING-style inverse muxing
    over any transport's channel ports — delivery is *frames*, not packets,
    exactly as the real hardware presents a byte stream.
    """

    capabilities = BondingMux.capabilities
    simulatable = False
    receiver_mode = "bonding"

    def __init__(self, n: int, frame_bytes: int = 512) -> None:
        self.mux = BondingMux(n, frame_bytes)

    @property
    def n_channels(self) -> int:
        return self.mux.n_channels

    def wrap_packet(self, packet: Packet) -> List[BondingFrame]:
        """Carve into the frame stream; may complete zero or more frames."""
        return self.mux.submit(packet)

    def flush(self) -> Optional[BondingFrame]:
        """Pad and emit the partial trailing frame (end of burst)."""
        return self.mux.flush()

    def choose(self, packet: Any, queue_depths=None) -> int:
        if isinstance(packet, BondingFrame):
            return packet.channel
        # No frame in hand (e.g. a kernel peek): the next frame's slot.
        return self.mux.next_sequence % self.mux.n_channels

    def notify_sent(self, channel: int, packet: Any) -> None:
        pass

    def reset(self) -> None:
        mux = self.mux
        self.mux = BondingMux(mux.n_channels, mux.frame_bytes)

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Any:
        mux = self.mux
        return {
            "next_sequence": mux.next_sequence,
            "residual": [list(entry) for entry in mux._residual],
            "residual_bytes": mux._residual_bytes,
            "frames_emitted": mux.frames_emitted,
            "padding_bytes": mux.padding_bytes,
        }

    def restore(self, state: Any) -> None:
        mux = self.mux
        mux.next_sequence = state["next_sequence"]
        mux._residual = [tuple(entry) for entry in state["residual"]]
        mux._residual_bytes = state["residual_bytes"]
        mux.frames_emitted = state["frames_emitted"]
        mux.padding_bytes = state["padding_bytes"]


class BondingResequencer:
    """Receiver half of :class:`BondingDiscipline` for the endpoint pipeline.

    Adapts :class:`BondingDemux` to the ``push(channel, packet)`` /
    ``drain()`` logical-reception surface (the channel index is implicit in
    the frame's sequence number and ignored).  ``on_deliver`` receives
    released :class:`BondingFrame` objects in sequence order.
    """

    def __init__(
        self,
        n_channels: int,
        max_skew_frames: int = 8,
        on_deliver: Optional[Callable[[BondingFrame], None]] = None,
    ) -> None:
        self.demux = BondingDemux(n_channels, max_skew_frames)
        self.on_deliver = on_deliver
        self.delivered = 0

    @property
    def n_channels(self) -> int:
        return self.demux.n_channels

    @property
    def buffered(self) -> int:
        return len(self.demux._pending)

    def push(self, channel: int, frame: Any) -> List[BondingFrame]:
        if is_marker(frame):
            return []
        released = self.demux.push(frame)
        self.delivered += len(released)
        if self.on_deliver is not None:
            for item in released:
                self.on_deliver(item)
        return released

    def drain(self) -> List[BondingFrame]:
        return []

    def fail_channel(self, channel: int) -> List[BondingFrame]:
        """Alignment handles gaps via its skew window; nothing extra."""
        return []

    def revive_channel(self, channel: int) -> None:
        """Alignment is sequence-driven; a returning channel just resumes."""

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Any:
        demux = self.demux
        return {
            "next_expected": demux.next_expected,
            "pending": [demux._pending[seq] for seq in sorted(demux._pending)],
            "frames_released": demux.frames_released,
            "frames_lost": demux.frames_lost,
            "sync_losses": demux.sync_losses,
            "assembly": dict(demux._assembly),
            "packets_reassembled": list(demux.packets_reassembled),
            "delivered": self.delivered,
        }

    def restore(self, state: Any) -> None:
        demux = self.demux
        demux.next_expected = state["next_expected"]
        demux._pending = {frame.sequence: frame for frame in state["pending"]}
        demux.frames_released = state["frames_released"]
        demux.frames_lost = state["frames_lost"]
        demux.sync_losses = state["sync_losses"]
        demux._assembly = dict(state["assembly"])
        demux.packets_reassembled = list(state["packets_reassembled"])
        self.delivered = state["delivered"]

    def sender_restarted(self, state: Any) -> int:
        """Frame alignment needs no mirror of the sender: nothing to drop
        or adopt when it restarts."""
        return 0
