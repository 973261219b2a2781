"""Synchronization models: how striping endpoints agree on packet order.

Through PR 7 the endpoint pipelines hard-coded one answer — the paper's
answer — to the question "how does the receiver reconstruct sender
order?": simulate the sender, resynchronize with a marker stream, and
piggyback credits/SACKs on the markers.  Sprinklers
(:mod:`repro.core.sprinklers`) answers the question differently — pin
each flow to a stripe so physical arrival order *is* delivery order —
and needs none of that machinery.  This module makes the answer an
explicit, pluggable object.

A synchronization model owns everything order-related that used to be
interleaved through :class:`~repro.transport.endpoint.StripeSenderPipeline`
and :class:`~repro.transport.endpoint.StripeReceiverPipeline`:

* sender half — marker-policy custody and keepalive marker refresh
  (:meth:`~MarkerSyncModel.start_keepalive`);
* receiver half — the reception engine
  (:func:`~repro.core.resequencer.make_resequencer` binding, which for
  marker mode carries the lag-flush rule inside
  :class:`~repro.core.markers.SRRReceiver`), marker arrival handling with
  credit/SACK piggyback extraction (:meth:`~MarkerSyncModel.on_marker`),
  the wire-frame decode path (:meth:`~MarkerSyncModel.decode_wire`), and
  ``receiver_state``.  The reception engine checkpoints itself.

Three families exist (see
:func:`~repro.transport.discipline.sync_model_for`):

* :class:`MarkerSyncModel` — the paper: simulated-sender reception
  (modes ``marker``/``plain``/``none``) with the marker codec wired.
* :class:`HashSyncModel` — marker-free (mode ``direct``): no resequencer,
  no marker decode, no credit piggyback; wire frames that look like
  markers are counted as strays and dropped *undecoded*.
* :class:`HeaderSyncModel` — disciplines carrying explicit sequence
  state in every packet (MPPP, BONDING); the discipline's own receiver
  half does the work, the pipeline plumbing matches the marker family.

The split is what the regression suite leans on: a hash-synchronized
receiver provably makes **zero marker-codec calls** and allocates **zero
resequencer buffers** (``tests/transport/test_sync_model.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol

from repro.core.markers import (
    MarkerDecodeError,
    decode_marker,
    piggybacked_credit,
    piggybacked_sack,
)
from repro.core.resequencer import make_resequencer

__all__ = [
    "HashSyncModel",
    "HeaderSyncModel",
    "MarkerSyncModel",
    "SynchronizationModel",
    "make_sync_model",
]


class SynchronizationModel(Protocol):
    """What the endpoint pipelines need from a synchronization model.

    The surface is deliberately small so a marker-free model can implement
    it with constants and no-ops; everything marker-specific (policy
    custody, keepalive, piggyback sinks) lives on
    :class:`MarkerSyncModel` alone and the pipelines only touch it behind
    ``kind == "marker"`` / attribute checks.
    """

    #: family name: ``"marker"`` / ``"hash"`` / ``"header"``
    kind: str
    #: True when the receive path must be able to decode marker frames
    marker_codec: bool
    #: the reception engine (``push``/``drain``), or a direct-delivery sink
    receiver: Any

    def decode_wire(self, data: bytes) -> Optional[Any]:
        """Decode a control wire frame, or None when it must be dropped."""
        ...

    def receiver_state(self) -> Dict[str, Any]:
        """Introspectable receiver-side state (memory, sync counters)."""
        ...


class MarkerSyncModel:
    """The paper's model: simulated-sender reception + marker resync.

    One instance serves one pipeline end.  A receiver pipeline constructs
    it with an ``on_deliver`` callback and gets the bound reception engine
    (:attr:`receiver`), the piggyback extraction path and the marker wire
    codec; a sender pipeline constructs it bare and uses the marker-policy
    custody plus :meth:`start_keepalive`.
    """

    kind = "marker"
    marker_codec = True

    def __init__(
        self,
        algorithm: Any = None,
        mode: str = "marker",
        *,
        n_channels: Optional[int] = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        clock: Optional[Callable[[], float]] = None,
        sim: Any = None,
        marker_policy: Any = None,
    ) -> None:
        self.mode = mode
        self.marker_policy = marker_policy
        self.receiver: Any = None
        if on_deliver is not None or n_channels is not None:
            self.receiver = make_resequencer(
                algorithm,
                mode,
                n_channels=n_channels,
                on_deliver=on_deliver,
                clock=clock,
                sim=sim,
            )
        #: invoked as fn(channel, credit) when a piggybacked credit rides
        #: an arriving marker (the reverse direction's flow-control state).
        self.credit_sink: Optional[Callable[[int, int], None]] = None
        #: invoked as fn(SackInfo) when a piggybacked SACK rides an
        #: arriving marker (acks for the reverse direction's sender).
        self.sack_sink: Optional[Callable[[Any], None]] = None
        #: undecodable marker frames dropped by :meth:`decode_wire`
        self.marker_decode_errors = 0
        # -- sender-half keepalive state (armed by start_keepalive) ----- #
        self._keepalive_striper: Any = None
        self._keepalive_sim: Any = None
        self._keepalive_s: Optional[float] = None
        self._markers_at_last_tick = 0
        self._stopped = False

    # ------------------------------------------------------------------ #
    # sender half

    def start_keepalive(
        self, striper: Any, sim: Any, interval_s: float
    ) -> None:
        """Arm keepalive markers: force a batch whenever ``interval_s``
        passes without one (stalled/idle senders must keep the receiver —
        and piggybacked credits — refreshed)."""
        if self.marker_policy is None:
            raise ValueError("keepalive markers need a marker policy")
        if sim is None:
            raise ValueError("keepalive markers need an event scheduler")
        self._keepalive_striper = striper
        self._keepalive_sim = sim
        self._keepalive_s = interval_s
        self._markers_at_last_tick = 0
        sim.schedule(interval_s, self._keepalive_tick)

    def stop(self) -> None:
        """The owning pipeline closed; cease generating sim events."""
        self._stopped = True

    def _keepalive_tick(self) -> None:
        if self._stopped:
            # A finished endpoint must stop generating sim events (and must
            # not force markers into closed ports).
            return
        striper = self._keepalive_striper
        if striper.markers_sent == self._markers_at_last_tick:
            striper.force_marker_batch()
        self._markers_at_last_tick = striper.markers_sent
        self._keepalive_sim.schedule(self._keepalive_s, self._keepalive_tick)

    # ------------------------------------------------------------------ #
    # receiver half

    def on_marker(self, channel: int, packet: Any) -> List[Any]:
        """An arriving marker: extract piggybacked state, then resync."""
        piggyback = piggybacked_credit(packet)
        if piggyback is not None and self.credit_sink is not None:
            self.credit_sink(*piggyback)
        sack = piggybacked_sack(packet)
        if sack is not None and self.sack_sink is not None:
            self.sack_sink(sack)
        return self.receiver.push(channel, packet)

    def decode_wire(self, data: bytes) -> Optional[Any]:
        """Decode an encoded marker frame; malformed frames (truncated,
        oversized, corrupt) are counted in :attr:`marker_decode_errors`
        and dropped instead of surfacing struct errors into the arrival
        path."""
        try:
            return decode_marker(data)
        except MarkerDecodeError:
            self.marker_decode_errors += 1
            return None

    def receiver_state(self) -> Dict[str, Any]:
        receiver = self.receiver
        state: Dict[str, Any] = {
            "sync_model": self.kind,
            "mode": self.mode,
            "buffered": getattr(receiver, "buffered", 0),
            "max_buffered": getattr(receiver, "max_buffered", 0),
            "delivered": getattr(receiver, "delivered", 0),
            "marker_decode_errors": self.marker_decode_errors,
        }
        stats = getattr(receiver, "stats", None)
        if stats is not None:
            state["markers_received"] = getattr(stats, "markers_received", 0)
            # SRRReceiver keeps its high-water mark on the stats block.
            state["max_buffered"] = max(
                state["max_buffered"], getattr(stats, "max_buffered", 0)
            )
        return state


class HeaderSyncModel(MarkerSyncModel):
    """Per-packet-header synchronization (MPPP, BONDING).

    The discipline's own receiver half (sequence-number resequencing,
    frame alignment) does the ordering; pipeline plumbing is the marker
    family's, minus markers — none ever arrive, so the piggyback and
    codec paths are inert.
    """

    kind = "header"


class HashSyncModel:
    """Marker-free synchronization (address hashing, Sprinklers).

    Per-flow channel pinning means physical arrival order is delivery
    order: no resequencer is allocated
    (:class:`~repro.core.resequencer.DirectReception` delivers at arrival
    with structurally zero buffering), no marker is ever decoded (stray
    control frames are counted and dropped *before* the codec), and there
    is no synchronization state to snapshot.
    """

    kind = "hash"
    marker_codec = False

    def __init__(
        self,
        n_channels: int,
        *,
        on_deliver: Optional[Callable[[Any], None]] = None,
        marker_policy: Any = None,
    ) -> None:
        from repro.core.resequencer import DirectReception

        # A marker policy handed to a marker-free model is a configuration
        # mismatch the caller should hear about: the markers would burn
        # wire bytes no receiver interprets.
        if marker_policy is not None:
            raise ValueError(
                "marker-free (hash-synchronized) disciplines take no "
                "marker policy"
            )
        self.marker_policy = None
        self.receiver = DirectReception(n_channels, on_deliver=on_deliver)
        #: piggyback sinks exist for surface parity but never fire —
        #: credits and SACKs ride markers, which this model never decodes.
        self.credit_sink: Optional[Callable[[int, int], None]] = None
        self.sack_sink: Optional[Callable[[Any], None]] = None
        self.marker_decode_errors = 0
        #: wire frames that reached the (nonexistent) marker path
        self.stray_wire_frames = 0

    def start_keepalive(self, striper: Any, sim: Any, interval_s: float):
        raise ValueError(
            "keepalive markers are meaningless without a marker stream "
            "(hash-synchronized discipline)"
        )

    def stop(self) -> None:
        """Nothing scheduled, nothing to stop."""

    def on_marker(self, channel: int, packet: Any) -> List[Any]:
        """A stray already-decoded marker object (in-memory transports)."""
        return self.receiver.push(channel, packet)  # counted as stray

    def decode_wire(self, data: bytes) -> Optional[Any]:
        """No marker path exists: count the stray frame, never decode it."""
        self.stray_wire_frames += 1
        return None

    def receiver_state(self) -> Dict[str, Any]:
        return {
            "sync_model": self.kind,
            "mode": "direct",
            "buffered": 0,
            "max_buffered": 0,
            "delivered": self.receiver.delivered,
            "stray_markers": self.receiver.stray_markers,
            "stray_wire_frames": self.stray_wire_frames,
        }


_MODEL_BY_MODE = {
    "marker": MarkerSyncModel,
    "plain": MarkerSyncModel,
    "none": MarkerSyncModel,
    "mppp": HeaderSyncModel,
    "bonding": HeaderSyncModel,
}


def make_sync_model(
    mode: str,
    algorithm: Any = None,
    *,
    n_channels: int,
    on_deliver: Optional[Callable[[Any], None]] = None,
    clock: Optional[Callable[[], float]] = None,
    sim: Any = None,
    marker_policy: Any = None,
) -> Any:
    """Build the synchronization model matching a receiver ``mode``.

    The mode comes from
    :func:`~repro.transport.discipline.receiver_mode_for`; ``"direct"``
    yields a :class:`HashSyncModel`, everything else one of the
    resequencer-backed families.
    """
    if mode == "direct":
        return HashSyncModel(
            n_channels, on_deliver=on_deliver, marker_policy=marker_policy
        )
    model_cls = _MODEL_BY_MODE.get(mode)
    if model_cls is None:
        raise ValueError(f"unknown receiver mode {mode!r}")
    return model_cls(
        algorithm,
        mode,
        n_channels=n_channels,
        on_deliver=on_deliver,
        clock=clock,
        sim=sim,
        marker_policy=marker_policy,
    )
