"""Sprinklers: randomized variable-size striping without markers.

The marker-free counterpoint to the paper's SRR+markers design
(arXiv:1407.0006): instead of striping the aggregate and re-deriving
order at the receiver, hash each *flow* to its own **stripe** — an
interleaved subset of channels sized to the flow's measured rate — and
round-robin the flow's packets inside that stripe only.

Why this needs no receiver machinery at all:

* A mouse flow (rate below one channel's fair share) gets stripe size 1:
  per-flow FIFO is free, exactly like address hashing.
* An elephant flow gets a stripe just wide enough that its per-channel
  load stays below each member channel's capacity share.  On stable
  equal channels with equal-size packets, round-robin across identical
  FIFO channels preserves the flow's submission order end to end — the
  in-order **proof obligations** checked as property tests in
  ``tests/core/test_sprinklers.py`` and
  ``tests/properties/test_endpoint_equivalence.py``.
* Stripe *placement* is randomized by flow hash (aligned to the stripe
  size), so elephants land on disjoint or evenly overlapping channel
  sets and aggregate load spreads without coordination.

The price, relative to SRR: load sharing is only as good as the flow
population (one flow's stripe can be the whole bundle, but two mice
hashed to one channel still collide), and a stripe *resize* — triggered
when a flow's measured rate crosses the next power of two, with
hysteresis — momentarily relaxes the in-order guarantee, exactly like
the original Sprinklers design.  Resizes happen only at a flow's round
boundary and are counted in :attr:`SprinklersDiscipline.resizes`.

The discipline is per-flow by construction, so the PR-6 fabric's
``FlowTable`` flows map directly onto stripes (the fabric stamps
``packet.flow``), and ``marker_free = True`` gives it the ``"direct"``
receiver mode: no resequencer, no marker codec, structurally zero
receiver buffering (:class:`~repro.core.resequencer.DirectReception`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.baselines.address_hash import stable_hash
from repro.core.cfq import Capabilities
from repro.core.transform import LoadSharer

__all__ = ["FlowRateEstimator", "SprinklersDiscipline", "stripe_size_for"]

_LN2 = math.log(2.0)

#: rate-estimator half-life, in global traffic bytes
WINDOW_BYTES = 512 * 1024
#: re-evaluate a flow's stripe width every this many of its packets (at
#: its next round boundary)
RESIZE_INTERVAL = 64
#: shrink a stripe only when the rate-derived width is smaller by at
#: least this factor; grows apply at once
HYSTERESIS = 2.0


def stripe_size_for(share: float, n_channels: int) -> int:
    """Stripe width for a flow carrying ``share`` of the traffic.

    The smallest power of two ``k`` with ``share * n_channels <= k`` —
    i.e. just wide enough that the flow loads each member channel no more
    than a fair channel share — capped at the bundle width (a saturating
    flow stripes the whole bundle even when ``n_channels`` is not a power
    of two).
    """
    if n_channels < 1:
        raise ValueError("need at least one channel")
    need = share * n_channels
    if need <= 1.0:
        return 1
    k = 1 << max(0, math.ceil(math.log2(need)))
    return min(k, n_channels)


class FlowRateEstimator:
    """Per-flow traffic-share estimation with lazily decayed byte counters.

    Deterministic and clockless: "time" is cumulative bytes through the
    striper, so the estimate depends only on the traffic sequence
    (property tests stay reproducible).  Each flow keeps an
    exponentially decayed byte counter with half-life ``WINDOW_BYTES`` of
    global traffic, decayed lazily at its own updates — updating a flow is
    O(1) regardless of how many flows exist, which is what makes the
    10k-flow scalability runs affordable.

    For a flow receiving a steady fraction ``p`` of the traffic, the
    decayed counter converges to ``p * window / ln 2`` — :meth:`share`
    inverts that, clamped to [0, 1].
    """

    def __init__(self) -> None:
        self.window = float(WINDOW_BYTES)
        #: cumulative bytes observed across all flows (the decay clock)
        self.total_bytes = 0.0

    def observe(self, state: List[float], size: int) -> None:
        """Fold one ``size``-byte packet of a flow into its ``state``.

        ``state`` is the flow's two-slot record ``[decayed_bytes,
        total_at_last_update]``, created by :meth:`new_state`.
        """
        self.total_bytes += size
        elapsed = self.total_bytes - state[1]
        if elapsed > 0:
            state[0] *= 0.5 ** (elapsed / self.window)
        state[0] += size
        state[1] = self.total_bytes

    def new_state(self, share: float = 0.0) -> List[float]:
        """Fresh flow state, optionally seeded with a prior ``share``.

        Seeding sets the decayed counter to the steady-state value a flow
        at that share would hold, so the estimate *starts* at the prior
        and converges toward the measured rate instead of ramping up from
        zero (which would immediately contradict a provisioned stripe).
        """
        return [share * self.window / _LN2, self.total_bytes]

    def share(self, state: List[float]) -> float:
        """The flow's estimated fraction of current traffic, in [0, 1]."""
        elapsed = self.total_bytes - state[1]
        decayed = state[0]
        if elapsed > 0:
            decayed *= 0.5 ** (elapsed / self.window)
        share = decayed * _LN2 / self.window
        return share if share < 1.0 else 1.0

    def reset(self) -> None:
        self.total_bytes = 0.0


class _FlowStripe:
    """One flow's striping state: member channels + intra-stripe round robin."""

    __slots__ = (
        "size",
        "channels",
        "cursor",
        "current",
        "rate_state",
        "packets",
    )

    def __init__(self, channels: List[int], rate_state: List[float]) -> None:
        self.size = len(channels)
        self.channels = channels
        self.cursor = 0
        #: the committed next channel — what :meth:`choose` returns;
        #: advanced only by ``notify_sent`` (two-phase purity).
        self.current = channels[0]
        self.rate_state = rate_state
        self.packets = 0


class SprinklersDiscipline(LoadSharer):
    """Hash each flow to a rate-sized stripe; round-robin within it.

    Within a stripe, packets go round-robin over the members.  A flow's
    stripe width is re-evaluated every ``RESIZE_INTERVAL`` of its packets;
    a shrink needs the rate-derived width smaller by ``HYSTERESIS``, while
    grows apply immediately (overload hurts more than a briefly-too-wide
    stripe).

    Args:
        n: channel count.
        initial_share: assumed traffic share of a flow the estimator has
            not seen yet (default 0: new flows start as width-1 mice and
            grow as their rate is measured).  A flow whose stripe *grows*
            mid-stream pays a reorder transient — packets queued on the
            old, narrower stripe are overtaken by packets on the fresh
            members — so callers striping a known-heavy aggregate (the
            flowless closed-loop harness, a single bulk transfer) set
            ``initial_share=1.0`` to provision the full bundle up front
            and never resize.

    ``choose`` is pure (the committed channel is advanced only by
    ``notify_sent``), so the striper's two-phase backpressure protocol —
    wait on the chosen channel, never reorder around it — holds exactly
    as for the causal policies.
    """

    capabilities = Capabilities(
        fifo_delivery="per_flow_fifo",
        load_sharing="good",
        environment="Flow-aware endpoints (rate-sized stripes)",
    )
    simulatable = False
    #: no marker stream, no resequencer: receiver mode ``"direct"``
    marker_free = True

    def __init__(
        self,
        n: int,
        *,
        initial_share: float = 0.0,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one channel")
        if not 0.0 <= initial_share <= 1.0:
            raise ValueError("initial_share must be in [0, 1]")
        self._n = n
        self.initial_share = initial_share
        self.estimator = FlowRateEstimator()
        self._flows: Dict[Any, _FlowStripe] = {}
        #: stripe resizes performed (each one is a transient reorder risk)
        self.resizes = 0

    @property
    def n_channels(self) -> int:
        return self._n

    @property
    def flow_count(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------ #

    def _stripe_channels(self, flow: Any, k: int) -> List[int]:
        """Hash-placed member channels for a width-``k`` stripe.

        When ``k`` divides the bundle, placement is aligned to multiples
        of ``k`` — stripes of one width tile the bundle and overlap either
        fully or not at all, the Sprinklers trick that keeps elephant
        collisions rare.  Otherwise (k = n, or an irregular bundle) the
        stripe is a contiguous wrap-around run from the hashed offset.
        """
        n = self._n
        if k >= n:
            return list(range(n))
        if n % k == 0:
            offset = stable_hash(flow, n // k) * k
        else:
            offset = stable_hash(flow, n)
        return [(offset + i) % n for i in range(k)]

    def _stripe(self, flow: Any) -> _FlowStripe:
        stripe = self._flows.get(flow)
        if stripe is None:
            state = self.estimator.new_state(self.initial_share)
            # By default a new flow starts as a mouse (stripe width 1) and
            # grows as its rate is measured; ``initial_share`` provisions a
            # wider stripe from the first packet, avoiding the grow
            # transient for flows known to be heavy.
            k = stripe_size_for(self.initial_share, self._n)
            channels = self._stripe_channels(flow, k)
            stripe = _FlowStripe(channels, state)
            self._flows[flow] = stripe
        return stripe

    def choose(
        self, packet: Any, queue_depths: Optional[Sequence[int]] = None
    ) -> int:
        return self._stripe(getattr(packet, "flow", None)).current

    def notify_sent(self, channel: int, packet: Any) -> None:
        flow = getattr(packet, "flow", None)
        stripe = self._stripe(flow)
        size = packet.size
        self.estimator.observe(stripe.rate_state, size)
        stripe.packets += 1
        if stripe.size == 1:
            if stripe.packets % RESIZE_INTERVAL == 0:
                self._maybe_resize(flow, stripe)
            return
        # Intra-stripe round robin, one packet per member: exact
        # per-packet round-robin, which is what makes delivery
        # order-preserving across identical FIFO channels.  Byte-quantum
        # SRR would occasionally put two back-to-back packets on one
        # member while the next member transmits concurrently — the very
        # reordering the paper's resequencer absorbs, which Sprinklers
        # must avoid at the source since it has no resequencer.
        cursor = stripe.cursor + 1
        if cursor < stripe.size:
            stripe.cursor = cursor
            stripe.current = stripe.channels[cursor]
            return
        # A round ends: the width may change only at its boundary.
        stripe.cursor = 0
        stripe.current = stripe.channels[0]
        if (
            stripe.packets >= RESIZE_INTERVAL
            and stripe.packets % RESIZE_INTERVAL < stripe.size
        ):
            self._maybe_resize(flow, stripe)

    def _maybe_resize(self, flow: Any, stripe: _FlowStripe) -> None:
        share = self.estimator.share(stripe.rate_state)
        k = stripe_size_for(share, self._n)
        if k == stripe.size:
            return
        if k < stripe.size and k * HYSTERESIS > stripe.size:
            return  # shrink reluctantly: the rate may only be dipping
        self.resizes += 1
        channels = self._stripe_channels(flow, k)
        new = _FlowStripe(channels, stripe.rate_state)
        new.packets = stripe.packets
        self._flows[flow] = new

    def reset(self) -> None:
        self._flows.clear()
        self.estimator.reset()
        self.resizes = 0

    # -- checkpoint support (repro.transport.recovery) ------------------ #

    def snapshot(self) -> Any:
        """Plain-data capture of every stripe + the rate estimator.

        ``total_bytes`` and the per-flow ``rate_state`` pairs carry
        everything the EWMA needs.
        """
        return {
            "total_bytes": self.estimator.total_bytes,
            "resizes": self.resizes,
            "flows": [
                [
                    flow,
                    list(s.channels),
                    s.cursor,
                    s.current,
                    list(s.rate_state),
                    s.packets,
                ]
                for flow, s in self._flows.items()
            ],
        }

    def restore(self, state: Any) -> None:
        self.estimator.total_bytes = state["total_bytes"]
        self.resizes = state["resizes"]
        self._flows.clear()
        for flow, channels, cursor, current, rate_state, packets in (
            state["flows"]
        ):
            stripe = _FlowStripe(list(channels), list(rate_state))
            stripe.cursor = cursor
            stripe.current = current
            stripe.packets = packets
            self._flows[flow] = stripe
