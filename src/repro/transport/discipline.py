"""The striping-discipline registry: any (s0, f, g) scheme -> any transport.

Two axes are resolved here:

* **discipline** — who picks the channel for each packet
  (:func:`make_discipline` / :func:`resolve_discipline`);
* **receiver mode** — how the receiver recovers sender order
  (:func:`receiver_mode_for`, feeding
  :func:`~repro.core.resequencer.make_resequencer`): marker-based schemes
  ship a marker stream and simulate the sender; marker-free (hash-based)
  schemes derive order from per-flow pinning and need neither markers
  nor a resequencer; header-based schemes carry explicit sequence state
  in every packet.

Marker-free disciplines declare ``marker_free = True`` and get the
``"direct"`` receiver mode: the receiver pipeline allocates no resequencer
and never calls the marker codec, and the sender pipeline refuses a
marker policy and keepalive markers for them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.cfq import CausalFQ
from repro.core.transform import LoadSharer, TransformedLoadSharer

__all__ = [
    "DISCIPLINES",
    "make_discipline",
    "receiver_args_for",
    "receiver_mode_for",
    "resolve_discipline",
]


def _make_srr(n: int, **options: Any) -> LoadSharer:
    from repro.core.srr import SRR

    quanta = options.get("quanta")
    if quanta is None:
        quanta = [float(options.get("quantum", 1500.0))] * n
    return TransformedLoadSharer(
        SRR(quanta, count_packets=options.get("count_packets", False))
    )


def _make_rr(n: int, **options: Any) -> LoadSharer:
    from repro.core.srr import make_rr

    return TransformedLoadSharer(make_rr(n))


def _make_grr(n: int, **options: Any) -> LoadSharer:
    from repro.core.srr import make_grr

    weights = options.get("weights")
    if weights is None:
        weights = [1.0] * n
    return TransformedLoadSharer(make_grr(weights))


def _make_sqf(n: int, **options: Any) -> LoadSharer:
    from repro.baselines.sqf import ShortestQueueFirst

    return ShortestQueueFirst(n)


def _make_random(n: int, **options: Any) -> LoadSharer:
    import random

    from repro.baselines.random_selection import RandomSelection

    return RandomSelection(n, random.Random(options.get("seed", 0)))


def _make_hash(n: int, **options: Any) -> LoadSharer:
    from repro.baselines.address_hash import AddressHashing

    return AddressHashing(n)


def _make_mppp(n: int, **options: Any) -> LoadSharer:
    from repro.baselines.mppp import MPPP_HEADER_BYTES, MpppDiscipline

    return MpppDiscipline(
        n, header_bytes=options.get("header_bytes", MPPP_HEADER_BYTES)
    )


def _make_bonding(n: int, **options: Any) -> LoadSharer:
    from repro.baselines.bonding import BondingDiscipline

    return BondingDiscipline(n, frame_bytes=options.get("frame_bytes", 512))


def _make_sprinklers(n: int, **options: Any) -> LoadSharer:
    from repro.core.sprinklers import SprinklersDiscipline

    return SprinklersDiscipline(
        n, initial_share=options.get("initial_share", 0.0)
    )


#: Named striping disciplines: factory(n_channels, **options) -> LoadSharer.
DISCIPLINES: Dict[str, Callable[..., LoadSharer]] = {
    "srr": _make_srr,
    "rr": _make_rr,
    "grr": _make_grr,
    "sqf": _make_sqf,
    "random_selection": _make_random,
    "address_hash": _make_hash,
    "mppp": _make_mppp,
    "bonding": _make_bonding,
    "sprinklers": _make_sprinklers,
}


def make_discipline(name: str, n_channels: int, **options: Any) -> LoadSharer:
    """Build a named striping discipline for ``n_channels`` channels.

    Names: ``srr`` (quanta/quantum/count_packets options), ``rr``, ``grr``
    (weights), ``sqf``, ``random_selection`` (seed), ``address_hash``,
    ``mppp`` (header_bytes), ``bonding`` (frame_bytes), ``sprinklers``
    (initial_share).
    """
    factory = DISCIPLINES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown discipline {name!r}; known: {sorted(DISCIPLINES)}"
        )
    return factory(n_channels, **options)


def resolve_discipline(
    spec: Any, n_channels: int, **options: Any
) -> LoadSharer:
    """Normalize any striping-policy spec to a :class:`LoadSharer`.

    Accepts a discipline name (see :func:`make_discipline`), a
    :class:`~repro.core.cfq.CausalFQ` algorithm (wrapped via the paper's
    transformation), or any ready-made load sharer (two-phase
    ``choose``/``notify_sent`` object).
    """
    if isinstance(spec, str):
        sharer = make_discipline(spec, n_channels, **options)
    elif isinstance(spec, CausalFQ):
        sharer = TransformedLoadSharer(spec)
    elif isinstance(spec, LoadSharer) or (
        hasattr(spec, "choose") and hasattr(spec, "notify_sent")
    ):
        sharer = spec
    else:
        raise TypeError(f"cannot use {type(spec).__name__} as a discipline")
    if sharer.n_channels != n_channels:
        raise ValueError(
            f"policy expects {sharer.n_channels} channels, got {n_channels}"
        )
    return sharer


def receiver_mode_for(spec: Any, markers: bool = False) -> str:
    """The resequencing mode matching a sender-side discipline.

    Disciplines that bring their own receiver half declare it via a
    ``receiver_mode`` attribute (MPPP, BONDING).  Marker-free disciplines
    (``marker_free = True``: address hashing, Sprinklers) get ``"direct"``
    — per-flow pinning makes physical arrival order the delivery order, so
    the receiver allocates no resequencer and no marker-decode path.
    Simulatable (causal) policies get logical reception — ``"marker"``
    when the sender emits markers, ``"plain"`` otherwise.  Remaining
    non-causal policies cannot be simulated at all, so they fall back to
    physical arrival order through the ``"none"`` ablation engine.
    """
    mode = getattr(spec, "receiver_mode", None)
    if mode is not None:
        return mode
    if getattr(spec, "marker_free", False):
        return "direct"
    if isinstance(spec, CausalFQ) or getattr(spec, "simulatable", False):
        return "marker" if markers else "plain"
    return "none"


def receiver_args_for(
    spec: Any, n_channels: int, markers: bool = False, **options: Any
) -> Tuple[str, Optional[CausalFQ]]:
    """``(mode, algorithm)`` for the receiver matching a sender's ``spec``.

    ``spec`` is a discipline name (built with ``options``) or the
    receiver's *own* instance of the sender's policy — logical reception
    simulates it, so the two ends must not share one.  ``algorithm`` is
    the CFQ algorithm the logical-reception modes simulate, None for the
    engines that need none (direct, header-based, arrival order).
    """
    if isinstance(spec, str):
        spec = make_discipline(spec, n_channels, **options)
    mode = receiver_mode_for(spec, markers)
    if mode not in ("marker", "plain"):
        return mode, None
    return mode, getattr(spec, "algorithm", spec)

