"""Comparison striping schemes from the paper's section 2.1 / Table 1.

* :class:`ShortestQueueFirst` — Linux EQL driver policy.
* :class:`RandomSelection` — Bay Networks random assignment.
* :class:`AddressHashing` — per-destination pinning.
* :class:`MpppDiscipline` / :class:`MpppReceiver` — RFC 1717 Multilink PPP
  style sequence-numbered striping.
* :class:`BondingMux` / :class:`BondingDemux` — BONDING-consortium style
  fixed-frame inverse multiplexing with bounded skew compensation.

(Plain RR and GRR live in :mod:`repro.core.srr` since they are SRR-family
members; DRR and the randomized CFQ schemes live in core as well.)
"""

from repro.baselines.sqf import ShortestQueueFirst
from repro.baselines.random_selection import RandomSelection
from repro.baselines.address_hash import AddressHashing, stable_hash
from repro.baselines.mppp import (
    MPPP_HEADER_BYTES,
    MpppDiscipline,
    MpppFragment,
    MpppReceiver,
)
from repro.baselines.bonding import (
    BondingDemux,
    BondingDiscipline,
    BondingFrame,
    BondingMux,
    BondingResequencer,
)

__all__ = [
    "ShortestQueueFirst",
    "RandomSelection",
    "AddressHashing",
    "stable_hash",
    "MpppReceiver",
    "MpppFragment",
    "MpppDiscipline",
    "MPPP_HEADER_BYTES",
    "BondingMux",
    "BondingDemux",
    "BondingFrame",
    "BondingDiscipline",
    "BondingResequencer",
]
