"""Discrete-event simulation substrate.

This package provides the simulated "hardware" that the striping protocol
runs over: an event-driven clock (:mod:`repro.sim.engine`), FIFO channels
with bandwidth / propagation delay / skew / loss (:mod:`repro.sim.channel`),
loss and corruption models (:mod:`repro.sim.loss`), timed adversarial
fault injection (:mod:`repro.sim.faults`), a host CPU model with
interrupt costs (:mod:`repro.sim.host`), and structured event tracing
(:mod:`repro.sim.trace`).

The engine, channels, loss models and tracer import with the package;
fault injection and the host model on first use.

The paper's testbed was a pair of NetBSD workstations joined by an Ethernet
and an ATM PVC; this package is the substitute substrate (see DESIGN.md
section 2).
"""

from repro import lazy_exports
from repro.sim.engine import Event, Simulator
from repro.sim.channel import Channel, ChannelStats
from repro.sim.loss import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
)
from repro.sim.trace import TraceEvent, Tracer

__getattr__, __dir__ = lazy_exports(globals(), {
    "faults": (
        "FaultEvent",
        "FaultInjector",
        "FaultPlan",
        "FaultSchedule",
        "InstalledFaults",
    ),
    "host": ("HostCPU", "NicQueue"),
})

__all__ = [
    "Event",
    "Simulator",
    "Channel",
    "ChannelStats",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "InstalledFaults",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "DeterministicLoss",
    "HostCPU",
    "NicQueue",
    "Tracer",
    "TraceEvent",
]
