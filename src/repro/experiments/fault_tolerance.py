"""Fault-tolerance experiments (extensions the paper sketches in §5).

The paper: "It is also possible to make the marker algorithm
self-stabilizing ... by periodically running a snapshot and then doing a
reset.  We deal with sender or receiver node crashes by doing a reset."
Section 1 also lists resilience to "link crashes" as a design goal.  These
experiments exercise the session-control implementation of those ideas:

* ``link_failure`` — one of three channels dies mid-run.  Without fault
  handling, logical reception head-of-line blocks on the dead channel and
  delivery stops; with the failure detector + reconfiguration reset, the
  stream continues on the survivors at ~2/3 rate.
* ``state_corruption`` — the receiver's global round is corrupted mid-run
  while channel loss is ongoing.  Markers alone cannot restore condition
  C1 (the receiver never skips when its round runs ahead), so reordering
  persists; the local checker detects the divergence and a reset corrects
  it.
* ``capacity_adaptation`` — one channel's rate drops 4×.  Static quanta
  bottleneck the whole bundle on the slow channel; the quanta adapter
  re-estimates weights from queue pressure and reconfigures via reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.analysis.reorder import analyze_order
from repro.core.session import (
    ChannelProber,
    LocalChecker,
    StripeConfig,
    StripeReceiverSession,
    StripeSenderSession,
)
from repro.core.striper import MarkerPolicy
from repro.experiments.socket_harness import (
    build_two_hosts,
    drive_closed_loop,
    seeded_losses,
)
from repro.net.stack import Link
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.transport.endpoint import (
    ChannelFailureDetector,
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.session_striping import (
    bind_udp_session_receiver,
    udp_session_sender,
)
from repro.workloads.generators import ClosedLoopSource, ConstantSizes

BASE_PORT = 6100
CONTROL_PORT = 6900


@dataclass
class SessionTestbed:
    """``sender`` / ``receiver`` are the two pipelines (the data path);
    the ``*_session`` fields are the reset controllers driving them."""

    sim: Simulator
    sender: StripeSenderPipeline
    receiver: StripeReceiverPipeline
    sender_session: StripeSenderSession
    receiver_session: StripeReceiverSession
    prober: Optional[ChannelProber]
    source: Optional[ClosedLoopSource]
    links: List[Link]
    loss_models: List[BernoulliLoss]
    deliveries: List[Tuple[float, int]] = field(default_factory=list)

    def delivered_between(self, start: float, end: float) -> List[int]:
        return [seq for t, seq in self.deliveries if start <= t < end]

    def goodput_mbps(self, start: float, end: float, message_bytes: int) -> float:
        count = len(self.delivered_between(start, end))
        return count * message_bytes * 8 / (end - start) / 1e6


def build_session_testbed(
    sim: Simulator,
    n_channels: int = 2,
    link_mbps: Sequence[float] = (10.0, 10.0),
    loss_rates: Sequence[float] = (0.0, 0.0),
    message_bytes: int = 1000,
    quanta: Optional[Sequence[float]] = None,
    checker: Optional[LocalChecker] = None,
    failure_detector: Optional[ChannelFailureDetector] = None,
    queue_frames: int = 40,
    seed: int = 0,
    health_monitor: Optional[Any] = None,
    prober_options: Optional[dict] = None,
    reliability: str = "quasi_fifo",
    reliability_options: Optional[dict] = None,
    closed_loop: bool = True,
    discipline: Optional[str] = None,
    discipline_options: Optional[dict] = None,
) -> SessionTestbed:
    """Two hosts, N links, session-managed striped UDP, closed-loop source.

    With ``closed_loop=False`` no source is created; the caller paces
    submissions (e.g. through an attached fabric).  ``discipline`` swaps
    the paper's SRR for any registry discipline on both ends (marker-free
    ones run without markers and without a resequencer).
    """
    loss_models = seeded_losses(loss_rates, n_channels, seed)
    host_a, host_b, links = build_two_hosts(
        sim, n_channels, link_mbps=link_mbps,
        queue_frames=queue_frames, loss_ab=loss_models,
    )
    destinations = [
        (ip, BASE_PORT + index)
        for index, ip in enumerate(host_b.local_addresses())
    ]

    config = StripeConfig(
        quanta=tuple(quanta) if quanta else tuple([float(message_bytes)] * n_channels)
    )
    arq_options = reliability_options or {}
    sender_session = udp_session_sender(
        sim, host_a, destinations, config,
        marker_policy=MarkerPolicy(interval_rounds=1),
        control_port=CONTROL_PORT,
        health_monitor=health_monitor,
        reliability=reliability,
        reliability_options=arq_options.get("sender"),
        discipline=discipline,
        discipline_options=discipline_options,
    )
    # Excluded channels are probed with exponential backoff and rejoined
    # (fresh quanta via RESET) once they answer.
    prober = (
        ChannelProber(sim, sender_session, **prober_options)
        if prober_options is not None else None
    )
    deliveries: List[Tuple[float, int]] = []
    receiver_session = bind_udp_session_receiver(
        sim, host_b, n_channels, config,
        base_port=BASE_PORT,
        control_to=host_a.local_addresses()[0],
        control_port=CONTROL_PORT,
        on_message=lambda p: deliveries.append((sim.now, p.seq)),
        checker=checker,
        failure_detector=failure_detector,
        reliability=reliability,
        reliability_options=arq_options.get("receiver"),
        discipline=discipline,
        discipline_options=discipline_options,
    )
    sender = sender_session.pipeline

    forward = [link.ab for link in links]
    source: Optional[ClosedLoopSource] = None
    if closed_loop:
        source = drive_closed_loop(
            sim, sender, forward, ConstantSizes(message_bytes), target=16
        )
    else:
        for channel in forward:
            channel.on_space = sender.pump

    return SessionTestbed(
        sim=sim, sender=sender, receiver=receiver_session.pipeline,
        sender_session=sender_session, receiver_session=receiver_session,
        prober=prober, source=source,
        links=links, loss_models=loss_models, deliveries=deliveries,
    )


# ---------------------------------------------------------------------- #
# link failure


@dataclass
class LinkFailureResult:
    with_detector: bool
    goodput_before: float
    goodput_after: float
    resets: int
    surviving_channels: int

    def render_row(self) -> str:
        mode = "detector+reset" if self.with_detector else "no fault handling"
        return (
            f"  {mode:>18}: before {self.goodput_before:5.2f} Mbps, "
            f"after {self.goodput_after:5.2f} Mbps "
            f"(resets={self.resets}, channels={self.surviving_channels})"
        )


@dataclass
class LinkFailureExperiment:
    rows: List[LinkFailureResult]

    def render(self) -> str:
        lines = ["link failure at t=0.8s (channel 1 of 3 goes dark):"]
        lines += [row.render_row() for row in self.rows]
        return "\n".join(lines)


def run_link_failure(
    fail_at: float = 0.8,
    total_s: float = 2.5,
    message_bytes: int = 1000,
) -> LinkFailureExperiment:
    """Kill one of three channels; compare with and without fault handling."""
    rows: List[LinkFailureResult] = []
    for with_detector in (False, True):
        sim = Simulator()
        detector = (
            ChannelFailureDetector(sim, silence_threshold=0.2)
            if with_detector else None
        )
        testbed = build_session_testbed(
            sim, n_channels=3, link_mbps=(10.0,), loss_rates=(0.0,),
            message_bytes=message_bytes, failure_detector=detector,
        )
        # The channel dies: everything sent on it vanishes.
        sim.schedule_at(
            fail_at, lambda tb=testbed: setattr(tb.loss_models[1], "p", 1.0)
        )
        sim.run(until=total_s)
        rows.append(
            LinkFailureResult(
                with_detector=with_detector,
                goodput_before=testbed.goodput_mbps(
                    0.2, fail_at, message_bytes
                ),
                goodput_after=testbed.goodput_mbps(
                    fail_at + 0.5, total_s, message_bytes
                ),
                resets=testbed.receiver_session.resets_seen,
                surviving_channels=len(
                    testbed.receiver_session.config.active_channels
                ),
            )
        )
    return LinkFailureExperiment(rows)


# ---------------------------------------------------------------------- #
# state corruption / self-stabilization


@dataclass
class CorruptionResult:
    with_checker: bool
    ooo_before: int
    ooo_after_window: int
    violations: int
    resets: int

    def render_row(self) -> str:
        mode = "local checking" if self.with_checker else "markers only"
        return (
            f"  {mode:>15}: OOO before corruption {self.ooo_before}, "
            f"OOO in final window {self.ooo_after_window} "
            f"(violations={self.violations}, resets={self.resets})"
        )


@dataclass
class CorruptionExperiment:
    rows: List[CorruptionResult]

    def render(self) -> str:
        lines = [
            "receiver global-round corruption at t=0.8s, 10% ongoing loss:",
        ]
        lines += [row.render_row() for row in self.rows]
        return "\n".join(lines)


def run_state_corruption(
    corrupt_at: float = 0.8,
    total_s: float = 3.0,
    loss_rate: float = 0.1,
    message_bytes: int = 1000,
) -> CorruptionExperiment:
    """Corrupt the receiver's round counter under ongoing loss."""
    rows: List[CorruptionResult] = []
    for with_checker in (False, True):
        sim = Simulator()
        checker = LocalChecker(window_rounds=60) if with_checker else None
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0,),
            loss_rates=(loss_rate,),
            message_bytes=message_bytes, checker=checker,
        )

        def corrupt(tb=testbed):
            tb.receiver.resequencer.round_number += 10_000

        sim.schedule_at(corrupt_at, corrupt)
        sim.run(until=total_s)

        before = analyze_order(testbed.delivered_between(0.0, corrupt_at))
        final = analyze_order(
            testbed.delivered_between(total_s - 1.0, total_s)
        )
        rows.append(
            CorruptionResult(
                with_checker=with_checker,
                ooo_before=before.out_of_order,
                ooo_after_window=final.out_of_order,
                violations=checker.violations if checker else 0,
                resets=testbed.receiver_session.resets_seen,
            )
        )
    return CorruptionExperiment(rows)


# ---------------------------------------------------------------------- #
# capacity adaptation


class QuantaAdapter:
    """Sender-side weight adapter driven by queue pressure.

    Every ``interval`` seconds it inspects the active ports' transmit
    queues; if one is saturated while another is near-empty, the quanta are
    re-estimated from the byte drain per channel since the last check and
    installed via a reconfiguration reset.
    """

    def __init__(
        self,
        sim: Simulator,
        session: StripeSenderSession,
        links: Sequence[Link],
        interval: float = 0.2,
        min_quantum: float = 1000.0,
        cooldown: float = 0.4,
    ) -> None:
        self.sim = sim
        self.session = session
        self.links = list(links)
        self.interval = interval
        self.min_quantum = min_quantum
        self.cooldown = cooldown
        self.adaptations = 0
        self._last_bytes = [0] * len(self.links)
        self._last_busy = [0.0] * len(self.links)
        self._last_adapt = -1e9
        sim.schedule(interval, self._tick)

    def _estimate_rates(self, active) -> Optional[List[float]]:
        """Per-channel line rate from the sender's own egress statistics:
        bytes delivered per second of transmitter busy time — independent
        of how much the striper offered each channel."""
        rates: List[float] = []
        for index in active:
            stats = self.links[index].ab.stats
            delta_bytes = stats.delivered_bytes - self._last_bytes[index]
            delta_busy = stats.busy_time - self._last_busy[index]
            self._last_bytes[index] = stats.delivered_bytes
            self._last_busy[index] = stats.busy_time
            if delta_busy <= 1e-6 or delta_bytes <= 0:
                return None  # not enough signal this interval
            rates.append(delta_bytes / delta_busy)
        return rates

    def _tick(self) -> None:
        session = self.session
        if session.state == session.RUNNING:
            active = session.config.active_channels
            rates = self._estimate_rates(active)
            queues = [session.all_ports[i].queue_length for i in active]
            imbalanced = max(queues) >= 30 and min(queues) <= 2
            if (
                rates is not None
                and imbalanced
                and self.sim.now - self._last_adapt > self.cooldown
            ):
                slowest = min(rates)
                quanta = tuple(
                    max(self.min_quantum, round(self.min_quantum * r / slowest))
                    for r in rates
                )
                current = session.config.quanta
                changed = any(
                    abs(a - b) / b > 0.25 for a, b in zip(quanta, current)
                )
                if changed:
                    self._last_adapt = self.sim.now
                    self.adaptations += 1
                    session.initiate_reset(
                        StripeConfig(quanta=quanta, active_channels=active)
                    )
        self.sim.schedule(self.interval, self._tick)


@dataclass
class AdaptationResult:
    adaptive: bool
    goodput_before: float
    goodput_after: float
    adaptations: int
    final_quanta: Tuple[float, ...]

    def render_row(self) -> str:
        mode = "adaptive quanta" if self.adaptive else "static quanta"
        quanta = "/".join(f"{q:.0f}" for q in self.final_quanta)
        return (
            f"  {mode:>15}: before {self.goodput_before:5.2f} Mbps, "
            f"after {self.goodput_after:5.2f} Mbps "
            f"(adaptations={self.adaptations}, quanta={quanta})"
        )


@dataclass
class AdaptationExperiment:
    rows: List[AdaptationResult]

    def render(self) -> str:
        lines = ["channel 1 rate drops 10 -> 2.5 Mbps at t=1.0s:"]
        lines += [row.render_row() for row in self.rows]
        return "\n".join(lines)


def run_capacity_adaptation(
    change_at: float = 1.0,
    total_s: float = 4.0,
    message_bytes: int = 1000,
) -> AdaptationExperiment:
    """Halve-and-halve-again one channel's rate; adapt quanta via resets."""
    rows: List[AdaptationResult] = []
    for adaptive in (False, True):
        sim = Simulator()
        testbed = build_session_testbed(
            sim, n_channels=2, link_mbps=(10.0, 10.0), loss_rates=(0.0,),
            message_bytes=message_bytes,
        )
        adapter = (
            QuantaAdapter(sim, testbed.sender_session, testbed.links)
            if adaptive else None
        )
        sim.schedule_at(
            change_at,
            lambda tb=testbed: tb.links[1].set_rate(2.5e6),
        )
        sim.run(until=total_s)
        rows.append(
            AdaptationResult(
                adaptive=adaptive,
                goodput_before=testbed.goodput_mbps(
                    0.3, change_at, message_bytes
                ),
                goodput_after=testbed.goodput_mbps(
                    total_s - 1.5, total_s, message_bytes
                ),
                adaptations=adapter.adaptations if adapter else 0,
                final_quanta=testbed.sender_session.config.quanta,
            )
        )
    return AdaptationExperiment(rows)


@dataclass
class FaultToleranceReport:
    link_failure: LinkFailureExperiment
    corruption: CorruptionExperiment
    adaptation: AdaptationExperiment

    def render(self) -> str:
        return "\n\n".join(
            [
                self.link_failure.render(),
                self.corruption.render(),
                self.adaptation.render(),
            ]
        )


def run_fault_tolerance(quick: bool = False) -> FaultToleranceReport:
    """All three fault-tolerance scenarios."""
    if quick:
        return FaultToleranceReport(
            link_failure=run_link_failure(total_s=1.8),
            corruption=run_state_corruption(total_s=2.0),
            adaptation=run_capacity_adaptation(total_s=3.0),
        )
    return FaultToleranceReport(
        link_failure=run_link_failure(),
        corruption=run_state_corruption(),
        adaptation=run_capacity_adaptation(),
    )
