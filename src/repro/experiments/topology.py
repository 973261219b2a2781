"""Shared testbed construction for the kernel-level (section 6.2) experiments.

Recreates the paper's setup: two workstations, each with a 10 Mbps Ethernet
interface and an ATM interface whose PVC rate is adjustable, TCP between
them, and optionally a strIPe virtual interface striping across both links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.srr import SRR, grr_weights_for_bandwidths, make_grr, make_rr
from repro.core.striper import MarkerPolicy
from repro.net.atm import AtmInterface
from repro.net.ethernet import ETHERNET_MTU, EthernetInterface
from repro.net.stack import Link, Stack
from repro.net.stripe import (
    RESEQ_MARKER,
    RESEQ_NONE,
    RESEQ_PLAIN,
    StripeInterface,
)
from repro.sim.engine import Simulator
from repro.sim.host import HostCPU
from repro.transport.tcp import BulkReceiver, BulkSender, TcpLayer

#: Sender-side addresses.
S_ETH_IP = "10.1.0.1"
S_ATM_IP = "10.2.0.1"
#: Receiver-side addresses (the paper's Net1.B / Net2.B).
R_ETH_IP = "10.1.0.2"
R_ATM_IP = "10.2.0.2"

SCHEME_SRR = "srr"
SCHEME_GRR = "grr"
SCHEME_RR = "rr"


@dataclass
class CpuModel:
    """Receiver CPU cost parameters (see DESIGN.md, Figure 15 mechanism).

    Defaults calibrated so that a single link never saturates the CPU in
    the swept range, while the striped aggregate (which shares the one
    receiver CPU that the two "upper bound" runs each had to themselves)
    hits the cap around a 14 Mbps PVC — the knee the paper reports.
    """

    per_packet_s: float = 300e-6
    per_interrupt_s: float = 300e-6
    max_batch: int = 8
    nic_ring_frames: int = 120

    def build(self, sim: Simulator) -> HostCPU:
        return HostCPU(
            sim, self.per_packet_s, self.per_interrupt_s, self.max_batch
        )


@dataclass
class TestbedConfig:
    """Knobs for one testbed instantiation."""

    __test__ = False  # not a pytest test class

    eth_mbps: float = 10.0
    atm_mbps: float = 13.8
    eth_delay_s: float = 0.5e-3
    atm_delay_s: float = 1.0e-3
    link_queue_frames: int = 40
    cpu: Optional[CpuModel] = field(default_factory=CpuModel)
    #: None = no striping (single-interface runs); else a scheme name.
    stripe_scheme: Optional[str] = None
    #: receiver mode for the stripe layer.
    resequencing: str = RESEQ_MARKER
    #: target data packets between marker batches.  Rounds carry different
    #: packet counts per scheme (an SRR round is ~4 mixed packets, a GRR
    #: [5,7] round is 12), so expressing the marker budget in packets keeps
    #: the control-plane load comparable across the Figure 15 variants.
    marker_every_packets: int = 50
    marker_position: int = 0
    #: explicit GRR packet weights (overrides the bandwidth-ratio default);
    #: the paper's worst-case experiment tunes the PVC so GRR "reduces to
    #: RR", i.e. weights (1, 1).
    grr_weights: Optional[tuple] = None
    #: IP MTU of the ATM PVC (Figure 15 clamps it to the Ethernet MTU; the
    #: fragmentation experiment runs it at the classic 9180).
    atm_mtu: int = ETHERNET_MTU
    #: enable strIPe internal fragmentation (lifts the min-MTU limit at the
    #: cost of per-fragment headers; see repro.net.fragmentation).
    stripe_fragmentation: bool = False


@dataclass
class Testbed:
    """A built two-host testbed ready to carry TCP."""

    __test__ = False  # not a pytest test class

    sim: Simulator
    config: TestbedConfig
    sender: Stack
    receiver: Stack
    eth_link: Link
    atm_link: Link
    s_eth: EthernetInterface
    s_atm: AtmInterface
    r_eth: EthernetInterface
    r_atm: AtmInterface
    stripe_s: Optional[StripeInterface]
    stripe_r: Optional[StripeInterface]
    tcp_s: TcpLayer
    tcp_r: TcpLayer
    receiver_cpu: Optional[HostCPU]

    def bulk_pair(
        self,
        dst_ip: str,
        segment_size_fn=None,
        port: int = 5001,
        src_port: int = 40000,
        mss: int = ETHERNET_MTU - 40,
    ) -> tuple[BulkSender, BulkReceiver]:
        """Create a TCP bulk sender at S and receiver at R."""
        rx = BulkReceiver(self.tcp_r, port)
        tx = BulkSender(
            self.tcp_s, dst_ip, port, src_port,
            mss=mss, segment_size_fn=segment_size_fn,
        )
        return tx, rx


def make_scheme(
    name: str,
    eth_bps: float,
    atm_bps: float,
    grr_weights: Optional[tuple] = None,
) -> SRR:
    """Build the striping algorithm for the two-link testbed.

    SRR quanta are proportional to link bandwidth with the smaller one at
    one MTU (the paper's ``quantum_i >= Max`` recommendation); GRR uses the
    closest small-integer packet ratio (or explicit ``grr_weights``); RR
    alternates.
    """
    if name == SCHEME_SRR:
        base = float(ETHERNET_MTU)
        smaller = min(eth_bps, atm_bps)
        return SRR([base * eth_bps / smaller, base * atm_bps / smaller])
    if name == SCHEME_GRR:
        if grr_weights is not None:
            return make_grr(list(grr_weights))
        return make_grr(grr_weights_for_bandwidths([eth_bps, atm_bps]))
    if name == SCHEME_RR:
        return make_rr(2)
    raise ValueError(f"unknown scheme {name!r}")


def marker_interval_for(
    algorithm: SRR, target_packets: int, avg_packet_bytes: float = 900.0
) -> int:
    """Rounds between marker batches ≈ ``target_packets`` of data."""
    if algorithm.count_packets:
        packets_per_round = sum(algorithm.quanta)
    else:
        packets_per_round = max(1.0, sum(algorithm.quanta) / avg_packet_bytes)
    return max(1, round(target_packets / packets_per_round))


def build_testbed(sim: Simulator, config: TestbedConfig) -> Testbed:
    """Assemble hosts, links, routing, optional strIPe, and TCP layers."""
    receiver_cpu = config.cpu.build(sim) if config.cpu is not None else None
    sender = Stack(sim, "S")
    receiver = Stack(sim, "R", cpu=receiver_cpu)

    s_eth = EthernetInterface(sim, "eth0", S_ETH_IP)
    r_eth = EthernetInterface(sim, "eth0", R_ETH_IP)
    s_atm = AtmInterface(sim, "atm0", S_ATM_IP, mtu=config.atm_mtu)
    r_atm = AtmInterface(sim, "atm0", R_ATM_IP, mtu=config.atm_mtu)
    sender.add_interface(s_eth)
    sender.add_interface(s_atm)
    receiver.add_interface(r_eth)
    receiver.add_interface(r_atm)
    if receiver_cpu is not None and config.cpu is not None:
        for iface in (r_eth, r_atm):
            if iface.nic_queue is not None:
                iface.nic_queue.queue_limit = config.cpu.nic_ring_frames

    eth_link = Link(
        sim, s_eth, r_eth,
        bandwidth_bps=config.eth_mbps * 1e6,
        prop_delay=config.eth_delay_s,
        queue_limit=config.link_queue_frames,
        name="ethernet",
    )
    atm_link = Link(
        sim, s_atm, r_atm,
        bandwidth_bps=config.atm_mbps * 1e6,
        prop_delay=config.atm_delay_s,
        queue_limit=config.link_queue_frames,
        name="atm-pvc",
    )

    stripe_s: Optional[StripeInterface] = None
    stripe_r: Optional[StripeInterface] = None
    if config.stripe_scheme is not None:
        algorithm_s = make_scheme(
            config.stripe_scheme, config.eth_mbps * 1e6, config.atm_mbps * 1e6,
            grr_weights=config.grr_weights,
        )
        algorithm_r = make_scheme(
            config.stripe_scheme, config.eth_mbps * 1e6, config.atm_mbps * 1e6,
            grr_weights=config.grr_weights,
        )
        reseq = config.resequencing
        marker_policy = MarkerPolicy(
            interval_rounds=marker_interval_for(
                algorithm_s, config.marker_every_packets
            ),
            position=config.marker_position,
        )
        stripe_s = StripeInterface(
            sim, "stripe0", S_ETH_IP,
            [(s_eth, R_ETH_IP), (s_atm, R_ATM_IP)],
            algorithm_s,
            resequencing=reseq,
            marker_policy=marker_policy if reseq == RESEQ_MARKER else None,
            fragmentation=config.stripe_fragmentation,
        )
        stripe_r = StripeInterface(
            sim, "stripe0", R_ETH_IP,
            [(r_eth, S_ETH_IP), (r_atm, S_ATM_IP)],
            algorithm_r,
            resequencing=reseq,
            marker_policy=marker_policy if reseq == RESEQ_MARKER else None,
            fragmentation=config.stripe_fragmentation,
        )
        sender.add_interface(stripe_s, use_cpu=False)
        receiver.add_interface(stripe_r, use_cpu=False)
        # Host routes to the peer's addresses point at the strIPe interface.
        sender.routing.add_host_route(R_ETH_IP, stripe_s)
        sender.routing.add_host_route(R_ATM_IP, stripe_s)
        receiver.routing.add_host_route(S_ETH_IP, stripe_r)
        receiver.routing.add_host_route(S_ATM_IP, stripe_r)
    else:
        sender.routing.add(R_ETH_IP, 24, s_eth)
        sender.routing.add(R_ATM_IP, 24, s_atm)
        receiver.routing.add(S_ETH_IP, 24, r_eth)
        receiver.routing.add(S_ATM_IP, 24, r_atm)

    tcp_s = TcpLayer(sender, sim)
    tcp_r = TcpLayer(receiver, sim)
    return Testbed(
        sim=sim,
        config=config,
        sender=sender,
        receiver=receiver,
        eth_link=eth_link,
        atm_link=atm_link,
        s_eth=s_eth,
        s_atm=s_atm,
        r_eth=r_eth,
        r_atm=r_atm,
        stripe_s=stripe_s,
        stripe_r=stripe_r,
        tcp_s=tcp_s,
        tcp_r=tcp_r,
        receiver_cpu=receiver_cpu,
    )


def measure_tcp_goodput(
    config: TestbedConfig,
    dst_ip: str,
    duration_s: float = 4.0,
    warmup_s: float = 1.0,
    size_seed: int = 7,
    sizes=(200, 1000, 1460),
    mss: int = ETHERNET_MTU - 40,
) -> dict:
    """One run: TCP bulk transfer of a random small/large mix; goodput Mbps.

    Returns a dict with goodput and diagnostic counters.
    """
    sim = Simulator()
    testbed = build_testbed(sim, config)
    rng = random.Random(size_seed)
    tx, rx = testbed.bulk_pair(
        dst_ip, segment_size_fn=lambda: rng.choice(list(sizes)), mss=mss
    )
    tx.start()
    sim.run(until=warmup_s)
    start_bytes = rx.bytes_delivered
    sim.run(until=warmup_s + duration_s)
    goodput_bits = (rx.bytes_delivered - start_bytes) * 8.0
    return {
        "goodput_mbps": goodput_bits / duration_s / 1e6,
        "retransmits": tx.retransmits,
        "timeouts": tx.timeouts,
        "reorder_events": rx.reorder_events,
        "cpu_utilization": (
            testbed.receiver_cpu.utilization(warmup_s + duration_s)
            if testbed.receiver_cpu is not None
            else 0.0
        ),
        "stripe_input_drops": (
            testbed.stripe_s.input_drops if testbed.stripe_s is not None else 0
        ),
    }
