"""The benchmark's metric names, units and directions, in one place.

``BENCHMARK.json`` lists the same names (a self-test holds the two
together) and adds the regression bound of every end-to-end metric.
"""

from __future__ import annotations

from typing import Dict, Tuple

from perfbench.spans import SPAN_NAMES

#: name -> (unit, better), measured with tracing off
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_ns_per_pkt": ("ns", "lower"),
    "goodput_mbps_sim": ("Mb/s", "higher"),
    "delivery_p50_ms_sim": ("ms", "lower"),
    "delivery_p99_ms_sim": ("ms", "lower"),
    "wire_overhead_share": ("share", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: the end-to-end metrics that come from the simulation alone: identical on
#: every repetition of a run
SIMULATED = (
    "goodput_mbps_sim",
    "delivery_p50_ms_sim",
    "delivery_p99_ms_sim",
    "wire_overhead_share",
)

#: name -> (unit, better), from the traced repetitions and the rungs
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _span in SPAN_NAMES:
    PER_LAYER[f"span.{_span}.self_ns_per_pkt"] = ("ns", "lower")
    PER_LAYER[f"span.{_span}.calls_per_pkt"] = ("count", "lower")
PER_LAYER.update({
    # exact counts
    "sim.engine.events_per_pkt": ("count", "lower"),
    "sim.channel.drops_per_pkt": ("count", "lower"),
    "transport.sync_model.markers_per_pkt": ("count", "lower"),
    "core.resequencer.buffered_hwm": ("count", "lower"),
    "transport.reliability.retransmits_per_pkt": ("count", "lower"),
    "transport.reliability.acks_per_pkt": ("count", "lower"),
    "transport.reliability.timeouts_per_kpkt": ("count", "lower"),
    "transport.reliability.dup_rx_per_pkt": ("count", "lower"),
    "transport.fec.parity_per_pkt": ("count", "lower"),
    "transport.fec.rebuilt_per_lost": ("share", "higher"),
    "transport.fabric.refusals": ("count", "lower"),
    "core.packet.pool_reuse_share": ("share", "higher"),
    "mem.retained_blocks_per_kpkt": ("count", "lower"),
    "trace.overhead_share": ("share", "lower"),
    # isolated rungs
    "core.kernel.assign_ns_per_pkt": ("ns", "lower"),
    "core.striper.stripe_ns_per_pkt": ("ns", "lower"),
    "core.markers.codec_ns_per_marker": ("ns", "lower"),
    "transport.endpoint.rx_ns_per_arrival": ("ns", "lower"),
    "transport.reliability.rx_ns_per_pkt": ("ns", "lower"),
    "core.fec.encode_mb_s": ("MB/s", "higher"),
    "core.fec.decode_mb_s": ("MB/s", "higher"),
    "transport.fabric.submit_ns_per_pkt": ("ns", "lower"),
    "transport.fabric.pump_ns_per_pkt": ("ns", "lower"),
    "sim.engine.ns_per_event": ("ns", "lower"),
    "sim.channel.train_ns_per_pkt": ("ns", "lower"),
    "sim.channel.lossy_ns_per_pkt": ("ns", "lower"),
    "transport.recovery.checkpoint_us": ("us", "lower"),
    "workloads.generators.ns_per_pkt": ("ns", "lower"),
})
del _span
