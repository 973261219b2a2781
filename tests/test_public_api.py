"""The public API surface documented in API.md imports and is stable."""

import importlib

import pytest

SURFACE = {
    "repro.core": [
        "Packet", "MarkerPacket", "is_marker", "Codepoint",
        "CausalFQ", "NonCausalFQ", "SRR", "SRRState", "DRR",
        "make_rr", "make_grr", "grr_weights_for_bandwidths",
        "SeededRandomFQ",
        "LoadSharer", "TransformedLoadSharer", "stripe_sequence",
        "verify_reverse_correspondence",
        "Striper", "MarkerPolicy", "ListPort",
        "Resequencer", "NullResequencer", "SRRReceiver",
        "make_resequencer", "RESEQ_MODES",
        "encode_marker", "decode_marker", "piggybacked_credit",
        "MARKER_WIRE_BYTES",
        "SchedulerKernel", "SRRKernel", "kernel_for",
        "fq_service_order", "fq_service_order_noncausal",
        "srr_fairness_report", "jain_fairness_index",
        "SprinklersDiscipline", "FlowRateEstimator", "stripe_size_for",
        "StripeConfig", "StripeSenderSession", "StripeReceiverSession",
        "LocalChecker", "ResetPacket", "ResetAckPacket",
        "ResetRequestPacket",
    ],
    "repro.sim": [
        "Simulator", "Event", "Channel", "ChannelStats",
        "NoLoss", "BernoulliLoss", "GilbertElliottLoss",
        "DeterministicLoss", "CorruptionModel",
        "HostCPU", "NicQueue", "Tracer",
    ],
    "repro.net": [
        "IPAddress", "MACAddress", "IPPacket", "RoutingTable",
        "EthernetInterface", "AtmInterface", "StripeInterface",
        "Stack", "Link", "FrameType",
        "RESEQ_MARKER", "RESEQ_PLAIN", "RESEQ_NONE",
        "Fragment", "FragmentingStriper", "Reassembler",
        "aal5_wire_size", "ethernet_wire_size",
    ],
    "repro.transport": [
        "UdpLayer", "UdpSocket", "TcpLayer", "BulkSender", "BulkReceiver",
        "CreditSender", "CreditReceiver", "CreditPacket",
        "ChannelPort", "StripeSenderPipeline", "StripeReceiverPipeline",
        "DISCIPLINES", "make_discipline",
        "resolve_discipline", "receiver_mode_for",
        "UdpChannelPort", "udp_ports", "bind_udp_receiver",
        "TcpChannelPort", "tcp_ports", "bind_tcp_receiver",
        "FastChannelPort", "bind_fast_receiver", "wire_size",
        "udp_session_sender", "bind_udp_session_receiver",
        "ChannelFailureDetector", "connect_duplex",
    ],
    "repro.baselines": [
        "ShortestQueueFirst", "RandomSelection", "AddressHashing",
        "MpppReceiver", "MpppDiscipline",
        "BondingMux", "BondingDemux", "BondingDiscipline",
        "BondingResequencer",
    ],
    "repro.workloads": [
        "RandomMixSizes", "AlternatingSizes", "ConstantSizes",
        "PacedSource", "ClosedLoopSource",
        "synthesize_nv_trace", "PlaybackModel",
    ],
    "repro.analysis": [
        "analyze_order", "ReorderReport",
        "paper_table1_rows", "extended_rows", "render_rows",
    ],
    "repro.experiments": ["EXPERIMENTS", "run_experiment"],
    "repro.core.fec": [
        "FecCodec", "GF256Codec", "make_codec", "FecDecodeError",
        "gf_mul", "gf_inv", "gf_div",
    ],
}

#: names deliberately removed from the surface
REMOVED = {
    # one table renderer for Table 1 and every experiment; the measurement
    # helpers nothing the system runs used moved next to their tests
    "repro.analysis": [
        "render_table", "mbps", "ThroughputWindow", "LatencyStats",
        "percentile", "DeliveryLog", "fifo_after_index",
    ],
    # nothing the system runs entered these: moved next to their tests
    "repro.core": [
        "DKS", "DKSState", "WeightedRandomFQ", "bits_per_queue",
        "bytes_per_channel", "max_pairwise_imbalance",
    ],
    "repro.sim": ["RandomStreams"],
    "repro.baselines": ["MpppSender"],
    "repro.workloads": [
        "UniformSizes", "backlogged_packets", "random_mix_packets",
        "alternating_packets", "poisson_intervals", "perceptibly_different",
    ],
    # one codec: the scaled Cauchy generator's first parity is plain XOR
    "repro.core.fec": ["XorCodec"],
    # no synchronization-model layer: each pipeline holds its marker
    # policy, keepalive and reception engine itself
    "repro.transport": [
        "SYNC_MODELS", "sync_model_for", "make_sync_model",
        "SynchronizationModel", "MarkerSyncModel", "HashSyncModel",
        "HeaderSyncModel", "logarithmic_tenant_weights",
        # one pump: Striper.pump is the batched SRR pump for every port
        "FastStriper",
    ],
}

#: methods deliberately removed from a class, as ``module:Class``: each
#: layer under the pipeline takes batches through one entry, with no
#: per-packet twin beside it
REMOVED_MEMBERS = {
    "repro.transport.reliability:ReliableSender": [
        "submit_many", "note_burst", "_retransmit_many",
    ],
    "repro.transport.fec:FecSender": ["submit_many"],
    "repro.transport.endpoint:StripeSenderPipeline": ["_stripe_many"],
}


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in SURFACE[module_name] if not hasattr(module, name)
    ]
    assert missing == [], f"{module_name} missing: {missing}"
    # The whole export list, lazy names included: listed by dir(),
    # resolvable, and bound by a star import.
    unlisted = [name for name in module.__all__ if name not in dir(module)]
    assert unlisted == [], f"{module_name} dir() lacks: {unlisted}"
    unresolved = [
        name for name in module.__all__ if not hasattr(module, name)
    ]
    assert unresolved == [], f"{module_name} cannot resolve: {unresolved}"
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    unbound = [name for name in module.__all__ if name not in namespace]
    assert unbound == [], f"import * from {module_name} lacks: {unbound}"


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_removed(module_name):
    module = importlib.import_module(module_name)
    present = [name for name in REMOVED[module_name] if hasattr(module, name)]
    assert present == [], f"{module_name} still exports: {present}"


@pytest.mark.parametrize("owner", sorted(REMOVED_MEMBERS))
def test_removed_members_stay_removed(owner):
    module_name, class_name = owner.split(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    present = [name for name in REMOVED_MEMBERS[owner] if hasattr(cls, name)]
    assert present == [], f"{owner} still has: {present}"


def test_recovery_senders_take_no_per_packet_keyword():
    """``ReliableSender`` and ``FecSender`` take one batch callable each:
    no ``submit_many=`` / ``downstream_many=`` twin beside it."""
    from repro.sim import Simulator
    from repro.transport.fec import FecSender
    from repro.transport.reliability import ReliableSender

    def batch(packets):
        return None

    with pytest.raises(TypeError, match="submit_many"):
        ReliableSender(batch, Simulator(), submit_many=batch)
    with pytest.raises(TypeError, match="downstream_many"):
        FecSender(batch, batch, downstream_many=batch)


def test_version():
    import repro

    assert repro.__version__


#: the four packages ``perfbench`` times the import of (``setup_s``)
STACK_PACKAGES = ("repro.sim", "repro.core", "repro.transport", "repro.workloads")

#: every ``repro`` module those four load: the striping stack a run
#: executes and nothing else — no IP stack, baselines, fault injection,
#: session layer or video model
STRIPING_STACK = {
    "repro", "repro.headers",
    "repro.sim", "repro.sim.engine", "repro.sim.channel", "repro.sim.loss",
    "repro.sim.trace",
    "repro.core", "repro.core.packet", "repro.core.cfq", "repro.core.srr",
    "repro.core.kernel", "repro.core.transform", "repro.core.striper",
    "repro.core.resequencer", "repro.core.markers", "repro.core.fec",
    "repro.transport", "repro.transport.endpoint",
    "repro.transport.discipline", "repro.transport.health",
    "repro.transport.reliability", "repro.transport.fec",
    "repro.transport.fabric", "repro.transport.fast_path",
    "repro.workloads", "repro.workloads.generators",
}

_LOADED = """
import json, sys
def repro_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")
import {packages}
stack = repro_modules()
numpy = "numpy" in sys.modules
sys.path.insert(0, {tests!r})
import frames
for shape in frames.SHAPES:
    frames.measure(shape)
print(json.dumps({{"numpy": numpy, "stack": stack, "run": repro_modules()}}))
"""


@pytest.fixture(scope="module")
def loaded():
    """What a fresh interpreter holds after importing the stack packages,
    and after then building and running the five ``tests/frames.py``
    workload shapes."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = _LOADED.format(
        packages=", ".join(STACK_PACKAGES),
        tests=os.path.dirname(os.path.abspath(__file__)),
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_library_imports_stay_stdlib_only(loaded):
    """The data path is pure python: importing it must not pull in numpy
    (~115 ms and ~13 MB per process when it did)."""
    assert not loaded["numpy"]


def test_stack_packages_import_only_the_striping_stack(loaded):
    """Everything else the packages export resolves on first use."""
    stack = set(loaded["stack"])
    assert stack == STRIPING_STACK, (
        f"extra: {sorted(stack - STRIPING_STACK)}, "
        f"missing: {sorted(STRIPING_STACK - stack)}"
    )


def test_a_run_loads_nothing_past_the_import(loaded):
    """Building and running the benchmark's shapes imports no further
    ``repro`` module, so the timed import covers all a run executes."""
    assert loaded["run"] == loaded["stack"]
