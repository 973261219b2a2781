"""The public API surface documented in API.md imports and is stable."""

import importlib

import pytest

SURFACE = {
    "repro.core": [
        "Packet", "MarkerPacket", "is_marker", "Codepoint",
        "CausalFQ", "NonCausalFQ", "SRR", "SRRState", "DRR", "DKS",
        "make_rr", "make_grr", "grr_weights_for_bandwidths",
        "SeededRandomFQ", "WeightedRandomFQ",
        "LoadSharer", "TransformedLoadSharer", "stripe_sequence",
        "bytes_per_channel", "verify_reverse_correspondence",
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
        "HostCPU", "NicQueue", "RandomStreams", "Tracer",
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
        "FastStriper", "DISCIPLINES", "make_discipline",
        "resolve_discipline", "receiver_mode_for",
        "SYNC_MODELS", "sync_model_for", "make_sync_model",
        "SynchronizationModel", "MarkerSyncModel", "HashSyncModel",
        "HeaderSyncModel",
        "UdpChannelPort", "udp_ports", "bind_udp_receiver",
        "TcpChannelPort", "tcp_ports", "bind_tcp_receiver",
        "FastChannelPort", "bind_fast_receiver", "wire_size",
        "udp_session_sender", "bind_udp_session_receiver",
        "ChannelFailureDetector", "connect_duplex",
    ],
    "repro.baselines": [
        "ShortestQueueFirst", "RandomSelection", "AddressHashing",
        "MpppSender", "MpppReceiver", "MpppDiscipline",
        "BondingMux", "BondingDemux", "BondingDiscipline",
        "BondingResequencer",
    ],
    "repro.workloads": [
        "RandomMixSizes", "AlternatingSizes", "ConstantSizes",
        "PacedSource", "ClosedLoopSource",
        "synthesize_nv_trace", "PlaybackModel",
    ],
    "repro.analysis": [
        "mbps", "ThroughputWindow", "analyze_order", "ReorderReport",
        "paper_table1_rows", "extended_rows", "render_table",
    ],
    "repro.experiments": ["EXPERIMENTS", "run_experiment"],
    "repro.core.fec": [
        "FecCodec", "GF256Codec", "make_codec", "FecDecodeError",
        "gf_mul", "gf_inv", "gf_div",
    ],
}

#: names deliberately removed from the surface
REMOVED = {
    # one codec: the scaled Cauchy generator's first parity is plain XOR
    "repro.core.fec": ["XorCodec"],
}


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in SURFACE[module_name] if not hasattr(module, name)
    ]
    assert missing == [], f"{module_name} missing: {missing}"


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_removed(module_name):
    module = importlib.import_module(module_name)
    present = [name for name in REMOVED[module_name] if hasattr(module, name)]
    assert present == [], f"{module_name} still exports: {present}"


def test_version():
    import repro

    assert repro.__version__


def test_library_imports_stay_stdlib_only():
    """The data path is pure python: importing it must not pull in numpy
    (~115 ms and ~13 MB per process when it did)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys, repro.sim, repro.core, repro.transport, repro.workloads;"
        "sys.exit('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env)
    assert result.returncode == 0
