"""The paper's primary contribution: fair striping with logical reception.

Public surface:

* Packets: :class:`Packet`, :class:`MarkerPacket`.
* CFQ algorithms: :class:`CausalFQ`, :class:`SRR` (plus :func:`make_rr`,
  :func:`make_grr`), :class:`SeededRandomFQ`, :class:`DRR` (non-causal
  contrast case).
* The transformation: :class:`TransformedLoadSharer`,
  :func:`verify_reverse_correspondence` (Theorem 3.1 as code).
* Sender: :class:`Striper` with :class:`MarkerPolicy`.
* Receiver: :class:`Resequencer` (Theorem 4.1), :class:`SRRReceiver`
  (marker recovery, Theorem 5.1), :class:`NullResequencer` (ablation).
* Fairness: :func:`srr_fairness_report` (Theorem 3.2 bound).
* Marker-free striping: :class:`SprinklersDiscipline` (per-flow
  power-of-two stripes over :func:`stripe_size_for` /
  :class:`FlowRateEstimator` — in-order without markers or resequencing).
* Sessions: :class:`StripeSenderSession` / :class:`StripeReceiverSession`
  (reset and reconfiguration, section 5).

Packets, the schedulers and kernels, the transformation, the striper and
both receivers import with the package; the random scheme, the
fairness report, Sprinklers and the session layer on first use.
"""

from repro import lazy_exports
from repro.core.packet import Codepoint, MarkerPacket, Packet, is_marker
from repro.core.cfq import (
    Capabilities,
    CausalFQ,
    NonCausalFQ,
    fq_service_order,
    fq_service_order_noncausal,
)
from repro.core.srr import (
    DRR,
    SRR,
    SRRState,
    grr_weights_for_bandwidths,
    make_grr,
    make_rr,
)
from repro.core.kernel import (
    CFQKernelAdapter,
    SchedulerKernel,
    SRRKernel,
    kernel_for,
)
from repro.core.transform import (
    LoadSharer,
    TransformedLoadSharer,
    stripe_sequence,
    verify_reverse_correspondence,
)
from repro.core.striper import ChannelPort, ListPort, MarkerPolicy, Striper
from repro.core.resequencer import (
    RESEQ_MODES,
    NullResequencer,
    Resequencer,
    make_resequencer,
)
from repro.core.markers import (
    MARKER_WIRE_BYTES,
    ReceiverSnapshot,
    SRRReceiver,
    SRRReceiverStats,
    decode_marker,
    encode_marker,
    piggybacked_credit,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "schemes": ("SeededRandomFQ",),
    "fairness": (
        "FairnessReport",
        "jain_fairness_index",
        "normalized_shares",
        "srr_fairness_report",
    ),
    "sprinklers": (
        "FlowRateEstimator",
        "SprinklersDiscipline",
        "stripe_size_for",
    ),
    "session": (
        "LocalChecker",
        "ResetAckPacket",
        "ResetPacket",
        "ResetRequestPacket",
        "StripeConfig",
        "StripeReceiverSession",
        "StripeSenderSession",
    ),
})

__all__ = [
    "Codepoint",
    "Packet",
    "MarkerPacket",
    "is_marker",
    "Capabilities",
    "CausalFQ",
    "NonCausalFQ",
    "fq_service_order",
    "fq_service_order_noncausal",
    "SRR",
    "SRRState",
    "SchedulerKernel",
    "SRRKernel",
    "CFQKernelAdapter",
    "kernel_for",
    "DRR",
    "make_rr",
    "make_grr",
    "grr_weights_for_bandwidths",
    "SeededRandomFQ",
    "LoadSharer",
    "TransformedLoadSharer",
    "stripe_sequence",
    "verify_reverse_correspondence",
    "Striper",
    "MarkerPolicy",
    "ChannelPort",
    "ListPort",
    "Resequencer",
    "NullResequencer",
    "make_resequencer",
    "RESEQ_MODES",
    "SRRReceiver",
    "encode_marker",
    "decode_marker",
    "piggybacked_credit",
    "MARKER_WIRE_BYTES",
    "SRRReceiverStats",
    "ReceiverSnapshot",
    "FairnessReport",
    "srr_fairness_report",
    "jain_fairness_index",
    "normalized_shares",
    "SprinklersDiscipline",
    "FlowRateEstimator",
    "stripe_size_for",
    "StripeConfig",
    "StripeSenderSession",
    "StripeReceiverSession",
    "LocalChecker",
    "ResetPacket",
    "ResetAckPacket",
    "ResetRequestPacket",
]
