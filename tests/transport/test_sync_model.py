"""How the endpoints agree on order, and the marker-free regression suite.

Each pipeline holds its synchronization itself: the sender pipeline its
marker policy and keepalive, the receiver pipeline the reception engine
its mode builds, the marker codec and the piggyback sinks.  The
load-bearing guarantee: a hash-synchronized (``direct``) receiver makes
**zero marker-codec calls** and allocates **zero resequencer buffers** —
checked here at the pipeline and through the full socket receive path,
with the codec monkeypatched to count invocations.
"""

import pytest

from repro.baselines.bonding import BondingResequencer
from repro.baselines.mppp import MpppReceiver
from repro.core.markers import SRRReceiver, encode_marker
from repro.core.packet import MarkerPacket, Packet
from repro.core.resequencer import DirectReception
from repro.core.striper import ListPort, MarkerPolicy
from repro.transport import endpoint as endpoint_module
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
    make_discipline,
    receiver_mode_for,
)

MARKER_FREE = ("address_hash", "sprinklers")


def marker_frame(round_number=1):
    return encode_marker(
        MarkerPacket(channel=0, round_number=round_number, deficit=0.0)
    )


def direct_pipeline(n_channels=2, **options):
    return StripeReceiverPipeline(n_channels, None, mode="direct", **options)


class TestHashSyncModel:
    """The marker-free (``direct``) family of one pipeline pair."""

    def test_direct_reception_no_resequencer(self):
        pipeline = direct_pipeline(4)
        assert isinstance(pipeline.resequencer, DirectReception)
        # No per-channel buffers exist at all — not merely empty ones.
        assert not hasattr(pipeline.resequencer, "buffers")

    def test_rejects_marker_policy(self):
        for name in MARKER_FREE:
            with pytest.raises(ValueError, match="no.*marker policy"):
                StripeSenderPipeline(
                    [ListPort(), ListPort()], name,
                    marker_policy=MarkerPolicy(1),
                )

    def test_keepalive_is_meaningless(self, sim):
        for name in MARKER_FREE:
            with pytest.raises(ValueError, match="keepalive"):
                StripeSenderPipeline(
                    [ListPort(), ListPort()], name,
                    sim=sim, marker_keepalive_s=0.01,
                )

    def test_decode_wire_counts_strays_without_codec(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            endpoint_module, "decode_marker", lambda data: calls.append(data)
        )
        pipeline = direct_pipeline()
        assert pipeline.push(0, marker_frame()) == []
        assert pipeline.push(1, b"\x00garbage") == []
        assert pipeline.stray_wire_frames == 2
        assert pipeline.marker_decode_errors == 0
        assert calls == []  # a real marker frame never reaches the codec

    def test_stray_marker_objects_counted_and_dropped(self):
        delivered = []
        pipeline = direct_pipeline(on_message=delivered.append)
        out = pipeline.push(
            0, MarkerPacket(channel=0, round_number=1, deficit=0.0)
        )
        assert out == []
        assert delivered == [] and pipeline.delivered == []
        assert pipeline.resequencer.stray_markers == 1
        assert pipeline.receiver_state()["stray_markers"] == 1

    def test_snapshot_stateless(self):
        pipeline = direct_pipeline()
        engine = pipeline.resequencer
        assert engine.snapshot() is None
        assert pipeline.snapshot()["engine"] is None
        engine.restore(None)  # no-op
        with pytest.raises(ValueError, match="stateless"):
            engine.restore({"round": 3})

    def test_receiver_state_shape(self):
        state = direct_pipeline(3).receiver_state()
        assert state["mode"] == "direct"
        assert state["buffered"] == 0
        assert state["max_buffered"] == 0
        assert state["delivered"] == 0
        assert state["stray_wire_frames"] == 0
        assert "sync_model" not in state  # no model layer to name


def srr_algorithm(n=2):
    from repro.core.srr import SRR

    return SRR([1000.0] * n)


class TestMarkerSyncModel:
    """The marker and header families of the same pipeline pair."""

    def test_families(self):
        built = {
            mode: type(
                StripeReceiverPipeline(2, algorithm, mode=mode).resequencer
            )
            for mode, algorithm in (
                ("marker", srr_algorithm()),
                ("mppp", None),
                ("bonding", None),
            )
        }
        assert built == {
            "marker": SRRReceiver,
            "mppp": MpppReceiver,
            "bonding": BondingResequencer,
        }
        with pytest.raises(ValueError, match="unknown resequencing mode"):
            StripeReceiverPipeline(2, None, mode="telepathy")

    def test_decode_errors_counted(self):
        pipeline = StripeReceiverPipeline(2, None, mode="none")
        assert pipeline.push(0, b"\x00bad") == []
        assert pipeline.marker_decode_errors == 1
        # The count lives on the pipeline: a new epoch's engine keeps it.
        pipeline.restart_reception("srr", 2, markers=True)
        assert pipeline.receiver_state()["marker_decode_errors"] == 1
        pipeline.push(0, marker_frame(round_number=7))
        assert pipeline.resequencer.stats.markers_received == 1
        assert pipeline.marker_decode_errors == 1

    def test_keepalive_requires_policy_and_sim(self, sim):
        with pytest.raises(ValueError, match="marker policy"):
            StripeSenderPipeline(
                [ListPort(), ListPort()], srr_algorithm(),
                sim=sim, marker_keepalive_s=0.01,
            )
        with pytest.raises(ValueError, match="event scheduler"):
            StripeSenderPipeline(
                [ListPort(), ListPort()], srr_algorithm(),
                marker_policy=MarkerPolicy(1), marker_keepalive_s=0.01,
            )


class TestMarkerFreeReceivePath:
    """End-to-end regression: marker-free receivers never touch the codec
    and never allocate resequencer state."""

    def _count_codec(self, monkeypatch):
        calls = {"n": 0}
        real = endpoint_module.decode_marker

        def counting(data):
            calls["n"] += 1
            return real(data)

        monkeypatch.setattr(endpoint_module, "decode_marker", counting)
        return calls

    @pytest.mark.parametrize("name", MARKER_FREE)
    def test_zero_codec_calls_through_pipeline(self, name, monkeypatch):
        calls = self._count_codec(monkeypatch)
        assert receiver_mode_for(make_discipline(name, 2)) == "direct"
        delivered = []
        pipeline = direct_pipeline(on_message=delivered.append)
        assert isinstance(pipeline.resequencer, DirectReception)
        # A genuine encoded marker frame arrives on the wire (e.g. from a
        # misconfigured marker-mode sender): dropped undecoded.
        assert pipeline.push(0, marker_frame()) == []
        assert calls["n"] == 0
        assert pipeline.stray_wire_frames == 1
        pipeline.push(0, Packet(size=100, seq=0))
        pipeline.push(1, Packet(size=100, seq=1))
        assert [p.seq for p in delivered] == [0, 1]
        assert calls["n"] == 0

    def test_marker_pipeline_does_decode(self, monkeypatch):
        # Positive control: the patch point is live — a marker-mode
        # pipeline decodes the same frame through the counted codec.
        calls = self._count_codec(monkeypatch)
        disc = make_discipline("srr", 2)
        pipeline = StripeReceiverPipeline(2, disc.algorithm, mode="marker")
        pipeline.push(0, marker_frame())
        assert calls["n"] == 1

    @pytest.mark.parametrize("fast", [False, True])
    def test_socket_testbed_zero_codec_calls(self, sim, fast, monkeypatch):
        calls = self._count_codec(monkeypatch)
        from repro.experiments.socket_harness import (
            SocketTestbedConfig,
            build_socket_testbed,
        )

        config = SocketTestbedConfig(
            n_channels=2,
            link_mbps=(10.0,) * 2,
            prop_delay_s=(1e-3,) * 2,
            loss_rates=(0.0,) * 2,
            discipline="sprinklers",
            discipline_options={"initial_share": 1.0},
            fast=fast,
        )
        testbed = build_socket_testbed(sim, config)
        sim.run(until=0.1)
        assert len(testbed.deliveries) > 0
        assert calls["n"] == 0
        state = testbed.receiver.receiver_state()
        assert state["mode"] == "direct"
        assert state["max_buffered"] == 0
