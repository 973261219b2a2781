"""Synchronization-model behavior and the marker-free regression suite.

The refactor's load-bearing guarantee: a hash-synchronized receiver makes
**zero marker-codec calls** and allocates **zero resequencer buffers** —
checked here both at the unit level and through the full socket receive
path with the codec monkeypatched to count invocations.
"""

import pytest

from repro.core.markers import encode_marker
from repro.core.packet import MarkerPacket
from repro.core.resequencer import DirectReception
from repro.core.striper import MarkerPolicy
from repro.transport import sync_model as sync_module
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    make_discipline,
    receiver_mode_for,
)
from repro.transport.sync_model import (
    HashSyncModel,
    HeaderSyncModel,
    MarkerSyncModel,
    make_sync_model,
)


class TestHashSyncModel:
    def test_direct_reception_no_resequencer(self):
        model = make_sync_model("direct", n_channels=4)
        assert isinstance(model, HashSyncModel)
        assert isinstance(model.receiver, DirectReception)
        # No per-channel buffers exist at all — not merely empty ones.
        assert not hasattr(model.receiver, "buffers")

    def test_rejects_marker_policy(self):
        with pytest.raises(ValueError, match="no.*marker policy"):
            make_sync_model(
                "direct", n_channels=2, marker_policy=MarkerPolicy(1)
            )

    def test_keepalive_is_meaningless(self):
        model = make_sync_model("direct", n_channels=2)
        with pytest.raises(ValueError, match="keepalive"):
            model.start_keepalive(None, None, 0.01)

    def test_decode_wire_counts_strays_without_codec(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            sync_module, "decode_marker",
            lambda data: calls.append(data),
        )
        model = make_sync_model("direct", n_channels=2)
        frame = encode_marker(MarkerPacket(channel=0, round_number=1, deficit=0.0))
        assert model.decode_wire(frame) is None
        assert model.decode_wire(b"\x00garbage") is None
        assert model.stray_wire_frames == 2
        assert calls == []  # a real marker frame never reaches the codec

    def test_stray_marker_objects_counted_and_dropped(self):
        delivered = []
        model = make_sync_model(
            "direct", n_channels=2, on_deliver=delivered.append
        )
        out = model.receiver.push(
            0, MarkerPacket(channel=0, round_number=1, deficit=0.0)
        )
        assert out == []
        assert delivered == []
        assert model.receiver.stray_markers == 1
        assert model.receiver_state()["stray_markers"] == 1

    def test_snapshot_stateless(self):
        engine = make_sync_model("direct", n_channels=2).receiver
        assert engine.snapshot() is None
        engine.restore(None)  # no-op
        with pytest.raises(ValueError, match="stateless"):
            engine.restore({"round": 3})

    def test_receiver_state_shape(self):
        model = make_sync_model("direct", n_channels=3)
        state = model.receiver_state()
        assert state["sync_model"] == "hash"
        assert state["mode"] == "direct"
        assert state["buffered"] == 0
        assert state["max_buffered"] == 0


def srr_algorithm(n=2):
    from repro.core.srr import SRR

    return SRR([1000.0] * n)


class TestMarkerSyncModel:
    def test_families(self):
        marker = make_sync_model("marker", srr_algorithm(), n_channels=2)
        assert isinstance(marker, MarkerSyncModel)
        assert marker.marker_codec is True
        header = make_sync_model("mppp", None, n_channels=2)
        assert isinstance(header, HeaderSyncModel)
        assert header.kind == "header"
        with pytest.raises(ValueError, match="unknown receiver mode"):
            make_sync_model("telepathy", None, n_channels=2)

    def test_decode_errors_counted(self):
        model = make_sync_model("none", None, n_channels=2)
        assert model.decode_wire(b"\x00bad") is None
        assert model.marker_decode_errors == 1
        frame = encode_marker(MarkerPacket(channel=1, round_number=7, deficit=0.0))
        decoded = model.decode_wire(frame)
        assert decoded is not None and decoded.round_number == 7

    def test_keepalive_requires_policy_and_sim(self):
        model = make_sync_model("marker", srr_algorithm(), n_channels=2)
        with pytest.raises(ValueError, match="marker policy"):
            model.start_keepalive(None, object(), 0.01)


class TestMarkerFreeReceivePath:
    """End-to-end regression: marker-free receivers never touch the codec
    and never allocate resequencer state."""

    def _count_codec(self, monkeypatch):
        calls = {"n": 0}
        real = sync_module.decode_marker

        def counting(data):
            calls["n"] += 1
            return real(data)

        monkeypatch.setattr(sync_module, "decode_marker", counting)
        return calls

    @pytest.mark.parametrize("name", ["address_hash", "sprinklers"])
    def test_zero_codec_calls_through_pipeline(self, name, monkeypatch):
        calls = self._count_codec(monkeypatch)
        disc = make_discipline(name, 2)
        assert receiver_mode_for(disc) == "direct"
        delivered = []
        pipeline = StripeReceiverPipeline(
            2, None, mode="direct", on_message=delivered.append
        )
        assert isinstance(pipeline.sync, HashSyncModel)
        # A genuine encoded marker frame arrives on the wire (e.g. from a
        # misconfigured marker-mode sender): dropped undecoded.
        frame = encode_marker(MarkerPacket(channel=0, round_number=1, deficit=0.0))
        assert pipeline.push_wire(0, frame) == []
        assert calls["n"] == 0
        assert pipeline.sync.stray_wire_frames == 1
        from repro.core.packet import Packet

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
        frame = encode_marker(MarkerPacket(channel=0, round_number=1, deficit=0.0))
        pipeline.push_wire(0, frame)
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
        assert state["sync_model"] == "hash"
        assert state["max_buffered"] == 0
