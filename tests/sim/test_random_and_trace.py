"""Unit tests for the tracer, and for seeded random streams, which only
these tests use."""

import hashlib
import random
from typing import Dict

from repro.sim.trace import Tracer, NULL_TRACER


class RandomStreams:
    """A factory of independent, named :class:`random.Random` streams.

    Usage::

        streams = RandomStreams(seed=42)
        loss_rng = streams.stream("channel0.loss")
        skew_rng = streams.stream("channel0.skew")

    The same ``(seed, name)`` pair always yields the same stream, and
    repeated calls with the same name return the same object.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the RNG stream for ``name``, creating it if needed."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RandomStreams":
        """Derive a child factory whose streams are independent of ours."""
        digest = hashlib.sha256(f"{self.seed}:fork:{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("loss")
        b = RandomStreams(7).stream("loss")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = streams.stream("loss")
        b = streams.stream("skew")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x")
        b = RandomStreams(2).stream("x")
        assert a.random() != b.random()

    def test_same_name_returns_same_object(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_fork_independent(self):
        parent = RandomStreams(3)
        child = parent.fork("worker")
        assert parent.stream("x").random() != child.stream("x").random()

    def test_fork_deterministic(self):
        a = RandomStreams(3).fork("w").stream("x").random()
        b = RandomStreams(3).fork("w").stream("x").random()
        assert a == b


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tracer.emit(1.0, "rx", "deliver", channel=0)
        tracer.emit(2.0, "rx", "skip", channel=1)
        tracer.emit(3.0, "tx", "deliver", channel=0)
        assert tracer.count(kind="deliver") == 2
        assert tracer.count(source="rx") == 2
        assert tracer.count(kind="deliver", source="rx") == 1

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, "x", "y")
        assert tracer.events == []

    def test_null_tracer_is_disabled(self):
        NULL_TRACER.emit(0.0, "a", "b")
        assert NULL_TRACER.events == []

    def test_max_events_cap(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.emit(float(i), "s", "k")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_str_rendering(self):
        tracer = Tracer()
        tracer.emit(1.5, "receiver", "skip", channel=2, G=4)
        text = str(tracer.events[0])
        assert "receiver" in text and "skip" in text and "channel=2" in text
