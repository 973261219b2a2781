"""Shared test fixtures and helpers."""

from __future__ import annotations

import heapq
import random
from typing import Callable, Dict, List, Optional, Sequence

import pytest

from repro.core.packet import Packet
from repro.core.striper import ListPort
from repro.sim.engine import Simulator
from repro.workloads.generators import AlternatingSizes, RandomMixSizes


#: how many characters of a test's tracked id a per-test record keeps
TRACKED_ID_WIDTH = 100


def tracked_id(nodeid: str) -> str:
    """A pytest node id in the dotted form per-test records use:
    ``tests/a/test_b.py::TestC::test_d[p]`` -> ``tests.a.test_b.TestC::test_d[p]``."""
    path, _, rest = nodeid.partition("::")
    head, bracket, params = rest.partition("[")
    *classes, name = head.split("::")
    module = path[: -len(".py")].replace("/", ".")
    return ".".join([module, *classes]) + "::" + name + bracket + params


def pytest_collection_modifyitems(config, items) -> None:
    """Fail collection when two tests' tracked ids read the same in their
    first ``TRACKED_ID_WIDTH`` characters: a record keyed on the cut id
    could not tell them apart.  Shorten the test name or give the
    parameters short explicit ``ids=``."""
    seen: Dict[str, str] = {}
    clashes = []
    for item in items:
        key = tracked_id(item.nodeid)[:TRACKED_ID_WIDTH]
        if key in seen:
            clashes.append(f"{seen[key]}\n  {item.nodeid}")
        else:
            seen[key] = item.nodeid
    if clashes:
        raise pytest.UsageError(
            f"test ids alike in their first {TRACKED_ID_WIDTH} characters:"
            "\n" + "\n".join(clashes)
        )


@pytest.fixture()
def sim() -> Simulator:
    return Simulator()


class LimitedPort(ListPort):
    """A :class:`ListPort` that refuses sends once it holds ``limit``
    packets (None: unbounded); raising ``limit`` is space appearing."""

    def __init__(self, limit: Optional[int] = None) -> None:
        super().__init__()
        self.limit = limit

    def send(self, packet, force: bool = False) -> bool:
        if not force and not self.can_accept():
            return False
        return super().send(packet, force)

    def can_accept(self) -> bool:
        return self.limit is None or len(self.sent) < self.limit


def make_packets(sizes: Sequence[int], labels: Optional[str] = None) -> List[Packet]:
    """Packets with given sizes; optional one-char labels."""
    out = []
    for i, size in enumerate(sizes):
        label = labels[i] if labels is not None else None
        out.append(Packet(size=size, seq=i, label=label))
    return out


def peek_time(sim: Simulator) -> Optional[float]:
    """Time of ``sim``'s next live event (cancelled heads are dropped), or
    None when nothing is scheduled."""
    heap = sim._heap
    while heap and heap[0][2] is None:
        heapq.heappop(heap)
        sim._cancelled -= 1
    return heap[0][0] if heap else None


def mirror_state(receiver) -> dict:
    """An :class:`SRRReceiver`'s simulated sender state (its kernel's
    fields) and its sync rounds."""
    return {
        "ptr": receiver.ptr,
        "G": receiver.round_number,
        "dc": tuple(receiver.dc),
        "sync_round": tuple(receiver.sync_round),
    }


def row_where(rows, **fields):
    """The first of ``rows`` whose attributes equal ``fields``."""
    return next(
        row for row in rows
        if all(getattr(row, name) == value for name, value in fields.items())
    )


def bytes_per_channel(channels: Sequence[Sequence[Packet]]) -> List[int]:
    """Total bytes assigned to each channel."""
    return [sum(p.size for p in channel) for channel in channels]


def random_sizes(n: int, seed: int, lo: int = 40, hi: int = 1500) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(n)]


def assert_fifo(seqs: Sequence[int]) -> None:
    assert list(seqs) == sorted(seqs), f"sequence not FIFO: {list(seqs)[:50]}"


def backlogged_packets(
    count: int, size_fn: Callable[[], int], flow: object = None
) -> List[Packet]:
    """A burst of ``count`` packets with harness sequence numbers."""
    return [
        Packet(size=size_fn(), seq=i, flow=flow) for i in range(count)
    ]


def random_mix_packets(
    count: int,
    sizes: Sequence[int] = (200, 1000, 1460),
    seed: int = 0,
) -> List[Packet]:
    """Convenience: ``count`` packets with a seeded random size mix."""
    return backlogged_packets(count, RandomMixSizes(sizes, rng=random.Random(seed)))


def alternating_packets(count: int) -> List[Packet]:
    """Convenience: the paper's alternating 1000/200-byte adversary."""
    return backlogged_packets(count, AlternatingSizes())


class RepairOrderWatch:
    """Watches a reliable pipeline's send order: ``repairs`` counts the
    fast retransmissions its ARQ sender expedited, ``passed`` the first
    transmissions a channel took while one of them still waited in the
    striper's input queue.

    Installed by wrapping the sender's ``expedite`` hook and each
    recording port's transmission report; what the pipeline sends is
    unchanged.
    """

    def __init__(self, pipeline) -> None:
        self.repairs = 0
        self.passed = 0
        reliable = pipeline.reliable
        waiting = {}
        expedite = reliable.expedite

        def watched(packets) -> None:
            self.repairs += len(packets)
            waiting.update((id(packet), packet) for packet in packets)
            expedite(packets)

        def watch_port(note_sent):
            def noted(channel, packets) -> None:
                for packet in packets:
                    waiting.pop(id(packet), None)
                if waiting and any(
                    id(queued) in waiting
                    for queued in pipeline.striper.input_queue
                ):
                    self.passed += sum(
                        1 for packet in packets
                        if reliable.unacked[packet.rseq].transmissions == 0
                    )
                note_sent(channel, packets)

            return noted

        reliable.expedite = watched
        for port in pipeline.ports:
            port._note_sent = watch_port(port._note_sent)
