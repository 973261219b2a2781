"""Randomized equivalence: native kernels vs the immutable CausalFQ path.

The scheduler kernel is only allowed to be *faster*, never *different*:
for any quanta and any packet-size sequence, the native SRR / RR / GRR
kernels must produce byte-identical channel assignments and identical
``(R, D)`` marker state to stepping the frozen ``(s0, f, g)`` dataclass
path.  Any divergence would silently break logical reception (the
receiver's simulation would drift from the sender).
"""

from hypothesis import given, settings, strategies as st

from repro.core.cfq import fq_service_order
from repro.core.kernel import (
    CFQKernelAdapter,
    SRRKernel,
    kernel_for,
)
from repro.core.packet import Packet
from repro.core.schemes import SeededRandomFQ
from repro.core.srr import SRR, make_grr, make_rr

sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=2000), min_size=1, max_size=300
)
quanta_strategy = st.lists(
    st.integers(min_value=1, max_value=3000), min_size=2, max_size=5
)
weights_strategy = st.lists(
    st.integers(min_value=1, max_value=7), min_size=2, max_size=5
)


def frozen_assignments(algorithm, sizes):
    """Reference: step the immutable path, collecting channel + states."""
    state = algorithm.initial_state()
    channels = []
    states = []
    for size in sizes:
        channels.append(algorithm.select(state))
        state = algorithm.update(state, size)
        states.append(state)
    return channels, states


class TestKernelEquivalence:
    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=150, deadline=None)
    def test_srr_kernel_stepwise_identical(self, sizes, quanta):
        """step() matches select/update packet by packet, including the
        full (ptr, R, dc) state after every packet."""
        algorithm = SRR(quanta)
        kernel = SRRKernel(algorithm)
        expected_channels, expected_states = frozen_assignments(
            algorithm, sizes
        )
        for size, channel, state in zip(
            sizes, expected_channels, expected_states
        ):
            assert kernel.peek() == channel
            assert kernel.step(size) == channel
            assert kernel.snapshot() == state

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=150, deadline=None)
    def test_srr_kernel_batched_identical(self, sizes, quanta):
        algorithm = SRR(quanta)
        expected_channels, expected_states = frozen_assignments(
            algorithm, sizes
        )
        kernel = SRRKernel(algorithm)
        assert kernel.assign_many(sizes) == expected_channels
        assert kernel.snapshot() == expected_states[-1]

    @given(sizes=sizes_strategy, n=st.integers(min_value=2, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_rr_kernel_identical(self, sizes, n):
        algorithm = make_rr(n)
        expected_channels, expected_states = frozen_assignments(
            algorithm, sizes
        )
        kernel = SRRKernel(algorithm)
        assert kernel.assign_many(sizes) == expected_channels
        assert kernel.snapshot() == expected_states[-1]

    @given(sizes=sizes_strategy, weights=weights_strategy)
    @settings(max_examples=100, deadline=None)
    def test_grr_kernel_identical(self, sizes, weights):
        algorithm = make_grr(weights)
        expected_channels, expected_states = frozen_assignments(
            algorithm, sizes
        )
        kernel = SRRKernel(algorithm)
        assert kernel.assign_many(sizes) == expected_channels
        assert kernel.snapshot() == expected_states[-1]

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=100, deadline=None)
    def test_marker_numbers_identical(self, sizes, quanta):
        """(R, D) marker state: next_numbers agrees with the immutable
        path's next_number_for_channel on every channel after every
        packet."""
        algorithm = SRR(quanta)
        kernel = SRRKernel(algorithm)
        state = algorithm.initial_state()
        for size in sizes:
            state = algorithm.update(state, size)
            kernel.step(size)
            assert kernel.implicit_number() == state.implicit_number()
            assert kernel.next_numbers() == [
                algorithm.next_number_for_channel(state, channel)
                for channel in range(algorithm.n_channels)
            ]

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=100, deadline=None)
    def test_adapter_matches_native_kernel(self, sizes, quanta):
        """CFQKernelAdapter over SRR == native SRRKernel (same algorithm,
        two kernel implementations)."""
        algorithm = SRR(quanta)
        native = SRRKernel(algorithm)
        adapted = CFQKernelAdapter(algorithm)
        assert native.assign_many(sizes) == adapted.assign_many(sizes)
        assert native.snapshot() == adapted.snapshot()

    @given(sizes=sizes_strategy, seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=50, deadline=None)
    def test_kernel_for_randomized_scheme(self, sizes, seed):
        """kernel_for falls back to the adapter for non-SRR algorithms and
        still matches the frozen path exactly."""
        algorithm = SeededRandomFQ(3, seed=seed)
        kernel = kernel_for(algorithm)
        assert isinstance(kernel, CFQKernelAdapter)
        expected_channels, _ = frozen_assignments(algorithm, sizes)
        assert kernel.assign_many(sizes) == expected_channels

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=75, deadline=None)
    def test_fq_service_order_unchanged(self, sizes, quanta):
        """The kernelized FQ driver services queues in the same order the
        frozen-state driver did (replayed here as the reference)."""
        algorithm = SRR(quanta)
        n = algorithm.n_channels
        queues = [[] for _ in range(n)]
        # Pre-stripe with the reference path so every queue is consistent.
        state = algorithm.initial_state()
        packets = []
        for index, size in enumerate(sizes):
            packet = Packet(size, seq=index)
            packets.append(packet)
            queues[algorithm.select(state)].append(packet)
            state = algorithm.update(state, size)
        order = fq_service_order(algorithm, queues)
        assert [p.uid for p in order] == [p.uid for p in packets]
