"""Unit tests for the discrete-event engine."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]

    def test_zero_delay_event_runs_after_current(self, sim):
        order = []

        def first():
            sim.schedule(0.0, lambda: order.append("second"))
            order.append("first")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]


class TestRunControl:
    def test_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(5.0, seen.append, 5)
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0  # clock advanced to the horizon
        assert len(sim._heap) == 1

    def test_run_resumes_after_until(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(5.0, seen.append, 5)
        sim.run(until=2.0)
        sim.run()
        assert seen == [1, 5]

    def test_max_events_limits_processing(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(float(i + 1), seen.append, i)
        processed = sim.run(max_events=3)
        assert processed == 3
        assert seen == [0, 1, 2]

    def test_run_returns_count(self, sim):
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 4
        assert sim.events_processed == 4

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_processes_single_event(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        assert sim.run(max_events=1) == 1
        assert seen == ["a"]
        assert sim.run(max_events=1) == 1
        assert sim.run(max_events=1) == 0


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_one_of_many(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        target = sim.schedule(2.0, seen.append, "b")
        sim.schedule(3.0, seen.append, "c")
        target.cancel()
        sim.run()
        assert seen == ["a", "c"]

    def test_peek_time_skips_cancelled(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.run(max_events=1) == 1 and sim.now == 2.0

    def test_peek_time_empty(self, sim):
        assert sim.run(max_events=1) == 0

    def test_cancel_during_run(self, sim):
        seen = []
        later = sim.schedule(2.0, seen.append, "late")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert seen == []


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def tick(n):
                trace.append((sim.now, n))
                if n < 20:
                    sim.schedule(0.1 * (n % 3 + 1), tick, n + 1)

            sim.schedule(0.0, tick, 0)
            sim.run()
            return trace

        assert run_once() == run_once()


class TestSlotFreeScheduling:
    def test_schedule_call_runs_at_time(self, sim):
        seen = []
        sim.schedule_call(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_schedule_call_orders_with_handles(self, sim):
        order = []
        sim.schedule(1.0, order.append, "handle")
        sim.schedule_call(1.0, lambda: order.append("call"))
        sim.run()
        assert order == ["handle", "call"]  # insertion order breaks the tie

    def test_schedule_call_carries_arguments(self, sim):
        seen = []
        sim.schedule_call(1.0, lambda *args: seen.append(args), "a", 2)
        sim.schedule_call(1.0, seen.append, "b")
        sim.run()
        assert seen == [("a", 2), "b"]
        assert sim.events_processed == 2

    def test_rearmed_call_keeps_its_arguments(self, sim):
        seen = []

        def tick(label, left):
            seen.append((label, sim.now))
            return sim.now + 1.0 if len(seen) < left else None

        sim.schedule_call(1.0, tick, "t", 3)
        sim.run()
        assert seen == [("t", 1.0), ("t", 2.0), ("t", 3.0)]

    def test_schedule_call_rejects_past(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_call(1.0, lambda: None)


class TestCompaction:
    def test_cancelled_events_are_reclaimed(self, sim):
        """Regression: cancelled timers must not occupy heap slots forever."""
        live = [sim.schedule(10.0 + i, lambda: None) for i in range(10)]
        dead = [sim.schedule(20.0 + i, lambda: None) for i in range(190)]
        assert len(sim._heap) == 200
        for event in dead:
            event.cancel()
        # Compaction fires whenever >50% of a >64-entry heap is dead, so
        # the heap must have shrunk to a small residue: the 10 live events
        # plus at most a minority of dead entries under the threshold.
        assert len(sim._heap) < 70
        assert sim._cancelled * 2 <= len(sim._heap) or len(sim._heap) <= 64
        assert all(event._entry[2] is not None for event in live)

    def test_heap_does_not_grow_under_cancel_churn(self, sim):
        """The retransmit-timer pattern: schedule, cancel, reschedule."""
        peak = 0
        for i in range(5000):
            event = sim.schedule(1000.0 + i, lambda: None)
            event.cancel()
            peak = max(peak, len(sim._heap))
        assert peak < 200

    def test_events_fire_correctly_after_compaction(self, sim):
        seen = []
        keep = []
        for i in range(50):
            keep.append(sim.schedule(1.0 + i, seen.append, i))
        doomed = [sim.schedule(100.0 + i, seen.append, -1) for i in range(150)]
        for event in doomed:
            event.cancel()
        assert len(sim._heap) < 200  # compacted at least once
        sim.run()
        assert seen == list(range(50))

    def test_compaction_during_run_keeps_heap_identity(self, sim):
        """A callback-triggered compaction must not strand the run loop."""
        seen = []
        doomed = [sim.schedule(50.0 + i, seen.append, -1) for i in range(150)]

        def cancel_all_then_schedule():
            for event in doomed:
                event.cancel()
            sim.schedule(1.0, seen.append, "after")

        sim.schedule(1.0, cancel_all_then_schedule)
        sim.schedule(40.0, seen.append, "mid")
        sim.run()
        assert seen == ["after", "mid"]


#: delays that collide (0.0 = "at now", repeated values) and ones that
#: do not, so schedules mix shared and single-event timestamps
_DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.75)

#: one event: (delay index, use schedule_call, handle to cancel, children)
_event_specs = st.recursive(
    st.tuples(
        st.integers(0, len(_DELAYS) - 1), st.booleans(),
        st.none() | st.integers(0, 30), st.just(()),
    ),
    lambda children: st.tuples(
        st.integers(0, len(_DELAYS) - 1), st.booleans(),
        st.none() | st.integers(0, 30),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=25,
)


def _play(program, batch, until, max_events, trains=None, step=False):
    """Run ``program`` to the horizon in calls of ``max_events``; returns
    the ``(time, id)`` trace, the per-call counts and the final clock.

    With ``trains`` each item of ``program`` is ``(spec, repeats)`` and a
    top-level slot-free event comes back ``repeats`` more times, one delay
    apart: ``"call"`` re-arms it with a ``schedule_call`` as the callback's
    last act, ``"return"`` by returning the time.  ``step`` drives the
    engine one ``step()`` at a time instead of through ``run()``.
    """
    sim = Simulator()
    trace = []
    handles = []
    ids = itertools.count()

    def plant(spec, repeats=0):
        delay, slot_free, cancel, children = spec
        ident = next(ids)  # planted in execution order, like the seq
        left = [repeats]

        def fire():
            trace.append((sim.now, ident))
            for child in children:
                plant(child)
            if cancel is not None and handles:
                handles[cancel % len(handles)].cancel()
            if left[0]:
                left[0] -= 1
                if trains == "return":
                    return sim.now + _DELAYS[delay]
                sim.schedule_call(sim.now + _DELAYS[delay], fire)
            return None

        if slot_free:
            sim.schedule_call(sim.now + _DELAYS[delay], fire)
        else:
            handles.append(sim.schedule(_DELAYS[delay], fire))

    for item in program:
        if trains is None:
            plant(item)
        else:
            plant(item[0], item[1] if item[0][1] else 0)
    counts = []
    while True:
        if step:
            counts.append(sim.run(until=until, max_events=1))
        else:
            counts.append(
                sim.run(until=until, max_events=max_events, batch=batch)
            )
        if counts[-1] == 0 or (max_events is None and not step):
            return trace, counts, sim.now, sim.events_processed


class TestBatchPop:
    @given(
        program=st.lists(_event_specs, min_size=1, max_size=8),
        until=st.none() | st.sampled_from([0.0, 0.5, 1.6, 3.0]),
        max_events=st.none() | st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_runs_the_unbatched_trace(self, program, until, max_events):
        trace, counts, now, total = _play(program, False, until, max_events)
        b_trace, b_counts, b_now, b_total = _play(
            program, True, until, max_events
        )
        assert (b_trace, b_now, b_total) == (trace, now, total)
        assert sum(b_counts) == sum(counts) == len(trace)
        if max_events is None:
            assert b_counts == counts
            return
        # The budget is checked between timestamps: a call may overshoot
        # it, but only to finish the timestamp the budget ran out in.
        done = 0
        for count in b_counts[:-1]:
            assert count >= min(max_events, len(trace) - done)
            budget_time = trace[done + max_events - 1][0] if (
                count > max_events
            ) else None
            for time, _ in trace[done + max_events:done + count]:
                assert time == budget_time
            done += count
        times = [time for time, _ in trace]
        if len(set(times)) == len(times):
            assert b_counts == counts

    def test_batch_matches_unbatched_order(self):
        def run_once(batch):
            sim = Simulator()
            trace = []

            def tick(n):
                trace.append((sim.now, n))
                if n < 30:
                    sim.schedule(0.1 * (n % 3), tick, n + 1)

            for i in range(5):
                sim.schedule(0.0, tick, 0)
            processed = sim.run(batch=batch)
            return trace, processed

        assert run_once(False) == run_once(True)

    def test_batch_honors_cancellation_at_execution(self, sim):
        seen = []
        holder = {}
        # The canceller has the earlier seq, so it runs first within the
        # batch and must suppress the already-popped later member.
        sim.schedule(1.0, lambda: holder["late"].cancel())
        holder["late"] = sim.schedule(1.0, seen.append, "late")
        sim.run(batch=True)
        assert seen == []

    def test_batch_respects_until(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.run(until=1.5, batch=True)
        assert seen == ["a"]
        assert sim.now == 1.5


class TestRearm:
    """A slot-free callback that returns a time is run again at that time,
    exactly as if it had called ``schedule_call`` as its last act."""

    @given(
        program=st.lists(
            st.tuples(_event_specs, st.integers(0, 3)), min_size=1, max_size=6
        ),
        until=st.none() | st.sampled_from([0.0, 0.5, 1.6, 3.0]),
        max_events=st.none() | st.integers(1, 6),
        batch=st.booleans(),
        step=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_returning_a_time_is_schedule_call_as_the_last_act(
        self, program, until, max_events, batch, step
    ):
        # Same trace means same (time, seq) order: ids are drawn in
        # planting order and every same-timestamp mix runs by seq.
        by_call = _play(program, batch, until, max_events, "call", step)
        by_return = _play(program, batch, until, max_events, "return", step)
        assert by_return == by_call

    def test_rearmed_entry_orders_by_seq_within_its_instant(self, sim):
        seen = []
        left = [2]

        def train():
            seen.append(("train", sim.now))
            sim.schedule_call(sim.now + 1.0, lambda: seen.append("planted"))
            if left[0]:
                left[0] -= 1
                return sim.now + 1.0  # after "planted": the later seq
            return None

        sim.schedule_call(1.0, train)
        sim.run(batch=True)
        assert seen == [
            ("train", 1.0), "planted", ("train", 2.0), "planted",
            ("train", 3.0), "planted",
        ]
        assert len(sim._heap) == 0

    def test_rearm_into_the_past_is_rejected(self, sim):
        sim.schedule_call(2.0, lambda: 1.0)
        with pytest.raises(SimulationError):
            sim.run()

    def test_handle_events_ignore_their_return_value(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            return sim.now + 1.0

        sim.schedule(1.0, tick)
        sim.run(until=10.0)
        assert fired == [1.0]


class TestStepSemantics:
    def test_step_rejects_reentrancy(self, sim):
        errors = []

        def reenter():
            try:
                sim.run(max_events=1)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run(max_events=1)
        assert len(errors) == 1

    def test_step_respects_until_and_advances_clock(self, sim):
        seen = []
        sim.schedule(2.0, seen.append, "late")
        assert sim.run(until=1.0, max_events=1) == 0
        assert sim.now == 1.0  # clock advanced to the horizon, like run()
        assert seen == []
        assert sim.run(until=3.0, max_events=1) == 1
        assert seen == ["late"]

    def test_step_counts_events_processed(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        sim.run(max_events=1)
        assert sim.events_processed == 2

    def test_step_skips_cancelled(self, sim):
        seen = []
        doomed = sim.schedule(1.0, seen.append, "dead")
        sim.schedule(2.0, seen.append, "live")
        doomed.cancel()
        assert sim.run(max_events=1) == 1
        assert seen == ["live"]
