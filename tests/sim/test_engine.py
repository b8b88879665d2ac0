"""Simulation-kernel tests."""

import weakref

import numpy as np
import pytest

from repro.obs.trace import Tracer, tracing
from repro.sim import Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(3.0, lambda: fired.append(3))
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(2.0, lambda: fired.append(2))
        eng.run()
        assert fired == [1, 2, 3]

    def test_ties_broken_by_priority_then_insertion(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append("late"), priority=5)
        eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(1.0, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a", "b", "late"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(2.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [2.5]
        assert eng.now == 2.5

    def test_schedule_in_relative(self):
        eng = Engine()
        seen = []
        eng.schedule_in(1.0, lambda: eng.schedule_in(2.0, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [3.0]

    def test_scheduling_in_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError, match="before current time"):
            eng.schedule(1.0, lambda: None)

    def test_scheduling_at_now_allowed(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: eng.schedule(1.0, lambda: fired.append(eng.now)))
        eng.run()
        assert fired == [1.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            Engine().schedule_in(-1.0, lambda: None)


class TestNaNTimes:
    """NaN compares false against everything, so a ``time < now`` guard
    lets it through and the event then fires out of order."""

    def test_schedule_rejects_nan(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="t=nan"):
            eng.schedule(float("nan"), lambda: None)
        assert eng.pending == 0

    def test_schedule_in_rejects_nan(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="NaN delay"):
            eng.schedule_in(float("nan"), lambda: None)
        assert eng.pending == 0

    def test_schedule_run_rejects_nan_first_time(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="t=nan"):
            eng.schedule_run(float("nan"), lambda: None)
        assert eng.pending == 0

    def test_schedule_run_rejects_nan_step(self):
        eng = Engine()
        steps = iter([float("nan"), None])
        eng.schedule_run(1.0, lambda: next(steps), label="burst")
        with pytest.raises(SimulationError, match="'burst' stepped to t=nan"):
            eng.run()

    def test_order_unaffected_by_rejected_nan(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(2.0, lambda: fired.append(2))
        for schedule in (eng.schedule, eng.schedule_in):
            with pytest.raises(SimulationError):
                schedule(float("nan"), lambda: fired.append("nan"))
        eng.run()
        assert fired == [1, 2]


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        eng.run()
        assert fired == [1, 10]

    def test_event_at_until_boundary_fires(self):
        eng = Engine()
        fired = []
        eng.schedule(5.0, lambda: fired.append(5))
        eng.run(until=5.0)
        assert fired == [5]

    def test_max_events_guard(self):
        eng = Engine()

        def storm():
            eng.schedule_in(0.0, storm, label="storm")

        eng.schedule(0.0, storm)
        with pytest.raises(SimulationError, match="event storm"):
            eng.run(max_events=100)

    def test_reentrant_run_rejected(self):
        eng = Engine()

        def recurse():
            eng.run()

        eng.schedule(1.0, recurse)
        with pytest.raises(SimulationError, match="re-entrant"):
            eng.run()

    def test_step(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(2.0, lambda: fired.append(2))
        assert eng.step()
        assert fired == [1]
        assert eng.step()
        assert not eng.step()

    def test_events_processed_counter(self):
        eng = Engine()
        for k in range(5):
            eng.schedule(float(k), lambda: None)
        eng.run()
        assert eng.events_processed == 5


class TestErrorText:
    """The guard-rail messages are operator-facing; pin their contents."""

    def test_max_events_message_names_limit_time_and_culprit(self):
        eng = Engine()

        def storm():
            eng.schedule_in(0.0, storm, label="storm")

        eng.schedule(0.0, storm, label="storm")
        with pytest.raises(SimulationError) as excinfo:
            eng.run(max_events=50)
        message = str(excinfo.value)
        assert "exceeded max_events=50" in message
        assert "t=0.0" in message
        assert "'storm'" in message
        assert "likely an event storm" in message

    def test_reentrant_message_and_recovery(self):
        eng = Engine()
        seen = []

        def recurse():
            with pytest.raises(
                SimulationError, match=r"already running \(re-entrant run call\)"
            ):
                eng.run()
            seen.append("caught")

        eng.schedule(1.0, recurse)
        eng.run()
        assert seen == ["caught"]
        # The guard must not leave the engine wedged: a fresh run works.
        eng.schedule(2.0, lambda: seen.append("after"))
        eng.run()
        assert seen == ["caught", "after"]

    def test_run_resumes_after_event_storm_error(self):
        eng = Engine()
        for k in range(5):
            eng.schedule(float(k), lambda: None)
        with pytest.raises(SimulationError, match="event storm"):
            eng.run(max_events=2)
        eng.run()  # drains the remaining three events
        assert eng.events_processed == 5


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = Engine()
        fired = []
        handle = eng.schedule(1.0, lambda: fired.append("no"))
        eng.schedule(2.0, lambda: fired.append("yes"))
        handle.cancel()
        eng.run()
        assert fired == ["yes"]

    def test_cancel_idempotent(self):
        eng = Engine()
        handle = eng.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_peek_time_skips_cancelled(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        h.cancel()
        assert eng.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Engine().peek_time() is None

    def test_peek_time_traces_discards_like_run(self):
        """A cancelled event discarded by ``peek_time`` leaves the same
        ``sim.cancel`` record as one discarded by ``run``."""

        def records(peek: bool) -> list:
            eng = Engine()
            first = eng.schedule(1.0, lambda: None, label="a")
            eng.schedule(2.0, lambda: None, label="b")
            third = eng.schedule(3.0, lambda: None, label="c")
            eng.schedule(4.0, lambda: None, label="d")
            first.cancel()
            tracer = Tracer()
            with tracing(tracer):
                if peek:
                    assert eng.peek_time() == 2.0
                eng.run(until=2.5)
                third.cancel()
                if peek:
                    assert eng.peek_time() == 4.0
                eng.run()
            return [(ev.kind, ev.t, ev.data) for ev in tracer.events]

        peeked = records(peek=True)
        assert peeked == records(peek=False)
        assert [r for r in peeked if r[0] == "sim.cancel"] == [
            ("sim.cancel", 0.0, {"label": "a", "event_seq": 0}),
            ("sim.cancel", 2.5, {"label": "c", "event_seq": 2}),
        ]

    def test_cancel_releases_the_action(self):
        class Action:
            def __call__(self) -> None:
                raise AssertionError("cancelled event fired")

        eng = Engine()
        action = Action()
        ref = weakref.ref(action)
        handle = eng.schedule(1.0, action)
        del action
        assert ref() is not None  # held by the queued event
        handle.cancel()
        assert ref() is None
        assert eng.pending == 1  # cancellation stays lazy
        eng.run()
        assert eng.events_processed == 0

    def test_handle_exposes_metadata(self):
        eng = Engine()
        h = eng.schedule(4.0, lambda: None, label="thing")
        assert h.time == 4.0
        assert h.label == "thing"
        assert not h.cancelled


class _RefHandle:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _SortedReference:
    """Naive oracle for :class:`Engine`: a flat list of pending entries,
    always firing the live one with the smallest ``(time, priority, seq)``.

    A ``schedule_run`` is a chain of individually scheduled sub-events,
    each taking its ``seq`` when its predecessor's ``step`` returns --
    the scalar behaviour the engine's batched runs must reproduce.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._seq = 0
        self._pending: list[tuple[float, int, int, object, _RefHandle]] = []

    def _push(self, time, priority, action, handle):
        self._pending.append((time, priority, self._seq, action, handle))
        self._seq += 1

    def schedule(self, time, action, *, priority=0, label=""):
        handle = _RefHandle()
        self._push(time, priority, action, handle)
        return handle

    def schedule_in(self, delay, action, *, priority=0, label=""):
        return self.schedule(self.now + delay, action, priority=priority)

    def schedule_run(self, first_time, step, *, priority=0, label=""):
        handle = _RefHandle()

        def fire():
            next_time = step()
            if next_time is not None and not handle.cancelled:
                self._push(next_time, priority, fire, handle)

        self._push(first_time, priority, fire, handle)
        return handle

    def _fire_next(self, until):
        live = [e for e in self._pending if not e[4].cancelled]
        if not live:
            return False
        entry = min(live, key=lambda e: e[:3])
        if until is not None and entry[0] > until:
            return False
        self._pending.remove(entry)
        self.now = entry[0]
        entry[3]()
        self.events_processed += 1
        return True

    def step(self):
        return self._fire_next(None)

    def run(self, until=None):
        while self._fire_next(until):
            pass
        if until is not None and until > self.now:
            self.now = until


def _drive(engine, seed: int) -> list:
    """A seeded mix of schedule / schedule_in / schedule_run calls on a
    coarse time grid (so equal-time and equal-priority ties abound),
    with cancellations before and during the run; returns the firing log.
    """
    rng = np.random.default_rng(seed)
    log: list = []
    handles: list = []

    def action(tag: int):
        def fire() -> None:
            log.append(("ev", tag, engine.now))
            # Per-tag decisions: identical for any engine firing in the
            # same order.
            r = np.random.default_rng([seed, tag])
            if handles and r.random() < 0.3:
                handles[int(r.integers(len(handles)))].cancel()
            delay = (None, None, 0.0, 0.5, 1.0)[int(r.integers(5))]
            if delay is not None:
                child = engine.schedule_in(
                    delay, action(len(handles)), priority=int(r.integers(3))
                )
                handles.append(child)

        return fire

    def run_step(tag: int, deltas: list):
        k = [0]

        def step():
            log.append(("run", tag, k[0], engine.now))
            if k[0] == len(deltas):
                return None
            k[0] += 1
            return engine.now + deltas[k[0] - 1]

        return step

    for _ in range(60):
        tag = len(handles)
        priority = int(rng.integers(3))
        time = 0.5 * int(rng.integers(16))
        kind = rng.random()
        if kind < 0.4:
            handle = engine.schedule(time, action(tag), priority=priority)
        elif kind < 0.7:
            handle = engine.schedule_in(time, action(tag), priority=priority)
        else:
            deltas = [
                (0.0, 0.0, 0.5, 1.0)[int(rng.integers(4))]
                for _ in range(int(rng.integers(1, 9)))
            ]
            handle = engine.schedule_run(time, run_step(tag, deltas), priority=priority)
        handles.append(handle)
    for idx in rng.choice(len(handles), size=8, replace=False):
        handles[idx].cancel()

    engine.run(until=2.0)
    engine.step()
    engine.step()
    engine.run(until=4.5)
    engine.run()
    return log


class TestHeapOrder:
    @pytest.mark.parametrize("seed", range(12))
    def test_fired_order_matches_sorted_reference(self, seed):
        eng = Engine()
        ref = _SortedReference()
        got = _drive(eng, seed)
        want = _drive(ref, seed)
        assert len(want) > 60
        assert got == want
        assert eng.events_processed == ref.events_processed
        assert eng.now == ref.now
        assert eng.peek_time() is None
