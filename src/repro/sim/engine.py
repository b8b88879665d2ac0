"""The event loop: a monotonic clock over a binary heap of events."""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter

from repro.obs import trace as _trace
from repro.sim.events import Event, EventHandle

__all__ = ["Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling into the past or at NaN, or on runaway event storms."""


def _bad_time(time: float, now: float) -> SimulationError:
    """The error for a scheduling time that is not ``>= now``."""
    if time != time:
        return SimulationError(f"cannot schedule at t=nan (current time t={now})")
    return SimulationError(f"cannot schedule at t={time} before current time t={now}")


class Engine:
    """Discrete-event simulation engine.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(2.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: heap of ``(time, priority, seq, event)``; ``seq`` is unique, so
        #: comparisons run entirely in C and never reach the event.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        #: the ``until`` horizon of the active :meth:`run` call; burst
        #: runs consult it so inline sub-events never fire past it.
        self._until: float | None = None

    # A property over a C getter: callbacks read the clock constantly,
    # and this skips a Python frame per read.
    now = property(attrgetter("_now"), doc="Current simulation time.")

    @property
    def events_processed(self) -> int:
        """Total events fired since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Events still queued (including lazily cancelled ones)."""
        return len(self._queue)

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to fire at absolute ``time``.

        ``priority`` breaks ties at equal times (lower fires first);
        insertion order breaks remaining ties.  Scheduling strictly in the
        past or at NaN raises :class:`SimulationError`; scheduling at the
        current instant is allowed (the event fires before time advances).
        """
        # ``not >=`` also rejects NaN, at no cost on the normal path.
        if not (time >= self._now):
            raise _bad_time(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, action, label)
        heappush(self._queue, (time, priority, seq, ev))
        return EventHandle(ev)

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` after a nonnegative relative ``delay``."""
        if not (delay >= 0.0):
            raise SimulationError(
                f"negative delay {delay}" if delay < 0.0 else "NaN delay"
            )
        # Inlined rather than delegating to schedule(): one Python call
        # less on the path every timeout takes.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, action, label)
        heappush(self._queue, (time, priority, seq, ev))
        return EventHandle(ev)

    def schedule_run(
        self,
        first_time: float,
        step: Callable[[], float | None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule a batched run of sub-events sharing one heap entry.

        ``step()`` fires at ``first_time`` and must return the absolute
        time of the next firing (or ``None`` to end the run).  The run
        reuses a single :class:`Event` object: after each firing it is
        re-keyed with a fresh sequence number -- so equal-time ties
        against independently scheduled events break exactly as if each
        sub-event had been scheduled individually at its predecessor's
        firing -- and, while no other pending event (and no ``until``
        horizon) comes first, the next sub-event fires *inline* without
        touching the heap at all; otherwise the run re-queues under a
        fresh ``(time, priority, seq, event)`` heap tuple.  A run of N
        sub-events therefore costs one event allocation and
        O(interruptions) heap operations instead of N of each, while
        producing the same clock advancement, the same per-sub-event
        ``sim.fire`` trace events and the same ``events_processed``
        total as N scalar events (a burst adds its inline sub-events to
        the total when it yields).

        Inline sub-events are not counted against :meth:`run`'s
        ``max_events`` guard (runs are finite by construction: each
        firing consumes one ``step`` result).  Cancelling the returned
        handle stops the run at the next firing boundary.
        """
        if not (first_time >= self._now):
            raise _bad_time(first_time, self._now)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(first_time, None, label)
        queue = self._queue

        def fire() -> None:
            until = self._until
            # ``fired`` counts the sub-events fired inline so far; they are
            # added to ``events_processed`` when the burst yields.
            fired = 0
            try:
                for fired in count():
                    next_time = step()
                    if next_time is None or ev.cancelled:
                        return
                    if not (next_time >= self._now):
                        raise SimulationError(
                            f"run {label!r} stepped to t={next_time}, not at or "
                            f"after current time t={self._now}"
                        )
                    seq = self._seq
                    self._seq = seq + 1
                    ev.time = next_time
                    # Re-queue when the horizon or an earlier pending event
                    # comes first; the full key compare only runs when the
                    # head's time does not already settle it.
                    if (until is not None and next_time > until) or (
                        queue
                        and queue[0][0] <= next_time
                        and queue[0] < (next_time, priority, seq)
                    ):
                        heappush(queue, (next_time, priority, seq, ev))
                        return
                    # Fire the next sub-event inline: same clock/trace
                    # protocol as the main loop, minus heap traffic.
                    self._now = next_time
                    if _trace.TRACER is not None:
                        _trace.TRACER.emit(
                            "sim.fire", t=next_time, label=label, event_seq=seq
                        )
            finally:
                self._events_processed += fired

        ev.action = fire
        heappush(self._queue, (first_time, priority, seq, ev))
        return EventHandle(ev)

    def run(
        self, until: float | None = None, *, max_events: int | None = None
    ) -> None:
        """Process events until the queue drains, ``until`` passes, or
        ``max_events`` have fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (events scheduled at ``until`` do fire).  ``max_events``
        guards against runaway feedback loops in protocol state machines.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run call)")
        self._running = True
        self._until = until
        fired = 0
        # Hot loop: bind the heap locally; at throughput-suite event rates
        # the repeated attribute lookups are measurable.
        queue = self._queue
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                time, _, seq, ev = heappop(queue)
                if ev.cancelled:
                    if _trace.TRACER is not None:
                        self._emit_cancel(seq, ev)
                    continue
                self._now = time
                if _trace.TRACER is not None:
                    _trace.TRACER.emit("sim.fire", t=time, label=ev.label, event_seq=seq)
                ev.action()
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self._now} "
                        f"(last event {ev.label!r}); likely an event storm"
                    )
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._until = None

    def step(self) -> bool:
        """Fire the single next non-cancelled event; False if queue empty.

        A burst run (:meth:`schedule_run`) fires exactly one sub-event
        per ``step`` call: the horizon is pinned so the run re-queues
        instead of continuing inline.
        """
        self._until = float("-inf")
        try:
            return self._step_one()
        finally:
            self._until = None

    def _step_one(self) -> bool:
        while self._queue:
            time, _, seq, ev = heappop(self._queue)
            if ev.cancelled:
                if _trace.TRACER is not None:
                    self._emit_cancel(seq, ev)
                continue
            self._now = time
            if _trace.TRACER is not None:
                _trace.TRACER.emit("sim.fire", t=time, label=ev.label, event_seq=seq)
            ev.action()
            self._events_processed += 1
            return True
        return False

    def peek_time(self) -> float | None:
        """Time of the next pending event, discarding cancelled ones.

        Each discarded event emits the same ``sim.cancel`` record that
        :meth:`run` and :meth:`step` emit when they pop it.
        """
        queue = self._queue
        while queue:
            time, _, seq, ev = queue[0]
            if not ev.cancelled:
                return time
            heappop(queue)
            if _trace.TRACER is not None:
                self._emit_cancel(seq, ev)
        return None

    def _emit_cancel(self, seq: int, ev: Event) -> None:
        """Trace the discard of a lazily cancelled heap entry."""
        _trace.TRACER.emit("sim.cancel", t=self._now, label=ev.label, event_seq=seq)
