"""Event records for the simulation engine."""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["Event", "EventHandle"]


class Event:
    """A scheduled callback.

    The engine's heap holds ``(time, priority, seq, event)`` tuples, so
    ordering is by ``(time, priority, seq)``: earlier time first, then
    lower priority number, then insertion order.  ``seq`` is unique, so
    tuple comparison is decided before it reaches the event itself;
    :class:`Event` therefore defines no ordering of its own and keeps
    only what the heap key does not: the action, the label, and the
    cancellation flag (plus ``time``, for :attr:`EventHandle.time`).
    """

    __slots__ = ("time", "action", "label", "cancelled")

    def __init__(
        self, time: float, action: Callable[[], None] | None, label: str = ""
    ) -> None:
        self.time = time
        self.action = action
        self.label = label
        self.cancelled = False


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`; supports cancellation.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped, which keeps ``cancel`` O(1).  Cancelling also drops the
    event's ``action``, so the callback -- and everything its closure
    captured -- is released at cancel time rather than when the dead
    heap entry is finally popped.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time

    @property
    def label(self) -> str:
        """Diagnostic label given at scheduling time."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing and release its action (idempotent)."""
        ev = self._event
        ev.cancelled = True
        ev.action = None
