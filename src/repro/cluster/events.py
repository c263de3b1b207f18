"""A minimal discrete-event simulation engine.

Drives the pipeline simulator: events are ``(time, seq, fn, args)`` entries
in a binary heap, and running one calls ``fn(*args)``; handlers may
schedule further events. Passing state as arguments lets a simulation
reuse one handler per kind of event instead of building a closure per
event. Deterministic given deterministic handlers (ties broken by
insertion order).

Both classes are observable through :data:`repro.obs.OBS`: when a real
tracer is installed the loop emits one virtual-time span per callback
and resources label their booked windows; when disabled (the default)
the only cost is one attribute read per :meth:`EventLoop.run` call.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..obs import OBS

__all__ = ["EventLoop", "SerialResource"]


class EventLoop:
    """Priority-queue event loop with virtual time."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at ``now + delay`` (delay may be zero, not negative)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.at(self.now + delay, fn, *args)

    def at(self, t: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``t >= now``."""
        if t < self.now - 1e-12:
            raise ValueError(f"cannot schedule into the past (t={t} < now={self.now})")
        heapq.heappush(self._heap, (t, self._seq, fn, args))
        self._seq += 1

    def run(self, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains; returns final time.

        ``events_processed`` is kept correct on every exit path — normal
        drain, a budget :class:`RuntimeError`, or a callback raising —
        so post-mortem inspection after a scheduling loop sees the real
        count, not the pre-run value.
        """
        n = 0
        try:
            if not OBS.enabled:  # one check per run, not per event
                while self._heap:
                    t, _, fn, args = heapq.heappop(self._heap)
                    self.now = t
                    fn(*args)
                    n += 1
                    if n > max_events:
                        raise RuntimeError(
                            f"event budget exceeded ({max_events}) after "
                            f"processing {self.events_processed + n} events; "
                            f"likely a scheduling loop"
                        )
                return self.now
            # traced twin of the loop above: kept branch-free there so the
            # disabled hot path pays nothing per event
            tracer = OBS.tracer
            track = tracer.group("events")
            while self._heap:
                t, seq, fn, args = heapq.heappop(self._heap)
                self.now = t
                fn(*args)
                n += 1
                # the handler's effects land at self.now; a later `now`
                # would mean fn() re-entered the loop, so t..self.now is
                # the event's span either way
                tracer.record(
                    getattr(fn, "__qualname__", repr(fn)).split(".")[-1],
                    t,
                    self.now,
                    category="event",
                    track=track,
                    seq=seq,
                )
                if n > max_events:
                    raise RuntimeError(
                        f"event budget exceeded ({max_events}) after processing "
                        f"{self.events_processed + n} events; likely a scheduling loop"
                    )
            return self.now
        finally:
            self.events_processed += n
            OBS.metrics.counter("events.processed").inc(n)

    def __repr__(self) -> str:
        return f"EventLoop(now={self.now:.6f}, pending={len(self._heap)})"


class SerialResource:
    """A resource that serves one occupant at a time in FIFO order.

    Models a shared communication link: each :meth:`acquire` books the
    next free window of ``duration`` seconds and returns it, so callers
    can schedule completion events at the window's end. Purely
    bookkeeping — it never touches an :class:`EventLoop` itself.
    """

    def __init__(self, name: str = "", record: bool = False):
        self.name = name
        self.free_at: float = 0.0
        self.busy_time: float = 0.0
        self.acquisitions: int = 0
        #: booked ``(start, end, label)`` windows, kept only when
        #: ``record=True`` (the overlap engine and the Chrome exporter
        #: both read these — one source of truth for occupancy)
        self.windows: list[tuple[float, float, str]] | None = [] if record else None

    def acquire(
        self, now: float, duration: float, label: str = ""
    ) -> tuple[float, float]:
        """Book ``duration`` seconds starting no earlier than ``now``.

        Returns ``(start, end)`` of the booked window; ``start > now``
        means the caller queued behind earlier occupants. ``label``
        names the window in recorded traces (e.g. ``"bucket3"``).
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = max(now, self.free_at)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        self.acquisitions += 1
        if self.windows is not None and duration > 0:
            self.windows.append((start, end, label))
        return start, end

    def __repr__(self) -> str:
        return f"SerialResource({self.name!r}, free_at={self.free_at:.6f})"
