"""The discrete-event simulation core: clock, event queue, run loop.

Everything in the simulated cluster — message deliveries, timers, crash and
recovery events — is an :class:`Event` scheduled at a simulated time.  The
simulator pops events in (time, sequence) order and invokes their callbacks,
so execution is fully deterministic for a given seed and schedule.

This is the hot loop under every benchmark and chaos sweep, so the core is
deliberately lean: heap entries are ``(time, sequence, event)`` tuples the
heap compares in C (sequences are unique, so the event itself is never
compared), the run loop pops the heap exactly once per event, labels are
rendered only when someone reads them, work that merely follows the current
event (a transport flush) is *deferred* instead of scheduled, and cancelled
events are tombstones that are *compacted* once they dominate the heap
instead of leaking until their (possibly far-future) fire time arrives.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, Optional, Union

#: An event label: the text, or a zero-argument callable rendering it (hot
#: paths pass one so the string is only built when traced or printed).
Label = Union[str, Callable[[], str]]

#: Compaction trigger: once at least this many tombstones exist *and* they
#: make up over half the heap, the queue is rebuilt without them.  Below the
#: floor the scan costs more than the garbage; above it the rebuild is
#: amortized O(1) per cancellation.
_COMPACT_MIN_TOMBSTONES = 256


class Event:
    """A scheduled callback.

    Ordering is **pinned** to ``(time, sequence)``: the sequence number is
    assigned at scheduling time so simultaneous events fire in the order
    they were scheduled, keeping runs reproducible.  The simulator's heap
    holds ``(time, sequence, event)`` tuples and sequences are unique, so
    the comparison never reaches the event: neither the callback nor the
    label can participate, and the trace cannot depend on payload contents.
    """

    __slots__ = ("time", "sequence", "callback", "_label", "cancelled", "_owner")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[[], None], label: Label = "",
                 owner: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self._label = label
        self.cancelled = False
        self._owner = owner

    @property
    def label(self) -> str:
        """The label's text (rendered now if it was given as a callable)."""
        label = self._label
        return label if isinstance(label, str) else label()

    def cancel(self) -> None:
        """Mark the event so the run loop skips it when popped.

        The event counts its tombstone on the owning simulator, which
        compacts the heap once tombstones dominate it, so heavy
        cancel/re-arm churn (RPC retries, gossip cadences under clock skew)
        cannot leak far-future stale events.  An event that has already
        been popped (fired, or firing: a callback may cancel its own event)
        has no owner left and counts nothing.
        """
        if not self.cancelled:
            self.cancelled = True
            owner = self._owner
            if owner is not None:
                owner._cancelled += 1
                if owner._cancelled >= _COMPACT_MIN_TOMBSTONES:
                    owner._compact()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time:.3f}, seq={self.sequence}, "
                f"label={self.label!r}{state})")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All simulated
        randomness (network delays, drop decisions, jitter) must come from
        :attr:`rng` so runs are reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._deferred: deque[Callable[[], None]] = deque()
        self._sequence = 0
        self._cancelled = 0
        self._events_processed = 0
        self._trace: list[tuple[float, str]] = []
        self.tracing = False

    # -- scheduling -------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None],
                 label: Label = "") -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sequence = self._sequence
        self._sequence = sequence + 1
        time = self.now + delay
        event = Event(time, sequence, callback, label, self)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None],
                    label: Label = "") -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        return self.schedule(max(0.0, time - self.now), callback, label)

    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as soon as the current event's callback returns.

        Deferred callbacks run FIFO before the next heap pop — so before
        any event already scheduled for this same instant — and one that
        defers again is drained in the same pass.  They are not events: no
        :class:`Event`, label, heap entry or trace row, and no count in
        :attr:`events_processed`.  Deferred from outside an event (or by an
        event that then raised), a callback runs on entry to the next
        :meth:`run` / :meth:`step`; :attr:`pending_events` counts it
        meanwhile, so a ``while sim.pending_events`` loop cannot strand it.
        """
        self._deferred.append(callback)

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` (equivalent to ``event.cancel()``)."""
        event.cancel()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones once they make up over half
        of it (:meth:`Event.cancel` calls this from the tombstone floor up).

        Without this, a workload that constantly re-arms long-deadline
        timers (every RPC retry, every drift-stretched gossip tick) grows
        the heap with cancelled events that only fall out when their
        original — possibly far-future — fire time is reached, costing
        memory and ``log n`` heap work per live event.  Compaction rebuilds
        the heap without tombstones; heapify preserves the pinned
        ``(time, sequence)`` order, so the observable event trace is
        byte-identical with or without it.
        """
        if self._cancelled * 2 > len(self._queue):
            # Compact IN PLACE: the run loops hold a local reference to the
            # queue list, so rebinding ``self._queue`` to a fresh list would
            # strand every event scheduled after the compaction in a list
            # nobody drains.
            queue = self._queue
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    # -- running ----------------------------------------------------------------

    def _drain_deferred(self) -> None:
        deferred = self._deferred
        while deferred:
            deferred.popleft()()

    def step(self) -> bool:
        """Process the next event.  Returns False when the queue is empty."""
        self._drain_deferred()
        queue = self._queue
        while queue:
            time, _, event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._owner = None  # off the heap: a late cancel is no tombstone
            self.now = time
            if self.tracing:
                self._trace.append((time, event.label))
            event.callback()
            self._events_processed += 1
            self._drain_deferred()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire."""
        queue = self._queue
        deferred = self._deferred
        pop = heapq.heappop
        fired = 0
        try:
            self._drain_deferred()  # whatever was deferred outside an event
            while queue:
                time, _, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    # Never move the clock backwards: a caller that already
                    # ran past ``until`` keeps its current time (matching
                    # the drained-queue path, which leaves ``now`` alone).
                    if until > self.now:
                        self.now = until
                    return
                if max_events is not None and fired >= max_events:
                    return
                pop(queue)
                event._owner = None  # as in step()
                self.now = time
                if self.tracing:
                    self._trace.append((time, event.label))
                event.callback()
                fired += 1
                while deferred:  # _drain_deferred, inlined: the hot loop
                    deferred.popleft()()
        finally:
            self._events_processed += fired

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Run until no events remain; guard against runaway simulations."""
        processed_before = self._events_processed
        self.run(max_events=max_events)
        if self._queue and self._events_processed - processed_before >= max_events:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events; "
                "likely a livelock in the simulated protocol"
            )

    # -- introspection ----------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Work still queued: events (cancelled tombstones included, until
        compaction reclaims them) plus deferred callbacks not yet run."""
        return len(self._queue) + len(self._deferred)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying the queue as tombstones."""
        return self._cancelled

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def trace(self) -> list[tuple[float, str]]:
        """Labels of processed events (only populated when ``tracing`` is on)."""
        return list(self._trace)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
