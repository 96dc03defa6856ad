"""Unit tests for the discrete-event simulator core."""

from functools import partial

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import repro.cluster.simulator as simulator
from repro.cluster import Network, NetworkConfig, Node, Simulator
from repro.cluster.simulator import _COMPACT_MIN_TOMBSTONES


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run_until_idle()
        assert fired == ["early", "late"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run_until_idle()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        sim.run_until_idle()
        assert sim.now == pytest.approx(3.5)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: sim.schedule_at(5.0, lambda: times.append(sim.now)))
        sim.run_until_idle()
        assert times == [pytest.approx(5.0)]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run_until_idle()
        assert fired == [0, 1, 2, 3]


class TestRunBounds:
    def test_run_until_time_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == pytest.approx(5.0)
        assert sim.pending_events == 1

    def test_run_until_idle_detects_runaway(self):
        sim = Simulator()

        def rescheduling():
            sim.schedule(1.0, rescheduling)

        sim.schedule(1.0, rescheduling)
        with pytest.raises(RuntimeError):
            sim.run_until_idle(max_events=100)

    def test_determinism_across_seeds(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            samples = []
            for _ in range(5):
                sim.schedule(sim.rng.random(), lambda: samples.append(round(sim.now, 6)))
            sim.run_until_idle()
            return samples

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_run_until_in_the_past_never_rewinds_the_clock(self):
        # Regression: run(until=X) with X < now used to set now = X, moving
        # simulated time backwards whenever events remained queued — the
        # drained-queue path always left ``now`` alone.
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.schedule(50.0, lambda: None)
        sim.run(until=20.0)
        assert sim.now == pytest.approx(20.0)
        sim.run(until=5.0)  # already past; must be a no-op on the clock
        assert sim.now == pytest.approx(20.0)
        sim.run_until_idle()
        assert sim.now == pytest.approx(50.0)

    def test_max_events_counts_across_early_returns(self):
        sim = Simulator()
        for index in range(10):
            sim.schedule(float(index), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        sim.run(max_events=3)
        assert sim.events_processed == 6
        sim.run_until_idle()
        assert sim.events_processed == 10


class TestEventOrdering:
    def test_tie_order_never_compares_payloads(self):
        # The heap's total order is pinned to (time, sequence).  Dataclass
        # field comparison would fall through to the callback/label on time
        # ties — with non-comparable callables that raises TypeError, and
        # with comparable payloads the trace would depend on their values.
        sim = Simulator()
        fired = []

        class Opaque:  # deliberately not orderable
            def __init__(self, tag):
                self.tag = tag

            def __call__(self):
                fired.append(self.tag)

        for tag in ("a", "b", "c", "d"):
            sim.schedule(1.0, Opaque(tag))
        sim.run_until_idle()
        assert fired == ["a", "b", "c", "d"]


class TestCancelCompaction:
    def test_heavy_rearm_churn_keeps_the_queue_bounded(self):
        # Regression for the stale-event leak: a perpetually superseded
        # far-future deadline (the ClockSkew / RPC-retry re-arm pattern)
        # must not grow the heap by one tombstone per cancel.
        sim = Simulator()
        rearms = 4 * _COMPACT_MIN_TOMBSTONES
        fired = 0
        peak = 0
        deadline = [None]

        def on_deadline():  # pragma: no cover - must never fire
            raise AssertionError("cancelled deadline fired")

        def step():
            nonlocal fired, peak
            fired += 1
            if deadline[0] is not None:
                deadline[0].cancel()
            if fired < rearms:
                deadline[0] = sim.schedule(1e9, on_deadline)
                sim.schedule(1.0, step)
                peak = max(peak, sim.pending_events)
            else:
                deadline[0] = None

        sim.schedule(1.0, step)
        sim.run_until_idle(max_events=rearms + 10)
        assert fired == rearms
        # Tombstones may accumulate up to the compaction trigger, never to
        # one-per-rearm.
        assert peak <= 2 * _COMPACT_MIN_TOMBSTONES + 8
        assert sim.cancelled_pending <= _COMPACT_MIN_TOMBSTONES

    def test_events_scheduled_after_compaction_still_fire(self):
        # Regression: an early compaction implementation rebound the queue
        # to a new list while run() held a reference to the old one — every
        # event scheduled after the compaction was silently stranded.
        sim = Simulator()
        fired = []
        count = 3 * _COMPACT_MIN_TOMBSTONES

        def chain(index):
            victim = sim.schedule(1e9, lambda: None)
            victim.cancel()
            if index < count:
                sim.schedule(1.0, lambda: chain(index + 1))
            else:
                fired.append(index)

        sim.schedule(1.0, lambda: chain(0))
        sim.run_until_idle(max_events=count + 10)
        assert fired == [count]
        assert sim.pending_events == sim.cancelled_pending

    def test_compaction_does_not_change_the_trace(self):
        # Compaction is an internal reshuffle; the observable event trace
        # must be byte-identical to a run whose churn never crosses the
        # compaction threshold.
        def trace(rearms):
            sim = Simulator(seed=11)
            sim.tracing = True
            deadline = [None]
            fired = [0]

            def step():
                fired[0] += 1
                if deadline[0] is not None:
                    deadline[0].cancel()
                if fired[0] < rearms:
                    deadline[0] = sim.schedule(1e9, lambda: None, label="dead")
                    sim.schedule(1.0, step, label=f"step-{fired[0]}")
                else:
                    deadline[0] = None

            sim.schedule(1.0, step, label="step-0")
            sim.run_until_idle(max_events=rearms + 10)
            return sim.trace

        below = trace(_COMPACT_MIN_TOMBSTONES // 2)
        above = trace(4 * _COMPACT_MIN_TOMBSTONES)
        # The longer run's trace starts with exactly the shorter run's trace.
        assert above[:len(below) - 1] == below[:-1]


class TestTombstoneCount:
    """``cancelled_pending`` counts cancelled events still on the heap —
    never an event that has already been popped."""

    @staticmethod
    def heap_tombstones(sim):
        return sum(event.cancelled for _, _, event in sim._queue)

    def test_a_cancel_after_run_counts_nothing(self):
        sim = Simulator()
        fired = [sim.schedule(1.0, lambda: None), sim.schedule(2.0, lambda: None)]
        sim.run_until_idle()
        for event in fired:
            event.cancel()
        assert sim.cancelled_pending == 0

    def test_a_step_then_cancel_counts_nothing(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        assert sim.step()
        first.cancel()
        second.cancel()  # still queued: a real tombstone
        assert sim.cancelled_pending == self.heap_tombstones(sim) == 1

    def test_a_callback_that_cancels_its_own_event_counts_nothing(self):
        sim = Simulator()
        own = []
        own.append(sim.schedule(1.0, lambda: own[0].cancel()))
        sim.run_until_idle()
        assert own[0].cancelled
        assert sim.cancelled_pending == 0

    def test_a_crash_after_the_timers_fired_counts_only_live_timers(self):
        sim = Simulator()
        node = Node("n", sim, Network(sim, NetworkConfig()))
        fired = []
        for delay in (1.0, 2.0, 3.0):
            node.set_timer(delay, lambda: fired.append(sim.now))
        sim.run_until_idle()
        node.crash()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.cancelled_pending == 0

        node.recover()
        node.set_timer(1.0, lambda: fired.append(sim.now))  # fires
        node.set_timer(5.0, lambda: fired.append(sim.now))  # cancelled by the crash
        sim.run(until=sim.now + 2.0)
        node.crash()
        assert sim.cancelled_pending == self.heap_tombstones(sim) == 1
        sim.run_until_idle()
        assert sim.cancelled_pending == 0 and fired == [1.0, 2.0, 3.0, 4.0]


class TestDefer:
    """``Simulator.defer``: work that follows the current event without
    being an event (the transport's flush)."""

    def test_deferred_callbacks_run_fifo_after_the_event_returns(self):
        sim = Simulator()
        order = []

        def event():
            sim.defer(lambda: order.append("first"))
            sim.defer(lambda: order.append("second"))
            order.append("event-body")

        sim.schedule(1.0, event)
        sim.run_until_idle()
        assert order == ["event-body", "first", "second"]

    def test_runs_before_a_same_instant_event_already_scheduled(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: sim.defer(lambda: order.append("deferred")))
        sim.schedule(1.0, lambda: order.append("same-instant event"))
        sim.run_until_idle()
        assert order == ["deferred", "same-instant event"]

    def test_nested_defers_drain_in_the_same_pass(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.defer(lambda: order.append("nested"))

        sim.schedule(1.0, lambda: sim.defer(outer))
        sim.schedule(2.0, lambda: order.append("next event"))
        sim.run(max_events=1)
        assert order == ["outer", "nested"]
        assert sim.now == pytest.approx(1.0)

    @pytest.mark.parametrize("drive", [
        lambda sim: sim.run(until=0.0),
        lambda sim: sim.step(),
        lambda sim: sim.run_until_idle(),
    ], ids=["run", "step", "run_until_idle"])
    def test_deferred_outside_an_event_drains_on_entry(self, drive):
        sim = Simulator()
        ran = []
        sim.defer(lambda: ran.append(sim.now))
        assert sim.pending_events == 1  # a `while pending_events` loop sees it
        drive(sim)
        assert ran == [0.0]
        assert sim.pending_events == 0

    def test_step_runs_deferred_work_then_the_event_it_scheduled(self):
        sim = Simulator()
        fired = []
        sim.defer(lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        assert sim.step() is True
        assert fired == [1.0]
        assert sim.step() is False

    def test_deferred_work_is_neither_counted_nor_traced(self):
        sim = Simulator()
        sim.tracing = True
        ran = []
        sim.schedule(1.0, lambda: sim.defer(lambda: ran.append("x")),
                     label="the-event")
        sim.run_until_idle()
        assert ran == ["x"]
        assert sim.events_processed == 1
        assert sim.trace == [(1.0, "the-event")]

    def test_a_raising_event_does_not_lose_deferred_work(self):
        sim = Simulator()
        ran = []

        def failing():
            sim.defer(lambda: ran.append("deferred"))
            raise RuntimeError("boom")

        sim.schedule(1.0, failing)
        sim.schedule(2.0, lambda: ran.append("later event"))
        with pytest.raises(RuntimeError):
            sim.run_until_idle()
        assert ran == [] and sim.pending_events == 2
        sim.run_until_idle()
        assert ran == ["deferred", "later event"]


class TestLazyLabels:
    def test_callable_label_is_rendered_only_when_traced(self):
        rendered = []

        def label():
            rendered.append(1)
            return "lazy-label"

        sim = Simulator()
        sim.schedule(1.0, lambda: None, label=label)
        sim.run_until_idle()
        assert rendered == [] and sim.trace == []

        sim.tracing = True
        event = sim.schedule(1.0, lambda: None, label=label)
        sim.run_until_idle()
        assert sim.trace == [(2.0, "lazy-label")]
        assert event.label == "lazy-label"
        assert "label='lazy-label'" in repr(event)


# -- the heap against a from-scratch oracle ----------------------------------------------

DELAY = st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])
#: What an event does when it fires: nothing, cancel ``count`` of the events
#: still pending from the ``first`` on (in scheduling order) or itself,
#: schedule one, or defer work.
ACTION = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("cancel"), st.integers(0, 3), st.integers(1, 3)),
    st.just(("cancel_self",)),
    st.tuples(st.just("schedule"), DELAY),
    st.just(("defer",)),
)


class HeapOracle:
    """The simulator from scratch: a dict of live entries, the earliest fired
    by ``min``, and a list of deferred work.  An event's key is its
    scheduling sequence."""

    def __init__(self):
        self.now = 0.0
        self.live = {}          # sequence -> time
        self.actions = []       # sequence -> action
        self.deferred = []
        self.log = []           # sequences fired and ("deferred", key) drained, in order

    def schedule(self, delay, action):
        self.live[len(self.actions)] = self.now + delay
        self.actions.append(action)

    def cancel(self, key):
        self.live.pop(key, None)

    def drain(self):
        while self.deferred:
            self.log.append(("deferred", self.deferred.pop(0)))

    def fire_next(self, until=None):
        if not self.live:
            return False
        key = min(self.live, key=lambda seq: (self.live[seq], seq))
        if until is not None and self.live[key] > until:
            return False
        self.now = self.live.pop(key)
        self.log.append(key)
        kind, *arg = self.actions[key]
        if kind == "cancel" and self.live:
            first, count = arg
            pending = sorted(self.live)
            for victim in pending[first % len(pending):][:count]:
                self.cancel(victim)
        elif kind == "schedule":
            self.schedule(arg[0], ("none",))
        elif kind == "defer":
            self.deferred.append(key)
        self.drain()
        return True

    def step(self):
        self.drain()
        return self.fire_next()

    def run(self, until=None):
        self.drain()
        while self.fire_next(until):
            pass
        if until is not None and self.live and until > self.now:
            self.now = until


class SimulatorHeapMachine(RuleBasedStateMachine):
    """``schedule`` / ``cancel`` (in callbacks, and after firing) /
    ``defer`` / ``step`` / ``run(until=...)`` with compaction kicking in at
    two tombstones, held to :class:`HeapOracle` after every step."""

    def __init__(self):
        super().__init__()
        self.compact_at = simulator._COMPACT_MIN_TOMBSTONES
        simulator._COMPACT_MIN_TOMBSTONES = 2
        self.sim = Simulator()
        self.oracle = HeapOracle()
        self.events = []        # key -> Event
        self.actions = []       # key -> action
        self.log = []
        self.fired = set()
        self.latest = 0.0

    def teardown(self):
        simulator._COMPACT_MIN_TOMBSTONES = self.compact_at

    def schedule_real(self, delay, action):
        key = len(self.events)
        self.actions.append(action)
        self.events.append(self.sim.schedule(delay, partial(self.fire, key)))

    def fire(self, key):
        self.log.append(key)
        self.fired.add(key)
        kind, *arg = self.actions[key]
        pending = [event for index, event in enumerate(self.events)
                   if index not in self.fired and not event.cancelled]
        if kind == "cancel" and pending:
            # A cancel of several while running is what makes tombstones
            # dominate and compact the heap under ``run``'s feet.
            first, count = arg
            for event in pending[first % len(pending):][:count]:
                event.cancel()
        elif kind == "cancel_self":
            self.events[key].cancel()
        elif kind == "schedule":
            self.schedule_real(arg[0], ("none",))
        elif kind == "defer":
            self.sim.defer(partial(self.log.append, ("deferred", key)))

    @rule(delay=DELAY, action=ACTION)
    def schedule(self, delay, action):
        self.schedule_real(delay, action)
        self.oracle.schedule(delay, action)

    @precondition(lambda self: self.events)
    @rule(index=st.integers(0, 15))
    def cancel(self, index):
        self.events[index % len(self.events)].cancel()
        self.oracle.cancel(index % len(self.oracle.actions))

    @rule()
    def defer(self):
        self.sim.defer(partial(self.log.append, ("deferred", "outside")))
        self.oracle.deferred.append("outside")

    @rule()
    def step(self):
        assert self.sim.step() == self.oracle.step()

    @rule(ahead=st.sampled_from([None, 0.0, 0.5, 1.0, 3.0]))
    def run(self, ahead):
        until = None if ahead is None else self.sim.now + ahead
        self.sim.run(until=until)
        self.oracle.run(until=until)

    @invariant()
    def the_heap_is_the_oracle(self):
        sim, oracle, heap = self.sim, self.oracle, self.sim._queue
        assert self.log == oracle.log
        assert sim.now == oracle.now >= self.latest
        self.latest = sim.now
        assert sorted((time, seq) for time, seq, event in heap if not event.cancelled) == (
            sorted((time, seq) for seq, time in oracle.live.items()))
        assert all(heap[(index - 1) // 2][:2] <= heap[index][:2]
                   for index in range(1, len(heap)))
        assert sim.cancelled_pending == sum(event.cancelled for _, _, event in heap)
        assert sim.pending_events == (len(oracle.live) + sim.cancelled_pending
                                      + len(oracle.deferred))


SimulatorHeapMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None)
TestSimulatorHeapMachine = SimulatorHeapMachine.TestCase
