"""Event-driven simulation engine.

The engine is a classic calendar queue: callbacks are scheduled at absolute
simulation times and executed in time order.  Ties are broken by insertion
order, which makes every run fully deterministic — a property the test
suite, the golden-trace fixtures, and the benchmark harness rely on.

Times are floats in **seconds**.  The engine never interprets them; the
unit convention lives in :mod:`repro.sim.units`.

Two scheduling tiers share one heap and one insertion-order counter:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — the checked
  path.  Validates the timestamp and returns an :class:`Event` handle that
  can be cancelled.  Use it everywhere correctness-by-construction is not
  obvious, and always when the event may need cancelling.
* :meth:`Simulator.schedule_fast_at` — the kernel-internal fast path
  for the per-cell hot loop (port serializers, link deliveries).  Skips
  the ordering check and the ``Event`` wrapper; the caller promises the
  timestamp is not in the past and that the callback will never be
  cancelled.  Execution order relative to checked events is governed by
  the shared ``(time, seq)`` tie-break, so mixing tiers is bit-identical
  to using the checked path throughout.

Transmitters that drain back-to-back cell trains use
:meth:`Simulator.advance_inline` to step the clock to the next departure
without a heap round-trip; the engine only permits the shortcut when it is
observationally identical to scheduling a real wake-up (see the method's
docstring), so event counts and execution order never depend on whether
the shortcut was taken.

Deliveries into sinks that only count can be *absorbed*: inside an
unbounded :meth:`Simulator.run`, such a link queues ``(instant, seq,
cell)`` on its own FIFO instead of pushing the heap entry, drawing the
same sequence number the entry would have had.  The engine records the
``seq`` of the executing entry, so a reader can retire exactly the
absorbed entries the heap would already have popped — those with
``(instant, seq) < (now, seq)`` — and count them as executed events; on
exit, ``run()`` retires the ones that fired and requeues the rest as the
ordinary heap entries they stand for (see :meth:`Simulator.run`).
"""

from __future__ import annotations

import gc

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any, Callable

_UNSET = object()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, bad run bounds)."""


class Event:
    """Handle for a scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only
    keeps them to :meth:`cancel` or to inspect :attr:`time`.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_seq", "_sim",
                 "_fired")

    def __init__(self, time: float, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._seq = seq
        self._sim: "Simulator | None" = None
        self._fired = False

    def cancel(self) -> None:
        """Prevent the callback from firing.

        Cancelling an event that already fired (or was already cancelled)
        is a harmless no-op, which keeps timer-management code simple.
        """
        if not self.cancelled and not self._fired:
            # first cancellation of a live event: its heap entry is now
            # stale (lazily dropped), which the O(1) pending-event count
            # must discount
            sim = self._sim
            if sim is not None:
                sim._stale += 1
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.9f} {name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, hello)        # relative delay
        sim.run(until=10.0)

    The loop pops the earliest event, advances :attr:`now` to its
    timestamp, and invokes the callback.  Callbacks schedule further
    events; the simulation ends when the heap drains, ``until`` is
    reached, or :meth:`stop` is called.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # entries are (time, seq, Event-or-None, fn, args); seq is unique,
        # so heap comparisons never reach the third element and checked
        # and fast entries can share the queue
        self._heap: list[tuple[float, int, "Event | None",
                               Callable[..., Any], tuple]] = []
        self._seq = count()
        self._running = False
        self._stopped = False
        self._until: float | None = None
        #: Cancelled-but-not-yet-popped heap entries.  ``pending_events``
        #: is ``len(_heap) - _stale``, so the hot scheduling and dispatch
        #: paths never maintain a counter — only the cold cancel path and
        #: the lazy drop of a cancelled entry touch this.
        self._stale = 0
        #: True while a run() without a ``max_events`` bound is active;
        #: gates advance_inline and absorbed deliveries, so the safety
        #: valve and step() see the evented kernel.
        self._inline_ok = False
        #: Events executed, less absorbed deliveries not yet retired
        #: (read :attr:`executed_events`).
        self._executed = 0
        #: ``seq`` of the executing heap entry (``inf`` after an inline
        #: advance: its wake-up would have been the newest entry), the
        #: tie-break half of the absorbed-delivery retire key.
        self._seq_now: float = -1
        #: Links that absorb deliveries (``retire_absorbed``/``absorbed``,
        #: see :class:`repro.atm.link.Link`).
        self._absorbers: list[Any] = []
        #: Structured trace bus (:class:`repro.obs.Tracer`) or None.
        #: When set, the engine emits ``engine.schedule`` per scheduling
        #: call and ``engine.event`` per executed event (category
        #: "engine").  Departures drained via :meth:`advance_inline`
        #: stay inside their callback and are not re-emitted — the
        #: component-level emits (port/link) cover them.  With no tracer
        #: the cost is one ``is None`` check per event.
        self.tracer = None

    # ------------------------------------------------------------------
    # scheduling — checked path
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        event = Event(time, next(self._seq), fn, args)
        event._sim = self
        heappush(self._heap, (time, event._seq, event, fn, args))
        tracer = self.tracer
        if tracer is not None and tracer.enabled("engine"):
            tracer.emit(self.now, "engine.schedule", "sim", at=time,
                        fn=getattr(fn, "__qualname__",
                                   type(fn).__name__))
        return event

    # ------------------------------------------------------------------
    # scheduling — kernel-internal fast path
    # ------------------------------------------------------------------
    def schedule_fast_at(self, time: float, fn: Callable[..., Any],
                         args: tuple = ()) -> None:
        """Hot-path schedule: no checks, no :class:`Event` handle.

        Contract (the caller's promise, unchecked here): ``time`` is not
        in the past and the callback is never cancelled.  Reserved for
        kernel-internal transmitters; everything else uses
        :meth:`schedule`.  Note ``args`` is a tuple argument, not
        varargs.

        The hottest kernel components bypass even this method and push
        the same 5-tuple onto :attr:`_heap` themselves (aliasing
        ``_heap`` and ``_seq``, both stable for the simulator's life);
        the entry layout here is the contract they follow.
        """
        heappush(self._heap, (time, next(self._seq), None, fn, args))
        tracer = self.tracer
        if tracer is not None and tracer.enabled("engine"):
            tracer.emit(self.now, "engine.schedule", "sim", at=time,
                        fn=getattr(fn, "__qualname__",
                                   type(fn).__name__), fast=True)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def advance_inline(self, time: float) -> bool:
        """From inside a callback: advance :attr:`now` to ``time`` and
        count one executed event, iff that is observationally identical
        to scheduling a wake-up at ``time`` and letting the loop pop it.

        The shortcut is refused (returns False, state untouched) when

        * no unbounded ``run()`` is active (``step()``, ``max_events``
          runs, and direct calls keep exact semantics),
        * :meth:`stop` was called,
        * ``time`` lies beyond the active ``until`` bound, or
        * any pending event is stamped at or before ``time`` — a tie
          must run first, because a wake-up scheduled now would carry a
          larger insertion sequence than anything already queued.

        On refusal the caller schedules a real wake-up instead, which is
        exactly what the pre-optimisation kernel did unconditionally;
        event counts and execution order are therefore identical whether
        or not the shortcut is ever taken.
        """
        if not self._inline_ok or self._stopped:
            return False
        until = self._until
        if until is not None and time > until:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time:
            return False
        self.now = time
        self._seq_now = inf
        self._executed += 1
        return True

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (observability/tests).

        Cell trains drained via :meth:`advance_inline` count one event
        per drained departure, and absorbed deliveries one event each
        once the heap would have popped them, so the total is invariant
        under the fast-path optimisations and exact mid-run.
        """
        self._retire_absorbed()
        return self._executed

    def _retire_absorbed(self) -> None:
        """Count every absorbed delivery the heap would already have
        popped: ``(instant, seq) < (now, seq of the executing entry)``."""
        if self._absorbers:
            key = (self.now, self._seq_now)
            for absorber in self._absorbers:
                absorber.retire_absorbed(key)

    def _settle_absorbed(self, key: tuple) -> float:
        """Run exit: retire the absorbed deliveries before ``key`` and
        requeue the rest as ordinary heap entries with their reserved
        ``(instant, seq)``.  Returns the latest retired instant."""
        latest = -inf
        for absorber in self._absorbers:
            last = absorber.retire_absorbed(key, requeue=True)
            if last > latest:
                latest = last
        return latest

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, seq, event, fn, args = heappop(heap)
            if event is not None:
                if event.cancelled:
                    self._stale -= 1
                    continue
                event._fired = True
            self.now = time
            self._seq_now = seq
            self._executed += 1
            tracer = self.tracer
            if tracer is not None and tracer.enabled("engine"):
                tracer.emit(time, "engine.event", "sim",
                            fn=getattr(fn, "__qualname__",
                                       type(fn).__name__))
            fn(*args)
            return True
        return False

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Run until the heap drains, ``until`` is reached, or stop().

        ``until`` is inclusive: events stamped exactly ``until`` still run,
        and :attr:`now` is left at ``until`` when the bound is what ended
        the run (so probe series have a well-defined horizon).
        ``max_events`` is a safety valve for tests.

        Deliveries are absorbed (see the module docstring) only inside a
        run without ``max_events``.  Whatever ends it — the heap
        draining, the ``until`` bound, :meth:`stop`, an exception — the
        absorbed entries the evented kernel would have executed by then
        are counted (all up to the bound when the heap drained or the
        bound was reached; those before the executing entry otherwise),
        and the rest go back into the heap as ordinary entries, so
        :meth:`step` and bounded runs continue from the evented state.

        The cyclic garbage collector is paused for the duration of the
        loop (and restored on exit, including on exceptions): the hot
        path allocates heap-entry tuples and cells at a rate that makes
        generational collection pauses a measurable fraction of the run,
        while the kernel's objects are reclaimed by reference counting
        alone.  Cyclic garbage created by callbacks is simply deferred
        to the next collection after the run — observable outcomes are
        unaffected.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until!r} is in the past")
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        self._until = until
        self._inline_ok = max_events is None
        bound = inf if until is None else until
        heap = self._heap
        pop = heappop
        # hoisted and pre-gated: with tracing off (or the "engine"
        # category disabled) the per-event cost is one local None check
        tracer = self.tracer
        if tracer is not None and not tracer.enabled("engine"):
            tracer = None
        # the event count is incremented on the attribute, event by
        # event, so callbacks (probes, policy hooks, user timers) that
        # read it mid-run always see the exact count — an accumulate-in-
        # a-local variant was measured and rejected: the saving is noise
        # next to the callback itself, and it makes the attribute
        # silently stale for the duration of the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if max_events is None:
                # unbounded loop: the hot one — no per-event budget check
                while heap and not self._stopped:
                    # pop first, push back on bound overrun: the overrun
                    # happens at most once per run, the peek it saves is
                    # paid per event.  Cancelled events are dropped before
                    # the bound check so a dead head can't end the run
                    # early.
                    time, seq, event, fn, args = entry = pop(heap)
                    if event is not None:
                        if event.cancelled:
                            self._stale -= 1
                            continue
                        if time > bound:
                            heappush(heap, entry)
                            break
                        event._fired = True
                    elif time > bound:
                        heappush(heap, entry)
                        break
                    self.now = time
                    self._seq_now = seq
                    self._executed += 1
                    if tracer is not None:
                        tracer.emit(time, "engine.event", "sim",
                                    fn=getattr(fn, "__qualname__",
                                               type(fn).__name__))
                    fn(*args)
                if self._absorbers:
                    # stop() keeps what fired before the executing
                    # entry; a drained heap or the bound fires all
                    # absorbed deliveries up to the bound
                    latest = self._settle_absorbed(
                        (self.now, self._seq_now) if self._stopped
                        else (bound, inf))
                    if latest > self.now:
                        self.now = latest
            else:
                remaining = max_events
                while heap and not self._stopped:
                    time, seq, event, fn, args = entry = pop(heap)
                    if event is not None:
                        if event.cancelled:
                            self._stale -= 1
                            continue
                        if time > bound:
                            heappush(heap, entry)
                            break
                        event._fired = True
                    elif time > bound:
                        heappush(heap, entry)
                        break
                    self.now = time
                    self._seq_now = seq
                    self._executed += 1
                    if tracer is not None:
                        tracer.emit(time, "engine.event", "sim",
                                    fn=getattr(fn, "__qualname__",
                                               type(fn).__name__))
                    fn(*args)
                    remaining -= 1
                    if remaining <= 0:
                        break
            if until is not None and not self._stopped and (
                    not heap or heap[0][0] > bound):
                self.now = max(self.now, until)
        except BaseException:
            self._settle_absorbed((self.now, self._seq_now))
            raise
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self._inline_ok = False
            self._until = None

    def stop(self) -> None:
        """End the current :meth:`run` after the executing event returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still queued, absorbed
        deliveries not yet retired included."""
        self._retire_absorbed()
        return (len(self._heap) - self._stale
                + sum(len(a.absorbed) for a in self._absorbers))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator now={self.now:.6f} "
                f"pending={self.pending_events}>")
