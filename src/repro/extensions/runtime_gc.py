"""Runtime-memory MittOS: rejecting ahead of GC pauses (§8.2).

"In Java, a simple 'x = new Request()' can stall for seconds if it
triggers GC.  Worse, all threads on the same runtime must stall. ... we
find that the stall cannot be completely eliminated ... MittOS has the
potential to transform future runtime memory management."

The model: a managed heap fills as requests allocate; when occupancy
crosses a threshold a stop-the-world pause begins, stalling *every*
request on the runtime for a duration proportional to the live set.
:class:`MittGc` is the fast-rejecting admission check: the runtime knows
its allocation rate and heap headroom, so it can predict whether a request
will (a) run into an in-progress pause or (b) itself trigger one, and
return EBUSY instead of stalling — the thing the paper says cannot be
retrofitted into today's collectors (the GC-triggering thread cannot
easily throw).
"""

from repro._units import MS
from repro.errors import EBusy


class ManagedRuntime:
    """A heap with stop-the-world collections."""

    def __init__(self, sim, heap_bytes=256 << 20, gc_trigger_fraction=0.9,
                 live_fraction=0.3, pause_per_live_gb_us=200 * MS,
                 min_pause_us=20 * MS):
        self.sim = sim
        self.heap_bytes = heap_bytes
        self.gc_trigger_fraction = gc_trigger_fraction
        #: Fraction of the heap that survives a collection.
        self.live_fraction = live_fraction
        self.pause_per_live_gb_us = pause_per_live_gb_us
        self.min_pause_us = min_pause_us
        self.allocated = 0
        self.gc_until = 0.0
        self.collections = 0
        #: EWMA of recent allocation rate (bytes/µs), for prediction,
        #: estimated over ≥1 ms windows (per-call deltas explode when
        #: several threads allocate in the same instant).
        self.alloc_rate = 0.0
        self._window_start = 0.0
        self._window_bytes = 0

    # -- state ------------------------------------------------------------
    @property
    def in_gc(self):
        return self.sim.now < self.gc_until

    @property
    def headroom_bytes(self):
        trigger = self.gc_trigger_fraction * self.heap_bytes
        return max(0.0, trigger - self.allocated)

    def pause_duration_us(self):
        live_gb = (self.allocated * self.live_fraction) / (1 << 30)
        return max(self.min_pause_us,
                   live_gb * self.pause_per_live_gb_us)

    def predicted_gc_start_us(self):
        """Projected time of the next collection at the current rate."""
        if self.in_gc:
            return self.sim.now
        if self.alloc_rate <= 0:
            return float("inf")
        return self.sim.now + self.headroom_bytes / self.alloc_rate

    # -- allocation (the request path) -----------------------------------------
    def allocate(self, nbytes, work_us=200.0):
        """One request: allocates, does work, may stall behind a pause.

        Returns an event whose value is the request's runtime latency.
        """
        start = self.sim.now
        self._update_rate(nbytes)
        ev = self.sim.event()

        def begin():
            self.allocated += nbytes
            if self.allocated >= (self.gc_trigger_fraction
                                  * self.heap_bytes):
                self._collect()
                # The triggering request stalls through its own pause.
                self.sim.schedule_at(self.gc_until + work_us,
                                     lambda: ev.try_succeed(
                                         self.sim.now - start))
            else:
                self.sim.schedule(work_us, lambda: ev.try_succeed(
                    self.sim.now - start))

        if self.in_gc:
            # Stop-the-world: every thread waits for the pause to end.
            self.sim.schedule_at(self.gc_until, begin)
        else:
            begin()
        return ev

    def _update_rate(self, nbytes):
        now = self.sim.now
        self._window_bytes += nbytes
        elapsed = now - self._window_start
        if elapsed < 1000.0:
            return
        instant = self._window_bytes / elapsed
        if self.alloc_rate:
            self.alloc_rate = 0.7 * self.alloc_rate + 0.3 * instant
        else:
            self.alloc_rate = instant
        self._window_start = now
        self._window_bytes = 0

    def _collect(self):
        self.collections += 1
        pause = self.pause_duration_us()
        self.gc_until = self.sim.now + pause
        self.allocated = int(self.allocated * self.live_fraction)

    def collect_now(self):
        """Start a collection immediately (proactive GC)."""
        if not self.in_gc:
            self._collect()


class MittGc:
    """Fast-rejecting admission in front of a managed runtime."""

    name = "mittgc"

    def __init__(self, runtime, hop_allowance_us=300.0):
        self.runtime = runtime
        self.hop_allowance_us = hop_allowance_us
        self.admitted = 0
        self.rejected = 0

    def predicted_stall_us(self, work_us, nbytes=0):
        """Stall a request starting now would see (0 if GC is far off).

        ``nbytes`` is the request's own allocation: a request that would
        itself push the heap over the trigger stalls through the pause it
        causes — the "x = new Request() can stall" case.
        """
        runtime = self.runtime
        if runtime.in_gc:
            return runtime.gc_until - runtime.sim.now
        if nbytes >= runtime.headroom_bytes:
            return runtime.pause_duration_us()
        gc_start = runtime.predicted_gc_start_us()
        if gc_start <= runtime.sim.now + work_us:
            return runtime.pause_duration_us()
        return 0.0

    def allocate(self, nbytes, deadline_us=None, work_us=200.0):
        """SLO-aware request admission; EBUSY instead of a GC stall."""
        if deadline_us is not None:
            stall = self.predicted_stall_us(work_us, nbytes=nbytes)
            if stall + work_us > deadline_us + self.hop_allowance_us:
                self.rejected += 1
                if (not self.runtime.in_gc
                        and self.runtime.headroom_bytes <= nbytes):
                    # Fairness caveat (cf. §4.4's background swap-in): the
                    # rejected request must not dodge the inevitable —
                    # collect now so the runtime recovers headroom while
                    # the request is served elsewhere.
                    self.runtime.collect_now()
                ev = self.runtime.sim.event()
                self.runtime.sim.schedule(2.0, ev.try_succeed, EBusy())
                return ev
        self.admitted += 1
        return self.runtime.allocate(nbytes, work_us=work_us)
