"""The §7.8.5 node: OS cache above flash cache above disk, all SLO-aware.

Three users with different working sets and deadlines share one stack:

* hot data answers from the page cache (MittCache guards residency),
* warm data answers from the SSD flash-cache tier (MittSSD guards chips),
* cold data goes to the disk (MittCFQ guards the spindle),

and a single ``read(..., deadline)`` call is admitted by whichever tier
will actually serve it — the composition the paper demonstrates by running
all three microbenchmark noises at once.
"""

from repro.errors import EBusy, is_ebusy
from repro.kernel.syscall import ReadResult


class TieredStack:
    """Page-cache -> flash-cache -> disk read path with one deadline."""

    def __init__(self, sim, page_cache, flash_cache, memory_read_us=20.0):
        self.sim = sim
        self.page_cache = page_cache
        self.flash_cache = flash_cache
        self.memory_read_us = memory_read_us
        self.reads = 0
        self.ebusy_returned = 0

    def read(self, file_id, offset, size, pid=0, deadline=None):
        """Tiered SLO-aware read; event yields ReadResult or EBUSY."""
        self.reads += 1
        ev = self.sim.event()
        start = self.sim.now

        if (self.page_cache is not None
                and self.page_cache.touch(file_id, offset, size)):
            self.sim.schedule(self.memory_read_us, ev.try_succeed,
                              ReadResult(True, self.memory_read_us))
            return ev

        lower = self.flash_cache.read(file_id, offset, size, pid=pid,
                                      deadline=deadline)

        def on_lower(done):
            if not done.ok:
                ev.fail(done.exception)
                return
            result = done._value
            if is_ebusy(result):
                self.ebusy_returned += 1
                ev.try_succeed(result)
                return
            if self.page_cache is not None:
                self.page_cache.insert(file_id, offset, size)
            ev.try_succeed(ReadResult(False, self.sim.now - start))

        lower.add_callback(on_lower)
        return ev

    def addrcheck(self, file_id, offset, size, deadline):
        """Residency check against the page cache (mmap path, §4.4).

        On a miss the deadline is compared against the *flash* tier's
        floor when the extent is cached there, else the disk tier's —
        the same propagation rule as MittCache, one more level deep.
        """
        if self.page_cache.resident(file_id, offset, size):
            return True
        if self.flash_cache.cached(offset, size):
            predictor = self.flash_cache.ssd_os.predictor
        else:
            predictor = self.flash_cache.disk_os.predictor
        if predictor is not None and deadline < predictor.min_io_latency(
                size):
            self.ebusy_returned += 1
            self.page_cache.note_ebusy_swapin(file_id, offset, size)
            return EBusy()
        return True
