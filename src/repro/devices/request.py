"""Block-layer IO requests.

A :class:`BlockRequest` flows application -> syscall -> IO scheduler ->
device.  It carries the deadline SLO (µs, absolute) attached by the
``read(..., slo)`` interface, the predictor's bookkeeping fields (predicted
wait/service, used for the diff calibration of §4.1 and the accuracy
accounting of §7.6), and timestamps for latency attribution.
"""

from enum import Enum, IntEnum

_next_req_id = 0


def _take_req_id():
    global _next_req_id
    rid = _next_req_id
    _next_req_id += 1
    return rid


def reset_req_ids(start=0):
    """Restart request-id numbering (called by ``Simulator.__init__``).

    ``req_id`` is pure identity — it never influences scheduling — but it
    appears in trace events, so same-seed runs in one process must number
    their requests identically for trace digests to match.  Offline
    profilers pass ``start=req_id_watermark()`` (captured beforehand) to
    restore the caller's numbering after their probe runs.
    """
    global _next_req_id
    _next_req_id = start


def req_id_watermark():
    """The next id to be issued (pair with ``reset_req_ids(mark)``)."""
    return _next_req_id


class IoOp(Enum):
    READ = "read"
    WRITE = "write"


class IoClass(IntEnum):
    """CFQ service classes (ionice): RealTime > BestEffort > Idle."""

    RT = 0
    BE = 1
    IDLE = 2


class BlockRequest:
    """One block IO with SLO, priority, and prediction bookkeeping."""

    __slots__ = (
        "req_id", "op", "offset", "size", "pid", "ioclass", "priority",
        "abs_deadline", "submit_time", "dispatch_time", "service_start",
        "complete_time", "predicted_wait", "predicted_service",
        "shadow_ebusy", "cancelled", "callbacks", "tag",
    )

    def __init__(self, op, offset, size, pid=0, ioclass=IoClass.BE,
                 priority=4, abs_deadline=None):
        if size <= 0:
            raise ValueError(f"request size must be positive: {size}")
        if offset < 0:
            raise ValueError(f"request offset must be >= 0: {offset}")
        if not 0 <= priority <= 7:
            raise ValueError(f"ionice priority out of range: {priority}")
        self.req_id = _take_req_id()
        self.op = op
        self.offset = offset
        self.size = size
        self.pid = pid
        self.ioclass = ioclass
        self.priority = priority
        #: Absolute simulation time by which the IO must complete, or None.
        self.abs_deadline = abs_deadline
        self.submit_time = None
        self.dispatch_time = None
        self.service_start = None
        self.complete_time = None
        #: Predictor outputs (µs), filled by the MittOS layer when enabled.
        self.predicted_wait = None
        self.predicted_service = None
        #: Accuracy-test mode (§7.6): EBUSY decision recorded, IO still runs.
        self.shadow_ebusy = False
        self.cancelled = False
        self.callbacks = []
        self.tag = {}

    @property
    def end_offset(self):
        return self.offset + self.size

    def add_callback(self, fn):
        """Run ``fn(request)`` at completion (or cancellation)."""
        self.callbacks.append(fn)

    def finish(self, now):
        """Mark complete at ``now`` and fire callbacks."""
        self.complete_time = now
        callbacks, self.callbacks = self.callbacks, []
        for fn in callbacks:
            fn(self)

    @property
    def latency(self):
        """Submit-to-complete latency (µs); None until completed."""
        if self.complete_time is None or self.submit_time is None:
            return None
        return self.complete_time - self.submit_time

    def __repr__(self):
        return (f"<BlockRequest #{self.req_id} {self.op.value} "
                f"off={self.offset} size={self.size} pid={self.pid}>")
