"""Error codes and exceptions shared across the stack.

The paper's central mechanism is the kernel returning ``EBUSY`` from
``read(..., slo)`` when the deadline SLO cannot be met.  We model errno-style
results with small falsy objects.  Every EBUSY is an :class:`EBusy`
instance, so call sites write ``if is_ebusy(result): failover()``, the
analogue of the C code in Figure 2.  ``EIO`` is a singleton sentinel, so
``result is EIO`` is exact.
"""


class _Errno:
    """Singleton errno-like sentinel (falsy, identity-comparable)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        return False


#: Returned by strategies when every replica failed (paper: "users receive
#: read errors even though less-busy replicas are available", Table 1).
EIO = _Errno("EIO")


class EBusy:
    """The fast-rejection signal: the OS predicts the IO cannot meet its
    deadline.  Falsy; means "rejected, fail over now".

    A rejection may carry the predicted wait of the rejecting node (§8.1's
    "richer interface" extension).  Each rejection mints a fresh instance,
    so the hint is per-request — concurrent requests can no longer
    overwrite each other's wait (the race a shared
    ``predictor.last_rejected_wait`` had).  Test with :func:`is_ebusy`.
    """

    __slots__ = ("predicted_wait",)

    def __init__(self, predicted_wait=None):
        self.predicted_wait = predicted_wait

    def __repr__(self):
        if self.predicted_wait is None:
            return "EBUSY"
        return f"EBUSY(wait={self.predicted_wait:.0f}us)"

    def __bool__(self):
        return False


def is_ebusy(result):
    """True for an :class:`EBusy` rejection."""
    return isinstance(result, EBusy)


class SimulationError(Exception):
    """Base class for errors raised by the simulation framework itself."""


class SchedulingInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class ProcessCrashed(SimulationError):
    """A top-level simulation process raised and nobody was waiting on it."""


class DeterminismError(SimulationError):
    """The replay sanitizer caught a broken determinism invariant.

    Raised by ``Simulator(paranoid=True)`` when the executed event trace
    violates clock monotonicity (e.g. someone mutated the event heap behind
    the simulator's back) — see ``repro/analysis`` for the matching static
    checks (rule IDs DET001-DET005).
    """
