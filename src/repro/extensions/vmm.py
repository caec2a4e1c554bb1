"""CPU-timeslice MittOS at the VMM layer (§8.2).

"In EC2, CPU-intensive VMs can contend with each other.  The VMM by
default sets a VM's CPU timeslice to 30 ms, thus user requests to a frozen
VM will be parked in the VMM for tens of ms.  With MittOS, the user can
pass a deadline through the network stack, and when the message is
received by the VMM, it can reject the message with EBUSY if the target VM
must still sleep more than the deadline time."

The model: one physical core rotates round-robin over the runnable VMs in
fixed timeslices.  A message delivered to a descheduled VM parks until the
VM's next slice; :class:`MittVmm` computes the exact park time (the VMM
literally owns the schedule) and rejects when it exceeds the deadline.
"""

from repro._units import MS
from repro.errors import EBusy


class Vmm:
    """Round-robin timeslice scheduler for colocated VMs on one core."""

    def __init__(self, sim, n_vms, timeslice_us=30 * MS):
        if n_vms < 1:
            raise ValueError("need at least one VM")
        self.sim = sim
        self.n_vms = n_vms
        self.timeslice_us = timeslice_us
        self.delivered = 0
        self.parked = 0

    # -- the schedule (deterministic rotation) ----------------------------
    def running_vm(self, now=None):
        """Which VM holds the core at time ``now``."""
        now = self.sim.now if now is None else now
        return int(now // self.timeslice_us) % self.n_vms

    def next_wake(self, vm, now=None):
        """Absolute time when ``vm`` next holds the core (0 if running)."""
        now = self.sim.now if now is None else now
        if self.running_vm(now) == vm:
            return now
        slot = int(now // self.timeslice_us)
        current = slot % self.n_vms
        ahead = (vm - current) % self.n_vms
        return (slot + ahead) * self.timeslice_us

    def slice_end(self, now=None):
        now = self.sim.now if now is None else now
        return (int(now // self.timeslice_us) + 1) * self.timeslice_us

    # -- message delivery ---------------------------------------------------
    def deliver(self, vm, service_us=100.0):
        """Deliver a message to ``vm``: parks until the VM runs.

        Returns an event whose value is the total in-VMM latency (park +
        service).  Service is assumed to fit the remaining slice.
        """
        self.delivered += 1
        start = self.sim.now
        wake = self.next_wake(vm)
        if wake > start:
            self.parked += 1
        ev = self.sim.event()
        self.sim.schedule_at(wake + service_us, lambda: ev.try_succeed(
            self.sim.now - start))
        return ev


class MittVmm:
    """The VMM-level fast-rejecting check."""

    name = "mittvmm"

    def __init__(self, vmm, hop_allowance_us=300.0):
        self.vmm = vmm
        self.hop_allowance_us = hop_allowance_us
        self.admitted = 0
        self.rejected = 0

    def predicted_park_us(self, vm):
        """How long a message to ``vm`` would park right now."""
        return self.vmm.next_wake(vm) - self.vmm.sim.now

    def deliver(self, vm, deadline_us=None, service_us=100.0):
        """SLO-aware delivery: EBUSY if the VM sleeps past the deadline."""
        if deadline_us is not None:
            park = self.predicted_park_us(vm)
            if park + service_us > deadline_us + self.hop_allowance_us:
                self.rejected += 1
                ev = self.vmm.sim.event()
                self.vmm.sim.schedule(2.0, ev.try_succeed, EBusy())
                return ev
        self.admitted += 1
        return self.vmm.deliver(vm, service_us=service_us)
