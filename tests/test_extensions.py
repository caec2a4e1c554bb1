"""Tests of the §8.2 extensions: VMM timeslices and runtime GC."""

import pytest

from repro._units import MB, MS
from repro.errors import is_ebusy
from repro.extensions import ManagedRuntime, MittGc, MittVmm, Vmm


# -- VMM ---------------------------------------------------------------------

def test_vmm_needs_a_vm(sim):
    with pytest.raises(ValueError):
        Vmm(sim, 0)


def test_rotation_is_round_robin(sim):
    vmm = Vmm(sim, 3, timeslice_us=30 * MS)
    assert vmm.running_vm(0) == 0
    assert vmm.running_vm(30 * MS) == 1
    assert vmm.running_vm(60 * MS) == 2
    assert vmm.running_vm(90 * MS) == 0


def test_next_wake_math(sim):
    vmm = Vmm(sim, 3, timeslice_us=30 * MS)
    assert vmm.next_wake(0, now=0.0) == 0.0           # running now
    assert vmm.next_wake(1, now=0.0) == 30 * MS
    assert vmm.next_wake(2, now=0.0) == 60 * MS
    assert vmm.next_wake(0, now=31 * MS) == 90 * MS   # full rotation away


def test_message_to_running_vm_is_fast(sim):
    vmm = Vmm(sim, 3)
    ev = vmm.deliver(0, service_us=100.0)
    sim.run()
    assert ev.value == pytest.approx(100.0)
    assert vmm.parked == 0


def test_message_to_frozen_vm_parks(sim):
    vmm = Vmm(sim, 3, timeslice_us=30 * MS)
    ev = vmm.deliver(2, service_us=100.0)
    sim.run()
    assert ev.value == pytest.approx(60 * MS + 100.0)
    assert vmm.parked == 1


def test_mittvmm_rejects_long_parks(sim):
    vmm = Vmm(sim, 3, timeslice_us=30 * MS)
    mitt = MittVmm(vmm)
    ev = mitt.deliver(2, deadline_us=20 * MS)
    sim.run()
    assert is_ebusy(ev.value)
    assert mitt.rejected == 1


def test_mittvmm_accepts_running_vm(sim):
    vmm = Vmm(sim, 3, timeslice_us=30 * MS)
    mitt = MittVmm(vmm)
    ev = mitt.deliver(0, deadline_us=20 * MS)
    sim.run()
    assert not is_ebusy(ev.value)
    assert mitt.admitted == 1


def test_mittvmm_cuts_the_park_tail(sim):
    """End to end: rejecting frozen-VM messages removes the 30-60ms tail."""
    vmm = Vmm(sim, 3, timeslice_us=30 * MS)
    mitt = MittVmm(vmm)
    base_lat, mitt_lat = [], []

    def client(latencies, deadline):
        rng = sim.rng(f"vmm/{deadline}")
        for _ in range(60):
            vm = rng.randrange(3)
            start = sim.now
            result = yield mitt.deliver(vm, deadline_us=deadline)
            if is_ebusy(result):
                # failover: the replica's VM on another machine is
                # running with probability ~1; model as a fast retry.
                yield 300.0
                yield vmm.deliver(vmm.running_vm(), service_us=100.0)
            latencies.append(sim.now - start)
            yield 5 * MS

    proc1 = sim.process(client(base_lat, None))
    sim.run_until(proc1)
    proc2 = sim.process(client(mitt_lat, 5 * MS))
    sim.run_until(proc2)
    assert max(base_lat) > 25 * MS    # parked behind frozen VMs
    assert max(mitt_lat) < 10 * MS    # rejected + retried instead


# -- managed runtime / GC ------------------------------------------------------

def _runtime(sim, **kw):
    defaults = dict(heap_bytes=16 * MB, live_fraction=0.25,
                    min_pause_us=50 * MS)
    defaults.update(kw)
    return ManagedRuntime(sim, **defaults)


def test_allocation_without_pressure_is_fast(sim):
    runtime = _runtime(sim)
    ev = runtime.allocate(1 * MB, work_us=200.0)
    sim.run()
    assert ev.value == pytest.approx(200.0)


def test_gc_triggers_at_threshold_and_frees(sim):
    runtime = _runtime(sim)

    def hammer():
        for _ in range(20):
            yield runtime.allocate(1 * MB)

    proc = sim.process(hammer())
    sim.run_until(proc)
    assert runtime.collections >= 1
    assert runtime.allocated < runtime.heap_bytes


def test_triggering_request_stalls_through_pause(sim):
    runtime = _runtime(sim)
    runtime.allocated = int(0.89 * runtime.heap_bytes)
    ev = runtime.allocate(1 * MB, work_us=200.0)
    sim.run()
    assert ev.value >= runtime.min_pause_us


def test_other_threads_stall_during_pause(sim):
    runtime = _runtime(sim)
    runtime.allocated = int(0.89 * runtime.heap_bytes)
    trigger = runtime.allocate(1 * MB)
    bystander = runtime.allocate(1024, work_us=10.0)
    sim.run()
    assert bystander.value >= runtime.min_pause_us * 0.9  # stop-the-world


def test_mittgc_rejects_during_pause(sim):
    runtime = _runtime(sim)
    mitt = MittGc(runtime)
    runtime.allocated = int(0.89 * runtime.heap_bytes)
    runtime.allocate(1 * MB)  # triggers the pause
    ev = mitt.allocate(1024, deadline_us=5 * MS)
    sim.run()
    assert is_ebusy(ev.value)


def test_mittgc_predicts_imminent_collection(sim):
    runtime = _runtime(sim)
    mitt = MittGc(runtime)
    runtime.allocated = int(0.89 * runtime.heap_bytes)
    runtime.alloc_rate = 1000.0  # bytes/us: the next alloc will trigger
    stall = mitt.predicted_stall_us(work_us=10_000.0)
    assert stall >= runtime.min_pause_us
    ev = mitt.allocate(1 * MB, deadline_us=5 * MS, work_us=10_000.0)
    sim.run()
    assert is_ebusy(ev.value)


def test_mittgc_accepts_with_headroom(sim):
    runtime = _runtime(sim)
    mitt = MittGc(runtime)
    ev = mitt.allocate(1024, deadline_us=5 * MS)
    sim.run()
    assert not is_ebusy(ev.value)
