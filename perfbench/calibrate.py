"""A fixed reference workload that measures how fast the host runs Python now.

Host time on a shared VM drifts: the same process doing the same work takes
up to twice as long when neighbours are busy.  ``run.py`` runs this kernel
between the cells it times and scales its host times by
``NOMINAL_S / (median kernel time)``, so that a time reads as seconds on a
host running at the reference speed.

The kernel is a small discrete-event simulation written here, so that no
change to the program under test changes it: thousands of generator
processes resumed from a ``heapq`` event queue, ``random.Random`` draws,
small objects in a growing dict, and list appends.  Like the simulator's,
its working set (the live generator frames, the queue and the objects) is
larger than a core's private caches; a kernel that fits in them slowed
down more than the simulator did when the host got busy.
"""

import heapq
import random
import time

#: The kernel's median time on the reference host (a quiet 2-vCPU Xeon VM,
#: CPython 3.11), in seconds.
NOMINAL_S = 0.05
#: Concurrent generator processes, the requests each makes, and the keys
#: they draw from.
N_CLIENTS = 3000
N_OPS = 4
N_KEYS = 150_000


class _Entry:
    def __init__(self, key):
        self.key = key
        self.hits = 0


def _client(rng, store, served):
    for _ in range(N_OPS):
        key = rng.randrange(N_KEYS)
        yield rng.expovariate(1.0 / 200.0)
        entry = store.get(key)
        if entry is None:
            store[key] = _Entry(key)
            yield 800.0 + rng.random() * 100.0
        else:
            entry.hits += 1
        served.append((key, rng.random()))


def kernel():
    """One fixed simulation."""
    rng = random.Random(1)
    store = {}
    served = []
    # Sorted by sequence number at equal times, so already a heap.
    heap = [(0.0, seq, _client(rng, store, served))
            for seq in range(N_CLIENTS)]
    seq = N_CLIENTS
    while heap:
        now, _, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, proc))


def sample():
    """Host seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
